"""The package holds what its two engines use, and nothing else.

Every function, class and method defined in src/diffcomb must be
referenced somewhere in src/diffcomb.  Test oracles live in
tests/helpers.py, and helpers of a script live in that script.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "diffcomb"

# qualified name -> its reader outside the package, and when it goes
ALLOWED = {
    "theory.TheoryTrajectory.msd1":
        "perfbench/tracing.py reads it to count evolve steps; ROADMAP "
        "item 5 removes it with the benchmark refresh",
}


def _definitions(tree):
    """(name, qualified name) of each module-level function and class, and
    of each non-dunder method of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("__")):
                    yield item.name, f"{node.name}.{item.name}"


def unreferenced(sources):
    """Qualified names, as module.name, of the definitions in sources
    (module name -> source text) whose name no ast.Name id and no
    ast.Attribute attribute of any module equals: coarse, and no call
    graph is needed."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    return sorted(f"{module}.{qualified}"
                  for module, tree in trees.items()
                  for name, qualified in _definitions(tree)
                  if name not in used)


def test_scan_finds_what_nothing_references():
    sources = {
        "a": "def used():\n    pass\n\n\ndef unused():\n    used()\n",
        "b": ("class Box:\n"
              "    def __init__(self):\n        self.read()\n"
              "    def read(self):\n        pass\n"
              "    def unread(self):\n        pass\n\n\n"
              "class Unbuilt:\n    pass\n\n\n"
              "box = Box()\n"),
    }
    assert unreferenced(sources) == ["a.unused", "b.Box.unread", "b.Unbuilt"]


def test_every_definition_is_referenced_in_the_package():
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    assert unreferenced(sources) == sorted(ALLOWED)
