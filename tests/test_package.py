"""The package holds what its two engines use, and nothing else.

Every function, class and method defined in src/diffcomb must be
referenced somewhere in src/diffcomb.  Test oracles live in
tests/helpers.py, and helpers of a script live in that script.  Every
defaulted parameter must be passed by some call in src/diffcomb,
scripts/ or perfbench/: an option only tests set is a code path no
run takes.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "diffcomb"

# qualified name -> its reader outside the package, and when it goes
ALLOWED = {
    "theory.TheoryTrajectory.msd1":
        "perfbench/tracing.py reads it to count evolve steps; ROADMAP "
        "item 5 removes it with the benchmark refresh",
}

# module.function.parameter -> why no call in the scan passes it
ALLOWED_UNSET = {
    "cli.main.argv":
        "the console entry passes no argument; tests pass argv",
    "harness.compare.names":
        "perfbench passes it through Pass.run, which the scan does not follow",
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


def _callables(tree):
    """(name calls use, qualified name, ast.arguments, count of leading
    parameters no call fills) of each module-level function and each
    method of a module-level class: a method's self or cls is not
    filled, and __init__ is called by its class's name."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node.name, node.args, 0
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in item.decorator_list)
                    called = node.name if item.name == "__init__" else item.name
                    yield (called, f"{node.name}.{item.name}", item.args,
                           int(not static))


def _passes(call, name, index):
    """Whether call fills the parameter name, index-th positionally (None
    for keyword-only): by keyword, by position or through * or **."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    return index is not None and (len(call.args) > index or any(
        isinstance(arg, ast.Starred) for arg in call.args))


def unset_defaults(sources, callers):
    """Qualified names, as module.function.parameter, of the defaulted
    parameters in sources (module name -> source text) that no call in
    callers (source texts) passes.  A call matches a definition by the
    called name alone, the last attribute of a dotted one, like
    unreferenced()."""
    calls = {}
    for text in callers:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(
                    func, "attr", None)
                calls.setdefault(name, []).append(node)
    flagged = []
    for module, text in sources.items():
        for called, qualified, args, skip in _callables(ast.parse(text)):
            positional = (args.posonlyargs + args.args)[skip:]
            first = len(positional) - len(args.defaults)
            params = [(p.arg, i) for i, p in enumerate(positional) if i >= first]
            params += [(p.arg, None) for p, d in zip(args.kwonlyargs,
                                                     args.kw_defaults)
                       if d is not None]
            flagged += [f"{module}.{qualified}.{name}" for name, index in params
                        if not any(_passes(call, name, index)
                                   for call in calls.get(called, []))]
    return sorted(flagged)


def test_scan_finds_defaults_no_call_passes():
    sources = {
        "a": ("def f(x, y=1, z=2, *, k=3, j=4):\n    pass\n\n\n"
              "def g(x=1):\n    pass\n\n\n"
              "def h(x=1, y=2):\n    pass\n"),
        "b": ("class Box:\n"
              "    def __init__(self, size=1, fill=0):\n        pass\n"
              "    def read(self, at=0, width=1):\n        pass\n"
              "    @staticmethod\n"
              "    def make(kind=None):\n        pass\n"),
    }
    callers = [
        "f(0, 5, k=1)\ng(*args)\nh(**opts)\n",
        "Box(2)\nbox.read(3)\nBox.make('x')\n",
    ]
    assert unset_defaults(sources, callers) == [
        "a.f.j", "a.f.z", "b.Box.__init__.fill", "b.Box.read.width"]


def test_every_default_is_passed_by_a_run():
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    callers = list(sources.values()) + [
        path.read_text() for folder in ("scripts", "perfbench")
        for path in (ROOT / folder).glob("*.py")]
    assert unset_defaults(sources, callers) == sorted(ALLOWED_UNSET)
