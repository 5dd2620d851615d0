"""scripts/bench_pairs.py records what each side of a benchmark ran."""

import hashlib
import subprocess

import helpers  # noqa: F401  (puts scripts/ on the import path)
from bench_pairs import source


def git(repo, *args) -> bytes:
    return subprocess.run(
        ["git", "-c", "user.name=bench", "-c", "user.email=bench@localhost",
         *args], cwd=repo, check=True, capture_output=True).stdout


def test_source_hashes_the_raw_diff_with_its_blank_context(tmp_path):
    # the changed line is followed by three blank lines, so the hunk
    # ends in three blank context lines, " \n" each
    git(tmp_path, "init", "-q")
    (tmp_path / "src").mkdir()
    module = tmp_path / "src" / "module.py"
    module.write_text("alpha = 1\n\n\n\nomega = 2\n")
    git(tmp_path, "add", "-A")
    git(tmp_path, "commit", "-q", "-m", "parent")
    parent = git(tmp_path, "rev-parse", "HEAD").decode().strip()
    module.write_text("alpha = 3\n\n\n\nomega = 2\n")

    diff = git(tmp_path, "diff", "HEAD", "--", "src")
    assert diff.endswith(b"+alpha = 3\n \n \n \n")
    got = source(tmp_path)
    assert got == {"commit": parent,
                   "src_diff_sha256": hashlib.sha256(diff).hexdigest()}

    # after committing, the digest is that of git diff PARENT COMMIT
    git(tmp_path, "commit", "-q", "-am", "change")
    committed = git(tmp_path, "diff", parent, "HEAD", "--", "src")
    assert got["src_diff_sha256"] == hashlib.sha256(committed).hexdigest()
    assert source(tmp_path) == {
        "commit": git(tmp_path, "rev-parse", "HEAD").decode().strip()}
