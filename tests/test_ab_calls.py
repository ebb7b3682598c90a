"""`scripts/ab_calls.py`'s record of what a tree held: a hash of its src/
files and, in a git checkout, whether git sees a change under src/; and its
report of a run that fails."""
import importlib.util
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("ab_calls",
                                               os.path.join(ROOT, "scripts", "ab_calls.py"))
ab_calls = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_calls)


def make_tree(root, body=b"x = 1\n"):
    pkg = root / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_bytes(b"")
    (pkg / "mod.py").write_bytes(body)
    return root


def test_src_hash_follows_every_byte(tmp_path):
    a = ab_calls._src_state(str(make_tree(tmp_path / "a")))
    b = ab_calls._src_state(str(make_tree(tmp_path / "b", b"x = 2\n")))
    assert a["src_sha256"] != b["src_sha256"]
    assert a["src_clean"] is None and b["src_clean"] is None  # no git checkout
    same = make_tree(tmp_path / "c")
    (same / "src" / "pkg" / "__pycache__").mkdir()
    (same / "src" / "pkg" / "__pycache__" / "mod.pyc").write_bytes(b"\0")
    assert ab_calls._src_state(str(same)) == a  # bytecode caches aside
    (same / "src" / "pkg" / "mod.py").rename(same / "src" / "pkg" / "mod2.py")
    assert ab_calls._src_state(str(same))["src_sha256"] != a["src_sha256"]  # names count


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_src_clean_reads_git_status(tmp_path):
    tree = make_tree(tmp_path / "t")
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-C", str(tree)]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "t"]):
        subprocess.run(git + args, check=True, capture_output=True)
    assert ab_calls._src_state(str(tree))["src_clean"] is True
    (tree / "notes.txt").write_text("outside src/\n")
    assert ab_calls._src_state(str(tree))["src_clean"] is True
    (tree / "src" / "pkg" / "mod.py").write_bytes(b"x = 2\n")
    assert ab_calls._src_state(str(tree))["src_clean"] is False


def failing_tree(root):
    """A tree whose bench/run.py writes to stderr and exits 3."""
    tree = make_tree(root)
    (tree / "bench").mkdir()
    (tree / "bench" / "run.py").write_text(
        "import sys\nsys.stderr.write('early line\\n' * 30 + 'the run broke here\\n')\n"
        "sys.exit(3)\n")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tree / "BENCHMARK.json")
    return tree


@pytest.mark.parametrize("mode", [["--bench"], ["--workload", "verify_suite"]])
def test_failed_run_is_reported_without_a_traceback(tmp_path, mode):
    # a failed side used to end the script in a CalledProcessError traceback
    # that showed neither its stderr nor which side and pair it was
    a, b = failing_tree(tmp_path / "a"), failing_tree(tmp_path / "b")
    res = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", "ab_calls.py"),
                          str(a), str(b), *mode, "--pairs", "2", "--calls", "1"],
                         capture_output=True, text=True, cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": ""})
    # the script's own message comes first; a workload child, which finds no
    # selfnorm under the tree's src/, exits 1 with its own traceback
    code = 3 if mode == ["--bench"] else 1
    assert res.returncode == 1, res.stderr
    assert res.stderr.startswith(f"pair 1 parent failed with exit code {code}"), res.stderr
    if mode == ["--bench"]:
        lines = res.stderr.splitlines()
        assert lines[-1] == "the run broke here" and len(lines) == 1 + ab_calls._TAIL
        assert "Traceback" not in res.stderr
    assert res.stdout == ""  # no pair had run
