"""`scripts/ab_calls.py`'s record of what a tree held: a hash of its src/
files and, in a git checkout, whether git sees a change under src/."""
import importlib.util
import os
import shutil
import subprocess

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
