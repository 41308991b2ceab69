"""The CLI's output on the seeded families of ``golden`` matches the stored digests."""
import json
import shutil
import subprocess

from golden import GOLDEN, ROOT, _main, digests, digests_at, report


def test_cli_golden_digests():
    want = json.loads(GOLDEN.read_text())
    got = digests()
    assert sorted(k for k in got.keys() | want.keys() if got.get(k) != want.get(k)) == []


def test_against_a_revision_names_the_family_that_differs(tmp_path, capsys):
    """A commit of the worktree's ``src/`` matches every family; a commit that
    changes one error message is named by the one family that prints it."""
    def commit(message):
        subprocess.run(["git", "-C", str(tmp_path), "add", "src"], check=True)
        subprocess.run(["git", "-C", str(tmp_path), "-c", "user.name=golden", "-c",
                        "user.email=golden@localhost", "-c", "commit.gpgsign=false", "commit", "-qm", message], check=True)
        return subprocess.run(["git", "-C", str(tmp_path), "rev-parse", "HEAD"], check=True,
                              capture_output=True, text=True).stdout.strip()

    subprocess.run(["git", "init", "-q", str(tmp_path)], check=True)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    same = commit("the worktree's src")
    polytope = tmp_path / "src" / "stripconcave" / "polytope.py"
    text = polytope.read_text()
    assert text.count("facets need n >= 1 and m >= 0") == 1
    polytope.write_text(text.replace("facets need n >= 1 and m >= 0", "facets need n > 0 and m >= 0"))
    planted = commit("one message changed")
    here = digests()
    assert report(here, digests_at(same, tmp_path)) == 0
    assert capsys.readouterr().out == "all families match\n"
    assert report(here, digests_at(planted, tmp_path)) == 1
    assert capsys.readouterr().out == "facets\n"


def test_bad_options_print_the_usage(capsys):
    for argv in (["--against"], ["--nope"], ["--write", "--against", "HEAD"]):
        assert _main(argv) == 2
        assert capsys.readouterr().err == "usage: python -m tests.golden [--write | --against REV]\n"
