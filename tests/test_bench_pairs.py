"""``tools/bench_pairs.py`` against a stub benchmark in a throwaway repository."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"

STUB = '''\
import argparse, json
from pathlib import Path
p = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--trace"):
    p.add_argument(flag)
a = p.parse_args()
v = int((Path(__file__).resolve().parent.parent / "src" / "value.txt").read_text())
print("a line for people")
print(json.dumps({"correct": True, "attempted": 10, "failed": v - 1, "metrics": {
    "ops_per_s": {"value": 100 * v + int(a.seed), "unit": "ops/s"},
    "peak_rss_mb": {"value": 10 - v, "unit": "MB"},
    "latency_p50_ms": {"value": 50 - v + 5 * int(a.seed), "unit": "ms"},
    "latency_tail_ms": {"value": 10 - (v - 1) * (1 if a.seed != "8" else -1), "unit": "ms"}}}))
'''


def git(repo, *args):
    subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t", *args],
                   check=True, capture_output=True)


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    """The tool's report on three pairs of a stub workload ``w``, seeds 7-9."""
    tmp_path = tmp_path_factory.mktemp("pairs")
    repo = tmp_path / "repo"
    (repo / "bench").mkdir(parents=True)
    (repo / "src").mkdir()
    (repo / "bench" / "run.py").write_text(STUB)
    (repo / "src" / "value.txt").write_text("1")
    (repo / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "ops_per_s", "unit": "ops/s", "better": "higher", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
        {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
        {"name": "latency_tail_ms", "unit": "ms", "better": "lower", "bound": 0.25}]}))
    git(repo, "init", "-q")
    git(repo, "add", "-A")
    git(repo, "commit", "-q", "-m", "base")
    # the worktree's library changes; its bench would fail, so only the base's may run
    (repo / "src" / "value.txt").write_text("2")
    (repo / "bench" / "run.py").write_text("raise SystemExit(1)\n")
    out = tmp_path / "pairs.json"
    subprocess.run([sys.executable, str(TOOL), "--pairs", "w=3", "--seed", "7", "--out", str(out)],
                   cwd=repo, check=True, capture_output=True, timeout=120)
    return json.loads(out.read_text())


def test_pairs_run_the_base_bench_on_both_trees(report):
    assert report["base"]["rev"] == report["head"]["rev"] and report["head"]["src_modified"]
    assert report["base"]["src_sha256"] != report["head"]["src_sha256"]
    assert len(report["bench_sha256"]) == 64
    w = report["workloads"]["w"]
    assert w["seeds"] == [7, 8, 9]
    assert [r["first"] for r in w["runs"]] == ["base", "head", "base"]
    assert [r["head"]["metrics"]["ops_per_s"]["value"] for r in w["runs"]] == [207, 208, 209]
    assert w["failed"] == {"base": 0, "head": 3} and w["attempted"] == {"base": 30, "head": 30}
    ops, rss = w["metrics"]["ops_per_s"], w["metrics"]["peak_rss_mb"]
    assert ops["base"]["median"] == 108 and ops["head"]["median"] == 208
    assert (ops["head_wins"], ops["base_wins"]) == (3, 0)
    assert (rss["head_wins"], rss["base_wins"]) == (3, 0) and rss["head"]["iqr"] == 0


def test_pairs_apply_the_claim_rule(report):
    """Met where the head wins every pair by more than the base's spread; not
    met where it wins every pair by less than the base's interquartile range
    (p50: 84/89/94 against 83/88/93), nor where it wins only 2 of 3 (tail)."""
    metrics = report["workloads"]["w"]["metrics"]
    claims = {name: row["claim"] for name, row in metrics.items()}
    assert claims["ops_per_s"] == claims["peak_rss_mb"] == {
        "wins_9_of_10": True, "gap_exceeds_base_iqr": True, "met": True}
    p50, tail = metrics["latency_p50_ms"], metrics["latency_tail_ms"]
    assert p50["head_wins"] == 3 and p50["base"]["iqr"] == 10
    assert claims["latency_p50_ms"] == {"wins_9_of_10": True, "gap_exceeds_base_iqr": False,
                                        "met": False}
    assert (tail["head_wins"], tail["base_wins"]) == (2, 1)
    assert claims["latency_tail_ms"] == {"wins_9_of_10": False, "gap_exceeds_base_iqr": True,
                                         "met": False}
