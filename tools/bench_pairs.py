#!/usr/bin/env python3
"""Run the benchmark on a base revision and on the worktree, in alternating pairs.

Usage, from the root of a checkout::

    python3 tools/bench_pairs.py --base HEAD --pairs library=10 --pairs cli=3 \\
        --seed 1 --out pairs.json

Both sides run the *base* revision's ``bench/run.py`` and ``BENCHMARK.json``:
the base side is a ``git archive`` of ``--base``, the head side is the
worktree's ``src/`` next to a copy of that same ``bench/``, so only the
library differs.  Pair ``i`` of a workload uses seed ``--seed + i`` on both
sides and runs the base first when ``i`` is even, the head first when it is
odd; each run lasts as long as the base's ``bench/run.py`` sets by default.
The output file records both revisions, the sha256 of ``bench/``, the
seeds, each run's last JSON line, each end-to-end metric's median, quartiles
and pairs won, and the failed ops.  For each metric it also records the
claim rule: whether the head won at least 9 of 10 pairs, and whether the
head's median beats the base's by more than the base's interquartile range.
Standard library only.
"""
import argparse
import hashlib
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

IGNORE = shutil.ignore_patterns("__pycache__", "*.pyc", ".bench_out")


def git(repo: Path, *args) -> bytes:
    return subprocess.run(["git", "-C", str(repo), *args], check=True, capture_output=True).stdout


def tree_sha256(root: Path) -> str:
    """One digest over the relative paths and bytes of every file under ``root``."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def make_trees(repo: Path, base: str, work: Path) -> dict:
    """``base``: the base's ``src``, ``bench`` and ``BENCHMARK.json``; ``head``:
    the worktree's ``src`` with the base's ``bench`` and ``BENCHMARK.json``."""
    archive = git(repo, "archive", "--format=tar", base, "src", "bench", "BENCHMARK.json")
    (work / "base").mkdir()
    subprocess.run(["tar", "-x", "-C", str(work / "base")], input=archive, check=True)
    shutil.copytree(repo / "src", work / "head" / "src", ignore=IGNORE)
    shutil.copytree(work / "base" / "bench", work / "head" / "bench", ignore=IGNORE)
    shutil.copy(work / "base" / "BENCHMARK.json", work / "head" / "BENCHMARK.json")
    return {"base": work / "base", "head": work / "head"}


def run_once(tree: Path, workload: str, seed: int) -> dict:
    argv = [sys.executable, str(tree / "bench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True, timeout=1800)
    if proc.returncode != 0:
        raise SystemExit(f"{argv} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(runs: list, end_to_end: list) -> dict:
    """Median, quartiles and pairs won of each end-to-end metric (ties count for
    neither), and the claim rule: 9 of 10 pairs won, and a median gap in the
    head's favour wider than the base's interquartile range."""
    out = {}
    for spec in end_to_end:
        name, sign = spec["name"], 1 if spec["better"] == "higher" else -1
        values = {side: [r[side]["metrics"][name]["value"] for r in runs] for side in ("base", "head")}
        row = {"unit": spec["unit"], "better": spec["better"], "bound": spec["bound"]}
        for side, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            row[side] = {"median": statistics.median(vals), "q1": q1, "q3": q3, "iqr": q3 - q1}
        diffs = [sign * (h - b) for b, h in zip(values["base"], values["head"])]
        row["head_wins"] = sum(d > 0 for d in diffs)
        row["base_wins"] = sum(d < 0 for d in diffs)
        gap = sign * (row["head"]["median"] - row["base"]["median"])
        claim = {"wins_9_of_10": 10 * row["head_wins"] >= 9 * len(diffs),
                 "gap_exceeds_base_iqr": gap > row["base"]["iqr"]}
        row["claim"] = dict(claim, met=all(claim.values()))
        out[name] = row
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD")
    parser.add_argument("--pairs", action="append", required=True, metavar="WORKLOAD=N")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    repo = Path.cwd()
    plan = [(w, int(n)) for w, n in (item.split("=") for item in args.pairs)]
    report = {
        "base": {"rev": git(repo, "rev-parse", args.base).decode().strip()},
        "head": {"rev": git(repo, "rev-parse", "HEAD").decode().strip(), "worktree": True,
                 "src_modified": bool(git(repo, "status", "--porcelain", "--", "src"))},
        "python": platform.python_version(),
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = make_trees(repo, args.base, Path(tmp))
        for side, tree in trees.items():
            report[side]["src_sha256"] = tree_sha256(tree / "src")
        report["bench_sha256"] = tree_sha256(trees["base"] / "bench")
        end_to_end = json.loads((trees["base"] / "BENCHMARK.json").read_text())["end_to_end"]
        for workload, pairs in plan:
            runs = []
            for i in range(pairs):
                seed, order = args.seed + i, ("base", "head") if i % 2 == 0 else ("head", "base")
                run = {"seed": seed, "first": order[0]}
                for side in order:
                    run[side] = run_once(trees[side], workload, seed)
                    print(f"{workload} pair {i} seed {seed} {side}: "
                          f"{json.dumps(run[side]['metrics'])}", file=sys.stderr)
                runs.append(run)
            report["workloads"][workload] = {
                "seeds": [r["seed"] for r in runs],
                "runs": runs,
                "metrics": summarize(runs, end_to_end),
                "failed": {side: sum(r[side]["failed"] for r in runs) for side in ("base", "head")},
                "attempted": {side: sum(r[side]["attempted"] for r in runs)
                              for side in ("base", "head")},
            }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
