#!/usr/bin/env python3
"""Benchmark for the stripconcave library and CLI (standard library only).

Usage, from the root of a checkout::

    python3 bench/run.py --workload library --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 50

Workloads (see ``workloads.py`` and ``BENCHMARK.json`` for why each exists):
``library`` (one ``decide``, ``witness`` and ``enumerate`` round after the
other) and ``cli`` are the benchmark; ``decide``, ``witness`` and
``enumerate`` can be run alone to see one layer's share.  Each is a closed
loop with one caller and one thread; ``cli`` runs one subprocess at a time.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of a traced run.  Lines before it are for people: per size class counts and
medians, the tail percentile and its sample count, and the error rate.

End-to-end metrics (tracing off):

* ``ops_per_s``: ops that passed their check per second of op wall time.
* ``latency_p50_ms`` and ``latency_tail_ms``: op wall time at the median and
  at the workload's tail percentile (``workloads.TAIL``, the highest with at
  least ten samples beyond it), each as the mean over a narrow rank window
  (see ``smoothed_percentile``).  The nearest-rank values, the sample counts
  and the size class under each percentile are printed as well.
* ``setup_s``: median time of ``import stripconcave`` in ``SETUP_SAMPLES``
  fresh interpreters, taken between ops and spread over the run.
* ``peak_rss_mb``: peak resident memory of the workload process; for ``cli``
  the largest child process.  In ``library`` the ``decide`` part's n=800
  checks set it (about 190 MB); the ``witness`` and ``enumerate`` parts peak
  at 22-31 MB when run alone, so growth in their memory shows only once it
  passes that.

Outcomes: an op that raises (or whose CLI process dies with a traceback) is
an *error*; an op whose output fails its independent check is *wrong*.
``failed`` counts both, and ``correct`` is false only when an output was
wrong.  ``error_rate = failed / attempted`` is printed but is not one of the
end-to-end metrics in ``BENCHMARK.json``: those are compared as shares of the
parent's median, so they must never read 0, and ``error_rate`` reads 0
wherever no op fails (``witness`` and ``enumerate`` alone, and every workload
once the known failures are fixed).  Per-layer metrics may read 0, e.g. the
``cli.*`` metrics of ``library``; ``trace.overhead_s`` is a difference of two
noisy wall times and can be negative.
"""
from __future__ import annotations

import argparse
import compileall
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from math import ceil
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("library", "cli", "decide", "witness", "enumerate")
LAYERS = ("core", "feasibility", "construct", "flow", "polytope", "tableau", "cli")
CLI_SUBCOMMANDS = (
    "check", "build", "flow", "vertices", "swap", "decompose",
    "facets", "kostka", "count", "tableau", "fixtures",
)
# Fresh-interpreter imports per run for ``setup_s``, spread evenly over it.
SETUP_SAMPLES = 40
# Bare interpreter starts for ``cli.interp_ms``.
INTERP_REPEATS = 9
# Rank windows (as fractions) averaged for the median and the tail percentile.
P50_WINDOW = 0.10
TAIL_WINDOW = 0.03

END_TO_END = (
    ("ops_per_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    [(f"{layer}.{what}", unit) for layer in LAYERS
     for what, unit in (("calls", "count"), ("busy_s", "s"), ("share", "ratio"), ("errors", "count"))]
    + [
        ("feasibility.cells_per_s", "1/s"),
        ("feasibility.infeasible_share", "ratio"),
        ("construct.cells_per_s", "1/s"),
        ("flow.enumerate_s", "s"),
        ("flow.vertices_per_s", "1/s"),
        ("flow.transform_s", "s"),
        ("polytope.kostka_s", "s"),
        ("polytope.facets_s", "s"),
        ("core.json_s", "s"),
        ("core.json_bytes", "B"),
        ("core.verify_s", "s"),
    ]
    + [(f"cli.{sub}_ms", "ms") for sub in CLI_SUBCOMMANDS]
    + [("cli.interp_ms", "ms"), ("trace.overhead_s", "s")]
)


class Tracer:
    """Spans around the calls the benchmark makes into each layer.

    Disabled, ``call`` is a plain call.  Enabled, it keeps
    ``[name, layer, start, end, parent, op, error]`` in memory; the parent is
    the span open when the call began (the op span for layer calls).
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []
        self.counters = Counter()
        self.op = None
        self._open = []

    def call(self, layer, name, fn, *args):
        if not self.enabled:
            return fn(*args)
        idx = len(self.spans)
        span = [name, layer, time.perf_counter(), None, self._open[-1] if self._open else None, self.op, False]
        self.spans.append(span)
        self._open.append(idx)
        try:
            return fn(*args)
        except Exception:
            span[6] = True
            raise
        finally:
            span[3] = time.perf_counter()
            self._open.pop()

    def count(self, key, value=1):
        if self.enabled:
            self.counters[key] += value

    def self_times(self) -> list:
        """Each span's duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for name, layer, start, end, parent, op, err in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [s[3] - s[2] - c for s, c in zip(self.spans, child)]


def execute(op, tr: Tracer) -> tuple:
    """Run one op as its own span; return ``(seconds, outcome, reason)``."""
    t0 = time.perf_counter()
    try:
        out = tr.call("op", op.label, op.run, tr)
    except Exception as exc:  # the op failed; record it and keep the loop running
        return time.perf_counter() - t0, "error", repr(exc)
    elapsed = time.perf_counter() - t0
    try:
        ok = op.check(out)
    except Exception as exc:  # a malformed output is a wrong output
        return elapsed, "wrong", repr(exc)
    return elapsed, ("ok" if ok else "wrong"), None


def percentile(values, p: float) -> tuple:
    """Nearest-rank percentile and the number of samples above its rank."""
    ordered = sorted(values)
    rank = max(1, ceil(p * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def smoothed_percentile(values, p: float, half_width: float) -> float:
    """Mean of the values ranked within ``half_width`` of the ``p`` quantile.

    On a shared virtual machine other tenants can slow every op by up to
    1.5x for seconds at a time, so the latencies of one size class form a
    fast and a slow mode.  A single order statistic jumps between the modes
    from run to run; the mean of a rank window moves only with the share of
    slow time.  The workload mixes keep each window inside one size class.
    """
    ordered = sorted(values)
    n = len(ordered)
    lo = min(n - 1, max(0, round((p - half_width) * n)))
    hi = min(n, max(lo + 1, round((p + half_width) * n)))
    return statistics.fmean(ordered[lo:hi])


def _limit(seconds: float) -> float:
    return min(4 * seconds, 150.0)


def measure(workloads, name: str, seed: int, seconds: float, env) -> dict:
    """Closed loop of whole rounds until ``seconds`` have passed and the
    tail percentile has ten samples beyond it.

    Between ops, one set-up time is taken every ``seconds / SETUP_SAMPLES``
    (the rest at the end), so that its median, like the op times, spans the
    whole run and the machine's slow and fast spells in it.
    """
    rng = random.Random(f"{name}:{seed}")
    tr = Tracer(False)
    records = []  # (label, seconds, outcome)
    infos = {}  # label -> the inputs' description of the first op of that class
    errors = Counter()
    setup = []
    gap = seconds / SETUP_SAMPLES
    start = time.perf_counter()
    rounds = 0
    while True:
        for op in workloads.ROUNDS[name](rng, rounds, env):
            lat, outcome, why = execute(op, tr)
            records.append((op.label, lat, outcome))
            infos.setdefault(op.label, op.info)
            if why:
                errors[(op.label, outcome, why[:160])] += 1
            if len(setup) < SETUP_SAMPLES and time.perf_counter() - start >= gap * len(setup):
                setup.append(import_time(env.env))
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(records) >= workloads.MIN_OPS:
            break
        if elapsed >= _limit(seconds):
            break
    setup += [import_time(env.env) for _ in range(SETUP_SAMPLES - len(setup))]
    return {
        "records": records, "infos": infos, "rounds": rounds,
        "errors": errors, "wall": elapsed, "setup": setup,
    }


def trace(workloads, name: str, seed: int, seconds: float, env) -> dict:
    """Each round runs traced, then again untraced on the same inputs."""
    rng = random.Random(f"{name}:{seed}")
    tr, off = Tracer(True), Tracer(False)
    records, infos = [], []
    traced = untraced = 0.0
    start = time.perf_counter()
    r = 0
    while True:
        ops = workloads.ROUNDS[name](rng, r, env)
        for op in ops:
            tr.op = len(records)
            lat, outcome, _ = execute(op, tr)
            records.append((op.label, lat, outcome))
            infos.append(op.info)
            traced += lat
        for op in ops:
            untraced += execute(op, off)[0]
        r += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds or elapsed >= _limit(seconds):
            break
    return {"tracer": tr, "records": records, "infos": infos, "traced": traced, "untraced": untraced}


def fresh_python(code: str, env: dict) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=str(ROOT),
        capture_output=True, text=True, timeout=60, check=True,
    )
    return proc.stdout


def import_time(env: dict) -> float:
    """Seconds for ``import stripconcave`` in a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter(); import stripconcave; "
        "print(time.perf_counter() - t)"
    )
    return float(fresh_python(code, env))


def interpreter_ms(env: dict) -> float:
    times = []
    for _ in range(INTERP_REPEATS):
        t0 = time.perf_counter()
        fresh_python("pass", env)
        times.append(time.perf_counter() - t0)
    return 1000 * statistics.median(times)


def class_table(records, infos, p50, tail) -> list:
    """One row per size class, fastest first, with its inputs' description."""
    by = defaultdict(list)
    outcomes = defaultdict(Counter)
    for label, lat, outcome in records:
        by[label].append(lat)
        outcomes[label][outcome] += 1
    lines = [f"{'size class':38} {'ops':>4} {'ok':>4} {'err':>4} {'wrong':>5} "
             f"{'median ms':>10} {'max ms':>9}  inputs"]
    for label, lats in sorted(by.items(), key=lambda kv: statistics.median(kv[1])):
        o = outcomes[label]
        info = infos.get(label, {})
        described = " ".join(f"{k}={info[k]}" for k in ("m", "range", "feasible", "k", "expect") if k in info)
        lines.append(
            f"{label:38} {len(lats):4d} {o['ok']:4d} {o['error']:4d} {o['wrong']:5d} "
            f"{1000 * statistics.median(lats):10.2f} {1000 * max(lats):9.2f}  {described}"
        )
    lines.append(f"p50 op: {p50}; tail op: {tail}")
    return lines


def _label_at(records, value):
    return next(label for label, lat, _ in records if lat == value)


def end_to_end(workloads, result, peak_rss_mb) -> tuple:
    records, setup = result["records"], result["setup"]
    lats = [lat for _, lat, _ in records]
    p50, _ = percentile(lats, 0.5)
    tail_p = workloads.TAIL
    tail, beyond = percentile(lats, tail_p)
    passed = sum(outcome == "ok" for _, _, outcome in records)
    metrics = {
        "ops_per_s": passed / sum(lats),
        "latency_p50_ms": 1000 * smoothed_percentile(lats, 0.5, P50_WINDOW),
        "latency_tail_ms": 1000 * smoothed_percentile(lats, tail_p, TAIL_WINDOW),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
    }
    failed = sum(outcome != "ok" for _, _, outcome in records)
    lines = class_table(records, result["infos"], _label_at(records, p50), _label_at(records, tail))
    lines += [
        f"ops {len(records)} in {result['rounds']} rounds over {result['wall']:.1f} s; "
        f"tail = p{100 * tail_p:g} with {beyond} samples beyond it",
        f"nearest-rank p50 {1000 * p50:.3f} ms, p{100 * tail_p:g} {1000 * tail:.3f} ms; the metrics "
        f"average ranks p50 +- {100 * P50_WINDOW:g} and p{100 * tail_p:g} +- {100 * TAIL_WINDOW:g}",
        f"error_rate {failed / len(records):.4f} ({failed} of {len(records)})",
        f"setup_s from {len(setup)} imports: min {min(setup):.4f}, median {statistics.median(setup):.4f}, "
        f"max {max(setup):.4f} s",
    ]
    for (label, outcome, why), count in sorted(result["errors"].items()):
        lines.append(f"{outcome}: {label} x{count}: {why}")
    for key, unit in END_TO_END:
        lines.append(f"{key:16} {metrics[key]:12.4f} {unit}")
    return metrics, lines


def per_layer(workloads, name, result, interp_ms) -> tuple:
    tr = result["tracer"]
    selfs = tr.self_times()
    busy, calls, errors = Counter(), Counter(), Counter()
    by_name = Counter()
    cli_times = defaultdict(list)
    op_wall = 0.0
    for span, own in zip(tr.spans, selfs):
        fname, layer, start, end, parent, op, err = span
        if layer == "op":
            op_wall += end - start
            continue
        busy[layer] += own
        calls[layer] += 1
        errors[layer] += err
        by_name[fname] += own
        if layer == "cli":
            cli_times[fname].append(end - start)
    c = tr.counters

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = calls[layer]
        m[f"{layer}.busy_s"] = busy[layer]
        m[f"{layer}.share"] = busy[layer] / op_wall if op_wall else 0.0
        m[f"{layer}.errors"] = errors[layer]
    m["feasibility.cells_per_s"] = rate(c["feasibility.cells"], busy["feasibility"])
    m["feasibility.infeasible_share"] = rate(c["feasibility.infeasible"], c["feasibility.verdicts"])
    m["construct.cells_per_s"] = rate(c["construct.cells"], busy["construct"])
    m["flow.enumerate_s"] = by_name["enumerate_vertices"]
    m["flow.vertices_per_s"] = rate(c["flow.vertices"], by_name["enumerate_vertices"])
    m["flow.transform_s"] = by_name["gamma"] + by_name["zigzag_swap"] + by_name["path_decompose"]
    m["polytope.kostka_s"] = by_name["kostka"] + by_name["count_scaled_points"]
    m["polytope.facets_s"] = by_name["facets"] + by_name["FacetInequality.to_json"]
    m["core.json_s"] = sum(by_name[f] for f in (
        "spec_from_json", "config_from_json", "array_to_json", "canonical_json"))
    m["core.json_bytes"] = c["core.json_bytes"]
    m["core.verify_s"] = by_name["validate_array"] + by_name["boundary"]
    for sub in CLI_SUBCOMMANDS:
        times = cli_times.get(sub)
        m[f"cli.{sub}_ms"] = 1000 * statistics.median(times) if times else 0.0
    m["cli.interp_ms"] = interp_ms
    m["trace.overhead_s"] = result["traced"] - result["untraced"]

    expected = workloads.EXPECTED_LAYER[name]
    top = max(LAYERS, key=lambda layer: busy[layer])
    grouped = sum(busy[layer] for layer in expected)
    others = max((busy[layer] for layer in LAYERS if layer not in expected), default=0.0)
    verdict = "matches" if grouped >= others else "MISMATCH"
    lines = [f"{'layer':12} {'calls':>6} {'busy s':>9} {'share':>6} {'errors':>6}"]
    for layer in LAYERS:
        lines.append(f"{layer:12} {calls[layer]:6d} {busy[layer]:9.4f} {m[layer + '.share']:6.3f} {errors[layer]:6d}")
    lines.append(
        f"busiest layer: {top}; expected {'+'.join(expected)}: {verdict} "
        f"({grouped:.3f} s against {others:.3f} s for the next layer)"
    )
    lines.append(f"traced ops wall {result['traced']:.3f} s, untraced {result['untraced']:.3f} s")
    return m, lines


def write_spans(name: str, seed: int, result: dict) -> Path:
    """Spans, and per op its class, inputs, wall time and outcome, as JSON."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{name}-seed{seed}.json"
    keys = ("name", "layer", "start", "end", "parent", "op", "error")
    ops = [
        {"op": i, "label": label, "seconds": lat, "outcome": outcome, "inputs": info}
        for i, ((label, lat, outcome), info) in enumerate(zip(result["records"], result["infos"]))
    ]
    with open(path, "w") as fh:
        json.dump({"spans": [dict(zip(keys, s)) for s in result["tracer"].spans], "ops": ops}, fh)
    return path


def run_workload(args) -> int:
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import stripconcave

    import_s = time.perf_counter() - t0
    if not Path(stripconcave.__file__).resolve().is_relative_to(SRC):
        print(f"stripconcave resolved outside {SRC}: {stripconcave.__file__}", file=sys.stderr)
        return 2
    import workloads

    # Child interpreters load the sources compiled, as from an installed
    # package, and never compile on the clock, even where the environment
    # stops them from writing a bytecode cache (PYTHONDONTWRITEBYTECODE).
    compileall.compile_dir(str(SRC / "stripconcave"), quiet=1)
    OUT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        env = workloads.CliEnv(str(ROOT), tmp)
        print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}; "
              f"in-process import {import_s:.4f} s")
        if args.trace:
            result = trace(workloads, args.workload, args.seed, args.seconds, env)
            metrics, lines = per_layer(workloads, args.workload, result, interpreter_ms(env.env))
            lines.append(f"spans written to {write_spans(args.workload, args.seed, result)}")
            units = dict(PER_LAYER)
        else:
            result = measure(workloads, args.workload, args.seed, args.seconds, env)
            who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
            peak = resource.getrusage(who).ru_maxrss / 1024
            metrics, lines = end_to_end(workloads, result, peak)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    records = result["records"]
    for line in lines:
        print(line)
    failed = sum(outcome != "ok" for _, _, outcome in records)
    wrong = sum(outcome == "wrong" for _, _, outcome in records)
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; one table of the end-to-end metrics."""
    rows = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            return proc.returncode
        rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    keys = [k for k, _ in (PER_LAYER if args.trace else END_TO_END)]
    print(f"{'metric':30}" + "".join(f"{name:>14}" for name in WORKLOADS))
    for key in keys:
        unit = rows[WORKLOADS[0]]["metrics"][key]["unit"]
        print(f"{key + ' (' + unit + ')':30}"
              + "".join(f"{rows[name]['metrics'][key]['value']:14.4f}" for name in WORKLOADS))
    if not args.trace:
        print(f"{'error_rate (ratio)':30}"
              + "".join(f"{rows[n]['failed'] / rows[n]['attempted']:14.4f}" for n in WORKLOADS))
    print(json.dumps(rows))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "stripconcave" / "__init__.py").is_file():
        print(f"no stripconcave sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
