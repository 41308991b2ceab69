"""Tests of the benchmark itself: generators, oracles, tracing and a smoke
pass of one round of every workload.

Run from the repository root: ``PYTHONPATH=src python -m pytest -q bench``.
"""
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import stripconcave  # noqa: E402
from stripconcave import fixtures  # noqa: E402

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


TINY = [(n, m) for n in (2, 3) for m in (0, 1, 2)]


@pytest.mark.parametrize("n,m", TINY)
def test_generated_trapezoid_inputs_agree_with_brute_force(n, m):
    rng = random.Random(f"tiny:{n}:{m}")
    for _ in range(6):
        spec = gen.trapezoid_boundary(rng, n, m, 4, mu_span=2)
        shifted = tuple(v - u for v, u in zip(spec["nu"], spec["mu"]))
        reachable = oracle.feasible_nus(spec["lam"], spec["lam_bar"])
        assert shifted in reachable
        assert oracle.subsets_feasible(spec["lam"], spec["lam_bar"], spec["mu"], spec["nu"])
        bad, k = gen.make_infeasible(rng, "trapezoid", spec)
        shifted = tuple(v - u for v, u in zip(bad["nu"], bad["mu"]))
        assert shifted not in reachable
        assert not oracle.subsets_feasible(bad["lam"], bad["lam_bar"], bad["mu"], bad["nu"])
        assert 1 <= k < n


@pytest.mark.parametrize("shape", ["parallelogram", "hexagon"])
def test_infeasible_inputs_violate_the_chosen_inequality(shape):
    rng = random.Random(shape)
    for n in (3, 5, 12):
        if shape == "hexagon":
            config, spec, rows = gen.hexagon(rng, n, 30)
            assert oracle.witness_ok(config, spec, rows)
            assert oracle.general_feasible(config, spec)
        else:
            config, spec = None, gen.parallelogram_boundary(rng, n, 4, 30)
        bad, k = gen.make_infeasible(rng, shape, spec, config)
        work = gen.extend(config, bad, gen.linear_constant(bad)) if config else bad
        kind = "trapezoid" if config else shape
        weights = [work["nu"][i] - work["mu"][i] for i in range(n)]
        top = [i + 1 for i in sorted(sorted(range(n), key=lambda i: -weights[i])[:k])]
        assert gen.subset_lhs(kind, work, top)[0] < 0
        if config:
            assert oracle.fails_for_large_constant(config, bad, top)
            assert not oracle.general_feasible(config, bad)


def test_oracles_accept_fixtures_and_reject_damage():
    x = fixtures.trapezoid_array()
    rows = [list(r) for r in x.rows]
    a, b = oracle.trapezoid_bounds(3, 2)
    assert oracle.is_strip_concave(a, b, rows)
    rows[2][2] += 1
    assert not oracle.is_strip_concave(a, b, rows)
    assert oracle.count_tableaux((6, 4, 3, 1, 1), (5, 2), (3, 2, 3)) == 8
    for n, m in ((1, 3), (2, 0), (2, 2), (3, 1)):
        assert oracle.facet_count(n, m) == len(stripconcave.facets(n, m))


def test_certificate_check_needs_the_exact_lhs():
    spec = {"lam": [2, 1], "lam_bar": [], "mu": [0, 0], "nu": [3, 0]}
    cert = {"kind": "subset", "I": [1], "lhs": -1, "deficit": 0}
    assert oracle.certificate_ok("trapezoid", spec, cert)
    assert not oracle.certificate_ok("trapezoid", spec, dict(cert, lhs=-2))
    assert not oracle.certificate_ok("trapezoid", spec, dict(cert, I=[2]))


def test_general_certificate_holds_for_every_large_constant():
    rng = random.Random("general")
    config, spec, _ = gen.hexagon(rng, 12, 30)
    bad, _ = gen.make_infeasible(rng, "hexagon", spec, config)
    verdict = stripconcave.check_general(
        stripconcave.config_from_json(config), stripconcave.spec_from_json(json.loads(gen.spec_json(bad)))
    )
    cert = verdict.to_json()["certificate"]
    assert oracle.certificate_ok("hexagon", bad, cert, config)
    # how the library reports lhs and deficit of the extension is not checked
    assert oracle.certificate_ok("hexagon", bad, dict(cert, lhs=-1, deficit=0), config)
    assert not oracle.certificate_ok("hexagon", spec, cert, config)


def test_percentile_and_self_time():
    assert run.percentile(list(range(1, 101)), 0.9) == (90, 10)
    assert run.smoothed_percentile(list(range(1, 101)), 0.5, 0.05) == 50.5
    assert run.smoothed_percentile(list(range(1, 101)), 0.9, 0.02) == 90.5
    tr = run.Tracer(True)
    tr.call("op", "outer", lambda: tr.call("core", "inner", sum, [1, 2]))
    outer, inner = tr.self_times()
    assert inner >= 0 and outer >= 0
    assert tr.spans[1][4] == 0  # the inner span's parent is the outer span


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == ["library", "cli"]
    assert set(workloads.ROUNDS) == set(run.WORKLOADS)


# Outcomes the parent commit is known to get wrong by raising: malformed CLI
# input that dies with a traceback, and general-shape certificates whose
# deficit is too long for ``int`` to ``str`` conversion.
KNOWN_ERRORS = {"cli check malformed", "hexagon n=50 infeasible", "hexagon n=100 infeasible"}


def test_library_round_is_the_three_parts():
    labels = [op.label for op in workloads.library_round(random.Random("lib"), 0)]
    parts = [workloads.ROUNDS[name](random.Random("part"), 0) for name in ("decide", "witness", "enumerate")]
    assert labels == [op.label for part in parts for op in part]


@pytest.mark.parametrize("name", ["decide", "witness", "enumerate", "cli"])
def test_smoke_one_round(name, tmp_path):
    env = workloads.CliEnv(str(BENCH.parent), str(tmp_path))
    ops = workloads.ROUNDS[name](random.Random(f"smoke:{name}"), 0, env)
    tr = run.Tracer(name == "witness")
    outcomes = [(op.label, run.execute(op, tr)[1]) for op in ops]
    assert all(outcome != "wrong" for _, outcome in outcomes), outcomes
    assert all(label in KNOWN_ERRORS for label, outcome in outcomes if outcome == "error"), outcomes
    if tr.enabled:
        assert {span[1] for span in tr.spans} >= {"op", "core", "construct", "flow", "tableau"}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "decide", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout.strip() == ""
