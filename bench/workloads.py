"""The benchmark workloads as seeded rounds of operations.

A workload is a closed loop with one caller: it repeats *rounds*, and every
round holds the same fixed mix of size classes, so every run has the same
composition whatever the seed.  The seed only draws the input values.  The
mix of each workload is chosen so that the median and the tail percentile
(``TAIL``) fall inside one size class, never on the gap between two, where
they would jump from run to run.

Each op is ``Op.run(tracer)`` (the timed part: calls into the library, each
recorded as a span of its module's layer) and ``Op.check(output)`` (untimed,
written from the definitions in ``oracle``).  ``Op.info`` records the size
class, ``n``, ``m``, shape, value range and expected verdict.
"""
from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from typing import Any, Callable

import stripconcave as sc

import gen
import oracle

# The tail percentile (a fraction).  The usual choice, the highest
# percentile with at least ten samples beyond it, is about p97 at the 292-511
# ops a 50-second ``library`` run makes; there the slowest few ops of each
# round (n=800 checks, the largest vertex enumerations) trade places from run
# to run.  p90 is kept instead for a steadier figure; it has 29-52 samples
# beyond it.  ``MIN_OPS`` makes a short run continue until p90 has ten.  The
# metrics average rank windows (p50 +- 10 and p90 +- 3, see
# ``run.smoothed_percentile``).  A window may span several size classes; the
# round plans below put its edges inside a class or between classes whose
# latencies are close or do not overlap, so that it holds nearly the same
# mix of classes in every run.
TAIL = 0.9
MIN_OPS = 100

# What each workload's busiest layer should be (checked on the traced run).
EXPECTED_LAYER = {
    "library": ("feasibility", "construct", "flow", "polytope"),
    "decide": ("feasibility",),
    "witness": ("construct",),
    "enumerate": ("flow", "polytope"),
    "cli": ("cli",),
}


@dataclass
class Op:
    label: str
    info: dict
    run: Callable[[Any], Any]
    check: Callable[[Any], bool]


def _cells(config: dict) -> int:
    return sum(b - a + 1 for a, b in zip(config["a"], config["b"]))


# ---------------------------------------------------------------------------
# decide: spec JSON -> spec_from_json -> check_* -> canonical_json(verdict)
# ---------------------------------------------------------------------------

def decide_op(rng: random.Random, shape: str, n: int, feasible: bool) -> Op:
    hi = 10 * n
    config = None
    if shape == "trapezoid":
        m = n // 2
        spec = gen.trapezoid_boundary(rng, n, m, hi, mu_span=hi // 10)
        a, b = oracle.trapezoid_bounds(n, m)
        cfg = {"a": a, "b": b}
    elif shape == "parallelogram":
        m = n
        spec = gen.parallelogram_boundary(rng, n, m, hi)
        cfg = {"a": [0] * (n + 1), "b": [m] * (n + 1)}
    else:
        config, spec, _ = gen.hexagon(rng, n, hi)
        m = config["b"][0]
        cfg = config
    k = None
    if not feasible:
        spec, k = gen.make_infeasible(rng, shape, spec, config)
    text = gen.spec_json(spec)
    config_text = json.dumps(config) if config is not None else None
    cells = _cells(cfg)
    checker = {
        "trapezoid": sc.check_trapezoid,
        "parallelogram": sc.check_parallelogram,
    }.get(shape)

    def run(tr):
        s = tr.call("core", "spec_from_json", sc.spec_from_json, json.loads(text))
        if config_text is None:
            verdict = tr.call("feasibility", checker.__name__, checker, s, n, m)
        else:
            c = tr.call("core", "config_from_json", sc.config_from_json, json.loads(config_text))
            verdict = tr.call("feasibility", "check_general", sc.check_general, c, s)
        tr.count("feasibility.cells", cells)
        tr.count("feasibility.verdicts")
        tr.count("feasibility.infeasible", 0 if verdict.feasible else 1)
        obj = tr.call("feasibility", "FeasibilityVerdict.to_json", verdict.to_json)
        out = tr.call("core", "canonical_json", sc.canonical_json, obj)
        tr.count("core.json_bytes", len(out))
        return out

    def check(out):
        got = json.loads(out)
        if feasible:
            return got == {"feasible": True, "certificate": None}
        return got.get("feasible") is False and oracle.certificate_ok(
            shape, spec, got.get("certificate"), config
        )

    info = {"n": n, "m": m, "shape": shape, "range": [0, hi], "feasible": feasible, "violated_k": k}
    verdict = "feasible" if feasible else "infeasible"
    return Op(f"{shape} n={n} {verdict}", info, run, check)


# ---------------------------------------------------------------------------
# witness: parse -> build -> verify -> gamma -> swap -> decompose -> tableau
# round trip -> canonical_json(array_to_json(x))
# ---------------------------------------------------------------------------

def witness_op(rng: random.Random, n: int, hi: int) -> Op:
    m = n // 2
    spec = gen.trapezoid_boundary(rng, n, m, hi)
    text = gen.spec_json(spec)
    layer = gen.uniform(rng, 1, n - 1)
    a, b = oracle.trapezoid_bounds(n, m)
    config = {"n": n, "a": a, "b": b}
    cells = _cells(config)

    def run(tr):
        s = tr.call("core", "spec_from_json", sc.spec_from_json, json.loads(text))
        x = tr.call("construct", "build_trapezoid", sc.build_trapezoid, s.lam, s.lam_bar, s.nu)
        tr.count("construct.cells", cells)
        valid = tr.call("core", "validate_array", sc.validate_array, x)
        bnd = tr.call("core", "boundary", sc.boundary, x)
        g = tr.call("flow", "gamma", sc.gamma, x)
        y = tr.call("flow", "zigzag_swap", sc.zigzag_swap, x, layer)
        paths = tr.call("flow", "path_decompose", sc.path_decompose, g)
        p = tr.call("core", "derivative", sc.derivative, x)
        t = tr.call("tableau", "pattern_to_tableau", sc.pattern_to_tableau, p)
        p2 = tr.call("tableau", "tableau_to_pattern", sc.tableau_to_pattern, t)
        obj = tr.call("core", "array_to_json", sc.array_to_json, x)
        out = tr.call("core", "canonical_json", sc.canonical_json, obj)
        tr.count("core.json_bytes", len(out))
        return out, valid, bnd, y, paths, p, t, p2

    def check(result):
        out, valid, bnd, y, paths, p, t, p2 = result
        rows = json.loads(out)["rows"]
        if not (valid and oracle.witness_ok(config, spec, rows)):
            return False
        if [list(bnd.lam), list(bnd.lam_bar), list(bnd.mu), list(bnd.nu)] != [
            spec["lam"], spec["lam_bar"], spec["mu"], spec["nu"]
        ]:
            return False
        swapped = list(spec["nu"])
        swapped[layer - 1], swapped[layer] = swapped[layer], swapped[layer - 1]
        if not oracle.witness_ok(config, dict(spec, nu=swapped), [list(r) for r in y.rows]):
            return False
        prows = oracle.pattern_of(rows)
        e0, e1 = oracle.flow_of(prows, n, m)
        if not oracle.paths_sum_to(paths.paths, e0, e1):
            return False
        if [list(r) for r in p.rows] != prows or p2.rows != p.rows:
            return False
        return oracle.tableau_content(t.rows, n) == spec["nu"]

    info = {"n": n, "m": m, "shape": "trapezoid", "range": [0, hi], "feasible": True}
    return Op(f"build n={n} range={hi}", info, run, check)


def hexagon_witness_op(rng: random.Random, n: int) -> Op:
    hi = 10 * n
    config, spec, _ = gen.hexagon(rng, n, hi)
    text, config_text = gen.spec_json(spec), json.dumps(config)
    cells = _cells(config)

    def run(tr):
        s = tr.call("core", "spec_from_json", sc.spec_from_json, json.loads(text))
        c = tr.call("core", "config_from_json", sc.config_from_json, json.loads(config_text))
        x = tr.call("construct", "mu_general_build", sc.mu_general_build, c, s)
        tr.count("construct.cells", cells)
        valid = tr.call("core", "validate_array", sc.validate_array, x)
        tr.call("core", "boundary", sc.boundary, x)
        obj = tr.call("core", "array_to_json", sc.array_to_json, x)
        out = tr.call("core", "canonical_json", sc.canonical_json, obj)
        tr.count("core.json_bytes", len(out))
        return out, valid

    def check(result):
        out, valid = result
        return valid and oracle.witness_ok(config, spec, json.loads(out)["rows"])

    info = {"n": n, "m": config["b"][0], "shape": "hexagon", "range": [0, hi], "feasible": True}
    return Op(f"hexagon build n={n}", info, run, check)


# ---------------------------------------------------------------------------
# enumerate: vertices, Kostka numbers, scaled counts, facet listings
# ---------------------------------------------------------------------------

def vertices_op(rng: random.Random, base_lam: tuple, base_bar: tuple) -> Op:
    """Vertices of a fixed skew shape scaled by a seeded factor.

    Scaling keeps every comparison the search makes, so each run does the
    same work and only the values depend on the seed.
    """
    f = gen.uniform(rng, 1, 9)
    lam = tuple(f * v for v in base_lam)
    lam_bar = tuple(f * v for v in base_bar)
    n, m = len(lam) - len(lam_bar), len(lam_bar)

    def run(tr):
        out = tr.call("flow", "enumerate_vertices", sc.enumerate_vertices, lam, lam_bar)
        tr.count("flow.vertices", len(out))
        return out

    def check(out):
        return oracle.vertices_ok([[list(r) for r in x.rows] for x in out], lam, lam_bar)

    info = {"n": n, "m": m, "shape": f"{base_lam}/{base_bar}", "range": [0, max(lam)], "scale": f}
    return Op(f"vertices n+m={n + m} {base_lam}/{base_bar}", info, run, check)


def kostka_op(rng: random.Random, n: int, m: int, hi: int, staircase: bool, brute: bool) -> Op:
    """``kostka`` on a content drawn from a random pattern (so it is positive).

    Checked by brute force on small shapes, otherwise against the call on a
    permuted content (Kostka numbers are symmetric in the content).
    """
    if staircase:
        bottom = [2 * (n - i) for i in range(n)]
        rows = gen.pattern_rows(rng, n, 0, hi, bottom=bottom)
    else:
        rows = gen.skew_pattern(rng, n, m, hi)
    lam, lam_bar, nu = tuple(rows[-1]), tuple(rows[0]), tuple(gen.content_of(rows))
    perm = list(nu)
    rng.shuffle(perm)

    def run(tr):
        return tr.call("polytope", "kostka", sc.kostka, lam, lam_bar, nu)

    def check(out):
        if brute:
            return out == oracle.count_tableaux(lam, lam_bar, nu)
        return out > 0 and out == sc.kostka(lam, lam_bar, tuple(perm))

    shape = "staircase" if staircase else "skew"
    info = {"n": n, "m": len(lam_bar), "shape": f"{shape} {lam}/{lam_bar}", "range": [0, max(lam)]}
    return Op(f"kostka {shape} n={n}", info, run, check)


def count_op(rng: random.Random, n: int, m: int, hi: int, k: int) -> Op:
    rows = gen.skew_pattern(rng, n, m, hi)
    lam, lam_bar, nu = tuple(rows[-1]), tuple(rows[0]), tuple(gen.content_of(rows))

    def run(tr):
        return tr.call("polytope", "count_scaled_points", sc.count_scaled_points, lam, lam_bar, nu, k)

    def check(out):
        scaled = [tuple(k * v for v in t) for t in (lam, lam_bar, nu)]
        return out == oracle.count_tableaux(*scaled)

    info = {"n": n, "m": m, "shape": f"{lam}/{lam_bar}", "range": [0, hi], "k": k}
    return Op(f"count k={k}", info, run, check)


def facets_op(rng: random.Random, total: int) -> Op:
    n = gen.uniform(rng, 2, total - 1)
    m = total - n

    def run(tr):
        fs = tr.call("polytope", "facets", sc.facets, n, m)
        return tr.call("polytope", "FacetInequality.to_json", lambda: [f.to_json() for f in fs])

    def check(out):
        return oracle.facets_ok(out, n, m)

    info = {"n": n, "m": m, "shape": "trapezoid", "range": None}
    return Op(f"facets n+m={total}", info, run, check)


# ---------------------------------------------------------------------------
# cli: one fresh ``python -m stripconcave.cli`` per op
# ---------------------------------------------------------------------------

@dataclass
class CliEnv:
    """Where the child interpreters run: environment and file inputs."""

    root: str
    tmp: str

    def __post_init__(self):
        self.env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        self.env.pop("STRIPCONCAVE_REDUCTION_C", None)
        self.env.pop("PYTHONHOME", None)
        self.files = 0

    def file(self, data) -> str:
        self.files += 1
        path = os.path.join(self.tmp, f"in{self.files}.json")
        with open(path, "w") as fh:
            fh.write(data if isinstance(data, str) else json.dumps(data))
        return path

    def run(self, argv) -> tuple:
        """Exit code, stdout and stderr; an uncaught exception raises ``CliCrash``."""
        proc = subprocess.run(
            [sys.executable, "-m", "stripconcave.cli", *argv],
            env=self.env,
            cwd=self.tmp,
            capture_output=True,
            text=True,
            timeout=60,
        )
        if "Traceback (most recent call last)" in proc.stderr:
            raise CliCrash(f"exit {proc.returncode}: {proc.stderr.strip().splitlines()[-1]}")
        return proc.returncode, proc.stdout, proc.stderr


class CliCrash(RuntimeError):
    """The CLI died with a traceback instead of an exit code the README defines."""


def _cli_op(env: CliEnv, sub: str, argv: list, expect: int, check_out, info: dict) -> Op:
    def run(tr):
        return tr.call("cli", sub, env.run, argv)

    def check(result):
        code, out, err = result
        if code != expect:
            return False
        if expect == 2:
            return json.loads(err).get("error") == "input"
        return check_out(json.loads(out))

    return Op(f"cli {sub}" + (" malformed" if expect == 2 else ""), dict(info, expect=expect), run, check)


def cli_ops(rng: random.Random, env: CliEnv) -> list:
    """One round: every subcommand once, plus an infeasible check and malformed inputs."""
    n, m, hi = 4, 2, 12
    spec = gen.trapezoid_boundary(rng, n, m, hi)
    bad_spec, _ = gen.make_infeasible(rng, "trapezoid", spec)
    config = {"n": n, "a": oracle.trapezoid_bounds(n, m)[0], "b": oracle.trapezoid_bounds(n, m)[1]}
    hex_config, hex_spec, _ = gen.hexagon(rng, 6, 30)
    prows = gen.pattern_rows(rng, n, m, hi)
    xrows = gen.integrate(prows, [0] * n)
    nu = gen.content_of(prows)
    e0, e1 = oracle.flow_of(prows, n, m)
    flow = {"n": n, "m": m, "e0": e0, "e1": e1}
    arr = {"config": config, "rows": xrows}
    layer = gen.uniform(rng, 1, n - 1)
    swapped = list(nu)
    swapped[layer - 1], swapped[layer] = swapped[layer], swapped[layer - 1]
    tab_rows = _tableau_rows(prows, n, m)
    tableau = {"outer": prows[n], "inner": prows[0], "rows": tab_rows}
    vrows = gen.skew_pattern(rng, 2, 2, 10)
    vlam, vbar = vrows[-1], vrows[0]
    krows = gen.skew_pattern(rng, 4, 1, 6)
    klam, kbar, knu = krows[-1], krows[0], gen.content_of(krows)
    fn, fm = gen.uniform(rng, 2, 5), gen.uniform(rng, 0, 4)
    spec_obj = json.loads(gen.spec_json(spec))
    info = {"n": n, "m": m, "shape": "trapezoid", "range": [0, hi]}
    rows_of = lambda out: out["rows"]  # noqa: E731

    def verdict_ok(shape, s, cfg=None):
        return lambda out: out.get("feasible") is False and oracle.certificate_ok(
            shape, s, out.get("certificate"), cfg
        )

    ops = [
        _cli_op(env, "check", ["check", "--spec", gen.spec_json(spec)], 0,
                lambda out: out == {"feasible": True, "certificate": None}, info),
        _cli_op(env, "check", ["check", "--spec", env.file(gen.spec_json(bad_spec))], 1,
                verdict_ok("trapezoid", bad_spec), info),
        _cli_op(env, "check", ["check", "--spec", env.file(gen.spec_json(hex_spec)),
                               "--config", json.dumps(hex_config)], 0,
                lambda out: out["feasible"] is True, dict(info, shape="hexagon", n=6)),
        _cli_op(env, "build", ["build", "--spec", env.file(gen.spec_json(spec))], 0,
                lambda out: oracle.witness_ok(config, spec, rows_of(out)), info),
        _cli_op(env, "build", ["build", "--spec", gen.spec_json(hex_spec), "--config",
                               env.file(hex_config)], 0,
                lambda out: oracle.witness_ok(hex_config, hex_spec, rows_of(out)),
                dict(info, shape="hexagon", n=6)),
        _cli_op(env, "flow", ["flow", "to", "--array", json.dumps(arr)], 0,
                lambda out: out["e0"] == e0 and out["e1"] == e1, info),
        _cli_op(env, "flow", ["flow", "from", "--flow", env.file(flow)], 0,
                lambda out: out["rows"] == xrows, info),
        _cli_op(env, "vertices", ["vertices", "--spec", json.dumps({"lambda": vlam, "lambda_bar": vbar})],
                0, lambda out: oracle.vertices_ok([v["rows"] for v in out], vlam, vbar),
                dict(info, n=2, m=2)),
        _cli_op(env, "swap", ["swap", "--layer", str(layer), "--array", env.file(arr)], 0,
                lambda out: oracle.witness_ok(config, dict(gen.pattern_spec(prows), nu=swapped), rows_of(out)),
                info),
        _cli_op(env, "swap", ["swap", "--layer", str(layer), "--flow", json.dumps(flow)], 0,
                lambda out: [sum(r) for r in out["e1"]] == swapped, info),
        _cli_op(env, "decompose", ["decompose", "--flow", json.dumps(flow)], 0,
                lambda out: oracle.paths_sum_to(
                    [([tuple(v) for v in p["nodes"]], p["weight"]) for p in out], e0, e1),
                info),
        _cli_op(env, "facets", ["facets", "--n", str(fn), "--m", str(fm)], 0,
                lambda out: oracle.facets_ok(out, fn, fm), dict(info, n=fn, m=fm)),
        _cli_op(env, "facets", ["facets", "--n", str(fn), "--m", str(fm), "--count-only"], 0,
                lambda out: out["enumerated"] == oracle.facet_count(fn, fm)
                and out["formula"] == oracle.facet_formula(fn, fm),
                dict(info, n=fn, m=fm)),
        _cli_op(env, "kostka", ["kostka", "--spec", env.file(
                    {"lambda": klam, "lambda_bar": kbar, "nu": knu})], 0,
                lambda out: out == oracle.count_tableaux(klam, kbar, knu), dict(info, n=4, m=1)),
        _cli_op(env, "count", ["count", "--k", "2", "--spec", json.dumps(
                    {"lambda": klam, "lambda_bar": kbar, "nu": knu})], 0,
                lambda out: out == oracle.count_tableaux(*[[2 * v for v in t] for t in (klam, kbar, knu)]),
                dict(info, n=4, m=1)),
        _cli_op(env, "tableau", ["tableau", "from-pattern", "--pattern", json.dumps(
                    {"config": config, "rows": prows})], 0,
                lambda out: out["rows"] == tab_rows, info),
        _cli_op(env, "tableau", ["tableau", "to-pattern", "--tableau", env.file(tableau)], 0,
                lambda out: out["rows"] == prows, info),
        _cli_op(env, "tableau", ["tableau", "content", "--tableau", json.dumps(tableau)], 0,
                lambda out: out == nu, info),
        _cli_op(env, "fixtures", ["fixtures"], 0,
                lambda out: {"hexagon_array", "trapezoid_array", "flow", "tableau"} <= set(out), info),
        # malformed inputs: the README promises exit 2 with an error JSON
        _cli_op(env, "check", ["check", "--spec", "{not json"], 2, None, info),
        _cli_op(env, "check", ["check", "--spec", os.path.join(env.tmp, "missing.json")], 2, None, info),
        _cli_op(env, "build", ["build", "--spec", json.dumps(dict(spec_obj, lambda_bar=[]))], 2,
                None, info),
        _cli_op(env, "check", ["check", "--spec", gen.spec_json(hex_spec), "--config",
                               json.dumps(dict(hex_config, n="x"))], 2, None, info),
        _cli_op(env, "check", ["check", "--spec", '{"lambda": 5}'], 2, None, info),
    ]
    return ops


def _tableau_rows(prows, n: int, m: int) -> list:
    """Skew tableau of a pattern: each cell holds the first row index covering it."""
    width = n + m
    chain = [list(r) + [0] * (width - len(r)) for r in prows]
    pad = chain[0]
    rows = []
    for r in range(width):
        rows.append([next(i for i in range(1, n + 1) if chain[i][r] >= col)
                     for col in range(pad[r] + 1, chain[n][r] + 1)])
    return rows


# ---------------------------------------------------------------------------
# round plans
# ---------------------------------------------------------------------------

def decide_round(rng: random.Random, r: int, _env=None) -> list:
    # (shape, n, feasible ops, infeasible ops) per round; 16 of 33 are feasible.
    # An infeasible verdict usually stops the subset scan early, so each
    # class splits into a faster infeasible and a slower feasible half.
    # Latency order at the parent commit: the small shapes, infeasible
    # trapezoids n=200 (the median falls here), feasible ones, hexagons n=100,
    # infeasible trapezoids n=400, feasible ones (the tail falls here), n=800.
    plan = [
        ("parallelogram", 25, 1, 1), ("hexagon", 25, 1, 1), ("parallelogram", 50, 1, 1),
        ("parallelogram", 100, 1, 1), ("trapezoid", 100, 2, 0), ("hexagon", 50, 1, 1),
        ("trapezoid", 200, 0, 8),
        ("trapezoid", 200, 4, 0),
        ("hexagon", 100, 1, 1),
        ("trapezoid", 400, 0, 2),
        ("trapezoid", 400, 3, 0),
        ("trapezoid", 800, 1, 1),
    ]
    ops = []
    for shape, n, feasible, infeasible in plan:
        ops += [decide_op(rng, shape, n, True) for _ in range(feasible)]
        ops += [decide_op(rng, shape, n, False) for _ in range(infeasible)]
    return ops


def witness_round(rng: random.Random, r: int, _env=None) -> list:
    # latency order: hexagons and n=25 (ranges 100 and 500), n=50 range 300
    # (the median falls here), n=100 range 100 (the tail falls here)
    ops = [hexagon_witness_op(rng, n) for n in (8, 16, 24)]
    ops += [witness_op(rng, 25, hi) for hi in (100, 500)]
    ops += [witness_op(rng, 50, 300) for _ in range(6)]
    ops += [witness_op(rng, 100, 100) for _ in range(4)]
    return ops


# Fixed skew shapes (scaled by a seeded factor) so that every run enumerates
# the same amount: (4,3,2,1,0)/() has 358 vertices, the others 8 and 21.
V5_TAIL = ((4, 3, 2, 1, 0), ())
V5_TOP = ((5, 4, 3, 2, 1), (3, 1))
V6 = ((5, 4, 3, 2, 1, 0), (4, 3, 1, 0))


def enumerate_round(rng: random.Random, r: int, _env=None) -> list:
    # Latency order at the parent commit: scaled counts and small Kostka
    # numbers, facet listings n+m=12 (the median falls here; their cost
    # depends only on n+m), the larger listings, staircase n=8, the n+m=6
    # vertex shape, (4,3,2,1,0)/() vertices (the tail falls here), then
    # (5,4,3,2,1)/(3,1).
    ops = [count_op(rng, 3, 1, 4, 2) for _ in range(2)]
    ops += [count_op(rng, 3, 1, 3, 4) for _ in range(2)]
    ops += [kostka_op(rng, 4, 2, 7, staircase=False, brute=True) for _ in range(2)]
    ops += [kostka_op(rng, 6, 0, 12, staircase=True, brute=False) for _ in range(2)]
    ops += [facets_op(rng, 12) for _ in range(9)]
    ops += [facets_op(rng, t) for t in (13, 14)]
    ops += [kostka_op(rng, 8, 0, 16, staircase=True, brute=False)]
    ops += [vertices_op(rng, *V6)]
    ops += [vertices_op(rng, *V5_TAIL) for _ in range(3)]
    ops += [vertices_op(rng, *V5_TOP)]
    return ops


def cli_round(rng: random.Random, r: int, env: CliEnv) -> list:
    return cli_ops(rng, env)


def library_round(rng: random.Random, r: int, _env=None) -> list:
    """A decide, a witness and an enumerate round in one process.

    The benchmark runs this and ``cli``: two workloads leave room for 50-second
    runs, which average over more of the machine's speed drift than four
    20-second ones.  The three parts stay runnable on their own.
    """
    return decide_round(rng, r) + witness_round(rng, r) + enumerate_round(rng, r)


ROUNDS = {
    "library": library_round,
    "cli": cli_round,
    "decide": decide_round,
    "witness": witness_round,
    "enumerate": enumerate_round,
}
