"""Golden digests of the command line.

Seeded families of inputs run through ``stripconcave.cli.main`` in-process.
The digest of a family is the SHA-256 of the exit code, standard output and
standard error of each of its calls, in order; ``tests/golden.json`` holds
one digest per family, and ``test_golden`` compares against it.  The inputs
cover every subcommand on ``int`` and ``Fraction`` data, feasible and
infeasible boundaries, trapezoids, parallelograms and hexagons, negative
``lambda``, empty ``nu`` and malformed input.

    PYTHONPATH=src python -m tests.golden               # list the families that differ
    PYTHONPATH=src python -m tests.golden --write       # regenerate tests/golden.json
    PYTHONPATH=src python -m tests.golden --against REV # ... that differ from REV's src/

``--against`` runs these families on the ``src/`` of a revision, taken with
``git archive`` and run in a fresh interpreter, and lists those whose digest
differs from the worktree's.
"""
from __future__ import annotations

import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

from stripconcave.cli import main

SEED = 7
GOLDEN = Path(__file__).with_name("golden.json")
ROOT = Path(__file__).resolve().parents[1]


# ---------------------------------------------------------------------------
# seeded data, written from the definitions in the README
# ---------------------------------------------------------------------------

def _decreasing(rng, length, lo, hi):
    return sorted((rng.randint(lo, hi) for _ in range(length)), reverse=True)


def _up(rng, below):
    """A random row one shorter than ``below`` that interlaces it."""
    return [rng.randint(below[j + 1], below[j]) for j in range(len(below) - 1)]


def _trapezoid_rows(rng, n, m, lo, hi):
    """Pattern rows ``0..n`` on the ``(n, m)`` trapezoid; row ``i`` has ``i + m`` entries."""
    rows = [_decreasing(rng, n + m, lo, hi)]
    for _ in range(n):
        rows.append(_up(rng, rows[-1]))
    return rows[::-1]


def _parallelogram_rows(rng, n, m, lo, hi):
    """Pattern rows ``0..n`` on the ``(n, m)`` parallelogram: every row has
    ``m`` entries, and the last entry of a row is bounded only from above."""
    rows = [_decreasing(rng, m, lo, hi)]
    for _ in range(n):
        below = rows[-1]
        rows.append(_up(rng, below) + [rng.randint(lo - 2, below[-1])])
    return rows[::-1]


def _scale(rows, d):
    return [[Fraction(v, d) for v in row] for row in rows]


def _integrate(rows, mu):
    """Array rows: row ``i`` starts at ``mu_1 + .. + mu_i`` and steps by pattern row ``i``."""
    out, left = [], 0
    for i, prow in enumerate(rows):
        left += mu[i - 1] if i else 0
        row = [left]
        for d in prow:
            row.append(row[-1] + d)
        out.append(row)
    return out


def _boundary(xrows):
    """``(lambda, lambda_bar, mu, nu)`` of an array stored per row."""
    lam, lam_bar = ([b - a for a, b in zip(r, r[1:])] for r in (xrows[-1], xrows[0]))
    mu = [b[0] - a[0] for a, b in zip(xrows, xrows[1:])]
    nu = [b[-1] - a[-1] for a, b in zip(xrows, xrows[1:])]
    return lam, lam_bar, mu, nu


def _enc(v):
    v = Fraction(v)
    return v.numerator if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def _spec(lam, lam_bar, mu, nu, rng=None):
    """Spec JSON; with ``rng``, a zero ``mu`` or an empty ``lambda_bar`` may be left out."""
    obj = {"lambda": lam, "lambda_bar": lam_bar, "mu": mu, "nu": nu}
    if rng is not None and not any(mu) and rng.random() < 0.5:
        del obj["mu"]
    if rng is not None and not lam_bar and rng.random() < 0.5:
        del obj["lambda_bar"]
    return json.dumps({k: [_enc(v) for v in vs] for k, vs in obj.items()})


def _rows_json(rows):
    return json.dumps([[_enc(v) for v in row] for row in rows])


def _perturb(rng, lam, lam_bar, mu, nu, unit=1):
    """The boundary with a defect: ``nu`` moved between two rows (balanced,
    often infeasible), an unbalanced ``nu``, or ``lambda`` out of order."""
    lam, nu = list(lam), list(nu)
    kind = rng.random()
    if kind < 0.7 and len(nu) > 1:
        i, j = rng.sample(range(len(nu)), 2)
        d = unit * rng.randint(1, 3)
        nu[i] += d
        nu[j] -= d
    elif kind < 0.85 or len(set(lam)) < 2:
        nu[0] += unit
    else:
        lam = lam[::-1]
    return lam, lam_bar, mu, nu


def _mu(rng, n, span, unit=1):
    return [unit * rng.randint(-span, span) for _ in range(n)]


def _trapezoid_case(rng, *, lo=-3, hi=5, d=1, mu_span=2, n_max=4, m_max=3):
    """A random trapezoid array and its boundary, on ``1/d``-integral data."""
    n, m = rng.randint(1, n_max), rng.randint(0, m_max)
    rows = _scale(_trapezoid_rows(rng, n, m, lo, hi), d)
    x = _integrate(rows, _mu(rng, n, mu_span, Fraction(1, d)))
    return n, m, rows, x, _boundary(x)


def _hexagon_case(rng, d=1):
    """A trapezoid array restricted to ``a_i = max(0, i - p)``, ``b_i = m + min(i, q)``."""
    n, m = rng.randint(2, 4), rng.randint(1, 3)
    rows = _scale(_trapezoid_rows(rng, n, m, -3, 5), d)
    x = _integrate(rows, _mu(rng, n, 3, Fraction(1, d)))
    p, q = rng.randint(max(1, n - m), n), rng.randint(0, n - 1)
    a = [max(0, i - p) for i in range(n + 1)]
    b = [m + min(i, q) for i in range(n + 1)]
    xr = [x[i][a[i]:b[i] + 1] for i in range(n + 1)]
    config = json.dumps({"n": n, "a": a, "b": b})
    return config, xr, _boundary(xr)


# ---------------------------------------------------------------------------
# families: each calls ``cli(*argv)`` on seeded inputs
# ---------------------------------------------------------------------------

def check_trapezoid(rng, cli):
    for d in (1, 2, 3):
        for _ in range(10):
            *_, spec = _trapezoid_case(rng, d=d)
            cli("check", "--spec", _spec(*spec, rng))
            cli("check", "--spec", _spec(*_perturb(rng, *spec, unit=Fraction(1, d)), rng))


def check_parallelogram(rng, cli):
    for d in (1, 2):
        for _ in range(12):
            n, m = rng.randint(1, 4), rng.randint(1, 3)
            rows = _scale(_parallelogram_rows(rng, n, m, -2, 5), d)
            spec = _boundary(_integrate(rows, _mu(rng, n, 2, Fraction(1, d))))
            cli("check", "--spec", _spec(*spec, rng))
            cli("check", "--spec", _spec(*_perturb(rng, *spec, unit=Fraction(1, d)), rng))
    cli("check", "--spec", '{"lambda":[],"lambda_bar":[],"mu":[1,0],"nu":[1,0]}')
    cli("check", "--spec", '{"lambda":[],"lambda_bar":[],"nu":[1,-1]}')


def check_general(rng, cli):
    for d in (1, 2):
        for _ in range(10):
            config, _, spec = _hexagon_case(rng, d)
            cli("check", "--config", config, "--spec", _spec(*spec))
            cli("check", "--config", config, "--spec", _spec(*_perturb(rng, *spec, unit=Fraction(1, d))))


def check_mode(rng, cli):
    cli("check", "--mode", "trapezoid", "--spec", '{"lambda":[1],"nu":[1]}')  # no --mode: exit 2


def build(rng, cli):
    for d in (1, 2):
        for _ in range(10):
            _, _, _, _, (lam, lam_bar, mu, nu) = _trapezoid_case(rng, d=d, mu_span=0)
            cli("build", "--spec", _spec(lam, lam_bar, mu, nu, rng))
            cli("build", "--spec", _spec(*_perturb(rng, lam, lam_bar, mu, nu, unit=Fraction(1, d)), rng))
        *_, spec = _trapezoid_case(rng, d=d, mu_span=3)
        cli("build", "--spec", _spec(*spec))  # a nonzero mu, on the trapezoid its lengths fix
        for _ in range(5):
            config, _, spec = _hexagon_case(rng, d)
            cli("build", "--config", config, "--spec", _spec(*spec))
            cli("build", "--config", config, "--spec", _spec(*_perturb(rng, *spec, unit=Fraction(1, d))))


def flow(rng, cli):
    for d in (1, 2):
        for lo in (0, -3):
            for _ in range(5):
                x = _trapezoid_case(rng, lo=lo, d=d)[3]
                code, out, _ = cli("flow", "to", "--array", _rows_json(x))
                if code:
                    continue
                cli("flow", "from", "--flow", out)
    config, xr, _ = _hexagon_case(rng)
    cli("flow", "to", "--array", json.dumps({"config": json.loads(config), "rows": json.loads(_rows_json(xr))}))
    cli("flow", "to")
    cli("flow", "from")


def vertices(rng, cli):
    for _ in range(16):
        n, m = rng.randint(1, 3), rng.randint(0, 2)
        rows = _trapezoid_rows(rng, n, m, -2, 3)
        cli("vertices", "--spec", _spec(rows[-1], rows[0], [0] * n, [0] * n, rng))
    cli("vertices", "--spec", '{"lambda":[1,2],"lambda_bar":[]}')
    cli("vertices", "--spec", '{"lambda":[2,1],"lambda_bar":[2,1]}')
    cli("vertices", "--spec", '{"lambda":["3/2","1/2",0],"lambda_bar":[1]}')


def swap(rng, cli):
    for d in (1, 2):
        for _ in range(6):
            n, m, rows, x, _ = _trapezoid_case(rng, lo=0, d=d, mu_span=2 if d == 1 else 0)
            x = [[v - x[0][0] for v in row] for row in x]
            for layer in (rng.randint(0, n), rng.randint(1, max(1, n - 1))):
                cli("swap", "--layer", str(layer), "--array", _rows_json(x))
            code, out, _ = cli("flow", "to", "--array", _rows_json(x))
            if not code:
                cli("swap", "--layer", str(rng.randint(0, n)), "--flow", out)
    cli("swap", "--layer", "1")


def decompose(rng, cli):
    for d in (1, 3):
        for _ in range(8):
            *_, x, _ = _trapezoid_case(rng, lo=0, d=d)
            code, out, _ = cli("flow", "to", "--array", _rows_json(x))
            if not code:
                cli("decompose", "--flow", out)
    cli("decompose", "--flow", '{"n":1,"m":0,"e0":[[0]],"e1":[[-1]]}')
    cli("decompose", "--flow", '{"n":0,"m":0,"e0":[],"e1":[]}')


def facets(rng, cli):
    for n in range(1, 4):
        for m in range(3):
            cli("facets", "--n", str(n), "--m", str(m))
            cli("facets", "--n", str(n), "--m", str(m), "--count-only")
    cli("facets", "--n", "0", "--m", "1")
    cli("facets", "--n", "30", "--m", "4", "--count-only")


def _kostka_specs(rng, mu_span):
    for _ in range(12):
        n, m = rng.randint(1, 4), rng.randint(0, 2)
        rows = _trapezoid_rows(rng, n, m, 0, 4)
        spec = _boundary(_integrate(rows, _mu(rng, n, mu_span)))
        yield spec
        yield _perturb(rng, *spec)


def kostka_count(rng, cli):
    for spec in _kostka_specs(rng, 0):
        cli("kostka", "--spec", _spec(*spec, rng))
        cli("count", "--spec", _spec(*spec, rng), "--k", str(rng.randint(1, 3)))
    cli("kostka", "--spec", '{"lambda":["1/2",0],"nu":["1/2"]}')
    cli("count", "--spec", '{"lambda":[2,1],"nu":[2,1]}', "--k", "0")


def kostka_count_mu(rng, cli):
    for spec in _kostka_specs(rng, 2):
        cli("kostka", "--spec", _spec(*spec))
        cli("count", "--spec", _spec(*spec), "--k", str(rng.randint(1, 3)))


def tableau(rng, cli):
    for _ in range(12):
        n, m = rng.randint(1, 4), rng.randint(0, 2)
        rows = _trapezoid_rows(rng, n, m, 0, 4)
        code, out, _ = cli("tableau", "from-pattern", "--pattern", _rows_json(rows))
        if not code:
            cli("tableau", "to-pattern", "--tableau", out)
            cli("tableau", "content", "--tableau", out)
    cli("tableau", "from-pattern", "--pattern", "[[1],[2,-1]]")
    cli("tableau", "to-pattern")


def fixtures(rng, cli):
    code, out, _ = cli("fixtures")
    blob = json.loads(out)
    cli("flow", "to", "--array", json.dumps(blob["trapezoid_array"]))
    cli("flow", "to", "--array", json.dumps(blob["hexagon_array"]))
    cli("swap", "--layer", "2", "--flow", json.dumps(blob["flow"]))
    cli("decompose", "--flow", json.dumps(blob["flow_swapped"]))
    cli("tableau", "to-pattern", "--tableau", json.dumps(blob["tableau"]))


def malformed(rng, cli):
    for argv in (
        [],
        ["nope"],
        ["check"],
        ["check", "--spec", "{not json"],
        ["check", "--spec", "/nonexistent/spec.json"],
        ["check", "--spec", "[1, 2]"],
        ["check", "--spec", '{"lambda": 5}'],
        ["check", "--spec", '{"lambda": [1.5], "nu": [1.5]}'],
        ["check", "--spec", '{"lambda": [true], "nu": [1]}'],
        ["check", "--spec", '{"lambda": ["x"], "nu": [1]}'],
        ["check", "--spec", '{"lambda": [2, 1], "lambda_bar": [1, 1, 1], "nu": [1]}'],
        ["check", "--config", '{"n": 1}', "--spec", '{"lambda": [1], "nu": [1]}'],
        ["check", "--config", '{"n": 1, "a": [0, 1], "b": [0, 0]}', "--spec", '{"lambda": [1], "nu": [1]}'],
        ["build", "--config", '{"n": 1, "a": [0, 0], "b": [0, 1]}', "--spec", '{"lambda": [1, 0], "nu": [1]}'],
        ["flow", "to", "--array", "[]"],
        ["flow", "to", "--array", "[[0], [0, 1, 2, 3]]"],
        ["flow", "from", "--flow", '{"n": 1}'],
        ["flow", "from", "--flow", '{"n": 1, "m": 0, "e0": [[0, 1]], "e1": [[1]]}'],
        ["swap", "--layer", "x", "--flow", "{}"],
        ["facets", "--n", "2"],
        ["count", "--spec", '{"lambda": [1], "nu": [1]}', "--k", "1.5"],
        ["tableau", "content", "--tableau", '{"outer": [1], "inner": [2], "rows": [[]]}'],
    ):
        cli(*argv)


def mu_length(rng, cli):
    for mu in ([0], [0, 0, 0, 0], [1, -1]):
        spec = json.dumps({"lambda": [6, 4, 3, 1, 1], "lambda_bar": [5, 2], "mu": mu, "nu": [3, 2, 3]})
        for argv in (["check"], ["build"], ["vertices"], ["kostka"], ["count", "--k", "2"]):
            cli(*argv, "--spec", spec)
        config = '{"n":3,"a":[0,0,0,0],"b":[2,3,4,5]}'
        cli("check", "--config", config, "--spec", spec)
        cli("build", "--config", config, "--spec", spec)


def empty_nu(rng, cli):
    for spec in ('{"lambda":[2,1],"lambda_bar":[1,1],"nu":[]}',
                 '{"lambda":[2,1],"lambda_bar":[2,1],"mu":[]}',
                 '{"lambda":[],"lambda_bar":[]}'):
        for argv in (["check"], ["build"], ["vertices"], ["kostka"], ["count", "--k", "2"]):
            cli(*argv, "--spec", spec)
        cli("check", "--config", '{"n":1,"a":[0,0],"b":[1,2]}', "--spec", spec)
    cli("vertices", "--spec", '{"lambda":[2,1,0],"lambda_bar":[1]}')


FAMILIES = (
    check_trapezoid, check_parallelogram, check_general, check_mode, build, flow, vertices,
    swap, decompose, facets, kostka_count, kostka_count_mu, tableau, fixtures, malformed,
    mu_length, empty_nu,
)


def _run(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def digests() -> dict:
    """``{family: sha256 hex}`` over every call of every family."""
    out = {}
    for family in FAMILIES:
        h = hashlib.sha256()

        def cli(*argv):
            result = _run(argv)
            h.update(json.dumps(result).encode() + b"\n")
            return result

        family(random.Random(f"{SEED}:{family.__name__}"), cli)
        out[family.__name__] = h.hexdigest()
    return out


def digests_at(rev: str, repo: Path = ROOT) -> dict:
    """:func:`digests` with the ``src/`` of revision ``rev`` of ``repo``: a
    ``git archive`` of it, imported by a fresh interpreter that runs these
    families."""
    archive = subprocess.run(["git", "-C", str(repo), "archive", "--format=tar", rev, "src"],
                             check=True, capture_output=True).stdout
    with tempfile.TemporaryDirectory() as tmp:
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        path = os.pathsep.join([str(Path(tmp, "src")), str(Path(__file__).parent)])
        code = "import json, golden; print(json.dumps(golden.digests()))"
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, cwd=tmp, env={**os.environ, "PYTHONPATH": path})
    return json.loads(run.stdout)


def report(got: dict, want: dict) -> int:
    """Print the families whose digests differ, or that all match; 1 if any differ."""
    differ = sorted(k for k in got.keys() | want.keys() if got.get(k) != want.get(k))
    print("\n".join(differ) or "all families match")
    return 1 if differ else 0


def _main(argv) -> int:
    if argv == ["--write"]:
        GOLDEN.write_text(json.dumps(digests(), indent=2, sort_keys=True) + "\n")
        return 0
    if argv and not (len(argv) == 2 and argv[0] == "--against"):
        print("usage: python -m tests.golden [--write | --against REV]", file=sys.stderr)
        return 2
    return report(digests(), digests_at(argv[1]) if argv else json.loads(GOLDEN.read_text()))


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
