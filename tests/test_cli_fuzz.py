"""A Hypothesis fuzz of the CLI, in-process through ``cli.main``.

Every subcommand runs on integer and ``"p/q"`` data, well-formed or not.
Each call must return 0, 1 or 2 without raising, print one canonical JSON
line (on stdout for 0 and 1, an input error on stderr for 2), and write
every integral value as a JSON int, never as ``"k/1"`` or a float.
"""
import contextlib
import io
import json
import re
import sys
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from stripconcave.cli import main

B = "9" * 4300  # the largest integer that str() and int() take by default
RATIO = re.compile(r"-?\d+/\d+")


def call(argv: list) -> tuple:
    """``main(argv)`` at the default digit limit, with what it printed."""
    out, err = io.StringIO(), io.StringIO()
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        return code, out.getvalue(), err.getvalue(), _parsed(code, out.getvalue(), err.getvalue())
    finally:
        sys.set_int_max_str_digits(limit)


def _parsed(code, out, err):
    assert code in (0, 1, 2), (code, out, err)
    if code == 2:
        assert out == ""
        assert err.count("\n") == 1 and "Traceback" not in err
        blob = json.loads(err)
        assert blob["error"] == "input" and isinstance(blob["message"], str)
        return None
    assert err == "" and out.count("\n") == 1
    value = json.loads(out)
    assert_integral_entries_are_ints(value)
    return value


def assert_integral_entries_are_ints(value):
    """No float anywhere, and every ``"p/q"`` string non-integral and reduced."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        for v in value:
            assert_integral_entries_are_ints(v)
    else:
        assert not isinstance(value, float)
        if isinstance(value, str) and RATIO.fullmatch(value):
            f = Fraction(value)
            assert f.denominator != 1 and value == f"{f.numerator}/{f.denominator}"


def encode(f: Fraction, spell):
    """An exact rational as JSON data: an int, or a ``"p/q"`` string
    (``spell`` also writes integers as ``"k/1"``)."""
    if f.denominator == 1 and not spell:
        return int(f)
    return f"{f.numerator}/{f.denominator}"


@st.composite
def rationals(draw, size, denominators):
    """``size`` rationals in [-4, 9] with the given denominators, weakly
    decreasing unless the draw says otherwise."""
    values = [Fraction(draw(st.integers(-4 * q, 9 * q)), q)
              for q in draw(st.lists(st.sampled_from(denominators), min_size=size, max_size=size))]
    return sorted(values, reverse=True) if draw(st.integers(0, 5)) else values


@st.composite
def specs(draw, trapezoid=False, vertices=False):
    """A spec on a random convex configuration (a trapezoid if asked), and
    the configuration.  The content ``nu`` mostly balances the other three
    parts; the seeded corpus below holds the ``n = 0`` specs."""
    denominators = draw(st.sampled_from([(1,), (1,), (1, 2), (2, 3)]))
    spell = draw(st.booleans()) and denominators != (1,)
    n = draw(st.integers(1, 3 if vertices else 4))
    m = draw(st.integers(0, 2 if vertices else 3))
    na, nb = (0, n) if trapezoid else (draw(st.integers(0, n)), draw(st.integers(0, n)))
    config = {"n": n,
              "a": [max(0, i - (n - na)) for i in range(n + 1)],
              "b": [m + min(i, nb) for i in range(n + 1)]}
    lam = draw(rationals(max(0, config["b"][n] - config["a"][n]), denominators))
    bar = draw(rationals(m, denominators))
    mu = [Fraction(draw(st.integers(-3, 3))) for _ in range(n)] if draw(st.booleans()) else [0] * n
    nu = draw(rationals(n, denominators))
    if nu and draw(st.integers(0, 3)):
        nu[-1] += sum(lam) - sum(bar) + sum(mu) - sum(nu)
    spec = {"lambda": lam, "lambda_bar": bar, "nu": nu}
    if any(mu):
        spec["mu"] = mu
    spec = {key: [encode(v, spell) for v in row] for key, row in spec.items()}
    return json.dumps(spec), json.dumps(config)


@st.composite
def spec_calls(draw):
    spec, config = draw(specs())
    command = draw(st.sampled_from(["check", "build", "kostka", "count"]))
    argv = [command, "--spec", spec]
    if command in ("check", "build") and draw(st.booleans()):
        argv += ["--config", config]
    if command == "count":
        argv += ["--k", str(draw(st.integers(0, 3)))]
    return argv


JUNK = st.sampled_from(["{}", "[]", "[[]]", "5", '"x"', "[1,[2]]", '{"lambda":[1,"a"]}', "{",
                        '{"n":1,"m":0,"e0":[[1]],"e1":[[0]]}', '{"outer":[2],"inner":[],"rows":[[1,1]]}',
                        '{"config":{"n":1,"a":[0,0],"b":[1,2]},"rows":[[0,1],[0,"1/2",1]]}'])


@st.composite
def other_calls(draw):
    kind = draw(st.sampled_from(["facets", "count-only", "vertices", "fixtures", "junk"]))
    if kind == "facets":
        return ["facets", "--n", str(draw(st.integers(-1, 6))), "--m", str(draw(st.integers(-1, 5)))]
    if kind == "count-only":
        n, m = draw(st.integers(-1, 40)), draw(st.integers(-1, 20_000))
        return ["facets", "--count-only", "--n", str(n), "--m", str(m)]
    if kind == "vertices":
        return ["vertices", "--spec", draw(specs(trapezoid=True, vertices=True))[0]]
    if kind == "fixtures":
        return ["fixtures"]
    command = draw(st.sampled_from([
        ["check", "--spec"], ["build", "--spec"], ["flow", "to", "--array"], ["flow", "from", "--flow"],
        ["vertices", "--spec"], ["swap", "--layer", "1", "--flow"], ["swap", "--layer", "2", "--array"],
        ["decompose", "--flow"], ["kostka", "--spec"], ["tableau", "from-pattern", "--pattern"],
        ["tableau", "to-pattern", "--tableau"], ["tableau", "content", "--tableau"],
    ]))
    return command + [draw(JUNK)]


# Inputs of 60 KB to 2 MB whose outputs would hold 10^8 cells or more, each
# refused by its count in well under a second.  The flow is the one of the
# 700-layer pattern row_i[j] = (700 - j) 702 + i: 245 350 paths of 701 nodes.
N = 20_000
OVERSIZED = {
    "build": ["build", "--spec", json.dumps({"lambda": [1] * N, "nu": [1] * N})],
    "vertices": ["vertices", "--spec", json.dumps({"lambda": [1] * N})],
    "to-pattern": ["tableau", "to-pattern", "--tableau", json.dumps(
        {"outer": [1] * N, "inner": [], "rows": [[v] for v in range(1, N + 1)]})],
    "decompose": ["decompose", "--flow", json.dumps(
        {"n": 700, "m": 0, "e0": [[699 - i] + [701] * i for i in range(700)],
         "e1": [[1] * i + [(700 - i) * 702 + i + 1] for i in range(700)]})],
}
NEAR_EQUAL_STAIRCASE = '{"lambda":[22,20,18,16,14,12,10,8,6,4,2],"nu":[14,13,13,12,12,12,12,11,11,11,11]}'
N0_SPECS = ['{"lambda":[2,1],"lambda_bar":[1,1],"nu":[]}', '{"lambda":[2,1],"lambda_bar":[2,1],"nu":[]}',
            '{"lambda":[2,1],"lambda_bar":[2,1]}']


@settings(max_examples=250, deadline=None)
@given(st.one_of(spec_calls(), other_calls()))
@example(["kostka", "--spec", NEAR_EQUAL_STAIRCASE])
@example(["check", "--spec", '{"lambda":[%s9]}' % B])
@example(["build", "--spec", '{"lambda":[%s,%s,0],"lambda_bar":[%s],"nu":[%s,0]}' % (B, B, B, B)])
@example(["check", "--spec", '{"lambda":[%s,%s],"nu":[-%s,0]}' % (B, B, B)])
@example(["build", "--spec", '{"lambda":[%s,%s],"nu":[-%s,0]}' % (B, B, B)])
@example(["facets", "--count-only", "--n", "2", "--m", B])
@example(["facets", "--n", "1", "--m", B])
@example(["vertices", "--spec", '{"lambda":[%s,"1/2"]}' % B])
@example(["build", "--spec", '{"lambda":[%s,"1/2"],"nu":["1/2",%s]}' % (B, B)])
@example(["vertices", "--spec", json.dumps({"lambda": list(range(30000, 0, -2))})])
@example(["flow", "from", "--flow", '{"n":1,"m":%s,"e0":[[0]],"e1":[[1]]}' % B])
@example(["flow", "to", "--array", '{"config":{"n":1,"a":[0,0],"b":[%s,%s]},"rows":[[0],[0]]}' % (B, B)])
@example(["count", "--spec", json.dumps({"lambda": [2 * 10**400, 10**400, 0], "nu": [10**400] * 3}),
          "--k", "9" * 4000])
@example(["tableau", "from-pattern", "--pattern", "[[],[1000000000000]]"])
@example(["check", "--spec", "[" * 200_000])
@example(OVERSIZED["build"])
@example(OVERSIZED["vertices"])
@example(OVERSIZED["to-pattern"])
@example(OVERSIZED["decompose"])
@example(["kostka", "--spec", N0_SPECS[0]])
@example(["count", "--spec", N0_SPECS[1], "--k", "2"])
@example(["build", "--spec", N0_SPECS[2]])
@example(["check", "--spec", N0_SPECS[2]])
def test_every_call_exits_cleanly(argv):
    call(argv)


def pattern_rows(rows: list) -> list:
    """The row derivative of bare trapezoid rows, as JSON data."""
    return [[encode(Fraction(b) - Fraction(a), False) for a, b in zip(row, row[1:])] for row in rows]


@settings(max_examples=120, deadline=None)
@given(specs(trapezoid=True), st.integers(-1, 4))
def test_witness_chain_exits_cleanly(spec_and_config, layer):
    """A built witness through every command that reads an array, a flow or a tableau."""
    spec, config = spec_and_config
    code, _, _, array = call(["build", "--spec", spec, "--config", config])
    if code != 0:
        return
    array = json.dumps(array)
    call(["swap", "--layer", str(layer), "--array", array])
    code, _, _, flow = call(["flow", "to", "--array", array])
    if code == 0:
        flow = json.dumps(flow)
        assert call(["flow", "from", "--flow", flow])[0] == 0
        call(["swap", "--layer", str(layer), "--flow", flow])
        assert call(["decompose", "--flow", flow])[0] == 0
        rows = json.loads(array)["rows"]
        code, _, _, tableau = call(["tableau", "from-pattern", "--pattern", json.dumps(pattern_rows(rows))])
        if code == 0:
            for action in ("to-pattern", "content"):
                assert call(["tableau", action, "--tableau", json.dumps(tableau)])[0] == 0
