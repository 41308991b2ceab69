import json
import random
import sys
import time

import pytest

import golden

from stripconcave import (
    BoundarySpec,
    array_from_json,
    boundary,
    canonical_json,
    check_parallelogram,
    validate_array,
)
from stripconcave import construct
from stripconcave.cli import main
from stripconcave.fixtures import all_fixtures, hexagon_array, trapezoid_array

from fresh import fresh_python
from test_cli_fuzz import OVERSIZED
from worked_examples import HEXAGON_PATTERN, SKEW_TABLEAU, SWAPPED_FLOW, TRAPEZOID_FLOW, TRAPEZOID_PATTERN


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.strip(), out.err.strip()


def assert_input_error(code, out, err, needle):
    assert code == 2 and out == ""
    blob = json.loads(err)
    assert blob["error"] == "input" and needle in blob["message"]


TRIANGLE_SPEC = '{"lambda":[2,1],"nu":[3,0]}'


def test_check_feasible(capsys):
    code, out, _ = run(
        capsys,
        "check",
        "--spec",
        '{"lambda":[6,4,3,1,1],"lambda_bar":[5,2],"mu":[1,-7,-2],"nu":[4,-5,1]}',
    )
    assert code == 0
    assert json.loads(out)["feasible"] is True


def test_check_infeasible_exit_code(capsys):
    code, out, _ = run(
        capsys, "check", "--spec", '{"lambda":[2,1],"nu":[3,0]}'
    )
    assert code == 1
    blob = json.loads(out)
    assert blob["feasible"] is False and blob["certificate"]["kind"] == "subset"


def test_check_file_input(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text('{"lambda":[2,1],"nu":[2,1]}')
    code, out, _ = run(capsys, "check", "--spec", str(path))
    assert code == 0 and json.loads(out)["feasible"] is True


def test_check_bad_json_exit_2(capsys):
    code, _, err = run(capsys, "check", "--spec", "{not json")
    assert code == 2
    assert json.loads(err)["error"] == "input"


@pytest.mark.parametrize(
    "argv",
    [
        ["--spec", '{"lambda": 5}'],
        ["--config", '{"n":"x","a":[0,0],"b":[1,2]}', "--spec", '{"lambda":[1,0]}'],
        # int() would truncate 2.9 and 2.5 and parse "2"
        ["--config", '{"n":2.9,"a":[0,0,0],"b":[0,1,2]}', "--spec", TRIANGLE_SPEC],
        ["--config", '{"n":2,"a":[0,0,0],"b":[0,1,2.5]}', "--spec", TRIANGLE_SPEC],
        ["--config", '{"n":"2","a":[0,0,0],"b":[0,1,2]}', "--spec", TRIANGLE_SPEC],
    ],
)
def test_check_wrong_field_type_exit_2(capsys, argv):
    code, out, err = run(capsys, "check", *argv)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "input"


def test_check_mode_option_exits_2(capsys):
    # the lengths of the spec, or --config, fix the shape: there is no --mode
    for mode in ("trapezoid", "parallelogram", "general"):
        argv = ("check", "--mode", mode, "--spec", '{"lambda":[1],"nu":[1]}')
        assert_input_error(*run(capsys, *argv), "--mode")


def test_check_picks_parallelogram_from_lengths(capsys):
    # nu non-empty and lambda as long as lambda_bar: the (n, m) parallelogram
    for nu, feasible in (((1, 1), True), ((3, -1), False)):
        spec = BoundarySpec((3, 1), (2, 0), (0, 0), nu)
        code, out, _ = run(capsys, "check", "--spec", json.dumps(spec.to_json()))
        verdict = check_parallelogram(spec, 2, 2)
        assert verdict.feasible is feasible
        assert (code, out) == (0 if feasible else 1, canonical_json(verdict.to_json()))


def test_kostka_and_count_count_nu_minus_mu(capsys):
    spec = {"lambda": [6, 4, 3, 1, 1], "lambda_bar": [5, 2], "mu": [1, 0, 0], "nu": [4, 2, 3]}
    shifted = dict(spec, mu=[0, 0, 0], nu=[3, 2, 3])
    for s in (spec, shifted):
        assert run(capsys, "check", "--spec", json.dumps(s))[0] == 0
        assert run(capsys, "kostka", "--spec", json.dumps(s))[:2] == (0, "8")
        assert run(capsys, "count", "--spec", json.dumps(s), "--k", "2")[:2] == (0, "32")


def test_kostka_and_count_take_integral_content_written_as_fractions(capsys):
    # nu - mu = (0, 2): the counts of lam = (2, 0) and of (4, 0) with content (0, 4)
    spec = '{"lambda":[2,0],"nu":["1/2","3/2"],"mu":["1/2","-1/2"]}'
    assert run(capsys, "kostka", "--spec", spec)[:2] == (0, "1")
    assert run(capsys, "count", "--spec", spec, "--k", "2")[:2] == (0, "1")


@pytest.mark.parametrize(
    "argv", [["check"], ["build"], ["vertices"], ["kostka"], ["count", "--k", "2"]]
)
def test_mu_length_must_match_nu(capsys, argv):
    spec = '{"lambda":[6,4,3,1,1],"lambda_bar":[5,2],"mu":[0],"nu":[3,2,3]}'
    assert_input_error(*run(capsys, *argv, "--spec", spec), "mu and nu must have the same length")


@pytest.mark.parametrize(
    "argv", [["check"], ["build"], ["kostka"], ["count", "--k", "2"]]
)
@pytest.mark.parametrize("spec", [
    '{"lambda":[2,1],"lambda_bar":[1,1],"nu":[]}',
    '{"lambda":[2,1],"lambda_bar":[2,1],"nu":[]}',
    '{"lambda":[2,1],"lambda_bar":[2,1]}',
])
def test_empty_nu_is_one_input_error(capsys, argv, spec):
    # n = 0 has no shape, so every command that reads nu refuses it alike
    assert_input_error(*run(capsys, *argv, "--spec", spec), 'spec needs n >= 1: "nu" is empty')


def test_build_and_check_round_trip(capsys):
    spec = '{"lambda":[5,2,1],"nu":[3,2,3]}'
    code, out, _ = run(capsys, "build", "--spec", spec)
    assert code == 0
    array = json.loads(out)
    assert array["rows"][-1] == [0, 5, 7, 8]


@pytest.mark.parametrize("spec", [
    '{"lambda":[6,4,3,1,1],"lambda_bar":[5,2],"mu":[1,0,0],"nu":[4,2,3]}',
    '{"lambda":[4,1],"lambda_bar":[2,-1],"mu":[1,2],"nu":[3,4]}',
    '{"lambda":[4,1],"lambda_bar":[2,-1],"mu":[1,2],"nu":[4,4]}',
])
def test_build_without_config_uses_the_shape_check_decides(capsys, spec):
    # a nonzero mu on the trapezoid, and a parallelogram (equal lambda lengths)
    code, out, _ = run(capsys, "check", "--spec", spec)
    feasible = json.loads(out)["feasible"]
    code, out, err = run(capsys, "build", "--spec", spec)
    assert (code, err) == ((0 if feasible else 1), "")
    if feasible:
        x = array_from_json(json.loads(out))
        assert validate_array(x) and boundary(x).to_json() == json.loads(spec)


def test_check_and_build_agree(capsys):
    # one decision path: on the seeded specs of the golden families (trapezoids,
    # parallelograms and hexagons, int and Fraction, nonzero mu, perturbed and
    # malformed) both commands exit alike, and print the same verdict or error
    argvs = []

    def collect(*argv):
        if argv[:1] in (("check",), ("build",)):
            argvs.append(argv[1:])

    def through_config(command, *args):  # the parallelogram that the lengths fix, passed explicitly
        spec = json.loads(args[-1])
        n, m = len(spec["nu"]), len(spec["lambda"])
        argvs.append(args + ("--config", json.dumps({"n": n, "a": [0] * (n + 1), "b": [m] * (n + 1)})))

    for family in (golden.check_trapezoid, golden.check_parallelogram, golden.check_general,
                   golden.build, golden.mu_length, golden.empty_nu, golden.malformed):
        family(random.Random(f"agree:{family.__name__}"), collect)
    golden.check_parallelogram(random.Random("agree:config"), through_config)
    assert len(argvs) > 250
    for args in argvs:
        checked, built = run(capsys, "check", *args), run(capsys, "build", *args)
        assert checked[0] == built[0], args
        if checked[0] != 0:
            assert checked == built, args


def test_build_infeasible_emits_certificate(capsys):
    code, out, _ = run(capsys, "build", "--spec", '{"lambda":[2,1],"nu":[3,0]}')
    assert code == 1
    assert json.loads(out)["certificate"]["kind"] == "subset"


def test_flow_round_trip(capsys):
    fixtures = all_fixtures()
    array = json.dumps(fixtures["trapezoid_array"])
    code, out, _ = run(capsys, "flow", "to", "--array", array)
    assert code == 0
    flow = json.loads(out)
    assert flow == TRAPEZOID_FLOW.to_json()
    code, out, _ = run(capsys, "flow", "from", "--flow", json.dumps(flow))
    assert code == 0
    # mu-normalized array shares the fixture's derivative
    rows = json.loads(out)["rows"]
    assert [b - a for a, b in zip(rows[-1], rows[-1][1:])] == [6, 4, 3, 1, 1]
    # and with mu = 0 the round trip gives the array back
    code, out, _ = run(capsys, "flow", "to", "--array", json.dumps(rows))
    assert code == 0 and json.loads(out) == flow
    code, out, _ = run(capsys, "flow", "from", "--flow", out)
    assert code == 0 and json.loads(out)["rows"] == rows == [
        [0, 5, 7], [0, 5, 8, 10], [0, 5, 9, 11, 12], [0, 6, 10, 13, 14, 15]]


def test_swap_reproduces_swapped_fixture(capsys):
    fixtures = all_fixtures()
    code, out, _ = run(
        capsys, "swap", "--layer", "2", "--flow", json.dumps(fixtures["flow"])
    )
    assert code == 0
    assert json.loads(out) == SWAPPED_FLOW.to_json()


def test_swap_domains(capsys):
    negative = json.dumps([[0], [0, 0], [0, 1, -1]])  # lambda = (1, -2), nu = (0, -1)
    code, out, _ = run(capsys, "swap", "--layer", "1", "--array", negative)
    assert code == 0
    y = array_from_json(json.loads(out))
    assert validate_array(y) and boundary(y).nu == (-1, 0)
    shifted = json.dumps([[7], [7, 7], [7, 8, 6]])  # the array above plus 7: x_00 != 0
    assert_input_error(*run(capsys, "swap", "--layer", "1", "--array", shifted), "x_00")
    concave_not = json.dumps([[0], [0, 5], [0, 3, 4]])
    assert_input_error(*run(capsys, "swap", "--layer", "1", "--array", concave_not), "nonnegative")
    flow = all_fixtures()["flow"]
    flow["e1"][0][0] += 1
    inadmissible = json.dumps(flow)
    assert_input_error(*run(capsys, "swap", "--layer", "2", "--flow", inadmissible), "not admissible")


def test_flow_from_lambda_must_be_a_list(capsys):
    flow = '{"n":1,"m":0,"e0":[[0]],"e1":[[1]]}'
    code, out, _ = run(capsys, "flow", "from", "--flow", flow)
    assert code == 0 and json.loads(out)["rows"] == [[0], [0, 1]]
    # the keys of an object are not a list: {"1": "x"} must not read as lambda = (1,)
    for command in ("check", "build", "kostka"):
        argv = (command, "--spec", '{"lambda": {"1": "x"}, "nu": [1]}')
        assert_input_error(*run(capsys, *argv), 'boundary "lambda" must be a list')


def test_flow_from_lambda_option_exits_2(capsys):
    # a flow carries its lambda (boundary_of_flow): there is no --lambda
    flow = '{"n":1,"m":0,"e0":[[0]],"e1":[[1]]}'
    for lam in ("[1]", "[2]"):
        argv = ("flow", "from", "--flow", flow, "--lambda", lam)
        assert_input_error(*run(capsys, *argv), "--lambda")


def test_vertices(capsys):
    code, out, _ = run(capsys, "vertices", "--spec", '{"lambda":[2,1],"nu":[]}')
    assert code == 0
    assert len(json.loads(out)) == 2
    code, out, _ = run(capsys, "vertices", "--spec", '{"lambda":[2,1,-1]}')
    assert code == 0 and len(json.loads(out)) == 7


def test_decompose_weights_positive(capsys):
    fixtures = all_fixtures()
    code, out, _ = run(capsys, "decompose", "--flow", json.dumps(fixtures["flow"]))
    assert code == 0
    paths = json.loads(out)
    assert paths and all(p["weight"] > 0 for p in paths)


def test_facets_and_count_only(capsys):
    code, out, _ = run(capsys, "facets", "--n", "2", "--m", "1")
    assert code == 0 and len(json.loads(out)) == 8
    code, out, _ = run(capsys, "facets", "--n", "3", "--m", "0", "--count-only")
    assert code == 0
    blob = json.loads(out)
    assert blob["enumerated"] == 8 and blob["formula"] == 7
    # counted without listing the 2^40 subset pairs
    code, out, _ = run(capsys, "facets", "--n", "40", "--m", "0", "--count-only")
    assert code == 0
    assert json.loads(out) == {"enumerated": 2**40 + 37, "formula": 2**40 + 36, "consistent": False}
    # a count of about 2^20000 has more digits than Python prints
    assert_input_error(*run(capsys, "facets", "--n", "20000", "--m", "0", "--count-only"),
                       "output too large to write")


def test_kostka_and_count(capsys):
    spec = '{"lambda":[2,1,0],"lambda_bar":[],"nu":[1,1,1]}'
    code, out, _ = run(capsys, "kostka", "--spec", spec)
    assert code == 0 and out == "2"
    code, out, _ = run(capsys, "count", "--spec", spec, "--k", "2")
    code2, out2, _ = run(
        capsys, "count", "--spec", '{"lambda":[2,1,0],"lambda_bar":[],"nu":[1,1,1]}', "--k", "2"
    )
    assert code == 0 and out == out2
    # 100 levels: no recursion limit
    ones = json.dumps({"lambda": [1] * 100, "nu": [1] * 100})
    assert run(capsys, "kostka", "--spec", ones)[:2] == (0, "1")
    assert run(capsys, "count", "--spec", ones, "--k", "2")[:2] == (0, "1")


def test_kostka_size_guard(capsys):
    # near-equal content on the staircase (2n, ..., 2): n = 9 answers
    nine = {"lambda": list(range(18, 0, -2)), "nu": [10] * 9}
    assert run(capsys, "kostka", "--spec", json.dumps(nine))[:2] == (0, "156458382975")
    # a scaled count whose widest cell makes about 262 000 states
    spec = {"lambda": [9, 7, 6, 6, 4, 2, 1, 1, 0], "lambda_bar": [5, 4, 2], "nu": [3, 2, 5, 6, 5, 4]}
    assert run(capsys, "count", "--spec", json.dumps(spec), "--k", "3")[:2] == (0, "137382251429")
    # n = 11 stays under the cap in every cell: the budget summed over cells
    # refuses it in seconds, not minutes
    staircase = {"lambda": list(range(22, 0, -2)), "nu": [14, 13, 13] + [12] * 4 + [11] * 4}
    start = time.perf_counter()
    assert_input_error(*run(capsys, "kostka", "--spec", json.dumps(staircase)), "frontier states")
    assert time.perf_counter() - start < 10
    # scaled by 100, each cell of the n = 9 staircase has 201 values: the third
    # cell would create about 8 million states, refused before it is built
    hundred = {key: [100 * v for v in row] for key, row in nine.items()}
    for argv in (["kostka", "--spec", json.dumps(hundred)],
                 ["count", "--spec", json.dumps(nine), "--k", "100"]):
        start = time.perf_counter()
        assert_input_error(*run(capsys, *argv), "frontier states")
        assert time.perf_counter() - start < 1


def test_tableau_commands(capsys):
    fixtures = all_fixtures()
    pattern = json.dumps(fixtures["trapezoid_pattern"])
    code, out, _ = run(capsys, "tableau", "from-pattern", "--pattern", pattern)
    assert code == 0
    assert json.loads(out) == SKEW_TABLEAU.to_json()
    code, out, _ = run(
        capsys, "tableau", "to-pattern", "--tableau", json.dumps(fixtures["tableau"])
    )
    assert code == 0
    assert json.loads(out)["rows"] == TRAPEZOID_PATTERN.to_json()["rows"]
    code, out, _ = run(
        capsys, "tableau", "content", "--tableau", json.dumps(fixtures["tableau"])
    )
    assert code == 0 and json.loads(out) == [3, 2, 3]


def test_tableau_from_pattern_refuses_past_the_cell_cap(capsys):
    # one cell past the cap, so that a build with no cap makes the cells and passes
    for big in (1_000_001, 10**12):
        code, out, err = run(capsys, "tableau", "from-pattern", "--pattern", f"[[],[{big}]]")
        assert_input_error(code, out, err, f"tableau too large: {big} cells, more than 1000000")


@pytest.mark.parametrize("command", sorted(OVERSIZED))
def test_quadratic_outputs_are_refused_by_their_count(command):
    # under a 1 GB address-space limit, where building any of them fails with MemoryError
    probe = (
        "import json, sys, time\n"
        "from stripconcave.cli import main\n"
        "argv = json.load(sys.stdin)\n"
        "start = time.perf_counter()\n"
        "code = main(argv)\n"
        "print(code, time.perf_counter() - start, file=sys.stderr)\n"
    )
    result = fresh_python(probe, stdin=json.dumps(OVERSIZED[command]), memory=1 << 30)
    error, status = result.stderr.splitlines()
    code, seconds = status.split()
    assert (result.returncode, result.stdout, code) == (0, "", "2"), result.stderr[-500:]
    error = json.loads(error)
    assert error["error"] == "input" and " too large: " in error["message"]
    assert float(seconds) < 1, seconds


def test_largest_facet_listing_fits_in_memory(capsys):
    # (9, 9) is the largest listing allowed: under a 1 GB address-space limit
    # it prints every facet that --count-only counts
    probe = "import json, sys\nfrom stripconcave.cli import main\nsys.exit(main(json.load(sys.stdin)))\n"
    result = fresh_python(probe, stdin='["facets", "--n", "9", "--m", "9"]', memory=1 << 30)
    assert (result.returncode, result.stderr) == (0, "")
    listed = len(json.loads(result.stdout))
    code, out, _ = run(capsys, "facets", "--n", "9", "--m", "9", "--count-only")
    assert code == 0 and listed == json.loads(out)["enumerated"] == 261_163


def test_fixtures_self_validate(capsys):
    code, out, _ = run(capsys, "fixtures")
    assert code == 0
    # the five derived examples are the hand-written ones
    assert json.loads(out) == {
        "hexagon_array": hexagon_array().to_json(),
        "hexagon_pattern": HEXAGON_PATTERN.to_json(),
        "trapezoid_array": trapezoid_array().to_json(),
        "trapezoid_pattern": TRAPEZOID_PATTERN.to_json(),
        "flow": TRAPEZOID_FLOW.to_json(),
        "flow_swapped": SWAPPED_FLOW.to_json(),
        "tableau": SKEW_TABLEAU.to_json(),
    }
    # byte stability
    code2, out2, _ = run(capsys, "fixtures")
    assert out == out2


HEXAGON_CONFIG = '{"n":3,"a":[0,0,0,1],"b":[2,3,3,3]}'
HEXAGON_SPEC = '{"lambda":[3,0],"lambda_bar":[2,1],"mu":[2,-2,5],"nu":[1,0,4]}'


def test_reduction_env_var(monkeypatch, capsys):
    # the reduction constant is derived from the input: the variable that
    # used to override it is ignored, even when it is not a number
    monkeypatch.setenv("STRIPCONCAVE_REDUCTION_C", "nonsense")
    code, out, _ = run(capsys, "check", "--config", HEXAGON_CONFIG, "--spec", HEXAGON_SPEC)
    assert code == 0 and json.loads(out)["feasible"] is True
    code, out, _ = run(capsys, "build", "--config", HEXAGON_CONFIG, "--spec", HEXAGON_SPEC)
    assert code == 0 and json.loads(out)["config"] == json.loads(HEXAGON_CONFIG)


def test_removed_mode_flags_exit_2(capsys):
    hexagon = hexagon_array()
    config = json.dumps(hexagon.config.to_json())
    spec = json.dumps(boundary(hexagon).to_json())
    for argv in (
        ("check", "--spec", spec, "--config", config, "--exhaustive"),
        ("build", "--spec", spec, "--config", config, "--proof-verbatim"),
    ):
        assert_input_error(*run(capsys, *argv), argv[-1])
    code, out, _ = run(capsys, "build", "--spec", spec, "--config", config)
    assert code == 0
    x = array_from_json(json.loads(out))
    assert validate_array(x) and boundary(x) == boundary(hexagon)


def test_facet_listing_size_guard(capsys):
    code, out, err = run(capsys, "facets", "--n", "12", "--m", "7")
    assert code == 2 and out == ""
    blob = json.loads(err)
    assert blob["error"] == "input" and "--count-only" in blob["message"]
    code, out, _ = run(capsys, "facets", "--n", "12", "--m", "7", "--count-only")
    assert code == 0 and json.loads(out)["enumerated"] > 0


def test_unknown_subcommand_exit_2(capsys):
    # every option error is input error JSON, not argparse's usage text
    assert_input_error(*run(capsys, "definitely-not-a-command"), "invalid choice")
    assert_input_error(*run(capsys, "facets", "--n", "x", "--m", "1"), "--n")
    assert_input_error(*run(capsys, "check"), "--spec")


def test_vertex_search_size_guard(capsys, digit_limit):
    spec = '{"lambda":[8,7,6,5,4,3,2,1,0],"lambda_bar":[7,5,3,1]}'
    assert_input_error(*run(capsys, "vertices", "--spec", spec), "vertex search too large")
    # no lambda_bar: the search would place about 2^14999 rows, a count past the digit limit
    spec = json.dumps({"lambda": list(range(30000, 0, -2))})
    assert_input_error(*run(capsys, "vertices", "--spec", spec), "too large: 10^4300 or more cells")


@pytest.mark.parametrize(
    "argv, needle",
    [
        (["build", "--config", '{"n":2,"a":[0,false,0],"b":[0,1,2]}', "--spec", TRIANGLE_SPEC], "integer n"),
        (["flow", "from", "--flow", '{"n":1.5,"m":0,"e0":[[0]],"e1":[[1]]}'], "integer n and m"),
        (["flow", "from", "--flow", '{"n":1,"m":false,"e0":[[0]],"e1":[[1]]}'], "integer n and m"),
        (["tableau", "content", "--tableau", '{"outer":[true],"inner":[],"rows":[[true]]}'], "partition"),
        (["tableau", "content", "--tableau", '{"outer":[1],"inner":[],"rows":[[true]]}'], "integers"),
    ],
)
def test_integer_fields_reject_floats_and_bools(capsys, argv, needle):
    # int() would truncate 1.5 and read false as 0; JSON true is a Python bool
    assert_input_error(*run(capsys, *argv), needle)


@pytest.fixture
def digit_limit():
    """``str()`` and ``int()`` at Python's default limit of 4300 digits,
    whatever the environment sets."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield "9" * 4300
    sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("command, spec, needle", [
    ("check", '{"lambda":[%s9]}', "invalid JSON"),  # 4301 digits do not parse
    ("build", '{"lambda":[%s,%s,0],"lambda_bar":[%s],"nu":[%s,0]}', "output too large"),
    # the balance certificate's lhs 3 B has 4301 digits
    ("check", '{"lambda":[%s,%s],"nu":[-%s,0]}', "output too large"),
    ("build", '{"lambda":[%s,%s],"nu":[-%s,0]}', "output too large"),
    # a "p/q" entry whose numerator has 4301 digits
    ("vertices", '{"lambda":[%s,"1/2"]}', "output too large to write"),
    ("build", '{"lambda":[%s,"1/2"],"nu":["1/2",%s]}', "output too large to write"),
])
def test_oversized_integers_exit_2(capsys, digit_limit, command, spec, needle):
    spec = spec.replace("%s", digit_limit)
    assert_input_error(*run(capsys, command, "--spec", spec), needle)


@pytest.mark.parametrize("argv, message, small, named", [
    (["facets", "--count-only", "--n", "2", "--m", "%s"],
     "facet count too large: %s binary digits, more than 1000000", "999999", "1000001"),
    (["facets", "--n", "1", "--m", "%s"],
     "facet listing too large: %s (n + m), more than 18; --count-only counts the facets",
     "99999", "100000"),
    (["flow", "from", "--flow", '{"n":1,"m":%s,"e0":[[0]],"e1":[[1]]}'],
     "e0 row 0 must have %s entries", "99999", "100000"),
    (["flow", "to", "--array", '{"config":{"n":1,"a":[0,0],"b":[%s,%s]},"rows":[[0],[0]]}'],
     "row 0 must have %s entries", "99999", "100000"),
], ids=["facets", "facet-listing", "flow-from", "flow-to"])
def test_messages_bound_a_computed_integer_past_the_digit_limit(capsys, digit_limit, argv, message,
                                                                small, named):
    # B has 4300 digits, and the integer each message names, B + 1 or B + 2, has 4301
    for value, text in ((digit_limit, "10^4300 or more"), (small, named)):
        code, out, err = run(capsys, *(arg.replace("%s", value) for arg in argv))
        assert (code, out, json.loads(err)) == (2, "", {"error": "input", "message": message % text})


def test_too_deeply_nested_json_exits_2(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    assert_input_error(*run(capsys, "check", "--spec", str(path)), "maximum recursion depth")


def test_internal_error_exits_3(capsys, monkeypatch):
    # a lift that makes no progress runs out the solver's proven sub-step bound
    monkeypatch.setattr(construct, "_lift", lambda *args: 0)
    spec = '{"lambda":[4,2,1],"lambda_bar":[3],"nu":[2,2]}'
    code, out, err = run(capsys, "build", "--spec", spec)
    assert code == 3 and out == ""
    assert json.loads(err) == {"error": "internal",
                               "message": "a lift exceeded its proven sub-step bound"}


SMALL_CONFIG = '{"n":1,"a":[0,0],"b":[0,1]}'


@pytest.mark.parametrize("argv, needle", [
    (["tableau", "from-pattern"], "needs --pattern"),
    (["tableau", "from-pattern", "--pattern", canonical_json(HEXAGON_PATTERN.to_json())],
     "tableaux correspond to trapezoidal patterns"),
    (["check", "--config", '{"n":2,"a":[0,0,0],"b":[1,1,2]}', "--spec", TRIANGLE_SPEC],
     "increments of b must weakly decrease"),
    (["check", "--config", '{"n":2,"a":5,"b":[0,1,2]}', "--spec", TRIANGLE_SPEC],
     "integer n and integer lists a, b"),
    (["check", "--config", canonical_json(hexagon_array().config.to_json()),
      "--spec", '{"lambda":[3,0],"lambda_bar":[2,1],"mu":[2,-2],"nu":[1,0]}'],
     "mu and nu must have length n"),
    (["flow", "to", "--array", "[1,2]"], "rows must be a list of lists"),
    (["flow", "to", "--array", '{"config":%s,"rows":[[0]]}' % SMALL_CONFIG],
     "array must have n+1 rows"),
    (["flow", "to", "--array", '{"config":%s,"rows":[[0],[0]]}' % SMALL_CONFIG],
     "row 1 must have 2 entries"),
    (["tableau", "from-pattern", "--pattern", '{"config":%s,"rows":[[]]}' % SMALL_CONFIG],
     "pattern must have n+1 rows"),
    (["tableau", "from-pattern", "--pattern", '{"config":%s,"rows":[[],[]]}' % SMALL_CONFIG],
     "pattern row 1 must have 1 entries"),
    (["tableau", "content", "--tableau", '{"outer":[1],"inner":[1,0],"rows":[[]]}'],
     "inner shape has more rows than outer"),
    (["tableau", "content", "--tableau", '{"outer":[2,1],"inner":[],"rows":[[1],[2]]}'],
     "row 1 must hold 2 entries"),
    (["check", "--config", '{"n":2,"a":[0,0,0],"b":[2,2,2]}',
      "--spec", '{"lambda":[3,0],"lambda_bar":[2,1,0],"nu":[3,-3]}'],
     "boundary lengths do not match the configuration"),
])
def test_input_error_branches_exit_2(capsys, argv, needle):
    assert_input_error(*run(capsys, *argv), needle)
