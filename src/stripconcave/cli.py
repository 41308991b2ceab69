"""Command-line entry point.

Each subcommand parses JSON (inline or from a file path) and computes: it
returns the library result or raises.  :func:`_emit`, the one writer, prints
the result as canonical JSON.  The exit code is 0 on success, 1 on
infeasibility (the verdict with its certificate), 2 on bad input and 3 past
a proven bound of the witness solver.  Bad input includes JSON nested too
deep, an integer, read or written (``"p/q"`` entries too), past the ``str()``
digit limit, and a result of more than ``core.CELLS_MAX`` cells, counted
before it is made.  ``check``, ``build``, ``kostka`` and ``count``
refuse an empty ``nu`` (``n = 0``).  ``check`` and ``build`` decide through
``check_general`` on one configuration: the ``--config`` one, else the
parallelogram when ``lambda`` is as long as ``lambda_bar``, else the
trapezoid.  ``kostka`` and ``count`` count the content ``nu - mu``.
"""
import argparse
import json
import sys

from .construct import mu_general_build
from .core import (
    ConvexConfig,
    InfeasibleError,
    InputError,
    InternalError,
    Record,
    array_from_json,
    canonical_json,
    config_from_json,
    pattern_from_json,
    shift_mu,
    spec_from_json,
)
from .feasibility import FeasibilityVerdict, check_general
from .flow import (
    enumerate_vertices,
    flow_from_json,
    gamma,
    gamma_inv,
    path_decompose,
    swap_flow,
    zigzag_swap,
)
from .polytope import count_scaled_points, facet_count_consistent, facets, kostka
from .tableau import SkewTableau, content, pattern_to_tableau, tableau_to_pattern


def _load_json(source: str):
    """Parse inline JSON (starting with ``{`` or ``[``) or read a file."""
    text = source
    if not source.lstrip().startswith(("{", "[")):
        try:
            with open(source) as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read {source}: {exc}") from exc
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # an int past the str() digit limit; deep nesting
        raise InputError(f"invalid JSON in {source!r}: {exc}") from exc


def _load_spec(source: str):
    """The spec at ``source``; an empty ``nu`` is refused, as no shape has ``n = 0`` rows."""
    spec = spec_from_json(_load_json(source))
    if not spec.nu:
        raise InputError('spec needs n >= 1: "nu" is empty')
    return spec


def _config(args, spec):
    """The ``--config`` configuration, else the shape that the lengths of ``spec`` fix."""
    if args.config:
        return config_from_json(_load_json(args.config))
    n, m = len(spec.nu), len(spec.lam_bar)
    return (ConvexConfig.parallelogram if len(spec.lam) == m else ConvexConfig.trapezoid)(n, m)


def _cmd_check(args):
    spec = _load_spec(args.spec)
    verdict = check_general(_config(args, spec), spec)
    if not verdict.feasible:
        raise InfeasibleError(verdict.certificate)
    return verdict


def _cmd_build(args):
    spec = _load_spec(args.spec)
    return mu_general_build(_config(args, spec), spec)


def _cmd_flow(args):
    if args.direction == "to":
        if not args.array:
            raise InputError("flow to needs --array")
        return gamma(array_from_json(_load_json(args.array)))
    if not args.flow:
        raise InputError("flow from needs --flow")
    return gamma_inv(flow_from_json(_load_json(args.flow)))


def _cmd_vertices(args):
    spec = spec_from_json(_load_json(args.spec))
    return enumerate_vertices(spec.lam, spec.lam_bar)


def _cmd_swap(args):
    if args.flow:
        return swap_flow(flow_from_json(_load_json(args.flow)), args.layer)
    if args.array:
        return zigzag_swap(array_from_json(_load_json(args.array)), args.layer)
    raise InputError("swap needs --flow or --array")


def _cmd_decompose(args):
    return path_decompose(flow_from_json(_load_json(args.flow)))


def _cmd_facets(args):
    return (facet_count_consistent if args.count_only else facets)(args.n, args.m)


def _cmd_kostka(args):
    spec = _load_spec(args.spec)
    return kostka(spec.lam, spec.lam_bar, shift_mu(spec).nu)


def _cmd_count(args):
    spec = _load_spec(args.spec)
    return count_scaled_points(spec.lam, spec.lam_bar, shift_mu(spec).nu, args.k)


def _cmd_tableau(args):
    if args.action == "from-pattern":
        if not args.pattern:
            raise InputError("tableau from-pattern needs --pattern")
        return pattern_to_tableau(pattern_from_json(_load_json(args.pattern)))
    if not args.tableau:
        raise InputError(f"tableau {args.action} needs --tableau")
    t = SkewTableau.from_json(_load_json(args.tableau))
    return tableau_to_pattern(t) if args.action == "to-pattern" else content(t)


def _cmd_fixtures(args):
    from .fixtures import all_fixtures  # its hexagon array holds a Fraction
    return all_fixtures()


class _Parser(argparse.ArgumentParser):
    """Turns option errors into ``InputError`` (exit 2 with an error JSON)."""

    def error(self, message):
        raise InputError(message)


def _build_parser() -> "argparse.ArgumentParser":
    parser = _Parser(
        prog="stripconcave",
        description="Exact feasibility, construction, flows, polytopes and tableaux "
        "for strip-concave arrays.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide feasibility of boundary data")
    p.add_argument("--spec", required=True)
    p.add_argument("--config")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("build", help="construct a witness array")
    p.add_argument("--spec", required=True)
    p.add_argument("--config")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("flow", help="convert between arrays and flows")
    p.add_argument("direction", choices=["to", "from"])
    p.add_argument("--array")
    p.add_argument("--flow")
    p.set_defaults(func=_cmd_flow)

    p = sub.add_parser("vertices", help="enumerate polytope vertices")
    p.add_argument("--spec", required=True)
    p.set_defaults(func=_cmd_vertices)

    p = sub.add_parser("swap", help="zigzag swap around a layer")
    p.add_argument("--layer", type=int, required=True)
    p.add_argument("--flow")
    p.add_argument("--array")
    p.set_defaults(func=_cmd_swap)

    p = sub.add_parser("decompose", help="decompose a flow into weighted paths")
    p.add_argument("--flow", required=True)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("facets", help="list the facet inequalities")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(func=_cmd_facets)

    p = sub.add_parser("kostka", help="count integer points / skew tableaux")
    p.add_argument("--spec", required=True)
    p.set_defaults(func=_cmd_kostka)

    p = sub.add_parser("count", help="count 1/k-integer points")
    p.add_argument("--spec", required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("tableau", help="convert between patterns and tableaux")
    p.add_argument("action", choices=["from-pattern", "to-pattern", "content"])
    p.add_argument("--pattern")
    p.add_argument("--tableau")
    p.set_defaults(func=_cmd_tableau)

    p = sub.add_parser("fixtures", help="emit the built-in worked examples")
    p.set_defaults(func=_cmd_fixtures)

    return parser


def _json(value):
    """The JSON data of one result: a record through its ``to_json``, plain data as it is."""
    return value.to_json() if isinstance(value, Record) else value


def _emit(result, code: int) -> int:
    """Print ``result`` as one line of canonical JSON and return the exit ``code``.

    The only writer of results: a top-level list is encoded item by item.  An
    int past the ``str()`` digit limit, bare or in a ``"p/q"`` string, is an
    :class:`InputError`, and nothing is printed.
    """
    try:
        text = canonical_json(list(map(_json, result)) if type(result) is list else _json(result))
    except ValueError as exc:
        raise InputError(f"output too large to write: {exc}") from exc
    print(text)
    return code


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        try:
            return _emit(args.func(args), 0)
        except InfeasibleError as exc:
            return _emit(FeasibilityVerdict(exc.certificate), 1)
    except InputError as exc:
        print(canonical_json({"error": "input", "message": str(exc)}), file=sys.stderr)
        return 2
    except InternalError as exc:
        print(canonical_json({"error": "internal", "message": str(exc)}), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
