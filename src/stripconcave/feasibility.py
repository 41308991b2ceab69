"""Feasibility of boundary data for strip-concave arrays.

Nonemptiness of the set of arrays with prescribed boundary quadruple
``(lam, lam_bar, mu, nu)`` is decided by deficit-corrected partial-sum
inequalities indexed by subsets ``I`` of the rows.  Only ``n + 1`` subsets
ever need evaluating: for each size ``k`` the one maximizing
``(nu - mu)(I)``.  The deficit profile costs ``O((n + m) log(n + m))`` and
the subset scan ``O(n log n)``.
"""
from itertools import accumulate
from operator import add, sub

from .core import (
    Record,
    _check_lengths,
    _set,
    deficits,
    extend_to_trapezoid,
    is_weakly_decreasing,
)


class Certificate(Record):
    """Description of a violated condition, independently re-checkable.

    ``kind`` is one of ``monotone_lambda``, ``monotone_lambda_bar``,
    ``balance`` (structural) or ``subset`` (a partial-sum inequality, with
    the violated index set ``I``, its left-hand-side value and the deficit
    used).
    """

    __slots__ = ("kind", "subset", "lhs", "deficit")
    _keys = {"subset": "I"}

    def __init__(self, kind: str, subset: tuple = None, lhs: "Rat" = None, deficit: "Rat" = None):
        _set(self, "kind", kind)
        _set(self, "subset", subset)
        _set(self, "lhs", lhs)
        _set(self, "deficit", deficit)


class FeasibilityVerdict(Record):
    """A feasibility decision: feasible exactly when no ``certificate`` of a violation exists."""

    __slots__ = ("certificate",)

    def __init__(self, certificate: "Optional[Certificate]" = None):
        _set(self, "certificate", certificate)

    @property
    def feasible(self) -> bool:
        return self.certificate is None

    def to_json(self) -> dict:
        return {
            "feasible": self.feasible,
            "certificate": None if self.certificate is None else self.certificate.to_json(),
        }


def _weight_order(weights: "Sequence[Rat]") -> list:
    """0-based indices by decreasing weight, ties broken toward the smaller index
    (the sort is stable under ``reverse``)."""
    return sorted(range(len(weights)), key=weights.__getitem__, reverse=True)


def _structural(spec: "BoundarySpec") -> "Optional[Certificate]":
    if not is_weakly_decreasing(spec.lam):
        return Certificate("monotone_lambda")
    if not is_weakly_decreasing(spec.lam_bar):
        return Certificate("monotone_lambda_bar")
    if spec.balance() != 0:
        return Certificate("balance", lhs=spec.balance())
    return None


def _check_subsets(spec: "BoundarySpec", base: "Sequence[Rat]", profile: "Sequence[Rat]"):
    """Run the inequality family; ``base[k]`` is the subset-free part for size ``k``.

    Each size-``k`` subset is the previous one plus the next index in weight
    order, so ``mu(I) - nu(I)`` is a running sum.  A violation's certificate
    carries the deficit ``profile[k]``, or none where the profile ends.
    """
    weights = list(map(sub, spec.nu, spec.mu))
    order = _weight_order(weights)
    lhs = list(map(add, base, accumulate(map(weights.__getitem__, order), sub, initial=0)))
    if min(lhs) >= 0:
        return None
    k = next(k for k, v in enumerate(lhs) if v < 0)
    subset = tuple(sorted(i + 1 for i in order[:k]))
    return Certificate("subset", subset, lhs[k], profile[k] if k < len(profile) else None)


def check_trapezoid(spec: "BoundarySpec", n: int, m: int) -> "FeasibilityVerdict":
    """Feasibility for the trapezoid of size ``(n, m)``.

    Feasible iff both boundary tuples are weakly decreasing, the quadruple is
    balanced, and ``lam[1,|I|] + mu(I) - nu(I) - D_{|I|} >= 0`` for every
    subset ``I`` of ``1..n``.  ``lam``, ``lam_bar``, ``mu`` and ``nu`` must
    have the lengths ``n + m``, ``m``, ``n`` and ``n`` of the trapezoid.
    """
    _check_lengths(spec, n, n + m, m)
    cert = _structural(spec)
    if cert is None:
        profile = deficits(spec.lam, spec.lam_bar, n)
        base = list(map(sub, accumulate(spec.lam, initial=0), profile))
        cert = _check_subsets(spec, base, profile)
    return FeasibilityVerdict(cert)


def check_parallelogram(spec: "BoundarySpec", n: int, m: int) -> "FeasibilityVerdict":
    """Feasibility for the parallelogram of size ``(n, m)``.

    For ``|I| <= m`` the inequality reads
    ``lam[1,|I|] - lam_bar[m-|I|+1, m] + mu(I) - nu(I) - D_{|I|} >= 0``;
    for larger subsets the deficit saturates and it degenerates to
    ``|lam| - |lam_bar| + mu(I) - nu(I) >= 0``.  ``lam``, ``lam_bar``,
    ``mu`` and ``nu`` must have the lengths ``m``, ``m``, ``n`` and ``n``.
    """
    _check_lengths(spec, n, m, m)
    cert = _structural(spec)
    if cert is None:
        profile = deficits(spec.lam, spec.lam_bar, n)
        # lam[1,k] - lam_bar[m-k+1,m] for k = 0..m
        sums = list(map(sub, accumulate(spec.lam, initial=0),
                        accumulate(reversed(spec.lam_bar), initial=0)))
        base = list(map(sub, sums, profile)) + sums[-1:] * (n - m)
        cert = _check_subsets(spec, base, profile[: m + 1])
    return FeasibilityVerdict(cert)


def _decide(config: "ConvexConfig", spec: "BoundarySpec") -> tuple:
    """``(verdict, extension)``: the verdict of :func:`check_general` and the
    ``(trapezoid_config, extended_spec)`` it was decided on, made once; a
    parallelogram is decided on ``spec`` itself and has no extension."""
    if config.is_parallelogram:
        return check_parallelogram(spec, config.n, config.m), None
    tconfig, tspec = extend_to_trapezoid(config, spec)
    verdict = check_trapezoid(tspec, tconfig.n, tconfig.m)
    cert = verdict.certificate
    if cert is not None and cert.kind == "subset" and not config.is_trapezoidal:
        verdict = FeasibilityVerdict(Certificate("subset", cert.subset))
    return verdict, (tconfig, tspec)


def check_general(config: "ConvexConfig", spec: "BoundarySpec") -> "FeasibilityVerdict":
    """Feasibility for an arbitrary convex configuration.

    A parallelogram is decided by :func:`check_parallelogram` on ``spec``
    itself, any other shape by :func:`check_trapezoid` on its extension to
    the trapezoid of size ``(n, b_0)`` with the constant
    :func:`~stripconcave.core.rough_bound`, which preserves feasibility in
    both directions; the violated subset ``I`` indexes the original rows.
    Every shape passes the one length check first.  Off trapezoids and
    parallelograms a subset certificate carries only ``I``: the extension's
    left-hand side reads ``A + B c`` in the reduction constant ``c``, and
    the inequality fails for every large ``c``.
    """
    return _decide(config, spec)[0]
