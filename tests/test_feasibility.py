import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import lcm
from time import perf_counter

import pytest
from hypothesis import given, settings, strategies as st

from stripconcave import (
    BoundarySpec,
    Certificate,
    ConvexConfig,
    FeasibilityVerdict,
    InputError,
    StripConcaveArray,
    boundary,
    canonical_json,
    check_general,
    check_parallelogram,
    check_trapezoid,
    integrate,
    mu_general_build,
    restrict_to,
    rough_bound,
    shift_mu,
    validate_array,
)
from stripconcave.fixtures import hexagon_array, trapezoid_array

import oracles
from oracles import (
    decreasing,
    definition_feasible,
    exhaustive_feasible,
    feasible_nu_set,
    general_feasible_oracle,
    lp_point,
    random_pattern,
    scan_extend_to_trapezoid,
    subset_lhs,
    verify_certificate,
)


def spec_of(lam, lam_bar, mu, nu):
    return BoundarySpec(tuple(lam), tuple(lam_bar), tuple(mu), tuple(nu))


def test_fixture_boundaries_feasible():
    b = boundary(trapezoid_array())
    assert check_trapezoid(b, 3, 2).feasible
    assert exhaustive_feasible(b.lam, b.lam_bar, b.mu, b.nu)
    hb = boundary(hexagon_array())
    assert check_general(hexagon_array().config, hb).feasible


def test_verdict_derives_feasible_from_the_certificate():
    assert FeasibilityVerdict.__slots__ == ("certificate",)
    cert = Certificate("balance", lhs=1)
    for verdict, feasible in ((FeasibilityVerdict(), True), (FeasibilityVerdict(cert), False)):
        assert verdict.feasible is feasible
        assert verdict.to_json()["feasible"] is feasible
        with pytest.raises(AttributeError):
            verdict.feasible = not feasible
    assert repr(FeasibilityVerdict(cert)) == (
        "FeasibilityVerdict(certificate=Certificate(kind='balance', subset=None, lhs=1, deficit=None))"
    )


def test_structural_certificates():
    v = check_trapezoid(spec_of((1, 2), (), (0, 0), (1, 2)), 2, 0)
    assert not v.feasible and v.certificate.kind == "monotone_lambda"
    v = check_trapezoid(spec_of((3, 2, 1), (1, 2), (0,), (0,)), 1, 2)
    assert not v.feasible and v.certificate.kind == "monotone_lambda_bar"
    v = check_trapezoid(spec_of((2, 1), (), (0, 0), (1, 1)), 2, 0)
    assert not v.feasible and v.certificate.kind == "balance"


def test_subset_certificate_contents():
    # nu_1 = 3 exceeds lam_1 = 2: the singleton {1} is violated
    v = check_trapezoid(spec_of((2, 1), (), (0, 0), (3, 0)), 2, 0)
    assert not v.feasible
    cert = v.certificate
    assert cert.kind == "subset" and cert.subset == (1,) and cert.lhs < 0
    assert cert.deficit == 0


def test_length_validation():
    # the deciders for the two special shapes share the general length rule
    with pytest.raises(InputError, match="boundary lengths do not match the configuration"):
        check_trapezoid(spec_of((1,), (), (0, 0), (1, 0)), 2, 0)
    with pytest.raises(InputError, match="boundary lengths do not match the configuration"):
        check_parallelogram(spec_of((1, 1), (1,), (0,), (0,)), 1, 2)
    with pytest.raises(InputError, match="mu and nu must have length n"):
        check_trapezoid(spec_of((1, 0), (), (0,), (1, 0)), 2, 0)
    with pytest.raises(InputError, match="mu and nu must have length n"):
        check_parallelogram(spec_of((1, 1), (1, 1), (0, 0), (0,)), 2, 2)
    # every shape reports the one length check of the general decider
    bad = spec_of((3, 0), (2, 1, 0), (0, 0), (3, -3))
    for config in (ConvexConfig.parallelogram(2, 2), ConvexConfig.trapezoid(2, 2),
                   hexagon_array().config):
        with pytest.raises(InputError, match="boundary lengths do not match the configuration"):
            check_general(config, bad)


# tie-heavy entries: 2 and Fraction(4, 2) compare equal but print apart
_TIES = (2, Fraction(4, 2), 2, 1, Fraction(1, 2), 0, -1, Fraction(-3, 2))


def _tie_heavy(rng):
    if rng.random() < 0.7:
        return rng.choice(_TIES)
    return Fraction(rng.randint(-12, 12), rng.randint(1, 3))


def _least_lhs_by_size(spec, n, parallelogram):
    """Yield per size ``k``: the least left-hand side over the subsets of size
    ``k`` and the lexicographically first subset that has it, by a bitmask
    sweep."""
    w = [spec.mu[i] - spec.nu[i] for i in range(n)]
    scale = lcm(*(Fraction(v).denominator for v in w))
    sums, sizes = [0], [0]  # mask -> scale (mu - nu)(I) and |I|, in ints
    for v in (int(v * scale) for v in w):
        sums += [s + v for s in sums]
        sizes += [k + 1 for k in sizes]
    least = {}  # k -> the least sum and the masks that have it
    for mask, (s, k) in enumerate(zip(sums, sizes)):
        low = least.get(k)
        if low is None or s < low[0]:
            least[k] = s, [mask]
        elif s == low[0]:
            low[1].append(mask)
    for k in range(n + 1):
        first = min(tuple(i + 1 for i in range(n) if mask >> i & 1) for mask in least[k][1])
        yield subset_lhs(spec, first, parallelogram)[0], first


def test_subset_verdicts_match_the_definition_seeded():
    """Whole verdicts of both shapes against the sweep of every subset, the
    certificate checker and, on the smallest shapes, the LP: feasible
    exactly when no subset inequality fails; else the first structural
    failure, or a subset certificate whose ``|I|`` is the least violated
    size and whose ``I`` is the lexicographically first subset of that size
    with the least left-hand side.  On ``int`` data ``lhs`` and the deficit
    are ``int``s."""
    rng = random.Random(1912)
    seen = Counter()
    for trial in range(4000):
        parallelogram = trial % 2 == 1
        n, m = rng.randint(1, 10), rng.randint(0, 6)
        draw = _tie_heavy if rng.random() < 0.5 else lambda r: r.randint(-9, 9)
        lam = sorted((draw(rng) for _ in range(m if parallelogram else n + m)), reverse=True)
        bar = sorted((draw(rng) for _ in range(m)), reverse=True)
        if rng.random() < 0.05:
            lam.reverse()
        mu = [draw(rng) for _ in range(n)]
        # nu - mu sums to |lam| - |lam_bar|, spread evenly or not
        share = Fraction(sum(lam, 0) - sum(bar, 0), n)
        nu = [u + (share if rng.random() < 0.5 else draw(rng)) for u in mu]
        if rng.random() < 0.9:
            nu[-1] += sum(lam, 0) - sum(bar, 0) + sum(mu, 0) - sum(nu, 0)
        spec = spec_of(lam, bar, mu, nu)
        shape = ConvexConfig.parallelogram if parallelogram else ConvexConfig.trapezoid
        config = shape(n, m)
        got = (check_parallelogram if parallelogram else check_trapezoid)(spec, n, m)
        cert = got.certificate
        if n + m <= 3:
            assert got.feasible == (definition_feasible(config, spec) is not None), spec
        if cert is not None:
            assert verify_certificate(config, spec, cert.to_json()), (spec, cert)
        if cert is None or cert.kind == "subset":
            want = next(((k, lhs, first) for k, (lhs, first)
                         in enumerate(_least_lhs_by_size(spec, n, parallelogram)) if lhs < 0), None)
            assert (cert and (len(cert.subset), cert.lhs, cert.subset)) == want, spec
            if cert and all(type(v) is int for v in spec.lam + spec.lam_bar + spec.mu + spec.nu):
                assert type(cert.lhs) is int and type(cert.deficit) in (int, type(None)), cert
        seen[parallelogram, cert.kind if cert else "feasible"] += 1
    assert min(seen.values()) > 50 and len(seen) == 8, seen


def test_shortcut_matches_exhaustive_small_grid():
    # every balanced integer spec on a small trapezoid
    for lam in product(range(3), repeat=3):
        if lam[0] < lam[1] or lam[1] < lam[2]:
            continue
        for bar in range(3):
            for nu1 in range(-3, 4):
                for nu2 in range(-3, 4):
                    nu = (nu1, nu2)
                    s = spec_of(lam, (bar,), (0, 0), nu)
                    fast = check_trapezoid(s, 2, 1).feasible
                    slow = exhaustive_feasible(lam, (bar,), (0, 0), nu)
                    assert fast == slow, s


def test_trapezoid_matches_integer_pattern_oracle():
    lam = (4, 2, 1)
    lam_bar = (3,)
    achievable = feasible_nu_set(lam, lam_bar)
    for nu in product(range(-2, 8), repeat=2):
        if sum(nu) != sum(lam) - sum(lam_bar):
            continue
        verdict = check_trapezoid(spec_of(lam, lam_bar, (0, 0), nu), 2, 1)
        assert verdict.feasible == (nu in achievable), nu


def test_parallelogram_large_subsets_degenerate():
    # |I| > m inequalities collapse to the balance of lam against lam_bar
    s = spec_of((3, 1), (2, 1), (0, 0, 0), (1, 0, 0))
    v = check_parallelogram(s, 3, 2)
    assert v.feasible
    bad = spec_of((3, 1), (2, 1), (0, 0, 0), (2, 1, -2))
    v = check_parallelogram(bad, 3, 2)
    assert not v.feasible


def test_general_reduction_respects_fixture():
    hb = shift_mu(boundary(hexagon_array()))
    config = hexagon_array().config
    assert check_general(config, hb).feasible
    # a triangle fed through the general path: nu_1 > lam_1 is infeasible
    from stripconcave import ConvexConfig

    tri = ConvexConfig.trapezoid(2, 0)
    broken = BoundarySpec((2, 1), (), (0, 0), (3, 0))
    verdict = check_general(tri, broken)
    assert not verdict.feasible and verdict.certificate.kind == "subset"


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9))
def test_shortcut_matches_bitmask_oracle_random(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 8)
    m = rng.randint(0, 3)
    lam = tuple(sorted((rng.randint(-5, 10) for _ in range(n + m)), reverse=True))
    bar = tuple(sorted((rng.randint(-5, 10) for _ in range(m)), reverse=True))
    mu = tuple(rng.randint(-4, 4) for _ in range(n))
    nu = list(rng.randint(-6, 6) for _ in range(n - 1))
    nu.append(sum(lam) - sum(bar) + sum(mu) - sum(nu))
    nu = tuple(nu)
    spec = spec_of(lam, bar, mu, nu)
    got = check_trapezoid(spec, n, m).feasible
    want = exhaustive_feasible(lam, bar, mu, nu)
    assert got == want


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9), st.booleans())
def test_subset_certificate_is_first_best_subset(seed, parallelogram):
    rng = random.Random(seed)
    n = rng.randint(1, 8)
    m = rng.randint(1 if parallelogram else 0, 4)

    def value():
        return rng.choice([rng.randint(-5, 8), Fraction(rng.randint(-10, 16), 2)])

    lam = tuple(sorted((value() for _ in range(m if parallelogram else n + m)), reverse=True))
    bar = tuple(sorted((value() for _ in range(m)), reverse=True))
    mu = tuple(value() for _ in range(n))
    nu = [value() for _ in range(n - 1)]
    nu.append(sum(lam) - sum(bar) + sum(mu) - sum(nu))
    spec = spec_of(lam, bar, mu, nu)
    check = check_parallelogram if parallelogram else check_trapezoid
    verdict = check(spec, n, m)
    least = list(_least_lhs_by_size(spec, n, parallelogram))
    k = len(verdict.certificate.subset) if not verdict.feasible else n + 1
    assert all(lhs >= 0 for lhs, _ in least[:k])
    if not verdict.feasible:
        cert = verdict.certificate
        assert cert.kind == "subset" and (cert.lhs, cert.subset) == least[k]
        assert (cert.lhs, cert.deficit) == subset_lhs(spec, cert.subset, parallelogram)
        assert cert.lhs < 0


def test_hexagon_certificate_carries_only_the_subset():
    # n = 50 hexagon: a_i = max(0, i - 30), b_i = 25 + min(i, 15); zero array
    # boundary with one unit of nu moved from row 21 to row 1
    n = 50
    config = ConvexConfig(
        n, tuple(max(0, i - 30) for i in range(n + 1)), tuple(25 + min(i, 15) for i in range(n + 1))
    )
    widths = (config.b[i] - config.a[i] + 1 for i in range(n + 1))
    zero = StripConcaveArray(config, tuple((0,) * w for w in widths))
    spec = boundary(zero)
    nu = list(spec.nu)
    nu[0], nu[20] = nu[0] + 1, nu[20] - 1
    spec = spec_of(spec.lam, spec.lam_bar, spec.mu, nu)
    verdict = check_general(config, spec)
    assert not verdict.feasible
    out = verdict.to_json()["certificate"]
    assert set(out) == {"kind", "I"} and out["kind"] == "subset"
    assert canonical_json(verdict.to_json())
    # the extension's inequality reads A + B c and must fail for every large c
    c = rough_bound(spec)
    low, high = (
        subset_lhs(scan_extend_to_trapezoid(config, spec, cc)[1], out["I"])[0] for cc in (c, 2 * c)
    )
    assert high < low or (high == low and low < 0)
    assert verify_certificate(config, spec, out)
    for bad in ({**out, "I": []}, {**out, "lhs": -1}, {**out, "kind": "balance"}):
        assert not verify_certificate(config, spec, bad)


def test_trapezoidal_general_certificate_keeps_lhs():
    tri, spec = ConvexConfig.trapezoid(2, 0), spec_of((2, 1), (), (0, 0), (3, 0))
    cert = check_general(tri, spec).certificate
    assert cert.to_json() == {"kind": "subset", "I": [1], "lhs": -1, "deficit": 0}
    assert verify_certificate(tri, spec, cert.to_json())
    for bad in ({"kind": "subset", "I": [1], "lhs": -2, "deficit": 0},
                {"kind": "subset", "I": [1], "lhs": -1, "deficit": 1},
                {"kind": "subset", "I": [1], "lhs": -1},
                {"kind": "subset", "I": [2], "lhs": 2, "deficit": 0},
                {"kind": "subset", "I": [1, 1], "lhs": -1, "deficit": 0},
                {"kind": "balance", "lhs": 0}, {"kind": "monotone_lambda"}):
        assert not verify_certificate(tri, spec, bad)
    # every kind; a parallelogram subset past m has no deficit, a general shape only I
    pins = {
        Certificate("monotone_lambda"): '{"kind":"monotone_lambda"}',
        Certificate("monotone_lambda_bar"): '{"kind":"monotone_lambda_bar"}',
        Certificate("balance", lhs=Fraction(-1, 2)): '{"kind":"balance","lhs":"-1/2"}',
        Certificate("subset", (1, 3), Fraction(-1, 2), Fraction(3, 2)):
            '{"I":[1,3],"deficit":"3/2","kind":"subset","lhs":"-1/2"}',
        Certificate("subset", (2,), -4): '{"I":[2],"kind":"subset","lhs":-4}',
        Certificate("subset", ()): '{"I":[],"kind":"subset"}',
    }
    for cert, text in pins.items():
        assert canonical_json(cert.to_json()) == text
        assert canonical_json(FeasibilityVerdict(cert).to_json()) == (
            f'{{"certificate":{text},"feasible":false}}')


def _random_general_case(rng):
    """A non-trapezoidal convex config (n <= 6, m <= 3) and a
    :func:`_perturbed_boundary` on it."""
    while True:
        n, m, p, q = rng.randint(1, 6), rng.randint(0, 3), rng.randint(0, 6), rng.randint(0, 6)
        a = tuple(max(0, i - p) for i in range(n + 1))
        b = tuple(m + min(i, q) for i in range(n + 1))
        if all(x <= y for x, y in zip(a, b)) and (p < n or q < n):
            break
    config = ConvexConfig(n, a, b)
    return config, _perturbed_boundary(rng, config)


def _perturbed_boundary(rng, config):
    """The boundary of a random array on ``config``, with ``mu`` drawn in
    -4..4, scaled to fractions half the time, then usually perturbed: a
    balanced shift of ``mu`` or ``nu``, a broken balance, or a broken
    ``lam`` order."""
    n, m = config.n, config.m
    mu = [rng.randint(-4, 4) for _ in range(n)]
    x = restrict_to(integrate(random_pattern(rng, n, m, -3, 6), mu), config)
    scale = rng.choice((1, 1, Fraction(1, 2), Fraction(2, 3)))
    x = StripConcaveArray(config, tuple(tuple(v * scale for v in row) for row in x.rows))
    spec = boundary(x)
    lam, mu, nu = list(spec.lam), list(spec.mu), list(spec.nu)
    step = rng.choice((1, 2, 3, Fraction(scale) / 2))
    kind = rng.choice(("none", "nu", "nu", "nu", "mu", "mu", "mu", "balance", "order"))
    i, j = rng.randrange(n), rng.randrange(n)
    if kind == "nu":
        nu[i] += step
        nu[j] -= step
    elif kind == "mu":
        mu[i], nu[j] = mu[i] + step, nu[j] + step
    elif kind == "balance":
        nu[i] = nu[i] + step
    elif kind == "order" and len(lam) > 1:
        k = rng.randrange(len(lam) - 1)
        lam[k], lam[k + 1] = lam[k + 1] - step, lam[k] + step
    return spec_of(lam, spec.lam_bar, mu, nu)


def test_derived_constant_matches_large_constants():
    rng = random.Random(20041)
    outcomes = Counter()
    for _ in range(1200):
        config, spec = _random_general_case(rng)
        want = general_feasible_oracle(config, spec)
        verdict = check_general(config, spec)
        assert verdict.feasible == want, (config, spec)
        got = verdict.certificate and (verdict.certificate.kind, verdict.certificate.subset)
        for k in (1, 2, 10):
            tconfig, tspec = scan_extend_to_trapezoid(config, spec, k * rough_bound(spec))
            big = check_trapezoid(tspec, tconfig.n, tconfig.m)
            assert big.feasible == want, (config, spec, k)
            assert (big.certificate and (big.certificate.kind, big.certificate.subset)) == got
            assert exhaustive_feasible(tspec.lam, tspec.lam_bar, tspec.mu, tspec.nu) == want
        outcomes["feasible" if want else verdict.certificate.kind] += 1
        if not want:
            assert verify_certificate(config, spec, verdict.to_json()["certificate"])
        if want:
            x = mu_general_build(config, spec)
            assert validate_array(x) and boundary(x) == spec, (config, spec)
    assert outcomes["feasible"] >= 600 and outcomes["subset"] >= 100, outcomes


def _convex_configs(n_max, m_max):
    """Every convex configuration with ``n <= n_max`` and ``b_0 <= m_max``: ``a``
    steps from row ``n - p`` on, ``b`` stops stepping after row ``q``."""
    return [ConvexConfig(n, tuple(max(0, i - p) for i in range(n + 1)),
                         tuple(m + min(i, q) for i in range(n + 1)))
            for n in range(1, n_max + 1) for m in range(m_max + 1)
            for p in range(n + 1) for q in range(n + 1) if n - p <= m + q]


def test_check_general_matches_the_definition_seeded():
    """``check_general`` against the LP straight from the definition, on five
    seeded boundaries on each of the 72 convex configurations with ``n <= 3``
    and ``b_0 <= 2`` and on 40 seeded ``n = 4`` shapes, every other one with
    ``nu`` reversed: every infeasible verdict carries a certificate that the
    checker accepts."""
    configs = _convex_configs(3, 2)
    assert len(configs) == len(set(configs)) == 72
    rng = random.Random(3203)
    fours = [config for config in _convex_configs(4, 2) if config.n == 4]
    configs = configs * 5 + [rng.choice(fours) for _ in range(40)]
    seen = Counter()
    start = perf_counter()
    for k, config in enumerate(configs):
        spec = _perturbed_boundary(rng, config)
        if k % 2:
            spec = spec_of(spec.lam, spec.lam_bar, spec.mu, spec.nu[::-1])
        verdict = check_general(config, spec)
        assert verdict.feasible == (definition_feasible(config, spec) is not None), (config, spec)
        if not verdict.feasible:
            assert verify_certificate(config, spec, verdict.to_json()["certificate"])
        entries = spec.lam + spec.lam_bar + spec.mu + spec.nu
        seen.update({"feasible": verdict.feasible, "infeasible": not verdict.feasible,
                     "mu": any(spec.mu), "fraction": any(type(v) is Fraction for v in entries),
                     "negative": min(entries) < 0, "n=4": config.n == 4})
    assert len(configs) == 400 and seen["n=4"] == 40 and seen["mu"] >= 200, seen
    assert min(seen["feasible"], seen["infeasible"]) >= 100, seen
    assert min(seen["fraction"], seen["negative"]) >= 100, seen
    assert perf_counter() - start < 3


def test_definition_lp_matches_brute_force():
    """The LP against the bitmask sweep of :func:`exhaustive_feasible` on
    trapezoids with ``n, m <= 2`` and entries in 0..3: every spec at all for
    ``n + m <= 2``, and every spec with weakly decreasing ``lam`` and
    ``lam_bar``, ``mu = 0`` and the balance holding on the other shapes.
    Every point it returns is a strip-concave array with that boundary."""
    specs = []
    for n, m in product((1, 2), (0, 1, 2)):
        for entries in product(range(4), repeat=2 * n + 2 * m):
            lam, bar, nu = entries[:n + m], entries[n + m:n + 2 * m], entries[n + 2 * m:]
            if n + m <= 2 or (decreasing(lam) and decreasing(bar) and sum(lam) == sum(bar) + sum(nu)):
                mus = product(range(4), repeat=n) if n + m <= 2 else [(0,) * n]
                specs += [(n, m, spec_of(lam, bar, mu, nu)) for mu in mus]
    seen = Counter()
    for n, m, spec in specs:
        x = definition_feasible(ConvexConfig.trapezoid(n, m), spec)
        assert (x is not None) == exhaustive_feasible(spec.lam, spec.lam_bar, spec.mu, spec.nu), spec
        if x is not None:
            assert validate_array(x) and boundary(x) == spec, (spec, x)
        seen[x is not None, n + m <= 2] += 1
    assert min(seen.values()) >= 70 and len(seen) == 4, seen


def test_lp_raises_past_its_pivot_cap(monkeypatch):
    """``1 <= x <= 2`` leaves one equality in the slacks, which phase I solves
    in one pivot: a cap of 0 raises instead of pivoting."""
    ineqs = [({0: 1}, 2), ({0: -1}, -1)]
    assert lp_point(ineqs, [], 1) in ([1], [2])
    monkeypatch.setattr(oracles, "LP_PIVOTS_MAX", 0)
    with pytest.raises(RuntimeError, match="more than 0 simplex pivots"):
        lp_point(ineqs, [], 1)
