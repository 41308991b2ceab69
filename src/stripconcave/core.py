"""Domain types for convex grids, strip-concave arrays and their boundary data.

All arithmetic is exact: entries are Python ints or ``fractions.Fraction``
values, never floats.  An array ``X = (x_{ij})`` lives on a convex
configuration with row bounds ``a_i <= j <= b_i``; its row derivative
``dx_{ij} = x_{ij} - x_{i,j-1}`` is a (generalized) Gelfand-Tsetlin pattern
when the two rhombus inequalities hold on every strip.

``import stripconcave`` loads neither ``fractions`` nor ``json``: ``Rat`` is
built on first read, a non-``int`` entry imports ``fractions`` and
:func:`canonical_json` imports ``json``.  The package names ``Rat`` only in
quoted annotations, which are never evaluated.
"""
import sys
from bisect import bisect_left, bisect_right
from itertools import accumulate
from operator import attrgetter, ge, gt, lt, neg, sub
from typing import Union


def __getattr__(name):  # Rat = Union[int, Fraction], built on first read
    if name != "Rat":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import fractions
    return globals().setdefault("Rat", Union[int, fractions.Fraction])


class InputError(ValueError):
    """Malformed or precondition-violating input (CLI exit code 2)."""


class InfeasibleError(Exception):
    """Raised when a witness is requested for infeasible boundary data.

    Carries the violation certificate (CLI exit code 1).
    """

    def __init__(self, certificate):
        super().__init__(certificate)
        self.certificate = certificate

    def __str__(self):  # formatted on demand: a certificate int may pass the str() digit limit
        return f"infeasible boundary data: {self.certificate}"


class InternalError(RuntimeError):
    """A proven bound of the witness solver was exceeded (CLI exit code 3)."""


def rat(value) -> "Rat":
    """Parse an exact rational from an int, Fraction or ``"p/q"`` string."""
    if isinstance(value, bool):
        raise InputError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return value
    import fractions  # not "from fractions import Fraction", which costs ~1 us a call
    if isinstance(value, fractions.Fraction):
        return value if value.denominator != 1 else int(value)
    if isinstance(value, str):
        try:
            f = fractions.Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"not a rational: {value!r}") from exc
        return int(f) if f.denominator == 1 else f
    raise InputError(f"not a rational: {value!r} (floats are not accepted)")


def _int_text(value: int) -> str:
    """``str(value)``, or a bound where a positive ``value`` passes the ``str()`` digit limit."""
    try:
        return str(value)
    except ValueError:
        return f"10^{sys.get_int_max_str_digits()} or more"


# The output budget, in entries (cells, nodes), counted before any is made: the
# tests' largest output is a 721 801-entry witness, the benchmark's about 10^4.
# Kostka states (work) and the facet caps (about 2^(n+m) facets; a count's
# digits) keep their own units in ``polytope``.
CELLS_MAX = 1_000_000


def _check_cells(cells: int, what: str) -> None:
    if cells > CELLS_MAX:
        raise InputError(f"{what} too large: {_int_text(cells)} cells, more than {CELLS_MAX}")


def _is_int(value) -> bool:
    """An integer JSON field: an ``int`` that is not a ``bool`` (``true`` parses to one)."""
    return isinstance(value, int) and not isinstance(value, bool)


def rat_to_json(value: "Rat"):
    """Encode an exact rational as an int, or ``"p/q"`` when non-integral."""
    if type(value) is int:
        return value
    import fractions
    if isinstance(value, fractions.Fraction):
        if value.denominator == 1:
            return int(value)
        return f"{value.numerator}/{value.denominator}"
    return value


def _row_json(values) -> list:
    return list(values) if set(map(type, values)) <= {int} else [rat_to_json(v) for v in values]


def _field_json(value):
    """A record field as JSON: a record by its ``to_json``, a tuple (of rows) as (nested) lists
    of :func:`rat_to_json` values, a ``str`` as it is, so that no ``fractions`` is imported."""
    if isinstance(value, Record):
        return value.to_json()
    if type(value) is not tuple:
        return value if type(value) is str else rat_to_json(value)
    return list(map(_row_json, value)) if value and type(value[0]) is tuple else _row_json(value)


def canonical_json(obj) -> str:
    """Serialize with sorted keys and fixed separators for byte-stable output."""
    import json
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def is_weakly_decreasing(seq: "Sequence[Rat]") -> bool:
    return all(map(ge, seq, seq[1:]))


_set = object.__setattr__


class Record:
    """Immutable value: its fields, the ``__slots__`` without a leading ``_``
    (``_fields``), are each set once in ``__init__`` by ``_set``; it is compared,
    hashed, printed, pickled and written by class and field values.  A slot with
    a leading ``_`` is a memo, not a field: a view derived from the fields, set
    by ``_set`` when first computed and then read instead of computed again.
    Its JSON is its non-``None`` fields by name, renamed by ``_keys`` (``lambda``
    and ``lambda_bar`` for ``BoundarySpec``, ``I`` for ``Certificate.subset``).
    ``FeasibilityVerdict`` (a computed ``feasible``, a ``null`` certificate),
    ``FacetInequality`` (keys by kind; its own tuples, so a listing allocates no
    lists) and ``PathDecomposition`` (a list) write their own."""

    __slots__ = ()
    _keys = {}

    def __init_subclass__(cls):
        cls._fields = tuple(name for name in cls.__slots__ if name[0] != "_")
        cls._values = attrgetter(*cls._fields)

    def to_json(self) -> dict:
        return {self._keys.get(name, name): _field_json(value) for name in self._fields
                if (value := getattr(self, name)) is not None}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{self.__class__.__qualname__} fields are read-only")

    __delattr__ = __setattr__


class ConvexConfig(Record):
    """Row bounds ``a_i <= j <= b_i`` of a convex triangular grid.

    Convexity: ``a_0 = 0``, the increments of ``a`` weakly increase from 0 to
    at most 1, the increments of ``b`` weakly decrease from at most 1 to 0.
    """

    __slots__ = ("n", "a", "b")

    def __init__(self, n: int, a: tuple, b: tuple):
        a, b = tuple(a), tuple(b)
        if not (_is_int(n) and all(map(_is_int, a + b))):
            raise InputError("config needs an integer n and integer lists a, b")
        _set(self, "n", n)
        _set(self, "a", a)
        _set(self, "b", b)
        if n < 1 or len(a) != n + 1 or len(b) != n + 1:
            raise InputError(f"config needs n >= 1 and bound rows of length n+1, got n={n}")
        if a[0] != 0:
            raise InputError("config must have a_0 = 0")
        if any(a[i] > b[i] for i in range(n + 1)):
            raise InputError("config must have a_i <= b_i")
        da = [a[i + 1] - a[i] for i in range(n)]
        if any(d < 0 or d > 1 for d in da) or any(x > y for x, y in zip(da, da[1:])):
            raise InputError("increments of a must weakly increase within {0,1}")
        db = [b[i + 1] - b[i] for i in range(n)]
        if any(d < 0 or d > 1 for d in db) or any(x < y for x, y in zip(db, db[1:])):
            raise InputError("increments of b must weakly decrease within {0,1}")

    # -- constructors for the special shapes -------------------------------
    @classmethod
    def trapezoid(cls, n: int, m: int) -> "ConvexConfig":
        return cls(n, (0,) * (n + 1), tuple(i + m for i in range(n + 1)))

    @classmethod
    def parallelogram(cls, n: int, m: int) -> "ConvexConfig":
        return cls(n, (0,) * (n + 1), (m,) * (n + 1))

    # -- classification ----------------------------------------------------
    @property
    def m(self) -> int:
        return self.b[0]

    @property
    def is_trapezoidal(self) -> bool:
        """``a_n = 0`` and ``b_n - b_0 = n``: convexity makes ``a`` all 0 and
        every step of ``b`` a 1 exactly then."""
        return self.a[self.n] == 0 and self.b[self.n] == self.m + self.n

    @property
    def is_parallelogram(self) -> bool:
        """``a_n = 0`` and ``b_n = b_0``: convexity makes ``a`` all 0 and ``b``
        constant exactly then."""
        return self.a[self.n] == 0 and self.b[self.n] == self.m


class StripConcaveArray(Record):
    """Entries ``x_{ij}`` on a convex configuration, stored densely per row.

    Row ``i`` holds the values for ``j = a_i .. b_i``.  Construction checks
    shape only; concavity is checked explicitly by :func:`validate_array` so
    that intentionally invalid fixtures can be built.  Its row derivative is
    kept in ``_pattern`` once :func:`derivative` has computed it.
    """

    __slots__ = ("config", "rows", "_pattern")

    def __init__(self, config: "ConvexConfig", rows: tuple):
        rows = tuple(tuple(r) for r in rows)
        _set(self, "config", config)
        _set(self, "rows", rows)
        c = config
        if len(rows) != c.n + 1:
            raise InputError("array must have n+1 rows")
        for i, row in enumerate(rows):
            if len(row) != c.b[i] - c.a[i] + 1:
                raise InputError(f"row {i} must have {_int_text(c.b[i] - c.a[i] + 1)} entries")


class GTPattern(Record):
    """Row derivative ``dx_{ij} = x_{ij} - x_{i,j-1}`` of an array.

    Row ``i`` holds the values for ``j = a_i + 1 .. b_i``.  The verdict of
    :func:`validate_pattern` is kept in ``_valid`` once computed.
    """

    __slots__ = ("config", "rows", "_valid")

    def __init__(self, config: "ConvexConfig", rows: tuple):
        rows = tuple(tuple(r) for r in rows)
        _set(self, "config", config)
        _set(self, "rows", rows)
        c = config
        if len(rows) != c.n + 1:
            raise InputError("pattern must have n+1 rows")
        for i, row in enumerate(rows):
            if len(row) != c.b[i] - c.a[i]:
                raise InputError(f"pattern row {i} must have {c.b[i] - c.a[i]} entries")


class BoundarySpec(Record):
    """Boundary quadruple (lambda, lambda_bar, mu, nu) of local differences."""

    __slots__ = ("lam", "lam_bar", "mu", "nu")
    _keys = {"lam": "lambda", "lam_bar": "lambda_bar"}

    def __init__(self, lam: tuple, lam_bar: tuple, mu: tuple, nu: tuple):
        _set(self, "lam", tuple(lam))
        _set(self, "lam_bar", tuple(lam_bar))
        _set(self, "mu", tuple(mu))
        _set(self, "nu", tuple(nu))

    def balance(self) -> "Rat":
        """``|lam| - |lam_bar| + |mu| - |nu|`` (zero for any valid boundary)."""
        return (
            sum(self.lam, 0) - sum(self.lam_bar, 0) + sum(self.mu, 0) - sum(self.nu, 0)
        )


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def validate_pattern(p: "GTPattern") -> bool:
    """True iff every rhombus inequality of the two kept types holds.

    With ``s = a_i - a_{i-1}``, row ``i - 1`` read from column ``a_i + 1``
    is ``rows[i-1][s:]``; the upper inequality ``dx_{ij} >= dx_{i-1,j}``
    compares it with row ``i``.  The lower one, ``dx_{i-1,j} >= dx_{i,j+1}``,
    starts at ``j = a_i`` where the left side steps (``s = 1``), so it
    compares all of row ``i - 1`` with ``rows[i][1 - s:]``.  ``zip`` stops
    where either row ends.  The verdict is kept on ``p``.
    """
    try:
        return p._valid
    except AttributeError:
        a, rows = p.config.a, p.rows
        valid = all(all(map(ge, row, above[s:])) and all(map(ge, above, row[1 - s:]))
                    for above, row, s in zip(rows, rows[1:], map(sub, a[1:], a)))
        _set(p, "_valid", valid)
        return valid


def validate_array(x: "StripConcaveArray") -> bool:
    """True iff ``x_00 = 0`` and the array is strip-concave."""
    if x.rows[0][0] != 0:
        return False
    return validate_pattern(derivative(x))


def derivative(x: "StripConcaveArray") -> "GTPattern":
    """Row derivative ``dx_{ij} = x_{ij} - x_{i,j-1}``, kept on ``x``."""
    try:
        return x._pattern
    except AttributeError:
        p = GTPattern(x.config, tuple(tuple(map(sub, row[1:], row)) for row in x.rows))
        _set(x, "_pattern", p)
        return p


def integrate(p: "GTPattern", mu: "Sequence[Rat]" = None) -> "StripConcaveArray":
    """Rebuild an array from its row derivative and left boundary ``mu``.

    With ``mu`` omitted the left boundary is normalized to zero
    (``x_{i,a_i} = 0`` for every row).  Integral entries are ``int``s.
    """
    c = p.config
    if mu is None:
        mu = (0,) * c.n
    if len(mu) != c.n:
        raise InputError("mu must have length n")
    lefts = accumulate(mu, initial=0)
    rows = [tuple(accumulate(prow, initial=left)) for left, prow in zip(lefts, p.rows)]
    if all(type(row[-1]) is int for row in rows):
        return StripConcaveArray(c, rows)
    from fractions import Fraction
    # a Fraction entry makes every later prefix sum a Fraction, the last one too
    return StripConcaveArray(c, [tuple(int(v) if v.denominator == 1 else v for v in row)
                                 if isinstance(row[-1], Fraction) else row for row in rows])


def boundary(x: "StripConcaveArray") -> "BoundarySpec":
    """Boundary quadruple of an array: lower/upper derivatives, side steps."""
    rows = x.rows
    left, right = [row[0] for row in rows], [row[-1] for row in rows]
    mu, nu = map(sub, left[1:], left), map(sub, right[1:], right)
    return BoundarySpec(map(sub, rows[-1][1:], rows[-1]), map(sub, rows[0][1:], rows[0]), mu, nu)


def shift_mu(spec: "BoundarySpec") -> "BoundarySpec":
    """Normalize the left boundary to zero: ``(lam, lam_bar, 0^n, nu - mu)``.

    Corresponds to the row shift ``x'_{ij} = x_{ij} + q_i`` with
    ``q_i = -(mu_1 + ... + mu_i)``, which preserves the row derivative and
    hence feasibility.
    """
    n = len(spec.mu)
    nu = tuple(spec.nu[i] - spec.mu[i] for i in range(n))
    return BoundarySpec(spec.lam, spec.lam_bar, (0,) * n, nu)


def deficits(lam: "Sequence[Rat]", lam_bar: "Sequence[Rat]", n: int = None) -> tuple:
    """Deficits ``(D_0, .., D_n)`` of a pair of weakly decreasing tuples.

    ``D_k = sum_t max(0, lam_bar_t - lam_{t+k})`` over the ``t`` with both
    indices in range.  As both tuples decrease, ``+lam_bar_t`` enters the
    ``k`` from the first ``lam_j < lam_bar_t`` on, and ``-lam_j`` the ``k``
    for which ``t = j - k`` lies in the prefix with ``lam_bar_t > lam_j``.
    Each tuple is negated once, so that it increases, and bisected with no
    key to find each interval; a difference list sums them: the cost is
    ``O((n + m) log(n + m))``, not ``O(n m)``.
    """
    lam = tuple(lam)
    lam_bar = tuple(lam_bar)
    if not is_weakly_decreasing(lam) or not is_weakly_decreasing(lam_bar):
        raise InputError("boundary tuples must be weakly decreasing")
    if n is None:
        n = len(lam) - len(lam_bar)
    if n < 0:
        raise InputError("lambda must be at least as long as lambda_bar")
    up, up_bar = list(map(neg, lam)), list(map(neg, lam_bar))
    diff = [0] * (n + 2)
    last = len(lam) - 1
    for t, lb in enumerate(lam_bar):  # +lb on every k in lo..hi
        lo, hi = bisect_right(up, -lb) - t, last - t
        lo, hi = lo if lo > 0 else 0, hi if hi < n else n
        if lo <= hi:
            diff[lo] += lb
            diff[hi + 1] -= lb
    for j, v in enumerate(lam):  # -v on every k in lo..hi
        lo, hi = j + 1 - bisect_left(up_bar, -v), j
        lo, hi = lo if lo > 0 else 0, hi if hi < n else n
        if lo <= hi:
            diff[lo] -= v
            diff[hi + 1] += v
    return tuple(accumulate(diff))[: n + 1]


def interlacing_bounds(i: int, below: "Sequence[Rat]", lam_bar: "Sequence[Rat]") -> tuple:
    """Bounds ``(lo, hi)`` on the cells of row ``i`` of a pattern with row 0
    ``lam_bar``, given row ``i + 1`` as ``below``.

    Interlacing gives ``below[k+1] <= row_i[k] <= below[k]``, and chains of
    it up to row 0 give ``lam_bar[k] <= row_i[k] <= lam_bar[k-i]``.  Within
    these bounds the cells are independent; on row 0 they leave only
    ``lam_bar``, if it interlaces row 1.
    """
    lo, hi = below[1:], below[:-1]
    if lam_bar:
        lo, hi = list(lo), list(hi)
        for k, c in enumerate(lam_bar):
            lo[k] = max(lo[k], c)
            hi[k + i] = min(hi[k + i], c)
    return lo, hi


def rough_bound(spec: "BoundarySpec") -> "Rat":
    """Reduction constant ``c = 4 S + 1``, ``S`` the sum of ``|e|`` over all
    boundary entries (1 when every entry is 0).

    With ``alpha = max |e|``: for ``c > alpha`` every deficit term of the
    extension has a fixed sign (``max(0, lb - c) = 0``, ``max(0, lb + c) =
    lb + c``) and the structural checks ignore ``c``; for ``c > 4 alpha`` the
    weight order ``(-w, i)``, ``w_i = (nu_i - mu_i) + c (L_i - R_i)``, is
    fixed.  So every tested inequality reads ``A + B c``
    with integer ``B`` and ``|A| <= 2 S``: the ``lam`` prefix, ``(mu - nu)(I)``
    and the c-free part of ``D_k`` add up to at most ``2 S(lam) + S(lam_bar)
    + S(mu) + S(nu)``.  For ``c > 2 S`` its sign is that of ``(B, A)`` read
    lexicographically.  Hence every ``c > 4 S`` yields the same verdict and
    the same first violated subset, those of any ``c`` large enough for the
    reduction to preserve feasibility.
    """
    return 4 * sum(map(abs, spec.lam + spec.lam_bar + spec.mu + spec.nu)) + 1


def _check_lengths(spec: "BoundarySpec", n: int, lam_len: int, lam_bar_len: int) -> None:
    """Refuse a boundary unless its lengths are ``lam_len``, ``lam_bar_len``, ``n`` and ``n``."""
    if len(spec.lam) != lam_len or len(spec.lam_bar) != lam_bar_len:
        raise InputError("boundary lengths do not match the configuration")
    if len(spec.mu) != n or len(spec.nu) != n:
        raise InputError("mu and nu must have length n")


def extend_to_trapezoid(config: "ConvexConfig", spec: "BoundarySpec"):
    """Embed a convex configuration into the trapezoid of size ``(n, b_0)``.

    Convexity makes ``a`` a run of 0s and then steps of 1, and ``b`` a run of
    steps of 1 and then a constant, so the extension is read off ``a_n`` and
    ``b_n - b_0``: row n gains ``a_n`` nodes on the left, of derivative ``c``,
    and the last ``a_n`` entries of ``mu`` drop by ``c``; it gains
    ``b_0 + n - b_n`` nodes on the right, of derivative ``-c``, and as many
    last entries of ``nu`` drop by ``c``, with ``c`` the :func:`rough_bound`
    of ``spec``.  That ``c`` gives the same verdict as every larger one:
    feasibility is preserved in both directions and restricting any
    extended witness to the original index set yields a witness.

    Returns ``(trapezoid_config, extended_spec)``.  The original index pairs
    keep their positions in the trapezoid, and on a trapezoidal
    configuration both are returned unchanged.
    """
    n, m = config.n, config.m
    _check_lengths(spec, n, config.b[n] - config.a[n], m)
    if config.is_trapezoidal:
        return config, spec
    c = rough_bound(spec)
    left, right = config.a[n], m + n - config.b[n]
    lam = (c,) * left + spec.lam + (-c,) * right
    mu = spec.mu[:n - left] + tuple(v - c for v in spec.mu[n - left:])
    nu = spec.nu[:n - right] + tuple(v - c for v in spec.nu[n - right:])
    return ConvexConfig.trapezoid(n, m), BoundarySpec(lam, spec.lam_bar, mu, nu)


def restrict_to(x: "StripConcaveArray", config: "ConvexConfig") -> "StripConcaveArray":
    """Restrict an array to a sub-configuration: row ``i`` keeps its slice
    ``a_i - A_i .. b_i - A_i``, ``A_i`` the ``a_i`` of ``x.config``."""
    big = x.config
    if big.n != config.n:
        raise InputError("restriction requires equal row counts")
    if any(map(lt, config.a, big.a)) or any(map(gt, config.b, big.b)):
        raise InputError("target configuration is not contained in the source")
    if config == big:
        return x
    return StripConcaveArray(config, [row[a - s : b - s + 1] for row, a, b, s
                                      in zip(x.rows, config.a, config.b, big.a)])


# ---------------------------------------------------------------------------
# JSON encoding
# ---------------------------------------------------------------------------

config_to_json = array_to_json = pattern_to_json = spec_to_json = Record.to_json


def config_from_json(obj) -> "ConvexConfig":
    if not isinstance(obj, dict) or not {"n", "a", "b"} <= set(obj):
        raise InputError("config JSON must be an object with keys n, a, b")
    n, a, b = obj["n"], obj["a"], obj["b"]
    if not (isinstance(a, list) and isinstance(b, list)):
        raise InputError("config needs an integer n and integer lists a, b")
    return ConvexConfig(n, a, b)


def _rats(values) -> tuple:
    """The entries of a JSON list as exact rationals (see :func:`rat`).  A list
    whose entries all have type ``int`` is copied as it is; a ``bool`` takes
    the :func:`rat` path, as ``type(True)`` is ``bool``."""
    return tuple(values) if set(map(type, values)) <= {int} else tuple(map(rat, values))


def _rows_from_json(obj) -> tuple:
    if not isinstance(obj, list) or not all(isinstance(r, list) for r in obj):
        raise InputError("rows must be a list of lists")
    return tuple(map(_rats, obj))


def _config_and_rows(obj, extra: int) -> tuple:
    """Config and rows of an array (``extra = 1``) or pattern (``extra = 0``).

    ``obj`` is ``{"config": ..., "rows": ...}`` or bare rows.  Without a
    config, bare rows must form a trapezoid with ``m + extra`` entries in
    row 0 and one more in each row after it.
    """
    config = None
    if isinstance(obj, dict):
        if "config" in obj:
            config = config_from_json(obj["config"])
        obj = obj.get("rows")
    rows = _rows_from_json(obj)
    kind = "array" if extra else "pattern"
    if config is None:
        if not rows:
            raise InputError(f"bare {kind} rows must not be empty")
        config = ConvexConfig.trapezoid(len(rows) - 1, len(rows[0]) - extra)
        if any(len(row) != i + len(rows[0]) for i, row in enumerate(rows)):
            raise InputError(f"bare {kind} rows must form a trapezoid; pass a config otherwise")
    return config, rows


def array_from_json(obj) -> "StripConcaveArray":
    return StripConcaveArray(*_config_and_rows(obj, extra=1))


def pattern_from_json(obj) -> "GTPattern":
    return GTPattern(*_config_and_rows(obj, extra=0))


def _boundary_field(key: str, value) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise InputError(f'boundary "{key}" must be a list of rationals, got {value!r}')
    return _rats(value)


def spec_from_json(obj) -> "BoundarySpec":
    if not isinstance(obj, dict) or "lambda" not in obj:
        raise InputError('boundary JSON must be an object with a "lambda" key')
    lam, lam_bar, nu = (_boundary_field(k, obj.get(k, ())) for k in ("lambda", "lambda_bar", "nu"))
    mu = _boundary_field("mu", obj.get("mu", (0,) * len(nu)))
    if len(mu) != len(nu):
        raise InputError("mu and nu must have the same length")
    return BoundarySpec(lam, lam_bar, mu, nu)
