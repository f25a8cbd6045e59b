"""Exact algebra for weighted polynomial expressions on the unit disk.

An expression is a finite sum

    sum over (a, b, k) of  c[a,b,k] * z^a * conj(z)^b * u^(g + k)

with u = 1 - |z|^2, integer a, b, k >= 0 and a shared real base offset g.
Because z * conj(z) = 1 - u, the monomial part of every key can be reduced
until min(a, b) = 0; that canonical form is unique, which makes equality a
coefficient-wise comparison and keeps printed output stable for golden
tests.  Wirtinger derivatives act termwise and lower the base offset by
one; the constructor then shifts any common integer slack in the u-powers
back into the offset, so simple results land in their natural form (the
z-derivative of u comes out as offset 0 with a single u^0 term, for
example).

The public constructor checks its arguments and reduces every key.  An
operation whose result is canonical by construction (``add``, ``scale``,
``prune``, a product with a lone ``c u^h`` first factor, the termwise
operators in ``spectral``, and ``rodrigues_expr`` and ``explicit_expr``
in ``zernike``) builds through ``_from_canonical`` instead, which skips
the checks and the reduction and gives the same terms, bit for bit and
in the same order.

All operations return new expressions; nothing here mutates.
"""

from functools import lru_cache
from math import comb, isfinite
from numbers import Integral, Number, Rational, Real
from operator import itemgetter

from .errors import DomainError, OffsetMismatchError, TooLargeError
from .numerics import _check_point

__all__ = [
    "DiskExpr",
    "add",
    "scale",
    "mul",
    "d_z",
    "d_zbar",
    "eval_expr",
    "equal",
    "max_abs_coeff",
    "prune",
    "dump",
]

TERM_CAP = 10**6
_U_POWER = itemgetter(2)


@lru_cache(maxsize=256)
def _signed_binomials(m: int) -> tuple:
    """(i, C(m, i), (-1)^i) for i = 0..m: the expansion of (1 - u)^m."""
    return tuple((i, comb(m, i), (-1) ** i) for i in range(m + 1))


def _check_terms(raw, base_offset) -> dict:
    """The public constructor's arguments: a dict from (a, b, k) integer
    triples to numbers (``_canonical`` rejects a negative a or b), and a
    finite real offset.  Returns the dict, {} for None."""
    if raw is None:
        raw = {}
    elif not isinstance(raw, dict):
        raise DomainError(f"terms must be a dict, got {type(raw).__name__}")
    if not (isinstance(base_offset, Rational)
            or isinstance(base_offset, Real) and isfinite(base_offset)):
        raise DomainError(f"base offset must be a finite real number, got {base_offset!r}")
    if len(raw) > TERM_CAP:
        raise TooLargeError(f"expression exceeds {TERM_CAP} terms before reduction")
    for key, c in raw.items():
        if not (type(key) is tuple and len(key) == 3 and all(isinstance(x, Integral) for x in key)):
            raise DomainError(f"term key must be a triple (a, b, k) of integers, got {key!r}")
        if not isinstance(c, Number):
            raise DomainError(f"coefficient of {key} must be a number, got {c!r}")
    return raw


def _canonical(raw: dict) -> dict:
    """Reduce every key to min(a, b) = 0 via (z conj(z))^m = (1 - u)^m.

    The public constructor's reduction.  Always returns a new dict without
    zero coefficients.
    """
    out: dict[tuple[int, int, int], complex] = {}
    for key, c in raw.items():
        a, b, k = key
        if c == 0:
            continue
        if a < 0 or b < 0:
            raise DomainError(f"negative monomial exponent in key ({a}, {b}, {k})")
        if a == 0 or b == 0:
            out[key] = out.get(key, 0) + c
        else:
            m = a if a < b else b
            for i, binom, sign in _signed_binomials(m):
                key = (a - m, b - m, k + i)
                out[key] = out.get(key, 0) + c * binom * sign
    return {key: c for key, c in out.items() if c != 0}


def _from_canonical(terms: dict, g, into: "DiskExpr | None" = None) -> "DiskExpr":
    """The constructor minus its checks and its reduction, for trusted terms.

    Every key must have min(a, b) = 0 with a, b >= 0, and every value must
    be built starting from 0 (``out.get(key, 0) + ...``, ``0 + ...``, or a
    canonical expression's value), so that no part is -0.0 and ``0 + c``
    would leave its bits alone.  Then the result is ``DiskExpr(terms, g)``,
    term for term and in order.  Zeros go, and the smallest u-power moves
    into the offset, which is kept as given, so a Fraction offset stays
    exact.  The result may keep ``terms``: the caller must not touch it
    again.  The public constructor passes itself as ``into``.
    """
    if len(terms) > TERM_CAP:
        raise TooLargeError(f"expression exceeds {TERM_CAP} terms before reduction")
    if 0 in terms.values():
        terms = {key: c for key, c in terms.items() if c}
    if terms:
        kmin = min(map(_U_POWER, terms))
        if kmin != 0:
            terms = {(a, b, k - kmin): c for (a, b, k), c in terms.items()}
            g += kmin
    else:
        g = 0
    e = object.__new__(DiskExpr) if into is None else into
    object.__setattr__(e, "terms", terms)
    object.__setattr__(e, "base_offset", g)
    return e


class DiskExpr:
    """Canonical immutable sum of z^a conj(z)^b u^(base_offset + k) terms."""

    __slots__ = ("terms", "base_offset")

    def __init__(self, terms: dict | None = None, base_offset: float = 0):
        canon = _canonical(_check_terms(terms, base_offset))
        if len(canon) > TERM_CAP:
            raise TooLargeError(f"expression exceeds {TERM_CAP} terms")
        _from_canonical(canon, base_offset, self)

    def __setattr__(self, name, value):
        raise AttributeError("DiskExpr is immutable")

    def __repr__(self):
        return f"DiskExpr({len(self.terms)} terms, offset {float(self.base_offset):g})"

    def __len__(self):
        return len(self.terms)

    # -- convenience constructors ------------------------------------

    @staticmethod
    def zero() -> "DiskExpr":
        return DiskExpr()

    @staticmethod
    def one() -> "DiskExpr":
        return DiskExpr({(0, 0, 0): 1})

    @staticmethod
    def z_power(a: int) -> "DiskExpr":
        return DiskExpr({(a, 0, 0): 1})

    @staticmethod
    def zbar_power(b: int) -> "DiskExpr":
        return DiskExpr({(0, b, 0): 1})

    @staticmethod
    def u_power(g: float) -> "DiskExpr":
        return DiskExpr({(0, 0, 0): 1}, g)


def _aligned(e1: DiskExpr, e2: DiskExpr) -> tuple[dict, dict, float]:
    """Rewrite both expressions over a common base offset.

    Offsets may differ by an integer (absorbed into the u-powers); a
    non-integer gap means the expressions live on incomparable scales.
    """
    if not e1.terms:
        return {}, dict(e2.terms), e2.base_offset
    if not e2.terms:
        return dict(e1.terms), {}, e1.base_offset
    diff = e1.base_offset - e2.base_offset
    shift = round(diff)
    if abs(diff - shift) > 1e-12:
        raise OffsetMismatchError(
            f"base offsets {e1.base_offset} and {e2.base_offset} differ by a non-integer"
        )
    if shift >= 0:
        t1 = {(a, b, k + shift): c for (a, b, k), c in e1.terms.items()}
        return t1, dict(e2.terms), e2.base_offset
    t2 = {(a, b, k - shift): c for (a, b, k), c in e2.terms.items()}
    return dict(e1.terms), t2, e1.base_offset


def add(e1: DiskExpr, e2: DiskExpr) -> DiskExpr:
    t1, t2, g = _aligned(e1, e2)
    for key, c in t2.items():
        t1[key] = t1.get(key, 0) + c
    return _from_canonical(t1, g)


def scale(e: DiskExpr, c: complex) -> DiskExpr:
    if c == 0:
        return _from_canonical({}, 0)
    return _from_canonical({key: 0 + v * c for key, v in e.terms.items()}, e.base_offset)


def mul(e1: DiskExpr, e2: DiskExpr) -> DiskExpr:
    if len(e1.terms) * len(e2.terms) > TERM_CAP:
        raise TooLargeError("product would exceed the term cap")
    out: dict[tuple[int, int, int], complex] = {}
    for (a1, b1, k1), c1 in e1.terms.items():
        for (a2, b2, k2), c2 in e2.terms.items():
            key = (a1 + a2, b1 + b2, k1 + k2)
            out[key] = out.get(key, 0) + c1 * c2
    g = e1.base_offset + e2.base_offset
    # c u^h times a canonical expression keeps its keys
    if len(e1.terms) == 1 and (0, 0, 0) in e1.terms:
        return _from_canonical(out, g)
    return DiskExpr(out, g)


def d_z(e: DiskExpr) -> DiskExpr:
    """Wirtinger derivative with respect to z.

    Termwise: z^a conj(z)^b u^q picks up a/z from the monomial and
    -q conj(z) u^(q-1) from the weight, so every image term sits one
    offset lower.
    """
    g = e.base_offset
    out: dict[tuple[int, int, int], complex] = {}
    for (a, b, k), c in e.terms.items():
        if a:
            key = (a - 1, b, k + 1)
            out[key] = out.get(key, 0) + c * a
        q = g + k
        if q:
            key = (a, b + 1, k)
            out[key] = out.get(key, 0) - c * q
    return DiskExpr(out, g - 1)


def d_zbar(e: DiskExpr) -> DiskExpr:
    """Wirtinger derivative with respect to conj(z)."""
    g = e.base_offset
    out: dict[tuple[int, int, int], complex] = {}
    for (a, b, k), c in e.terms.items():
        if b:
            key = (a, b - 1, k + 1)
            out[key] = out.get(key, 0) + c * b
        q = g + k
        if q:
            key = (a + 1, b, k)
            out[key] = out.get(key, 0) - c * q
    return DiskExpr(out, g - 1)


def eval_expr(e: DiskExpr, z: complex) -> complex:
    """Evaluate at a point, taken as ``numerics._check_point`` takes it.
    u <= 0 is allowed only where the exponents stay safe (nonnegative at
    u = 0, integer for u < 0)."""
    z = _check_point(z)
    u = 1.0 - (z.real * z.real + z.imag * z.imag)
    zb = z.conjugate()
    g = e.base_offset
    acc = 0j
    for (a, b, k), c in e.terms.items():
        q = g + k
        if u > 0.0:
            up = u**q
        elif u == 0.0:
            if q < 0:
                raise DomainError(f"u^{q} diverges on the boundary")
            up = 1.0 if q == 0 else 0.0
        else:
            if q != int(q):
                raise DomainError(f"u^{q} is not single-valued for |z| > 1")
            up = u ** int(q)
        acc += c * z**a * zb**b * up
    return acc


def equal(e1: DiskExpr, e2: DiskExpr, tol: float = 0.0) -> bool:
    """Coefficient-wise comparison in canonical form, offsets aligned."""
    t1, t2, _ = _aligned(e1, e2)
    for key in t1.keys() | t2.keys():
        # written so that a NaN difference is unequal
        if not abs(t1.get(key, 0) - t2.get(key, 0)) <= tol:
            return False
    return True


def max_abs_coeff(e: DiskExpr) -> float:
    """The largest coefficient modulus, or NaN if any modulus is NaN."""
    mods = list(map(abs, e.terms.values()))
    # max skips a NaN that follows a number; a sum of moduli, all >= 0, is
    # NaN exactly when one of them is
    total = sum(mods)
    return total if total != total else max(mods, default=0.0)


def prune(e: DiskExpr, rel_tol: float = 1e-12) -> DiskExpr:
    """Drop coefficients at or below rel_tol times the largest one.  NaN
    terms are kept, and so is every term when the largest is NaN."""
    top = max_abs_coeff(e)
    if top == 0.0:
        return _from_canonical({}, 0)
    cut = rel_tol * top
    kept = {key: c for key, c in e.terms.items() if not abs(c) <= cut}
    return _from_canonical(kept, e.base_offset)


def dump(e: DiskExpr) -> str:
    """Deterministic text form: offset line, then one sorted line per term."""
    lines = [f"offset {float(e.base_offset):.17g}"]
    for (a, b, k) in sorted(e.terms):
        c = complex(e.terms[(a, b, k)])
        lines.append(f"{a} {b} {k} {c.real:.17g} {c.imag:.17g}")
    return "\n".join(lines) + "\n"
