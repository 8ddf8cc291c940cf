"""Exact scalars: rationals, real quadratic extensions Q(sqrt d), and the one
exact ring layer Z / Z[sqrt d].

All downstream matrix work (PSD certificates, ranks, bound enumerations) runs on
these types; no floating point enters any decision.  Rationals are represented by
``fractions.Fraction``, which already guarantees the reduced-form / positive
denominator invariants.  ``QuadExt`` fixes one radicand per value and refuses to
mix distinct radicands, since no computation here ever needs a compositum field.

Fraction-free work (Bareiss elimination, the saturation search) scales its input
into a ring, Z for rational data and Z[sqrt d] for Q(sqrt d) data, and computes
on integer coordinates: an int over Z, a pair (a, b) for a + b*sqrt(d).
``zsqrt_mul`` multiplies two pairs.  ``rows_step`` is the one fraction-free
step on whole coordinate rows, for both rings; over Z[sqrt d] its exact
quotient multiplies by the conjugate of the divisor and divides by the
divisor's integer norm, and it raises ArithmeticError unless the quotient
lies in the ring.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Scalar = Union[int, Fraction, "QuadExt"]


def is_squarefree(d: int) -> bool:
    return d >= 1 and squarefree_decomposition(d)[0] == 1


def squarefree_decomposition(n: int) -> tuple[int, int]:
    """Write n > 0 as s*s*d with d squarefree; returns (s, d)."""
    if n <= 0:
        raise ValueError("positive integer required")
    s, d, k = 1, n, 2
    while k * k <= d:
        while d % (k * k) == 0:
            d //= k * k
            s *= k
        k += 1
    return s, d


@dataclass(frozen=True)
class QuadExt:
    """The real number a + b*sqrt(d), with a, b rational and d squarefree, d >= 2.

    Arithmetic is closed for a fixed d; combining two QuadExt values with
    different radicands raises ValueError (unless one of them is rational,
    i.e. has b == 0).  Signs and comparisons are decided exactly by case
    analysis on sgn(a), sgn(b) and the integer comparison a^2 vs b^2 d.
    """

    a: Fraction
    b: Fraction
    d: int

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        if self.d < 2 or not is_squarefree(self.d):
            raise ValueError(f"radicand must be squarefree and >= 2, got {self.d}")

    # -- coercion ---------------------------------------------------------
    def _coerce(self, other) -> "QuadExt":
        if isinstance(other, QuadExt):
            if other.b == 0:
                return QuadExt(other.a, Fraction(0), self.d)
            if self.b == 0:
                return other  # self will be re-coerced by caller symmetry
            if other.d != self.d:
                raise ValueError(f"cannot mix sqrt({self.d}) with sqrt({other.d})")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadExt(Fraction(other), Fraction(0), self.d)
        return NotImplemented  # type: ignore[return-value]

    # -- ring operations --------------------------------------------------
    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self.b == 0 and isinstance(other, QuadExt):
            return QuadExt(self.a + o.a, o.b, o.d)
        return QuadExt(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.d)

    def __sub__(self, other):
        return self + (-other if isinstance(other, QuadExt) else -Fraction(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self.b == 0 and isinstance(other, QuadExt) and other.d != self.d:
            return QuadExt(self.a * o.a, self.a * o.b, o.d)
        return QuadExt(
            self.a * o.a + self.b * o.b * self.d,
            self.a * o.b + self.b * o.a,
            self.d,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        norm = self.a * self.a - self.b * self.b * self.d
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt d)")
        return QuadExt(self.a / norm, -self.b / norm, self.d)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self.b == 0 and isinstance(other, QuadExt) and other.d != self.d:
            return QuadExt(self.a, Fraction(0), other.d) * o.inverse()
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    # -- order ------------------------------------------------------------
    def sign(self) -> int:
        return _sign_ab(self.a, self.b, self.d)

    def __eq__(self, other):
        if isinstance(other, QuadExt):
            if self.d == other.d:
                return self.a == other.a and self.b == other.b
            return self.b == 0 and other.b == 0 and self.a == other.a
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def _cmp(self, other) -> int:
        diff = self - other
        if not isinstance(diff, QuadExt):
            return (diff > 0) - (diff < 0)
        return diff.sign()

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __bool__(self):
        return not (self.a == 0 and self.b == 0)

    def __float__(self):
        return float(self.a) + float(self.b) * self.d ** 0.5

    def __repr__(self):
        return f"QuadExt({self.a}, {self.b}, {self.d})"

    def __str__(self):
        return format_scalar(self)


def _sign_ab(a, b, d: int) -> int:
    """Exact sign of a + b*sqrt(d) for rational (or int) a, b."""
    sa = (a > 0) - (a < 0)
    sb = (b > 0) - (b < 0)
    if sb == 0:
        return sa
    if sa == 0 or sa == sb:
        return sb
    # a and b*sqrt(d) pull in opposite directions: compare a^2 vs b^2 d
    lhs = a * a
    rhs = b * b * d
    if lhs == rhs:
        return 0
    return sa if lhs > rhs else sb


def zsqrt_mul(x, y, d: int) -> tuple[int, int]:
    """x*y for coordinate pairs x = (a, b), meaning a + b*sqrt(d), and y."""
    return x[0] * y[0] + d * x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def rows_step(p, c, q, xs, ys, d: int) -> tuple[list[int], ...]:
    """The fraction-free step (p*x_j - c*y_j) / q for every position j of the
    rows xs and ys, in integer coordinates: over Z (d = 0) p, c, q are ints
    and xs, ys hold one int row each; over Z[sqrt d] p, c, q are pairs and
    xs = (x_a, x_b), ys = (y_a, y_b).  Returns the coordinate rows of the
    result.  Over Z the quotient is the floor quotient, exact for a Bareiss
    step; over Z[sqrt d] p and c are multiplied by the conjugate of q once, so
    each entry divides exactly by the int norm of q, and an entry that is not
    divisible raises ArithmeticError."""
    if not d:
        return ([(p * x - c * y) // q for x, y in zip(xs[0], ys[0])],)
    (pa, pb), (ca, cb), (qa, qb) = p, c, q
    nrm = qa * qa - d * qb * qb
    pa, pb = pa * qa - d * pb * qb, pb * qa - pa * qb
    ca, cb = ca * qa - d * cb * qb, cb * qa - ca * qb
    dpb, dcb = d * pb, d * cb
    out_a, out_b = [], []
    for xa, xb, ya, yb in zip(*xs, *ys):
        va, ra = divmod(pa * xa + dpb * xb - ca * ya - dcb * yb, nrm)
        vb, rb = divmod(pb * xa + pa * xb - cb * ya - ca * yb, nrm)
        if ra or rb:
            raise ArithmeticError(f"a fraction-free step is not exact in Z[sqrt {d}]")
        out_a.append(va)
        out_b.append(vb)
    return out_a, out_b


def ring_to_scalar(x, d: int) -> Scalar:
    """A ring element in integer coordinates as an exact scalar: Fraction(x)
    over Z (d = 0), QuadExt for a pair (a, b) over Z[sqrt d]."""
    return QuadExt(Fraction(x[0]), Fraction(x[1]), d) if d else Fraction(x)


def ring_sign(x, d: int) -> int:
    """Exact sign of a ring element in integer coordinates (see ring_to_scalar)."""
    return _sign_ab(x[0], x[1], d) if d else (x > 0) - (x < 0)


def quad_sign(x) -> int:
    """Exact sign in {-1, 0, +1} of a rational or quadratic scalar."""
    if isinstance(x, QuadExt):
        return x.sign()
    return (x > 0) - (x < 0)


def scalar_floor(x: Scalar) -> int:
    """Exact floor; for QuadExt the float approximation is only a starting guess
    and the result is certified by exact sign tests."""
    if isinstance(x, (int, Fraction)):
        return int(Fraction(x).__floor__())
    m = int(float(x))
    while quad_sign(x - m) < 0:
        m -= 1
    while quad_sign(x - (m + 1)) >= 0:
        m += 1
    return m


# -- serialization ---------------------------------------------------------

_SQRT_RE = re.compile(
    r"^\s*(?P<a>-?\d+(?:/\d+)?)\s*(?P<sign>[+-])\s*(?P<b>\d+(?:/\d+)?)\s*\*\s*sqrt\s*\(\s*(?P<d>\d+)\s*\)\s*$"
)
_INVSQRT_RE = re.compile(r"^\s*1\s*/\s*sqrt\s*\(\s*(?P<d>\d+)\s*\)\s*$")


def format_scalar(x: Scalar) -> str:
    """Render exactly: rationals as "p/q" (or "p" for integers), quadratic
    scalars as "a + b*sqrt(d)" with rational a, b."""
    if isinstance(x, QuadExt):
        if x.b == 0:
            return str(x.a)
        sign = "-" if x.b < 0 else "+"
        return f"{x.a} {sign} {abs(x.b)}*sqrt({x.d})"
    return str(Fraction(x))


MAX_RADICAND = 10**6  # every angle of the paper has d <= 19


def _radicand(digits: str) -> int:
    """The d of a parsed sqrt(d), at most MAX_RADICAND: the squarefree tests
    trial-divide up to sqrt(d)."""
    if len(digits.lstrip("0")) <= len(str(MAX_RADICAND)) and int(digits) <= MAX_RADICAND:
        return int(digits)
    shown = digits if len(digits) <= 24 else digits[:24] + "..."
    raise ValueError(f"the radicand {shown} is above the supported bound {MAX_RADICAND}")


def inv_sqrt(d: int) -> Scalar:
    """1/sqrt(d) for d >= 1: with d = s^2 * d0 and d0 squarefree, it is
    (s/d) * sqrt(d0), or the rational 1/s when d is a perfect square."""
    s, d0 = squarefree_decomposition(d)
    if d0 == 1:
        return Fraction(1, s)
    return QuadExt(Fraction(0), Fraction(s, d), d0)


def parse_scalar(s: str) -> Scalar:
    """Inverse of format_scalar; also accepts the angle shorthand "1/sqrt(d)".
    Radicands above MAX_RADICAND are rejected."""
    if not isinstance(s, str):
        raise ValueError(f'a scalar must be a string such as "1/5", got {s!r}')
    try:
        m = _INVSQRT_RE.match(s)
        if m:
            return inv_sqrt(_radicand(m.group("d")))
        m = _SQRT_RE.match(s)
        if m:
            b = Fraction(m.group("b"))
            if m.group("sign") == "-":
                b = -b
            return QuadExt(Fraction(m.group("a")), b, _radicand(m.group("d")))
        return Fraction(s.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in the scalar {s!r}") from None

