import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import equiangular
from equiangular.exactnum import (
    QuadExt,
    format_scalar,
    is_squarefree,
    parse_scalar,
    quad_sign,
    ring_sign,
    ring_to_scalar,
    rows_step,
    scalar_floor,
    squarefree_decomposition,
    zsqrt_mul,
)


def test_quad_sign_examples():
    assert quad_sign(QuadExt(0, 0, 17)) == 0
    assert quad_sign(QuadExt(-1, 1, 2)) == 1
    # 4 - sqrt(17): 16 < 17, so negative (squaring oracle)
    assert 4 * 4 < 17
    assert quad_sign(QuadExt(4, -1, 17)) == -1


def test_quad_sign_squaring_oracle():
    rng = random.Random(0)
    for _ in range(2000):
        a = Fraction(rng.randrange(-9, 10), rng.randrange(1, 9))
        b = Fraction(rng.randrange(-9, 10), rng.randrange(1, 9))
        d = rng.choice([2, 3, 5, 17])
        x = QuadExt(a, b, d)
        s = quad_sign(x)
        # oracle: sign decidable by comparing a^2 against b^2 d when signs differ
        approx = float(a) + float(b) * d**0.5
        if abs(approx) > 1e-9:
            assert s == (1 if approx > 0 else -1)
        else:
            assert s == 0 or abs(approx) < 1e-9


def test_rational_arithmetic_against_unreduced_oracle():
    # independent big-integer pair arithmetic, reduced only for comparison
    rng = random.Random(1)

    def norm(p, q):
        from math import gcd

        g = gcd(p, q)
        if q < 0:
            g = -g
        return (p // g, q // g)

    for _ in range(10_000):
        p1, q1 = rng.randrange(-50, 51), rng.randrange(1, 40)
        p2, q2 = rng.randrange(-50, 51), rng.randrange(1, 40)
        f1, f2 = Fraction(p1, q1), Fraction(p2, q2)
        op = rng.randrange(4)
        if op == 0:
            got, want = f1 + f2, norm(p1 * q2 + p2 * q1, q1 * q2)
        elif op == 1:
            got, want = f1 - f2, norm(p1 * q2 - p2 * q1, q1 * q2)
        elif op == 2:
            got, want = f1 * f2, norm(p1 * p2, q1 * q2)
        else:
            if p2 == 0:
                continue
            got, want = f1 / f2, norm(p1 * q2, q1 * p2)
        assert (got.numerator, got.denominator) == want


def test_quadext_ring_properties():
    rng = random.Random(2)
    for _ in range(500):
        d = rng.choice([2, 5, 17])
        xs = [
            QuadExt(Fraction(rng.randrange(-5, 6)), Fraction(rng.randrange(-5, 6)), d)
            for _ in range(3)
        ]
        x, y, z = xs
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert quad_sign(x) * quad_sign(-x) in (0, -1)
        if quad_sign(x) != 0:
            assert x * (1 / x) == 1


def test_quadext_mixed_radicand_rejected():
    with pytest.raises(ValueError):
        QuadExt(1, 1, 2) + QuadExt(1, 1, 3)
    # rational-valued QuadExt mixes fine
    assert QuadExt(2, 0, 2) * QuadExt(1, 1, 3) == QuadExt(2, 2, 3)


def test_serialization_round_trip():
    assert format_scalar(Fraction(-1, 5)) == "-1/5"
    assert parse_scalar("-1/5") == Fraction(-1, 5)
    x = QuadExt(Fraction(1, 2), Fraction(-3, 7), 5)
    assert parse_scalar(format_scalar(x)) == x
    a17 = parse_scalar("1/sqrt(17)")
    assert a17 * a17 == Fraction(1, 17)
    assert parse_scalar(format_scalar(a17)) == a17
    assert parse_scalar("1/sqrt(12)") == QuadExt(0, Fraction(1, 6), 3)
    # a perfect-square radicand gives a rational angle
    assert parse_scalar("1/sqrt(9)") == Fraction(1, 3)
    assert parse_scalar("1/sqrt(1)") == 1


def test_scalar_floor():
    assert scalar_floor(Fraction(-7, 2)) == -4
    assert scalar_floor(QuadExt(0, 1, 17)) == 4
    assert scalar_floor(QuadExt(0, -1, 17)) == -5
    assert scalar_floor(QuadExt(3, 0, 2)) == 3


def test_squarefree_decomposition():
    assert squarefree_decomposition(60) == (2, 15)
    assert squarefree_decomposition(17) == (1, 17)
    assert squarefree_decomposition(16) == (4, 1)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10**6))
def test_is_squarefree_matches_sympy_factorint(d):
    assert is_squarefree(d) == all(e == 1 for e in sympy.factorint(d).values())
    s, core = squarefree_decomposition(d)
    assert s * s * core == d and is_squarefree(core)


@pytest.mark.parametrize("d", [0, -1, -4])
def test_is_squarefree_rejects_non_positive_input(d):
    assert not is_squarefree(d)


# -- the ring Z[sqrt d] against QuadExt -----------------------------------------

small = st.integers(-10**6, 10**6)
radicands = st.sampled_from([2, 3, 5, 17])


def zs(d):
    """Elements of Z[sqrt d] as QuadExt values with integer coordinates."""
    return st.builds(QuadExt, small, small, st.just(d))


def _in_ring(x) -> bool:
    """Whether a QuadExt value has integer coordinates."""
    return x.a.denominator == 1 and x.b.denominator == 1


def _pair(x):
    """The integer coordinates (a, b) of x = a + b*sqrt(d) in Z[sqrt d]."""
    assert _in_ring(x), x
    return int(x.a), int(x.b)


@settings(max_examples=300, deadline=None)
@given(st.data(), radicands)
def test_zsqrt_mul_matches_quadext(data, d):
    """zsqrt_mul on coordinate pairs against QuadExt, for products of two
    ring elements and of a ring element with an int."""
    x, y = data.draw(zs(d)), data.draw(zs(d))
    k = data.draw(small)
    assert zsqrt_mul(_pair(x), _pair(y), d) == _pair(x * y)
    assert zsqrt_mul(_pair(x), (k, 0), d) == _pair(x * k)


@settings(max_examples=500, deadline=None)
@given(st.data(), radicands)
def test_zsqrt_sign_matches_quadext(data, d):
    """ring_sign on coordinate pairs against QuadExt and against a float:
    with |a|, |b| <= 10^6 a nonzero a + b*sqrt(d) is at least 10^-7 away
    from 0, far above the float error."""
    x = data.draw(zs(d))
    a, b = pair = _pair(x)
    value = a + b * math.sqrt(d)
    assert ring_sign(pair, d) == x.sign() == (value > 0) - (value < 0)
    assert ring_sign((-a, -b), d) == -ring_sign(pair, d)
    assert ring_sign(a, 0) == (a > 0) - (a < 0)


def test_ring_coordinates_round_trip():
    """Integer coordinates to exact scalars and back: a pair (a, b) over
    Z[sqrt d], an int over Z."""
    for pair in [(1, -2), (0, 3), (-4, 0)]:
        x = ring_to_scalar(pair, 17)
        assert isinstance(x, QuadExt) and (x.a, x.b, x.d) == (*pair, 17)
    assert ring_to_scalar(5, 0) == Fraction(5) and ring_to_scalar(-3, 0).denominator == 1


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from([0, 2, 5, 13, 17]))
def test_rows_step_matches_ring_arithmetic(data, d):
    """rows_step gives (p*x_j - c*y_j) / q entry by entry: over Z (d = 0) as
    plain int arithmetic, over Z[sqrt d] as QuadExt computes it, each
    quotient checked to lie in the ring.  The quotients are exact (q divides
    p and c, or the rows are multiples of q); over Z[sqrt d] an inexact one
    raises ArithmeticError."""
    k = data.draw(st.integers(0, 6))
    draw = data.draw
    el = zs(d) if d else small
    q = draw(el.filter(bool))
    p, c = draw(el), draw(el)
    xs, ys = draw(st.lists(el, min_size=k, max_size=k)), draw(st.lists(el, min_size=k, max_size=k))
    if draw(st.booleans()):
        p, c = p * q, c * q
    else:
        xs, ys = [x * q for x in xs], [y * q for y in ys]

    def quotient(x, y):
        if d:
            v = (p * x - c * y) / q
            assert _in_ring(v)
            return v
        v, rem = divmod(p * x - c * y, q)
        assert rem == 0
        return v

    def coords(zs_):
        return ([a for a, _ in map(_pair, zs_)], [b for _, b in map(_pair, zs_)]) if d else (zs_,)

    def ring(z):
        return _pair(z) if d else z

    want = coords([quotient(x, y) for x, y in zip(xs, ys)])
    assert rows_step(ring(p), ring(c), ring(q), coords(xs), coords(ys), d) == want
    if d and k and (q.a * q.a - d * q.b * q.b) not in (1, -1):
        # x_0 = q*z + 1 is not divisible by q, which is not a unit
        xa, xb = coords([z * q for z in draw(st.lists(el, min_size=k, max_size=k))])
        xa[0] += 1
        with pytest.raises(ArithmeticError):
            rows_step((1, 0), (0, 0), ring(q), (xa, xb), coords(ys), d)


def test_inexact_division_raises_under_optimize():
    """The exactness check of rows_step is a real raise, not an assert
    stripped by -O."""
    root = os.path.dirname(equiangular.__path__[0])
    env = dict(os.environ, PYTHONPATH=root)
    code = (
        "from equiangular.exactnum import rows_step\n"
        "rows_step((1, 0), (0, 0), (2, 0), ([1], [1]), ([0], [0]), 17)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode != 0
    assert "ArithmeticError: a fraction-free step is not exact in Z[sqrt 17]" in proc.stderr
