import itertools
import random
from fractions import Fraction

import pytest
import sympy

from equiangular.linalg import SymMatrix
from equiangular.pillars import (
    decompose,
    k1_geometry,
    k3_geometry,
    normalize_sign_vector,
    sign_vector,
)
from equiangular.seidel import EquiangularSet, SeidelMatrix, base_size, switch


def base_gram(k: int, alpha: Fraction) -> SymMatrix:
    return SymMatrix.aI_bJ(1 + alpha, -alpha, k)


def h_coefficients(k: int, alpha: Fraction, eps) -> list:
    """Solve G c = alpha*eps for the base-span component coefficients (by
    sympy, an oracle independent of the closed forms under test)."""
    g = base_gram(k, alpha)
    c = sympy.Matrix(g.rows).LUsolve(sympy.Matrix([alpha * e for e in eps]))
    return [Fraction(int(x.p), int(x.q)) for x in c]


def pair_h_inner(k, alpha, eps1, eps2):
    c1 = h_coefficients(k, alpha, eps1)
    c2 = h_coefficients(k, alpha, eps2)
    g = base_gram(k, alpha)
    return sum(c1[i] * g.entry(i, j) * c2[j] for i in range(k) for j in range(k))


def test_normalize_sign_vector_rules():
    # K=4 all-minus stays put: flipping would give four positives
    sv, flipped = normalize_sign_vector((-1, -1, -1, -1))
    assert not flipped and sv.key() == "----"
    # more positives than negatives flips
    sv, flipped = normalize_sign_vector((1, 1, 1, -1))
    assert flipped and sv.key() == "---+"
    # tie with <x, p_K> = +alpha flips
    sv, flipped = normalize_sign_vector((1, -1, -1, 1))
    assert flipped and sv.key() == "-++-"
    # tie with <x, p_K> = -alpha stays
    sv, flipped = normalize_sign_vector((1, 1, -1, -1))
    assert not flipped and sv.key() == "++--"
    # idempotent: re-normalizing a representative changes nothing
    for eps in itertools.product((1, -1), repeat=5):
        sv, _ = normalize_sign_vector(eps)
        sv2, flipped2 = normalize_sign_vector(sv.epsilon)
        assert not flipped2 and sv2 == sv


def test_sign_vector_k3_single_positive():
    # base p1,p2,p3 plus x with inner products (1,-1,-1)/5
    rows = (
        (0, -1, -1, 1),
        (-1, 0, -1, -1),
        (-1, -1, 0, -1),
        (1, -1, -1, 0),
    )
    e = EquiangularSet(Fraction(1, 5), SeidelMatrix(rows))
    sv = sign_vector(e, (0, 1, 2), 3)
    assert sv.key() == "+--" and sv.positives == 1


def test_full_simplex_only_half_pillars():
    # at K = 1/alpha + 1 the base sums to zero, so sum(eps) = 0 for any vector
    alpha = Fraction(1, 5)
    k = 6
    g = base_gram(k, alpha)
    # sum of rows of G is (1 + alpha - k*alpha) * ones = 0: the base is dependent
    assert all(sum(g.entry(i, j) for j in range(k)) == 0 for i in range(k))
    for eps in itertools.product((1, -1), repeat=k):
        if sum(eps) == 0:
            # balanced sign vectors are realizable: c = eps/k solves G c = alpha*eps
            c = [Fraction(e, k) for e in eps]
            got = [sum(g.entry(i, j) * c[j] for j in range(k)) for i in range(k)]
            assert got == [alpha * e for e in eps]
        else:
            # unbalanced ones are inconsistent: 1 spans the kernel of G, and
            # any solution would force alpha * sum(eps) = 1^T G c = 0
            assert sum(alpha * e for e in eps) != 0


def test_decompose_base_alone_and_partition():
    e = EquiangularSet(Fraction(1, 5), SeidelMatrix(
        ((0, -1, -1), (-1, 0, -1), (-1, -1, 0))))
    dec = decompose(e, (0, 1, 2))
    assert dec.pillars == {}
    rng = random.Random(30)
    checked = 0
    for _ in range(80):
        n = rng.randrange(4, 9)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = rng.choice((1, -1))
        try:
            e = EquiangularSet(Fraction(1, 99), SeidelMatrix(tuple(tuple(r) for r in rows)))
        except ValueError:
            continue
        k, base, op = base_size(e)
        switched = switch(e, op)
        dec = decompose(switched, base)
        seen = []
        from math import comb

        per_level: dict[int, int] = {}
        for key, verts in dec.pillars.items():
            assert len(key) == k
            positives = key.count("+")
            assert positives <= k // 2
            per_level[positives] = per_level.get(positives, 0) + 1
            seen.extend(verts)
        assert sorted(seen) == [v for v in range(n) if v not in base]
        for level, count in per_level.items():
            cap = comb(k, level)
            if 2 * level == k:
                cap //= 2  # the flip rule halves the balanced level
            assert count <= cap
        checked += 1
    assert checked > 30


def test_prop_2_8_same_k1_pillar_is_plus_alpha():
    # in any valid set, two vectors of one (K,1) pillar have inner product +alpha
    rng = random.Random(31)
    found_pairs = 0
    for _ in range(300):
        n = rng.randrange(5, 9)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = rng.choice((1, -1))
        try:
            e = EquiangularSet(Fraction(1, 5), SeidelMatrix(tuple(tuple(r) for r in rows)))
        except ValueError:
            continue
        k, base, op = base_size(e)
        switched = switch(e, op)
        dec = decompose(switched, base)
        for key, verts in dec.pillars.items():
            if key.count("+") != 1:  # (K,1) pillars only
                continue
            for x, y in itertools.combinations(verts, 2):
                sx = -1 if x in dec.applied_flips else 1
                sy = -1 if y in dec.applied_flips else 1
                assert sx * sy * switched.seidel.rows[x][y] == 1
                found_pairs += 1
    assert found_pairs > 5


def test_k1_geometry_table():
    geo = k1_geometry(2)
    assert geo.k == 4 and geo.alpha == Fraction(1, 5)
    assert geo.cross_pillar_c_inners == (Fraction(1, 6), Fraction(-1, 3))
    assert geo.cross_pillar_h_inner == Fraction(1, 15)
    geo3 = k1_geometry(3)
    assert geo3.k == 5 and geo3.cross_pillar_c_inners == (Fraction(1, 12), Fraction(-1, 4))
    with pytest.raises(ValueError):
        k1_geometry(1)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_k1_geometry_against_gram_solver(n):
    """Re-derive every entry of the closed-form table from the base Gram."""
    geo = k1_geometry(n)
    k, alpha = geo.k, geo.alpha
    # h coefficients solve G c = alpha(2 e_{k0} - 1) with k0 = 0
    eps0 = [1] + [-1] * (k - 1)
    c = h_coefficients(k, alpha, eps0)
    assert c[0] == geo.h_coeff_at_k0 == 0
    assert all(x == geo.h_coeff_elsewhere for x in c[1:])
    # <h,h> = c^T (alpha*eps) = alpha
    hh = sum(ci * alpha * e for ci, e in zip(c, eps0))
    assert hh == geo.h_norm_sq == alpha
    assert geo.c_norm_sq == 1 - alpha
    # cross-pillar h inner
    eps1 = [-1, 1] + [-1] * (k - 2)
    h12 = pair_h_inner(k, alpha, eps0, eps1)
    assert h12 == geo.cross_pillar_h_inner
    # c-hat inner products from <x,y> = <h1,h2> + |c|^2 <c1hat, c2hat>
    plus = (alpha - h12) / geo.c_norm_sq
    minus = (-alpha - h12) / geo.c_norm_sq
    assert (plus, minus) == geo.cross_pillar_c_inners
    # same pillar: <x,y> = +alpha forces orthogonal c-hats exactly when K = n+2
    same = (alpha - geo.h_norm_sq) / geo.c_norm_sq
    assert same == geo.same_pillar_c_inner == 0


def test_k3_geometry_constants_and_derivation():
    geo = k3_geometry()
    assert geo.h_norm_sq == Fraction(1, 9)
    assert geo.c_norm_sq == Fraction(8, 9)
    assert geo.same_pillar_c_inner == Fraction(1, 10)
    assert geo.cross_pillar_c_inners == (Fraction(1, 4), Fraction(-1, 5))
    assert geo.cross_pillar_h_inner == Fraction(-1, 45)
    # independent re-derivation through the Gram solver at K = 3, alpha = 1/5
    alpha = Fraction(1, 5)
    eps0 = [1, -1, -1]
    c = h_coefficients(3, alpha, eps0)
    assert tuple(c) == geo.h_coeffs  # h = (1/9)(p1 - 2p2 - 2p3)
    hh = sum(ci * alpha * e for ci, e in zip(c, eps0))
    assert hh == geo.h_norm_sq
    h12 = pair_h_inner(3, alpha, eps0, [-1, 1, -1])
    assert h12 == geo.cross_pillar_h_inner
    assert (alpha - hh) / geo.c_norm_sq == geo.same_pillar_c_inner
    assert (alpha - h12) / geo.c_norm_sq == Fraction(1, 4)
    assert (-alpha - h12) / geo.c_norm_sq == Fraction(-1, 5)


def test_sign_reconstruction_identity():
    """Every admissible (h, c-hat) combination lands back on +-alpha."""
    for n in (2, 3, 4):
        geo = k1_geometry(n)
        for c_inner in geo.cross_pillar_c_inners:
            val = geo.cross_pillar_h_inner + geo.c_norm_sq * c_inner
            assert val in (geo.alpha, -geo.alpha)
        same = geo.h_norm_sq + geo.c_norm_sq * geo.same_pillar_c_inner
        assert same == geo.alpha


def test_pillar_json():
    rows = (
        (0, -1, -1, 1),
        (-1, 0, -1, -1),
        (-1, -1, 0, -1),
        (1, -1, -1, 0),
    )
    e = EquiangularSet(Fraction(1, 5), SeidelMatrix(rows))
    dec = decompose(e, (0, 1, 2))
    text = dec.to_json()
    assert '"+--"' in text and '"base": [0, 1, 2]' in text
