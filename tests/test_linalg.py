import random
from fractions import Fraction
from math import lcm

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from equiangular.exactnum import QuadExt, quad_sign
from equiangular.linalg import (
    INDEFINITE,
    POSITIVE_DEFINITE,
    POSITIVE_SEMIDEFINITE_SINGULAR,
    PsdCertificate,
    SymMatrix,
    int_gram,
    psd_check,
    rank_of,
    unpack_fields,
)


def frac(a, b=1):
    return Fraction(a, b)


def random_sym(rng, n, values):
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = rng.choice(values)
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = rng.choice(values)
    return SymMatrix(rows)


# -- principal minor oracle ----------------------------------------------------


def _int_det(rows):
    n = len(rows)
    a = [r[:] for r in rows]
    prev = 1
    sign = 1
    for k in range(n):
        if a[k][k] == 0:
            p = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if p is None:
                if any(a[i][j] for i in range(k, n) for j in range(k, n) if j > k):
                    # column exchange needed; fall back to expansion on zeros
                    pass
                # entire column zero below: determinant 0
                col_zero = all(a[i][k] == 0 for i in range(k, n))
                if col_zero:
                    return 0
            if p is None:
                return 0
            a[k], a[p] = a[p], a[k]
            sign = -sign
        piv = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (piv * a[i][j] - a[i][k] * a[k][j]) // prev
        prev = piv
    return sign * a[n - 1][n - 1]


def _psd_by_principal_minors(int_rows):
    """Brute-force oracle: PSD iff every principal minor is nonnegative."""
    n = len(int_rows)
    from itertools import combinations

    full = None
    for k in range(1, n + 1):
        for sub in combinations(range(n), k):
            d = _int_det([[int_rows[i][j] for j in sub] for i in sub])
            if d < 0:
                return INDEFINITE
            if k == n:
                full = d
    return POSITIVE_DEFINITE if full > 0 else POSITIVE_SEMIDEFINITE_SINGULAR


def test_psd_examples():
    assert psd_check(SymMatrix.identity(4)).verdict == POSITIVE_DEFINITE
    m = SymMatrix.aI_bJ(frac(6, 5), frac(-1, 5), 4)  # (1+a)I - aJ at a=1/5
    assert psd_check(m).verdict == POSITIVE_DEFINITE
    # boundary simplex K = 1/alpha + 1 = 6 is PSD singular of rank 5
    m6 = SymMatrix.aI_bJ(frac(6, 5), frac(-1, 5), 6)
    cert = psd_check(m6)
    assert cert.verdict == POSITIVE_SEMIDEFINITE_SINGULAR and cert.rank == 5


def test_psd_verdict_matches_principal_minor_oracle():
    # entries 1 and +-1/5 scaled to integers {5, +-1}; scaling preserves verdicts
    rng = random.Random(10)
    counts = {INDEFINITE: 0, POSITIVE_DEFINITE: 0, POSITIVE_SEMIDEFINITE_SINGULAR: 0}
    for trial in range(10_000):
        n = rng.randrange(1, 8)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = 5
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = rng.choice((1, -1))
        frac_rows = [[Fraction(x, 5) for x in r] for r in rows]
        cert = psd_check(SymMatrix(frac_rows))
        want = _psd_by_principal_minors(rows)
        assert cert.verdict == want, (rows, cert.verdict, want)
        counts[cert.verdict] += 1
        if cert.verdict == INDEFINITE:
            v = cert.witness
            val = sum(
                v[i] * frac_rows[i][j] * v[j] for i in range(n) for j in range(n)
            )
            assert val < 0
    assert all(counts.values()), counts  # every verdict exercised


def _quad_det(rows):
    """Laplace expansion along the first row; fine for the small orders here."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = Fraction(0)
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * _quad_det(minor)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def _quad_psd_by_principal_minors(rows):
    from itertools import combinations

    n = len(rows)
    full = None
    for k in range(1, n + 1):
        for sub in combinations(range(n), k):
            d = quad_sign(_quad_det([[rows[i][j] for j in sub] for i in sub]))
            if d < 0:
                return INDEFINITE
            if k == n:
                full = d
    return POSITIVE_DEFINITE if full > 0 else POSITIVE_SEMIDEFINITE_SINGULAR


def _sympy_rank(rows, d):
    """Rank over Q(sqrt d) from sympy's DomainMatrix, an independent oracle."""
    from sympy import QQ, sqrt
    from sympy.polys.matrices import DomainMatrix

    field = QQ.algebraic_field(sqrt(d))

    def conv(x):
        x = x if isinstance(x, QuadExt) else QuadExt(x, 0, d)
        return field([QQ(x.b.numerator, x.b.denominator), QQ(x.a.numerator, x.a.denominator)])

    n = len(rows)
    return DomainMatrix([[conv(x) for x in r] for r in rows], (n, n), field).rank()


@pytest.mark.parametrize("d", [5, 17])
def test_quadratic_psd_verdict_matches_principal_minor_oracle(d):
    # Gram matrices I + alpha*S of random sign patterns at alpha = 1/sqrt(d)
    # and Grams of fewer random vectors than rows (always PSD singular)
    rng = random.Random(d)
    alpha = QuadExt(0, Fraction(1, d), d)
    counts = {INDEFINITE: 0, POSITIVE_DEFINITE: 0, POSITIVE_SEMIDEFINITE_SINGULAR: 0}
    for trial in range(300):
        n = rng.randrange(1, 6)
        if trial % 3:
            rows = [[None] * n for _ in range(n)]
            for i in range(n):
                rows[i][i] = QuadExt(rng.choice((1, 1, 1, -1)), 0, d)
                for j in range(i + 1, n):
                    rows[i][j] = rows[j][i] = alpha * rng.choice((1, -1, 3))
        else:
            k = rng.randrange(1, n + 1)
            vecs = [
                [QuadExt(rng.randrange(-2, 3), Fraction(rng.randrange(-2, 3), 2), d) for _ in range(k)]
                for _ in range(n)
            ]
            rows = [[sum((a * b for a, b in zip(u, v)), Fraction(0)) for v in vecs] for u in vecs]
        m = SymMatrix(rows)
        cert = psd_check(m)
        want = _quad_psd_by_principal_minors(m.rows)
        assert cert.verdict == want, (rows, cert.verdict, want)
        assert cert.rank == rank_of(m) == _sympy_rank(m.rows, d)
        counts[cert.verdict] += 1
        if cert.verdict == INDEFINITE:
            v = cert.witness
            val = sum(
                (v[i] * m.rows[i][j] * v[j] for i in range(n) for j in range(n)), Fraction(0)
            )
            assert quad_sign(val) < 0
    assert all(counts.values()), counts  # every verdict exercised


def _ring_quotient(x, y):
    """x / y over Q or Q(sqrt d), checked to lie in Z or Z[sqrt d]."""
    q = x / y
    assert all(v.denominator == 1 for v in ((q.a, q.b) if isinstance(q, QuadExt) else (q,))), q
    return q


def _zsqrt_psd_reference(m):
    """The Bareiss elimination in place on the full scaled matrix, on exact
    scalars with integer coordinates, each quotient checked to lie in Z or
    Z[sqrt d]: the oracle of the coordinate elimination.  Same pivot rule,
    same witness construction; the indefinite rank comes from rank_of."""
    ms, _, d = _integral_scaled_by_multiplying(m)
    if d:
        rows = [[QuadExt(a, b, d) for a, b in zip(*r)] for r in zip(*ms)]
    else:
        rows = [[Fraction(x) for x in r] for r in ms[0]]
    n = m.n
    active, steps, prev = list(range(n)), [], 1

    def back(witness):
        for pivot, val, column in reversed(steps):
            acc = sum(
                (b * witness[j] for j, b in column.items() if witness.get(j)), Fraction(0)
            )
            witness[pivot] = -acc / val
        return tuple(witness.get(k, Fraction(0)) for k in range(n))

    while active:
        pivot = next((p for p in active if quad_sign(rows[p][p]) > 0), None)
        if pivot is None:
            neg = next((p for p in active if quad_sign(rows[p][p]) < 0), None)
            if neg is not None:
                return PsdCertificate(INDEFINITE, rank_of(m), witness=back({neg: Fraction(1)}))
            pairs = [
                (i, j) for x, i in enumerate(active) for j in active[x + 1 :]
                if quad_sign(rows[i][j])
            ]
            if not pairs:
                order = tuple(s[0] for s in steps)
                return PsdCertificate(POSITIVE_SEMIDEFINITE_SINGULAR, len(steps), pivot_order=order)
            i, j = pairs[0]
            witness = back({i: Fraction(1), j: Fraction(-quad_sign(rows[i][j]))})
            return PsdCertificate(INDEFINITE, rank_of(m), witness=witness)
        a = rows[pivot][pivot]
        rest = [j for j in active if j != pivot]
        steps.append((pivot, a, {j: rows[pivot][j] for j in rest}))
        for x, i in enumerate(rest):
            rpi = rows[i][pivot]
            for j in rest[x:]:
                value = a * rows[i][j] - rpi * rows[pivot][j]
                rows[i][j] = rows[j][i] = _ring_quotient(value, prev)
        prev = a
        active = rest
    return PsdCertificate(POSITIVE_DEFINITE, n, pivot_order=tuple(s[0] for s in steps))


@st.composite
def _quadratic_matrices(draw):
    """Symmetric matrices over Q(sqrt d) of order up to 18: Grams B^T B of
    n + 1 (PD) or fewer than n (singular) random vectors, such a Gram minus
    a rank-one term (indefinite), or I + S/sqrt(d) for a random sign
    pattern S.  Coordinates are small ints over a common denominator."""
    d = draw(st.sampled_from([2, 5, 13, 17]))
    n = draw(st.integers(1, 18))
    kind = draw(st.sampled_from(["pd", "singular", "indefinite", "seidel"]))
    if kind == "seidel":
        alpha = QuadExt(0, Fraction(1, d), d)
        rows = [[QuadExt(1, 0, d)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = alpha * draw(st.sampled_from([1, -1]))
        return SymMatrix(rows)
    k = n + 1 if kind == "pd" else draw(st.integers(1, max(1, n - 1)))
    coord = st.integers(-3, 3)
    vecs = [[(draw(coord), draw(coord)) for _ in range(k)] for _ in range(n)]

    def dot(u, v):
        return (sum(a * c + d * b * e for (a, b), (c, e) in zip(u, v)),
                sum(a * e + b * c for (a, b), (c, e) in zip(u, v)))

    gram = [[dot(u, v) for v in vecs] for u in vecs]
    if kind == "indefinite":
        w = [(draw(coord), draw(coord)) for _ in range(n)]
        for i in range(n):
            for j in range(n):
                wij = dot([w[i]], [w[j]])
                gram[i][j] = (gram[i][j][0] - 3 * wij[0], gram[i][j][1] - 3 * wij[1])
    den = draw(st.sampled_from([1, 2, 6]))
    return SymMatrix([[QuadExt(Fraction(a, den), Fraction(b, den), d) for a, b in r] for r in gram])


@settings(max_examples=150, deadline=None)
@given(m=_quadratic_matrices())
def test_quadratic_psd_certificate_matches_a_zsqrt_reference(m):
    """Over Q(sqrt d) psd_check eliminates on integer coordinate pairs; its
    certificate (verdict, rank, pivot order, witness) equals that of the
    in-place elimination on exact scalars, for orders up to 18."""
    assert psd_check(m) == _zsqrt_psd_reference(m)


def test_paley17_gram_certificate_pinned():
    from equiangular.constructions import conference_etf, paley_conference

    gram = conference_etf(paley_conference(17)).gram()
    assert gram.n == 18 and gram.radicand() == 17
    cert = psd_check(gram)
    assert cert.verdict == POSITIVE_SEMIDEFINITE_SINGULAR
    assert cert.rank == 9 == rank_of(gram)
    assert cert.pivot_order == tuple(range(9))


def test_rank_when_a_pivot_column_has_zeros():
    # rows with a zero in the pivot column are still rescaled by the pivot;
    # skipping them broke the next exact division and dropped the rank to 2
    assert rank_of(SymMatrix([[2, 0, 0], [0, 1, 1], [0, 1, 2]])) == 3
    # over Q(sqrt 17): the first step skips the rows with a zero pivot column
    # (pivot = previous pivot = 1), the second must rescale them by sqrt(17)
    s = QuadExt(0, 1, 17)
    assert rank_of(SymMatrix([[1, 0, 0, 0], [0, s, 0, 0], [0, 0, 1, 1], [0, 0, 1, 2]])) == 4


def test_rank_matches_sympy_on_sparse_rational_matrices():
    from sympy import Matrix, Rational

    rng = random.Random(14)
    for _ in range(300):
        n = rng.randrange(1, 7)
        m = random_sym(rng, n, [frac(0), frac(0), frac(2), frac(-3), frac(1, 2)])
        want = Matrix([[Rational(x.numerator, x.denominator) for x in r] for r in m.rows]).rank()
        assert rank_of(m) == want
        assert psd_check(m).rank == want


def test_indefinite_witness_and_rank():
    m = SymMatrix([[frac(1), frac(2)], [frac(2), frac(1)]])
    cert = psd_check(m)
    assert cert.verdict == INDEFINITE and cert.rank == 2
    v = cert.witness
    assert sum(v[i] * m.entry(i, j) * v[j] for i in range(2) for j in range(2)) < 0


def test_schur_remark_matrix():
    # all-(-1/5) cross block against a (9/10)I + (1/10)J block: the complement
    # is (9/10)I_3 + (1/10 - 2n/(5(9+n)))J_3, positive definite for every n
    for n in (1, 2, 3, 5, 8):
        rows = []
        for i in range(n + 3):
            row = []
            for j in range(n + 3):
                if i == j:
                    row.append(frac(1))
                elif i < n and j < n:
                    row.append(frac(1, 10))
                elif i >= n and j >= n:
                    row.append(frac(1, 10))
                else:
                    row.append(frac(-1, 5))
            rows.append(row)
        assert psd_check(SymMatrix(rows)).verdict == POSITIVE_DEFINITE
        m = sympy.Matrix(rows)
        a, b, c = m[:n, :n], m[:n, n:], m[n:, n:]
        s = c - b.T * a.inv() * b
        coeff = frac(1, 10) - Fraction(2 * n, 5 * (9 + n))
        want = SymMatrix.aI_bJ(frac(9, 10), coeff, 3)
        assert s == sympy.Matrix(want.rows)


def test_char_poly_eval_at_eigenvalue():
    from equiangular.constructions import paley_conference

    # the Paley conference matrix of order 18 has eigenvalues +-sqrt(17), nine each
    x = sympy.Symbol("x")
    b = paley_conference(17)
    p = sympy.Matrix(b.rows).charpoly(x)
    assert p == sympy.Poly((x**2 - 17) ** 9, x)


def test_rank_examples():
    assert rank_of(SymMatrix.aI_bJ(0, 1, 5)) == 1
    # icosahedral diagonals: 6 lines spanning R^3; exact golden-ratio coordinates
    phi = QuadExt(Fraction(1, 2), Fraction(1, 2), 5)
    vecs = [
        (0, 1, phi), (0, 1, -phi), (1, phi, 0),
        (1, -phi, 0), (phi, 0, 1), (-phi, 0, 1),
    ]
    norm = 2 + phi

    def dot(u, v):
        return sum((QuadExt(Fraction(a), 0, 5) if not isinstance(a, QuadExt) else a)
                   * (QuadExt(Fraction(b), 0, 5) if not isinstance(b, QuadExt) else b)
                   for a, b in zip(u, v))

    g = SymMatrix([[dot(u, v) / norm for v in vecs] for u in vecs])
    root5 = QuadExt(0, Fraction(1, 5), 5)  # 1/sqrt 5
    for i in range(6):
        for j in range(6):
            if i != j:
                assert g.entry(i, j) in (root5, -root5)
    assert rank_of(g) == 3  # they span R^3, not R^6
    cert = psd_check(g)
    assert cert.verdict == POSITIVE_SEMIDEFINITE_SINGULAR and cert.rank == 3


def test_rank_block_family():
    from equiangular.constructions import block_52_family

    m = block_52_family(3)
    assert m.n == 9 and rank_of(m) == 7


def test_matrix_json_round_trip():
    m = SymMatrix.aI_bJ(frac(6, 5), frac(-1, 5), 3)
    m2 = SymMatrix.from_json(m.to_json())
    assert m2 == m
    q = SymMatrix([[QuadExt(1, 0, 17), QuadExt(0, Fraction(1, 17), 17)],
                   [QuadExt(0, Fraction(1, 17), 17), QuadExt(1, 0, 17)]])
    assert SymMatrix.from_json(q.to_json()) == q
    assert '"field": "Q(sqrt 17)"' in q.to_json()


def _integral_scaled_by_multiplying(m):
    """Reference for SymMatrix.integral_scaled: int(y * c) per coordinate."""
    d = m.radicand() or 0
    coords = [
        [(x.a, x.b) if isinstance(x, QuadExt) else (x, Fraction(0)) for x in r] for r in m.rows
    ]
    c = lcm(*{y.denominator for r in coords for ab in r for y in ab})
    return [[[int(ab[p] * c) for ab in r] for r in coords] for p in range(2 if d else 1)], c, d


def _assert_same_integral_scaling(m):
    got, want = m.integral_scaled(), _integral_scaled_by_multiplying(m)
    assert got == want
    assert all(type(x) is int for g in got[0] for r in g for x in r)
    return got[0]


_fractions = st.builds(
    Fraction, st.integers(-60, 60), st.sampled_from([1, 2, 3, 4, 6, 7, 9, 12, 35, 10**12])
)


@st.composite
def _scalar_matrices(draw):
    """Symmetric matrices over Q, Q(sqrt 5) or Q(sqrt 17) with mixed
    denominators; the quadratic kinds may have b = 0 everywhere."""
    n = draw(st.integers(1, 7))
    kind = draw(st.sampled_from(["Q", "Q(sqrt 5)", "Q(sqrt 17)", "b=0 over sqrt 17"]))
    if kind == "Q":
        entry = _fractions
    elif kind == "b=0 over sqrt 17":
        entry = st.builds(QuadExt, _fractions, st.just(0), st.just(17))
    else:
        d = int(kind[7:-1])
        entry = st.builds(QuadExt, _fractions, _fractions, st.just(d))
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = draw(entry)
    return SymMatrix(rows)


@settings(max_examples=200, deadline=None)
@given(m=_scalar_matrices())
def test_integral_scaled_equals_multiplying_each_coordinate(m):
    _assert_same_integral_scaling(m)


@pytest.mark.parametrize("alpha", [frac(1, 5), QuadExt(0, frac(1, 17), 17)])
def test_integral_scaled_converts_each_distinct_entry_once(alpha):
    """A matrix I + beta*A with beta = (10^12 + 1)*alpha has three distinct
    entries; each of its scaled coordinate matrices holds at most three int
    objects, each shared by every position of its entry (the factor makes
    the coordinates large ints, which Python does not cache)."""
    rng = random.Random(3)
    n = 9
    beta = (10**12 + 1) * alpha
    entries = (frac(1) + 0 * beta, beta, -beta)
    rows = [[entries[0]] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = rng.choice(entries[1:])
    ms = _assert_same_integral_scaling(SymMatrix(rows))
    assert len(ms) == (2 if isinstance(alpha, QuadExt) else 1)
    assert all(len({id(x) for r in m_ for x in r}) <= 3 for m_ in ms)


def test_entries_over_two_radicands_are_refused():
    """[[1, sqrt5/3], [sqrt5/3, 1]] + [[1, sqrt17/4], [sqrt17/4, 1]] as a block
    sum is indefinite (1 - 17/16 < 0), but no ring Z[sqrt d] holds both
    blocks: radicand, to_json, psd_check and rank_of refuse the matrix rather
    than read sqrt 17 as sqrt 5."""
    a, b, z = QuadExt(0, frac(1, 3), 5), QuadExt(0, frac(1, 4), 17), frac(0)
    m = SymMatrix([[1, a, z, z], [a, 1, z, z], [z, z, 1, b], [z, z, b, 1]])
    assert psd_check(m.submatrix([0, 1])).verdict == POSITIVE_DEFINITE
    assert psd_check(m.submatrix([2, 3])).verdict == INDEFINITE
    for call in (m.radicand, m.to_json, lambda: psd_check(m), lambda: rank_of(m)):
        with pytest.raises(ValueError, match="mix the radicands"):
            call()


# -- packed integer rows -------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 40).flatmap(lambda dim: st.lists(
    st.lists(st.integers(-2**40, 2**40), min_size=dim, max_size=dim), min_size=1, max_size=60
)))
def test_int_gram_matches_plain_dots(vectors):
    # entries up to 2^40 make fields of about 11 bytes, past the array("Q") path
    rows = list(int_gram(vectors))
    assert rows == [[sum(a * b for a, b in zip(x, y)) for y in vectors] for x in vectors]


@pytest.mark.parametrize("step", [1, 2, 3, 4, 5, 8, 9])
def test_unpack_fields_reads_every_step(step):
    rng = random.Random(step)
    top = (1 << 8 * step) - 1
    for count in (1, 2, 7, 64):
        values = [rng.choice((0, 1, top, rng.randrange(top + 1))) for _ in range(count)]
        packed = sum(v << 8 * step * k for k, v in enumerate(values))
        assert list(unpack_fields(packed, step, count)) == values
