"""Explicit equiangular systems: the 276-line Witt-design system and its
pillar structure, Paley conference matrices and their tight frames, simplex
bases, and the block-matrix family of (4,2)-pillar Gram matrices.

The Witt system and the Paley frames are certified by one identity,
A^2 = aA + (n - 1)I, checked once, in ``seidel``: a Paley conference matrix is
a SeidelMatrix with a = 0, and the Witt spectrum reads the certificate (a = 50)
that its line set carries.

The octads come from the extended binary Golay code, regenerated from a pinned
12-row generator matrix.  The generator was produced once by a deterministic
greedy extension starting from the five independent rows among the six base
octads used below (the sixth is their GF(2) sum), scanning 24-bit words in
increasing numeric order and keeping weight-8 words that preserve even
intersections and minimum distance 8.  Re-running golay_octads() re-verifies
the weight distribution, the octad counts, and the Steiner property, so the
construction does not rest on trust in the pinned rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from operator import mul

from equiangular.exactnum import QuadExt, Scalar, inv_sqrt, quad_sign
from equiangular.linalg import SymMatrix, int_gram, rank_of
from equiangular.pillars import PillarDecomposition, decompose
from equiangular.seidel import (
    EquiangularSet,
    Graph,
    SeidelMatrix,
    SwitchingOp,
    square_mismatch,
    switch,
)

# The six octads through point 1 whose hatted vectors (last three negated)
# form the 6-base of the 276-line system.
BASE_OCTADS = (
    frozenset({1, 2, 5, 8, 13, 15, 18, 20}),
    frozenset({1, 2, 3, 4, 9, 10, 11, 12}),
    frozenset({1, 3, 5, 7, 17, 19, 22, 24}),
    frozenset({1, 2, 5, 8, 9, 11, 22, 24}),
    frozenset({1, 2, 3, 4, 17, 18, 19, 20}),
    frozenset({1, 3, 5, 7, 10, 12, 13, 15}),
)

# Pinned generator of the extended binary Golay code (bit i = point i+1).
GOLAY_GENERATOR = (
    675987,
    3855,
    10813525,
    10487187,
    983055,
    255,
    13107,
    38502,
    197477,
    1118510,
    2167416,
    4265037,
)


def _mask(points: frozenset[int]) -> int:
    m = 0
    for p in points:
        m |= 1 << (p - 1)
    return m


def _points(mask: int) -> tuple[int, ...]:
    return tuple(p + 1 for p in range(24) if mask >> p & 1)


@dataclass(frozen=True)
class WittOctads:
    octads: tuple[tuple[int, ...], ...]          # all 759, sorted
    octads_through_1: tuple[tuple[int, ...], ...]  # the 253 containing point 1


@lru_cache(maxsize=1)
def golay_octads() -> WittOctads:
    """The 759 octads of S(5,8,24), regenerated from the pinned generator and
    fully re-verified: weight distribution (0,759,2576,759,1), 253 octads
    through point 1, and the Steiner property via the exact counting identity
    759*C(8,5) = C(24,5) together with pairwise intersections <= 4."""
    code = {0}
    for row in GOLAY_GENERATOR:
        code |= {w ^ row for w in code}
    if len(code) != 4096:
        raise AssertionError("generator rows are not independent")
    by_weight: dict[int, list[int]] = {}
    for w in code:
        by_weight.setdefault(w.bit_count(), []).append(w)
    counts = {k: len(v) for k, v in sorted(by_weight.items())}
    if counts != {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1}:
        raise AssertionError(f"not the Golay weight distribution: {counts}")
    octads = sorted(by_weight[8])
    through1 = [w for w in octads if w & 1]
    if len(through1) != 253:
        raise AssertionError("octads through point 1 must number 253")
    for i, a in enumerate(octads):
        for b in octads[i + 1 :]:
            if (a & b).bit_count() > 4:
                raise AssertionError("two octads share a 5-subset")
    # 759 * C(8,5) == C(24,5): with no 5-subset repeated, all are covered
    if len(octads) * comb(8, 5) != comb(24, 5):
        raise AssertionError("octads do not cover every 5-subset")
    for sigma in BASE_OCTADS:
        if _mask(sigma) not in code:
            raise AssertionError("pinned generator lost a base octad")
    return WittOctads(
        tuple(_points(w) for w in octads),
        tuple(_points(w) for w in through1),
    )


@dataclass(frozen=True)
class WittSystem:
    octads: WittOctads
    vectors: tuple[tuple[int, ...], ...]  # 276 integer vectors, squared norm 80
    lines: EquiangularSet                 # alpha = 1/5
    base_indices: tuple[int, ...]         # positions of the six base octads
    base_signs: tuple[int, ...]           # +1/-1 applied to get the 6-base


def _w_vector(points: tuple[int, ...]) -> tuple[int, ...]:
    v = [-1] * 24
    for p in points:
        v[p - 1] += 4
    v[0] -= 4
    return tuple(v)


def _v_vector(k: int) -> tuple[int, ...]:
    v = [-1] * 24
    v[0] += 4
    v[k - 1] += 8
    return tuple(v)


@lru_cache(maxsize=1)
def witt276() -> WittSystem:
    """The 276 equiangular lines at angle 1/5: one vector per octad through
    point 1 plus one per remaining coordinate, all of squared norm 80, with
    raw inner products +-16, hence normalized products +-1/5."""
    oct_data = golay_octads()
    vectors = [_w_vector(o) for o in oct_data.octads_through_1]
    vectors += [_v_vector(k) for k in range(2, 25)]
    unit = {80: 0, 16: 1, -16: -1}.__getitem__
    rows = []
    for i, dots in enumerate(int_gram(vectors)):
        if dots[i] != 80:
            raise AssertionError("all squared norms must equal 80")
        if dots.count(16) + dots.count(-16) != len(dots) - 1:
            # a pair (j, i) with j < i was tested at row j, so j > i here
            j = next(j for j, dot in enumerate(dots) if j != i and dot not in (16, -16))
            raise AssertionError(f"inner product {dots[j]} at pair ({i},{j})")
        rows.append(tuple(map(unit, dots)))
    if any(5 * v[0] + sum(v[1:]) for v in vectors):
        raise AssertionError("vectors must lie in the hyperplane 5x1 + sum = 0")
    seidel = SeidelMatrix(tuple(rows))
    lines = EquiangularSet(Fraction(1, 5), seidel)
    base_idx = tuple(
        oct_data.octads_through_1.index(tuple(sorted(s))) for s in BASE_OCTADS
    )
    return WittSystem(
        octads=oct_data,
        vectors=tuple(vectors),
        lines=lines,
        base_indices=base_idx,
        base_signs=(1, 1, 1, -1, -1, -1),
    )


def witt276_base_and_pillars() -> tuple[EquiangularSet, PillarDecomposition]:
    """Switch the system so the six base octad vectors (last three negated)
    form a -1/5 clique and every non-base vector has +1/5 with the sixth;
    the 270 remaining vectors then split into ten 27-vector pillars."""
    ws = witt276()
    e, base = ws.lines, ws.base_indices
    rows = e.seidel.rows
    sign = dict(zip(base, ws.base_signs))
    for i, u in enumerate(base):
        for v in base[i + 1 :]:
            if sign[u] * sign[v] * rows[u][v] != -1:
                raise AssertionError("base vectors must have mutual products -1/5")
    p6 = base[5]
    # non-base vectors keep their sign in the base switch
    direction_flips = {v for v in range(e.n) if v not in sign and sign[p6] * rows[p6][v] == -1}
    flips = {v for v, s in sign.items() if s == -1} | direction_flips
    oriented = switch(e, SwitchingOp.flips_only(flips, e.n))
    return oriented, decompose(oriented, base)


def witt_spectrum_certificate() -> dict:
    """Exact spectral data of the 276-line Seidel matrix A: eigenvalues -5 and
    55 with multiplicities 253 and 23, certified by A^2 = 50A + 275I, i.e.
    (A + 5I)(A - 55I) = 0, together with tr A = 0.  The identity is the one
    ``seidel.two_eigenvalue_certificate`` checked when the line set was built:
    its certificate carries square_coefficient 50 and rank m_55 = rank(A + 5I),
    so m_-5 = n - m_55 = rank(A - 55I).  rank(A + 5I) is cross-checked against
    the exact rank of sum v v^T over the 276 integer vectors (their Gram is
    16(A + 5I)), and the second moment 25 m_-5 + 3025 m_55 against
    sum A_ij^2 = n(n - 1).  Raises AssertionError when a check fails."""
    ws = witt276()
    rows = ws.lines.seidel.rows
    n = len(rows)
    psd = ws.lines.psd_certificate
    if psd.square_coefficient != 50:
        raise AssertionError(f"A^2 = 50A + 275I is not certified (square coefficient "
                             f"{psd.square_coefficient})")
    m_hi, m_lo = psd.rank, n - psd.rank
    span = rank_of(SymMatrix(list(int_gram(list(zip(*ws.vectors))))))
    if m_hi != span:
        raise AssertionError(f"rank(A + 5I) = {m_hi} but the vectors span {span} dimensions")
    trace_sq = sum(sum(map(mul, row, row)) for row in rows)
    cert = {
        "order": n,
        "rank_A_plus_5I": m_hi,
        "rank_A_minus_55I": m_lo,
        "product_zero": True,
        "spectrum": {"-5": m_lo, "55": m_hi},
        "trace_check": -5 * m_lo + 55 * m_hi == sum(rows[i][i] for i in range(n)),
        "trace_sq_check": 25 * m_lo + 55 * 55 * m_hi == trace_sq == n * (n - 1),
    }
    if not (cert["trace_check"] and cert["trace_sq_check"]):
        raise AssertionError(f"moment checks failed: {cert}")
    return cert


# ---------------------------------------------------------------------------
# Conference matrices and tight frames
# ---------------------------------------------------------------------------


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    k = 2
    while k * k <= q:
        if q % k == 0:
            return False
        k += 1
    return True


def paley_conference(q: int) -> SeidelMatrix:
    """Symmetric conference matrix B of order q+1 from quadratic residues mod a
    prime q = 1 (mod 4): a Seidel matrix with B^2 = qI, the a = 0 case of
    ``seidel.square_mismatch``."""
    if not _is_prime(q) or q % 4 != 1:
        raise ValueError("q must be a prime congruent to 1 mod 4")
    residues = {(x * x) % q for x in range(1, q)}
    chi = [0] * q
    for x in range(1, q):
        chi[x] = 1 if x in residues else -1
    n = q + 1
    rows = [[0] * n for _ in range(n)]
    for j in range(1, n):
        rows[0][j] = rows[j][0] = 1
    for i in range(1, n):
        for j in range(1, n):
            if i != j:
                rows[i][j] = chi[(j - i) % q]
    c = SeidelMatrix(tuple(tuple(r) for r in rows))
    bad = square_mismatch(c, 0)
    if bad is not None:
        raise AssertionError(f"B^2 = {q}I fails at {bad}")
    return c


def conference_etf(c: SeidelMatrix) -> EquiangularSet:
    """The 2r lines of rank r with angle 1/sqrt(2r-1) whose Gram matrix is
    I - (1/sqrt(2r-1)) B; meets the Welch bound with equality."""
    n = c.n
    alpha = inv_sqrt(n - 1)  # 1/sqrt(2r - 1)
    seidel = SeidelMatrix(
        tuple(tuple(-x for x in row) for row in c.rows)
    )  # G = I - alpha*B = I + alpha*(-B)
    lines = EquiangularSet(alpha, seidel)
    if lines.rank != n // 2:
        raise AssertionError("conference frame must have rank order/2")
    return lines


# ---------------------------------------------------------------------------
# Simplex bases and the (4,2)-pillar block family
# ---------------------------------------------------------------------------


def simplex_base(k: int, alpha: Scalar) -> EquiangularSet:
    """K unit vectors with Gram (1+alpha)I - alphaJ; independent when
    K < 1/alpha + 1, a dependent K-simplex at K = 1/alpha + 1."""
    if not isinstance(alpha, QuadExt):
        alpha = Fraction(alpha)
    if k < 2:
        raise ValueError("K >= 2 required")
    if quad_sign(1 + alpha - k * alpha) < 0:
        raise ValueError("K exceeds 1/alpha + 1")
    rows = tuple(
        tuple(0 if i == j else -1 for j in range(k)) for i in range(k)
    )
    return EquiangularSet(alpha, SeidelMatrix(rows))


def block_52_family(ell: int) -> SymMatrix:
    """The 3l x 3l two-distance Gram with diagonal blocks of -5/13 and
    off-diagonal blocks (1/13)J_3; positive semidefinite of rank 2l+1."""
    if ell < 1:
        raise ValueError("l >= 1 required")
    n = 3 * ell
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append(Fraction(1))
            elif i // 3 == j // 3:
                row.append(Fraction(-5, 13))
            else:
                row.append(Fraction(1, 13))
        rows.append(row)
    return SymMatrix(rows)


def block_52_equiangular(ell: int) -> EquiangularSet:
    """The angle-1/5 set whose c-hat Gram is block_52_family(ell): Gram
    = (2/15)J + (13/15)*block matrix, i.e. l disjoint Seidel triangles."""
    if ell < 1:
        raise ValueError("l >= 1 required")
    triangles = Graph.from_edges(3 * ell, [(3 * b + i, 3 * b + j) for b in range(ell)
                                           for i, j in ((0, 1), (0, 2), (1, 2))])
    return EquiangularSet(Fraction(1, 5), SeidelMatrix.from_graph(triangles))
