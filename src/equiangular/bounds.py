"""Bound computations for equiangular sets with pillar structure.

Covers: the two-pillar coexistence bound (exact integer scan of the trace /
determinant feasibility region), the angle-1/5 two-(3,1)-pillar enumeration
with its 16 occupation variables and per-stratum caps table, the base-size
3/4/5 aggregate bounds, the rank bound for (5,2) pillars via spectral-radius-2
components, the generalized Neumann angle restriction with its irrational
candidate enumeration, and the classical relative / Gerzon / Welch bounds.

The two-(3,1)-pillar enumeration has one feasibility test: `_m_scaled` builds
the 4x4 Schur matrix in integers from the pattern vectors x_B, and `_is_psd4`
tests it. The per-variable caps raise one variable until the test fails; the
degree-class caps walk a class's values depth first in lexicographic order,
pruned by the best sum so far and by feasibility being downward closed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import isqrt

from equiangular import linalg
from equiangular.exactnum import (
    QuadExt,
    Scalar,
    format_scalar,
    inv_sqrt,
    quad_sign,
    scalar_floor,
    squarefree_decomposition,
)
from equiangular.linalg import SymMatrix
from equiangular.seidel import Graph, SeidelMatrix, gram_matrix


@dataclass
class BoundReport:
    """A named bound with its exact inputs and a re-checkable certificate."""

    name: str
    value: int | str
    inputs: dict
    certificate: dict
    notes: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "value": self.value,
            "inputs": self.inputs,
            "certificate": self.certificate,
            "notes": self.notes,
        }


# ---------------------------------------------------------------------------
# Coexistence of two (K,1) pillars, alpha = 1/(2n+1), K = n+2
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoexistenceInstance:
    """Occupation quadruple (l11, l12, l21, l22) of a (K,1) pillar against two
    vectors of another (K,1) pillar, with the 2x2 Schur block M."""

    n: int
    ell: tuple[int, int, int, int]
    m: SymMatrix
    feasible: bool

    @property
    def size(self) -> int:
        return sum(self.ell)


def coexistence_check(n: int, ell: tuple[int, int, int, int]) -> CoexistenceInstance:
    """Evaluate the 2x2 matrix M = I - V^T V exactly and test tr M >= 0,
    det M >= 0 (equivalent to M being PSD)."""
    if n < 2:
        raise ValueError("n >= 2 required")
    l11, l12, l21, l22 = ell
    if min(ell) < 0:
        raise ValueError("occupation numbers must be nonnegative")
    big = Fraction(1, n * n * (n + 1) * (n + 1))  # (1/(n(n+1)))^2
    small = Fraction(1, (n + 1) * (n + 1))        # (1/(n+1))^2
    cross = Fraction(-1, n * (n + 1) * (n + 1))   # product of the two values
    v11 = (l11 + l12) * big + (l21 + l22) * small
    v22 = (l11 + l21) * big + (l12 + l22) * small
    v12 = l11 * big + (l12 + l21) * cross + l22 * small
    m = SymMatrix([[1 - v11, -v12], [-v12, 1 - v22]])
    tr = m.entry(0, 0) + m.entry(1, 1)
    det = m.entry(0, 0) * m.entry(1, 1) - m.entry(0, 1) * m.entry(1, 0)
    return CoexistenceInstance(n, tuple(ell), m, tr >= 0 and det >= 0)


def _coexistence_feasible_st(n: int, s: int, t: int) -> bool:
    """Reduced-form feasibility for ell = (s, t, t, 0), in pure integers:
    tr: n^2(n+1)^2 - s - (n^2+1)t >= 0
    det: (n^2 - t)(n^2(n+1)^2 - 2s - (n-1)^2 t) >= 0
    """
    big = n * n * (n + 1) * (n + 1)
    if big - s - (n * n + 1) * t < 0:
        return False
    return (n * n - t) * (big - 2 * s - (n - 1) * (n - 1) * t) >= 0


def pillar_coexistence_bound(n: int) -> BoundReport:
    """Largest size of a (K,1) pillar coexisting with a two-vector (K,1)
    pillar: exact integer scan of N = s + 2t over t, taking for each t the
    largest feasible s in closed form."""
    if n < 2:
        raise ValueError("n >= 2 required")
    big = n * n * (n + 1) * (n + 1)
    best = -1
    best_st = None
    optima = []
    t = 0
    while (n * n + 1) * t <= big:
        # the largest s the trace allows; below t = n^2 the det condition caps
        # s further, from t = n^2 on it only bounds s from below
        found = big - (n * n + 1) * t
        if t < n * n:
            found = min(found, (big - (n - 1) * (n - 1) * t) // 2)
        if found >= 0 and _coexistence_feasible_st(n, found, t):
            val = found + 2 * t
            if val > best:
                best = val
                best_st = (found, t)
                optima = [(found, t)]
            elif val == best:
                optima.append((found, t))
                if found > best_st[0]:
                    best_st = (found, t)
        t += 1
    # re-verify the certificate through the full quadruple evaluation
    s, t = best_st
    inst = coexistence_check(n, (s, t, t, 0))
    if not (inst.feasible and inst.size == best):
        raise AssertionError(f"coexistence vertex {(s, t)} fails its re-check")
    return BoundReport(
        name="pillar_coexistence",
        value=best,
        inputs={"n": n, "alpha": format_scalar(Fraction(1, 2 * n + 1)), "K": n + 2},
        certificate={
            "vertex": {"s": s, "t": t},
            "quadruple": [s, t, t, 0],
            "optima": [{"s": a, "t": b} for a, b in sorted(optima, reverse=True)],
            "reverified": True,
        },
    )


# ---------------------------------------------------------------------------
# Two (3,1) pillars at alpha = 1/5: the 16-variable enumeration
# ---------------------------------------------------------------------------

B4_CLASSES = {i: tuple(m for m in range(16) if bin(m).count("1") == i) for i in range(5)}
DEGREE_CLASS_CAPS = {1: 16, 2: 13, 3: 16}  # established by degree_class_cap
T1111_CAP = 39  # single_variable_cap(0b1111)


def mask_label(mask: int) -> str:
    return "".join("1" if mask >> i & 1 else "0" for i in range(3, -1, -1))


# x_B: 20 times what one vector of pattern B adds to w, the vector of inner
# products with the 4 opposite vectors: 5 (1/4) where bit i is 0, -4 (-1/5) where 1
_X = tuple(tuple(-4 if mask >> i & 1 else 5 for i in range(4)) for mask in range(16))


def _m_scaled(t: dict) -> list[list[int]]:
    """360*(9+n) times the 4x4 Schur matrix whose positive semidefiniteness
    constrains t, as exact integers: with K = sum t_B x_B x_B^T,
    a = sum t_B x_B and s = 9 + n, it is s(324 I + 36 J) - s K + a a^T."""
    n = sum(t.values())
    k = [[0] * 4 for _ in range(4)]
    a = [0] * 4
    for mask, cnt in t.items():
        x = _X[mask]
        for i in range(4):
            a[i] += cnt * x[i]
            for j in range(4):
                k[i][j] += cnt * x[i] * x[j]
    s = 9 + n
    return [
        [s * (36 - k[i][j]) + (324 * s if i == j else 0) + a[i] * a[j] for j in range(4)]
        for i in range(4)
    ]


def _is_psd4(m: list[list[int]]) -> bool:
    """PSD test for symmetric integer 4x4 via elementary symmetric functions
    (sums of principal minors of each order must be nonnegative).

    Kept beside linalg.psd_check because it is far faster on these matrices:
    on the 620 that table2() tests it took 3-5 ms against 75-80 ms for
    psd_check (Python 3.11, 2-vCPU x86-64 VM)."""
    e1 = m[0][0] + m[1][1] + m[2][2] + m[3][3]
    if e1 < 0:
        return False
    e2 = 0
    for i, j in combinations(range(4), 2):
        e2 += m[i][i] * m[j][j] - m[i][j] * m[i][j]
    if e2 < 0:
        return False
    e3 = 0
    for i, j, k in combinations(range(4), 3):
        e3 += (
            m[i][i] * (m[j][j] * m[k][k] - m[j][k] * m[j][k])
            - m[i][j] * (m[i][j] * m[k][k] - m[j][k] * m[i][k])
            + m[i][k] * (m[i][j] * m[j][k] - m[j][j] * m[i][k])
        )
    if e3 < 0:
        return False
    # 4x4 determinant by cofactor expansion on the first row
    def det3(a, b, c, d, e, f, g, h, i):
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)

    r0, r1, r2, r3 = m
    det = (
        r0[0] * det3(r1[1], r1[2], r1[3], r2[1], r2[2], r2[3], r3[1], r3[2], r3[3])
        - r0[1] * det3(r1[0], r1[2], r1[3], r2[0], r2[2], r2[3], r3[0], r3[2], r3[3])
        + r0[2] * det3(r1[0], r1[1], r1[3], r2[0], r2[1], r2[3], r3[0], r3[1], r3[3])
        - r0[3] * det3(r1[0], r1[1], r1[2], r2[0], r2[1], r2[2], r3[0], r3[1], r3[2])
    )
    return det >= 0


def instance_feasible(t: dict) -> bool:
    return _is_psd4(_m_scaled(t))


def _m_line(mask: int, t1111: int):
    """v -> M(0) + v*D1, M of t_1111 fixed plus v in t_mask: the v^2 terms of
    -s*K and a*a^T cancel, so raises unless D2 of the samples v = 0, 1, 2 is 0."""
    m0, m1, m2 = (_m_scaled({15: t1111 + v} if mask == 15 else {15: t1111, mask: v}) for v in range(3))
    terms = [(a, b - a, c - 2 * b + a) for r in zip(m0, m1, m2) for a, b, c in zip(*r)]
    if any(d2 for _, _, d2 in terms):
        raise AssertionError(f"the Schur matrix is not affine along mask {mask} at t1111 = {t1111}")

    def at(v: int) -> list[list[int]]:
        flat = [a + v * d1 for a, d1, _ in terms]
        return [flat[0:4], flat[4:8], flat[8:12], flat[12:16]]

    return at


def single_variable_cap(mask: int, t1111: int = 0) -> int:
    """Largest value of t_B (all other variables zero except t_1111 fixed)
    keeping M positive semidefinite.  M from _m_line is affine in v, so the
    feasible v form an interval (the PSD cone is convex): raises unless v = 0
    is feasible, then walks up to the first infeasible v."""
    at = _m_line(mask, t1111)
    if not _is_psd4(at(0)):
        raise AssertionError(f"the line of mask {mask} at t1111 = {t1111} starts infeasible")
    m = 0
    while _is_psd4(at(m + 1)):
        m += 1
    return m


def degree_class_cap(cls: int) -> tuple[int, dict]:
    """Maximum of sum(t_B) over one degree class B_{4,cls} alone, below the
    per-variable caps, with the lexicographically first maximizer.

    A depth-first walk over the values in lexicographic order. Each position
    starts at the least value whose subtree can still beat the best sum, and
    rises while the instance with every later value 0 stays feasible: a
    feasible t stays feasible when any t_B drops, so no completion of an
    infeasible prefix is feasible."""
    masks = B4_CLASSES[cls]
    cap = single_variable_cap(masks[0])
    vals = [0] * len(masks)
    best, arg = 0, dict(zip(masks, vals))

    def walk(pos: int, total: int) -> None:
        nonlocal best, arg
        if pos == len(masks):  # the last value started above best - total
            best, arg = total, dict(zip(masks, vals))
            return
        for v in range(max(0, best + 1 - total - cap * (len(masks) - pos - 1)), cap + 1):
            vals[pos] = v
            if not instance_feasible(dict(zip(masks, vals))):
                break
            walk(pos + 1, total + v)
        vals[pos] = 0

    walk(0, 0)
    return best, arg


@dataclass(frozen=True)
class Table2Row:
    t1111: int
    caps: tuple[int, int, int, int]  # classes B_{4,0} .. B_{4,3}
    m_bar: int


def table2_row(t1111: int) -> Table2Row:
    if not 0 <= t1111 <= T1111_CAP:
        raise ValueError(f"t1111 must lie in 0..{T1111_CAP}, got {t1111}")
    caps = tuple(
        single_variable_cap(rep, t1111)
        for rep in (0b0000, 0b0001, 0b0011, 0b0111)
    )
    m0, m1, m2, m3 = caps
    m_bar = (
        m0
        + min(4 * m1, DEGREE_CLASS_CAPS[1])
        + min(6 * m2, DEGREE_CLASS_CAPS[2])
        + min(4 * m3, DEGREE_CLASS_CAPS[3])
        + t1111
    )
    return Table2Row(t1111, caps, m_bar)


def table2(jobs: int = 1) -> list[Table2Row]:
    strata = range(T1111_CAP + 1)
    if jobs > 1:
        from multiprocessing import Pool

        with Pool(jobs) as pool:
            return pool.map(table2_row, strata)
    return [table2_row(k) for k in strata]


def two_31_pillar_search(t1111: int | None = None, jobs: int = 1) -> BoundReport:
    """The enumeration behind "a (3,1) pillar opposite a 4-vector (3,1) pillar
    has at most 54 vectors": per-variable caps, degree-class caps, and the
    stratified table over t_1111."""
    if t1111 is not None:
        row = table2_row(t1111)
        return BoundReport(
            name="two_31_row",
            value=row.m_bar,
            inputs={"alpha": "1/5", "K": 3, "t1111": t1111},
            certificate={"caps": list(row.caps)},
        )
    rows = table2(jobs=jobs)
    best = max(rows, key=lambda r: r.m_bar)
    return BoundReport(
        name="two_31_pillar",
        value=best.m_bar,
        inputs={"alpha": "1/5", "K": 3, "opposite_pillar_size": 4},
        certificate={
            "per_variable_caps": [single_variable_cap(m) for m in (0, 1, 3, 7, 15)],
            "degree_class_caps": [DEGREE_CLASS_CAPS[i] for i in (1, 2, 3)],
            "rows": [
                {"t1111": r.t1111, "caps": list(r.caps), "M": r.m_bar} for r in rows
            ],
            "argmax_t1111": best.t1111,
        },
    )


# ---------------------------------------------------------------------------
# Aggregate bounds for base sizes 3, 4, 5 at alpha = 1/5
# ---------------------------------------------------------------------------


def k3_bound(r: int) -> BoundReport:
    """|X| <= max(165, r+6) for angle 1/5 and base size 3."""
    if r < 3:
        raise ValueError("rank >= 3 required")
    two_big = 3 + 54 * 3
    one = 3 + (r - 3) + 3 + 3
    value = max(two_big, one)
    branch = "two_big_pillars" if two_big >= one else "one_big_pillar"
    return BoundReport(
        name="k3",
        value=value,
        inputs={"rank": r, "alpha": "1/5", "K": 3},
        certificate={
            "two_big_pillars": {"arithmetic": "3 + 54*3", "value": two_big},
            "one_big_pillar": {"arithmetic": "3 + (r-3) + 3 + 3", "value": one},
            "branch": branch,
        },
    )


K41_SINGLE_PILLAR_CAP = 24  # pillar_coexistence_bound(2)
K41_REMARK_CAP = 25  # stated without computation alongside the coexistence bound
K42_TWO_DISTANCE = "s(r-4, 1/13, -5/13)"  # symbolic semidefinite-programming input


def k4_bound(r: int, s_value: int | None = None) -> BoundReport:
    """For base size 4: the (4,1) sector holds at most max(96, r-1) vectors,
    and |X| <= 100 + 3*s(r-4, 1/13, -5/13) with the two-distance bound kept
    symbolic unless a value is supplied."""
    if r < 4:
        raise ValueError("rank >= 4 required")
    sector = max(4 * K41_SINGLE_PILLAR_CAP, r - 1)
    if s_value is None:
        total: int | str = f"100 + 3*{K42_TWO_DISTANCE}"
    else:
        total = 100 + 3 * s_value
    report = BoundReport(
        name="k4",
        value=total,
        inputs={"rank": r, "alpha": "1/5", "K": 4, "s_value": s_value},
        certificate={
            "sector_41": sector,
            "per_pillar_cap": K41_SINGLE_PILLAR_CAP,
            "sector_branches": {"four_capped": 96, "one_large": r - 1},
        },
    )
    report.notes.append(
        "a (4,1) pillar coexisting with two nonempty (4,1) pillars holds at most "
        f"{K41_REMARK_CAP} vectors (flagged constant, not recomputed); binding for r >= 30"
    )
    report.notes.append(f"two-distance bound {K42_TWO_DISTANCE} >= r-4")
    return report


# Constants quoted from the 1973 classification of (6,3)-pillar structures;
# their proofs are external to this package.
LS_TWO_ADJACENT_PILLARS = 276
LS_ONE_ADJACENT_PILLAR = 222
LS_ALL_INDEPENDENT = 258
K51_SECTOR_CAP = 15


def k5_bound(r: int) -> BoundReport:
    """|X| <= max(272, floor(4r/3) + 12) for angle 1/5 and base size 5."""
    if r < 5:
        raise ValueError("rank >= 5 required")
    two_pillars = LS_ALL_INDEPENDENT - 1 + K51_SECTOR_CAP
    one_pillar = 5 + K51_SECTOR_CAP + (4 * (r - 6)) // 3
    value = max(two_pillars, one_pillar)
    return BoundReport(
        name="k5",
        value=value,
        inputs={"rank": r, "alpha": "1/5", "K": 5},
        certificate={
            "two_52_pillars": {"arithmetic": "258 - 1 + 15", "value": two_pillars},
            "one_52_pillar": {
                "arithmetic": "5 + 15 + floor(4(r-6)/3)",
                "value": one_pillar,
            },
            "quoted_constants": {
                "two_adjacent": LS_TWO_ADJACENT_PILLARS,
                "one_adjacent": LS_ONE_ADJACENT_PILLAR,
                "independent": LS_ALL_INDEPENDENT,
                "sector_51": K51_SECTOR_CAP,
            },
        },
    )


# ---------------------------------------------------------------------------
# (5,2) pillar rank bound via components of spectral radius <= 2
# ---------------------------------------------------------------------------


class PillarStructureError(ValueError):
    """The graph cannot be the Seidel graph of a (5,2) pillar."""


@dataclass(frozen=True)
class Pillar52Report:
    size: int
    rank: int
    nullity: int
    radius_two_components: int
    component_sizes: tuple[int, ...]
    bound_ok: bool


def pillar52_rank_bound(g: Graph) -> Pillar52Report:
    """Checks a putative (5,2)-pillar Seidel graph and bounds its size by
    (4/3)(rank - 1).  Components must have adjacency spectral radius <= 2
    (decided exactly via PSD of 2I - Adj); radius exactly 2 is detected by
    singularity.  Triangles are rejected outright: together with the three
    base vectors they would switch into a 6-clique."""
    if g.has_triangle():
        raise PillarStructureError(
            "Seidel graph contains a 3-clique: with the three opposite base "
            "vectors it forms K_{3,3}, switching-equivalent to a 6-clique"
        )
    comps = g.components()
    ell = 0
    for comp in comps:
        sub = g.induced(comp)
        two_i_minus_a = SymMatrix(
            [
                [
                    (2 if i == j else 0) - (1 if sub.has_edge(i, j) else 0)
                    for j in range(sub.n)
                ]
                for i in range(sub.n)
            ]
        )
        cert = linalg.psd_check(two_i_minus_a)
        if cert.verdict == linalg.INDEFINITE:
            raise PillarStructureError(
                f"component {comp} has spectral radius > 2, impossible for a "
                "(5,2) pillar (smooth graphs of maximum eigenvalue 2 classify "
                "the admissible components)"
            )
        if cert.verdict == linalg.POSITIVE_SEMIDEFINITE_SINGULAR:
            ell += 1
    m = g.n
    nullity = max(ell - 1, 0)
    d = m - nullity
    return Pillar52Report(
        size=m,
        rank=d,
        nullity=nullity,
        radius_two_components=ell,
        component_sizes=tuple(len(c) for c in comps),
        bound_ok=3 * m <= 4 * (d - 1),
    )


def pillar52_gram(g: Graph) -> SymMatrix:
    """Gram matrix (1/5)J + (4/5)I - (2/5)Adj of a (5,2)-pillar candidate,
    the Gram I + A/5 of the Seidel matrix A of g."""
    return gram_matrix(Fraction(1, 5), SeidelMatrix.from_graph(g))


# ---------------------------------------------------------------------------
# Generalized Neumann restriction and the irrational candidate enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AngleRestriction:
    rank: int
    count: int
    applies: bool
    odd_integer_reciprocals: bool
    conference_angle: QuadExt | None  # 1/sqrt(2r-1) when admissible

    def describe(self) -> list[str]:
        if not self.applies:
            return ["no restriction (count does not exceed 2r-2)"]
        out = ["1/alpha is an odd integer"]
        if self.conference_angle is not None:
            out.append(f"or alpha = {format_scalar(self.conference_angle)}")
        return out


def neumann_restriction(r: int, count: int) -> AngleRestriction:
    """If more than 2r-2 equiangular lines with angle alpha live in rank r,
    then 1/alpha is an odd integer, or additionally sqrt(2r-1) when r is odd
    (the conference-matrix branch; its order 2r is then 2 mod 4).  When 2r-1
    is a perfect square that branch adds no angle."""
    if r <= 3:
        raise ValueError("rank > 3 required")
    applies = count > 2 * r - 2
    conference = None
    if applies and r % 2 == 1:
        if (2 * r) % 4 != 2:
            raise AssertionError("conference matrix order must be 2 mod 4")
        alpha = inv_sqrt(2 * r - 1)
        if isinstance(alpha, QuadExt):  # a rational one is an odd reciprocal already
            conference = alpha
    return AngleRestriction(
        rank=r,
        count=count,
        applies=applies,
        odd_integer_reciprocals=applies,
        conference_angle=conference,
    )


@dataclass(frozen=True)
class NeumannCandidate:
    c1: int
    c2: int
    c3: int
    c4: int
    delta: int  # c1^2 - 4 c2, positive and not a perfect square

    def root_pair(self) -> tuple[QuadExt, QuadExt]:
        s, d0 = squarefree_decomposition(self.delta)
        half_s = Fraction(s, 2)
        a = QuadExt(Fraction(self.c1, 2), -half_s, d0)
        a_star = QuadExt(Fraction(self.c1, 2), half_s, d0)
        return a, a_star


def neumann_candidates(size: int = 14, r: int = 8) -> list[NeumannCandidate]:
    """Integer quadruples (c1,c2,c3,c4) with char(A) = (x^2-c1x+c2)^m (x^2-c3x+c4)
    for a Seidel matrix A of `size` lines of rank r with irrational angle:
    trace and trace-of-square identities, a real irrational quadratic factor
    (positive non-square discriminant), and a real second factor."""
    m = size - r  # multiplicity of the irrational eigenvalue pair
    if m < 1 or size - 2 * m != 2:
        raise ValueError("only the multiplicity pattern (m, m, 1, 1) with m = size - r >= 1 "
                         "and size = 2r - 2 is supported")
    t = size * (size - 1)  # tr A^2
    out = []
    c1 = 0
    # existence range: c1^2 < 2t / (m(m+1))
    c1_max = isqrt(2 * t // (m * (m + 1)))
    for c1 in range(-c1_max - 1, c1_max + 2):
        c3 = -m * c1
        # c2 lower bound from a real second factor, upper bound from delta > 0
        lo_num = (m + 2) * m * c1 * c1 - 2 * t
        lo = -((-lo_num) // (4 * m)) if lo_num <= 0 else (lo_num + 4 * m - 1) // (4 * m)
        hi = (c1 * c1 - 1) // 4 if c1 * c1 >= 1 else -1
        for c2 in range(lo, hi + 1):
            delta = c1 * c1 - 4 * c2
            if delta <= 0:
                continue
            s = isqrt(delta)
            if s * s == delta:
                continue  # rational eigenvalue, not this branch
            num = m * (c1 * c1 - 2 * c2) + c3 * c3 - t
            if num % 2:
                continue
            c4 = num // 2
            if c3 * c3 - 4 * c4 < 0:
                continue
            out.append(NeumannCandidate(c1, c2, c3, c4, delta))
    out.sort(key=lambda c: (c.c1, c.c2))
    return out


def neumann_candidate_pairs(size: int = 14, r: int = 8) -> list[tuple[int, int]]:
    return sorted({(c.c1, c.c2) for c in neumann_candidates(size, r)})


# ---------------------------------------------------------------------------
# Classical bounds
# ---------------------------------------------------------------------------


def relative_bound(r: int, alpha: Scalar) -> int:
    """floor( r(1-alpha^2) / (1-r*alpha^2) ), valid only while r < 1/alpha^2."""
    if not isinstance(alpha, QuadExt):
        alpha = Fraction(alpha)
    alpha_sq = alpha * alpha
    denom = 1 - r * alpha_sq
    if quad_sign(denom) <= 0:
        raise ValueError("relative bound requires r < 1/alpha^2")
    return scalar_floor(r * (1 - alpha_sq) / denom)


def gerzon_bound(r: int) -> int:
    if r < 1:
        raise ValueError("rank >= 1 required")
    return r * (r + 1) // 2


def welch_bound_sq(m: int, r: int) -> Fraction:
    """Squared Welch bound (M-r)/(r(M-1)) on the maximum absolute inner
    product of M unit vectors in rank r; kept rational."""
    if m <= r:
        raise ValueError("more vectors than dimensions required")
    return Fraction(m - r, r * (m - 1))
