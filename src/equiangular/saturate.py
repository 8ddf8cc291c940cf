"""Saturated equiangular-set search: enumerate positive-definite normalized
bases of a given rank and angle, collect every unit line at angle alpha with
the whole basis, and take a maximum clique in the compatibility graph.

A normalized basis of rank r is the root-rowed Gram I + alpha*A where vertex 0
(the root) has +alpha with everything and the rest is encoded by a graph on
r-1 vertices (edges = -alpha).  Distinct isomorphism classes of that graph are
enumerated by the layered generator in graphenum; classes whose Gram is not
positive definite are pruned hereditarily (principal submatrices of PD
matrices are PD).

All search arithmetic runs on the scaled Gram H = corner*G, whose entries lie
in one exact ring (see exactnum): Z for rational angles (corner = denominator)
and Z[sqrt d] for quadratic ones (corner clears denominators).  Every ring
element is held in integer coordinates, an int over Z and a pair (a, b) for
a + b*sqrt(d) over Z[sqrt d], and every ring matrix as its coordinate
matrices, one over Z and two over Z[sqrt d].  Each class record carries det(H)
and adj(H) incrementally: extending [[H, b],[b^T, g]] gives
det' = g*det - b^T adj b and an adjugate assembled from adj and u = adj b in
O(k^2) ring operations; the adjugate is symmetric, so only the entries on and
above the diagonal are computed and each is mirrored.  Over Z[sqrt d] the
update runs coordinate by coordinate, and its exact division by
det = e + f*sqrt(d) multiplies by e - f*sqrt(d) and divides by the int
e^2 - d*f^2.  With b = bscale*eps for a sign vector eps, the three recurring
tests are exact ring comparisons:

    positive definite extension:  corner*det - bscale^2 * (eps^T adj eps) > 0
    unit candidate line:          eps^T adj eps == corner*det / bscale^2
    compatible candidate pair:    bscale * (adj eps_i) . eps_j == +-det

The first two tests are the sign of one ring element,
P(eps) = corner*det - bscale^2 * (eps^T adj eps): eps gives a PD child when
P(eps) > 0 and a unit candidate line when P(eps) = 0 (the ring has no zero
divisors and bscale != 0).  The third is adj eps_i . eps_j == +-det / bscale
multiplied through by bscale, so it needs no division (and no pair passes
when bscale does not divide det): it dots the border vector
bscale * adj eps_i (_border) with eps_j.  The border vector of eps is minus
the new column of the adjugate of the child of eps, and det times the
basis coordinates of the line of eps; the only exact divisions of the
search are those of the adjugate update.

eps^T adj eps comes for all 2^(n-1) sign vectors of an n x n adjugate at
once (_sign_quads), on the integer coordinates of the ring: one integer
matrix over Z, two over Z[sqrt d].  eps^T m eps is an affine function of
the pairwise sign differences, so it is n(n-1)/2 big-int multiply-adds of
fixed 0/1 patterns into one int of fixed-width fields, one field per sign
vector in Gray order, unpacked into one value per sign vector.  The border
vector is computed only for the candidate lines and for the children that
start a new class.

The final level builds no child record and no child scan.  The parent's
packed scan gives P(b) = corner*det - bscale^2 * (b^T adj b) for every b;
the child of sign vector beta has det' = P(beta), and with x = L - s*det,
L = bscale * (adj beta) . eps:

    unit candidate (eps, s) of the child:  bscale^2 * x^2 == P(beta) * P(eps)
    compatible candidates i, j:  bscale * (P(beta) * (adj eps_i) . eps_j
                                           + x_i * x_j) == +-det * P(beta)

So P(beta) * P(eps) must be bscale^2 times a square, and then the product
of the int keys of P(beta) and P(eps) (the element over Z, its norm over
Z[sqrt d]) is a perfect square: the two keys lie in one square class, or
the key of P(eps) is 0.  Each parent's sign vectors are grouped once by a
key that every member of a square class shares (_square_class_key: the
sign, the primes below 50 of odd exponent and the quadratic characters of
the rest), memoised per value P for one search (for one task with a
worker pool), and a child tests only the sign vectors of its own group and
of key 0 (_children_totals).
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from itertools import islice
from math import lcm
from operator import add, mul, neg
from typing import Iterable, Iterator, Sequence

from equiangular import bounds
from equiangular.bounds import BoundReport
from equiangular.exactnum import (
    QuadExt,
    Scalar,
    format_scalar,
    quad_sign,
    ring_sign,
    ring_to_scalar,
    rows_step,
    zsqrt_mul,
)
from equiangular.graphenum import ClassSet, attach_vertex, count_graph_classes, find_isomorphism
from equiangular.linalg import SymMatrix
from equiangular.seidel import (
    EquiangularSet,
    Graph,
    SeidelMatrix,
    SwitchingOp,
    _clique_number,
    gram_matrix,
    graph_from_graph6,
    graph_to_graph6,
    max_clique,
    switching_normalize,
)


class CertificateError(AssertionError):
    """A re-check of a computed result failed: the search and its
    certificate disagree.  Raised by explicit checks, so also under -O."""


@dataclass(frozen=True)
class _Mode:
    """Scaling data in the search ring, Z (d = 0) for rational alpha, else
    Z[sqrt d]: the int corner, and bscale and bscale_sq in integer
    coordinates (an int over Z, a pair (a, b) for a + b*sqrt(d) over
    Z[sqrt d], the form of every ring element of the search)."""

    corner: int
    bscale: object
    bscale_sq: object
    d: int = 0


def _alpha_mode(alpha: Scalar) -> _Mode:
    if quad_sign(alpha) <= 0 or quad_sign(alpha - 1) >= 0:
        raise ValueError(f"the angle must lie in (0, 1), got {format_scalar(alpha)}")
    if isinstance(alpha, QuadExt) and alpha.b != 0:
        a, b, d = alpha.a, alpha.b, alpha.d
    else:
        a, b, d = Fraction(alpha.a if isinstance(alpha, QuadExt) else alpha), Fraction(0), 0
    c = lcm(a.denominator, b.denominator)
    bscale = int(c * a), int(c * b)
    if not d:
        return _Mode(c, bscale[0], bscale[0] ** 2)
    return _Mode(c, bscale, zsqrt_mul(bscale, bscale, d), d)


def _corner_times(mode: _Mode, x):
    """corner*x in integer coordinates (corner is an int in both rings)."""
    return (mode.corner * x[0], mode.corner * x[1]) if mode.d else mode.corner * x


# -- seed data -----------------------------------------------------------------


@dataclass
class BasisSeed:
    """A positive-definite normalized rank-r basis.

    det and adjugate refer to the scaled Gram H = corner*G, in integer
    coordinates: det an int over Z and a pair over Z[sqrt d], adjugate the
    list of its coordinate matrices (one over Z, two over Z[sqrt d]).
    """

    r: int
    alpha: Scalar
    graph: Graph  # the r-1 non-root vertices
    mode: _Mode
    det: object
    adjugate: list
    nonroot_graph6: str = ""

    def __post_init__(self):
        if not self.nonroot_graph6:
            self.nonroot_graph6 = graph_to_graph6(self.graph)

    def gram(self) -> SymMatrix:
        return gram_matrix(self.alpha, self.seidel())

    def seidel(self) -> SeidelMatrix:
        # the root is vertex 0, with no edge (+1 with every other vertex)
        return SeidelMatrix.from_graph(Graph(self.r, (0,) + tuple(m << 1 for m in self.graph.adj)))


@dataclass(frozen=True)
class CandidateLine:
    sign_vector: tuple[int, ...]
    # the border vector bscale * adj(H) @ sign_vector (_border), as coordinate rows
    u: list = field(repr=False, compare=False)
    seed: BasisSeed = field(repr=False, compare=False)

    @cached_property
    def coords(self) -> tuple[Scalar, ...]:
        """Exact coordinates in the basis, u / det (computed on first read)."""
        d = self.seed.mode.d
        det = ring_to_scalar(self.seed.det, d)
        return tuple(ring_to_scalar(x, d) / det for x in (zip(*self.u) if d else self.u[0]))


@dataclass
class CandidateSet:
    seed: BasisSeed
    lines: list[CandidateLine]


@dataclass
class SaturationReport:
    seed: BasisSeed
    candidate_count: int
    clique_size: int
    total: int
    clique_witness: tuple[int, ...]
    realized: EquiangularSet


@dataclass
class EnumerationResult:
    seeds: list[BasisSeed]
    classes_scanned: int | None  # all (r-1)-vertex classes, counted up to rank 8


# -- incremental ladder ---------------------------------------------------------


def _root_record(mode: _Mode) -> dict:
    if not mode.d:
        return {"masks": [], "det": mode.corner, "adj": [[1]]}
    return {"masks": [], "det": (mode.corner, 0), "adj": [[1]], "adj_sqrt": [[0]]}


def _adj_matrices(rec: dict) -> list:
    """The integer coordinate matrices of a record's adjugate: adj over Z,
    adj and adj_sqrt (the adjugate is adj + adj_sqrt*sqrt(d)) over Z[sqrt d]."""
    return [rec["adj"], rec["adj_sqrt"]] if "adj_sqrt" in rec else [rec["adj"]]


def _border(mode: _Mode, ms: list, b: Sequence[int]) -> tuple:
    """(b^T adj b, bscale * adj @ b) for a sign vector b, from the integer
    coordinate matrices ms of adj (_adj_matrices): the ring element in
    integer coordinates and the border vector as its coordinate rows, one
    over Z and two over Z[sqrt d].  The border vector is minus the new
    column of the adjugate of the child of b, and det times the basis
    coordinates of the line of b when b is a unit candidate."""
    us = [[sum(map(mul, row, b)) for row in m] for m in ms]
    if not mode.d:
        (u,) = us
        return sum(map(mul, u, b)), [[mode.bscale * x for x in u]]
    (ba, bb), (ua, ub), d = mode.bscale, us, mode.d
    quad = sum(map(mul, ua, b)), sum(map(mul, ub, b))
    sa = [ba * x + d * bb * y for x, y in zip(ua, ub)]
    return quad, [sa, [ba * y + bb * x for x, y in zip(ua, ub)]]


def _extend_record(mode: _Mode, rec: dict, nb: int, ms: list) -> dict:
    """Record of the class grown by a vertex with neighbor mask nb; ms are
    the integer coordinate matrices of rec's adjugate (_adj_matrices).  With
    su = bscale * adj@b (_border) the new adjugate is
    [[(det'*adj + su su^T) / det, -su], [-su^T, det]]; over Z[sqrt d]
    rows_step forms it coordinate by coordinate.  Only the entries on and
    above the diagonal are computed."""
    k = len(rec["masks"])
    n = k + 1
    masks = [m | ((nb >> i & 1) << k) for i, m in enumerate(rec["masks"])]
    masks.append(nb)
    det, d = rec["det"], mode.d
    quad, su = _border(mode, ms, _sign_vector(nb, n))
    # over Z the step stays inline: a rows_step call per row was 1.6x slower on these small records
    if not d:
        (adj,), (su,) = ms, su
        det_new = mode.corner * det - mode.bscale_sq * quad
        new_adj = [[None] * n + [-x] for x in su]
        for i in range(n):  # the adjugate is symmetric: fill j >= i and mirror
            row, adj_i, su_i = new_adj[i], adj[i], su[i]
            for j in range(i, n):
                row[j] = new_adj[j][i] = (det_new * adj_i[j] + su_i * su[j]) // det
        new_adj.append([-x for x in su] + [det])
        return {"masks": masks, "det": det_new, "adj": new_adj}
    (ta, tb), (qa, qb) = _corner_times(mode, det), zsqrt_mul(mode.bscale_sq, quad, d)
    det_new = ta - qa, tb - qb
    (sa, sb), (a, b) = su, ms
    new_a, new_b = [[None] * n + [-x] for x in sa], [[None] * n + [-x] for x in sb]
    for i in range(n):  # as over Z, one rows_step per row from column i on
        ra, rb = rows_step(
            det_new, (-sa[i], -sb[i]), det, (a[i][i:], b[i][i:]), (sa[i:], sb[i:]), d
        )
        for j, va, vb in zip(range(i, n), ra, rb):
            new_a[i][j] = new_a[j][i] = va
            new_b[i][j] = new_b[j][i] = vb
    new_a.append([-x for x in sa] + [det[0]])
    new_b.append([-x for x in sb] + [det[1]])
    return {"masks": masks, "det": det_new, "adj": new_a, "adj_sqrt": new_b}


@cache
def _gray_masks(n: int) -> tuple[int, ...]:
    """The masks of the sign vectors b of length n with b[0] = +1 in Gray
    order; bit i-1 of a mask is set when b[i] = -1."""
    return tuple(g ^ (g >> 1) for g in range(1 << (n - 1)))


@cache
def _patterns(n: int, step: int) -> tuple[int, list[int]]:
    """(ones, [P_ij for i < j]) over the sign vectors of length n in Gray
    order, packed one field of step bytes per sign vector: each field of ones
    holds 1, and field g of P_ij holds 1 where b[i] != b[j] in the g-th sign
    vector."""
    fields = 1 << (n - 1)

    def packed(values) -> int:
        buf = bytearray(step * fields)
        buf[::step] = bytes(values)
        return int.from_bytes(buf, "little")

    cols = [0] + [packed(nb >> (i - 1) & 1 for nb in _gray_masks(n)) for i in range(1, n)]
    ones = packed([1] * fields)
    pairs = [cols[i] ^ cols[j] for i in range(n) for j in range(i + 1, n)]
    return ones, pairs


def _sign_quads(ms: list[list[list[int]]]) -> list[list[int]]:
    """b^T m b for all 2^(n-1) sign vectors b (b[0] = +1) in Gray order, one
    list per integer coordinate matrix m of a ring matrix (one over Z, two
    over Z[sqrt d]).

    With D_ij = 1 where b[i] != b[j], b^T m b = q1 - 4*S(b), where q1 sums
    all entries of m and S sums m_ij * D_ij over i < j.  One int per matrix,
    neg*ones + the sum of m_ij * P_ij (n(n-1)/2 big-int multiply-adds, see
    _patterns), holds S + neg in field g for the g-th sign vector in Gray
    order; neg is minus the sum of the negative m_ij.  Every partial sum of
    a field lies in [0, reach], reach = sum of |m_ij| over i < j, so no field
    carries into the next; a field is the least whole number of bytes that
    holds reach, and at least one (reach is 0 for a 1x1 matrix).  Fields of
    up to 8 bytes are copied into 8-byte slots, one strided slice per byte,
    and read as one array("Q"); wider fields are read one slice each."""
    n = len(ms[0])
    upper = [[row[j] for i, row in enumerate(m) for j in range(i + 1, n)] for m in ms]
    reach = max(sum(map(abs, xs)) for xs in upper)
    step = max(1, (reach.bit_length() + 7) // 8)
    size = step << (n - 1)
    ones, pairs = _patterns(n, step)
    out = []
    for m, xs in zip(ms, upper):
        neg = -sum([x for x in xs if x < 0])
        base = sum(map(sum, m)) + 4 * neg  # q1 + 4*neg
        raw = sum(map(mul, xs, pairs), neg * ones).to_bytes(size, "little")
        if step > 8:
            fields = (int.from_bytes(raw[i:i + step], "little") for i in range(0, size, step))
        else:  # widen each field to an 8-byte slot and read them all as one array
            wide = bytearray(8 << (n - 1))
            for b in range(step):
                wide[b::8] = raw[b::step]
            fields = array("Q", wide)
            if sys.byteorder == "big":
                fields.byteswap()
        out.append([base - 4 * x for x in fields])
    return out


def _sign_vector(mask: int, n: int) -> tuple[int, ...]:
    return (1,) + tuple(-1 if mask >> i & 1 else 1 for i in range(n - 1))


def _pd_values(mode: _Mode, det, ms: list) -> list:
    """P(b) = corner*det - bscale^2 * b^T adj b for every sign vector b in
    Gray order, in integer coordinates, from the coordinate matrices ms of
    adj: the scaled det of the child of b."""
    quads, thresh, d = _sign_quads(ms), _corner_times(mode, det), mode.d
    if not d:
        return [thresh - mode.bscale_sq * q for q in quads[0]]
    (ta, tb), (s, t) = thresh, mode.bscale_sq
    return [(ta - s * qa - d * t * qb, tb - s * qb - t * qa) for qa, qb in zip(*quads)]


def _pd_neighbor_masks(mode: _Mode, rec: dict, pvals: list) -> list[int]:
    """The neighbor masks of every one-vertex extension of rec keeping the
    Gram PD, i.e. with P(b) > 0, in Gray order; pvals are the _pd_values of
    rec's adjugate."""
    d = mode.d
    return [nb for nb, p in zip(_gray_masks(len(rec["adj"])), pvals) if ring_sign(p, d) > 0]


def _pd_step(mode: _Mode, level: Iterable[dict], k: int):
    """One ladder step from a level of records on k graph vertices: per
    record, (rec, the coordinate matrices ms of its adjugate, their
    _pd_values, the neighbor masks of its PD children that start a new
    class, in Gray order), skipping records with no such child.  Each
    adjugate is scanned once, for its PD children and, at the final level,
    for the totals of its children."""
    classes = ClassSet(k + 1)
    for rec in level:
        ms = _adj_matrices(rec)
        pvals = _pd_values(mode, rec["det"], ms)
        pd_masks = _pd_neighbor_masks(mode, rec, pvals)
        nbs = [nb for nb, _ in attach_vertex(classes, rec["masks"], pd_masks)]
        if nbs:
            yield rec, ms, pvals, nbs


def _pd_ladder(mode: _Mode, graph_size: int) -> Iterator[dict]:
    """PD basis class records whose non-root graphs have graph_size vertices,
    streamed: each level is a generator over the one below, so a record is
    built when the next step asks for it and no level is held as a list."""
    level = iter([_root_record(mode)])
    for k in range(graph_size):
        level = (
            _extend_record(mode, rec, nb, ms)
            for rec, ms, _, nbs in _pd_step(mode, level, k)
            for nb in nbs
        )
    return level


def _child_seed(r: int, alpha: Scalar, mode: _Mode, rec: dict, nb: int) -> BasisSeed:
    """The rank-r basis seed of the child of rec (a record on r-2 graph
    vertices, reached through positive dets) with neighbor mask nb, from one
    _extend_record step.  Its det is the last leading principal minor of the
    scaled Gram, so CertificateError is raised unless it is positive."""
    child = _extend_record(mode, rec, nb, _adj_matrices(rec))
    if ring_sign(child["det"], mode.d) <= 0:
        raise CertificateError("the basis Gram is not positive definite")
    graph = Graph(r - 1, tuple(child["masks"]))
    return BasisSeed(r, alpha, graph, mode, child["det"], _adj_matrices(child))


def seed_for_graph(r: int, alpha: Scalar, graph: Graph) -> BasisSeed:
    """The basis seed of a non-root graph on r-1 vertices (graph6 input),
    its det and adjugate rebuilt one vertex at a time.  The dets are the
    leading principal minors of the scaled Gram, so CertificateError is
    raised unless every one is positive (the Gram is PD)."""
    if graph.n != r - 1:
        raise ValueError(f"a rank-{r} seed needs a graph on {r - 1} vertices, got {graph.n}")
    mode = _alpha_mode(alpha)
    rec = _root_record(mode)
    for k, row in enumerate(graph.adj[:-1]):
        rec = _extend_record(mode, rec, row & ((1 << k) - 1), _adj_matrices(rec))
        if ring_sign(rec["det"], mode.d) <= 0:
            raise CertificateError("the basis Gram is not positive definite")
    return _child_seed(r, alpha, mode, rec, graph.adj[-1] & ((1 << (r - 2)) - 1))


def enumerate_pd_bases(r: int, alpha: Scalar) -> EnumerationResult:
    """One seed per isomorphism class of (r-1)-vertex graphs whose normalized
    Gram is positive definite, with the number of all (r-1)-vertex classes
    up to 7 vertices, i.e. rank 8."""
    if r < 2:
        raise ValueError("rank >= 2 required")
    mode = _alpha_mode(alpha)
    seeds = [
        BasisSeed(r, alpha, Graph(r - 1, tuple(rec["masks"])), mode, rec["det"], _adj_matrices(rec))
        for rec in _pd_ladder(mode, r - 1)
    ]
    return EnumerationResult(seeds, count_graph_classes(r - 1) if r - 1 <= 7 else None)


# -- candidate lines -------------------------------------------------------------


def _candidate_data_raw(mode: _Mode, det, adj, r: int):
    """(eps, u = bscale * adjugate @ eps, the border vector of _border) for
    every unit candidate line, i.e. every sign vector eps (root sign fixed
    +1) with P(eps) = 0, all 2^(r-1) read off one _sign_quads; adj is the
    list of coordinate matrices of the adjugate, and u is computed for the
    candidates only.  P(eps) = 0 is eps^T adj eps == corner*det / bscale^2,
    so no eps passes when that quotient is not in the ring."""
    d = mode.d
    pvals = _pd_values(mode, det, adj)
    signs = [_sign_vector(nb, r) for nb, p in zip(_gray_masks(r), pvals) if not ring_sign(p, d)]
    return [(eps, _border(mode, adj, eps)[1]) for eps in signs]


def candidates(seed: BasisSeed) -> CandidateSet:
    """All unit vectors whose inner products with every basis vector are
    +-alpha; exact coordinates in the basis are computed on first read."""
    data = _candidate_data_raw(seed.mode, seed.det, seed.adjugate, seed.r)
    return CandidateSet(seed, [CandidateLine(eps, u, seed) for eps, u in data])


def _pair_sign(tgt: list[int], u_i, eps_j) -> int:
    """+1 or -1 as the dots of the border vector u_i with eps_j equal the
    coordinates tgt of det or their negatives (see _compat_adj_raw)."""
    dots = [sum(map(mul, uc, eps_j)) for uc in u_i]
    if dots == tgt:
        return 1
    if dots == [-x for x in tgt]:
        return -1
    raise ValueError("pair is not compatible")


def _compat_adj_raw(mode: _Mode, det, data, r: int) -> list[int]:
    """Adjacency bitmasks of the compatibility graph of the candidates
    (eps, u) in data (_candidate_data_raw): i and j are compatible when the
    border vector u_i dotted with eps_j is +-det, coordinate by coordinate."""
    nc = len(data)
    adj = [0] * nc
    tgt = list(det) if mode.d else [det]
    neg = [-x for x in tgt]
    for i in range(nc):
        ui = data[i][1]
        for j in range(i + 1, nc):
            dots = [sum(map(mul, uc, data[j][0])) for uc in ui]
            if dots == tgt or dots == neg:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def compatibility_graph(cands: CandidateSet) -> Graph:
    """Edges join candidate lines whose mutual inner product is +-alpha."""
    nc = len(cands.lines)
    if nc == 0:
        return Graph(1, (0,))
    data = [(line.sign_vector, line.u) for line in cands.lines]
    seed = cands.seed
    return Graph(nc, tuple(_compat_adj_raw(seed.mode, seed.det, data, seed.r)))


def realize(seed: BasisSeed, cands: CandidateSet, chosen: Sequence[int]) -> EquiangularSet:
    """Equiangular set made of the basis plus the chosen candidate lines,
    rebuilt from scratch and re-certified (PSD, rank = r, entries +-alpha)."""
    r = seed.r
    n = r + len(chosen)
    rows = [list(row) + [0] * (n - r) for row in seed.seidel().rows] + [[0] * n for _ in chosen]
    lines = cands.lines
    tgt = list(seed.det) if seed.mode.d else [seed.det]
    for a, ci in enumerate(chosen):
        eps = lines[ci].sign_vector
        for i in range(r):
            rows[i][r + a] = rows[r + a][i] = eps[i]
        for b in range(a):
            s = _pair_sign(tgt, lines[ci].u, lines[chosen[b]].sign_vector)
            rows[r + a][r + b] = rows[r + b][r + a] = s
    e = EquiangularSet(seed.alpha, SeidelMatrix(tuple(tuple(x) for x in rows)))
    if e.rank != r:
        raise CertificateError("realized set must have rank exactly r")
    return e


def saturation_report(seed: BasisSeed) -> SaturationReport:
    """Saturation total of one seed, with a maximum clique as witness that
    is realized, re-certified and checked to be maximal."""
    cands = candidates(seed)
    graph = compatibility_graph(cands)
    nc = len(cands.lines)
    if nc == 0:
        return SaturationReport(seed, 0, 0, seed.r, (), realize(seed, cands, ()))
    omega, witness = max_clique(graph)
    rep = SaturationReport(
        seed, nc, omega, seed.r + omega, witness, realize(seed, cands, witness)
    )
    _assert_saturated(rep, graph)
    return rep


def _gray_index(mask: int) -> int:
    """The position of a sign-vector mask in Gray order (see _gray_masks)."""
    g = 0
    while mask:
        g ^= mask
        mask >>= 1
    return g


def _square_key(x, d: int) -> int:
    """An int with key(x)*key(y) a perfect square whenever x*y is a square
    in the ring: x itself over Z, the norm a^2 - d*b^2 over Z[sqrt d] (the
    norm is multiplicative)."""
    return x[0] * x[0] - d * x[1] * x[1] if d else x


@cache
def _sign_vectors(n: int) -> tuple[tuple[int, ...], ...]:
    """The sign vectors of length n with b[0] = +1, in Gray order."""
    return tuple(_sign_vector(mask, n) for mask in _gray_masks(n))


def _ring_ops(d: int):
    """(mul, add, neg) on ring elements in integer coordinates: the int
    operators over Z, pair arithmetic over Z[sqrt d]."""
    if not d:
        return mul, add, neg
    return (
        lambda x, y: zsqrt_mul(x, y, d),
        lambda x, y: (x[0] + y[0], x[1] + y[1]),
        lambda x: (-x[0], -x[1]),
    )


_ODD_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
_RESIDUES = tuple(frozenset(x * x % q for x in range(1, q)) for q in _ODD_PRIMES)


def _square_class_key(n: int) -> int:
    """A key shared by the ints of one square class: x*y a nonzero perfect
    square gives key(x) == key(y) (0 for n = 0 alone).  It is s << 17 | bits,
    with s the sign of n times the primes below 50 of odd exponent in n,
    and bits read from the rest m of n, prime to them, through invariants
    that squares do not change: m mod 8 and, at bit 8 << i, whether m is a
    non-residue mod the i-th odd prime below 50.  For x*y a square,
    m_x * m_y is an odd square prime to those primes, so m_x = m_y mod 8
    and the two have one quadratic character mod each.  Ints of different
    classes may share a key, which costs only candidate tests that fail;
    nothing is divided by a prime past 47, so the cost is bounded by the
    size of n."""
    if not n:
        return 0
    s, m = (1 if n > 0 else -1), abs(n)
    for p in (2, *_ODD_PRIMES):
        if not m % p:
            m //= p
            odd = True
            while not m % p:
                m //= p
                odd = not odd
            if odd:
                s *= p
    bits = m % 8
    for i, (q, residues) in enumerate(zip(_ODD_PRIMES, _RESIDUES)):
        if m % q not in residues:
            bits |= 8 << i
    return s << 17 | bits


def _children_totals(
    mode: _Mode, det, ms: list, pvals: list, nbs: list[int], r: int, keys: dict
) -> list[int]:
    """Saturation totals of the children of one parent record (det, the
    coordinate matrices ms of its adjugate A and its _pd_values P), one per
    neighbor mask in nbs, by the identities of the module docstring.

    The candidates (eps, s) of the child of beta need key(P(beta)) *
    key(P(eps)) to be a perfect square with P(eps) >= 0, so P(eps) has key
    0 or the _square_class_key of P(beta)'s key.  keys memoises that class
    key per value P (None for P < 0) and is shared by the calls of one
    search or one worker task.  The parent's sign vectors are grouped by it
    once, and a child tests only the sign vectors of its own group and of
    key 0; a value in the group but not in the class fails the exact test.
    The vectors A eps and the products (A eps_i) . eps_j of the
    compatibility test do not depend on the child and are computed once
    per parent."""
    d, bscale, bsq = mode.d, mode.bscale, mode.bscale_sq
    rmul, radd, rneg = _ring_ops(d)

    def dot(vs, eps):  # the ring element (A v) . eps from the coordinates vs of A v
        parts = [sum(map(mul, v, eps)) for v in vs]
        return tuple(parts) if d else parts[0]

    n = len(ms[0])
    vectors = _sign_vectors(n)
    groups: dict = {}  # class key -> the Gray indices of the sign vectors with P >= 0
    for g, p in enumerate(pvals):
        try:
            kc = keys[p]
        except KeyError:
            kc = keys[p] = _square_class_key(_square_key(p, d)) if ring_sign(p, d) >= 0 else None
        if kc is not None:
            groups.setdefault(kc, []).append(g)
    zeros = groups.get(0, [])
    dets = (rneg(det), det)  # x = L - s*det for s = +1, -1
    aes: dict = {}  # Gray index -> the coordinates of A eps
    pair_dots: dict = {}  # (i, j) -> (A eps_i) . eps_j
    totals = []
    for nb in nbs:
        gb = _gray_index(nb)
        pb, beta = pvals[gb], vectors[gb]
        ab = [[sum(map(mul, row, beta)) for row in m] for m in ms]  # A beta
        found = []  # (Gray index of eps, x) per candidate
        for g in groups[keys[pb]] + zeros:  # P(beta) > 0: its key is not that of 0
            lin, pp = rmul(bscale, dot(ab, vectors[g])), rmul(pb, pvals[g])
            for s_det in dets:
                x = radd(lin, s_det)
                if rmul(bsq, rmul(x, x)) == pp:
                    found.append((g, x))
        nc = len(found)
        if nc <= 1:
            totals.append(r + nc)
            continue
        target, adj = rmul(det, pb), [0] * nc
        targets = (target, rneg(target))
        for i, (gi, xi) in enumerate(found):
            for j in range(i + 1, nc):
                gj, xj = found[j]
                dij = pair_dots.get((gi, gj))
                if dij is None:
                    aei = aes.get(gi)
                    if aei is None:
                        ei = vectors[gi]
                        aei = aes[gi] = [[sum(map(mul, row, ei)) for row in m] for m in ms]
                    dij = pair_dots[gi, gj] = dot(aei, vectors[gj])
                if rmul(bscale, radd(rmul(pb, dij), rmul(xi, xj))) in targets:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
        totals.append(r + _clique_number(adj, nc))
    return totals


def _task_totals(mode: _Mode, r: int, items: list) -> list[list[int]]:
    """The _children_totals of the parents in items, (det, ms, pvals, nbs)
    each, with one class-key memo: one task of the worker pool."""
    keys: dict = {}
    return [_children_totals(mode, det, ms, pvals, nbs, r, keys) for det, ms, pvals, nbs in items]


def _final_totals(mode: _Mode, parents: Iterable[dict], r: int, jobs: int):
    """(parent record, neighbor masks, saturation totals) per parent of the
    final level, one mask and total for each class, in arrival order.  Each
    parent's classes, from one _pd_step, are reduced by _children_totals
    from the parent's scan alone: the child of sign vector beta has
    det' = P(beta), and (eps, s) is one of its unit candidates exactly when
    bscale^2 * (L - s*det)^2 = P(beta) * P(eps).  With one job a parent is
    reduced as soon as the step yields it, with one class-key memo for the
    whole level, freed with this generator; with more, parents go to a
    worker pool in batches of 64, as tasks of 16 parents with one memo
    each."""
    step = _pd_step(mode, parents, r - 2)
    if jobs <= 1:
        keys: dict = {}
        for rec, ms, pvals, nbs in step:
            yield rec, nbs, _children_totals(mode, rec["det"], ms, pvals, nbs, r, keys)
        return
    from multiprocessing import Pool

    pool = Pool(jobs)
    try:
        while batch := list(islice(step, 64)):
            items = [(rec["det"], ms, pvals, nbs) for rec, ms, pvals, nbs in batch]
            tasks = [(mode, r, items[i:i + 16]) for i in range(0, len(items), 16)]
            totals = [t for task in pool.starmap(_task_totals, tasks) for t in task]
            for (rec, _, _, nbs), group_totals in zip(batch, totals):
                yield rec, nbs, group_totals
    finally:
        pool.close()
        pool.join()


def m_alpha(
    r: int,
    alpha: Scalar,
    jobs: int = 1,
    count_scanned: bool | None = None,
) -> BoundReport:
    """Maximum number of equiangular lines of rank exactly r and angle alpha,
    by saturation over every PD basis class.

    The enumeration is streamed: the ladder yields the final level's
    parents one at a time (_pd_ladder), and each new class of the final
    level is reduced to its saturation total (at once with one job, per
    batch with a pool) and only the total is kept, in a histogram, with the
    parent record and neighbor mask of the classes that tie the running
    maximum.  The memory footprint is one int per class of every level in
    the duplicate filters plus one record in flight per level.

    A final-level total comes from the parent's data alone (the child of
    sign vector beta has det' = P(beta) and the candidates (eps, s) with
    bscale^2 * (L - s*det)^2 = P(beta) * P(eps), see the module docstring);
    each maximizing seed is then built from its parent's record by one
    extension step (_child_seed) and re-certified on its own data.
    """
    if r < 2:
        raise ValueError("rank >= 2 required")
    if count_scanned is None:
        count_scanned = r - 1 <= 7
    mode = _alpha_mode(alpha)
    parents = _pd_ladder(mode, r - 2)
    histogram: dict[int, int] = {}
    best, maximizers = 0, []  # (parent, nb) of the seeds tying the maximum, in arrival order
    for rec, nbs, totals in _final_totals(mode, parents, r, jobs):
        for nb, total in zip(nbs, totals):
            histogram[total] = histogram.get(total, 0) + 1
            if total > best:
                best, maximizers = total, []
            if total == best:
                maximizers.append((rec, nb))
    if not histogram:
        raise ValueError("no positive definite basis exists for this rank and angle")
    reports = []
    for rec, nb in maximizers:
        rep = saturation_report(_child_seed(r, alpha, mode, rec, nb))
        e = rep.realized
        if rep.total != best or e.n != best or e.rank != r:
            raise CertificateError("maximizing seed failed re-certification")
        reports.append(rep)
    scanned = count_graph_classes(r - 1) if count_scanned else None
    return BoundReport(
        name="m_alpha",
        value=best,
        inputs={"rank": r, "alpha": format_scalar(alpha if isinstance(alpha, QuadExt) else Fraction(alpha))},
        certificate={
            "seeds": sum(histogram.values()),
            "classes_scanned": scanned,
            "pruned_enumeration": not count_scanned,
            "totals_histogram": {str(t): n for t, n in sorted(histogram.items())},
            "maximizing_seeds": [
                {
                    "graph6": rep.seed.nonroot_graph6,
                    "candidates": rep.candidate_count,
                    "clique": rep.clique_size,
                    "witness": list(rep.clique_witness),
                }
                for rep in reports
            ],
        },
    )


def _assert_saturated(rep: SaturationReport, graph: Graph) -> None:
    """No candidate outside the clique is compatible with every clique member."""
    chosen = set(rep.clique_witness)
    for v in range(rep.candidate_count):
        if v in chosen:
            continue
        if all(graph.has_edge(v, w) for w in chosen):
            raise CertificateError("clique witness is not maximal")


# -- maximum size at prescribed rank ------------------------------------------


def m_star(r: int, jobs: int = 1) -> BoundReport:
    """M*(r): maximum equiangular set of rank exactly r, by combining the
    angle restriction for counts above 2r-2, the relative bound, and
    saturation searches at the surviving angles."""
    audit = []
    values = {}
    base = 2 * r - 2  # counts beyond this force the angle restriction
    fully_certified = r in (8, 9, 10)
    # odd-integer reciprocal angles 1/3, 1/5, ... until the relative bound
    # (valid for r < (2n+1)^2, decreasing in n) rules the rest out
    best_so_far = 0
    n = 1
    while True:
        alpha = Fraction(1, 2 * n + 1)
        if r * alpha * alpha < 1:
            rel = bounds.relative_bound(r, alpha)
            if rel <= max(base, best_so_far):
                audit.append(
                    {
                        "alpha": str(alpha),
                        "method": "relative_bound",
                        "bound": rel,
                        "excluded": True,
                        "note": f"relative bound {rel} cannot beat {max(base, best_so_far)}; "
                        "smaller angles are bounded by even less",
                    }
                )
                break
        rep = m_alpha(r, alpha, jobs=jobs, count_scanned=False)
        values[str(alpha)] = rep.value
        best_so_far = max(best_so_far, rep.value)
        audit.append({"alpha": str(alpha), "method": "saturation", "value": rep.value})
        n += 1
        if 2 * n + 1 > 2 * r + 1:  # alpha below 1/(2r+1): relative bound < r+1
            break
    # conference-matrix branch for odd ranks
    restriction = bounds.neumann_restriction(r, base + 1)
    if restriction.conference_angle is not None:
        alpha_c = restriction.conference_angle
        rep = m_alpha(r, alpha_c, jobs=jobs, count_scanned=False)
        values[format_scalar(alpha_c)] = rep.value
        best_so_far = max(best_so_far, rep.value)
        audit.append(
            {"alpha": format_scalar(alpha_c), "method": "saturation", "value": rep.value}
        )
    else:
        audit.append(
            {
                "alpha": f"1/sqrt({2 * r - 1})",
                "method": "neumann_excluded",
                "excluded": True,
                "note": "conference branch requires odd rank" if r % 2 == 0
                else f"1/sqrt({2 * r - 1}) is rational, an odd reciprocal covered above",
            }
        )
    report = BoundReport(
        name="m_star",
        value=best_so_far,
        inputs={"rank": r},
        certificate={"per_angle": values, "audit": audit},
    )
    if not fully_certified:
        report.notes.append(
            "outside ranks 8-10 the angle list is the generalized-Neumann one; "
            "angles with 1/alpha an odd integer or sqrt(2r-1) are covered, other "
            "irrational angles are only constrained for counts above 2r-2"
        )
    return report


# -- uniqueness of the 14-line rank-8 systems ---------------------------------


def switching_isomorphism(e1: EquiangularSet, e2: EquiangularSet) -> SwitchingOp | None:
    """An explicit switching operation carrying e1's Seidel matrix to e2's,
    found through root-normalized descendant graphs; None if inequivalent."""
    if e1.n != e2.n:
        raise ValueError("systems have different sizes")
    n = e1.n
    if n == 1:
        return SwitchingOp.identity(1)
    norm1 = switching_normalize(e1, 0)
    d1 = norm1.seidel.graph().induced(range(1, n))
    for w in range(n):
        norm2 = switching_normalize(e2, w)
        others = [v for v in range(n) if v != w]
        d2 = norm2.seidel.graph().induced(others)
        mapping = find_isomorphism(n - 1, d1.adj, d2.adj)
        if mapping is None:
            continue
        target_of = {0: w}
        for i in range(1, n):
            target_of[i] = others[mapping[i - 1]]
        slot_source = {target_of[src]: src for src in range(n)}
        perm = tuple(slot_source[i] for i in range(n))
        op = _solve_signs(e1.seidel, e2.seidel, perm)
        if op is not None:
            return op
    return None


def _solve_signs(
    a1: SeidelMatrix, a2: SeidelMatrix, perm: tuple[int, ...]
) -> SwitchingOp | None:
    n = a1.n
    signs = [0] * n
    signs[0] = 1
    for j in range(1, n):
        signs[j] = a2.rows[0][j] * a1.rows[perm[0]][perm[j]]
    for i in range(n):
        for j in range(n):
            if i != j and signs[i] * signs[j] * a1.rows[perm[i]][perm[j]] != a2.rows[i][j]:
                return None
    flips = frozenset(i for i in range(n) if signs[i] == -1)
    op = SwitchingOp(flips, perm)
    if op.apply(a1) != a2:
        raise CertificateError("switching witness does not map a1 to a2")
    return op


def uniqueness_check_8_third() -> dict:
    """The two 14-line saturation maxima at rank 8, angle 1/3 are switching
    isomorphic; returns the explicit witness operation."""
    rep = m_alpha(8, Fraction(1, 3))
    winners = rep.certificate["maximizing_seeds"]
    if len(winners) != 2 or rep.value != 14:
        raise AssertionError("expected exactly two 14-line maxima")
    systems = []
    for w in winners:
        seed = seed_for_graph(8, Fraction(1, 3), graph_from_graph6(w["graph6"]))
        systems.append(realize(seed, candidates(seed), tuple(w["witness"])))
    op = switching_isomorphism(systems[0], systems[1])
    return {
        "equivalent": op is not None,
        "size": 14,
        "witness": None
        if op is None
        else {"flips": sorted(op.flips), "perm": list(op.perm)},
        "systems": [s.to_json() for s in systems],
    }
