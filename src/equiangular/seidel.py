"""Seidel matrices, Seidel graphs, switching, clique number, and base size.

Sign convention, fixed once for the whole package: the Gram matrix of a set
with angle alpha is G = I + alpha*A, and an edge of the Seidel graph joins two
vertices whose inner product is -alpha, i.e. A[i][j] = -1.  Equivalently
A = J - I - 2*Adj(S).
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, count
from operator import mul
from typing import Iterable, Iterator, Sequence

from equiangular import linalg
from equiangular.exactnum import (
    QuadExt,
    Scalar,
    format_scalar,
    parse_scalar,
    quad_sign,
    scalar_floor,
)
from equiangular.linalg import INDEFINITE, PsdCertificate, SymMatrix


def bits(mask: int) -> Iterator[int]:
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


@dataclass(frozen=True)
class Graph:
    """Simple graph on vertices 0..n-1 with bitmask adjacency rows."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1 or len(self.adj) != self.n:
            raise ValueError("adjacency size mismatch")
        for v, row in enumerate(self.adj):
            if row >> self.n:
                raise ValueError("edge beyond vertex range")
            if row >> v & 1:
                raise ValueError("loops not allowed")
        # character u of row v's string is bit u: symmetric iff strs is its transpose
        strs = [format(row, f"0{self.n}b")[::-1] for row in self.adj]
        if list(map("".join, zip(*strs))) != strs:
            raise ValueError("adjacency not symmetric")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError("loops not allowed")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, tuple(adj))

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n, (0,) * n)

    @classmethod
    def complete(cls, n: int) -> "Graph":
        full = (1 << n) - 1
        return cls(n, tuple(full ^ (1 << v) for v in range(n)))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    def induced(self, vertices: Sequence[int]) -> "Graph":
        vs = list(vertices)
        pos = {v: i for i, v in enumerate(vs)}
        adj = [0] * len(vs)
        for i, v in enumerate(vs):
            for u in bits(self.adj[v]):
                j = pos.get(u)
                if j is not None:
                    adj[i] |= 1 << j
        return Graph(len(vs), tuple(adj))

    def components(self) -> list[tuple[int, ...]]:
        seen = 0
        out = []
        for s in range(self.n):
            if seen >> s & 1:
                continue
            comp = 1 << s
            frontier = [s]
            while frontier:
                v = frontier.pop()
                for u in bits(self.adj[v] & ~comp):
                    comp |= 1 << u
                    frontier.append(u)
            seen |= comp
            out.append(tuple(bits(comp)))
        return out

    def has_triangle(self) -> bool:
        for v in range(self.n):
            for u in bits(self.adj[v]):
                if u > v and self.adj[v] & self.adj[u]:
                    return True
        return False


# -- graph6 interchange ------------------------------------------------------


def graph_to_graph6(g: Graph) -> str:
    n = g.n
    if n <= 62:
        head = [n + 63]
    elif n <= 258047:
        head = [126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
    else:
        raise ValueError("graph too large for graph6")
    bitstream = []
    for j in range(n):
        for i in range(j):
            bitstream.append(1 if g.has_edge(i, j) else 0)
    while len(bitstream) % 6:
        bitstream.append(0)
    body = []
    for k in range(0, len(bitstream), 6):
        val = 0
        for b in bitstream[k : k + 6]:
            val = val << 1 | b
        body.append(val + 63)
    return "".join(chr(c) for c in head + body)


def graph_from_graph6(text: str) -> Graph:
    data = [ord(c) - 63 for c in text.strip()]
    if not data or any(v < 0 or v > 63 for v in data):
        raise ValueError("invalid graph6 characters")
    if data[0] == 63 and len(data) >= 4:
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        data = data[4:]
    else:
        n = data[0]
        data = data[1:]
    if 6 * len(data) < n * (n - 1) // 2:
        raise ValueError("truncated graph6")
    bitstream = []
    for v in data:
        for k in range(5, -1, -1):
            bitstream.append(v >> k & 1)
    adj = [0] * n
    pos = 0
    for j in range(n):
        for i in range(j):
            if bitstream[pos]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            pos += 1
    return Graph(n, tuple(adj))


# -- maximum clique ----------------------------------------------------------


def _color_order(adj: Sequence[int], cand: int):
    """Greedy coloring of the candidate mask: (vertices in coloring order, the
    number of colors used up to each vertex, which bounds any clique among it
    and its predecessors, and the mask of each vertex's predecessors)."""
    order = []
    bounds = []
    prefixes = []
    prefix = 0
    mleft = cand
    color = 0
    while mleft:
        color += 1
        avail = mleft
        while avail:
            v = (avail & -avail).bit_length() - 1
            bit = 1 << v
            avail &= ~adj[v] & ~bit
            mleft &= ~bit
            order.append(v)
            bounds.append(color)
            prefixes.append(prefix)
            prefix |= bit
    return order, bounds, prefixes


def _clique_search(adj: Sequence[int], cand: int, best: int, stop: int | None) -> int:
    """The size of a largest clique inside the candidate mask if it exceeds
    best, else best: branch and bound with the greedy coloring bound.  Sizes
    are read at maximal cliques, and the search ends at the first one of size
    >= stop (None: never)."""

    def expand(cand: int, size: int) -> bool:  # True once stop is reached
        nonlocal best
        if cand == 0:
            best = max(best, size)
            return stop is not None and best >= stop
        order, bounds, prefixes = _color_order(adj, cand)
        for i in range(len(order) - 1, -1, -1):
            if size + bounds[i] <= best:
                return False
            v = order[i]
            if expand(cand & adj[v] & prefixes[i], size + 1):
                return True
        return False

    expand(cand, 0)
    return best


def _clique_number(adj: Sequence[int], n: int, stop_at: int | None = None) -> int:
    """Clique number; optionally stops early once a clique of size stop_at is
    found."""
    return _clique_search(adj, (1 << n) - 1, 0, stop_at)


def _exists_clique(adj: Sequence[int], cand: int, need: int) -> bool:
    """Decision: is there a clique of size need inside the candidate mask?"""
    return need <= 0 or _clique_search(adj, cand, need - 1, need) >= need


def _clique_witness(adj: Sequence[int], n: int, size: int) -> list[int]:
    """The lexicographically smallest clique of the given size, which must
    exist; re-checked before returning."""
    witness: list[int] = []
    cand = (1 << n) - 1
    while len(witness) < size:
        for v in bits(cand):
            rest = cand & adj[v]
            if _exists_clique(adj, rest, size - len(witness) - 1):
                witness.append(v)
                cand = rest
                break
        else:
            raise AssertionError("witness extraction failed")
    for i, u in enumerate(witness):
        if any(not adj[u] >> v & 1 for v in witness[i + 1 :]):
            raise AssertionError("clique witness is not a clique")
    return witness


def max_clique(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Clique number plus the lexicographically smallest maximum clique."""
    omega = _clique_number(g.adj, g.n)
    return omega, tuple(_clique_witness(g.adj, g.n, omega))


# -- Seidel matrices and equiangular sets -------------------------------------


# an int8 byte of a Seidel row -> its digit in the row's -1 mask (0xff is -1)
_MINUS_ONE_DIGITS = bytes.maketrans(b"\xff\x00\x01", b"100")


def _first_fault(rows) -> str:
    """Why int rows that failed a whole-row test are not a Seidel matrix: the
    first bad entry row by row, the diagonal, then j > i, symmetry before +-1."""
    for i, (row, col) in enumerate(zip(rows, zip(*rows))):
        if row[i] != 0:
            return "diagonal must be zero"
        upper, mirror = tuple(row[i + 1 :]), col[i + 1 :]
        if upper != mirror or upper.count(1) + upper.count(-1) != len(upper):
            j = next(j for j, x, y in zip(count(i + 1), upper, mirror) if x != y or x not in (1, -1))
            if row[j] != col[j]:
                return f"not symmetric at ({i},{j})"
            return f"entry {row[j]!r} at ({i},{j}) is not +-1"
    raise AssertionError("no faulty entry in rows that failed a whole-row test")


@dataclass(frozen=True)
class SeidelMatrix:
    """Integer symmetric matrix with zero diagonal and +-1 off-diagonal; its
    Seidel graph (the -1 entries as row masks) is built once, on validation."""

    rows: tuple[tuple[int, ...], ...]
    _graph: Graph = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = self.rows
        n = len(rows)
        if n < 1 or any(len(r) != n for r in rows):
            raise ValueError("square matrix required")
        if set(map(type, chain.from_iterable(rows))) != {int}:
            raise ValueError("entries must be integers")
        if all(row[i] == 0 and row.count(1) + row.count(-1) == n - 1 for i, row in enumerate(rows)):
            masks = tuple(int(array("b", row).tobytes().translate(_MINUS_ONE_DIGITS)[::-1], 2)
                          for row in rows)  # bit j of mask i: A_ij == -1
            try:
                object.__setattr__(self, "_graph", Graph(n, masks))  # checks symmetry
                return
            except ValueError:
                pass
        raise ValueError(_first_fault(rows))

    @property
    def n(self) -> int:
        return len(self.rows)

    @classmethod
    def from_graph(cls, g: Graph) -> "SeidelMatrix":
        # A = J - I - 2 Adj: edges carry -1
        span = range(g.n)
        return cls(tuple(tuple(0 if i == j else -1 if g.has_edge(i, j) else 1 for j in span)
                         for i in span))

    def graph(self) -> Graph:
        return self._graph


@dataclass(frozen=True)
class SwitchingOp:
    """Sign flips on a vertex subset combined with a relabeling permutation;
    perm[i] gives the source vertex written to slot i."""

    flips: frozenset[int]
    perm: tuple[int, ...]

    @classmethod
    def identity(cls, n: int) -> "SwitchingOp":
        return cls(frozenset(), tuple(range(n)))

    @classmethod
    def flips_only(cls, flips: Iterable[int], n: int) -> "SwitchingOp":
        return cls(frozenset(flips), tuple(range(n)))

    def sign(self, v: int) -> int:
        return -1 if v in self.flips else 1

    def inverse(self) -> "SwitchingOp":
        n = len(self.perm)
        inv = [0] * n
        for i, s in enumerate(self.perm):
            inv[s] = i
        flips = frozenset(self.perm[f] for f in self.flips)
        return SwitchingOp(flips, tuple(inv))

    def apply(self, seidel: SeidelMatrix) -> SeidelMatrix:
        """sign(i) sign(j) A[perm i][perm j], row i from the source row perm[i]."""
        n = seidel.n
        if len(self.perm) != n:
            raise ValueError("permutation size mismatch")
        signs = [self.sign(v) for v in range(n)]
        negated = [-s for s in signs]
        return SeidelMatrix(tuple(
            tuple(map(mul, map(seidel.rows[p].__getitem__, self.perm),
                      negated if i in self.flips else signs))
            for i, p in enumerate(self.perm)
        ))


def gram_matrix(alpha: Scalar, seidel: SeidelMatrix) -> SymMatrix:
    """The Gram matrix I + alpha*A.  It has three distinct entries, 1, alpha
    and -alpha; each is built once and looked up by the Seidel entry 0, +1 or
    -1, so no entry costs a multiplication."""
    entry = {0: Fraction(1) + 0 * alpha, 1: alpha, -1: -alpha}
    return SymMatrix([[entry[x] for x in row] for row in seidel.rows])


def square_mismatch(seidel: SeidelMatrix, a: int) -> tuple[int, int] | None:
    """The first pair i < j, row by row, at which the Seidel matrix A breaks
    A^2 = aA + (n - 1)I, or None.  The diagonal always holds; off it, with N_i
    the Seidel graph's mask of the -1 entries of row i, (A^2)_ij = n - 2A_ij -
    2|N_i ^ N_j| (rows i and j differ off {i, j} in |N_i ^ N_j| - 1 + A_ij places)."""
    n = seidel.n
    neg = seidel.graph().adj
    for i, (row, m) in enumerate(zip(seidel.rows, neg)):
        for j in range(i + 1, n):
            if 2 * (m ^ neg[j]).bit_count() != n - (a + 2) * row[j]:
                return i, j
    return None


def two_eigenvalue_certificate(alpha: Scalar, seidel: SeidelMatrix) -> PsdCertificate | None:
    """The PSD verdict and rank of I + alpha*A read off A^2 = aA + (n - 1)I, or
    None (n < 3, no such identity, -1/alpha not a root, a*alpha + 2 <= 0).

    The eigenvalues of A are roots of x^2 - ax - (n - 1).  If -1/alpha is one,
    the other is a + 1/alpha; A is diagonalizable and tr A = 0 gives the latter
    the multiplicity m = n / (a*alpha + 2), so I + alpha*A is PSD of rank m
    (eigenvalues 0 and a*alpha + 2 > 0)."""
    n, rows = seidel.n, seidel.rows
    if n < 3:
        return None
    a = rows[0][1] * sum(x * y for x, y in zip(rows[0], rows[1]))  # (A^2)_01 / A_01
    top = a * alpha + 2
    if (1 + a * alpha - (n - 1) * alpha * alpha != 0 or quad_sign(top) <= 0
            or square_mismatch(seidel, a) is not None):
        return None
    m = scalar_floor(n / top)
    if m * top != n or not 0 <= m <= n:
        raise AssertionError(f"multiplicity {format_scalar(n / top)} is not in 0..{n}")
    verdict = linalg.POSITIVE_DEFINITE if m == n else linalg.POSITIVE_SEMIDEFINITE_SINGULAR
    return PsdCertificate(verdict, m, square_coefficient=a)


class EquiangularSet:
    """An equiangular line system: angle alpha in (0,1) plus a Seidel matrix.

    The Gram matrix I + alpha*A is certified positive semidefinite on
    construction; the certificate also fixes the exact rank, read off
    A^2 = aA + (n - 1)I by ``two_eigenvalue_certificate`` when it applies (the
    Witt system, tight frames) and from ``linalg.psd_check`` otherwise.  A
    precomputed certificate may be supplied when the PSD property is inherited
    (switching, principal embeddings), which skips both but keeps the invariant.
    """

    __slots__ = ("alpha", "seidel", "_psd")

    def __init__(
        self,
        alpha: Scalar,
        seidel: SeidelMatrix,
        *,
        psd_certificate: PsdCertificate | None = None,
    ):
        if not isinstance(alpha, QuadExt):
            alpha = Fraction(alpha)
        if quad_sign(alpha) <= 0 or quad_sign(alpha - 1) >= 0:
            raise ValueError("alpha must lie in (0,1)")
        self.alpha = alpha
        self.seidel = seidel
        if psd_certificate is None:
            psd_certificate = two_eigenvalue_certificate(alpha, seidel)
        if psd_certificate is None:
            psd_certificate = linalg.psd_check(self.gram())
            if psd_certificate.verdict == INDEFINITE:
                raise ValueError("Gram matrix I + alpha*A is not positive semidefinite")
        self._psd = psd_certificate

    @property
    def n(self) -> int:
        return self.seidel.n

    def gram(self) -> SymMatrix:
        return gram_matrix(self.alpha, self.seidel)

    @property
    def rank(self) -> int:
        return self._psd.rank

    @property
    def psd_certificate(self) -> PsdCertificate:
        return self._psd

    def to_json(self) -> str:
        return json.dumps(
            {
                "alpha": format_scalar(self.alpha),
                "seidel": [list(r) for r in self.seidel.rows],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "EquiangularSet":
        obj = json.loads(text)
        seidel = SeidelMatrix(tuple(tuple(r) for r in obj["seidel"]))
        return cls(parse_scalar(obj["alpha"]), seidel)

    def __repr__(self):
        return f"EquiangularSet(n={self.n}, alpha={format_scalar(self.alpha)}, rank={self.rank})"


def switch(e: EquiangularSet, op: SwitchingOp) -> EquiangularSet:
    """Conjugate by the switching operation; spectrum, PSD verdict and rank are
    invariant, so the certificate carries over."""
    new = op.apply(e.seidel)
    cert = PsdCertificate(e._psd.verdict, e._psd.rank)
    return EquiangularSet(e.alpha, new, psd_certificate=cert)


def base_size_cap(alpha: Scalar) -> int:
    """The bound K <= 1/alpha + 1."""
    inv = 1 / alpha if isinstance(alpha, QuadExt) else Fraction(1) / Fraction(alpha)
    return scalar_floor(inv) + 1


def _descendant(adj: Sequence[int], w: int) -> list[int]:
    """The descendant of the two-graph at w, from the Seidel graph's rows: the
    other vertices, renumbered in order, with i and j joined when
    A_wi * A_wj * A_ij = -1.  Row i is adj[i] ^ adj[w], complemented when
    A_wi = -1; bits i and w come out 0, and bit w is squeezed out."""
    full = (1 << len(adj)) - 1
    low = (1 << w) - 1
    out = []
    for i, row in enumerate(adj):
        if i != w:
            row ^= adj[w] ^ (full if adj[w] >> i & 1 else 0)
            out.append(row & low | row >> 1 & ~low)
    return out


def base_size(e: EquiangularSet) -> tuple[int, tuple[int, ...], SwitchingOp]:
    """Maximum K with a K-subset switchable to Gram (1+alpha)I - alphaJ.

    A base through a root vertex, switched so the root is Seidel-adjacent to
    everything, is the root plus a clique of the descendant at the root, so
    K = 1 + its clique number.  Scanning all roots covers every base; the
    search stops early at the 1/alpha + 1 cap.
    """
    n = e.n
    if n < 2:
        raise ValueError("base size needs at least two vectors")
    cap = base_size_cap(e.alpha)
    best = 0
    best_base: tuple[int, ...] = ()
    best_op = SwitchingOp.identity(n)
    adj = e.seidel.graph().adj
    for root in range(n):
        desc = _descendant(adj, root)
        omega = _clique_number(desc, n - 1, stop_at=cap - 1)
        if 1 + omega > best:
            best = 1 + omega
            witness = _clique_witness(desc, n - 1, omega)
            best_base = tuple(sorted([root] + [x + (x >= root) for x in witness]))
            flips = (1 << n) - 1 ^ adj[root] ^ 1 << root  # the +1 entries of the root's row
            best_op = SwitchingOp.flips_only(bits(flips), n)
        if best >= cap:
            break
    # check the witness: every base pair is -1 after switching
    rows = e.seidel.rows
    if best < 2 or any(
        best_op.sign(u) * best_op.sign(v) * rows[u][v] != -1
        for i, u in enumerate(best_base) for v in best_base[i + 1 :]
    ):
        raise AssertionError("base witness failed re-check")
    return best, best_base, best_op
