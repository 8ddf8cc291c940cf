"""Isomorphism-class enumeration of small graphs by layered extension.

Each n-vertex class is grown from an (n-1)-vertex class by attaching one new
vertex (``attach_vertex``, one ladder step); duplicates are removed with
color-refinement invariants plus an exact backtracking isomorphism test.  Two
filters keep the candidate stream small:

* a completeness-preserving representative rule (the new vertex must land in
  the minimum refinement color: deleting a minimum-color vertex of any target
  class reaches a stored parent, so every class is still produced), and
* hereditary pruning by the caller, which chooses the children it offers (the
  saturation search offers only positive-definite Gram extensions: principal
  submatrices of PD matrices are PD, so pruned parents cannot have unpruned
  children).

The representative rule is tested cheaply first.  Refinement starts from the
degrees and each round orders vertices by their previous color first, so the
minimum-color class can only shrink from one round to the next: a new vertex
of more than the minimum degree is rejected by popcounts alone, and the
refinement of any other child stops as soon as the new vertex leaves color 0.
An accepted child has run every round, so its colors are those of a full
``refine_colors`` call.

Adjacency is the bitmask-row form of seidel.Graph.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from typing import Iterable, Iterator, Sequence

from equiangular.seidel import Graph, bits

AdjList = list[int]


def refine_colors(
    nv: int, adj: Sequence[int], rounds: int = 3, *, _watch: int | None = None
) -> list[int]:
    """Iterated neighborhood color refinement; colors are canonical integers
    (sorted-signature rank), so results are machine-independent.

    With ``_watch`` (the representative rule of ``attach_vertex``), the
    refinement stops after the first round that moves vertex ``_watch`` out
    of color 0 and returns that round's colors; a vertex out of the minimum
    color never returns to it, so only ``col[_watch] != 0`` is meaningful
    then.  Otherwise every round runs.

    A signature is (color, sorted neighbor colors).  Vertices of one color
    have one degree, and among equal-length sorted tuples the order is that
    of the neighbor color counts (count of color 0 first) reversed.  So the
    signature is encoded as color*top - sum of weight[c] over the neighbor
    colors c, with weight[c] = 2^(shift*(nv-1-c)) exceeding every count
    below it; the integers sort exactly like the tuples, without a sort per
    vertex."""
    span = range(nv)
    col = [adj[v].bit_count() for v in span]
    nbrs = [[u for u in span if adj[v] >> u & 1] for v in span]
    shift = nv.bit_length()
    weight = [1 << shift * (nv - 1 - c) for c in span]
    top = 1 << shift * nv
    for _ in range(rounds):
        sig = [c * top - sum([weight[col[u]] for u in nb]) for c, nb in zip(col, nbrs)]
        rankof = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [rankof[s] for s in sig]
        if new == col:
            break
        col = new
        if _watch is not None and col[_watch]:
            break
    return col


def invariant_key(nv: int, adj: Sequence[int], col: Sequence[int] | None = None):
    if col is None:
        col = refine_colors(nv, adj)
    hist = tuple(sorted(col))
    edge_cols = tuple(
        sorted(
            tuple(sorted((col[v], col[u])))
            for v in range(nv)
            for u in bits(adj[v])
            if u > v
        )
    )
    return (nv, hist, edge_cols)


def find_isomorphism(
    nv: int,
    a1: Sequence[int],
    a2: Sequence[int],
    col1: Sequence[int] | None = None,
    col2: Sequence[int] | None = None,
) -> list[int] | None:
    """Backtracking isomorphism a1 -> a2 guided by refinement colors; returns
    the vertex mapping or None."""
    if col1 is None:
        col1 = refine_colors(nv, a1)
    if col2 is None:
        col2 = refine_colors(nv, a2)
    if sorted(col1) != sorted(col2):
        return None
    counts = Counter(col1)
    order = sorted(range(nv), key=lambda v: (counts[col1[v]], col1[v], v))
    targets = [[u for u in range(nv) if col2[u] == col1[v]] for v in order]
    mapping = [-1] * nv
    used = 0

    def bt(k: int) -> bool:
        nonlocal used
        if k == nv:
            return True
        v = order[k]
        av = a1[v]
        for u in targets[k]:
            if used >> u & 1:
                continue
            a2u = a2[u]
            ok = True
            for kk in range(k):
                w = order[kk]
                if (av >> w & 1) != (a2u >> mapping[w] & 1):
                    ok = False
                    break
            if ok:
                mapping[v] = u
                used |= 1 << u
                if bt(k + 1):
                    return True
                used &= ~(1 << u)
                mapping[v] = -1
        return False

    return mapping if bt(0) else None


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    return g1.n == g2.n and find_isomorphism(g1.n, g1.adj, g2.adj) is not None


class ClassSet:
    """Deduplicated collection of graph classes at one vertex count."""

    def __init__(self, nv: int):
        self.nv = nv
        self.buckets: dict = {}
        self.members: list[AdjList] = []

    def add(self, adj: AdjList, col: Sequence[int]) -> bool:
        """Insert unless isomorphic to a stored class; returns True if new."""
        key = invariant_key(self.nv, adj, col)
        bucket = self.buckets.setdefault(key, [])
        for other, ocol in bucket:
            if find_isomorphism(self.nv, adj, other, col, ocol) is not None:
                return False
        bucket.append((adj, col))
        self.members.append(adj)
        return True


def attach_vertex(k: int, children: Iterable[tuple]) -> Iterator[tuple]:
    """One ladder step.  ``children`` yields (parent adjacency on k vertices,
    neighbor mask nb of the new vertex k, payload); yields (payload, child
    adjacency) for each child that obeys the representative rule and starts a
    new (k+1)-vertex isomorphism class, in input order."""
    classes = ClassSet(k + 1)
    for adj, nb, payload in children:
        deg = nb.bit_count()
        if any(a.bit_count() + (nb >> i & 1) < deg for i, a in enumerate(adj)):
            continue  # representative rule, by degree: color 0 has minimum degree
        na = [a | ((nb >> i & 1) << k) for i, a in enumerate(adj)]
        na.append(nb)
        col = refine_colors(k + 1, na, _watch=k)
        if col[k] != 0:
            continue  # representative rule: new vertex must be of minimum color
        if classes.add(na, col):
            yield payload, na


def extend_classes(parents: Iterable[AdjList], k: int) -> list[AdjList]:
    """All (k+1)-vertex classes reachable by adding one vertex to the parents."""
    children = ((adj, nb, None) for adj in parents for nb in range(1 << k))
    return [na for _, na in attach_vertex(k, children)]


def graph_classes(n: int) -> list[Graph]:
    """All isomorphism classes of graphs on n vertices (1, 2, 4, 11, 34, 156,
    1044, 12346, ... for n = 1, 2, 3, ...)."""
    classes: list[AdjList] = [[0]]
    for k in range(1, n):
        classes = extend_classes(classes, k)
    return [Graph(n, tuple(adj)) for adj in classes]


@cache
def count_graph_classes(n: int) -> int:
    """len(graph_classes(n)), enumerated once per process."""
    return len(graph_classes(n))
