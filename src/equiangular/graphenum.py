"""Isomorphism-class enumeration of small graphs by layered extension.

Each n-vertex class is grown from an (n-1)-vertex class by attaching one new
vertex (``attach_vertex``, per parent, into a ``ClassSet`` shared by a ladder
step); duplicates are removed with color-refinement invariants plus an exact
backtracking isomorphism test.  Three filters keep the candidate stream small:

* a completeness-preserving representative rule (the new vertex must land in
  the minimum refinement color: deleting a minimum-color vertex of any target
  class reaches a stored parent, so every class is still produced),
* an orbit rule: a child that an automorphism of its parent maps onto the
  child of an earlier mask of that parent is skipped before refinement,
  since the two are isomorphic with the new vertex fixed.  The
  automorphisms are the parent's twin swaps and the maps the duplicate
  filter finds between two children of the parent (see ``attach_vertex``;
  the nauty form of the idea is McKay and Piperno, "Practical graph
  isomorphism, II", J. Symbolic Comput. 2014), and
* hereditary pruning by the caller, which chooses the children it offers (the
  saturation search offers only positive-definite Gram extensions: principal
  submatrices of PD matrices are PD, so pruned parents cannot have unpruned
  children).

The representative rule is tested cheaply first.  Refinement starts from the
degrees and each round orders vertices by their previous color first, so the
minimum-color class can only shrink from one round to the next: a new vertex
of more than the minimum degree is rejected in O(1) per child, from masks of
the parent's low-degree vertices, and the refinement of any other child stops
as soon as the new vertex leaves color 0.  An accepted child has run every
round, so its colors are those of a full ``refine_colors`` call.

Refinement and the duplicate filter's key are big-int arithmetic over one
table per vertex count nv: spread[mask] holds a 1 at bit width*v for each
vertex v of mask (width = nv.bit_length() * nv).  Weighting each row's spread
by its vertex's color weight and summing, nv multiply-adds, leaves in field v
the weighted count of v's neighbor colors; see ``refine_colors``.

The duplicate filter (``ClassSet``) holds one int per class, its adjacency
and colors packed together, under a key that packs the sorted final-color
signatures into one int; the colors are stored, never recomputed, for the
isomorphism tests, and the signatures come from the refinement's last round
when its colors are stable.  A ladder step thus needs the parent level plus
one int per new class.

Adjacency is the bitmask-row form of seidel.Graph.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from operator import lshift, mul
from typing import Iterable, Sequence

from equiangular.seidel import Graph, bits

AdjList = list[int]

SPREAD_TABLE_VERTICES = 10  # spread tables are built up to 2^10 entries


@cache
def _layout(nv: int) -> tuple[int, int, list[int], list[int], list[int]]:
    """(width, field mask, field shifts, color weights, spread table) for nv
    vertices, built on first use.  weight[c] = 2^(shift*(nv-1-c)) with
    shift = nv.bit_length(): a vertex has fewer than 2^shift neighbors of any
    color, so the weighted counts of distinct colors never overlap and a
    field of width = shift*nv bits holds their sum.  Above
    SPREAD_TABLE_VERTICES no table is built and ``_spread_rows`` spreads each
    row bit by bit."""
    shift = nv.bit_length()
    width = shift * nv
    shifts = [width * v for v in range(nv)]
    spread = [0]
    if nv <= SPREAD_TABLE_VERTICES:
        for s in shifts:  # the masks with bit v set follow those without it
            spread += [x + (1 << s) for x in spread]
    weight = [1 << shift * (nv - 1 - c) for c in range(nv)]
    return width, (1 << width) - 1, shifts, weight, spread


def _spread_rows(nv: int, adj: Sequence[int]) -> list[int]:
    """spread[a] for each adjacency row a."""
    width, _, _, _, spread = _layout(nv)
    if nv <= SPREAD_TABLE_VERTICES:
        return [spread[a] for a in adj]
    return [sum([1 << width * v for v in bits(a)]) for a in adj]


def _signatures(nv: int, rows: Sequence[int], col: Sequence[int]) -> list[int]:
    """((col[v] + 1) << width) - (weighted count of v's neighbor colors), per
    vertex v, from one multiply-add per spread row."""
    width, fmask, shifts, weight, _ = _layout(nv)
    packed = sum(map(mul, [weight[c] for c in col], rows))
    return [((c + 1) << width) - (packed >> s & fmask) for c, s in zip(col, shifts)]


def refine_colors(
    nv: int,
    adj: Sequence[int],
    rounds: int = 3,
    *,
    _watch: int | None = None,
    _sigs: list[int] | None = None,
) -> list[int]:
    """Iterated neighborhood color refinement; colors are canonical integers
    (sorted-signature rank), so results are machine-independent.

    With ``_watch`` (the representative rule of ``attach_vertex``), the
    refinement stops after the first round that moves vertex ``_watch`` out
    of color 0 and returns that round's colors; a vertex out of the minimum
    color never returns to it, so only ``col[_watch] != 0`` is meaningful
    then.  Otherwise every round runs.  When the colors come out stable,
    the signatures of their last round are appended to ``_sigs`` (the
    duplicate filter's key is built from them, see ``ClassSet.add``).

    A signature is (color, sorted neighbor colors).  Vertices of one color
    have one degree, and among equal-length sorted tuples the order is that
    of the neighbor color counts (count of color 0 first) reversed.  So the
    signature is encoded as (color + 1) << width minus the sum of weight[c]
    over the neighbor colors c (see ``_layout``): the integers sort exactly
    like the tuples.  All nv sums of a round come from one packed int,
    sum over u of weight[col[u]] * spread[adj[u]], whose field v is v's sum;
    no neighbor list is built and nothing is sorted per vertex."""
    col = [a.bit_count() for a in adj]
    rows = _spread_rows(nv, adj)
    for _ in range(rounds):
        sig = _signatures(nv, rows, col)
        rankof = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [rankof[s] for s in sig]
        if new == col:
            if _sigs is not None:
                _sigs += sig  # the signatures of the returned colors
            break
        col = new
        if _watch is not None and col[_watch]:
            break
    return col


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


class ClassSet:
    """Deduplicated collection of graph classes at one vertex count, held as
    one int per class.

    A class is stored as its adjacency rows (``nv`` bits each) followed by its
    refinement colors (enough bits each for a color below ``nv``), packed
    into one int.  It is filed under its key, itself one int: the sorted
    signatures (color, neighbor color counts) of its final colors, computed
    as in ``refine_colors``, in fixed-width fields.  The key is invariant
    under relabelling and determines the color histogram and the number of
    edges joining each pair of colors.  The first class of a key is held in
    ``first``, any further class with that key in ``rest``; a new graph is
    compared, by ``find_isomorphism`` on the unpacked rows and colors, only
    with the classes of its key."""

    def __init__(self, nv: int):
        self.nv = nv
        self.first: dict[int, int] = {}
        self.rest: dict[int, list[int]] = {}
        cbits = max(nv - 1, 1).bit_length()
        self._row_mask = (1 << nv) - 1
        self._col_mask = (1 << cbits) - 1
        self._row_shifts = [nv * v for v in range(nv)]
        self._col_shifts = [nv * nv + cbits * v for v in range(nv)]
        sbits = _layout(nv)[0] + nv.bit_length()  # a signature is at most nv << width
        self._sig_shifts = [sbits * v for v in range(nv)]

    def _key(self, adj: AdjList, col: Sequence[int], sigs: Sequence[int] = ()) -> int:
        if not sigs:
            sigs = _signatures(self.nv, _spread_rows(self.nv, adj), col)
        return sum(map(lshift, sorted(sigs), self._sig_shifts))

    def _unpack(self, packed: int) -> tuple[AdjList, list[int]]:
        rows, cols = self._row_mask, self._col_mask
        return (
            [packed >> s & rows for s in self._row_shifts],
            [packed >> s & cols for s in self._col_shifts],
        )

    def add(
        self,
        adj: AdjList,
        col: Sequence[int],
        *,
        _sigs: Sequence[int] = (),
        _hit: list | None = None,
    ) -> bool:
        """Insert unless isomorphic to a stored class; returns True if new.
        ``_sigs``, when given, are the signatures of col (``refine_colors``'s
        ``_sigs``) and spare recomputing them for the key.  On a duplicate,
        (the isomorphism adj -> stored, the stored adjacency) is appended to
        ``_hit`` (``attach_vertex`` reads parent automorphisms off it)."""
        key = self._key(adj, col, _sigs)
        stored = self.first.get(key)
        if stored is not None:
            for other in [stored, *self.rest.get(key, ())]:
                oadj, ocol = self._unpack(other)
                iso = find_isomorphism(self.nv, adj, oadj, col, ocol)
                if iso is not None:
                    if _hit is not None:
                        _hit.append((iso, oadj))
                    return False
        packed = sum(map(lshift, adj, self._row_shifts)) + sum(
            map(lshift, col, self._col_shifts)
        )
        if stored is None:
            self.first[key] = packed
        else:
            self.rest.setdefault(key, []).append(packed)
        return True


def _twin_pairs(adj: Sequence[int]) -> list[int]:
    """The masks 1 << u | 1 << v of the twins u < v, N(u) - {v} = N(v) - {u}:
    exactly the pairs whose transposition (u v) is an automorphism."""
    return [
        1 << u | 1 << v
        for v in range(len(adj))
        for u in range(v)
        if not (adj[u] ^ adj[v]) & ~(1 << u | 1 << v)
    ]


def _mask_images(perm: Sequence[int], h: int) -> tuple[list[int], list[int]]:
    """(lo, hi) with lo[m & (1 << h) - 1] | hi[m >> h] the image of the vertex
    mask m under the vertex map v -> perm[v]."""
    lo, hi = [0], [0]
    for t, part in ((lo, perm[:h]), (hi, perm[h:])):
        for u in part:
            t += [x | 1 << u for x in t]
    return lo, hi


def attach_vertex(
    classes: ClassSet, adj: Sequence[int], nbs: Iterable[int]
) -> list[tuple[int, AdjList]]:
    """One parent's part of a ladder step: (nb, child adjacency) for each
    neighbor mask nb of the new vertex k, in the order of ``nbs``, whose
    child of ``adj`` (k vertices) obeys the representative rule and starts a
    new class in ``classes``, the caller's duplicate filter on k + 1
    vertices shared by every parent of the step (the child is added to it).

    The degree form of the rule costs O(1) per child: with below[t] the mask
    of the parent's vertices of degree < t, a new vertex of degree deg > 0
    has the child's minimum degree exactly when no vertex has degree below
    deg - 1 (below[deg - 1] == 0) and every vertex of degree deg - 1 gains
    the new vertex (below[deg] & ~nb == 0).

    Orbit rule: an automorphism s of the parent, with the new vertex fixed,
    maps the child of a mask nb onto the child of s(nb).  The degree rule,
    the color rule and the dedup each give isomorphic children (new vertex
    fixed) one verdict, so a child is skipped before refinement when s(nb)
    already passed the degree rule for a known s: the output is the same
    for any masks in any order.  The known automorphisms are the twin
    transpositions (u v) of ``_twin_pairs`` and every map the dedup finds
    from a child onto a stored child of this same parent with k fixed,
    whose restriction is an automorphism of the parent (kept with its
    inverse); the search builds no automorphism group of its own."""
    k = len(adj)
    below = [0] * (k + 2)
    for v, a in enumerate(adj):
        for t in range(a.bit_count() + 1, k + 2):
            below[t] |= 1 << v
    h, parent, rows = k // 2, list(adj), (1 << k) - 1
    autos = {}  # each known automorphism -> its image tables (_mask_images)
    for t in _twin_pairs(adj):
        swap = list(range(k))
        u, v = (t & -t).bit_length() - 1, t.bit_length() - 1
        swap[u], swap[v] = v, u
        autos[tuple(swap)] = _mask_images(swap, h)
    low = (1 << h) - 1
    seen = set()  # the masks that passed the degree rule
    out = []
    for nb in nbs:
        deg = nb.bit_count()
        if deg and (below[deg - 1] or below[deg] & ~nb):
            continue  # representative rule, by degree: color 0 has minimum degree
        known = any(lo[nb & low] | hi[nb >> h] in seen for lo, hi in autos.values())
        seen.add(nb)
        if known:
            continue  # an automorphism maps this child onto an earlier one
        na = [a | ((nb >> i & 1) << k) for i, a in enumerate(adj)]
        na.append(nb)
        sigs = []
        col = refine_colors(k + 1, na, _watch=k, _sigs=sigs)
        if col[k] != 0:
            continue  # representative rule: new vertex must be of minimum color
        hit = []
        if classes.add(na, col, _sigs=sigs, _hit=hit):
            out.append((nb, na))
        elif hit:
            iso, other = hit[0]
            perm = tuple(iso[:k])  # an automorphism of the parent, if the guard holds
            if iso[k] == k and perm not in autos and [a & rows for a in other[:k]] == parent:
                inv = [0] * k
                for v, u in enumerate(perm):
                    inv[u] = v
                for known_map in (perm, tuple(inv)):  # an involution is its own inverse
                    if known_map not in autos:
                        autos[known_map] = _mask_images(known_map, h)
    return out


def graph_classes(n: int) -> list[Graph]:
    """All isomorphism classes of graphs on n vertices (1, 2, 4, 11, 34, 156,
    1044, 12346, ... for n = 1, 2, 3, ...): the classes on k + 1 vertices are
    those reachable by adding one vertex, by every mask, to the classes on k."""
    classes: list[AdjList] = [[0]]
    for k in range(1, n):
        found = ClassSet(k + 1)
        classes = [na for adj in classes for _, na in attach_vertex(found, adj, range(1 << k))]
    return [Graph(n, tuple(adj)) for adj in classes]


@cache
def count_graph_classes(n: int) -> int:
    """len(graph_classes(n)), enumerated once per process."""
    return len(graph_classes(n))
