import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equiangular import graphenum
from equiangular.graphenum import ClassSet, attach_vertex, graph_classes, refine_colors


def _nx_graph(adj):
    g = nx.Graph()
    g.add_nodes_from(range(len(adj)))
    g.add_edges_from((v, u) for v, a in enumerate(adj) for u in range(v) if a >> u & 1)
    return g


def _child(adj, nb, k):
    na = [a | ((nb >> i & 1) << k) for i, a in enumerate(adj)]
    na.append(nb)
    return na


def _reference_attach(k, groups):
    """The representative rule as a full refinement followed by col[k] == 0;
    duplicates removed with networkx.is_isomorphic against the kept children
    with the same multiset of (degree, sorted neighbor degrees)."""
    kept = {}  # that multiset -> kept children as networkx graphs
    out = []
    for adj, nbs, payload in groups:
        for nb in nbs:
            na = _child(adj, nb, k)
            if refine_colors(k + 1, na)[k] != 0:
                continue
            g = _nx_graph(na)
            deg = dict(g.degree)
            nbr_degs = tuple(sorted((deg[v], tuple(sorted(deg[u] for u in g[v]))) for v in g))
            same = kept.setdefault(nbr_degs, [])
            if not any(nx.is_isomorphic(g, h) for h in same):
                same.append(g)
                out.append((payload, nb, na))
    return out


def _reference_refine(nv, adj, rounds=3, watch=None):
    """Refinement on explicit signatures (color, sorted neighbor colors)."""
    col = [adj[v].bit_count() for v in range(nv)]
    nbrs = [[u for u in range(nv) if adj[v] >> u & 1] for v in range(nv)]
    for _ in range(rounds):
        sig = [(col[v], tuple(sorted(col[u] for u in nbrs[v]))) for v in range(nv)]
        rankof = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [rankof[s] for s in sig]
        if new == col:
            break
        col = new
        if watch is not None and col[watch]:
            break
    return col


def _random_adj(rng, n, p):
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def _adj_from_edges(n, edge_bits):
    adj = [0] * n
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for (i, j), bit in zip(pairs, edge_bits):
        if bit:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return adj


_GRAPHS = st.integers(1, 12).flatmap(  # (n, the edge bits of a graph on n vertices)
    lambda n: st.tuples(
        st.just(n), st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2)
    )
)


def _attach(k, groups):
    """attach_vertex across the parents of groups, (parent adjacency on k
    vertices, masks, payload), with one shared ClassSet: (payload, nb, child
    adjacency) for each accepted child, in input order."""
    classes = ClassSet(k + 1)
    return [(p, nb, na) for adj, nbs, p in groups for nb, na in attach_vertex(classes, adj, nbs)]


def _groups(parents, k):
    return [(adj, range(1 << k), p) for p, adj in enumerate(parents)]


def test_attach_vertex_matches_full_refinement_on_every_small_class():
    for k in range(1, 7):
        parents = [list(g.adj) for g in graph_classes(k)]
        groups = _groups(parents, k)
        assert _attach(k, groups) == _reference_attach(k, groups), k


def test_attach_vertex_matches_full_refinement_on_random_parents():
    rng = random.Random(20181)
    for k in (7, 8, 9):
        parents = [_random_adj(rng, k, rng.choice((0.2, 0.5, 0.8))) for _ in range(4)]
        parents.append(parents[0][:])  # a repeated parent: every child is a duplicate
        groups = _groups(parents, k)
        assert _attach(k, groups) == _reference_attach(k, groups), k


def test_attach_vertex_takes_any_subset_of_masks_in_the_given_order():
    rng = random.Random(31)
    for k in (4, 6, 8):
        parents = [_random_adj(rng, k, rng.random()) for _ in range(5)]
        groups = [
            (adj, rng.sample(range(1 << k), rng.randint(0, 1 << k)), p)
            for p, adj in enumerate(parents)
        ]
        assert _attach(k, groups) == _reference_attach(k, groups), k


def _automorphic_transpositions(adj):
    """1 << u | 1 << v for each u < v whose transposition leaves adj unchanged."""
    k = len(adj)
    out = []
    for v in range(k):
        for u in range(v):
            perm = list(range(k))
            perm[u], perm[v] = v, u
            if _relabel(adj, perm) == adj:
                out.append(1 << u | 1 << v)
    return out


def _recording_refine(monkeypatch):
    """Patch refine_colors to record every child it is called on."""
    refined = []

    def recording(nv, adj, *args, **kwargs):
        refined.append(list(adj))
        return refine_colors(nv, adj, *args, **kwargs)

    monkeypatch.setattr(graphenum, "refine_colors", recording)
    return refined


def test_degree_rule_refines_exactly_the_children_of_minimum_degree(monkeypatch):
    """The O(1) degree rule of attach_vertex against the direct test (the new
    vertex has no more than the degree of any vertex of the child), followed
    by the twin rule against the direct test (a transposition (u v) that
    leaves adj unchanged, and an earlier mask that passed the degree rule and
    differs from nb by swapping u and v).  Exactly the children that pass
    both reach refine_colors, on every mask."""
    rng = random.Random(9)
    refined = _recording_refine(monkeypatch)
    for k in range(0, 10):
        for _ in range(6 if k else 1):
            adj = _random_adj(rng, k, rng.random())
            autos = _automorphic_transpositions(adj)
            refined.clear()
            _attach(k, [(adj, range(1 << k), None)])
            passed, expect = set(), []
            for nb in range(1 << k):
                if any(a.bit_count() + (nb >> i & 1) < nb.bit_count() for i, a in enumerate(adj)):
                    continue
                if not any((nb & t).bit_count() == 1 and nb ^ t in passed for t in autos):
                    expect.append(_child(adj, nb, k))
                passed.add(nb)
            assert refined == expect, (k, adj)


@settings(max_examples=300, deadline=None)
@given(_GRAPHS)
def test_twin_pairs_are_exactly_the_transpositions_that_are_automorphisms(graph):
    n, edge_bits = graph
    adj = _adj_from_edges(n, edge_bits)
    assert graphenum._twin_pairs(adj) == _automorphic_transpositions(adj)


def _parent_with_twins(rng, k):
    """A random graph on k >= 2 vertices in which some vertex is made a twin
    of another, adjacent to it or not, and sometimes a third made a twin too."""
    adj = _random_adj(rng, k, rng.random())
    for _ in range(rng.randint(1, 2)):
        u, v = rng.sample(range(k), 2)
        for w in range(k):  # make v a twin of u
            if w not in (u, v):
                bit = adj[u] >> w & 1
                adj[v] = adj[v] & ~(1 << w) | bit << w
                adj[w] = adj[w] & ~(1 << v) | bit << v
    return adj


@pytest.mark.parametrize("order", ["binary", "gray", "random subset"])
def test_every_child_the_twin_rule_skips_is_isomorphic_to_an_earlier_one(monkeypatch, order):
    """Each child that passes the degree rule but never reaches refine_colors
    is isomorphic, with the new vertex fixed, to a child of an earlier mask
    of the same parent (networkx).  The rule fires for every k >= 2: the
    complete graph, the first parent, has all its pairs as twins."""
    rng = random.Random(2024)
    refined = _recording_refine(monkeypatch)
    for k in range(1, 10):
        skipped = 0
        complete = [(1 << k) - 1 & ~(1 << v) for v in range(k)]  # every pair is a twin pair
        for adj in [complete, *(_parent_with_twins(rng, k) for _ in range(4 if k >= 2 else 0))]:
            masks = list(range(1 << k))
            if order == "gray":
                masks = [g ^ (g >> 1) for g in masks]
            elif order == "random subset":  # all masks of the complete graph, shuffled
                masks = rng.sample(masks, 1 << k if adj is complete else rng.randint(1 << k - 1, 1 << k))
            refined.clear()
            _attach(k, [(adj, masks, None)])
            reached = {tuple(na) for na in refined}
            earlier = []
            for nb in masks:
                na = _child(adj, nb, k)
                g = _nx_graph(na)
                nx.set_node_attributes(g, {v: v == k for v in g}, "new")
                degree_ok = all(a.bit_count() >= nb.bit_count() for a in na)
                if degree_ok and tuple(na) not in reached:
                    skipped += 1
                    assert any(
                        nx.is_isomorphic(g, h, node_match=lambda x, y: x["new"] == y["new"])
                        for h in earlier
                    ), (k, adj, nb)
                earlier.append(g)
        assert skipped or k == 1, (order, k)


@settings(max_examples=300, deadline=None)
@given(_GRAPHS)
def test_refine_colors_matches_tuple_signatures(graph):
    """Every rounds count and every watched vertex, on up to 12 vertices (the
    spread table covers up to 10, rows are spread one by one above)."""
    n, edge_bits = graph
    adj = _adj_from_edges(n, edge_bits)
    for rounds in range(n + 2):
        for watch in [None, *range(n)]:
            assert refine_colors(n, adj, rounds, _watch=watch) == _reference_refine(
                n, adj, rounds, watch
            ), (n, adj, rounds, watch)


def test_watched_refinement_stops_only_for_vertices_outside_color_zero():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(1, 11)
        adj = _random_adj(rng, n, rng.random())
        full = refine_colors(n, adj)
        for w in range(n):
            col = refine_colors(n, adj, _watch=w)
            if full[w] == 0:
                assert col == full
            else:
                assert col[w] != 0


def _relabel(adj, perm):
    """The graph with vertex v renamed perm[v]."""
    out = [0] * len(adj)
    for v, a in enumerate(adj):
        for u in range(len(adj)):
            if a >> u & 1:
                out[perm[v]] |= 1 << perm[u]
    return out


def test_class_set_holds_one_int_per_class():
    rng = random.Random(7)
    for n in range(1, 8):
        graphs = [list(g.adj) for g in graph_classes(n)]
        classes = ClassSet(n)
        for adj in graphs:
            assert classes.add(adj, refine_colors(n, adj))
        for adj in graphs:  # a relabelled copy is found in the store
            perm = list(range(n))
            rng.shuffle(perm)
            copy = _relabel(adj, perm)
            assert not classes.add(copy, refine_colors(n, copy))
        stored = [*classes.first.values(), *(x for b in classes.rest.values() for x in b)]
        assert len(stored) == len(graphs)
        assert all(type(x) is int for x in stored)
        assert all(type(key) is int for key in [*classes.first, *classes.rest])
        if n >= 6:  # C6 and two triangles share every refinement invariant
            assert classes.rest


def _signature_invariant(adj, col):
    """The sorted (color, sorted neighbor colors) pairs of the vertices."""
    n = len(adj)
    return tuple(sorted((col[v], tuple(sorted(col[u] for u in range(n) if adj[v] >> u & 1))) for v in range(n)))


def _histogram_invariant(adj, col):
    """The sorted colors and the sorted color pairs of the edges."""
    n = len(adj)
    edge_colors = sorted(
        tuple(sorted((col[v], col[u]))) for v in range(n) for u in range(v) if adj[v] >> u & 1
    )
    return tuple(sorted(col)), tuple(edge_colors)


def test_class_set_keys_are_equal_exactly_when_the_invariants_are():
    """Keys match the sorted signature pairs one to one, and determine the
    color histogram and the edge counts per color pair, so they separate
    every pair of graphs those separate."""
    for n in range(1, 9):
        classes = ClassSet(n)
        by_invariant, by_key = {}, {}
        for g in graph_classes(n):
            adj = list(g.adj)
            col = refine_colors(n, adj)
            key = classes._key(adj, col)
            assert by_invariant.setdefault(_signature_invariant(adj, col), key) == key
            assert by_key.setdefault(key, _histogram_invariant(adj, col)) == _histogram_invariant(adj, col)
        assert len(by_key) == len(by_invariant), n


def test_class_set_key_is_invariant_under_relabelling():
    rng = random.Random(11)
    for _ in range(400):
        n = rng.randint(1, 12)
        adj = _random_adj(rng, n, rng.random())
        perm = list(range(n))
        rng.shuffle(perm)
        copy = _relabel(adj, perm)
        classes = ClassSet(n)
        assert classes._key(adj, refine_colors(n, adj)) == classes._key(copy, refine_colors(n, copy))
