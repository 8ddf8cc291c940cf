import random

import networkx as nx

from equiangular.graphenum import ClassSet, attach_vertex, graph_classes, refine_colors


def _nx_graph(adj):
    g = nx.Graph()
    g.add_nodes_from(range(len(adj)))
    g.add_edges_from((v, u) for v, a in enumerate(adj) for u in range(v) if a >> u & 1)
    return g


def _reference_attach(k, children):
    """The representative rule as a full refinement followed by col[k] == 0;
    duplicates removed with networkx.is_isomorphic against the kept children
    with the same multiset of (degree, sorted neighbor degrees)."""
    kept = {}  # that multiset -> kept children as networkx graphs
    out = []
    for adj, nb, payload in children:
        na = [a | ((nb >> i & 1) << k) for i, a in enumerate(adj)]
        na.append(nb)
        if refine_colors(k + 1, na)[k] != 0:
            continue
        g = _nx_graph(na)
        deg = dict(g.degree)
        nbr_degs = tuple(sorted((deg[v], tuple(sorted(deg[u] for u in g[v]))) for v in g))
        same = kept.setdefault(nbr_degs, [])
        if not any(nx.is_isomorphic(g, h) for h in same):
            same.append(g)
            out.append((payload, na))
    return out


def _random_adj(rng, n, p):
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def _children(parents, k):
    return [(adj, nb, (p, nb)) for p, adj in enumerate(parents) for nb in range(1 << k)]


def test_attach_vertex_matches_full_refinement_on_every_small_class():
    for k in range(1, 7):
        parents = [list(g.adj) for g in graph_classes(k)]
        children = _children(parents, k)
        assert list(attach_vertex(k, children)) == _reference_attach(k, children), k


def test_attach_vertex_matches_full_refinement_on_random_parents():
    rng = random.Random(20181)
    for k in (7, 8, 9):
        parents = [_random_adj(rng, k, rng.choice((0.2, 0.5, 0.8))) for _ in range(4)]
        parents.append(parents[0][:])  # a repeated parent: every child is a duplicate
        children = _children(parents, k)
        assert list(attach_vertex(k, children)) == _reference_attach(k, children), k


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


def test_class_set_keys_are_equal_exactly_when_the_invariants_are():
    for n in range(1, 8):
        classes = ClassSet(n)
        by_invariant, keys = {}, set()
        for g in graph_classes(n):
            adj = list(g.adj)
            col = refine_colors(n, adj)
            edge_colors = sorted(
                tuple(sorted((col[v], col[u]))) for v in range(n) for u in range(v) if adj[v] >> u & 1
            )
            invariant = (tuple(sorted(col)), tuple(edge_colors))
            key = classes._key(adj, col)
            assert by_invariant.setdefault(invariant, key) == key
            keys.add(key)
        assert len(keys) == len(by_invariant), n
