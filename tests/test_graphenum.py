import random

from equiangular.graphenum import ClassSet, attach_vertex, graph_classes, refine_colors


def _reference_attach(k, children):
    """The representative rule as a full refinement followed by col[k] == 0."""
    classes = ClassSet(k + 1)
    out = []
    for adj, nb, payload in children:
        na = [a | ((nb >> i & 1) << k) for i, a in enumerate(adj)]
        na.append(nb)
        col = refine_colors(k + 1, na)
        if col[k] == 0 and classes.add(na, col):
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
