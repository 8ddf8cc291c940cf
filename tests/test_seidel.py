import itertools
import random
from fractions import Fraction
from itertools import chain

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from equiangular import saturate
from equiangular.constructions import conference_etf, paley_conference, simplex_base
from equiangular.exactnum import parse_scalar
from equiangular.linalg import (
    INDEFINITE,
    POSITIVE_DEFINITE,
    POSITIVE_SEMIDEFINITE_SINGULAR,
    psd_check,
)
from equiangular.seidel import (
    EquiangularSet,
    Graph,
    SeidelMatrix,
    SwitchingOp,
    _clique_number,
    _clique_witness,
    _descendant,
    _exists_clique,
    base_size,
    bits,
    base_size_cap,
    graph_from_graph6,
    gram_matrix,
    graph_to_graph6,
    max_clique,
    square_mismatch,
    switch,
    two_eigenvalue_certificate,
)


def random_seidel(rng, n):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = rng.choice((1, -1))
    return SeidelMatrix(tuple(tuple(r) for r in rows))


def random_op(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    flips = frozenset(v for v in range(n) if rng.random() < 0.5)
    return SwitchingOp(flips, tuple(perm))


def test_seidel_graph_convention():
    # all inner products +alpha: empty Seidel graph
    rows = ((0, 1, 1), (1, 0, 1), (1, 1, 0))
    e = EquiangularSet(Fraction(1, 5), SeidelMatrix(rows))
    assert e.seidel.graph().edge_count() == 0
    # the K-base Gram (1+a)I - aJ is the complete graph
    k5 = simplex_base(5, Fraction(1, 5))
    g = k5.seidel.graph()
    assert g.edge_count() == 10 and all(g.degree(v) == 4 for v in range(5))


@pytest.mark.parametrize("rows", [((0, True), (True, 0)), ((0.0, 1), (1, 0)), ((0, -1.0), (-1.0, 0))])
def test_seidel_matrix_rejects_non_integer_entries(rows):
    with pytest.raises(ValueError, match="integers"):
        SeidelMatrix(rows)


def test_switch_identity_and_k2_flip():
    e = simplex_base(2, Fraction(1, 3))
    assert switch(e, SwitchingOp.identity(2)).seidel == e.seidel
    # flipping one endpoint of an edge yields the empty graph on 2 vertices
    flipped = switch(e, SwitchingOp.flips_only({0}, 2))
    assert flipped.seidel.graph().edge_count() == 0


def test_switching_invariants_random():
    rng = random.Random(20)
    for _ in range(40):
        n = rng.randrange(2, 11)
        a = random_seidel(rng, n)
        op = random_op(rng, n)
        b = op.apply(a)
        assert sympy.Matrix(a.rows).charpoly() == sympy.Matrix(b.rows).charpoly()
        assert op.inverse().apply(b) == a
        # double flip with identity permutation is the identity
        fl = SwitchingOp.flips_only({v for v in range(n) if rng.random() < 0.5}, n)
        assert fl.apply(fl.apply(a)) == a


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 30).flatmap(lambda n: st.tuples(
    st.lists(st.sampled_from((1, -1)), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2),
    st.permutations(range(n)),
    st.sets(st.integers(0, n - 1)),
)))
def test_switching_apply_matches_its_entrywise_definition(case):
    upper, perm, flips = case
    n = len(perm)
    entries = iter(upper)
    rows = [[0] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        rows[i][j] = rows[j][i] = next(entries)
    op = SwitchingOp(frozenset(flips), tuple(perm))
    sign = [-1 if v in flips else 1 for v in range(n)]
    expected = tuple(tuple(sign[i] * sign[j] * rows[perm[i]][perm[j]] for j in range(n))
                     for i in range(n))
    assert op.apply(SeidelMatrix(tuple(map(tuple, rows)))).rows == expected


def test_switch_preserves_rank_and_psd():
    rng = random.Random(21)
    for _ in range(30):
        n = rng.randrange(2, 9)
        a = random_seidel(rng, n)
        try:
            e = EquiangularSet(Fraction(1, 5), a)
        except ValueError:
            continue
        f = switch(e, random_op(rng, n))
        assert f.rank == e.rank
        assert psd_check(f.gram()).verdict == psd_check(e.gram()).verdict


def switching_normalize(e: EquiangularSet, root: int) -> EquiangularSet:
    """Flip vertices so every inner product with the root is +alpha; idempotent.
    The reference route for the descendant at the root."""
    flips = frozenset(v for v in range(e.n) if v != root and e.seidel.rows[root][v] == -1)
    return switch(e, SwitchingOp.flips_only(flips, e.n))


def test_switching_normalize():
    rng = random.Random(22)
    for _ in range(20):
        n = 8
        a = random_seidel(rng, n)
        try:
            e = EquiangularSet(Fraction(1, 9), a)
        except ValueError:
            continue
        root = rng.randrange(n)
        norm = switching_normalize(e, root)
        assert all(norm.seidel.rows[root][v] == 1 for v in range(n) if v != root)
        # idempotent
        again = switching_normalize(norm, root)
        assert again.seidel == norm.seidel
        # normalized Seidel graph = a 7-vertex graph plus one isolated vertex
        g = norm.seidel.graph()
        assert g.degree(root) == 0


def test_max_clique_trivial():
    assert max_clique(Graph.empty(5)) == (1, (0,))
    assert max_clique(Graph.complete(7)) == (7, tuple(range(7)))


def exhaustive_clique(g):
    best = (0, ())
    for r in range(1, g.n + 1):
        for sub in itertools.combinations(range(g.n), r):
            if all(g.has_edge(u, v) for u, v in itertools.combinations(sub, 2)):
                if r > best[0]:
                    best = (r, sub)
    return best


def test_max_clique_matches_exhaustive():
    rng = random.Random(23)
    corpus = [
        Graph.empty(6),
        Graph.complete(8),
        Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
    ]
    for _ in range(60):
        n = rng.randrange(1, 9)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < rng.choice((0.2, 0.5, 0.8))
        ]
        corpus.append(Graph.from_edges(n, edges))
    for g in corpus:
        size, witness = max_clique(g)
        bsize, _ = exhaustive_clique(g)
        assert size == bsize
        assert all(g.has_edge(u, v) for u, v in itertools.combinations(witness, 2))
        # witness is the lexicographically smallest maximum clique
        smallest = min(
            (
                sub
                for sub in itertools.combinations(range(g.n), size)
                if all(g.has_edge(u, v) for u, v in itertools.combinations(sub, 2))
            ),
        )
        assert witness == smallest


def test_paley_graph_clique_number():
    residues = {(x * x) % 17 for x in range(1, 17)}
    g = Graph.from_edges(
        17, [(i, j) for i in range(17) for j in range(i + 1, 17) if (j - i) % 17 in residues]
    )
    size, _ = max_clique(g)
    # brute force over all 4-subsets: no 4-clique exists
    assert size == exhaustive_clique(g)[0] == 3


def test_clique_search_matches_networkx():
    """On random graphs of 10 to 40 vertices: the clique number is networkx's;
    a search stopped at s ends at the first maximal clique of size >= s it
    meets, so every stop from s up to the size it returns gives that size;
    a clique of size k exists exactly for k <= omega; and the witness is a
    clique of size omega."""
    networkx = pytest.importorskip("networkx")
    rng = random.Random(25)
    for trial in range(40):
        n = rng.randint(10, 40)
        g = networkx.gnp_random_graph(n, rng.choice((0.3, 0.5, 0.7)), seed=trial)
        adj = [sum(1 << u for u in g[v]) for v in range(n)]
        omega = networkx.max_weight_clique(g, weight=None)[1]
        assert _clique_number(adj, n) == omega
        for s in range(1, omega + 2):
            size = _clique_number(adj, n, s)
            assert min(size, s) == min(omega, s)
            assert all(_clique_number(adj, n, t) == size for t in range(s, size + 1))
        full = (1 << n) - 1
        exists = [_exists_clique(adj, full, k) for k in range(omega + 2)]
        assert exists == [True] * (omega + 1) + [False]
        witness = _clique_witness(adj, n, omega)
        assert len(set(witness)) == omega
        assert all(g.has_edge(u, v) for u, v in itertools.combinations(witness, 2))


def test_descendant_is_the_switched_seidel_graph_without_the_vertex():
    """The descendant at w, read off the Seidel graph's row masks, equals the
    Seidel graph of the system switched so w has +alpha with every vector,
    induced on the other vertices."""
    rng = random.Random(26)
    for _ in range(40):
        n = rng.randint(2, 30)
        e = EquiangularSet(Fraction(1, 99), random_seidel(rng, n))
        adj = e.seidel.graph().adj
        for w in range(n):
            others = [v for v in range(n) if v != w]
            reference = switching_normalize(e, w).seidel.graph().induced(others)
            assert _descendant(adj, w) == list(reference.adj)


def brute_base_size(a: SeidelMatrix) -> int:
    n = a.n
    best = 0
    for r in range(2, n + 1):
        for sub in itertools.combinations(range(n), r):
            v0 = sub[0]
            fl = {v for v in sub[1:] if a.rows[v0][v] == 1}
            ok = True
            for x, y in itertools.combinations(sub, 2):
                s = (-1 if x in fl else 1) * (-1 if y in fl else 1) * a.rows[x][y]
                if s != -1:
                    ok = False
                    break
            if ok:
                best = max(best, r)
    return best


def test_base_size_examples():
    # two vectors with inner product +alpha still have K = 2 after a flip
    e = EquiangularSet(Fraction(1, 5), SeidelMatrix(((0, 1), (1, 0))))
    k, base, op = base_size(e)
    assert k == 2 and len(base) == 2
    # the full simplex K = 1/alpha + 1 is dependent: rank K-1
    s6 = simplex_base(6, Fraction(1, 5))
    assert s6.rank == 5
    assert base_size(s6)[0] == 6 == base_size_cap(Fraction(1, 5))
    with pytest.raises(ValueError):
        base_size(EquiangularSet(Fraction(1, 5), SeidelMatrix(((0,),))))


def test_base_size_matches_exhaustive_and_switch_invariant():
    rng = random.Random(24)
    checked = 0
    for _ in range(120):
        n = rng.randrange(2, 8)
        a = random_seidel(rng, n)
        try:
            e = EquiangularSet(Fraction(1, 99), a)  # tiny angle: always PSD
        except ValueError:
            continue
        k, base, op = base_size(e)
        assert k == brute_base_size(a)
        # base realizes a K-clique in the switched Seidel graph
        switched = op.apply(a)
        assert all(
            switched.rows[u][v] == -1 for u, v in itertools.combinations(base, 2)
        )
        # invariance under switching
        e2 = switch(e, random_op(rng, n))
        assert base_size(e2)[0] == k
        checked += 1
    assert checked > 40


def test_constructed_sets_never_indefinite():
    rng = random.Random(25)
    for _ in range(50):
        n = rng.randrange(2, 8)
        a = random_seidel(rng, n)
        try:
            e = EquiangularSet(Fraction(1, 5), a)
        except ValueError:
            continue
        assert psd_check(e.gram()).verdict != INDEFINITE


def test_graph6_round_trip_and_networkx_agreement():
    networkx = pytest.importorskip("networkx")
    rng = random.Random(26)
    for trial in range(40):
        n = rng.randrange(1, 90)
        g = networkx.gnp_random_graph(n, 0.3, seed=trial)
        mine = Graph.from_edges(n, g.edges())
        s = graph_to_graph6(mine)
        assert s == networkx.to_graph6_bytes(g, header=False).decode().strip()
        assert graph_from_graph6(s) == mine


@pytest.mark.parametrize("text", ["", " ", "F~~", "~?", "~??~"])
def test_graph6_that_is_empty_or_truncated_is_a_value_error(text):
    with pytest.raises(ValueError):
        graph_from_graph6(text)


def test_equiangular_json_round_trip():
    e = simplex_base(4, Fraction(1, 5))
    e2 = EquiangularSet.from_json(e.to_json())
    assert e2.seidel == e.seidel and e2.alpha == e.alpha


@st.composite
def _seidel_matrices(draw):
    n = draw(st.integers(1, 12))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = draw(st.sampled_from((1, -1)))
    return SeidelMatrix(tuple(tuple(r) for r in rows))


def _entry_key(x):
    return type(x), repr(x)  # QuadExt repr shows a, b and the radicand


@settings(max_examples=150, deadline=None)
@given(
    seidel=_seidel_matrices(),
    alpha=st.sampled_from(["1/3", "1/5", "1/sqrt(5)", "1/sqrt(17)"]).map(parse_scalar),
)
def test_gram_equals_the_per_entry_products(seidel, alpha):
    # reference: one multiplication per entry, 1 + 0*alpha on the diagonal
    n = seidel.n
    want = [
        [Fraction(1) + 0 * alpha if i == j else alpha * seidel.rows[i][j] for j in range(n)]
        for i in range(n)
    ]
    got = gram_matrix(alpha, seidel)
    assert [list(map(_entry_key, r)) for r in got.rows] == [
        list(map(_entry_key, r)) for r in want
    ]
    if psd_check(got).verdict != INDEFINITE:
        assert EquiangularSet(alpha, seidel).gram() == got


# -- the two certificate routes ------------------------------------------------


def _identity_route(alpha, seidel, a, rank):
    """Certify on the two-eigenvalue route and check the (verdict, rank) of
    the elimination on the same Gram matrix."""
    e = EquiangularSet(alpha, seidel)
    cert = e.psd_certificate
    assert cert.square_coefficient == a and cert.pivot_order is None
    assert cert.rank == rank
    oracle = psd_check(e.gram())
    assert (cert.verdict, cert.rank) == (oracle.verdict, oracle.rank)
    return e


def _elimination_route(alpha, seidel):
    """The two-eigenvalue route declines, and the set keeps the full
    certificate of psd_check (pivot order included)."""
    assert two_eigenvalue_certificate(alpha, seidel) is None
    e = EquiangularSet(alpha, seidel)
    assert e.psd_certificate == psd_check(e.gram())
    assert e.psd_certificate.pivot_order is not None
    assert e.psd_certificate.square_coefficient is None
    return e


def _flip_pair(seidel, i, j):
    rows = [list(r) for r in seidel.rows]
    rows[i][j] = rows[j][i] = -rows[i][j]
    return SeidelMatrix(tuple(map(tuple, rows)))


def test_witt_and_switched_witt_take_the_identity_route(witt, witt_pillars):
    switched, _ = witt_pillars
    for seidel in (witt.lines.seidel, switched.seidel):
        e = _identity_route(Fraction(1, 5), seidel, 50, 23)
        assert e.psd_certificate.verdict == POSITIVE_SEMIDEFINITE_SINGULAR


def test_witt_with_one_flipped_pair_falls_back_and_is_indefinite(witt):
    seidel = _flip_pair(witt.lines.seidel, 3, 200)
    assert square_mismatch(seidel, 50) is not None
    assert two_eigenvalue_certificate(Fraction(1, 5), seidel) is None
    with pytest.raises(ValueError, match="not positive semidefinite"):
        EquiangularSet(Fraction(1, 5), seidel)


@settings(max_examples=30, deadline=None)
@given(
    q=st.sampled_from((5, 13, 17)),
    data=st.data(),
)
def test_switched_paley_frames_take_the_identity_route(q, data):
    n = q + 1
    perm = tuple(data.draw(st.permutations(range(n))))
    flips = data.draw(st.frozensets(st.integers(0, n - 1)))
    etf = conference_etf(paley_conference(q))
    seidel = SwitchingOp(flips, perm).apply(etf.seidel)
    _identity_route(etf.alpha, seidel, 0, n // 2)


@pytest.mark.parametrize("m", [2, 3, 5, 7, 9])
def test_dependent_simplex_takes_the_identity_route(m):
    # K = 1/alpha + 1 lines: A = -(J - I), A^2 = -(K - 2)A + (K - 1)I
    k = m + 1
    e = simplex_base(k, Fraction(1, m))
    _identity_route(e.alpha, e.seidel, -(k - 2), k - 1)


def test_sqrt17_maximizers_take_the_identity_route(table3_fast):
    alpha = parse_scalar("1/sqrt(17)")
    seeds = table3_fast[(9, "1/sqrt(17)")].certificate["maximizing_seeds"]
    assert len(seeds) == 186
    for entry in seeds:
        seed = saturate.seed_for_graph(9, alpha, graph_from_graph6(entry["graph6"]))
        e = saturate.realize(seed, saturate.candidates(seed), entry["witness"])
        _identity_route(alpha, e.seidel, 0, 9)


def test_conference_matrix_off_its_angle_falls_back():
    seidel = conference_etf(paley_conference(5)).seidel  # eigenvalues +-sqrt(5)
    e = _elimination_route(Fraction(1, 3), seidel)
    assert (e.psd_certificate.verdict, e.rank) == (POSITIVE_DEFINITE, 6)
    assert two_eigenvalue_certificate(Fraction(1, 2), seidel) is None
    assert psd_check(gram_matrix(Fraction(1, 2), seidel)).verdict == INDEFINITE
    with pytest.raises(ValueError, match="not positive semidefinite"):
        EquiangularSet(Fraction(1, 2), seidel)


def test_independent_simplex_falls_back():
    e = _elimination_route(Fraction(1, 5), simplex_base(5, Fraction(1, 5)).seidel)
    assert (e.psd_certificate.verdict, e.rank) == (POSITIVE_DEFINITE, 5)


def test_fifth_maximizer_falls_back(table3_fast):
    entry = table3_fast[(9, "1/5")].certificate["maximizing_seeds"][0]
    seed = saturate.seed_for_graph(9, Fraction(1, 5), graph_from_graph6(entry["graph6"]))
    e = saturate.realize(seed, saturate.candidates(seed), entry["witness"])
    assert e.n == 12
    _elimination_route(e.alpha, e.seidel)


@settings(max_examples=100, deadline=None)
@given(seidel=_seidel_matrices(), a=st.integers(-12, 12))
def test_square_mismatch_matches_the_matrix_square(seidel, a):
    rows, n = seidel.rows, seidel.n
    bad = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if sum(x * y for x, y in zip(rows[i], rows[j])) != a * rows[i][j]
    ]
    assert square_mismatch(seidel, a) == (bad[0] if bad else None)


# -- validation against the pairwise reference ---------------------------------


def _pairwise_seidel_fault(rows):
    """The pairwise checks SeidelMatrix made before it built row masks: the
    ValueError message for rows, or None when they form a Seidel matrix."""
    n = len(rows)
    if n < 1 or any(len(r) != n for r in rows):
        return "square matrix required"
    if set(map(type, chain.from_iterable(rows))) != {int}:
        return "entries must be integers"
    for i in range(n):
        if rows[i][i] != 0:
            return "diagonal must be zero"
        for j in range(i + 1, n):
            x = rows[i][j]
            if x != rows[j][i]:
                return f"not symmetric at ({i},{j})"
            if x not in (1, -1):
                return f"entry {x!r} at ({i},{j}) is not +-1"
    return None


def _per_edge_graph_fault(n, adj):
    """The per-edge checks of Graph before its transpose comparison."""
    if n < 1 or len(adj) != n:
        return "adjacency size mismatch"
    for v, row in enumerate(adj):
        if row >> n:
            return "edge beyond vertex range"
        if row >> v & 1:
            return "loops not allowed"
    for v in range(n):
        for u in bits(adj[v]):
            if not adj[u] >> v & 1:
                return "adjacency not symmetric"
    return None


def _outcome(build):
    try:
        build()
    except Exception as exc:  # the exception type is part of the outcome
        return type(exc), str(exc)
    return None


def _check_seidel_against_the_reference(rows):
    want = _pairwise_seidel_fault(rows)
    assert _outcome(lambda: SeidelMatrix(rows)) == (None if want is None else (ValueError, want))
    if want is None:
        seidel = SeidelMatrix(rows)
        g = seidel.graph()
        minus = tuple(sum(1 << j for j, x in enumerate(row) if x == -1) for row in rows)
        assert (g.n, g.adj) == (len(rows), minus)
        assert SeidelMatrix.from_graph(g) == seidel and SeidelMatrix.from_graph(g).graph() == g


def _check_graph_against_the_reference(n, adj):
    want = _per_edge_graph_fault(n, adj)
    assert _outcome(lambda: Graph(n, adj)) == (None if want is None else (ValueError, want))


# entries that break a Seidel matrix: bool, float, zero, and ints other than +-1
_BAD_ENTRIES = (True, False, 0.0, -1.0, 1.0, 0, 2, 3, -2)


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.sampled_from((1, -1)), min_size=n * n, max_size=n * n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                       st.sampled_from(_BAD_ENTRIES + (1, -1)), st.booleans()), max_size=2),
)))
def test_seidel_matrix_rejects_what_the_pairwise_checks_reject(case):
    """Up to two injected faults: a value at (i, j) (the diagonal included),
    written to (j, i) too when mirrored.  Same exception and message as the
    pairwise reference; on valid rows the graph is the -1 masks."""
    n, signs, faults = case
    rows = [[0 if i == j else signs[min(i, j) * n + max(i, j)] for j in range(n)] for i in range(n)]
    for i, j, x, mirror in faults:
        rows[i][j] = x
        if mirror:
            rows[j][i] = x
    _check_seidel_against_the_reference(tuple(map(tuple, rows)))


@pytest.mark.parametrize("rows", [
    pytest.param(((0, 1, 1), (1, 0, -1), (1, -1, 0)), id="valid"),
    pytest.param(((1, 1), (1, 0)), id="nonzero-diagonal"),
    pytest.param(((0, 1, -1), (1, 0, 1), (1, 1, 0)), id="asymmetric-pair"),
    pytest.param(((0, 1, 1), (1, 0, -1), (-1, -1, 0)), id="asymmetric-pair-written-below"),
    pytest.param(((0, 0), (0, 0)), id="off-diagonal-0"),
    pytest.param(((0, 2), (2, 0)), id="off-diagonal-2"),
    pytest.param(((0, 1, 2), (1, 0, 1), (3, 1, 0)), id="2-against-3"),
    pytest.param(((0, 1, 1), (1, 0, 2), (1, 1, 0)), id="2-against-1"),
    pytest.param(((0, -1, 1), (-1, 5, 1), (1, 1, 0)), id="diagonal-after-a-valid-row"),
    pytest.param(((0, 1), (1,)), id="not-square"),
])
def test_seidel_matrix_faults_named_as_the_pairwise_checks_name_them(rows):
    _check_seidel_against_the_reference(rows)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.booleans(), min_size=n * n, max_size=n * n),
    st.lists(st.tuples(st.sampled_from(("beyond", "loop", "one_side")),
                       st.integers(0, n - 1), st.integers(0, n + 3)), max_size=2),
)))
def test_graph_rejects_what_the_per_edge_checks_reject(case):
    """A symmetric loopless graph with up to two injected faults: a bit at or
    beyond n, a loop, or one side of an edge toggled."""
    n, coin, faults = case
    adj = [sum(1 << u for u in range(n) if u != v and coin[min(u, v) * n + max(u, v)])
           for v in range(n)]
    for kind, v, u in faults:
        if kind == "beyond":
            adj[v] |= 1 << max(u, n)
        elif kind == "loop":
            adj[v] |= 1 << v
        elif u % n != v:
            adj[v] ^= 1 << u % n
    _check_graph_against_the_reference(n, tuple(adj))
