import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import isqrt, prod
from operator import mul

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import factorint
from sympy.ntheory import is_quad_residue

from equiangular.exactnum import QuadExt, parse_scalar, quad_sign, ring_sign, ring_to_scalar
from equiangular.graphenum import count_graph_classes
from equiangular.linalg import psd_check
from equiangular.saturate import (
    CertificateError,
    _Mode,
    _adj_matrices,
    _alpha_mode,
    _candidate_data_raw,
    _child_seed,
    _children_totals,
    _compat_adj_raw,
    _extend_record,
    _final_totals,
    _gray_masks,
    _pd_ladder,
    _pd_neighbor_masks,
    _pd_values,
    _root_record,
    _sign_quads,
    _sign_vector,
    _square_class_key,
    _square_key,
    candidates,
    compatibility_graph,
    enumerate_pd_bases,
    m_alpha,
    realize,
    saturation_report,
    seed_for_graph,
    switching_isomorphism,
    uniqueness_check_8_third,
)
from equiangular.seidel import (
    EquiangularSet,
    SeidelMatrix,
    SwitchingOp,
    _clique_number,
    graph_from_graph6,
    switch,
)


def test_graph_class_counts():
    assert [count_graph_classes(n) for n in range(1, 8)] == [1, 2, 4, 11, 34, 156, 1044]


@pytest.mark.parametrize("n,count", [(8, 12346)])
def test_graph_class_count_eight(n, count):
    assert count_graph_classes(n) == count


def test_enumerate_pd_bases_8_third(enum_8_third):
    assert enum_8_third.classes_scanned == 1044
    assert len(enum_8_third.seeds) == 3
    edge_counts = sorted(s.graph.edge_count() for s in enum_8_third.seeds)
    # empty graph, one edge (K2 + 5 isolated), star K_{1,6}
    assert edge_counts == [0, 1, 6]
    for seed in enum_8_third.seeds:
        assert psd_check(seed.gram()).verdict == "positive_definite"


def test_enumerate_pd_bases_rank2():
    enum = enumerate_pd_bases(2, Fraction(1, 3))
    assert len(enum.seeds) == 1
    g = enum.seeds[0].gram()
    assert g.entry(0, 1) == Fraction(1, 3)


@pytest.fixture(scope="module")
def enum_7_sqrt13():
    return enumerate_pd_bases(7, parse_scalar("1/sqrt(13)"))


def _gram_products(seed, cs):
    """G c for the coordinates c of every candidate line of cs, by exact
    products with the seed's Gram matrix G."""
    g, r = seed.gram(), seed.r
    return [
        [sum(g.entry(i, j) * line.coords[j] for j in range(r)) for i in range(r)]
        for line in cs.lines
    ]


def test_candidates_and_saturation_totals(enum_8_third, enum_7_sqrt13):
    """The totals of the (8, 1/3) seeds, and the coordinates of every
    candidate line, at (8, 1/3) (bscale = 1) and at (7, 1/sqrt(13))
    (bscale = sqrt(13)): they solve G c = alpha eps and have unit norm."""
    totals = []
    for seed in enum_8_third.seeds:
        rep = saturation_report(seed)
        totals.append(rep.total)
        assert rep.total == 8 + rep.clique_size
    assert sorted(totals) == [8, 14, 14]
    for seed in [*enum_8_third.seeds, *enum_7_sqrt13.seeds]:
        cs = candidates(seed)
        for line, gc in zip(cs.lines, _gram_products(seed, cs)):
            assert gc == [seed.alpha * e for e in line.sign_vector]
            assert sum(map(mul, line.coords, gc)) == 1


def test_m_alpha_8_third(m_8_third):
    assert m_8_third.value == 14
    assert m_8_third.certificate["classes_scanned"] == 1044
    assert m_8_third.certificate["seeds"] == 3
    assert m_8_third.certificate["totals_histogram"] == {"8": 1, "14": 2}
    for entry in m_8_third.certificate["maximizing_seeds"]:
        assert entry["clique"] == 6


def test_realized_sets_verified(enum_8_third):
    for seed in enum_8_third.seeds:
        rep = saturation_report(seed)
        e = rep.realized
        assert e.rank == 8
        assert psd_check(e.gram()).is_psd
        n = e.n
        for i in range(n):
            for j in range(n):
                if i != j:
                    assert e.seidel.rows[i][j] in (1, -1)


def test_compatibility_graph_edges(enum_8_third, enum_7_sqrt13):
    """Two candidate lines are joined exactly when their inner product,
    from exact Gram products, is +-alpha: on the (8, 1/3) seed with the
    most edges (bscale = 1) and on every (7, 1/sqrt(13)) seed
    (bscale = sqrt(13)), of which 30 have two or more candidates, with 966
    edges in all."""
    seed8 = max(enum_8_third.seeds, key=lambda s: s.graph.edge_count())
    pairs = edges = 0  # (7, 1/sqrt(13)) seeds with two or more candidates, and their edges
    for seed in [seed8, *enum_7_sqrt13.seeds]:
        cs = candidates(seed)
        g = compatibility_graph(cs)
        gcs = _gram_products(seed, cs)
        nc = len(cs.lines)
        for i in range(nc):
            ci = cs.lines[i].coords
            for j in range(i + 1, nc):
                inner = sum(map(mul, ci, gcs[j]))
                assert g.has_edge(i, j) == (inner in (seed.alpha, -seed.alpha))
        if seed is not seed8 and nc >= 2:
            pairs, edges = pairs + 1, edges + g.edge_count()
    assert (pairs, edges) == (30, 966)


def test_table3_fast_cells(table3_fast):
    expected = {
        (8, "1/3"): 14, (8, "1/5"): 10, (8, "1/7"): 9,
        (9, "1/3"): 16, (9, "1/5"): 12, (9, "1/7"): 10, (9, "1/sqrt(17)"): 18,
        (10, "1/3"): 18,
    }
    for cell, want in expected.items():
        assert table3_fast[cell].value == want, cell


def test_m_alpha_at_least_rank(table3_fast):
    for cell, rep in table3_fast.items():
        if cell == "elapsed":
            continue
        assert rep.value >= rep.inputs["rank"]


def test_sqrt17_realization_stays_in_field(table3_fast):
    rep = table3_fast[(9, "1/sqrt(17)")]
    assert rep.value == 18
    alpha = parse_scalar("1/sqrt(17)")
    enum = enumerate_pd_bases(9, alpha)
    winner_g6 = rep.certificate["maximizing_seeds"][0]["graph6"]
    seed = next(s for s in enum.seeds if s.nonroot_graph6 == winner_g6)
    cs = candidates(seed)
    for line in cs.lines[:4]:
        for c in line.coords:
            assert isinstance(c, (QuadExt, Fraction))
    witness = tuple(rep.certificate["maximizing_seeds"][0]["witness"])
    e = realize(seed, cs, witness)
    assert e.n == 18 and e.rank == 9
    assert e.alpha == alpha


@pytest.mark.slow
def test_m_alpha_10_fifth(m_10_fifth):
    rep = m_10_fifth["report"]
    assert rep.value == 16
    assert rep.certificate["seeds"] == 179027
    assert rep.certificate["totals_histogram"] == {
        "10": 62740, "11": 57851, "12": 29723, "13": 23664, "14": 4810, "15": 230, "16": 9,
    }


def test_m_star(mstar_reports):
    assert mstar_reports[8].value == 14
    assert mstar_reports[9].value == 18
    assert mstar_reports[10].value == 18
    audit9 = {a["alpha"]: a for a in mstar_reports[9].certificate["audit"]}
    assert audit9["1/3"]["value"] == 16
    assert any("sqrt(17)" in k for k in audit9)
    audit10 = {a["alpha"]: a for a in mstar_reports[10].certificate["audit"]}
    assert audit10["1/5"]["method"] == "relative_bound" and audit10["1/5"]["bound"] == 16


def test_uniqueness_8_third():
    rep = uniqueness_check_8_third()
    assert rep["equivalent"] and rep["size"] == 14
    assert rep["witness"] is not None
    # the witness really carries one system to the other
    e1 = EquiangularSet.from_json(rep["systems"][0])
    e2 = EquiangularSet.from_json(rep["systems"][1])
    op = SwitchingOp(frozenset(rep["witness"]["flips"]), tuple(rep["witness"]["perm"]))
    assert op.apply(e1.seidel) == e2.seidel


def test_switching_isomorphism_reflexive_and_size_mismatch(enum_8_third):
    seed = enum_8_third.seeds[1]
    rep = saturation_report(seed)
    e = rep.realized
    # a system is equivalent to its own relabeling
    rng = random.Random(60)
    perm = list(range(e.n))
    rng.shuffle(perm)
    flips = frozenset(v for v in range(e.n) if rng.random() < 0.5)
    shuffled = switch(e, SwitchingOp(flips, tuple(perm)))
    op = switching_isomorphism(e, shuffled)
    assert op is not None and op.apply(e.seidel) == shuffled.seidel
    # size mismatch is an error, not inequivalence
    sub = EquiangularSet(
        e.alpha,
        SeidelMatrix(tuple(tuple(r[:13]) for r in e.seidel.rows[:13])),
    )
    with pytest.raises(ValueError):
        switching_isomorphism(e, sub)


def test_switching_isomorphism_distinguishes(enum_8_third):
    reps = [saturation_report(s) for s in enum_8_third.seeds]
    fourteen = [r.realized for r in reps if r.total == 14]
    eight = [r.realized for r in reps if r.total == 8][0]
    assert switching_isomorphism(fourteen[0], fourteen[1]) is not None
    # an 8-line subsystem of a 14-line system is not the saturated 8-line one
    sub = EquiangularSet(
        Fraction(1, 3),
        SeidelMatrix(tuple(tuple(r[:8]) for r in fourteen[0].seidel.rows[:8])),
    )
    assert switching_isomorphism(eight, sub) is None


def test_coordinates_are_computed_on_first_read(enum_8_third):
    seed = max(enum_8_third.seeds, key=lambda s: s.graph.edge_count())
    cs = candidates(seed)
    rep = saturation_report(seed)
    realize(seed, cs, rep.clique_witness)
    assert all("coords" not in vars(line) for line in cs.lines)
    first = cs.lines[0].coords
    assert "coords" in vars(cs.lines[0]) and cs.lines[0].coords is first


def test_candidates_scanned_once_per_maximizing_seed(monkeypatch):
    from equiangular import saturate

    calls = []
    inner = saturate.candidates

    def counting(seed):
        calls.append(seed.nonroot_graph6)
        return inner(seed)

    monkeypatch.setattr(saturate, "candidates", counting)
    rep = m_alpha(8, Fraction(1, 3))
    winners = [w["graph6"] for w in rep.certificate["maximizing_seeds"]]
    assert len(winners) == 2 and calls == winners


def _direct_walk(m, lo, hi):
    """(mask, [quad], [u]) with u = m b and quad = b^T m b computed from
    scratch for each sign vector b (b[0] = +1) in Gray order."""
    n = len(m)
    out = []
    for g in range(1 << (n - 1)):
        mask = g ^ (g >> 1)
        b = [1] + [-1 if mask >> (i - 1) & 1 else 1 for i in range(1, n)]
        u = [sum(map(mul, row, b)) for row in m]
        quad = sum(map(mul, u, b))
        if (lo is None or lo <= quad) and (hi is None or quad < hi):
            out.append((mask, [quad], [u]))
    return out


@st.composite
def _symmetric_int_matrices(draw, n=None):
    n = draw(st.integers(1, 10)) if n is None else n
    bound = draw(st.sampled_from([1, 5, 1000, 10**15]))
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = draw(st.integers(-bound, bound))
    return m


@st.composite
def _symmetric_int_matrix_pairs(draw):
    n = draw(st.integers(1, 10))
    return draw(_symmetric_int_matrices(n)), draw(_symmetric_int_matrices(n))


def _masks(walk):
    return [mask for mask, _, _ in walk]


# corner = bscale = 1, so P(b) = det - b^T m b: a PD child has quad < det, a candidate quad == det
_UNIT_MODE = _Mode(1, 1, 1)


def _check_scan_windows(m, targets):
    """The packed scan of m against the direct products, in Gray order: its
    quads, and for every target t taken as det under unit scaling the PD
    children (quad < t) and the unit candidates (quad == t, with u = m b)."""
    n = len(m)
    assert _sign_quads([m]) == [[quad[0] for _, quad, _ in _direct_walk(m, None, None)]]
    for t in targets:
        pvals = _pd_values(_UNIT_MODE, t, [m])
        want = _masks(_direct_walk(m, None, t))
        assert _pd_neighbor_masks(_UNIT_MODE, {"adj": m, "det": t}, pvals) == want
        hits = [(_sign_vector(mask, n), u) for mask, _, u in _direct_walk(m, t, t + 1)]
        assert _candidate_data_raw(_UNIT_MODE, t, [m], n) == hits


@settings(max_examples=120, deadline=None)
@given(m=_symmetric_int_matrices(), data=st.data())
def test_packed_scan_matches_direct_products(m, data):
    full = _direct_walk(m, None, None)
    quads = [quad[0] for _, quad, _ in full]
    q = data.draw(st.sampled_from(quads))
    w = data.draw(st.integers(1, 4))
    far = 10**20
    _check_scan_windows(m, [*range(q - w, q + w + 1), min(quads) - far, max(quads) + far])
    # the PD test of the ladder: quad * bscale^2 < corner * det
    mode = _alpha_mode(Fraction(2, 7))
    det = data.draw(st.integers(q * 4 // 7 - 2, q * 4 // 7 + 2))
    want = [mask for mask, quad, _ in full if quad[0] * mode.bscale_sq < mode.corner * det]
    pvals = _pd_values(mode, det, [m])
    assert _pd_neighbor_masks(mode, {"adj": m, "det": det}, pvals) == want


@settings(max_examples=80, deadline=None)
@given(m=_symmetric_int_matrices(), data=st.data())
def test_unit_candidates_at_two_sevenths(m, data):
    """At angle 2/7 (corner 7, bscale = 2) eps is a unit candidate when
    quad * bscale^2 == corner * det, with the border vector bscale * m eps.
    The scanned matrix is 7*m, so det = 4*q for a quad q of m has
    candidates, and a det not divisible by 4 has none, since
    corner*det / bscale^2 is then not an integer."""
    n = len(m)
    mode = _alpha_mode(Fraction(2, 7))
    m7 = [[7 * x for x in row] for row in m]
    full = _direct_walk(m7, None, None)
    q = data.draw(st.sampled_from([quad[0] for _, quad, _ in full])) // 7
    det = 4 * q + data.draw(st.sampled_from([0, 0, 1, 2, 3, -4, 4]))
    want = [
        (_sign_vector(mask, n), [[mode.bscale * x for x in u[0]]])
        for mask, quad, u in full
        if quad[0] * mode.bscale_sq == mode.corner * det
    ]
    assert _candidate_data_raw(mode, det, [m7], n) == want
    if det % 4:
        assert want == []
    if det == 4 * q:
        assert want


@pytest.mark.parametrize("reach", [2**k + e for k in (7, 8, 15, 16, 63, 64) for e in (-1, 0)])
def test_packed_scan_at_the_guard_bit(reach):
    """Sums of |m_ij| over i < j of 2^k - 1 and 2^k at the byte boundaries
    of a field (the least whole number of bytes that holds reach): for k a
    multiple of 8 the field is full at 2^k - 1 and gains a byte at 2^k; for
    k = 7, 15, 63 the top bit of the field is first used at 2^k.  Each
    matrix has a sign vector whose field holds reach, and its _sign_quads
    are checked with the scan tests."""
    third = reach // 3
    rest = reach - 2 * third
    for m in (
        [[0, reach], [reach, 0]],
        [[7, -reach], [-reach, -3]],
        [[1, third, -third], [third, -2, rest], [-third, rest, 3]],
    ):
        quads = [quad[0] for _, quad, _ in _direct_walk(m, None, None)]
        _check_scan_windows(m, sorted({q + e for q in quads for e in (-1, 0, 1)}))


@settings(max_examples=60, deadline=None)
@given(pair=_symmetric_int_matrix_pairs(), data=st.data())
def test_packed_scan_over_a_quadratic_ring(pair, data):
    """Over Z[sqrt 17] both coordinate matrices are scanned; a candidate
    needs both coordinates of P = corner*det - bscale^2 * quad at zero, and
    the PD test is the exact sign of P for each sign vector."""
    d = 17
    a, b = pair
    n = len(a)
    walk_a, walk_b = _direct_walk(a, None, None), _direct_walk(b, None, None)
    quads = [(qa[0], qb[0]) for (_, qa, _), (_, qb, _) in zip(walk_a, walk_b)]
    assert _adj_matrices({"adj": a, "adj_sqrt": b}) == [a, b]
    assert _sign_quads([a, b]) == [list(col) for col in zip(*quads)]
    g = data.draw(st.integers(0, len(quads) - 1))
    ta, tb = quads[g][0] + data.draw(st.sampled_from([0, 0, 1])), quads[g][1]
    hits = [i for i, q in enumerate(quads) if q == (ta, tb)]
    # 1/sqrt(17) has corner = bscale^2 = 17, so the unit target is det itself;
    # bscale = sqrt(17) turns u = ua + ub*sqrt(17) into the border vector 17*ub + ua*sqrt(17)
    mode = _alpha_mode(parse_scalar("1/sqrt(17)"))
    assert mode.bscale == (0, 1)
    cands = _candidate_data_raw(mode, (ta, tb), [a, b], n)
    assert cands == [
        (_sign_vector(walk_a[i][0], n), [[17 * y for y in walk_b[i][2][0]], walk_a[i][2][0]])
        for i in hits
    ]
    det = (ta + data.draw(st.integers(-2, 2)), tb + data.draw(st.integers(-2, 2)))
    # the expected PD children by QuadExt arithmetic on the same values
    thresh = mode.corner * ring_to_scalar(det, d)
    bsq = ring_to_scalar(mode.bscale_sq, d)
    want = [
        walk_a[i][0]
        for i, q in enumerate(quads)
        if quad_sign(thresh - bsq * ring_to_scalar(q, d)) > 0
    ]
    rec = {"adj": a, "adj_sqrt": b, "det": det}
    assert _pd_neighbor_masks(mode, rec, _pd_values(mode, det, [a, b])) == want


def test_a_wrong_realized_set_fails_re_certification(monkeypatch):
    from equiangular import saturate

    inner = saturate.realize

    def one_line_short(seed, cands, chosen):
        return inner(seed, cands, tuple(chosen)[:-1])

    monkeypatch.setattr(saturate, "realize", one_line_short)
    with pytest.raises(CertificateError, match="re-certification"):
        m_alpha(8, Fraction(1, 3))


@pytest.mark.parametrize("alpha", ["1/5", "1/sqrt(17)"])
def test_ladder_adjugates_are_exact(alpha):
    """Every record of the ladder carries a symmetric adjugate with
    adj(H) H = det(H) I, checked in the ring, for the scaled Gram H of the
    rooted basis (corner on the diagonal, +-bscale off it).  Over Z[sqrt d]
    the record holds the coordinate matrices of adj = A + B*sqrt(d) and
    det = (e, f); the products are formed here on the coordinates."""
    mode = _alpha_mode(parse_scalar(alpha))
    d = mode.d
    records = list(_pd_ladder(mode, 6))
    assert records
    for rec in records:
        masks, det = rec["masks"], rec["det"]
        a, b = rec["adj"], rec.get("adj_sqrt")
        n = len(masks) + 1
        assert len(a) == n and (b is None) == (d == 0)
        if not d:
            b, det = [[0] * n for _ in range(n)], (det, 0)
        corner = (mode.corner, 0)
        bscale = mode.bscale if d else (mode.bscale, 0)
        h = [
            [
                corner if i == j
                else (-bscale[0], -bscale[1]) if i and j and masks[i - 1] >> (j - 1) & 1
                else bscale
                for j in range(n)
            ]
            for i in range(n)
        ]
        assert all(m[i][j] == m[j][i] for m in (a, b) for i in range(n) for j in range(i))
        for i in range(n):
            for j in range(n):
                entry = (
                    sum(a[i][t] * h[t][j][0] + d * b[i][t] * h[t][j][1] for t in range(n)),
                    sum(a[i][t] * h[t][j][1] + b[i][t] * h[t][j][0] for t in range(n)),
                )
                assert entry == (det if i == j else (0, 0)), (rec["masks"], i, j)


def _in_ring(x) -> bool:
    """Whether a QuadExt value has integer coordinates, i.e. lies in Z[sqrt d]."""
    return x.a.denominator == 1 and x.b.denominator == 1


def _zsqrt_extended(corner, bscale, det, adj, nb):
    """The record update on QuadExt values with integer coordinates, the
    oracle of the coordinate form.  With b the sign vector of nb, u = adj b
    and su = bscale*u, det' = corner*det - bscale^2 * b^T u and
    adj' = [[(det'*adj + su su^T) / det, -su], [-su^T, det]], each quotient
    checked to lie in Z[sqrt d]."""
    n, zero = len(adj), QuadExt(0, 0, det.d)
    b = [1] + [-1 if nb >> i & 1 else 1 for i in range(n - 1)]
    u = [sum((x * s for x, s in zip(row, b)), zero) for row in adj]
    quad = sum((x * s for x, s in zip(u, b)), zero)
    det_new = corner * det - bscale * bscale * quad
    su = [bscale * x for x in u]
    new = [
        [(det_new * adj[i][j] + su[i] * su[j]) / det for j in range(n)] + [-su[i]]
        for i in range(n)
    ]
    assert all(_in_ring(x) for row in new for x in row)
    new.append([-x for x in su] + [det])
    return det_new, new


@settings(max_examples=60, deadline=None)
@given(
    d=st.sampled_from([2, 5, 13, 17]),
    general=st.booleans(),
    nbs=st.lists(st.integers(0, 2**12 - 1), min_size=1, max_size=12),
)
def test_coordinate_record_update_matches_the_zsqrt_update(d, general, nbs):
    """Along a random PD ladder, _extend_record on integer coordinates gives
    the det and adjugate of the formula on QuadExt values, for alpha =
    1/sqrt(d) and for (sqrt(d) - 1)/(d + 1), whose bscale has two nonzero
    coordinates."""
    if general:
        alpha = QuadExt(Fraction(-1, d + 1), Fraction(1, d + 1), d)
    else:
        alpha = QuadExt(0, Fraction(1, d), d)
    mode = _alpha_mode(alpha)
    corner, bscale = QuadExt(mode.corner, 0, d), ring_to_scalar(mode.bscale, d)
    assert bscale * bscale == ring_to_scalar(mode.bscale_sq, d)
    rec = _root_record(mode)
    det, adj = corner, [[QuadExt(1, 0, d)]]
    for k, nb in enumerate(nbs):
        nb &= (1 << k) - 1
        rec = _extend_record(mode, rec, nb, _adj_matrices(rec))
        det, adj = _zsqrt_extended(corner, bscale, det, adj, nb)
        assert _in_ring(det) and rec["det"] == (det.a, det.b)
        assert _adj_matrices(rec) == [[[x.a for x in row] for row in adj],
                                      [[x.b for x in row] for row in adj]]
        if quad_sign(ring_to_scalar(rec["det"], d)) <= 0:
            break


def test_search_and_psd_checks_run_under_optimize():
    """Under python -O the saturation search still gives its pinned results
    (the re-certification of maximizing seeds included), over Z and over
    Z[sqrt 13], and an indefinite Gram still raises, over Q and Q(sqrt 17).
    At 2/7 (bscale = 2) all 57 seeds tie, so each is re-certified through
    the unit-candidate test P(eps) = 0 with bscale^2 = 4."""
    import equiangular

    code = """
import json, sys
from fractions import Fraction
from equiangular.exactnum import parse_scalar
from equiangular.saturate import m_alpha
from equiangular.seidel import EquiangularSet, SeidelMatrix
assert False, "assert statements must be stripped"
out = {}
for r, alpha in ((8, "1/3"), (8, "1/5"), (7, "1/sqrt(13)"), (7, "2/7")):
    rep = m_alpha(r, parse_scalar(alpha))
    c = rep.certificate
    out[alpha] = [rep.value, c["seeds"], c["totals_histogram"], len(c["maximizing_seeds"])]
for n, alpha in ((5, "1/3"), (6, "1/sqrt(17)")):
    # I + A*alpha with A = I - J has the eigenvalue 1 - (n - 1)*alpha < 0
    minus = SeidelMatrix(tuple(tuple(0 if i == j else -1 for j in range(n)) for i in range(n)))
    try:
        EquiangularSet(parse_scalar(alpha), minus)
        out["indefinite " + alpha] = "accepted"
    except ValueError as exc:
        out["indefinite " + alpha] = str(exc)
print(json.dumps([sys.flags.optimize, out]))
"""
    root = os.path.dirname(equiangular.__path__[0])
    env = dict(os.environ, PYTHONPATH=root)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    optimize, out = json.loads(proc.stdout)
    assert optimize == 1
    assert out["1/3"] == [14, 3, {"8": 1, "14": 2}, 2]
    assert out["1/5"] == [10, 924, {"8": 627, "9": 264, "10": 33}, 33]
    assert out["1/sqrt(13)"] == [14, 75, {"7": 43, "8": 4, "14": 28}, 28]
    assert out["2/7"] == [7, 57, {"7": 57}, 57]
    assert "not positive semidefinite" in out["indefinite 1/3"]
    assert "not positive semidefinite" in out["indefinite 1/sqrt(17)"]


def _record_total(mode, rec, r):
    """The saturation total of a class record by its own scan, compatibility
    graph and clique search."""
    data = _candidate_data_raw(mode, rec["det"], _adj_matrices(rec), r)
    if not data:
        return r
    return r + _clique_number(_compat_adj_raw(mode, rec["det"], data), len(data))


@pytest.mark.parametrize(
    "r,alpha,children,zeros",
    [(8, "1/5", 8924, 39), (8, "1/7", 9983, 1), (7, "1/sqrt(13)", 556, 0), (8, "1/sqrt(17)", 5067, 94)],
)
def test_children_totals_match_the_record_path(r, alpha, children, zeros):
    """Every PD child of every final-level parent, not only the class
    representatives, gets the same total from the parent's data as from its
    own record, with one class-key memo shared by every parent of the cell.
    The sign vectors with P(eps) = 0 (the parent's own candidates) are
    counted, so the cells that reach them are known."""
    mode = _alpha_mode(parse_scalar(alpha))
    seen = zero_members = 0
    keys = {}  # one class-key memo for the whole level, as in _final_totals
    for rec in _pd_ladder(mode, r - 2):
        ms = _adj_matrices(rec)
        pvals = _pd_values(mode, rec["det"], ms)
        nbs = _pd_neighbor_masks(mode, rec, pvals)
        want = [_record_total(mode, _extend_record(mode, rec, nb, ms), r) for nb in nbs]
        assert _children_totals(mode, rec["det"], ms, pvals, nbs, r, keys) == want
        seen += len(nbs)
        zero_members += sum(p in (0, (0, 0)) for p in pvals)  # an int over Z, a pair over Z[sqrt d]
    assert (seen, zero_members) == (children, zeros)


@pytest.mark.parametrize("r,alpha,count", [(8, "1/3", 2), (7, "2/7", 57), (9, "1/sqrt(17)", 186)])
def test_maximizing_seeds_from_their_parents_match_the_root_rebuild(table3_fast, r, alpha, count):
    """Each maximizer of the cell, built from its parent's record by one
    extension step, has the det, adjugate coordinate matrices and graph6 of
    the seed that seed_for_graph rebuilds from the root out of its graph6,
    and the maximizers are those m_alpha reports, in its order."""
    a = parse_scalar(alpha)
    mode = _alpha_mode(a)
    children = [
        (rec, nb, total)
        for rec, nbs, totals in _final_totals(mode, _pd_ladder(mode, r - 2), r, 1)
        for nb, total in zip(nbs, totals)
    ]
    best = max(total for *_, total in children)
    seeds = [_child_seed(r, a, mode, rec, nb) for rec, nb, total in children if total == best]
    assert len(seeds) == count
    for seed in seeds:
        rebuilt = seed_for_graph(r, a, graph_from_graph6(seed.nonroot_graph6))
        assert seed.graph == rebuilt.graph
        assert (seed.det, seed.adjugate) == (rebuilt.det, rebuilt.adjugate)
        assert seed.nonroot_graph6 == rebuilt.nonroot_graph6
    report = table3_fast[(r, alpha)] if (r, alpha) in table3_fast else m_alpha(r, a)
    assert [e["graph6"] for e in report.certificate["maximizing_seeds"]] == [
        seed.nonroot_graph6 for seed in seeds
    ]


@pytest.mark.parametrize("alpha", ["1/5", "1/sqrt(17)"])
def test_a_child_seed_that_is_not_positive_definite_is_refused(alpha):
    """The ladder offers only masks with P(beta) > 0; _child_seed raises
    CertificateError for the children of the others, P(beta) = 0 (a unit
    candidate of the parent) and P(beta) < 0, on rank-8 parents."""
    mode = _alpha_mode(parse_scalar(alpha))
    tested = {0: 0, -1: 0}  # children tested per sign of P(beta)
    for rec in _pd_ladder(mode, 6):
        pvals = _pd_values(mode, rec["det"], _adj_matrices(rec))
        for nb, p in zip(_gray_masks(7), pvals):
            sign = ring_sign(p, mode.d)
            if sign > 0 or tested[sign] == 5:
                continue
            with pytest.raises(CertificateError, match="not positive definite"):
                _child_seed(8, parse_scalar(alpha), mode, rec, nb)
            tested[sign] += 1
        if tested == {0: 5, -1: 5}:
            break
    assert tested == {0: 5, -1: 5}


_UNITS = {2: (1, 1), 5: (2, 1), 13: (18, 5), 17: (4, 1)}  # norm -1: a^2 - d*b^2 = -1


def _ring_elements(d):
    """Elements of Z, or of Z[sqrt d] as QuadExt values with integer coordinates."""
    ints = st.integers(-10**6, 10**6)
    if not d:
        return ints
    return st.builds(lambda a, b: QuadExt(a, b, d), ints, ints)


def _power(x, k, one):
    out = one
    for _ in range(k):
        out = out * x
    return out


@settings(max_examples=200, deadline=None)
@given(d=st.sampled_from([0, 2, 5, 13, 17]), data=st.data())
def test_square_keys_of_a_square_product(d, data):
    """Whenever x*y = bscale^2 * z^2 in Z or Z[sqrt d], key(x)*key(y) is a
    perfect square.  Solutions are built as x = m*a^2*e^k and
    y = m*(bscale*c)^2*e'^k, with a unit e of norm -1 over Z[sqrt d] and its
    inverse e'."""
    el = _ring_elements(d)
    m, a, c, bscale = (data.draw(el) for _ in range(4))
    one = QuadExt(1, 0, d) if d else 1
    k = data.draw(st.integers(0, 3))
    unit = _power(QuadExt(*_UNITS[d], d), k, one) if d else 1
    inv = _power(QuadExt(-_UNITS[d][0], _UNITS[d][1], d), k, one) if d else 1
    assert unit * inv == one  # e * (-conj(e)) = -norm(e) = 1
    x = m * a * a * unit
    y = m * bscale * bscale * c * c * inv
    assert x * y == bscale * bscale * (m * a * c) * (m * a * c)
    assert not d or (_in_ring(x) and _in_ring(y))
    kx, ky = (_square_key((int(z.a), int(z.b)), d) if d else _square_key(z, d) for z in (x, y))
    prod = kx * ky
    assert prod >= 0 and isqrt(prod) ** 2 == prod


_NORMS_17 = st.builds(  # norms a^2 - 17*b^2 of Z[sqrt 17], of either sign
    lambda a, b: a * a - 17 * b * b, st.integers(-10**6, 10**6), st.integers(-10**6 // 4, 10**6 // 4)
)


def _kernel(n):
    """The signed squarefree kernel of a nonzero n by sympy's factorization:
    the primes of odd exponent, with the sign of n."""
    return (1 if n > 0 else -1) * prod(p for p, e in factorint(abs(n)).items() if e % 2)


_NONZERO = (st.integers(-10**12, 10**12) | _NORMS_17).filter(bool)
_SMALL = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


@settings(max_examples=300, deadline=None)
@given(n=_NONZERO)
def test_square_class_key_matches_factorint(n):
    """The class key against sympy: the sign times the primes below 50 of
    odd exponent, shifted by 17 bits, then the rest c of n (the primes past
    47) mod 8 and, bit 8 << i, whether c is a non-residue mod the i-th odd
    prime below 50."""
    factors = factorint(abs(n))
    small = (1 if n > 0 else -1) * prod(p for p, e in factors.items() if e % 2 and p in _SMALL)
    c = prod(p**e for p, e in factors.items() if p not in _SMALL)
    bits = c % 8 | sum(8 << i for i, q in enumerate(_SMALL[1:]) if not is_quad_residue(c, q))
    assert _square_class_key(n) == small << 17 | bits


@settings(max_examples=300, deadline=None)
@given(x=_NONZERO, y=_NONZERO, data=st.data())
def test_one_square_class_has_one_key(x, y, data):
    """Nonzero keys (ints up to 1e12, norms over Z[sqrt 17]) of one square
    class share a class key: y when x*y is a square, and x times any square,
    large prime factors included.  x times a non-square k built from the
    sign and the primes below 50 has another key.  Key 0 is alone."""
    a = data.draw(st.integers(1, 10**6))
    k = data.draw(st.sampled_from([2, -2, 3, -3, 6, -6, 17, -17, 34, -1, 2 * 47, -43]))
    if _kernel(x) == _kernel(y):
        assert _square_class_key(x) == _square_class_key(y)
    assert _square_class_key(x * a * a) == _square_class_key(x)
    assert _square_class_key(x * k * a * a) != _square_class_key(x)
    assert _square_class_key(0) not in (_square_class_key(x), _square_class_key(y))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 10**20), k=st.integers(0, 10**40))
def test_isqrt_is_exact_up_to_1e40(n, k):
    assert isqrt(n * n) == n
    if n:
        assert isqrt(n * n - 1) == n - 1
    t = isqrt(k)
    assert t * t <= k < (t + 1) * (t + 1)


@pytest.mark.parametrize(
    "r,alpha", [(8, "1/5"), (8, "1/sqrt(17)"), (9, "1/sqrt(17)")], ids=["1/5", "1/sqrt(17)", "9-1/sqrt(17)"]
)
def test_worker_pool_gives_the_same_report(r, alpha):
    """jobs=2, where each worker task has a class-key memo of its own,
    gives the report of jobs=1, graph6 witnesses included."""
    one = m_alpha(r, parse_scalar(alpha), jobs=1).to_dict()
    assert m_alpha(r, parse_scalar(alpha), jobs=2).to_dict() == one


def _bareiss_adjugate(h):
    """(det, adjugate) of the symmetric integer matrix h by fraction-free
    Gauss-Jordan elimination on [h | I], or None unless every leading
    principal minor (the k-th pivot) is positive, i.e. h is PD."""
    n = len(h)
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(h)]
    prev = 1
    for k in range(n):
        piv = m[k][k]
        if piv <= 0:
            return None
        for i in range(n):
            if i != k:
                mik = m[i][k]
                m[i] = [(piv * x - mik * y) // prev for x, y in zip(m[i], m[k])]
        prev = piv
    return prev, [row[n:] for row in m]


def _atlas_saturation(q):
    """(totals histogram, maximizing graphs) of the rank-8 angle-1/q search
    by brute force over the networkx graph atlas: every 7-vertex graph
    whose scaled Gram h = q*G (root +1 with all, -1 on edges, +1 on
    non-edges, q on the diagonal) is PD, all 128 sign vectors tested
    against adj(h), and maximum cliques by nx.find_cliques."""
    r = 8
    signs = [(1,) + tuple(1 - 2 * (g >> i & 1) for i in range(r - 1)) for g in range(1 << (r - 1))]
    hist, best, winners = {}, 0, []
    for g in nx.graph_atlas_g():
        if g.number_of_nodes() != r - 1:
            continue
        h = [
            [q if i == j else -1 if i and j and g.has_edge(i - 1, j - 1) else 1 for j in range(r)]
            for i in range(r)
        ]
        found = _bareiss_adjugate(h)
        if found is None:
            continue
        det, adj = found
        assert all(
            sum(adj[i][t] * h[t][j] for t in range(r)) == (det if i == j else 0)
            for i in range(r) for j in range(r)
        )
        # a unit line at angle 1/q with the basis: eps^T G^-1 eps = q^2, i.e. eps^T adj eps = q*det
        cands = []
        for eps in signs:
            u = [sum(map(mul, row, eps)) for row in adj]
            if sum(map(mul, u, eps)) == q * det:
                cands.append((eps, u))
        compat = nx.Graph()
        compat.add_nodes_from(range(len(cands)))
        for i, (_, u) in enumerate(cands):  # inner product +-1/q: eps_i^T adj eps_j = +-det
            compat.add_edges_from(
                (i, j) for j in range(i + 1, len(cands)) if abs(sum(map(mul, u, cands[j][0]))) == det
            )
        total = r + max((len(c) for c in nx.find_cliques(compat)), default=0)
        hist[total] = hist.get(total, 0) + 1
        if total > best:
            best, winners = total, []
        if total == best:
            winners.append(g)
    return hist, winners


@pytest.mark.parametrize("q", [3, 5, 7])
def test_rank8_matches_a_brute_force_over_the_graph_atlas(q):
    """An oracle that shares no code with graphenum or saturate: the PD
    class count, the totals histogram and the maximizing graphs (up to
    isomorphism) of m_alpha(8, 1/q)."""
    hist, winners = _atlas_saturation(q)
    rep = m_alpha(8, Fraction(1, q))
    assert rep.certificate["seeds"] == sum(hist.values())
    assert rep.certificate["totals_histogram"] == {str(t): n for t, n in sorted(hist.items())}
    seeds = rep.certificate["maximizing_seeds"]
    assert len(seeds) == len(winners)
    for entry in seeds:
        g6 = graph_from_graph6(entry["graph6"])
        graph = nx.Graph([(i, j) for i in range(g6.n) for j in range(i) if g6.has_edge(i, j)])
        graph.add_nodes_from(range(g6.n))
        assert sum(nx.is_isomorphic(graph, w) for w in winners) == 1
    if q == 5:
        assert hist == {8: 627, 9: 264, 10: 33}  # 924 classes


# -- a Z[sqrt q] oracle: pairs (a, b) = a + b*sqrt(q), written out here ----------


def _pair_mul(x, y, q):
    return x[0] * y[0] + q * x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _pair_div(x, y, q):
    """The exact quotient x / y in Z[sqrt q]; fails the test if inexact."""
    norm = y[0] * y[0] - q * y[1] * y[1]
    a, ra = divmod(x[0] * y[0] - q * x[1] * y[1], norm)
    b, rb = divmod(x[1] * y[0] - x[0] * y[1], norm)
    assert ra == rb == 0, "inexact fraction-free division"
    return a, b


def _pair_positive(x, q):
    """a + b*sqrt(q) > 0, decided on the ints a^2 and q*b^2."""
    a, b = x
    if a >= 0 and b >= 0:
        return a > 0 or b > 0
    if a <= 0 and b <= 0:
        return False
    return a * a > q * b * b if a > 0 else q * b * b > a * a


def _pair_bareiss_adjugate(h, q):
    """(det, adjugate) of h over Z[sqrt q] by fraction-free Gauss-Jordan
    elimination on [h | I], or None unless every pivot (the leading
    principal minors) is positive."""
    n = len(h)
    m = [list(row) + [(int(i == j), 0) for j in range(n)] for i, row in enumerate(h)]
    prev = (1, 0)
    for k in range(n):
        piv = m[k][k]
        if not _pair_positive(piv, q):
            return None
        for i in range(n):
            if i != k:
                mik = m[i][k]
                m[i] = [
                    _pair_div(
                        tuple(u - v for u, v in zip(_pair_mul(piv, x, q), _pair_mul(mik, y, q))),
                        prev, q,
                    )
                    for x, y in zip(m[i], m[k])
                ]
        prev = piv
    return prev, [row[n:] for row in m]


def _pair_dot(u, eps):
    return sum(x[0] * e for x, e in zip(u, eps)), sum(x[1] * e for x, e in zip(u, eps))


def _atlas_saturation_sqrt(r, q):
    """(totals histogram, maximizing graphs) of the rank-r angle-1/sqrt(q)
    search by brute force over the networkx graph atlas: h = q*G has q on
    the diagonal and +-sqrt(q) off it (root +sqrt(q) with all, -sqrt(q) on
    edges).  A unit line at angle 1/sqrt(q) has eps^T adj eps = det, and two
    of them are at angle 1/sqrt(q) when sqrt(q) * eps_i^T adj eps_j = +-det."""
    signs = [(1,) + tuple(1 - 2 * (g >> i & 1) for i in range(r - 1)) for g in range(1 << (r - 1))]
    hist, best, winners = {}, 0, []
    for g in nx.graph_atlas_g():
        if g.number_of_nodes() != r - 1:
            continue
        h = [
            [(q, 0) if i == j else (0, -1) if i and j and g.has_edge(i - 1, j - 1) else (0, 1)
             for j in range(r)]
            for i in range(r)
        ]
        found = _pair_bareiss_adjugate(h, q)
        if found is None:
            continue
        det, adj = found
        for i in range(r):
            for j in range(r):
                entry = (0, 0)
                for t in range(r):
                    prod = _pair_mul(adj[i][t], h[t][j], q)
                    entry = (entry[0] + prod[0], entry[1] + prod[1])
                assert entry == (det if i == j else (0, 0))
        cands = []
        for eps in signs:
            u = [_pair_dot(row, eps) for row in adj]
            if _pair_dot(u, eps) == det:
                cands.append((eps, u))
        compat = nx.Graph()
        compat.add_nodes_from(range(len(cands)))
        minus_det = (-det[0], -det[1])
        for i, (_, u) in enumerate(cands):
            compat.add_edges_from(
                (i, j) for j in range(i + 1, len(cands))
                if _pair_mul((0, 1), _pair_dot(u, cands[j][0]), q) in (det, minus_det)
            )
        total = r + max((len(c) for c in nx.find_cliques(compat)), default=0)
        hist[total] = hist.get(total, 0) + 1
        if total > best:
            best, winners = total, []
        if total == best:
            winners.append(g)
    return hist, winners


@pytest.mark.parametrize("r,q", [(7, 13), (8, 17)])
def test_quadratic_cells_match_a_brute_force_over_the_graph_atlas(r, q):
    """The Z[sqrt d] counterpart of the rank-8 atlas oracle, sharing no code
    with graphenum or saturate: the PD class count, the totals
    histogram and the maximizing graphs (up to isomorphism) of
    m_alpha(r, 1/sqrt(q))."""
    hist, winners = _atlas_saturation_sqrt(r, q)
    rep = m_alpha(r, parse_scalar(f"1/sqrt({q})"))
    assert rep.certificate["seeds"] == sum(hist.values())
    assert rep.certificate["totals_histogram"] == {str(t): n for t, n in sorted(hist.items())}
    seeds = rep.certificate["maximizing_seeds"]
    assert len(seeds) == len(winners)
    for entry in seeds:
        g6 = graph_from_graph6(entry["graph6"])
        graph = nx.Graph([(i, j) for i in range(g6.n) for j in range(i) if g6.has_edge(i, j)])
        graph.add_nodes_from(range(g6.n))
        assert sum(nx.is_isomorphic(graph, w) for w in winners) == 1
    pinned = {13: {7: 43, 8: 4, 14: 28}, 17: {8: 394, 9: 85, 10: 32}}  # 75 and 511 classes
    assert hist == pinned[q]


# -- a floating-point oracle at rank 9, angle 1/sqrt(17): numpy and networkx ----

_BAND = (1e-9, 1e-5)  # |x| <= 1e-9 reads as zero, |x| >= 1e-5 as nonzero


def _outside_band(x):
    """x, after failing the test if any |x| lies in the ambiguity band."""
    a = abs(x)
    assert not ((a > _BAND[0]) & (a < _BAND[1])).any(), "a floating-point decision is unclear"
    return x


def _gram(np, adj, alpha):
    """The Grams I + alpha*S of a stack of non-root adjacency matrices, the
    root (row and column 0) at +alpha with every vertex."""
    n = adj.shape[-1] + 1
    gram = np.full(adj.shape[:-2] + (n, n), alpha)
    gram[..., 1:, 1:] = alpha * (1 - 2 * adj.astype(float))
    gram[..., range(n), range(n)] = 1.0
    return gram


def _rank9_sqrt17_oracle(np):
    """(PD children, classes, totals histogram) of the rank-9 angle-1/sqrt(17)
    search, sharing no code with equiangular.  Every 7-vertex atlas graph is
    extended by all 128 masks; a child is PD when the least eigenvalue
    (eigvalsh) of its Gram I + alpha*S, root row +alpha, is positive.
    Children are deduplicated exactly: a child is a duplicate when its
    adjacency, with the vertices sorted by (degree, triangles), equals that
    of an earlier child (a relabelling), or when vf2pp_is_isomorphic maps it
    onto a class of its bucket (sorted degrees and triangles, adjacency
    spectrum).  A class's unit candidates are the sign vectors with
    alpha^2 * eps^T G^-1 eps = 1, two are compatible when
    |alpha^2 * eps_i^T G^-1 eps_j| = alpha, and the total adds the clique
    number of nx.find_cliques to the rank."""
    n, alpha = 9, 17 ** -0.5
    atlas = [g for g in nx.graph_atlas_g() if g.number_of_nodes() == n - 2]
    parents = np.array([nx.to_numpy_array(g, nodelist=range(n - 2)) for g in atlas])
    masks = np.array([[m >> i & 1 for i in range(n - 2)] for m in range(1 << (n - 2))])
    adj = []
    for chunk in np.array_split(parents, 16):  # the children of 1044 parents, in chunks
        a = np.zeros((len(chunk), len(masks), n - 1, n - 1), dtype=np.int8)
        a[:, :, :-1, :-1] = chunk[:, None]
        a[:, :, -1, :-1] = a[:, :, :-1, -1] = masks[None]
        pd = _outside_band(np.linalg.eigvalsh(_gram(np, a, alpha))[..., 0]) > _BAND[1]
        adj.append(a[pd])
    adj = np.concatenate(adj)
    degrees = adj.sum(axis=2, dtype=np.int64)
    triangles = ((adj @ adj) * adj).sum(axis=2, dtype=np.int64)  # twice the triangles at each vertex
    order = np.lexsort((triangles, degrees), axis=1)
    forms = np.take_along_axis(np.take_along_axis(adj, order[:, :, None], 1), order[:, None, :], 2)
    invariants = np.concatenate([np.sort(degrees, 1), np.sort(triangles, 1)], 1)
    spectra = np.round(np.linalg.eigvalsh(adj.astype(float)), 6) + 0.0
    seen, buckets, classes = set(), {}, []
    for c in range(len(adj)):
        form = forms[c].tobytes()
        if form in seen:
            continue
        seen.add(form)
        g = nx.Graph()
        g.add_nodes_from(range(n - 1))
        g.add_edges_from(zip(*(x.tolist() for x in np.nonzero(np.triu(adj[c])))))
        bucket = buckets.setdefault((invariants[c].tobytes(), spectra[c].tobytes()), [])
        if not any(nx.vf2pp_is_isomorphic(g, h) for h in bucket):
            bucket.append(g)
            classes.append(c)
    signs = np.array([[1] + [1 - 2 * (m >> i & 1) for i in range(n - 1)] for m in range(1 << (n - 1))])
    inverses = np.linalg.inv(_gram(np, adj[classes], alpha))
    hist = {}
    for inv in inverses:
        unit = _outside_band(alpha * alpha * np.einsum("si,ij,sj->s", signs, inv, signs) - 1)
        cands = signs[np.abs(unit) <= _BAND[0]]
        off = _outside_band(np.abs(alpha * alpha * cands @ inv @ cands.T) - alpha)
        compat = nx.Graph()
        compat.add_nodes_from(range(len(cands)))
        compat.add_edges_from(zip(*(x.tolist() for x in np.nonzero(np.triu(np.abs(off) <= _BAND[0], 1)))))
        total = n + max((len(c) for c in nx.find_cliques(compat)), default=0)
        hist[total] = hist.get(total, 0) + 1
    return len(adj), len(classes), hist


def test_rank9_sqrt17_matches_a_floating_point_oracle(table3_fast):
    """The (9, 1/sqrt(17)) cell, which decides M*(9) = 18, against an oracle
    in floating point (numpy) and networkx that shares no code with
    equiangular: the number of classes and the totals histogram."""
    np = pytest.importorskip("numpy")
    children, classes, hist = _rank9_sqrt17_oracle(np)
    assert (children, classes, hist) == (35439, 3202, {9: 2247, 10: 692, 11: 77, 18: 186})
    rep = table3_fast[(9, "1/sqrt(17)")]
    assert rep.certificate["seeds"] == classes
    assert rep.certificate["totals_histogram"] == {str(t): k for t, k in sorted(hist.items())}
