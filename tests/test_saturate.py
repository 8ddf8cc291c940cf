import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import isqrt
from operator import mul

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equiangular.exactnum import QuadExt, parse_scalar, quad_sign, ring_to_scalar
from equiangular.graphenum import count_graph_classes
from equiangular.linalg import psd_check
from equiangular.saturate import (
    CertificateError,
    _Mode,
    _SignScan,
    _adj_matrices,
    _alpha_mode,
    _candidate_data_raw,
    _children_totals,
    _compat_adj_raw,
    _extend_record,
    _pd_ladder,
    _pd_neighbor_masks,
    _pd_values,
    _root_record,
    _sign_vector,
    _square_key,
    candidates,
    compatibility_graph,
    enumerate_pd_bases,
    m_alpha,
    m_star,
    realize,
    saturation_report,
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


def test_candidates_and_saturation_totals(enum_8_third):
    totals = []
    for seed in enum_8_third.seeds:
        rep = saturation_report(seed)
        totals.append(rep.total)
        assert rep.total == 8 + rep.clique_size
        # re-verify candidate coordinates solve G c = alpha eps with unit norm
        cs = candidates(seed)
        g = seed.gram()
        for line in cs.lines[:8]:
            lhs = [
                sum(g.entry(i, j) * line.coords[j] for j in range(8))
                for i in range(8)
            ]
            assert lhs == [Fraction(1, 3) * e for e in line.sign_vector]
            norm = sum(line.coords[i] * lhs[i] for i in range(8))
            assert norm == 1
    assert sorted(totals) == [8, 14, 14]


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


def test_compatibility_graph_edges(enum_8_third):
    seed = max(enum_8_third.seeds, key=lambda s: s.graph.edge_count())
    cs = candidates(seed)
    g = compatibility_graph(cs)
    # every edge corresponds to an exact +-alpha inner product
    gram = seed.gram()
    for i in range(g.n):
        ci = cs.lines[i].coords
        for j in range(i + 1, g.n):
            cj = cs.lines[j].coords
            inner = sum(
                ci[a] * gram.entry(a, b) * cj[b] for a in range(8) for b in range(8)
            )
            if g.has_edge(i, j):
                assert inner in (Fraction(1, 3), Fraction(-1, 3))
            else:
                assert inner not in (Fraction(1, 3), Fraction(-1, 3))


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
    enum = enumerate_pd_bases(9, alpha, count_scanned=False)
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
    scan = _SignScan([m])
    assert scan.quads() == [[quad[0] for _, quad, _ in _direct_walk(m, None, None)]]
    for t in targets:
        pvals = _pd_values(_UNIT_MODE, t, scan)
        want = _masks(_direct_walk(m, None, t))
        assert _pd_neighbor_masks(_UNIT_MODE, {"adj": m, "det": t}, scan, pvals) == want
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
    scan = _SignScan([m])
    pvals = _pd_values(mode, det, scan)
    assert _pd_neighbor_masks(mode, {"adj": m, "det": det}, scan, pvals) == want


@settings(max_examples=80, deadline=None)
@given(m=_symmetric_int_matrices(), data=st.data())
def test_unit_candidates_at_two_sevenths(m, data):
    """At angle 2/7 (corner 7, bscale^2 = 4) eps is a unit candidate when
    quad * bscale^2 == corner * det.  The scanned matrix is 7*m, so
    det = 4*q for a quad q of m has candidates, and a det not divisible by
    4 has none, since corner*det / bscale^2 is then not an integer."""
    n = len(m)
    mode = _alpha_mode(Fraction(2, 7))
    m7 = [[7 * x for x in row] for row in m]
    full = _direct_walk(m7, None, None)
    q = data.draw(st.sampled_from([quad[0] for _, quad, _ in full])) // 7
    det = 4 * q + data.draw(st.sampled_from([0, 0, 1, 2, 3, -4, 4]))
    want = [
        (_sign_vector(mask, n), u)
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
    """Sums of |m_ij| over i < j of 2^k - 1 and 2^k, where a field of
    reach.bit_length() // 8 + 1 bytes keeps its top (guard) bit free with
    no byte to spare, or gains a byte; each matrix has a sign vector whose
    field holds reach, and its quads() are checked with the scan tests."""
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
    scan = _SignScan([a, b])
    assert scan.quads() == [list(col) for col in zip(*quads)]
    g = data.draw(st.integers(0, len(quads) - 1))
    ta, tb = quads[g][0] + data.draw(st.sampled_from([0, 0, 1])), quads[g][1]
    hits = [i for i, q in enumerate(quads) if q == (ta, tb)]
    # 1/sqrt(17) has corner = bscale^2 = 17, so the unit target is det itself
    mode = _alpha_mode(parse_scalar("1/sqrt(17)"))
    cands = _candidate_data_raw(mode, (ta, tb), [a, b], n)
    assert cands == [
        (_sign_vector(walk_a[i][0], n), [walk_a[i][2][0], walk_b[i][2][0]]) for i in hits
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
    assert _pd_neighbor_masks(mode, rec, scan, _pd_values(mode, det, scan)) == want


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
    records = _pd_ladder(mode, 6)
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
    return r + _clique_number(_compat_adj_raw(mode, rec["det"], data, r), len(data))


@pytest.mark.parametrize(
    "r,alpha,children,zeros",
    [(8, "1/5", 8924, 39), (8, "1/7", 9983, 1), (7, "1/sqrt(13)", 556, 0), (8, "1/sqrt(17)", 5067, 94)],
)
def test_children_totals_match_the_record_path(r, alpha, children, zeros):
    """Every PD child of every final-level parent, not only the class
    representatives, gets the same total from the parent's data as from its
    own record.  The sign vectors with P(eps) = 0 (the parent's own
    candidates) are counted, so the cells that reach them are known."""
    mode = _alpha_mode(parse_scalar(alpha))
    seen = zero_members = 0
    for rec in _pd_ladder(mode, r - 2):
        scan = _SignScan(_adj_matrices(rec))
        pvals = _pd_values(mode, rec["det"], scan)
        nbs = _pd_neighbor_masks(mode, rec, scan, pvals)
        want = [_record_total(mode, _extend_record(mode, rec, nb, scan.ms), r) for nb in nbs]
        assert _children_totals(mode, rec["det"], scan.ms, pvals, nbs, r) == want
        seen += len(nbs)
        zero_members += sum(p in (0, (0, 0)) for p in pvals)  # an int over Z, a pair over Z[sqrt d]
    assert (seen, zero_members) == (children, zeros)


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


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 10**20), k=st.integers(0, 10**40))
def test_isqrt_is_exact_up_to_1e40(n, k):
    assert isqrt(n * n) == n
    if n:
        assert isqrt(n * n - 1) == n - 1
    t = isqrt(k)
    assert t * t <= k < (t + 1) * (t + 1)


@pytest.mark.parametrize("alpha", ["1/5", "1/sqrt(17)"])
def test_worker_pool_gives_the_same_report(alpha):
    one = m_alpha(8, parse_scalar(alpha), jobs=1).to_dict()
    assert m_alpha(8, parse_scalar(alpha), jobs=2).to_dict() == one


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
