import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from equiangular import bounds, linalg
from equiangular.bounds import (
    B4_CLASSES,
    DEGREE_CLASS_CAPS,
    T1111_CAP,
    PillarStructureError,
    _CAP_MARGIN,
    _coexistence_feasible_st,
    _m_line,
    _m_scaled,
    coexistence_check,
    degree_class_cap,
    gerzon_bound,
    instance_feasible,
    k3_bound,
    k4_bound,
    k5_bound,
    mask_label,
    neumann_candidate_pairs,
    neumann_candidates,
    neumann_restriction,
    pillar52_gram,
    pillar52_rank_bound,
    pillar_coexistence_bound,
    relative_bound,
    single_variable_cap,
    table2,
    table2_row,
    two_31_pillar_search,
    welch_bound_sq,
)
from equiangular.exactnum import parse_scalar
from equiangular.seidel import Graph

PRINTED_PAIRS = [
    (-2, -7), (-2, -6), (-2, -5), (-2, -4), (-2, -2), (-2, -1), (-1, -13),
    (-1, -11), (-1, -10), (-1, -9), (-1, -8), (-1, -7), (-1, -5), (-1, -4),
    (-1, -3), (-1, -1), (0, -15), (0, -14), (0, -13), (0, -12), (0, -11),
    (0, -10), (0, -8), (0, -7), (0, -6), (0, -5), (0, -3), (0, -2), (1, -13),
    (1, -11), (1, -10), (1, -9), (1, -8), (1, -7), (1, -5), (1, -4), (1, -3),
    (1, -1), (2, -7), (2, -6), (2, -5), (2, -4), (2, -2), (2, -1),
]


# -- coexistence -----------------------------------------------------------------


def test_coexistence_examples():
    inst = coexistence_check(3, (0, 0, 0, 0))
    assert inst.feasible and inst.m == linalg.SymMatrix.identity(2)
    assert coexistence_check(3, (54, 9, 9, 0)).feasible
    assert coexistence_check(3, (72, 0, 0, 0)).feasible
    assert not coexistence_check(3, (73, 0, 0, 0)).feasible


def test_coexistence_matches_psd():
    rng = random.Random(40)
    for _ in range(300):
        n = rng.choice((2, 3, 4))
        ell = tuple(rng.randrange(0, 90) for _ in range(4))
        inst = coexistence_check(n, ell)
        assert inst.feasible == linalg.psd_check(inst.m).is_psd


def test_coexistence_monotone():
    rng = random.Random(41)
    for _ in range(200):
        n = rng.choice((2, 3))
        ell = [rng.randrange(0, 40) for _ in range(4)]
        if not coexistence_check(n, tuple(ell)).feasible:
            continue
        for i in range(4):
            if ell[i] > 0:
                smaller = list(ell)
                smaller[i] -= 1
                assert coexistence_check(n, tuple(smaller)).feasible


def test_pillar_coexistence_bound_values():
    for n, value, vertex in [(2, 24, (16, 4)), (3, 72, (72, 0)), (4, 200, (200, 0))]:
        rep = pillar_coexistence_bound(n)
        assert rep.value == value
        assert (rep.certificate["vertex"]["s"], rep.certificate["vertex"]["t"]) == vertex
        quad = rep.certificate["quadruple"]
        assert coexistence_check(n, tuple(quad)).feasible
        assert sum(quad) == value


def test_pillar_coexistence_matches_a_scan_of_every_point():
    for n in range(2, 6):
        big = n * n * (n + 1) * (n + 1)
        points = [(s, t) for t in range(big + 1) for s in range(big + 1)
                  if _coexistence_feasible_st(n, s, t)]
        best = max(s + 2 * t for s, t in points)
        rep = pillar_coexistence_bound(n)
        assert rep.value == best
        # the optima are the vertices on the best line, one per t (its largest s)
        optima = sorted((s, t) for s, t in points if s + 2 * t == best)
        assert [(o["s"], o["t"]) for o in rep.certificate["optima"]] == optima[::-1]


def test_pillar_coexistence_matches_closed_form():
    for n in range(2, 9):
        branches = []
        if n <= 3:
            branches.append(2 * n * n * (n + 1))
        if n >= 3:
            branches.append(n * n * (n + 1) * (n + 1) // 2)
        assert pillar_coexistence_bound(n).value == max(branches)


# -- the two-(3,1)-pillar enumeration ----------------------------------------------


def test_single_variable_caps():
    assert [single_variable_cap(m) for m in (0b0000, 0b0001, 0b0011, 0b0111, 0b1111)] == [
        9, 7, 7, 9, 39,
    ]
    # symmetry inside each degree class
    for cls in (1, 2, 3):
        caps = {single_variable_cap(m) for m in B4_CLASSES[cls]}
        assert len(caps) == 1


_TABLE2_CAPS = [(rep, t1111) for t1111 in range(T1111_CAP + 1) for rep in (0, 1, 3, 7)]
_SINGLE_CAPS = [(mask, 0) for mask in (0, 1, 3, 7, 15)]


def _line_point(mask, t1111, v):
    t = {15: t1111}
    t[mask] = t.get(mask, 0) + v
    return t


def test_cap_walk_reads_the_schur_matrix_off_its_line(monkeypatch):
    # every matrix the walk tests is _m_scaled at v = 1 .. cap + 1 (the walk
    # up) and then cap + 2 .. cap + 1 + _CAP_MARGIN (the margin), in order
    seen = []
    psd4 = bounds._is_psd4
    monkeypatch.setattr(bounds, "_is_psd4", lambda m: seen.append(m) or psd4(m))
    for mask, t1111 in _TABLE2_CAPS + _SINGLE_CAPS:
        seen.clear()
        cap = single_variable_cap(mask, t1111)
        vs = range(1, cap + _CAP_MARGIN + 2)
        assert seen == [_m_scaled(_line_point(mask, t1111, v)) for v in vs]
        at = _m_line(mask, t1111)
        assert [at(v) for v in vs] == seen


def test_cap_walk_still_checks_its_margin(monkeypatch):
    # a matrix reported feasible 30 values above the cap is a feasibility
    # island, which only the margin re-check can see
    cap = single_variable_cap(0b0001)
    island = _m_scaled(_line_point(0b0001, 0, cap + 30))
    psd4 = bounds._is_psd4
    monkeypatch.setattr(bounds, "_is_psd4", lambda m: m == island or psd4(m))
    with pytest.raises(AssertionError, match=f"feasibility island above the cap {cap} for mask 1"):
        single_variable_cap(0b0001)


def _product_scan(cls):
    """Reference for degree_class_cap: every value tuple of the class's box,
    in lexicographic order."""
    masks = B4_CLASSES[cls]
    cap = single_variable_cap(masks[0])
    best, arg = 0, {m: 0 for m in masks}
    for vals in product(range(cap + 1), repeat=len(masks)):
        if sum(vals) > best and instance_feasible(dict(zip(masks, vals))):
            best, arg = sum(vals), dict(zip(masks, vals))
    return best, arg


@pytest.mark.slow
def test_degree_class_cap_matches_the_full_box_scan():
    for cls in (1, 2, 3):
        assert degree_class_cap(cls) == _product_scan(cls)


@given(st.dictionaries(st.integers(0, 15), st.integers(0, 8), max_size=6))
def test_feasibility_is_downward_closed(t):
    assume(instance_feasible(t))
    for mask, value in t.items():
        if value:
            assert instance_feasible({**t, mask: value - 1})


DEGREE_CLASS_REPORTS = {
    1: {"0001": 4, "0010": 4, "0100": 4, "1000": 4},
    2: {"0101": 2, "0110": 2, "1001": 2, "1010": 2, "1100": 5},
    3: {"0111": 4, "1011": 4, "1101": 4, "1110": 4},
}


@pytest.mark.parametrize("cls", [1, 2, 3])
def test_degree_class_reports_are_pinned(cls):
    cap, arg = degree_class_cap(cls)
    assert cap == DEGREE_CLASS_CAPS[cls]
    assert {mask_label(m): v for m, v in arg.items() if v} == DEGREE_CLASS_REPORTS[cls]


def test_degree_class_caps():
    for cls, want in [(1, 16), (2, 13), (3, 16)]:
        cap, arg = degree_class_cap(cls)
        assert cap == want == DEGREE_CLASS_CAPS[cls]
        assert instance_feasible(arg)
    # the degree-1 maximum occurs at 4 vectors per pattern
    _, arg = degree_class_cap(1)
    assert sorted(arg.values()) == [4, 4, 4, 4]


def _schur_matrix(t):
    """The paper's 4x4 matrix M whose positive semidefiniteness constrains the
    occupation numbers t_B, in rationals: from the inner products 1/4 (bit 0)
    and -1/5 (bit 1) of a pattern-B vector with the 4 opposite vectors."""
    def ip(mask, i):
        return Fraction(-1, 5) if mask >> i & 1 else Fraction(1, 4)

    n = sum(t.values())
    w = [sum(c * ip(b, i) for b, c in t.items()) for i in range(4)]
    v = [[sum(c * ip(b, i) * ip(b, j) for b, c in t.items()) for j in range(4)]
         for i in range(4)]
    coef = Fraction(10, 9 * (9 + n))
    return linalg.SymMatrix([
        [(1 if i == j else Fraction(1, 10)) - Fraction(10, 9) * v[i][j] + coef * w[i] * w[j]
         for j in range(4)]
        for i in range(4)
    ])


def test_instance_feasibility_matches_exact_psd():
    rng = random.Random(42)
    for _ in range(300):
        t = {m: rng.randrange(0, 6) for m in rng.sample(range(16), rng.randrange(1, 5))}
        m = _schur_matrix(t)
        scale = 360 * (9 + sum(t.values()))
        assert _m_scaled(t) == [[scale * m.entry(i, j) for j in range(4)] for i in range(4)]
        assert instance_feasible(t) == linalg.psd_check(m).is_psd


def test_table2_rows_and_maximum():
    rows = table2()
    assert len(rows) == 40
    assert rows[0].caps == (9, 7, 7, 9) and rows[0].m_bar == 54
    assert rows[23].caps == (0, 0, 0, 4) and rows[23].m_bar == 39
    assert max(r.m_bar for r in rows) == 54
    report = two_31_pillar_search()
    assert report.value == 54
    assert report.certificate["per_variable_caps"] == [9, 7, 7, 9, 39]
    assert report.certificate["degree_class_caps"] == [16, 13, 16]


@pytest.mark.parametrize("t1111", [-1, T1111_CAP + 1, 100000])
def test_table2_row_outside_the_strata_is_rejected(t1111):
    with pytest.raises(ValueError, match="t1111"):
        table2_row(t1111)


def test_table2_single_rows():
    assert table2_row(4).caps == (2, 3, 4, 8) and table2_row(4).m_bar == 47
    rep = two_31_pillar_search(t1111=23)
    assert rep.value == 39
    assert degree_class_cap(2)[0] == 13


def test_mask_label():
    assert mask_label(0) == "0000"
    assert mask_label(0b0001) == "0001"
    assert mask_label(15) == "1111"


# -- aggregate bounds ----------------------------------------------------------------


def test_k3_bound():
    assert k3_bound(23).value == 165
    assert k3_bound(159).value == 165
    assert k3_bound(200).value == 206
    with pytest.raises(ValueError):
        k3_bound(2)


def test_k4_bound():
    rep = k4_bound(23)
    assert rep.certificate["sector_41"] == 96
    assert rep.value == "100 + 3*s(r-4, 1/13, -5/13)"
    assert k4_bound(30, s_value=26).value == 178
    assert k4_bound(101).certificate["sector_41"] == 100
    assert k4_bound(10).certificate["per_pillar_cap"] == 24


def test_k5_bound():
    assert k5_bound(23).value == 272
    assert k5_bound(300).value == 412
    assert k5_bound(23).certificate["two_52_pillars"]["value"] == 258 - 1 + 15


# -- (5,2) pillar rank bound ----------------------------------------------------------


def test_pillar52_empty_graph():
    for m in (4, 6, 9):
        rep = pillar52_rank_bound(Graph.empty(m))
        assert rep.radius_two_components == 0
        assert rep.rank == m and rep.nullity == 0
        assert rep.bound_ok == (3 * m <= 4 * (m - 1))
    assert not pillar52_rank_bound(Graph.empty(2)).bound_ok


def test_pillar52_cycle_c4():
    c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    rep = pillar52_rank_bound(c4)
    assert rep.radius_two_components == 1
    assert rep.nullity == 0 and rep.rank == 4 and rep.bound_ok
    # direct kernel oracle on the Gram (1/5)J + (4/5)I - (2/5)A
    assert linalg.rank_of(pillar52_gram(c4)) == 4


def test_pillar52_two_cycles_nullity():
    g = Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 0),
                             (4, 5), (5, 6), (6, 7), (7, 4)])
    rep = pillar52_rank_bound(g)
    assert rep.radius_two_components == 2 and rep.nullity == 1
    assert rep.rank == 7
    assert linalg.rank_of(pillar52_gram(g)) == 7


def test_pillar52_rejections():
    with pytest.raises(PillarStructureError):
        pillar52_rank_bound(Graph.complete(3))
    # K_{2,3} is triangle-free with spectral radius sqrt(6) > 2
    k23 = Graph.from_edges(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
    with pytest.raises(PillarStructureError):
        pillar52_rank_bound(k23)


# -- Neumann restriction and candidates --------------------------------------------------


def test_neumann_restriction():
    res = neumann_restriction(10, 19)
    assert res.applies and res.conference_angle is None
    res = neumann_restriction(9, 17)
    assert res.applies and res.conference_angle == parse_scalar("1/sqrt(17)")
    res = neumann_restriction(8, 14)  # does not exceed 2r-2 = 14
    assert not res.applies
    res = neumann_restriction(5, 9)  # 1/sqrt(9) = 1/3 is an odd reciprocal
    assert res.applies and res.conference_angle is None


@pytest.mark.parametrize("size, r", [(2, 2), (0, 1), (-2, 0)])
def test_neumann_candidates_need_a_positive_multiplicity(size, r):
    with pytest.raises(ValueError):
        neumann_candidates(size, r)


def test_neumann_candidates_match_printed_list():
    pairs = neumann_candidate_pairs(14, 8)
    assert len(pairs) == 44
    assert pairs == sorted(PRINTED_PAIRS)
    assert (0, -15) in pairs and (2, -7) in pairs
    assert (-2, -7) in pairs and (-2, -8) not in pairs
    # symmetric under c1 -> -c1
    assert all((-a, b) in pairs for a, b in pairs)


def test_neumann_candidate_identities():
    for cand in neumann_candidates(14, 8):
        assert 6 * cand.c1 + cand.c3 == 0
        assert 6 * (cand.c1**2 - 2 * cand.c2) + (cand.c3**2 - 2 * cand.c4) == 182
        assert cand.delta > 0
        s = int(cand.delta**0.5)
        assert s * s != cand.delta
        assert cand.c3**2 - 4 * cand.c4 >= 0
        a, a_star = cand.root_pair()
        assert all(x * x - cand.c1 * x + cand.c2 == 0 for x in (a, a_star))
        assert a < a_star


# -- classical bounds ------------------------------------------------------------------


def test_relative_bound():
    assert relative_bound(9, Fraction(1, 7)) == 10
    assert relative_bound(9, Fraction(1, 5)) == 13
    assert relative_bound(2, Fraction(1, 3)) == 2
    assert relative_bound(9, parse_scalar("1/sqrt(17)")) == 18
    with pytest.raises(ValueError):
        relative_bound(9, Fraction(1, 3))  # 9 = 1/alpha^2 violates r < 1/alpha^2


def test_gerzon_bound():
    assert gerzon_bound(7) == 28
    assert gerzon_bound(23) == 276
    assert gerzon_bound(1) == 1


def test_welch_bound():
    assert welch_bound_sq(18, 9) == Fraction(1, 17)
    assert welch_bound_sq(28, 7) == Fraction(1, 9)
    assert welch_bound_sq(8, 7) == Fraction(1, 49)  # simplex: alpha = 1/r
    with pytest.raises(ValueError):
        welch_bound_sq(7, 7)
