"""Acceptance criteria, one test per numbered item; every comparison is exact.

Each test prints a single PASS line (run pytest with -s to see them).  The
rank-10 angle-1/5 saturation cell is marked slow; it completes in a few
minutes on one core (python -m pytest -m slow runs it).
"""

import time
from fractions import Fraction

import pytest

from equiangular import bounds, constructions, linalg, saturate
from equiangular.cli import render_table2
from equiangular.seidel import base_size


def _announce(num, text):
    print(f"ACCEPTANCE {num} PASS - {text}")


def test_criterion_1_coexistence_bounds():
    t0 = time.monotonic()
    for n, want in [(2, 24), (3, 72), (4, 200)]:
        t1 = time.monotonic()
        rep = bounds.pillar_coexistence_bound(n)
        assert rep.value == want
        s, t = rep.certificate["vertex"]["s"], rep.certificate["vertex"]["t"]
        inst = bounds.coexistence_check(n, (s, t, t, 0))
        assert inst.feasible and inst.size == want
        assert linalg.psd_check(inst.m).is_psd
        assert time.monotonic() - t1 < 1.0
    _announce(1, f"coexistence bounds 24/72/200 with re-verified certificates "
                 f"({time.monotonic() - t0:.2f}s)")


def test_criterion_2_table2_reproduction(tmp_path):
    t0 = time.monotonic()
    rows = bounds.table2()
    text = render_table2(rows)
    import equiangular

    pinned = open(
        equiangular.__path__[0] + "/data/table2_expected.txt"
    ).read()
    assert text == pinned  # byte-identical
    assert [r.t1111 for r in rows] == list(range(40))
    assert max(r.m_bar for r in rows) == 54
    elapsed = time.monotonic() - t0
    assert elapsed < 300
    _announce(2, f"40-row caps table byte-identical to pinned, max 54 ({elapsed:.2f}s)")


def test_criterion_3_degree_class_and_variable_caps():
    caps = [bounds.single_variable_cap(m) for m in (0b0000, 0b0001, 0b0011, 0b0111, 0b1111)]
    assert caps == [9, 7, 7, 9, 39]
    class_caps = [bounds.degree_class_cap(c)[0] for c in (1, 2, 3)]
    assert class_caps == [16, 13, 16]
    _announce(3, "per-variable caps 9/7/7/9/39 and degree-class caps 16/13/16")


def test_criterion_4_k3_k5_bounds():
    assert bounds.k3_bound(23).value == 165
    assert bounds.k5_bound(23).value == 272
    assert bounds.k5_bound(300).value == 412
    _announce(4, "k3(23)=165, k5(23)=272, k5(300)=412")


def test_criterion_5_witt_construction(witt_pillars):
    # rebuild from scratch so the stated runtime covers the construction too
    constructions.golay_octads.cache_clear()
    constructions.witt276.cache_clear()
    t0 = time.monotonic()
    witt = constructions.witt276()
    assert len(witt.octads.octads) == 759
    assert len(witt.octads.octads_through_1) == 253
    e = witt.lines
    assert e.n == 276 and e.rank == 23
    count = 0
    vecs = witt.vectors
    for i in range(276):
        vi = vecs[i]
        for j in range(i + 1, 276):
            assert sum(a * b for a, b in zip(vi, vecs[j])) in (16, -16)
            count += 1
    assert count == 37950
    assert base_size(e)[0] == 6
    oriented, dec = witt_pillars
    sizes = dec.sizes()
    assert len(sizes) == 10 and set(sizes.values()) == {27}
    g = oriented.seidel.graph()
    triangles = 0
    for verts in dec.pillars.values():
        comps = g.induced(verts).components()
        assert all(len(c) == 3 for c in comps)
        triangles += len(comps)
    assert triangles == 90
    elapsed = time.monotonic() - t0
    assert elapsed < 120
    _announce(5, f"759/253 octads, 276 lines rank 23, base 6, 10x27 pillars, "
                 f"90 triangles, 37950 products +-1/5 ({elapsed:.2f}s)")


def test_criterion_6_seidel_spectrum(witt):
    t0 = time.monotonic()
    cert = constructions.witt_spectrum_certificate()
    assert cert["rank_A_plus_5I"] == 23
    assert cert["rank_A_minus_55I"] == 253
    assert cert["product_zero"]
    assert cert["spectrum"] == {"-5": 253, "55": 23}
    assert cert["trace_check"] and cert["trace_sq_check"]
    elapsed = time.monotonic() - t0
    assert elapsed < 300
    _announce(6, f"spectrum -5^253, 55^23 certified by A^2 = 50A + 275I and tr A = 0 "
                 f"({elapsed:.2f}s)")


def test_criterion_7_saturation_pipeline(m_8_third):
    t0 = time.monotonic()
    assert m_8_third.certificate["classes_scanned"] == 1044
    assert m_8_third.certificate["seeds"] == 3
    assert m_8_third.certificate["totals_histogram"] == {"8": 1, "14": 2}
    assert m_8_third.value == 14
    uniq = saturate.uniqueness_check_8_third()
    assert uniq["equivalent"] and uniq["witness"] is not None
    elapsed = time.monotonic() - t0
    assert elapsed < 600
    _announce(7, f"1044 classes, 3 PD seeds, totals 8/14/14, M=14, uniqueness "
                 f"witness produced ({elapsed:.2f}s)")


def test_criterion_8_table3(table3_fast):
    expected = {
        (9, "1/3"): 16, (8, "1/5"): 10, (9, "1/5"): 12, (8, "1/7"): 9,
        (9, "1/7"): 10, (9, "1/sqrt(17)"): 18, (10, "1/3"): 18, (8, "1/3"): 14,
    }
    for cell, want in expected.items():
        assert table3_fast[cell].value == want, cell
    elapsed = table3_fast["elapsed"]
    assert elapsed < 1800
    _announce(8, f"eight fast table cells exact in {elapsed:.0f}s; the (10, 1/5) "
                 f"cell runs under the slow marker")


@pytest.mark.slow
def test_criterion_8_table3_rank10_slow(m_10_fifth):
    assert m_10_fifth["report"].value == 16
    peak = m_10_fifth["peak_rss_mb"]
    assert peak < 150  # the whole search in one process, flat-memory gate
    _announce(8, f"(10, 1/5) saturation cell = 16 ({m_10_fifth['elapsed']:.0f}s, "
                 f"peak RSS {peak:.0f} MB)")


def test_criterion_9_m_star(mstar_reports):
    assert mstar_reports[8].value == 14
    assert mstar_reports[9].value == 18
    assert mstar_reports[10].value == 18
    assert bounds.relative_bound(9, Fraction(1, 7)) == 10
    for r in (8, 9, 10):
        audit = mstar_reports[r].certificate["audit"]
        assert any(a.get("excluded") for a in audit)  # exclusions recorded
    _announce(9, "M*(8)=14, M*(9)=18, M*(10)=18 with angle-exclusion audits")


def test_criterion_10_generalized_neumann():
    from test_bounds import PRINTED_PAIRS

    c = constructions.paley_conference(17)
    assert c.n == 18 and c.n % 4 == 2
    n = c.n
    for i in range(n):
        for j in range(n):
            assert sum(c.rows[i][k] * c.rows[k][j] for k in range(n)) == (
                17 if i == j else 0
            )
    etf = constructions.conference_etf(c)
    assert etf.n == 18 and etf.rank == 9
    assert linalg.rank_of(etf.gram().submatrix(range(17))) == 9
    pairs = bounds.neumann_candidate_pairs(14, 8)
    assert len(pairs) == 44
    assert pairs == sorted(PRINTED_PAIRS)
    _announce(10, "Paley pipeline (B^2=17I, 18 lines rank 9, 17-line subsystem "
                  "rank 9) and all 44 candidate pairs element-for-element")


def test_criterion_11_property_suites():
    import test_linalg

    # PSD checker vs principal-minor oracle on 10^4 random matrices runs in
    # test_linalg; spot-verify a fresh reduced sample here
    import random

    rng = random.Random(99)
    for _ in range(500):
        nn = rng.randrange(1, 8)
        rows = [[0] * nn for _ in range(nn)]
        for i in range(nn):
            rows[i][i] = 5
            for j in range(i + 1, nn):
                rows[i][j] = rows[j][i] = rng.choice((1, -1))
        cert = linalg.psd_check(
            linalg.SymMatrix([[Fraction(x, 5) for x in r] for r in rows])
        )
        assert cert.verdict == test_linalg._psd_by_principal_minors(rows)
    # block family ranks
    for ell in range(1, 7):
        cert = linalg.psd_check(constructions.block_52_family(ell))
        assert cert.is_psd and cert.rank == 2 * ell + 1
    _announce(11, "property suites green (full versions in the unit test files)")
