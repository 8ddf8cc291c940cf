import dataclasses
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import equiangular

from equiangular import constructions, linalg
from equiangular.bounds import welch_bound_sq
from equiangular.cli import MAX_PALEY_Q
from equiangular.constructions import (
    BASE_OCTADS,
    block_52_equiangular,
    block_52_family,
    conference_etf,
    paley_conference,
    simplex_base,
    witt_spectrum_certificate,
)
from equiangular.exactnum import parse_scalar
from equiangular.pillars import decompose
from equiangular.seidel import (
    EquiangularSet,
    SeidelMatrix,
    SwitchingOp,
    base_size,
    gram_matrix,
    switch,
    two_eigenvalue_certificate,
)


def test_octad_counts(witt):
    assert len(witt.octads.octads) == 759
    assert len(witt.octads.octads_through_1) == 253
    assert all(1 in o for o in witt.octads.octads_through_1)


def test_octad_intersections_and_steiner(witt):
    masks = []
    for o in witt.octads.octads:
        m = 0
        for p in o:
            m |= 1 << (p - 1)
        masks.append(m)
    sizes = set()
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            sizes.add((masks[i] & masks[j]).bit_count())
    assert sizes == {0, 2, 4}
    # counting identity: 759 octads x C(8,5) five-subsets, none repeated,
    # exhausts all C(24,5) five-subsets: the Steiner property in full
    assert 759 * 56 == 42504
    # spot-check directly on random 5-subsets
    rng = random.Random(50)
    for _ in range(10_000):
        pts = frozenset(rng.sample(range(1, 25), 5))
        containing = [m for m in masks if all(m >> (p - 1) & 1 for p in pts)]
        assert len(containing) == 1


def test_base_octads_are_octads(witt):
    got = set(witt.octads.octads)
    for sigma in BASE_OCTADS:
        assert tuple(sorted(sigma)) in got


def test_witt_vectors(witt):
    assert len(witt.vectors) == 276
    assert all(sum(x * x for x in v) == 80 for v in witt.vectors)
    assert all(5 * v[0] + sum(v[1:]) == 0 for v in witt.vectors)
    # v_2 .. v_24 are linearly independent: they are the last 23 vectors
    tail = witt.vectors[253:]
    m = linalg.SymMatrix(
        [[Fraction(sum(a * b for a, b in zip(u, v))) for v in tail] for u in tail]
    )
    assert linalg.rank_of(m) == 23


def test_witt_pairwise_products(witt):
    vecs = witt.vectors
    n = len(vecs)
    count = 0
    for i in range(n):
        vi = vecs[i]
        for j in range(i + 1, n):
            dot = sum(a * b for a, b in zip(vi, vecs[j]))
            assert dot in (16, -16)  # normalized: +-16/80 = +-1/5
            count += 1
    assert count == 37950


def test_witt_rank_and_base_size(witt):
    e = witt.lines
    assert e.n == 276 and e.rank == 23
    k, base, op = base_size(e)
    assert k == 6


def test_witt_spectrum(witt):
    cert = witt_spectrum_certificate()
    assert cert["rank_A_plus_5I"] == 23
    assert cert["rank_A_minus_55I"] == 253
    assert cert["product_zero"]
    assert cert["spectrum"] == {"-5": 253, "55": 23}
    assert cert["trace_check"] and cert["trace_sq_check"]


def _run_python(*args: str) -> subprocess.CompletedProcess:
    root = os.path.dirname(equiangular.__path__[0])
    env = dict(os.environ, PYTHONPATH=root)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env
    )


def _with_elimination_certificate(ws):
    """The Witt system with its lines certified by psd_check, not by the
    two-eigenvalue identity: the certificate has no square coefficient."""
    cert = linalg.psd_check(ws.lines.gram())
    assert cert.square_coefficient is None and cert.rank == 23
    lines = EquiangularSet(ws.lines.alpha, ws.lines.seidel, psd_certificate=cert)
    return dataclasses.replace(ws, lines=lines)


def test_spectrum_needs_the_identity_certificate(witt, monkeypatch):
    monkeypatch.setattr(constructions, "witt276", lambda: _with_elimination_certificate(witt))
    with pytest.raises(AssertionError, match="A\\^2 = 50A \\+ 275I is not certified"):
        witt_spectrum_certificate()


def test_spectrum_needs_the_identity_certificate_under_optimize():
    code = (
        "import dataclasses\n"
        "from equiangular import constructions, linalg\n"
        "from equiangular.seidel import EquiangularSet\n"
        "ws = constructions.witt276()\n"
        "cert = linalg.psd_check(ws.lines.gram())\n"
        "lines = EquiangularSet(ws.lines.alpha, ws.lines.seidel, psd_certificate=cert)\n"
        "constructions.witt276 = lambda: dataclasses.replace(ws, lines=lines)\n"
        "constructions.witt_spectrum_certificate()\n"
    )
    proc = _run_python("-O", "-c", code)
    assert proc.returncode != 0
    assert "AssertionError: A^2 = 50A + 275I is not certified (square coefficient None)" in proc.stderr


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 30).flatmap(
    lambda n: st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n)
))
def test_two_eigenvalue_ranks_match_rank_of_on_switched_complete_graphs(signs):
    # A = -D(J - I)D has eigenvalues 1 (n - 1 times) and -(n - 1) (once) and
    # A^2 = -(n - 2)A + (n - 1)I: at alpha = 1/(n - 1) the Gram I + alpha*A
    # is a dependent simplex of rank n - 1
    n = len(signs)
    seidel = SeidelMatrix(tuple(
        tuple(0 if i == j else -signs[i] * signs[j] for j in range(n)) for i in range(n)
    ))
    alpha = Fraction(1, n - 1)
    cert = two_eigenvalue_certificate(alpha, seidel)
    assert cert.square_coefficient == -(n - 2)
    assert cert.rank == n - 1 == linalg.rank_of(gram_matrix(alpha, seidel))
    shifted = [[seidel.rows[i][j] - (1 if i == j else 0) for j in range(n)] for i in range(n)]
    assert linalg.rank_of(linalg.SymMatrix(shifted)) == n - cert.rank


def test_witt_with_one_flipped_pair_is_rejected_under_optimize():
    # the identity breaks, and the elimination finds the Gram indefinite
    code = (
        "from fractions import Fraction\n"
        "from equiangular.constructions import witt276\n"
        "from equiangular.seidel import EquiangularSet, SeidelMatrix\n"
        "rows = [list(r) for r in witt276().lines.seidel.rows]\n"
        "rows[3][200] = rows[200][3] = -rows[3][200]\n"
        "EquiangularSet(Fraction(1, 5), SeidelMatrix(tuple(map(tuple, rows))))\n"
    )
    proc = _run_python("-O", "-c", code)
    assert proc.returncode != 0
    assert "ValueError: Gram matrix I + alpha*A is not positive semidefinite" in proc.stderr


def test_frame_one_entry_off_its_identity_is_rejected_under_optimize():
    # the two-eigenvalue route declines and the elimination finds a witness
    code = (
        "from equiangular.constructions import conference_etf, paley_conference\n"
        "from equiangular.seidel import EquiangularSet, SeidelMatrix, "
        "two_eigenvalue_certificate\n"
        "etf = conference_etf(paley_conference(17))\n"
        "rows = [list(r) for r in etf.seidel.rows]\n"
        "rows[3][11] = rows[11][3] = -rows[3][11]\n"
        "seidel = SeidelMatrix(tuple(map(tuple, rows)))\n"
        "print(two_eigenvalue_certificate(etf.alpha, seidel))\n"
        "EquiangularSet(etf.alpha, seidel)\n"
    )
    proc = _run_python("-O", "-c", code)
    assert proc.returncode != 0 and proc.stdout == "None\n"
    assert "ValueError: Gram matrix I + alpha*A is not positive semidefinite" in proc.stderr


@pytest.mark.parametrize("rows, reason", [
    (((1, 1), (1, 0)), "diagonal"),
    (((0, 1), (-1, 0)), "symmetric"),
    (((0, 2), (2, 0)), "not \\+-1"),
    (((0, 1), (1,)), "square"),
])
def test_two_eigenvalue_certificate_rejects_non_seidel_input(rows, reason):
    # the identity is only ever checked on a SeidelMatrix, which refuses these
    with pytest.raises(ValueError, match=reason):
        SeidelMatrix(rows)


def test_spectrum_certificate_does_not_import_numpy():
    code = (
        "import sys\n"
        "from equiangular.constructions import witt_spectrum_certificate\n"
        "assert witt_spectrum_certificate()['spectrum'] == {'-5': 253, '55': 23}\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    proc = _run_python("-c", code)
    assert proc.returncode == 0, proc.stderr


def test_witt_pillar_decomposition(witt_pillars):
    e, dec = witt_pillars
    assert len(dec.base.vertices) == 6
    b = dec.base.vertices
    for u, v in itertools.combinations(b, 2):
        assert e.seidel.rows[u][v] == -1  # mutual inner products -1/5
    sizes = dec.sizes()
    assert len(sizes) == 10 and set(sizes.values()) == {27}
    assert sum(sizes.values()) == 270
    # every pillar key has exactly three positive entries out of six
    assert all(k.count("+") == 3 for k in sizes)
    # partition
    seen = sorted(v for verts in dec.pillars.values() for v in verts)
    assert seen == [v for v in range(276) if v not in b]


def test_one_composed_switch_orients_the_witt_system_as_two_steps_do(witt, witt_pillars):
    # the former route: switch the base signs, test the base, then flip every
    # non-base vector with product -1/5 with the sixth base vector
    e, base = witt.lines, witt.base_indices
    first = switch(e, SwitchingOp.flips_only(
        {v for v, s in zip(base, witt.base_signs) if s == -1}, e.n))
    assert all(first.seidel.rows[u][v] == -1 for u, v in itertools.combinations(base, 2))
    second = switch(first, SwitchingOp.flips_only(
        {v for v in range(e.n) if v not in base and first.seidel.rows[base[5]][v] == -1}, e.n))
    oriented, dec = witt_pillars
    assert oriented.seidel == second.seidel
    assert oriented.psd_certificate == second.psd_certificate
    assert dec == decompose(second, base)
    assert sorted(dec.sizes().values()) == [27] * 10


_CHANGED_COORDINATE = (
    "from equiangular import constructions\n"
    "v_vector = constructions._v_vector\n"
    "def changed(k):\n"
    "    v = list(v_vector(k))\n"
    "    if k == 7:\n"
    "        v[2] = 1  # was -1: the norm stays 80\n"
    "    return tuple(v)\n"
    "constructions._v_vector = changed\n"
    "constructions.witt276()\n"
)


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "optimize"])
def test_witt_with_one_changed_coordinate_is_rejected(flags):
    # v_7 is vector 253 + 5; its product with vector 0 moves off +-16
    proc = _run_python(*flags, "-c", _CHANGED_COORDINATE)
    assert proc.returncode != 0
    assert "AssertionError: inner product" in proc.stderr
    assert "at pair (0,258)" in proc.stderr


def test_witt_pillar_triangles(witt_pillars):
    e, dec = witt_pillars
    g = e.seidel.graph()
    total = 0
    for verts in dec.pillars.values():
        sub = g.induced(verts)
        comps = sub.components()
        assert len(comps) == 9
        for c in comps:
            assert len(c) == 3 and sub.induced(c).edge_count() == 3
        total += len(comps)
    assert total == 90


def test_paley_conference():
    c = paley_conference(17)
    assert c.n == 18 and c.n % 4 == 2
    # B^2 = 17 I re-verified entrywise
    n = c.n
    for i in range(n):
        for j in range(n):
            dot = sum(c.rows[i][k] * c.rows[k][j] for k in range(n))
            assert dot == (17 if i == j else 0)
    with pytest.raises(ValueError):
        paley_conference(7)  # 3 mod 4
    with pytest.raises(ValueError):
        paley_conference(15)  # not prime


PALEY_PRIMES = [q for q in range(5, MAX_PALEY_Q + 1, 4) if all(q % k for k in range(2, q))]


@pytest.mark.parametrize("q", PALEY_PRIMES)
def test_paley_conference_up_to_the_cli_cap(q, monkeypatch):
    c = paley_conference(q)
    n = q + 1
    cols = list(zip(*c.rows))
    square = [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in c.rows]
    assert square == [[q if i == j else 0 for j in range(n)] for i in range(n)]
    assert conference_etf(c).rank == n // 2
    # a copy with one flipped pair breaks B^2 = qI and is refused
    i, j = sorted(random.Random(q).sample(range(n), 2))

    def flipped(rows):
        out = [list(r) for r in rows]
        out[i][j] = out[j][i] = -out[i][j]
        return SeidelMatrix(tuple(map(tuple, out)))

    monkeypatch.setattr(constructions, "SeidelMatrix", flipped)
    with pytest.raises(AssertionError, match=f"B\\^2 = {q}I fails"):
        paley_conference(q)


def test_conference_etf_17():
    etf = conference_etf(paley_conference(17))
    assert etf.n == 18 and etf.rank == 9
    assert etf.alpha == parse_scalar("1/sqrt(17)")
    # Welch equality: alpha^2 = (M-r)/(r(M-1))
    assert etf.alpha * etf.alpha == welch_bound_sq(18, 9)
    # deleting any one line keeps rank 9
    sub = etf.gram().submatrix(range(17))
    assert linalg.rank_of(sub) == 9


def test_conference_etf_icosahedron():
    etf = conference_etf(paley_conference(5))
    assert etf.n == 6 and etf.rank == 3
    assert etf.alpha * etf.alpha == welch_bound_sq(6, 3)


def test_simplex_base():
    assert simplex_base(6, Fraction(1, 5)).rank == 5  # dependent at K = 1/alpha+1
    assert simplex_base(5, Fraction(1, 5)).rank == 5
    assert simplex_base(2, Fraction(1, 3)).rank == 2
    with pytest.raises(ValueError):
        simplex_base(7, Fraction(1, 5))
    with pytest.raises(ValueError):
        simplex_base(1, Fraction(1, 5))


def test_block_52_family_ranks():
    for ell in range(1, 7):
        m = block_52_family(ell)
        cert = linalg.psd_check(m)
        assert cert.is_psd
        assert cert.rank == 2 * ell + 1
    assert linalg.psd_check(block_52_family(1)).verdict == "positive_definite"


def test_block_52_equiangular_gram_is_the_scaled_block_family():
    """Gram = (2/15)J + (13/15)*block_52_family(ell), entry by entry, and the
    rank is that of the family."""
    for ell in range(1, 7):
        e, m = block_52_equiangular(ell), block_52_family(ell)
        expected = [[Fraction(2, 15) + Fraction(13, 15) * x for x in row] for row in m.rows]
        assert e.gram() == linalg.SymMatrix(expected)
        assert e.rank == linalg.psd_check(m).rank == 2 * ell + 1


def test_block_52_equiangular_base_size():
    for ell in (2, 3):
        e = block_52_equiangular(ell)
        assert base_size(e)[0] == 6
        # Seidel graph is a disjoint union of ell triangles
        g = e.seidel.graph()
        comps = g.components()
        assert len(comps) == ell
        assert all(len(c) == 3 for c in comps)
    assert base_size(block_52_equiangular(1))[0] == 3
