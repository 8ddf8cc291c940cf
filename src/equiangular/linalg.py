"""Exact symmetric-matrix algebra: PSD certificates, Schur complements, ranks,
characteristic polynomials, and closed forms for aI + bJ matrices.

The PSD decision runs a symmetric elimination with diagonal pivoting.  The
matrix is first scaled into a ring, Z for rational entries and Z[sqrt d] for
entries in Q(sqrt d), and eliminated fraction-free (Bareiss updates, exact
divisions), so pivot signs are signs of leading principal minors of a symmetric
reordering.  The scaling is integer-only: with c the lcm of all coordinate
denominators, a coordinate p/q becomes p * (c // q).  The elimination runs on
integer coordinate matrices, the int matrix over Z and the two matrices of
a + b*sqrt(d) over Z[sqrt d]; over Z[sqrt d] each Bareiss division multiplies
by the conjugate of the previous pivot and divides exactly by its integer
norm.  Ranks use fraction-free elimination with full pivoting on the same
matrices, and psd_check and rank_of update every row through the one step
exactnum.rows_step.  An indefinite verdict always carries a witness vector v
with v^T M v < 0, re-checked against the input before returning.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from equiangular.exactnum import (
    IntPoly,
    QuadExt,
    Scalar,
    format_scalar,
    parse_scalar,
    quad_sign,
    ring_sign,
    ring_to_scalar,
    rows_step,
)

POSITIVE_DEFINITE = "positive_definite"
POSITIVE_SEMIDEFINITE_SINGULAR = "positive_semidefinite_singular"
INDEFINITE = "indefinite"


def _coerce_entry(x) -> Scalar:
    if isinstance(x, QuadExt) or type(x) is Fraction:
        return x  # immutable: shared entries stay shared
    return Fraction(x)


class SymMatrix:
    """Dense exact symmetric matrix; entries are Fraction or QuadExt (one fixed
    radicand per matrix)."""

    __slots__ = ("n", "rows")

    def __init__(self, rows: Sequence[Sequence[Scalar]]):
        n = len(rows)
        if n < 1:
            raise ValueError("order >= 1 required")
        coerced = tuple(tuple(_coerce_entry(x) for x in r) for r in rows)
        if any(len(r) != n for r in coerced):
            raise ValueError("square matrix required")
        for i in range(n):
            for j in range(i + 1, n):
                x, y = coerced[i][j], coerced[j][i]
                if x is not y and x != y:  # shared entries (a Gram matrix has three) match at once
                    raise ValueError(f"not symmetric at ({i},{j})")
        self.n = n
        self.rows = coerced

    # -- constructors -------------------------------------------------------
    @classmethod
    def identity(cls, n: int) -> "SymMatrix":
        return cls.aI_bJ(Fraction(1), Fraction(0), n)

    @classmethod
    def all_ones(cls, n: int) -> "SymMatrix":
        return cls.aI_bJ(Fraction(0), Fraction(1), n)

    @classmethod
    def aI_bJ(cls, a: Scalar, b: Scalar, n: int) -> "SymMatrix":
        a, b = _coerce_entry(a), _coerce_entry(b)
        return cls([[a + b if i == j else b for j in range(n)] for i in range(n)])

    # -- accessors ----------------------------------------------------------
    def entry(self, i: int, j: int) -> Scalar:
        return self.rows[i][j]

    def __eq__(self, other):
        return isinstance(other, SymMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"SymMatrix({self.n}x{self.n})"

    def submatrix(self, idx: Sequence[int]) -> "SymMatrix":
        return SymMatrix([[self.rows[i][j] for j in idx] for i in idx])

    def radicand(self) -> int | None:
        for r in self.rows:
            for x in r:
                if isinstance(x, QuadExt) and x.b != 0:
                    return x.d
        return None

    def integral_scaled(self) -> tuple[list[list[list[int]]], int, int]:
        """(ms, c, d) for the least positive integer c that puts every entry
        of c*M in the ring: over Q, d = 0 and ms = [c*M] as int rows; over
        Q(sqrt d), ms = [A, B] with c*M = A + B*sqrt(d)."""
        d = self.radicand() or 0
        zero = Fraction(0)
        # each distinct entry object is converted once (a Gram matrix has three)
        coords = {
            id(x): (x.a, x.b) if isinstance(x, QuadExt) else (x, zero)
            for r in self.rows for x in r
        }
        c = lcm(*{y.denominator for ab in coords.values() for y in ab})

        def scale(y: Fraction) -> int:  # c*y, exact since y.denominator divides c
            return y.numerator * (c // y.denominator)

        ring = {k: (scale(a), scale(b)) for k, (a, b) in coords.items()}
        ms = [[[ring[id(x)][p] for x in r] for r in self.rows] for p in range(2 if d else 1)]
        return ms, c, d

    # -- serialization ------------------------------------------------------
    def to_json(self) -> str:
        d = self.radicand()
        field = "Q" if d is None else f"Q(sqrt {d})"
        return json.dumps(
            {
                "order": self.n,
                "field": field,
                "rows": [[format_scalar(x) for x in r] for r in self.rows],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "SymMatrix":
        obj = json.loads(text)
        if not (
            isinstance(obj, dict)
            and isinstance(obj.get("rows"), list)
            and all(isinstance(r, list) for r in obj["rows"])
        ):
            raise ValueError('a matrix needs "rows", a list of rows of scalar strings')
        rows = [[parse_scalar(s) for s in r] for r in obj["rows"]]
        m = cls(rows)
        if m.n != obj.get("order"):
            raise ValueError("order field does not match row count")
        return m


@dataclass(frozen=True)
class PsdCertificate:
    """Outcome of the exact PSD decision.

    For PSD verdicts ``pivot_order`` lists the diagonal pivots used (rank many);
    for the indefinite verdict ``witness`` is a vector with v^T M v < 0.
    """

    verdict: str
    rank: int
    pivot_order: tuple[int, ...] | None = None
    witness: tuple[Scalar, ...] | None = None

    @property
    def is_psd(self) -> bool:
        return self.verdict != INDEFINITE


def _quadratic_form(M: SymMatrix, v: Sequence[Scalar]):
    acc = Fraction(0)
    for i in range(M.n):
        if v[i] == 0:
            continue
        for j in range(M.n):
            if v[j] == 0:
                continue
            acc = acc + v[i] * M.rows[i][j] * v[j]
    return acc


def _backpropagate(steps, witness: dict, d: int):
    """Extend a negative witness of a reduced block through the recorded Schur
    pivot steps; only the ratio column/pivot is used, so fraction-free scaling
    of the intermediate matrices does not matter."""
    for pivot_idx, pivot_val, column in reversed(steps):
        acc = Fraction(0)
        for j, bj in column.items():
            wj = witness.get(j)
            if wj:
                acc = acc + ring_to_scalar(bj, d) * wj
        witness[pivot_idx] = -acc / ring_to_scalar(pivot_val, d)
    return witness


def _entry(ms, i, j):
    """Entry (i, j) of integer coordinate matrices (SymMatrix.integral_scaled)
    as a ring element: an int over Z, a pair over Z[sqrt d]."""
    return (ms[0][i][j], ms[1][i][j]) if len(ms) == 2 else ms[0][i][j]


def _take_out(ms, i, j):
    """Remove row i and column j of the coordinate matrices ms in place.
    Returns entry (i, j), the rest of column j as ring elements, and the
    coordinate rows of the rest of row i."""
    a = _entry(ms, i, j)
    ys = [m.pop(i) for m in ms]
    col = [_entry(ms, x, j) for x in range(len(ms[0]))]
    for m in ms:
        for row in m:
            del row[j]
    for y in ys:
        del y[j]
    return a, col, ys


def psd_check(M: SymMatrix) -> PsdCertificate:
    """Exact positive-(semi)definiteness with certificate.

    Diagonal pivoting: at each step the first active index with a positive
    diagonal is eliminated.  A negative diagonal, or a zero diagonal next to a
    nonzero off-diagonal entry in the fully zero-diagonal case, certifies
    indefiniteness and yields an explicit witness.
    """
    ms, _, d = M.integral_scaled()  # the active block in integer coordinates
    n = M.n
    active = list(range(n))  # the index in M of each row of the active block
    steps = []  # (pivot index, pivot value, {active j: M[pivot][j]})
    prev = (1, 0) if d else 1

    while active:
        k = len(active)
        t = next((i for i in range(k) if ring_sign(_entry(ms, i, i), d) > 0), None)
        if t is None:
            neg = next((i for i in range(k) if ring_sign(_entry(ms, i, i), d) < 0), None)
            if neg is not None:
                witness = {active[neg]: Fraction(1)}
            else:
                offdiag = next(
                    ((i, j) for i in range(k) for j in range(i + 1, k)
                     if ring_sign(_entry(ms, i, j), d)),
                    None,
                )
                if offdiag is None:
                    rank = len(steps)
                    cert = PsdCertificate(
                        POSITIVE_SEMIDEFINITE_SINGULAR,
                        rank,
                        pivot_order=tuple(s[0] for s in steps),
                    )
                    return cert
                i, j = offdiag
                witness = {
                    active[i]: Fraction(1), active[j]: Fraction(-ring_sign(_entry(ms, i, j), d))
                }
            witness = _backpropagate(steps, witness, d)
            vec = tuple(witness.get(k, Fraction(0)) for k in range(n))
            if quad_sign(_quadratic_form(M, vec)) >= 0:
                raise AssertionError("internal error: witness failed re-check")
            return PsdCertificate(INDEFINITE, rank_of(M), witness=vec)

        # take out the pivot row and column, then update the rest in place:
        # row x from column x on, mirrored at once into column x
        a, col, ys = _take_out(ms, t, t)
        rest = active[:t] + active[t + 1 :]
        steps.append((active[t], a, dict(zip(rest, col))))
        for x in range(k - 1):
            new = rows_step(a, col[x], prev, [m[x][x:] for m in ms], [y[x:] for y in ys], d)
            for m, up in zip(ms, new):
                m[x][x:] = up
                for row, val in zip(m[x + 1 :], up[1:]):
                    row[x] = val
        prev = a
        active = rest

    return PsdCertificate(
        POSITIVE_DEFINITE, n, pivot_order=tuple(s[0] for s in steps)
    )


def rank_of(M: SymMatrix) -> int:
    """Exact rank by fraction-free elimination with full pivoting on the
    integer coordinate matrices of M, over Z or Z[sqrt d]: each pivot is the
    first nonzero entry of the remaining block in row-major order."""
    ms, _, d = M.integral_scaled()
    prev = (1, 0) if d else 1
    rank = 0
    while True:
        pr = next((i for i, rows in enumerate(zip(*ms)) if any(map(any, rows))), None)
        if pr is None:
            return rank
        rank += 1
        pc = next(j for j, x in enumerate(zip(*(m[pr] for m in ms))) if any(x))
        a, col, ys = _take_out(ms, pr, pc)
        for x, c in enumerate(col):
            if a == prev and not ring_sign(c, d):
                continue  # the update would leave this row unchanged
            for m, up in zip(ms, rows_step(a, c, prev, [m[x] for m in ms], ys, d)):
                m[x] = up
        prev = a


def solve(M: SymMatrix, rhs_columns: Sequence[Sequence[Scalar]]) -> list[list[Scalar]]:
    """Solve M X = B exactly for invertible M; rhs_columns lists the columns of
    B, and the returned list holds the columns of X."""
    n = M.n
    a = [list(r) for r in M.rows]
    b = [list(c) for c in rhs_columns]
    perm = list(range(n))
    for k in range(n):
        p = next((i for i in range(k, n) if quad_sign(a[perm[i]][k]) != 0), None)
        if p is None:
            raise ValueError("singular matrix")
        perm[k], perm[p] = perm[p], perm[k]
        pk = perm[k]
        piv = a[pk][k]
        for i in range(k + 1, n):
            pi = perm[i]
            f = a[pi][k] / piv
            if quad_sign(f) == 0:
                continue
            for j in range(k, n):
                a[pi][j] = a[pi][j] - f * a[pk][j]
            for c in b:
                c[pi] = c[pi] - f * c[pk]
    out = []
    for c in b:
        x = [Fraction(0)] * n
        for k in range(n - 1, -1, -1):
            pk = perm[k]
            acc = c[pk]
            for j in range(k + 1, n):
                acc = acc - a[pk][j] * x[j]
            x[k] = acc / a[pk][k]
        out.append(x)
    return out


def inverse(M: SymMatrix) -> list[list[Scalar]]:
    """Exact inverse as a list of rows (the inverse of a symmetric matrix is
    symmetric, so columns equal rows)."""
    n = M.n
    cols = [[Fraction(1) if i == j else Fraction(0) for i in range(n)] for j in range(n)]
    return solve(M, cols)


def schur_complement(M: SymMatrix, block_size: int) -> SymMatrix:
    """C - B^T A^{-1} B for the leading block A of the given size; rejects
    inputs whose leading block is not positive definite (caller must reorder)."""
    k, n = block_size, M.n
    if not 0 < k < n:
        raise ValueError("block size must split the matrix")
    A = M.submatrix(range(k))
    if psd_check(A).verdict != POSITIVE_DEFINITE:
        raise ValueError("leading block is not positive definite")
    b_cols = [[M.rows[i][j] for i in range(k)] for j in range(k, n)]
    x_cols = solve(A, b_cols)  # A^{-1} B, one column per trailing index
    out = []
    for i in range(k, n):
        row = []
        for j in range(k, n):
            acc = M.rows[i][j]
            xc = x_cols[j - k]
            for t in range(k):
                acc = acc - M.rows[i][t] * xc[t]
            row.append(acc)
        out.append(row)
    return SymMatrix(out)


def aI_bJ_inverse(a: Scalar, b: Scalar, k: int) -> tuple[Scalar, Scalar]:
    """Coefficients (a', b') with (aI + bJ_k)(a'I + b'J_k) = I."""
    a = _coerce_entry(a)
    b = _coerce_entry(b)
    if quad_sign(a) == 0:
        raise ValueError("singular: a = 0")
    if quad_sign(a + k * b) == 0:
        raise ValueError(f"singular: a + {k}b = 0")
    a2 = 1 / a
    b2 = -b / (a * (a + k * b))
    return a2, b2


def char_poly(M: SymMatrix) -> IntPoly:
    """Characteristic polynomial of an integer symmetric matrix, monic of
    degree n, computed by the integer-preserving Faddeev-LeVerrier recurrence."""
    (a, *_), c, d = M.integral_scaled()
    if c != 1 or d:
        raise ValueError("integer entries required")
    n = M.n
    coeffs = [1]  # c_0 = 1 for x^n
    mk = [row[:] for row in a]
    cs = []
    for k in range(1, n + 1):
        tr = sum(mk[i][i] for i in range(n))
        if tr % k:
            raise AssertionError(f"trace {tr} of step {k} is not divisible by {k}")
        ck = -tr // k
        cs.append(ck)
        if k == n:
            break
        nxt = [[mk[i][j] + (ck if i == j else 0) for j in range(n)] for i in range(n)]
        mk = _int_matmul(a, nxt)
    # char(x) = x^n + c_1 x^{n-1} + ... + c_n
    return IntPoly(tuple(reversed([1] + cs)))


def _int_matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    n = len(a)
    bt = [[b[i][j] for i in range(n)] for j in range(n)]
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def nullity(M: SymMatrix) -> int:
    return M.n - rank_of(M)
