"""Pillar decomposition relative to a K-base, and the exact (K,1) geometry.

A K-base is a K-subset whose Gram is (1+alpha)I - alphaJ, i.e. a K-clique in
the Seidel graph after switching.  Every other vector x gets a sign vector
eps(x) with (<x,p_1>, ..., <x,p_K>) = alpha*eps(x); vectors sharing a sign
vector form a pillar.  The canonical representative of each line follows the
flip rule: x is replaced by -x when eps(x) has more positive entries than
eps(-x), or on a tie when <x, p_K> = +alpha.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from equiangular.exactnum import Scalar, format_scalar
from equiangular.seidel import EquiangularSet


@dataclass(frozen=True)
class KBase:
    alpha: Scalar
    vertices: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class SignVector:
    epsilon: tuple[int, ...]

    def __post_init__(self):
        if any(e not in (1, -1) for e in self.epsilon):
            raise ValueError("entries must be +-1")

    @property
    def positives(self) -> int:
        return sum(1 for e in self.epsilon if e == 1)

    def key(self) -> str:
        return "".join("+" if e == 1 else "-" for e in self.epsilon)

    def __neg__(self) -> "SignVector":
        return SignVector(tuple(-e for e in self.epsilon))


def normalize_sign_vector(eps: Sequence[int]) -> tuple[SignVector, bool]:
    """Apply the flip rule; returns (representative, flipped?)."""
    sv = SignVector(tuple(eps))
    k = len(sv.epsilon)
    pos = sv.positives
    neg = k - pos
    if pos > neg or (pos == neg and sv.epsilon[-1] == 1):
        return -sv, True
    return sv, False


@dataclass(frozen=True)
class PillarDecomposition:
    base: KBase
    pillars: dict  # SignVector key string -> tuple of vertices
    applied_flips: frozenset[int]

    def sizes(self) -> dict:
        return {key: len(v) for key, v in self.pillars.items()}

    def to_json(self) -> str:
        return json.dumps(
            {
                "alpha": format_scalar(self.base.alpha),
                "base": list(self.base.vertices),
                "pillars": {k: list(v) for k, v in sorted(self.pillars.items())},
                "flipped": sorted(self.applied_flips),
            }
        )


def sign_vector(e: EquiangularSet, base: Sequence[int], x: int) -> SignVector:
    """Normalized sign vector of x against the base (base must already be a
    -alpha clique in e, i.e. switched so its Gram is (1+alpha)I - alphaJ)."""
    _check_base(e, base)
    if x in base:
        raise ValueError("x must not belong to the base")
    eps = [e.seidel.rows[x][p] for p in base]
    sv, _ = normalize_sign_vector(eps)
    return sv


def decompose(e: EquiangularSet, base: Sequence[int]) -> PillarDecomposition:
    """Partition the non-base vertices into (K,n) pillars."""
    _check_base(e, base)
    pillars: dict[str, list[int]] = {}
    flipped = set()
    for x in range(e.n):
        if x in base:
            continue
        eps = [e.seidel.rows[x][p] for p in base]
        sv, flip = normalize_sign_vector(eps)
        if flip:
            flipped.add(x)
        pillars.setdefault(sv.key(), []).append(x)
    kb = KBase(e.alpha, tuple(base))
    return PillarDecomposition(
        kb,
        {k: tuple(v) for k, v in pillars.items()},
        frozenset(flipped),
    )


def _check_base(e: EquiangularSet, base: Sequence[int]) -> None:
    verts = list(base)
    if len(set(verts)) != len(verts) or len(verts) < 2:
        raise ValueError("base must list at least two distinct vertices")
    for i, u in enumerate(verts):
        for v in verts[i + 1 :]:
            if e.seidel.rows[u][v] != -1:
                raise ValueError(
                    f"base pair ({u},{v}) has inner product +alpha; switch first"
                )


@dataclass(frozen=True)
class K1Geometry:
    """Closed-form geometry of (K,1) pillars for alpha = 1/(2n+1), K = n+2.

    h is the base-span component of any pillar vector (the same for all of
    them), c the orthogonal complement; hats denote normalization.
    """

    n: int
    k: int
    alpha: Fraction
    h_coeff_at_k0: Fraction
    h_coeff_elsewhere: Fraction
    h_norm_sq: Fraction
    c_norm_sq: Fraction
    same_pillar_c_inner: Fraction
    cross_pillar_c_inners: tuple[Fraction, Fraction]
    cross_pillar_h_inner: Fraction


def k1_geometry(n: int) -> K1Geometry:
    """The orthogonality phenomenon: with alpha = 1/(2n+1) and K = n+2, the
    normalized c-vectors inside one (K,1) pillar are orthogonal, and across
    pillars their inner products are 1/(n(n+1)) or -1/(n+1)."""
    if n < 2:
        raise ValueError("n >= 2 required")
    k = n + 2
    alpha = Fraction(1, 2 * n + 1)
    return K1Geometry(
        n=n,
        k=k,
        alpha=alpha,
        h_coeff_at_k0=Fraction(0),
        h_coeff_elsewhere=Fraction(-1, k - 1),
        h_norm_sq=alpha,
        c_norm_sq=1 - alpha,
        same_pillar_c_inner=Fraction(0),
        cross_pillar_c_inners=(Fraction(1, n * (n + 1)), Fraction(-1, n + 1)),
        cross_pillar_h_inner=Fraction(n - 1, (n + 1) * (2 * n + 1)),
    )


@dataclass(frozen=True)
class K3Geometry:
    """The alpha = 1/5, K = 3 pillar geometry (outside the K = n+2 family, so
    same-pillar c-hats are not orthogonal here)."""

    alpha: Fraction
    h_coeffs: tuple[Fraction, Fraction, Fraction]  # for eps = (+,-,-), k0 = 1
    h_norm_sq: Fraction
    c_norm_sq: Fraction
    same_pillar_c_inner: Fraction
    cross_pillar_c_inners: tuple[Fraction, Fraction]
    cross_pillar_h_inner: Fraction


def k3_geometry() -> K3Geometry:
    return K3Geometry(
        alpha=Fraction(1, 5),
        h_coeffs=(Fraction(1, 9), Fraction(-2, 9), Fraction(-2, 9)),
        h_norm_sq=Fraction(1, 9),
        c_norm_sq=Fraction(8, 9),
        same_pillar_c_inner=Fraction(1, 10),
        cross_pillar_c_inners=(Fraction(1, 4), Fraction(-1, 5)),
        cross_pillar_h_inner=Fraction(-1, 45),
    )
