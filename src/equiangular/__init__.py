"""Exact computations with equiangular line systems.

Submodules:
  exactnum       rationals, quadratic extensions Q(sqrt d), the Z / Z[sqrt d] ring layer
  linalg         exact PSD certificates and ranks of symmetric matrices
  seidel         Seidel matrices, switching, clique number, base size
  pillars        pillar decompositions and the (K,1) closed-form geometry
  bounds         coexistence / caps-table / base-size / Neumann / relative bounds
  constructions  the 276-line Witt system, Paley frames, simplices, block family
  saturate       saturated-set search: M_alpha(r) and M*(r)
  cli            the `equiangular` command-line driver
"""

from equiangular.exactnum import Fraction, QuadExt, quad_sign
from equiangular.linalg import PsdCertificate, SymMatrix, psd_check, rank_of
from equiangular.seidel import (
    EquiangularSet,
    Graph,
    SeidelMatrix,
    SwitchingOp,
    base_size,
    max_clique,
)

__all__ = [
    "Fraction",
    "QuadExt",
    "quad_sign",
    "PsdCertificate",
    "SymMatrix",
    "psd_check",
    "rank_of",
    "EquiangularSet",
    "Graph",
    "SeidelMatrix",
    "SwitchingOp",
    "base_size",
    "max_clique",
]
