"""Exact verification engine for the Dolbeault-Dirac operator on the
rank-two quantum Lagrangian Grassmannian.

The package computes, with exact rational-function arithmetic, the PBW
calculus of the quantized enveloping algebra of sp4, the quantum exterior
algebra of the nilradical dual, the R-matrix Casimir element, and the
identity expressing the square of the Dolbeault-Dirac element through that
Casimir modulo the quantized Levi factor.  The `qlg2` console script runs
the named verification checks and the numeric spectrum table.
"""

from .scalar import (
    KScalar, PoleError, Scalar, evaluate, kappa, laurent_q, laurent_v,
    q_binomial, q_factorial, q_number, q_power, v_power,
)
from .weights import Weight, pair
from . import pbw, modules, rmatrix, parthasarathy, checks

__all__ = [
    "KScalar", "PoleError", "Scalar", "Weight", "checks", "evaluate",
    "kappa", "laurent_q", "laurent_v", "modules", "pair", "parthasarathy",
    "pbw", "q_binomial", "q_factorial", "q_number", "q_power", "rmatrix",
    "v_power",
]
