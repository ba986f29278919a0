"""Pareto eigenvalues of higher-order tensors.

The Pareto spectrum of an order-m tensor collects the eigenvalues of its
constrained eigenvalue complementarity problem on the nonnegative orthant.
Every Pareto eigenpair restricts to a strictly positive eigenpair of a
principal sub-tensor, so the spectrum is computed exactly by enumerating
the 2^n - 1 principal sub-tensors, solving each interior problem, and
keeping the solutions whose complement slacks stay nonnegative.  The
smallest Pareto eigenvalue is the minimum of the tensor form over the
nonnegative part of the unit sphere, which decides copositivity.

Main entry points:

- build / Tensor: sparse symmetric-agnostic tensor storage
- pareto_spectrum / min_pareto: the spectrum and its smallest value
- minimize / grid_lower_bound: first-order minimization and a grid check
- classify: copositivity verdicts backed by eigenvalue certificates
- verify_pareto_pair: independent check of a claimed eigenpair
- parse_document / serialize_document: 1-based JSON tensor documents
"""

from .copositivity import (
    DEFAULT_ZERO_BAND,
    CopositivityVerdict,
    classify,
    direct_witness_search,
)
from .eigen import EigenPair, SolverConfig, residual, solve_interior
from .fixtures import EXAMPLES, grouped_quartic, parametric_quartic, shifted_cubic
from .minimize import MinimizeResult, grid_lower_bound, kkt_residual, minimize
from .spectrum import (
    DEFAULT_SLACK_TOL,
    EmptySpectrumError,
    ParetoSpectrum,
    SubsetCertificate,
    VerifyReport,
    complement_slacks,
    min_pareto,
    pareto_spectrum,
    verify_pareto_pair,
)
from .tensor import Tensor, build, embed, knorm
from .tensorio import (
    DocumentError,
    TensorDocument,
    load_document,
    parse_document,
    serialize_document,
    tensor_to_document,
)

__version__ = "0.1.0"

__all__ = [
    "CopositivityVerdict",
    "DEFAULT_SLACK_TOL",
    "DEFAULT_ZERO_BAND",
    "DocumentError",
    "EXAMPLES",
    "EigenPair",
    "EmptySpectrumError",
    "MinimizeResult",
    "ParetoSpectrum",
    "SolverConfig",
    "SubsetCertificate",
    "Tensor",
    "TensorDocument",
    "VerifyReport",
    "build",
    "classify",
    "complement_slacks",
    "direct_witness_search",
    "embed",
    "grid_lower_bound",
    "grouped_quartic",
    "kkt_residual",
    "knorm",
    "load_document",
    "min_pareto",
    "minimize",
    "parametric_quartic",
    "parse_document",
    "pareto_spectrum",
    "residual",
    "serialize_document",
    "shifted_cubic",
    "solve_interior",
    "tensor_to_document",
    "verify_pareto_pair",
]
