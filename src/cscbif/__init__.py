"""Spectral classification and numerical bifurcation analysis of the
constant-scalar-curvature equation along the canonical variation of a
Riemannian submersion.

The exact layer (`spectra`, `variation`) enumerates degeneracy instants,
Morse indices, and bifurcation certificates in rational arithmetic; the
numerical layer (`galerkin`, `continuation`) discretizes two-factor
products, follows the bifurcating branches, and checks that they stay
constant along the fibers.  `cli` exposes the whole pipeline on config
files.
"""

import importlib

from .errors import (
    ConfigurationError,
    CscbifError,
    DegeneratePointError,
    EmptyBranchError,
    HypothesisViolatedError,
    IncompleteSpectrumError,
    InconclusiveError,
    InvalidArgumentError,
    NoConvergenceError,
    NondiscreteDegeneracyError,
    NoNontrivialSolutionError,
    NotApplicableError,
    PositivityViolationError,
    PreconditionError,
    ReductionFailedError,
    UnsupportedGeometryError,
    ZeroScalarCurvatureError,
)
from .spectra import (
    EigenvalueEntry,
    ManifoldDescriptor,
    contains,
    count_strictly_below,
    explicit_manifold,
    explicit_spectrum,
    first_nonzero,
    product_spectrum,
    sphere_manifold,
    sphere_spectrum,
)
from .variation import (
    ALL_PAIRS,
    BifurcationCertificate,
    ClassificationReport,
    DegeneracyInstant,
    ExplicitJoint,
    JointPair,
    SubmersionFamily,
    certify_bifurcation,
    check_nondiscreteness,
    classify_window,
    degeneracy_roots,
    enumerate_degeneracy,
    enumerate_horizontal_degeneracy,
    morse_index,
    scalar_curvature,
    stability_epsilon,
)

__version__ = "0.1.0"

# the numerical layer imports numpy, so its names are imported on first use
# (PEP 562): the exact layer and `classify` start without it
_NUMERICAL = {
    "galerkin": ("Evaluation", "GalerkinModel", "State", "build_model", "constant_state",
                 "energy", "fiber_energy_fraction", "residual"),
    "continuation": ("Branch", "BranchPoint", "FiberConstancyReport", "ReductionResult",
                     "continue_branch", "detect_branch_points", "follow_branch",
                     "lyapunov_schmidt_reduce", "switch_branch", "verify_fiber_constancy"),
}


def __getattr__(name):
    for module, names in _NUMERICAL.items():
        if name in names:
            return getattr(importlib.import_module(f".{module}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
