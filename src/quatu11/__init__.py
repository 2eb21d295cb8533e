"""Quaternionic U(1,1) matrices: the 2x2 quaternionic matrices preserving
the indefinite form diag(1, -1), their similarity invariants and spectra,
the Moebius action on the unit ball, and constructive diagonalization of
elliptic elements."""

from .diagonalize import (DiagonalizationCase, DiagonalizationResult,
                          diagonalize_elliptic)
from .errors import QuatU11Error
from .group import (GroupElement, J, conjugate, inverse_u11,
                    membership_residual, random_element, validate)
from .invariants import (InvariantReport, delta_legacy, delta_via_traces,
                         report)
from .mat2h import Mat2H
from .moebius import (MoebiusClass, apply, classify, delta, is_elliptic,
                      stratum)
from .quaternion import (ONE, QI, QJ, QK, ZERO, Quaternion, is_similar,
                         solve_similarity)
from .spectra import (LeftSpectrumDescription, RightSpectrum, SpectralSphere,
                      SphereFamily, left_eigenvalues, right_spectrum,
                      right_spectrum_casewise, right_spectrum_oracle,
                      verify_s_point)

__version__ = "0.1.0"

__all__ = [
    "Quaternion", "ZERO", "ONE", "QI", "QJ", "QK",
    "is_similar", "solve_similarity",
    "Mat2H", "J",
    "GroupElement", "membership_residual", "validate",
    "inverse_u11", "conjugate", "random_element",
    "delta", "delta_legacy", "delta_via_traces",
    "InvariantReport", "report",
    "SpectralSphere", "RightSpectrum", "SphereFamily",
    "LeftSpectrumDescription", "right_spectrum", "right_spectrum_casewise",
    "verify_s_point", "right_spectrum_oracle",
    "left_eigenvalues",
    "MoebiusClass", "apply", "stratum", "classify", "is_elliptic",
    "DiagonalizationCase", "DiagonalizationResult", "diagonalize_elliptic",
    "QuatU11Error",
]
