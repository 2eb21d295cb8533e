"""Constructive diagonalization of elliptic group elements.

Every elliptic T is conjugate, inside the group, to diag(s, s') with s, s'
on the unit right-spectrum spheres.  Three constructions cover the elliptic
strata:

  Case 1: b, c within eps of 0; X = I, D = diag(a, d).
  Case 2: b == conj(c) != 0, d0^2 < 1.  A unit rotation absorbs the phase of
          c, a similarity solve rotates d onto its class representative in
          the i-slice, and an explicit J-unitary Z with real diagonal and
          imaginary off-diagonal finishes the split.
  Case 3: b != conj(c) != 0, delta < 0.  The conjugator rows are built from
          similarity solves against u = -(b - conj(c)) conj(p) / |b - conj(c)|^2
          for p = 2 s0 conj(c) - b conj(d) - conj(c) d, one per sphere of
          right_spectrum's K-form, then rescaled so the row norms satisfy
          the group conditions.

The Case-3 rescaling relies on three facts checked at runtime: the ratio
attached to the larger-real-part sphere has modulus below 1 (Claim A), the
other has modulus above 1 (Claim B), and the two ratios are inverse to each
other under conjugation (Claim C).  Cases 2 and 3 then refuse an X whose
membership residual is not within CLAIM_TOL; each check refuses a NaN.
"""

from __future__ import annotations

from ._thresholds import CLAIM_TOL
from .errors import NotEllipticError
from .group import GroupElement
from .mat2h import Mat2H, _frobenius, _from_parts
from .moebius import DiagonalizationCase, stratum
from .quaternion import Record

__all__ = ["DiagonalizationCase", "DiagonalizationResult",
           "diagonalize_elliptic", "CLAIM_TOL"]


class DiagonalizationResult(Record):
    __slots__ = ("x", "d", "residual_conjugation", "residual_membership",
                 "case_used", "claim_residual")

    def __init__(self, x: GroupElement, d: Mat2H,
                 residual_conjugation: float, residual_membership: float,
                 case_used: DiagonalizationCase, claim_residual: float = 0.0):
        _set_x(self, x)
        _set_d(self, d)
        _set_residual_conjugation(self, residual_conjugation)
        _set_residual_membership(self, residual_membership)
        _set_case_used(self, case_used)
        _set_claim_residual(self, claim_residual)

    def to_json(self) -> dict:
        return {
            "x": self.x.m.to_json(),
            "d": self.d.to_json(),
            "residual_conjugation": self.residual_conjugation,
            "residual_membership": self.residual_membership,
            "case": self.case_used.value,
            "claim_residual": self.claim_residual,
        }


(_set_x, _set_d, _set_residual_conjugation, _set_residual_membership,
 _set_case_used, _set_claim_residual) = DiagonalizationResult._slot_setters()


def diagonalize_elliptic(t: GroupElement) -> DiagonalizationResult:
    """Conjugator X and diagonal D with X T X^-1 == D, for elliptic T.

    Cases 2 and 3 run on the float parts of the entries (see
    `_diagonalize_kernel`), with the bits of the same construction written
    with Quaternion and Mat2H operations.
    """
    case, cls = stratum(t)
    if cls.coarse != "elliptic":
        raise NotEllipticError("only elliptic elements diagonalize over the "
                               "unit spectrum")
    if case is DiagonalizationCase.CASE1:
        p = t.m._p
        # T - diag(a, d) is [[0, b], [c, 0]] exactly, as q - q == 0.0.
        return DiagonalizationResult(
            GroupElement(Mat2H.identity(), 0.0),
            _from_parts(p[0:4] + (0.0,) * 8 + p[12:16]),
            _frobenius((0.0,) * 4 + p[4:12] + (0.0,) * 4), 0.0,
            DiagonalizationCase.CASE1)
    # Imported on first use: without cached bytecode every import of the
    # package compiles its source, and only this call needs the kernel.
    from . import _diagonalize_kernel as kernel
    if case is DiagonalizationCase.CASE2:
        return kernel.case2(t)
    return kernel.case3(t)
