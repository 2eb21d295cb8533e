"""Similarity invariants of group elements.

Two quantities separate the conjugacy behaviour of T = [[a, b], [c, d]]:
the real trace Tr(T) = 2(Re a + Re d) and

    delta(T) = |b - conj(c)|^2 - (Re a - Re d)^2,

defined in `moebius` beside the stratum decision that reads it.  delta
also has a closed form in the traces of powers,

    delta(T) = Tr(T)^2 / 4 - Tr(T^2) / 2 - 2,

which makes it conjugation invariant, and an older expression through the
entries (delta_legacy) that is only defined when b != conj(c) != 0.  The
identity checks exported at the bottom exercise all of these plus the
power rules for delta(T^2), delta(T^3), delta(T^6) on the matrix powers;
`report` reads Tr T^3, Tr T^4 and Tr T^6 off (Tr T, Tr T^2) instead.
"""

from __future__ import annotations

from .errors import NotApplicableError
from .group import GroupElement, _set_powers, conjugate
from .mat2h import _matmul, _trace
from .moebius import DiagonalizationCase, _derived, _gap_delta, delta
from .quaternion import Record

__all__ = [
    "delta_legacy",
    "delta_via_traces",
    "InvariantReport",
    "report",
    "IdentityCheck",
    "IDENTITY_CHECKS",
    "SINGLE_ELEMENT_CHECKS",
]


def _delta_legacy(t: GroupElement) -> float | None:
    """delta_legacy(t), or None where the cached stratum is not Case 3."""
    pair = _derived(t)[4]  # None if exactly one of b, c is zero
    if pair is None or pair[0] is not DiagonalizationCase.CASE3:
        return None
    m = t.m
    d = m.d
    lead = m.c.conjugate().inverse() * m.b
    inner = lead * d.conjugate() + d
    return inner.imag().norm_sq() - (lead - 1.0).norm_sq()


def delta_legacy(t: GroupElement) -> float:
    """Entry formula |Im(conj(c)^-1 b conj(d) + d)|^2 - |conj(c)^-1 b - 1|^2.

    Defined only where `stratum` finds b != conj(c) != 0 (Case 3); agrees
    with delta there.
    """
    legacy = _delta_legacy(t)
    if legacy is None:
        raise NotApplicableError("legacy delta needs b != conj(c) != 0")
    return legacy


def _newton_traces(s1, p2) -> tuple:
    """(Tr T^3, Tr T^4, Tr T^6) from s1 = Tr T and p2 = Tr T^2 by Newton's
    identities.  Assumes T is in the group, where chi(T) has the real
    characteristic polynomial x^4 - s1 x^3 + s2 x^2 - s1 x + 1 (Parker and
    Short, CMFT 9, 2009).  Fraction arguments give exact traces."""
    s2 = (s1 * s1 - p2) / 2
    p3 = s1 * p2 - s2 * s1 + 3 * s1
    p4 = s1 * p3 - s2 * p2 + s1 * s1 - 4
    p5 = s1 * p4 - s2 * p3 + s1 * p2 - s1
    return p3, p4, s1 * p5 - s2 * p4 + s1 * p3 - p2


def _power_values(t: GroupElement) -> tuple:
    """(tr T, tr T^2, tr T^3, tr T^4, tr T^6, delta(T), delta(T^2),
    delta(T^3), delta(T^6)) with the bits of the Mat2H powers, formed on
    first use from the part tuples of T^2, T^3, T^4 and T^6 = T^4 T^2, for
    the identity checks; `report` reads `_newton_traces` instead."""
    values = t._powers
    if values is None:
        p = t.m._p
        p2 = _matmul(p, p)
        p3 = _matmul(p2, p)
        p4 = _matmul(p3, p)
        p6 = _matmul(p4, p2)
        traces = [_trace(q) for q in (p, p2, p3, p4, p6)]
        d2, d3, d6 = [_gap_delta(q)[1] for q in (p2, p3, p6)]
        values = (*traces, _derived(t)[1], d2, d3, d6)
        _set_powers(t, values)
    return values


def delta_via_traces(t: GroupElement) -> float:
    tr1, tr2 = _power_values(t)[:2]
    return 0.25 * tr1 * tr1 - 0.5 * tr2 - 2.0


class InvariantReport(Record):
    __slots__ = ("tr1", "tr2", "tr3", "tr4", "tr6", "delta", "delta_legacy")

    def __init__(self, tr1: float, tr2: float, tr3: float, tr4: float,
                 tr6: float, delta: float, delta_legacy: float | None):
        _set_tr1(self, tr1)
        _set_tr2(self, tr2)
        _set_tr3(self, tr3)
        _set_tr4(self, tr4)
        _set_tr6(self, tr6)
        _set_delta(self, delta)
        _set_delta_legacy(self, delta_legacy)

    def to_json(self) -> dict:
        return {
            "tr1": self.tr1, "tr2": self.tr2, "tr3": self.tr3,
            "tr4": self.tr4, "tr6": self.tr6, "delta": self.delta,
            "delta_legacy": self.delta_legacy,
        }


(_set_tr1, _set_tr2, _set_tr3, _set_tr4, _set_tr6, _set_delta,
 _set_delta_legacy) = InvariantReport._slot_setters()


def report(t: GroupElement) -> InvariantReport:
    p = t.m._p
    tr1, tr2 = _trace(p), _trace(_matmul(p, p))
    return InvariantReport(tr1, tr2, *_newton_traces(tr1, tr2),
                           _derived(t)[1], _delta_legacy(t))


# -- identity checks -------------------------------------------------------
#
# Each check maps (T, G) to a residual already divided by its natural scale,
# so "passes" simply means residual <= tol.  G is a second group element and
# is only consumed by the similarity-invariance checks.


class IdentityCheck(Record):
    __slots__ = ("name", "tol", "fn")

    def __init__(self, name: str, tol: float,
                 fn: Callable[[GroupElement, GroupElement], float]):
        _set_name(self, name)
        _set_tol(self, tol)
        _set_fn(self, fn)


_set_name, _set_tol, _set_fn = IdentityCheck._slot_setters()


def _check_delta_via_traces(t: GroupElement, _g: GroupElement) -> float:
    d = _power_values(t)[5]
    return abs(d - delta_via_traces(t)) / (1.0 + abs(d))


def _relative_gap(lhs: float, rhs: float) -> float:
    # Relative agreement of two computations of the same quantity; the
    # denominator must follow the quantity itself, not an a-priori trace
    # bound, or elements with a cancelling trace report spurious misses.
    return abs(lhs - rhs) / (1.0 + abs(lhs) + abs(rhs))


def _check_delta_square(t: GroupElement, _g: GroupElement) -> float:
    tr1, _tr2, _tr3, _tr4, _tr6, d, d2, _d3, _d6 = _power_values(t)
    return _relative_gap(d2, tr1 * tr1 * d)


def _check_delta_cube(t: GroupElement, _g: GroupElement) -> float:
    tr1, tr2, _tr3, _tr4, _tr6, d, _d2, d3, _d6 = _power_values(t)
    factor = 0.5 * tr1 * tr1 + 0.5 * tr2 - 1.0
    return _relative_gap(d3, factor * factor * d)


def _sixth_power_values(t: GroupElement):
    tr1, tr2, tr3, tr4, _tr6, d, _d2, _d3, d6 = _power_values(t)
    first = (0.5 * tr2 * tr2 + 0.5 * tr4 - 1.0) ** 2 * tr1 * tr1 * d
    second = (0.5 * tr1 * tr1 + 0.5 * tr2 - 1.0) ** 2 * tr3 * tr3 * d
    return d6, first, second


def _check_delta_sixth_first(t: GroupElement, _g: GroupElement) -> float:
    lhs, first, _second = _sixth_power_values(t)
    return _relative_gap(lhs, first)


def _check_delta_sixth_second(t: GroupElement, _g: GroupElement) -> float:
    lhs, _first, second = _sixth_power_values(t)
    return _relative_gap(lhs, second)


def _check_delta_sixth_mutual(t: GroupElement, _g: GroupElement) -> float:
    _lhs, first, second = _sixth_power_values(t)
    return _relative_gap(first, second)


def _check_delta_legacy(t: GroupElement, _g: GroupElement) -> float:
    legacy = _delta_legacy(t)
    return 0.0 if legacy is None else abs(_power_values(t)[5] - legacy)


def _check_delta_similarity(t: GroupElement, g: GroupElement) -> float:
    return abs(delta(conjugate(t, g).m) - _power_values(t)[5])


def _check_trace_similarity(t: GroupElement, g: GroupElement) -> float:
    return abs(conjugate(t, g).m.tr() - t.m.tr())


SINGLE_ELEMENT_CHECKS = [
    IdentityCheck("delta_via_traces", 1e-8, _check_delta_via_traces),
    IdentityCheck("delta_square", 1e-7, _check_delta_square),
    IdentityCheck("delta_cube", 1e-6, _check_delta_cube),
    IdentityCheck("delta_sixth_first", 1e-5, _check_delta_sixth_first),
    IdentityCheck("delta_sixth_second", 1e-5, _check_delta_sixth_second),
    IdentityCheck("delta_sixth_mutual", 1e-5, _check_delta_sixth_mutual),
    IdentityCheck("delta_legacy", 1e-9, _check_delta_legacy),
]

IDENTITY_CHECKS = SINGLE_ELEMENT_CHECKS + [
    IdentityCheck("delta_similarity", 1e-7, _check_delta_similarity),
    IdentityCheck("trace_similarity", 1e-7, _check_trace_similarity),
]
