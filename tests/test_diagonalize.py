"""Constructive diagonalization of elliptic elements, case by case."""

import math

import numpy as np
import pytest

import quatu11.diagonalize
from quatu11 import (DiagonalizationCase, Mat2H, QI, QJ, Quaternion,
                     classify, delta_legacy, diagonalize_elliptic,
                     random_element, right_spectrum, right_spectrum_casewise,
                     stratum, validate)
from quatu11.errors import (ClaimViolationError, NotApplicableError,
                            NotEllipticError)
from quatu11.moebius import EPS_CLASS

R2 = math.sqrt(2)


def _sphere_hit(d_entry, spectrum, tol=1e-7):
    return any(abs(d_entry.w - s.re) <= tol and abs(d_entry.norm() - s.modulus) <= tol
               for s in spectrum.spheres)


def _assert_sound(result, t, tol=1e-8):
    assert result.residual_conjugation < tol
    assert result.residual_membership < tol
    assert result.x.membership_residual < tol
    assert result.d.b.norm() == 0.0 and result.d.c.norm() == 0.0
    spectrum = right_spectrum(t)
    assert _sphere_hit(result.d.a, spectrum)
    assert _sphere_hit(result.d.d, spectrum)
    assert result.claim_residual <= tol


def test_case1_is_a_passthrough():
    t = validate(Mat2H.diag(QI, QJ))
    result = diagonalize_elliptic(t)
    assert result.case_used is DiagonalizationCase.CASE1
    assert result.x.m == Mat2H.identity()
    assert result.d == t.m
    assert result.residual_conjugation == 0.0


def test_case2_golden():
    d = Quaternion(0.5, math.sqrt(2.0 - 0.25), 0, 0)
    t = validate(Mat2H(d.conjugate(), Quaternion(1.0), Quaternion(1.0), d))
    result = diagonalize_elliptic(t)
    assert result.case_used is DiagonalizationCase.CASE2
    _assert_sound(result, t)
    # conjugate pair with real part d0 on the smaller sphere
    assert result.d.a.w == pytest.approx(0.5, abs=1e-9)
    assert (result.d.a - result.d.d.conjugate()).norm() < 1e-9


def test_case3_golden(example):
    result = diagonalize_elliptic(example)
    assert result.case_used is DiagonalizationCase.CASE3
    _assert_sound(result, example)
    assert (result.d.a - Quaternion(1.0)).norm() < 1e-9
    assert (result.d.d - QI).norm() < 1e-9


def test_case2_pool():
    for k in range(25):
        t = random_element([90, k], class_hint="SimpleElliptic")
        result = diagonalize_elliptic(t)
        _assert_sound(result, t)


def test_case3_pool_and_ordering():
    for k in range(25):
        t = random_element([91, k], class_hint="CompoundElliptic")
        result = diagonalize_elliptic(t)
        _assert_sound(result, t)
        if result.case_used is DiagonalizationCase.CASE3:
            gap = result.d.a.w - result.d.d.w
            if t.m.a.w > t.m.d.w:
                assert gap > -1e-9
            else:
                assert gap < 1e-9


def test_rejects_non_elliptic():
    with pytest.raises(NotEllipticError):
        diagonalize_elliptic(random_element([92, 0], class_hint="SimpleLoxodromic"))
    with pytest.raises(NotEllipticError):
        diagonalize_elliptic(random_element([92, 1], class_hint="CompoundParabolic"))


def test_one_stratum_decision_per_diagonalization(class_pool, monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return stratum(*args)

    monkeypatch.setattr(quatu11.diagonalize, "stratum", counting)
    elements = class_pool["SimpleElliptic"] + class_pool["CompoundElliptic"]
    elements.append(validate(Mat2H.diag(QI, QJ)))
    cases = set()
    for t in elements:
        calls.clear()
        cases.add(diagonalize_elliptic(t).case_used)
        assert len(calls) == 1
    assert cases == set(DiagonalizationCase)


def test_result_serializes(example):
    doc = diagonalize_elliptic(example).to_json()
    assert set(doc) == {"x", "d", "residual_conjugation", "residual_membership",
                        "case", "claim_residual"}
    assert doc["case"] == "Case3"


def _near_diagonal_band(count=300, seed=95):
    """D1 B(t) D2 with sinh t log-uniform in [1e-10.5, 1e-8], so |b| and |c|
    straddle the stratum threshold EPS_CLASS * (1 + ||T||_F)."""
    rng = np.random.default_rng(seed)

    def unit():
        v = rng.standard_normal(4)
        return Quaternion(*(v / np.linalg.norm(v)))

    band = []
    for _ in range(count):
        sh = 10.0 ** rng.uniform(-10.5, -8.0)
        ch = math.sqrt(1.0 + sh * sh)
        boost = Mat2H(Quaternion(ch), Quaternion(sh), Quaternion(sh),
                      Quaternion(ch))
        band.append(validate(Mat2H.diag(unit(), unit()) @ boost
                             @ Mat2H.diag(unit(), unit())))
    return band


def test_stratum_decision_agrees_across_functions(class_pool):
    elements = [t for pool in class_pool.values() for t in pool]
    elements += _near_diagonal_band()
    case1_count = 0
    for t in elements:
        case, cls = stratum(t)
        assert classify(t) is cls
        right_spectrum_casewise(t)
        if case is DiagonalizationCase.CASE3:
            delta_legacy(t)
        else:
            with pytest.raises(NotApplicableError):
                delta_legacy(t)
        if cls.coarse != "elliptic":
            with pytest.raises(NotEllipticError):
                diagonalize_elliptic(t)
            continue
        try:
            result = diagonalize_elliptic(t)
        except ClaimViolationError:
            # The Case-3 construction loses its claims when b is small.
            assert case is DiagonalizationCase.CASE3
            continue
        assert result.case_used is case
        if case is DiagonalizationCase.CASE1:
            case1_count += 1
            assert result.d.b.norm() == 0.0 and result.d.c.norm() == 0.0
            # X = I leaves sqrt(|b|^2 + |c|^2) <= sqrt(2) eps
            eps = EPS_CLASS * (1.0 + t.m.frobenius())
            assert result.residual_conjugation <= 1.5 * eps
    assert case1_count > 0
