"""Constructive diagonalization of elliptic elements, case by case."""

import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import quatu11._diagonalize_kernel
import quatu11.diagonalize
from quatu11 import (DiagonalizationCase, Mat2H, QI, QJ, Quaternion,
                     classify, delta_legacy, diagonalize_elliptic,
                     random_element, report, right_spectrum,
                     right_spectrum_casewise, stratum, validate)
from quatu11._diagonalize_kernel import _unit_point
from quatu11.diagonalize import CLAIM_TOL, DiagonalizationResult
from quatu11.errors import (ClaimViolationError, MembershipError,
                            NotApplicableError, NotEllipticError,
                            QuatU11Error)
from quatu11.group import GroupElement, _j_adjoint, membership_residual
from quatu11.moebius import EPS_CLASS, delta, evidence
from quatu11.quaternion import solve_similarity

from probes import BAND_SINH, band_numpy_norm, hex_parts, threshold_band


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


def test_kernel_is_imported_on_first_case2_call():
    # `import quatu11` and Case 1 leave the kernel unloaded; the first
    # Case-2 element loads it.
    script = """
import math, sys
from quatu11 import Mat2H, QI, QJ, Quaternion, diagonalize_elliptic, validate
name = "quatu11._diagonalize_kernel"
loaded = [name in sys.modules]
diagonalize_elliptic(validate(Mat2H.diag(QI, QJ)))
loaded.append(name in sys.modules)
d = Quaternion(0.5, math.sqrt(2.0 - 0.25), 0, 0)
diagonalize_elliptic(validate(Mat2H(d.conjugate(), Quaternion(1.0),
                                    Quaternion(1.0), d)))
loaded.append(name in sys.modules)
print(loaded)
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(Path(quatu11.__file__).parent.parent),
                    os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[False, False, True]"


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


@pytest.mark.parametrize("hint, case", [
    ("SimpleElliptic", DiagonalizationCase.CASE2),
    ("CompoundElliptic", DiagonalizationCase.CASE3)], ids=["Case2", "Case3"])
def test_a_nan_conjugator_is_refused(hint, case, monkeypatch):
    # A NaN similarity solve makes X all NaN.  Case 3's claim residual
    # stays finite (max() drops a NaN after its first term), so both cases
    # are refused at X's membership gate.
    t = random_element([7, 1], hint)
    assert stratum(t)[0] is case
    nan = Quaternion(math.nan, math.nan, math.nan, math.nan)
    monkeypatch.setattr(quatu11._diagonalize_kernel, "solve_similarity",
                        lambda s, u: nan)
    with pytest.raises(ClaimViolationError,
                       match="conjugator membership residual nan"):
        diagonalize_elliptic(t)


# By Claim C, |ratio2|^2 - 1 = (1 - |ratio1|^2) / |ratio1|^2 exceeds Claim A's
# margin, so no CLAIM_MARGIN fails Claim B alone: a |ratio|^2 read as 0.5
# passes A and fails B.
@pytest.mark.parametrize("name, value, message", [
    ("CLAIM_MARGIN", 1.0, r"Claim A failed: \|ratio\|\^2 = 0\.\d+ not below 1"),
    ("_norm_sq", lambda q: math.nan, r"Claim A failed: \|ratio\|\^2 = nan"),
    ("_norm_sq", lambda q: 0.5, r"Claim B failed: \|ratio\|\^2 = 0\.5 not above")],
    ids=["margin_A", "nan_A", "half_B"])
def test_claims_a_and_b_refuse_by_name(example, name, value, message,
                                       monkeypatch):
    monkeypatch.setattr(quatu11._diagonalize_kernel, name, value)
    with pytest.raises(ClaimViolationError, match=message):
        diagonalize_elliptic(example)


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


def test_one_stratum_decision_per_element(class_pool, monkeypatch):
    # report, classify, right_spectrum, right_spectrum_casewise,
    # diagonalize_elliptic and evidence all read |b - conj(c)|^2, delta and
    # the stratum; they are derived once and kept on the element.
    derivations = []

    def counting(p, _derive=quatu11.moebius._derive):
        derivations.append(p)
        return _derive(p)

    monkeypatch.setattr(quatu11.moebius, "_derive", counting)
    matrices = [t.m for name in ("SimpleElliptic", "CompoundElliptic")
                for t in class_pool[name]]
    matrices.append(Mat2H.diag(QI, QJ))
    cases = set()
    for m in matrices:
        derivations.clear()
        t = validate(m)
        report(t)
        cls = classify(t)
        right_spectrum(t)
        right_spectrum_casewise(t)
        cases.add(diagonalize_elliptic(t).case_used)
        evidence(t)
        assert len(derivations) == 1
        fresh = validate(m)
        assert stratum(fresh) == stratum(t) and stratum(t)[1] is cls
        assert len(derivations) == 2
    assert cases == set(DiagonalizationCase)

    # Exactly one of b, c zero: every stratum reader raises, on every call,
    # from the one record; report and evidence still return.
    bad = GroupElement(Mat2H(Quaternion(1.0), QI, Quaternion(),
                             Quaternion(1.0)), 0.0)
    derivations.clear()
    assert report(bad).delta_legacy is None
    for call in (classify, right_spectrum, right_spectrum_casewise,
                 diagonalize_elliptic, stratum):
        with pytest.raises(MembershipError):
            call(bad)
    evidence(bad)
    assert len(derivations) == 1 and bad._derived[4] is None


def test_result_serializes(example):
    doc = diagonalize_elliptic(example).to_json()
    assert set(doc) == {"x", "d", "residual_conjugation", "residual_membership",
                        "case", "claim_residual"}
    assert doc["case"] == "Case3"


def test_stratum_decision_agrees_across_functions(class_pool):
    elements = [t for pool in class_pool.values() for t in pool]
    elements += threshold_band()
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


# -- the Quaternion-form reference ---------------------------------------


def _diagonalize_by_quaternions(t, branches):
    """diagonalize_elliptic written with Quaternion and Mat2H operations:
    the reference whose bits the component-float kernel keeps."""
    case, cls = stratum(t)
    if cls.coarse != "elliptic":
        raise NotEllipticError("only elliptic elements diagonalize over the "
                               "unit spectrum")
    branches[case.value] += 1
    if case is DiagonalizationCase.CASE1:
        d = Mat2H.diag(t.m.a, t.m.d)
        return DiagonalizationResult(GroupElement(Mat2H.identity(), 0.0), d,
                                     (t.m - d).frobenius(), 0.0,
                                     DiagonalizationCase.CASE1)
    if case is DiagonalizationCase.CASE2:
        return _case2_by_quaternions(t)
    return _case3_by_quaternions(t, branches)


def _conjugation_residual_by_quaternions(x, t, d):
    return (x.m @ t.m @ _j_adjoint(x.m) - d).frobenius()


def _case2_by_quaternions(t):
    m = t.m
    d0 = m.d.w

    c_mod = m.c.norm()
    phase = m.c * (1.0 / c_mod)
    x1 = Mat2H.diag(phase, 1.0)

    lam1 = math.sqrt(1.0 - d0 * d0)
    lam2 = math.sqrt(1.0 - d0 * d0 + c_mod * c_mod)
    target = Quaternion(d0, lam2)
    y1 = solve_similarity(m.d.conjugate(), target).conjugate()
    y = Mat2H.diag(y1, y1)

    k = 1.0 / math.sqrt(2.0 * lam1 * (lam1 + lam2))
    z = Mat2H(Quaternion.real(k * (lam1 + lam2)), QI * (-k * c_mod),
              QI * (k * c_mod), Quaternion.real(k * (lam1 + lam2)))

    x = validate(z @ y @ x1, CLAIM_TOL)
    d = Mat2H.diag(Quaternion(d0, lam1), Quaternion(d0, -lam1))
    return DiagonalizationResult(x, d,
                                 _conjugation_residual_by_quaternions(x, t, d),
                                 x.membership_residual,
                                 DiagonalizationCase.CASE2)


def _case3_by_quaternions(t, branches):
    m = t.m
    bc = m.b - m.c.conjugate()
    dlt = delta(m)

    a0, d0 = m.a.w, m.d.w
    split = math.sqrt(-dlt)
    sphere = _unit_point(0.5 * (a0 + d0 + split))
    sphere_p = _unit_point(0.5 * (a0 + d0 - split))

    def momentum(s0):
        return (2.0 * s0) * m.c.conjugate() - m.b * m.d.conjugate() \
            - m.c.conjugate() * m.d

    p, pp = momentum(sphere.w), momentum(sphere_p.w)
    nbc = bc.norm()
    claim = max(abs(p.norm() - nbc), abs(pp.norm() - nbc))

    if a0 > d0:
        first, second = (sphere, p), (sphere_p, pp)
    else:
        first, second = (sphere_p, pp), (sphere, p)

    def row_seed(pair):
        sigma, pv = pair
        u = (-1.0 / (nbc * nbc)) * (bc * pv.conjugate())
        x = solve_similarity(sigma, u)
        ratio = (bc * pv.inverse() + m.a) * m.c.inverse()
        return x, ratio

    x1_unit, ratio1 = row_seed(first)
    margin1 = 1.0 - ratio1.norm_sq()
    if margin1 <= 1e-12:
        branches["Claim A"] += 1
        raise ClaimViolationError(
            f"Claim A failed: |ratio|^2 = {ratio1.norm_sq():.17g} not below 1")
    x1 = x1_unit * (1.0 / math.sqrt(margin1))
    x2 = -(x1 * ratio1)

    x3_unit, ratio2 = row_seed(second)
    margin2 = ratio2.norm_sq() - 1.0
    if margin2 <= 1e-12:
        branches["Claim B"] += 1
        raise ClaimViolationError(
            f"Claim B failed: |ratio|^2 = {ratio2.norm_sq():.17g} not above 1")
    x3 = x3_unit * (1.0 / math.sqrt(margin2))
    x4 = -(x3 * ratio2)

    claim = max(claim, (ratio1 * ratio2.conjugate() - 1.0).norm())
    claim = max(claim,
                abs(x1.norm() - x4.norm()),
                (x1 * x3.conjugate() - x2 * x4.conjugate()).norm(),
                (x1.conjugate() * x2 - x3.conjugate() * x4).norm())
    if claim > CLAIM_TOL:
        branches["claim residual"] += 1
        raise ClaimViolationError(f"claim residual {claim:.3e} exceeds {CLAIM_TOL}")

    xmat = Mat2H(x1, x2, x3, x4)
    residual = membership_residual(xmat)
    if residual > CLAIM_TOL:
        branches["conjugator membership"] += 1
        raise ClaimViolationError(
            f"conjugator membership residual {residual:.3e}")
    x = GroupElement(xmat, residual)
    d = Mat2H.diag(first[0], second[0])
    return DiagonalizationResult(x, d,
                                 _conjugation_residual_by_quaternions(x, t, d),
                                 residual, DiagonalizationCase.CASE3, claim)


def _diagonalize_outcome(solve, t):
    """Every part of X and D and every residual as float.hex, with the
    case; or the type and message of the exception."""
    try:
        r = solve(t)
    except (QuatU11Error, ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    return (hex_parts(r.x.m) + hex_parts(r.d),
            float(r.residual_conjugation).hex(),
            float(r.residual_membership).hex(),
            float(r.claim_residual).hex(), r.case_used)


GOLDEN = Path(__file__).resolve().parent / "golden"


def _diagonalize_bit_pool(class_pool, example, signed_zero_inputs):
    pool = [t for name in ("SimpleElliptic", "CompoundElliptic")
            for t in class_pool[name]]
    pool += [random_element([91, k], hint) for k in range(40)
             for hint in ("SimpleElliptic", "CompoundElliptic")]
    pool.append(example)
    for name in ("SimpleElliptic", "CompoundElliptic", "WorkedExample"):
        pool.append(validate(Mat2H.from_json(
            json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8")))))
    pool += threshold_band()
    pool += [t for sh in BAND_SINH for t in band_numpy_norm(sh, 200)]
    pool += signed_zero_inputs
    pool.append(validate(Mat2H.diag(QI, QJ)))
    return pool


def test_diagonalize_matches_quaternion_route(class_pool, example,
                                              signed_zero_inputs):
    branches = Counter()
    for t in _diagonalize_bit_pool(class_pool, example, signed_zero_inputs):
        want = _diagonalize_outcome(
            lambda t: _diagonalize_by_quaternions(t, branches), t)
        assert _diagonalize_outcome(diagonalize_elliptic, t) == want, t
    assert set(branches) == {"Case1", "Case2", "Case3", "claim residual"}
    assert {stratum(t) for t in signed_zero_inputs} == {
        (DiagonalizationCase.CASE2, quatu11.MoebiusClass.SIMPLE_ELLIPTIC),
        (DiagonalizationCase.CASE3, quatu11.MoebiusClass.COMPOUND_ELLIPTIC)}


def test_diagonalize_builds_no_quaternion_arithmetic(class_pool, example,
                                                     signed_zero_inputs,
                                                     monkeypatch):
    # Cases 2 and 3 run on component floats; Quaternions and matrices are
    # only built for X and D, and only solve_similarity, called in its
    # Quaternion form, does Quaternion arithmetic.
    pool = _diagonalize_bit_pool(class_pool, example, signed_zero_inputs)
    calls, similarity_depth = [], [0]

    def similarity(*args, _solve=quatu11._diagonalize_kernel.solve_similarity):
        calls.append("solve_similarity")
        similarity_depth[0] += 1
        try:
            return _solve(*args)
        finally:
            similarity_depth[0] -= 1

    monkeypatch.setattr(quatu11._diagonalize_kernel, "solve_similarity",
                        similarity)
    for cls, names in ((Quaternion, ("__add__", "__radd__", "__sub__",
                                     "__rsub__", "__mul__", "__rmul__",
                                     "__neg__", "inverse", "conjugate",
                                     "normalized", "imag")),
                       (Mat2H, ("__add__", "__sub__", "__matmul__",
                                "__rmul__", "adjoint"))):
        for name in names:
            def counting(*args, _name=name, _method=getattr(cls, name)):
                if not similarity_depth[0]:
                    calls.append(_name)
                return _method(*args)

            monkeypatch.setattr(cls, name, counting)
    cases = Counter()
    for t in pool:
        try:
            cases[diagonalize_elliptic(t).case_used.value] += 1
        except ClaimViolationError:
            cases["ClaimViolationError"] += 1
    assert set(cases) == {"Case1", "Case2", "Case3", "ClaimViolationError"}
    assert set(calls) == {"solve_similarity"}


# ClaimViolationError count of each sinh t in BAND_SINH on band_numpy_norm; the
# Case-3 construction divides by quantities of the size of b - conj(c)
# (ROADMAP item 4), and this is the count to lower.
BAND_CLAIM_FAILURES = [200, 200, 154, 0, 0]


def test_rng303_band_claim_failures():
    # test_diagonalize_matches_quaternion_route holds the Quaternion-form
    # reference to the same outcome on these rows
    for sh, want in zip(BAND_SINH, BAND_CLAIM_FAILURES):
        failures = 0
        for t in band_numpy_norm(sh, 200):
            try:
                diagonalize_elliptic(t)
            except ClaimViolationError:
                failures += 1
        assert failures == want, sh
