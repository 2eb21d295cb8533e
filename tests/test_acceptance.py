"""Acceptance suite: one test and one summary line per criterion.

Each test recomputes its criterion from scratch at the stated tolerance and
records a single pass/fail line (printed in the terminal summary).  Pool
sizes follow the criterion text; seeds are fixed so failures reproduce.
"""

import math

import numpy as np
import pytest

from quatu11 import (DiagonalizationCase, Mat2H, MoebiusClass, QI, QJ,
                     Quaternion, RightSpectrum, conjugate, delta,
                     diagonalize_elliptic, left_eigenvalues, mat_pow,
                     random_element, right_spectrum, right_spectrum_casewise,
                     right_spectrum_oracle, validate, verify_s_point)
from quatu11.errors import NotApplicableError
from quatu11.invariants import SINGLE_ELEMENT_CHECKS, delta_legacy
from quatu11.moebius import classify

R2 = math.sqrt(2)

CLASS_NAMES = [c.value for c in MoebiusClass]


def _example():
    a = Quaternion(2.0, 1.0, 0.0, 0.0)
    b = Quaternion(-R2, R2, 0.0, 0.0)
    d = Quaternion(-1.0, -2.0, 0.0, 0.0)
    return validate(Mat2H(a, b, b, d))


def _six_class_pool(count, base_seed):
    """count elements cycling through all six classes, deterministically."""
    return [random_element([base_seed, k], class_hint=CLASS_NAMES[k % 6])
            for k in range(count)]


def test_criterion_1_worked_example(acceptance):
    t = _example()
    checks = {}
    checks["member"] = t.membership_residual <= 1e-9
    checks["delta"] = abs(delta(t.m) - (-1.0)) <= 1e-12
    checks["class"] = classify(t) is MoebiusClass.COMPOUND_ELLIPTIC

    sigma = right_spectrum(t)
    want = RightSpectrum.from_pairs([(1.0, 1.0), (0.0, 1.0)])
    checks["spectrum"] = sigma.max_deviation(want) <= 1e-10

    x_known = validate(Mat2H(Quaternion(R2), QI, Quaternion(-1.0),
                             Quaternion(0.0, -R2, 0.0, 0.0)))
    target = Mat2H.diag(Quaternion(1.0), -QI)
    checks["known_conjugator"] = (
        (conjugate(t, x_known).m - target).frobenius() <= 1e-12)

    result = diagonalize_elliptic(t)
    own_target = Mat2H.diag(Quaternion(1.0), QI)
    checks["own_diagonalization"] = (
        result.residual_conjugation < 1e-9
        and (result.d - own_target).frobenius() < 1e-9)

    failed = [k for k, ok in checks.items() if not ok]
    assert acceptance("1 worked example", not failed,
                      f"failed: {failed}" if failed else "all sub-checks"), failed


def test_criterion_2_identity_suite(acceptance):
    worst = {check.name: 0.0 for check in SINGLE_ELEMENT_CHECKS}
    eye = validate(Mat2H.identity())
    legacy_hits = 0
    for k in range(1000):
        t = random_element([200, k])
        for check in SINGLE_ELEMENT_CHECKS:
            worst[check.name] = max(worst[check.name], check.fn(t, eye))
        try:
            delta_legacy(t)
            legacy_hits += 1
        except NotApplicableError:
            pass
    bad = [name for name, value in worst.items()
           if value > dict((c.name, c.tol) for c in SINGLE_ELEMENT_CHECKS)[name]]
    detail = (f"1000 elements, {legacy_hits} off the b==conj(c) locus, worst "
              + ", ".join(f"{n}={v:.1e}" for n, v in worst.items()))
    assert legacy_hits > 500  # the legacy check must actually run
    assert acceptance("2 identity suite", not bad, detail), (bad, worst)


def _trace_zero_conjugate(k):
    rng = np.random.default_rng([300, k])
    v = rng.normal(size=4)
    u = Quaternion(*(v / np.linalg.norm(v)))
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    s = math.sqrt(max(0.0, 1.0 - u.w * u.w))
    vq = Quaternion(-u.w, *(s * axis))
    g = random_element([300, k, 1])
    return conjugate(validate(Mat2H.diag(u, vq)), g)


def _trace_zero_real_d(k):
    rng = np.random.default_rng([301, k])
    c = Quaternion(*rng.normal(size=4))
    d = Quaternion(math.sqrt(1.0 + c.norm_sq()))
    return validate(Mat2H(-d, -c.conjugate(), c, d))


def test_criterion_3_trace_zero(acceptance):
    elements = [_trace_zero_conjugate(k) for k in range(100)]
    real_d = [_trace_zero_real_d(k) for k in range(100)]
    worst_bound = worst_rel = worst_real = 0.0
    for t in elements + real_d:
        assert abs(t.m.tr()) < 1e-8
        sq = t.m @ t.m
        worst_bound = max(worst_bound, sq.tr() - 4.0)
        worst_rel = max(worst_rel, (sq.b - sq.c.conjugate()).norm(),
                        abs(sq.a.w - sq.d.w))
    for t in real_d:
        worst_real = max(worst_real, abs((t.m @ t.m).tr() - 4.0))
    ok = worst_bound <= 1e-8 and worst_rel <= 1e-8 and worst_real <= 1e-8
    assert acceptance(
        "3 trace-zero corollaries", ok,
        f"200 elements, Tr bound excess {worst_bound:.1e}, entry relations "
        f"{worst_rel:.1e}, real-d gap {worst_real:.1e}"), (worst_bound, worst_rel, worst_real)


def test_criterion_4_spectrum_triple_agreement(acceptance):
    pool = _six_class_pool(500, 400)
    worst = 0.0
    for t in pool:
        unified = right_spectrum(t)
        casewise = right_spectrum_casewise(t)
        oracle = right_spectrum_oracle(t.m)
        worst = max(worst, unified.max_deviation(casewise),
                    unified.max_deviation(oracle), casewise.max_deviation(oracle))

    on_ok = off_ok = True
    for t in pool[:20]:
        spheres = right_spectrum(t).spheres
        for n in range(100):
            sphere = spheres[n % len(spheres)]
            q = sphere.sample(1, seed=[401, n])[0]
            on_ok = on_ok and verify_s_point(t.m, q)
            for bump in (0.05, -0.05):
                off = Quaternion(q.w + bump, q.x, q.y, q.z)
                clash = any(abs(off.w - s.re) < 1e-2
                            and abs(off.norm() - s.modulus) < 1e-2 for s in spheres)
                if not clash:
                    off_ok = off_ok and not verify_s_point(t.m, off)
                    break
    ok = worst <= 1e-7 and on_ok and off_ok
    assert acceptance(
        "4 spectrum triple agreement", ok,
        f"500 elements worst deviation {worst:.1e}, on/off sphere probes "
        f"{'clean' if on_ok and off_ok else 'violated'}"), (worst, on_ok, off_ok)


def test_criterion_5_power_law(acceptance):
    worst = 0.0
    for k in range(200):
        t = random_element([500, k])
        base = right_spectrum(t)
        for n in (2, 3):
            power = validate(mat_pow(t.m, n), tol=1e-7)
            got = right_spectrum(power)
            reps = [s.representative() ** n for s in base.spheres]
            want = RightSpectrum.from_pairs([(r.w, r.norm()) for r in reps],
                                            collapse_tol=1e-9)
            worst = max(worst, got.max_deviation(want))
    ok = worst <= 1e-7
    assert acceptance("5 power-spectrum law", ok,
                      f"200 elements, n in {{2,3}}, worst {worst:.1e}"), worst


def test_criterion_6_left_spectrum_goldens(acceptance):
    checks = {}
    rotor = Mat2H(Quaternion(R2), QI, -QI, Quaternion(R2))
    fam = left_eigenvalues(rotor).families[0]
    samples = fam.sample(50, seed=600)
    checks["rotor_family"] = all(
        abs((q.w - R2) ** 2 + q.y ** 2 + q.z ** 2 - 1.0) < 1e-9
        and abs(q.x) < 1e-9 for q in samples)

    fam2 = left_eigenvalues(rotor @ rotor).families[0]
    checks["rotor_square"] = (abs(fam2.center_re - 3.0) < 1e-9
                              and abs(fam2.radius ** 2 - 8.0) < 1e-9)

    def points(m):
        return {tuple(round(v, 9) for v in p.as_list())
                for p in left_eigenvalues(m).points}

    checks["diag_plus"] = points(Mat2H.diag(QI, QJ)) == {(0, 1, 0, 0), (0, 0, 1, 0)}
    checks["diag_minus"] = points(Mat2H.diag(QI, -QJ)) == {(0, 1, 0, 0), (0, 0, -1, 0)}

    singular_ok = True
    emitted = 0
    targets = [rotor, rotor @ rotor, Mat2H.diag(QI, QJ), Mat2H.diag(QI, -QJ)]
    targets += [random_element([601, k]).m for k in range(40)]
    for m in targets:
        desc = left_eigenvalues(m)
        for lam in desc.points:
            emitted += 1
            singular_ok = singular_ok and (m - Mat2H.diag(lam, lam)).is_singular(1e-7)
        for family in desc.families:
            for lam in family.sample(10, seed=602):
                emitted += 1
                singular_ok = singular_ok and (m - Mat2H.diag(lam, lam)).is_singular(1e-7)
    checks["singularity_oracle"] = singular_ok

    failed = [k for k, ok in checks.items() if not ok]
    assert acceptance("6 left-spectrum goldens", not failed,
                      f"{emitted} eigenvalues checked against the oracle"
                      if not failed else f"failed: {failed}"), failed


def test_criterion_7_diagonalization_suite(acceptance):
    pool = []
    for k in range(150):
        rng = np.random.default_rng([700, k])
        u = Quaternion(*rng.normal(size=4)).normalized()
        v = Quaternion(*rng.normal(size=4)).normalized()
        pool.append(validate(Mat2H.diag(u, v)))
    for k in range(175):
        pool.append(random_element([701, k], class_hint="SimpleElliptic"))
    for k in range(175):
        pool.append(random_element([702, k], class_hint="CompoundElliptic"))

    counts = {case: 0 for case in DiagonalizationCase}
    worst_x = worst_conj = worst_sphere = worst_claim = 0.0
    ordering_ok = True
    for t in pool:
        result = diagonalize_elliptic(t)
        counts[result.case_used] += 1
        worst_x = max(worst_x, result.x.membership_residual)
        worst_conj = max(worst_conj, result.residual_conjugation)
        worst_claim = max(worst_claim, result.claim_residual)
        spheres = right_spectrum(t).spheres
        for entry in (result.d.a, result.d.d):
            best = min(max(abs(entry.w - s.re), abs(entry.norm() - s.modulus))
                       for s in spheres)
            worst_sphere = max(worst_sphere, best)
        if result.case_used is DiagonalizationCase.CASE3:
            gap = result.d.a.w - result.d.d.w
            if t.m.a.w > t.m.d.w:
                ordering_ok = ordering_ok and gap > -1e-9
            else:
                ordering_ok = ordering_ok and gap < 1e-9

    enough = all(counts[c] >= 100 for c in DiagonalizationCase)
    ok = (enough and worst_x < 1e-8 and worst_conj < 1e-8
          and worst_sphere <= 1e-7 and worst_claim <= 1e-8 and ordering_ok)
    detail = (f"counts {{1: {counts[DiagonalizationCase.CASE1]}, "
              f"2: {counts[DiagonalizationCase.CASE2]}, "
              f"3: {counts[DiagonalizationCase.CASE3]}}}, residuals "
              f"x {worst_x:.1e}, conj {worst_conj:.1e}, spheres {worst_sphere:.1e}, "
              f"claims {worst_claim:.1e}")
    assert acceptance("7 diagonalization suite", ok, detail), (
        counts, worst_x, worst_conj, worst_sphere, worst_claim, ordering_ok)


def test_criterion_8_coarse_invariance(acceptance):
    mismatches = 0
    for k in range(500):
        t = random_element([800, k], class_hint=CLASS_NAMES[k % 6])
        g = random_element([800, k, 1])
        if classify(conjugate(t, g)).coarse != classify(t).coarse:
            mismatches += 1
    assert acceptance("8 coarse-class invariance", mismatches == 0,
                      f"500 conjugation pairs, {mismatches} mismatches"), mismatches
