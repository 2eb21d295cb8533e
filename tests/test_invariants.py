"""Trace and delta invariants and their power identities."""

import math

import pytest

from quatu11 import (GroupElement, Mat2H, QI, QJ, Quaternion, conjugate, delta,
                     delta_legacy, delta_via_traces, mat_pow,
                     membership_residual, random_element, report, validate)
from quatu11.errors import NotApplicableError
from quatu11.invariants import IDENTITY_CHECKS, SINGLE_ELEMENT_CHECKS

R2 = math.sqrt(2)


def test_delta_golden_values(example):
    assert abs(delta(example.m) - (-1.0)) < 1e-12
    assert delta(Mat2H.identity()) == 0.0
    assert delta(Mat2H.diag(QI, QJ)) == 0.0


def test_delta_legacy_matches_on_the_example(example):
    assert abs(delta_legacy(example) - (-1.0)) < 1e-12


def test_delta_legacy_requires_case_three():
    diagonal = validate(Mat2H.diag(QI, QJ))  # b == c == 0
    rotor = validate(Mat2H(Quaternion(R2), QI, -QI, Quaternion(R2)))  # b == conj(c)
    # b == 0 != c: no group element has this pattern, and stratum raises
    # MembershipError, which delta_legacy reports as not applicable
    lower = Mat2H(Quaternion(1.0), Quaternion(), QI, Quaternion(1.0))
    one_zero = GroupElement(lower, membership_residual(lower))
    for t in (diagonal, rotor, one_zero):
        with pytest.raises(NotApplicableError):
            delta_legacy(t)
        assert report(t).delta_legacy is None


def test_delta_legacy_agrees_generically(generic_pool):
    hits = 0
    for t in generic_pool:
        try:
            legacy = delta_legacy(t)
        except NotApplicableError:
            continue
        hits += 1
        assert abs(legacy - delta(t.m)) < 1e-9
    assert hits > len(generic_pool) // 2  # generic draws land off the locus


def test_delta_via_traces_golden(example):
    eye = validate(Mat2H.identity())
    assert delta_via_traces(eye) == 0.0  # 16/4 - 4/2 - 2
    assert abs(delta_via_traces(example) - (-1.0)) < 1e-8


def test_mat_pow_small_cases(example):
    m = example.m
    assert mat_pow(m, 0) == Mat2H.identity()
    assert mat_pow(m, 1) == m
    assert (mat_pow(m, 3) - m @ m @ m).frobenius() == 0.0
    with pytest.raises(ValueError):
        mat_pow(m, -1)


def test_powers_are_formed_once_and_match_mat_pow(class_pool):
    for elements in class_pool.values():
        t = validate(elements[0].m)
        powers = t.powers()
        assert t.powers() is powers
        for got, n in zip(powers[:3], (2, 3, 4)):
            assert got == mat_pow(t.m, n)
        assert powers[3] == powers[2] @ powers[0]


def test_identity_checks_form_each_product_once(monkeypatch):
    t = random_element([61, 0])
    g = random_element([61, 1])
    products = 0
    matmul = Mat2H.__matmul__

    def counted(self, other):
        nonlocal products
        products += 1
        return matmul(self, other)

    monkeypatch.setattr(Mat2H, "__matmul__", counted)
    for check in IDENTITY_CHECKS:
        check.fn(t, g)
    # four for T^2, T^3, T^4, T^6 and two for each of the two conjugations
    assert products == 8


def test_report_fields(example):
    rep = report(example)
    assert rep.tr1 == 2.0
    assert abs(rep.delta - (-1.0)) < 1e-12
    assert rep.delta_legacy is not None
    doc = rep.to_json()
    assert set(doc) == {"tr1", "tr2", "tr3", "tr4", "tr6", "delta", "delta_legacy"}


def test_report_legacy_is_none_off_case_three():
    rep = report(validate(Mat2H.diag(QI, QJ)))
    assert rep.delta_legacy is None


def test_single_element_identities_hold(generic_pool):
    eye = validate(Mat2H.identity())
    worst = {}
    for t in generic_pool:
        for check in SINGLE_ELEMENT_CHECKS:
            r = check.fn(t, eye)
            worst[check.name] = max(worst.get(check.name, 0.0), r)
            assert r <= check.tol, (check.name, r)
    assert worst  # sanity: the loop ran


def test_similarity_identities_hold(generic_pool):
    pairs = zip(generic_pool[:30], generic_pool[30:])
    for t, g in pairs:
        for check in IDENTITY_CHECKS[-2:]:
            assert check.fn(t, g) <= check.tol, check.name


def test_delta_is_conjugation_invariant_across_classes(class_pool):
    g = random_element([60, 0])
    for elements in class_pool.values():
        for t in elements[:2]:
            assert abs(delta(conjugate(t, g).m) - delta(t.m)) < 1e-7
