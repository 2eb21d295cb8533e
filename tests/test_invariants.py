"""Trace and delta invariants and their power identities."""

import math
from collections import Counter
from fractions import Fraction

import pytest

import quatu11.invariants
import quatu11.mat2h
from quatu11 import (GroupElement, Mat2H, QI, QJ, Quaternion, conjugate, delta,
                     delta_legacy, delta_via_traces, membership_residual,
                     random_element, report, validate)
from quatu11.errors import NotApplicableError
from quatu11.invariants import (IDENTITY_CHECKS, SINGLE_ELEMENT_CHECKS,
                                _newton_traces, _power_values)

from probes import (CLASS_NAMES, dyadic_signed_zero, gaussian_scales,
                    parts_matrix, rotor)


def test_delta_golden_values(example):
    assert abs(delta(example.m) - (-1.0)) < 1e-12
    assert delta(Mat2H.identity()) == 0.0
    assert delta(Mat2H.diag(QI, QJ)) == 0.0


def test_delta_legacy_matches_on_the_example(example):
    assert abs(delta_legacy(example) - (-1.0)) < 1e-12


def test_delta_legacy_requires_case_three():
    diagonal = validate(Mat2H.diag(QI, QJ))  # b == c == 0
    loxodromic = rotor()  # b == conj(c)
    # b == 0 != c: no group element has this pattern, and stratum raises
    # MembershipError, which delta_legacy reports as not applicable
    lower = Mat2H(Quaternion(1.0), Quaternion(), QI, Quaternion(1.0))
    one_zero = GroupElement(lower, membership_residual(lower))
    for t in (diagonal, loxodromic, one_zero):
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


def _power_values_by_matmul(t: GroupElement) -> tuple:
    """What _power_values caches, from the Mat2H @ chain, Mat2H.tr and
    moebius.delta."""
    m = t.m
    m2 = m @ m
    m3 = m2 @ m
    m4 = m3 @ m
    m6 = m4 @ m2
    return (m.tr(), m2.tr(), m3.tr(), m4.tr(), m6.tr(),
            delta(m), delta(m2), delta(m3), delta(m6))


def _hex(values) -> list:
    return [float(v).hex() for v in values]


def test_powers_are_formed_once_and_match_mat_pow(class_pool):
    for elements in class_pool.values():
        t = validate(elements[0].m)
        assert t._powers is None
        values = _power_values(t)
        assert _power_values(t) is values
        assert _hex(values) == _hex(_power_values_by_matmul(t))


def test_power_values_keep_the_bits_of_the_matmul_route(class_pool,
                                                        generic_pool):
    pool = [t.m for members in class_pool.values() for t in members]
    pool += [t.m for t in generic_pool]
    # off-group Gaussians at scales 1e-6 .. 1e6
    pool += [parts_matrix(p) for p in gaussian_scales(1717, 20)]
    # small dyadic parts, a random share of them signed zeros, so that the
    # zero parts decide the sign of zero traces
    pool += [parts_matrix(p) for p in dyadic_signed_zero(
        17, 1000, [1.0, -1.0, 2.0, -0.5, 3.0])]
    negative_zero_traces = 0
    for m in pool:
        t = GroupElement(m, membership_residual(m))
        want = _power_values_by_matmul(t)
        assert _hex(_power_values(t)) == _hex(want), m
        negative_zero_traces += any(v == 0.0 and math.copysign(1.0, v) < 0.0
                                    for v in want[:5])
    assert negative_zero_traces  # the pool reaches -0.0 traces


def test_report_and_checks_form_the_chain_without_objects(monkeypatch,
                                                          class_pool,
                                                          generic_pool):
    """report and the seven single-element checks make no Mat2H product and
    no Quaternion arithmetic beyond what delta_legacy itself makes."""
    calls = Counter()
    for cls, names in ((Quaternion, ("__add__", "__radd__", "__sub__",
                                     "__rsub__", "__mul__", "__rmul__",
                                     "__neg__", "__truediv__", "inverse",
                                     "conjugate", "normalized", "imag")),
                       (Mat2H, ("__add__", "__sub__", "__matmul__",
                                "__rmul__", "adjoint"))):
        for name in names:
            def counting(*args, _name=f"{cls.__name__}.{name}",
                         _method=getattr(cls, name)):
                calls[_name] += 1
                return _method(*args)

            monkeypatch.setattr(cls, name, counting)
    legacy_arithmetic = 0
    pool = [t for members in class_pool.values() for t in members]
    for m in (t.m for t in pool + generic_pool):
        calls.clear()
        try:
            delta_legacy(validate(m))
        except NotApplicableError:
            pass
        legacy = Counter(calls)
        legacy_arithmetic += sum(legacy.values())
        calls.clear()
        report(validate(m))
        assert calls == legacy
        calls.clear()
        t = validate(m)
        for check in SINGLE_ELEMENT_CHECKS:
            check.fn(t, t)
        assert calls == legacy
    assert legacy_arithmetic  # the counters see delta_legacy's arithmetic


@pytest.fixture
def products(monkeypatch) -> Counter:
    """Counts calls of the one matrix product, under the names Mat2H @,
    report, the power chain, validate and conjugate call it by."""
    count = Counter()
    matmul = quatu11.mat2h._matmul

    def counted(m, n):
        count["_matmul"] += 1
        return matmul(m, n)

    for module in (quatu11.mat2h, quatu11.invariants, quatu11.group):
        monkeypatch.setattr(module, "_matmul", counted)
    return count


def test_identity_checks_form_each_product_once(products):
    t = random_element([61, 0])
    g = random_element([61, 1])
    products.clear()
    for check in IDENTITY_CHECKS:
        check.fn(t, g)
    # four for T^2, T^3, T^4, T^6, two for the one conjugation G T G^-1,
    # which delta_similarity and trace_similarity share, and one for the
    # Gram term G T G^-1* J G T G^-1 of its membership residual
    assert products["_matmul"] == 7


def test_report_forms_one_product(products):
    m = random_element([61, 0]).m
    products.clear()
    t = validate(m)
    assert products["_matmul"] == 1  # the Gram term of the residual
    report(t)
    assert products["_matmul"] == 2  # T^2; the other traces by recurrence
    assert t._powers is None


# -- the trace algebra ------------------------------------------------------
#
# For T in the group, chi(T) has the real palindromic characteristic
# polynomial x^4 - s1 x^3 + s2 x^2 - s1 x + 1 with s1 = Tr T and s2 =
# (s1^2 - Tr T^2) / 2 (Parker and Short, CMFT 9, 2009), so Newton's
# identities give every Tr T^k from (Tr T, Tr T^2).  This lemma is what
# _newton_traces encodes; the tests below prove the paper's power rules from
# it and check it against exact traces of matrix powers.


def _delta_of(pk, p2k):
    """delta(T^k) from Tr T^k and Tr T^2k."""
    return pk * pk / 4 - p2k / 2 - 2


def test_delta_power_rules_are_polynomial_identities():
    """Under the lemma, each side of the four power rules is a polynomial of
    degree at most 12 in each of s1 and p2 = Tr T^2.  Two such polynomials
    that agree on a 13 x 13 grid of distinct points are equal, so exact
    equality on the 15 x 15 grid below proves each rule."""
    grid = [Fraction(n, 3) for n in range(-7, 8)]
    for s1 in grid:
        for p2 in grid:
            p3, p4, p6 = _newton_traces(s1, p2)
            # T^2 and T^3 are in the group too: their own traces agree, and
            # give Tr T^8, Tr T^12 and Tr T^9
            p6_sq, _p8, p12 = _newton_traces(p2, p4)
            _p9, p12_cube, _p18 = _newton_traces(p3, p6)
            assert (p6_sq, p12_cube) == (p6, p12)
            d = _delta_of(s1, p2)
            cube_factor = s1 * s1 / 2 + p2 / 2 - 1
            d6 = _delta_of(p6, p12)
            assert _delta_of(p2, p4) == s1 * s1 * d, (s1, p2)
            assert _delta_of(p3, p6) == cube_factor ** 2 * d, (s1, p2)
            assert d6 == (p2 * p2 / 2 + p4 / 2 - 1) ** 2 * s1 * s1 * d, \
                (s1, p2)
            assert d6 == cube_factor ** 2 * p3 * p3 * d, (s1, p2)


def _exact_power_traces(m: Mat2H) -> tuple:
    """Tr T^3, Tr T^4, Tr T^6 of the float parts of m, in exact rationals."""
    p = tuple(map(Fraction, m._p))
    p2 = quatu11.mat2h._matmul(p, p)
    p3 = quatu11.mat2h._matmul(p2, p)
    p4 = quatu11.mat2h._matmul(p3, p)
    p6 = quatu11.mat2h._matmul(p4, p2)
    return tuple(2 * (q[0] + q[12]) for q in (p3, p4, p6))


def test_report_traces_are_within_1e_11_of_the_exact_traces():
    """report's recurrence and the power chain against the exact traces of
    each float input, as |err| / (1 + |exact|); the worst per class and
    route is printed, shown with pytest -s."""
    lines = []
    for name in CLASS_NAMES:
        worst = {"recurrence": [0.0] * 3, "chain": [0.0] * 3}
        for k in range(40):
            t = random_element([77, k], class_hint=name)
            rep = report(t)
            exact = _exact_power_traces(t.m)
            for route, got in (("recurrence", (rep.tr3, rep.tr4, rep.tr6)),
                               ("chain", _power_values(t)[2:5])):
                worst[route] = [max(w, float(abs(Fraction(g) - e)
                                             / (1 + abs(e))))
                                for w, g, e in zip(worst[route], got, exact)]
        lines.append(f"{name}: " + ", ".join(
            f"{route} tr3/tr4/tr6 " + " ".join(f"{w:.1e}" for w in ws)
            for route, ws in worst.items()))
        print(lines[-1])
        assert max(worst["recurrence"]) <= 1e-11, lines[-1]


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
