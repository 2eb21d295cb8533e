"""The immutable record contract shared by Quaternion and the value classes:
read-only fields, equality, hashing and repr by field, exact copies."""

import copy
import pickle

import pytest

from quatu11 import (DiagonalizationCase, DiagonalizationResult,
                     GroupElement, InvariantReport, LeftSpectrumDescription,
                     Mat2H, QI, QJ, QK, Quaternion, RightSpectrum,
                     SpectralSphere, SphereFamily, conjugate,
                     diagonalize_elliptic, inverse_u11, left_eigenvalues,
                     report, right_spectrum, validate)
from quatu11.invariants import IDENTITY_CHECKS, IdentityCheck

ODD = Quaternion(-0.0, 1.0 / 3.0, 2.5, -1e-300)


def _with_caches(t):
    t = validate(t.m)
    report(t)  # fill both caches, which must stay invisible
    conjugate(t, inverse_u11(t))
    return t


# class -> (fields in order, sample built from the worked example t,
#           a different instance)
RECORDS = {
    Quaternion: (("w", "x", "y", "z"), lambda t: ODD, lambda: QI),
    Mat2H: (("a", "b", "c", "d"), lambda t: Mat2H(ODD, QI, -0.0, 2),
            lambda: Mat2H(ODD, QI, QJ, 2)),
    GroupElement: (("m", "membership_residual"), _with_caches,
                   lambda: validate(Mat2H.identity())),
    SpectralSphere: (("re", "modulus"), lambda t: SpectralSphere(0.5, 1.0),
                     lambda: SpectralSphere(0.5, 2.0)),
    RightSpectrum: (("spheres",), right_spectrum,
                    lambda: RightSpectrum((SpectralSphere(1.0, 1.0),))),
    SphereFamily: (("alpha", "beta"), lambda t: SphereFamily(ODD, QK * 0.5),
                   lambda: SphereFamily(ODD, QK)),
    LeftSpectrumDescription: (
        ("points", "families"), lambda t: left_eigenvalues(t.m),
        lambda: LeftSpectrumDescription((), (SphereFamily(ODD, QK),))),
    InvariantReport: (
        ("tr1", "tr2", "tr3", "tr4", "tr6", "delta", "delta_legacy"), report,
        lambda: InvariantReport(1.0, 2.0, 3.0, 4.0, 6.0, -0.5, None)),
    IdentityCheck: (("name", "tol", "fn"), lambda t: IDENTITY_CHECKS[0],
                    lambda: IDENTITY_CHECKS[1]),
    DiagonalizationResult: (
        ("x", "d", "residual_conjugation", "residual_membership",
         "case_used", "claim_residual"), diagonalize_elliptic,
        lambda: DiagonalizationResult(validate(Mat2H.identity()),
                                      Mat2H.identity(), 0.0, 0.0,
                                      DiagonalizationCase.CASE1)),
}

records = pytest.mark.parametrize("cls", list(RECORDS),
                                  ids=lambda cls: cls.__name__)


def _values(record, fields):
    return tuple(getattr(record, name) for name in fields)


@records
def test_fields_cannot_be_assigned_or_deleted(cls, example):
    fields, make, _other = RECORDS[cls]
    record = make(example)
    before = repr(record)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, 0.0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 0.0
    assert repr(record) == before


@records
def test_equality_and_hash_go_by_fields(cls, example):
    fields, make, other = RECORDS[cls]
    record = make(example)
    rebuilt = cls(*_values(record, fields))
    assert rebuilt == record and not rebuilt != record
    assert hash(rebuilt) == hash(record) == hash(_values(record, fields))
    assert record != other()
    assert record != _values(record, fields)


@records
def test_repr_lists_the_fields(cls, example):
    fields, make, _other = RECORDS[cls]
    record = make(example)
    shown = ", ".join(f"{name}={getattr(record, name)!r}" for name in fields)
    assert repr(record) == f"{cls.__name__}({shown})"


def test_repr_keeps_the_dataclass_format():
    assert repr(SpectralSphere(0.5, 1.0)) == \
        "SpectralSphere(re=0.5, modulus=1.0)"
    assert repr(GroupElement(Mat2H(1, 0, 0, 1), 0.0)) == (
        "GroupElement(m=Mat2H(a=Quaternion(w=1.0, x=0.0, y=0.0, z=0.0), "
        "b=Quaternion(w=0.0, x=0.0, y=0.0, z=0.0), "
        "c=Quaternion(w=0.0, x=0.0, y=0.0, z=0.0), "
        "d=Quaternion(w=1.0, x=0.0, y=0.0, z=0.0)), membership_residual=0.0)")


@records
@pytest.mark.parametrize("copier", [
    lambda r: pickle.loads(pickle.dumps(r)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"])
def test_copies_keep_every_bit(cls, copier, example):
    _fields, make, _other = RECORDS[cls]
    record = make(example)
    got = copier(record)
    assert type(got) is cls
    assert got == record
    # repr prints each float as its shortest exact round trip, -0.0 included
    assert repr(got) == repr(record)


def test_group_element_ignores_its_power_cache(example):
    fresh, cached = validate(example.m), _with_caches(example)
    assert fresh == cached and hash(fresh) == hash(cached)
    assert repr(fresh) == repr(cached)
    assert "_powers" not in repr(cached)
    for copier in (lambda r: pickle.loads(pickle.dumps(r)), copy.copy,
                   copy.deepcopy):
        copied = copier(cached)
        assert copied._powers is None
        assert report(copied) == report(cached)


@pytest.mark.parametrize("copier", [
    lambda r: pickle.loads(pickle.dumps(r)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"])
def test_group_element_ignores_its_conjugate_cache(copier, example):
    g = inverse_u11(example)
    fresh, cached = validate(example.m), validate(example.m)
    image = conjugate(cached, g)
    assert cached._conjugate == (g, image)
    assert fresh == cached and hash(fresh) == hash(cached)
    assert repr(fresh) == repr(cached)
    assert "_conjugate" not in repr(cached)
    copied = copier(cached)
    assert copied._conjugate is None
    assert repr(copied) == repr(cached)
    assert conjugate(copied, g) == image


def test_claim_residual_defaults_to_zero():
    eye = Mat2H.identity()
    result = DiagonalizationResult(GroupElement(eye, 0.0), eye, 1.0, 2.0,
                                   DiagonalizationCase.CASE2)
    assert result.claim_residual == 0.0
    assert DiagonalizationResult(GroupElement(eye, 0.0), eye, 1.0, 2.0,
                                 DiagonalizationCase.CASE3,
                                 claim_residual=0.25).claim_residual == 0.25


def test_mat2h_coerces_reals_and_rejects_other_entries():
    assert Mat2H(1, 0, 0, 1) == Mat2H.identity()
    assert Mat2H(a=1, b=0.0, c=QJ, d=-2).d == Quaternion(-2.0)
    with pytest.raises(TypeError):
        Mat2H("1", 0, 0, 1)
    with pytest.raises(TypeError):
        Mat2H(1, 0, None, 1)
