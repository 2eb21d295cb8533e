"""2x2 quaternionic matrices and their 4x4 complex adjoint image.

Writing each entry q = (q.w + q.x*i) + (q.y + q.z*i)*j maps it to the 2x2
complex block [[z, v], [-conj(v), conj(z)]]; applying this blockwise gives a
4x4 complex matrix chi(M).  chi is a ring homomorphism that intertwines the
conjugate transpose on both sides, so the singularity test
`Mat2H.is_singular` here and the right-spectrum oracle in `spectra` hand
chi(M) to numpy.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .errors import NotApplicableError
from .quaternion import ONE, ZERO, Quaternion, Record, _new

if TYPE_CHECKING:
    import numpy as np

SINGULAR_TOL = 1e-12

__all__ = ["Mat2H", "SINGULAR_TOL"]


def is_json_number(value) -> bool:
    """A finite int or float that is not a bool: a JSON number part."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and math.isfinite(value)


def _entry(value) -> Quaternion:
    if isinstance(value, Quaternion):
        return value
    if isinstance(value, (int, float)):
        return Quaternion(float(value), 0.0, 0.0, 0.0)
    raise TypeError(f"matrix entries must be quaternions or reals, got {value!r}")


class Mat2H(Record):
    """Matrix [[a, b], [c, d]] with quaternion entries; reals coerce."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        _set_a(self, _entry(a))
        _set_b(self, _entry(b))
        _set_c(self, _entry(c))
        _set_d(self, _entry(d))

    @classmethod
    def identity(cls) -> "Mat2H":
        return _from_quaternions(ONE, ZERO, ZERO, ONE)

    @classmethod
    def diag(cls, p, q) -> "Mat2H":
        return _from_quaternions(_entry(p), ZERO, ZERO, _entry(q))

    @classmethod
    def from_json(cls, doc: dict) -> "Mat2H":
        if not isinstance(doc, dict) or set(doc) != {"a", "b", "c", "d"}:
            raise ValueError("matrix document must have exactly the keys a, b, c, d")
        entries = {}
        for key in ("a", "b", "c", "d"):
            parts = doc[key]
            if not isinstance(parts, list) or len(parts) != 4:
                raise ValueError(f"entry {key!r} must be a list of four numbers")
            if not all(is_json_number(p) for p in parts):
                raise ValueError(
                    f"entry {key!r} has a non-numeric or non-finite part")
            entries[key] = Quaternion.from_list(parts)
        return cls(**entries)

    def to_json(self) -> dict:
        return {"a": self.a.as_list(), "b": self.b.as_list(),
                "c": self.c.as_list(), "d": self.d.as_list()}

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "Mat2H") -> "Mat2H":
        if not isinstance(other, Mat2H):
            return NotImplemented
        return _from_quaternions(self.a + other.a, self.b + other.b,
                                 self.c + other.c, self.d + other.d)

    def __sub__(self, other: "Mat2H") -> "Mat2H":
        if not isinstance(other, Mat2H):
            return NotImplemented
        return _from_quaternions(self.a - other.a, self.b - other.b,
                                 self.c - other.c, self.d - other.d)

    def __matmul__(self, other: "Mat2H") -> "Mat2H":
        if not isinstance(other, Mat2H):
            return NotImplemented
        return _from_parts(_matmul(_matrix(self), _matrix(other)))

    def __rmul__(self, scalar) -> "Mat2H":
        # Scalars multiply from the left; quaternion scalars do not commute
        # with the entries, so there is deliberately no right version.  A
        # real scalar scales each part, so -1.0 * M negates every part,
        # zeros included.
        if isinstance(scalar, (int, float)):
            s = float(scalar)
            return _from_quaternions(self.a * s, self.b * s,
                                     self.c * s, self.d * s)
        if not isinstance(scalar, Quaternion):
            return NotImplemented
        return _from_quaternions(scalar * self.a, scalar * self.b,
                                 scalar * self.c, scalar * self.d)

    def adjoint(self) -> "Mat2H":
        return _from_quaternions(self.a.conjugate(), self.c.conjugate(),
                                 self.b.conjugate(), self.d.conjugate())

    def tr(self) -> float:
        """Real trace 2*(Re a + Re d); quaternionic traces are only defined
        up to similarity, the real part is what stays invariant."""
        return 2.0 * (self.a.w + self.d.w)

    def frobenius(self) -> float:
        return math.sqrt(self.a.norm_sq() + self.b.norm_sq()
                         + self.c.norm_sq() + self.d.norm_sq())

    # -- complex adjoint --------------------------------------------------

    def chi(self) -> np.ndarray:
        """Block rows (z, v), (-conj(v), conj(z)) of each entry as one array
        of 32 float parts; float() first, so an int 0 negates to -0.0."""
        import numpy as np
        a, b, c, d = self.a, self.b, self.c, self.d
        f = float
        return np.array((
            a.w, a.x, a.y, a.z, b.w, b.x, b.y, b.z,
            -f(a.y), a.z, a.w, -f(a.x), -f(b.y), b.z, b.w, -f(b.x),
            c.w, c.x, c.y, c.z, d.w, d.x, d.y, d.z,
            -f(c.y), c.z, c.w, -f(c.x), -f(d.y), d.z, d.w, -f(d.x),
        ), dtype=float).view(complex).reshape(4, 4)

    def is_singular(self, tol: float = SINGULAR_TOL) -> bool:
        import numpy as np
        rep = self.chi()
        norm = np.linalg.norm(rep)
        if not math.isfinite(norm):
            raise NotApplicableError(
                f"the singularity test needs a finite matrix norm, got {norm}")
        smallest = np.linalg.svd(rep, compute_uv=False)[-1]
        return bool(smallest <= tol * (1.0 + norm))


_set_a, _set_b, _set_c, _set_d = Mat2H._slot_setters()


def _from_quaternions(a: Quaternion, b: Quaternion,
                      c: Quaternion, d: Quaternion) -> Mat2H:
    """Mat2H from entries that are already Quaternions, skipping _entry
    and the call through type()."""
    out = object.__new__(Mat2H)
    _set_a(out, a)
    _set_b(out, b)
    _set_c(out, c)
    _set_d(out, d)
    return out


def _from_parts(p: tuple) -> Mat2H:
    """Mat2H from a 16-tuple of parts, the inverse of _matrix."""
    (a0, a1, a2, a3, b0, b1, b2, b3, c0, c1, c2, c3, d0, d1, d2, d3) = p
    return _from_quaternions(_new(a0, a1, a2, a3), _new(b0, b1, b2, b3),
                             _new(c0, c1, c2, c3), _new(d0, d1, d2, d3))


def _matmul(m: tuple, n: tuple) -> tuple:
    """[[a, b], [c, d]] [[e, f], [g, h]] on 16-tuples of parts.  Each part
    of an entry p r + q s is the sum Quaternion.__mul__ forms for p * r plus
    the one it forms for q * s: the bits of the Quaternion route."""
    (a0, a1, a2, a3, b0, b1, b2, b3, c0, c1, c2, c3, d0, d1, d2, d3) = m
    (e0, e1, e2, e3, f0, f1, f2, f3, g0, g1, g2, g3, h0, h1, h2, h3) = n
    return (
        (a0*e0 - a1*e1 - a2*e2 - a3*e3) + (b0*g0 - b1*g1 - b2*g2 - b3*g3),
        (a0*e1 + a1*e0 + a2*e3 - a3*e2) + (b0*g1 + b1*g0 + b2*g3 - b3*g2),
        (a0*e2 - a1*e3 + a2*e0 + a3*e1) + (b0*g2 - b1*g3 + b2*g0 + b3*g1),
        (a0*e3 + a1*e2 - a2*e1 + a3*e0) + (b0*g3 + b1*g2 - b2*g1 + b3*g0),
        (a0*f0 - a1*f1 - a2*f2 - a3*f3) + (b0*h0 - b1*h1 - b2*h2 - b3*h3),
        (a0*f1 + a1*f0 + a2*f3 - a3*f2) + (b0*h1 + b1*h0 + b2*h3 - b3*h2),
        (a0*f2 - a1*f3 + a2*f0 + a3*f1) + (b0*h2 - b1*h3 + b2*h0 + b3*h1),
        (a0*f3 + a1*f2 - a2*f1 + a3*f0) + (b0*h3 + b1*h2 - b2*h1 + b3*h0),
        (c0*e0 - c1*e1 - c2*e2 - c3*e3) + (d0*g0 - d1*g1 - d2*g2 - d3*g3),
        (c0*e1 + c1*e0 + c2*e3 - c3*e2) + (d0*g1 + d1*g0 + d2*g3 - d3*g2),
        (c0*e2 - c1*e3 + c2*e0 + c3*e1) + (d0*g2 - d1*g3 + d2*g0 + d3*g1),
        (c0*e3 + c1*e2 - c2*e1 + c3*e0) + (d0*g3 + d1*g2 - d2*g1 + d3*g0),
        (c0*f0 - c1*f1 - c2*f2 - c3*f3) + (d0*h0 - d1*h1 - d2*h2 - d3*h3),
        (c0*f1 + c1*f0 + c2*f3 - c3*f2) + (d0*h1 + d1*h0 + d2*h3 - d3*h2),
        (c0*f2 - c1*f3 + c2*f0 + c3*f1) + (d0*h2 - d1*h3 + d2*h0 + d3*h1),
        (c0*f3 + c1*f2 - c2*f1 + c3*f0) + (d0*h3 + d1*h2 - d2*h1 + d3*h0),
    )


def _matrix(m: Mat2H) -> tuple:
    """The 16 parts of a, b, c and d, the form _matmul reads."""
    a, b, c, d = m.a, m.b, m.c, m.d
    return (a.w, a.x, a.y, a.z, b.w, b.x, b.y, b.z,
            c.w, c.x, c.y, c.z, d.w, d.x, d.y, d.z)
