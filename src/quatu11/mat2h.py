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
import operator

from ._thresholds import SINGULAR_TOL
from .errors import NotApplicableError
from .quaternion import Quaternion, Record, _conj, _qmul, _tuple_new

__all__ = ["Mat2H", "SINGULAR_TOL"]


def is_finite_real(value) -> bool:
    """A real number, not a bool, that is finite as a float."""
    try:
        return math.isfinite(value) and value.__class__ is not bool
    except (OverflowError, TypeError):
        return False


def _require_finite_norm(p: tuple, who: str) -> None:
    if not all(map(is_finite_real, p)):  # refused before numpy sees them
        norm = "nan" if any(v != v for v in p) else "inf"  # in floats
        raise NotApplicableError(f"{who} needs a finite matrix norm, got {norm}")


def _entry_parts(value) -> tuple:
    if isinstance(value, Quaternion):
        return value
    if isinstance(value, (int, float)):
        return float(value), 0.0, 0.0, 0.0
    raise TypeError(f"matrix entries must be quaternions or reals, got {value!r}")


def _entry_property(start: int) -> property:
    """The entry whose four parts begin at start, built on each read."""
    return property(lambda self: _tuple_new(Quaternion,
                                             self._p[start:start + 4]))


class Mat2H(Record):
    """Matrix [[a, b], [c, d]] with quaternion entries; reals coerce.  Its
    one slot _p holds the 16 parts of a, b, c and d, in that order."""

    __slots__ = ("_p",)
    _fields = ("a", "b", "c", "d")
    a, b, c, d = map(_entry_property, (0, 4, 8, 12))

    def __init__(self, a, b, c, d):
        _set_p(self, (*_entry_parts(a), *_entry_parts(b), *_entry_parts(c),
                      *_entry_parts(d)))

    @classmethod
    def identity(cls) -> "Mat2H":
        return cls.diag(1.0, 1.0)

    @classmethod
    def diag(cls, p, q) -> "Mat2H":
        return _from_parts((*_entry_parts(p), *(0.0,) * 8, *_entry_parts(q)))

    @classmethod
    def from_json(cls, doc: dict) -> "Mat2H":
        if not isinstance(doc, dict) or set(doc) != {"a", "b", "c", "d"}:
            raise ValueError("matrix document must have exactly the keys a, b, c, d")
        parts = []
        for key in ("a", "b", "c", "d"):
            entry = doc[key]
            if not isinstance(entry, list) or len(entry) != 4:
                raise ValueError(f"entry {key!r} must be a list of four numbers")
            if not all(map(is_finite_real, entry)):
                raise ValueError(
                    f"entry {key!r} has a non-numeric or non-finite part")
            parts += [float(v) for v in entry]
        return _from_parts(tuple(parts))

    def to_json(self) -> dict:
        p = self._p
        return {"a": list(p[0:4]), "b": list(p[4:8]),
                "c": list(p[8:12]), "d": list(p[12:16])}

    # -- arithmetic, with the bits of the Quaternion operations ------------

    def __add__(self, other: "Mat2H") -> "Mat2H":
        if not isinstance(other, Mat2H):
            return NotImplemented
        return _from_parts(tuple(map(operator.add, self._p, other._p)))

    def __sub__(self, other: "Mat2H") -> "Mat2H":
        if not isinstance(other, Mat2H):
            return NotImplemented
        return _from_parts(tuple(map(operator.sub, self._p, other._p)))

    def __matmul__(self, other: "Mat2H") -> "Mat2H":
        if not isinstance(other, Mat2H):
            return NotImplemented
        return _from_parts(_matmul(self._p, other._p))

    def __rmul__(self, scalar) -> "Mat2H":
        # Scalars multiply from the left; quaternion scalars do not commute
        # with the entries, so there is deliberately no right version.  A
        # real scalar scales each part, so -1.0 * M negates every part,
        # zeros included.
        p = self._p
        if isinstance(scalar, (int, float)):
            s = float(scalar)
            return _from_parts(tuple([v * s for v in p]))
        if not isinstance(scalar, Quaternion):
            return NotImplemented
        return _from_parts(_qmul(scalar, p[0:4]) + _qmul(scalar, p[4:8])
                           + _qmul(scalar, p[8:12]) + _qmul(scalar, p[12:16]))

    def adjoint(self) -> "Mat2H":
        p = self._p
        return _from_parts(_conj(p[0:4]) + _conj(p[8:12])
                           + _conj(p[4:8]) + _conj(p[12:16]))

    def tr(self) -> float:
        """Real trace 2*(Re a + Re d); quaternionic traces are only defined
        up to similarity, the real part is what stays invariant."""
        return _trace(self._p)

    def frobenius(self) -> float:
        return _frobenius(self._p)

    # -- complex adjoint --------------------------------------------------

    def chi(self) -> np.ndarray:
        """Block rows (z, v), (-conj(v), conj(z)) of each entry as one array
        of 32 float parts; float() first, so an int 0 negates to -0.0."""
        import numpy as np
        (a0, a1, a2, a3, b0, b1, b2, b3, c0, c1, c2, c3, d0, d1, d2, d3) = \
            self._p
        f = float
        return np.array((
            a0, a1, a2, a3, b0, b1, b2, b3,
            -f(a2), a3, a0, -f(a1), -f(b2), b3, b0, -f(b1),
            c0, c1, c2, c3, d0, d1, d2, d3,
            -f(c2), c3, c0, -f(c1), -f(d2), d3, d0, -f(d1),
        ), dtype=float).view(complex).reshape(4, 4)

    def is_singular(self, tol: float = SINGULAR_TOL) -> bool:
        """sigma_min <= tol (1 + ||.||_F) of chi(M), decided on chi(M) 2^-e,
        e the largest part's exponent floored at 0: exact, so no overflow."""
        import numpy as np
        _require_finite_norm(self._p, "the singularity test")
        scale = math.ldexp(1.0, -max(math.frexp(max(map(abs, self._p)))[1], 0))
        rep = _from_parts(tuple([v * scale for v in self._p])).chi()
        smallest = np.linalg.svd(rep, compute_uv=False)[-1]
        return bool(smallest <= tol * (scale + np.linalg.norm(rep)))


(_set_p,) = Mat2H._slot_setters()


def _from_parts(p: tuple) -> Mat2H:
    """Mat2H holding the 16-tuple of parts p, skipping the coercion of
    __init__."""
    out = object.__new__(Mat2H)
    _set_p(out, p)
    return out


def _trace(p: tuple) -> float:
    """Mat2H.tr on the 16 parts p."""
    return 2.0 * (p[0] + p[12])


def _frobenius(p: tuple) -> float:
    """||M||_F on the 16 parts p, summed entry by entry as
    Quaternion.norm_sq sums each entry."""
    (aw, ax, ay, az, bw, bx, by, bz,
     cw, cx, cy, cz, dw, dx, dy, dz) = p
    return math.sqrt((aw * aw + ax * ax + ay * ay + az * az)
                     + (bw * bw + bx * bx + by * by + bz * bz)
                     + (cw * cw + cx * cx + cy * cy + cz * cz)
                     + (dw * dw + dx * dx + dy * dy + dz * dz))


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

