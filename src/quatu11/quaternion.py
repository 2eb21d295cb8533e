"""Floating-point quaternion scalars, and the immutable record base.

A quaternion is w + x*i + y*j + z*k with real components and the Hamilton
product (i*i == j*j == k*k == i*j*k == -1).  Values are immutable; every
operation returns a fresh instance.  Real numbers coerce on the side they
appear on, which is safe because reals are central.

A `Quaternion` is a named 4-tuple of its parts (w, x, y, z), which the
part-tuple algebra below takes unchanged.  From `tuple` it gains
unpacking, `len`, indexing and ordering; it still equals only a
Quaternion, and `+` with a plain tuple raises TypeError instead of
concatenating.

`Record` is the immutable-value base of every other value class.
"""

from __future__ import annotations

import math
from collections import namedtuple

from ._thresholds import SIMILARITY_TOL, TURN_TOL
from .errors import NotSimilarError

__all__ = [
    "Quaternion",
    "ZERO",
    "ONE",
    "QI",
    "QJ",
    "QK",
    "is_similar",
    "solve_similarity",
    "SIMILARITY_TOL",
]


class Record:
    """Immutable value compared, hashed, shown and pickled by its fields.

    The fields are the subclass's own _fields, else its __slots__ less those
    starting with "_", which hold caches.  Assignment is blocked, so each
    subclass's __init__ sets its slots through `_slot_setters()`.
    Quaternion keeps the same contract as a named tuple.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        if "_fields" not in cls.__dict__:
            cls._fields = tuple(n for n in cls.__slots__ if n[0] != "_")

    @classmethod
    def _slot_setters(cls) -> tuple:
        """The __set__ of each slot descriptor, in __slots__ order."""
        return tuple(cls.__dict__[name].__set__ for name in cls.__slots__)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # The default slot-state restore assigns through __setattr__.
        return (self.__class__, self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())


_tuple_new = tuple.__new__


class Quaternion(namedtuple("Quaternion", "w x y z", defaults=(0.0,) * 4)):
    """w + x*i + y*j + z*k; immutable, compared and hashed by components."""

    __slots__ = ()
    # numpy scalars defer to the reflected operations below rather than
    # read the parts as an array: np.float64(2.0) * q is a Quaternion.
    __array_ufunc__ = None

    @classmethod
    def real(cls, value: float) -> "Quaternion":
        return cls(float(value), 0.0, 0.0, 0.0)

    @classmethod
    def from_list(cls, parts) -> "Quaternion":
        w, x, y, z = (float(p) for p in parts)
        return cls(w, x, y, z)

    def as_list(self) -> list[float]:
        return list(self)

    # -- the Record contract, on a tuple ------------------------------------

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return False if isinstance(other, tuple) else NotImplemented
        return tuple.__eq__(self, other)

    __ne__ = object.__ne__  # the inverse of __eq__, not tuple's

    __hash__ = tuple.__hash__

    # -- ring structure -------------------------------------------------

    def __add__(self, other):
        if other.__class__ is not Quaternion:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return _tuple_new(Quaternion, (self.w + other.w, self.x + other.x,
                                       self.y + other.y, self.z + other.z))

    def __radd__(self, other):
        if isinstance(other, tuple):  # else tuple's + would concatenate
            raise TypeError("a Quaternion does not add to a plain tuple")
        return self.__add__(other)

    def __sub__(self, other):
        if other.__class__ is not Quaternion:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return _tuple_new(Quaternion, (self.w - other.w, self.x - other.x,
                                       self.y - other.y, self.z - other.z))

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self) -> "Quaternion":
        return _tuple_new(Quaternion, (-self.w, -self.x, -self.y, -self.z))

    def __mul__(self, other):
        if other.__class__ is not Quaternion:
            if isinstance(other, (int, float)):
                return _tuple_new(Quaternion, (self.w * other, self.x * other,
                                               self.y * other, self.z * other))
            if not isinstance(other, Quaternion):
                return NotImplemented
        return _tuple_new(Quaternion, _qmul(self, other))

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return _tuple_new(Quaternion, (self.w * other, self.x * other,
                                           self.y * other, self.z * other))
        return NotImplemented

    def __truediv__(self, other):
        # Division is only offered by reals; q / p is ambiguous, use
        # q * p.inverse() or p.inverse() * q explicitly.
        if isinstance(other, (int, float)):
            return self * (1.0 / other)
        return NotImplemented

    # -- involution and size ---------------------------------------------

    def conjugate(self) -> "Quaternion":
        return _tuple_new(Quaternion, (self.w, -self.x, -self.y, -self.z))

    def norm_sq(self) -> float:
        return _norm_sq(self)

    def norm(self) -> float:
        return math.sqrt(_norm_sq(self))

    __abs__ = norm

    def inverse(self) -> "Quaternion":
        return _tuple_new(Quaternion, _inverse(self))

    def normalized(self) -> "Quaternion":
        n = self.norm()
        if n == 0.0:
            raise ZeroDivisionError("cannot normalize the zero quaternion")
        return self * (1.0 / n)

    # -- real/imaginary split ---------------------------------------------

    def imag(self) -> "Quaternion":
        return _tuple_new(Quaternion, (0.0, self.x, self.y, self.z))

    def imag_norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def dot(self, other: "Quaternion") -> float:
        return (self.w * other.w + self.x * other.x
                + self.y * other.y + self.z * other.z)


# -- the algebra on (w, x, y, z) part tuples -------------------------------
# The one body of each formula: Quaternion's *, norm_sq and inverse call
# these on the Quaternion itself, as do the part-tuple kernels of the other
# modules on slices of a matrix's parts.  Its +, -, negation, real scaling
# and conjugate, one operation per part, keep their own bodies: the
# Quaternion-form references of the kernels' bit tests.


def _qmul(p: tuple, q: tuple) -> tuple:
    """The Hamilton product p * q."""
    a, b, c, d = p
    e, f, g, h = q
    return (a * e - b * f - c * g - d * h,
            a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f,
            a * h + b * g - c * f + d * e)


def _conj(p: tuple) -> tuple:
    """Quaternion.conjugate on a part tuple."""
    return p[0], -p[1], -p[2], -p[3]


def _neg(p: tuple) -> tuple:
    return -p[0], -p[1], -p[2], -p[3]


def _add(p: tuple, q: tuple) -> tuple:
    return p[0] + q[0], p[1] + q[1], p[2] + q[2], p[3] + q[3]


def _sub(p: tuple, q: tuple) -> tuple:
    return p[0] - q[0], p[1] - q[1], p[2] - q[2], p[3] - q[3]


def _scaled(p: tuple, s: float) -> tuple:
    """p * s for a real s."""
    return p[0] * s, p[1] * s, p[2] * s, p[3] * s


def _norm_sq(p: tuple) -> float:
    w, x, y, z = p
    return w * w + x * x + y * y + z * z


def _norm(p: tuple) -> float:
    return math.sqrt(_norm_sq(p))


def _inverse(p: tuple) -> tuple:
    n2 = _norm_sq(p)
    if n2 == 0.0:
        raise ZeroDivisionError("zero quaternion has no inverse")
    return p[0] / n2, -p[1] / n2, -p[2] / n2, -p[3] / n2


def _coerce(value):
    if isinstance(value, Quaternion):
        return value
    if isinstance(value, (int, float)):
        return _tuple_new(Quaternion, (float(value), 0.0, 0.0, 0.0))
    return NotImplemented


ZERO = Quaternion()
ONE = Quaternion(1.0)
QI = Quaternion(0.0, 1.0)
QJ = Quaternion(0.0, 0.0, 1.0)
QK = Quaternion(0.0, 0.0, 0.0, 1.0)


def is_similar(p: Quaternion, q: Quaternion, tol: float = SIMILARITY_TOL) -> bool:
    """Whether p and q share a similarity class (same real part and modulus)."""
    return abs(p.w - q.w) <= tol and abs(p.norm() - q.norm()) <= tol


def solve_similarity(s: Quaternion, u: Quaternion,
                     tol: float = SIMILARITY_TOL) -> Quaternion:
    """Unit x with s*x == x*u, given that s and u are similar.

    With I = Im(s)/|Im(s)| and J = Im(u)/|Im(u)| the quaternion 1 - I*J
    intertwines the two imaginary directions; when it degenerates (J == -I)
    any unit imaginary orthogonal to I works, and the first usable candidate
    from the fixed order (i, j, k) keeps the choice deterministic.
    """
    if not is_similar(s, u, tol):
        raise NotSimilarError(f"{s} and {u} are not similar within {tol}")
    beta = s.imag_norm()
    if beta <= tol:
        return ONE
    beta_u = u.imag_norm()
    if beta_u == 0.0:
        raise NotSimilarError(f"{u} is real but {s} is not")
    direction_s = s.imag() * (1.0 / beta)
    direction_u = u.imag() * (1.0 / beta_u)
    x = ONE - direction_s * direction_u
    n = x.norm()
    if n > TURN_TOL:
        return x * (1.0 / n)
    for candidate in (QI, QJ, QK):
        overlap = candidate.dot(direction_s)
        residue = candidate - direction_s * overlap
        n = residue.norm()
        if n > 0.5:
            return residue * (1.0 / n)
    raise NotSimilarError("no orthogonal direction found")  # unreachable
