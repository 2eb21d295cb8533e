"""Exception types shared across the package."""


class QuatU11Error(Exception):
    """Base class for every error raised by this package."""


class NotSimilarError(QuatU11Error):
    """Two quaternions do not lie in the same similarity class."""


class MembershipError(QuatU11Error):
    """A matrix fails the group membership conditions."""


class MembershipDriftError(QuatU11Error):
    """A computed product drifted too far from the group."""


class HintExhaustedError(QuatU11Error):
    """Rejection sampling ran out of attempts: with a class hint, no member
    of that class was found; without one, no candidate was in the group
    within the membership tolerance."""


class NotApplicableError(QuatU11Error):
    """The requested quantity is undefined for this input (CLI exit 2)."""


class NoRootFoundError(QuatU11Error):
    """Root finding produced no candidate that survived the residual filter."""


class PoleError(NotApplicableError):
    """The Moebius denominator vanished at the requested point."""


class BallViolationError(QuatU11Error):
    """A Moebius image escaped the closed unit ball beyond roundoff."""


class NotEllipticError(NotApplicableError):
    """Diagonalization over the unit spectrum requires an elliptic element."""


class CaseMismatchError(NotApplicableError):
    """Input does not satisfy the preconditions of its diagonalization case."""


class ClaimViolationError(QuatU11Error):
    """An internal algebraic identity failed beyond tolerance."""
