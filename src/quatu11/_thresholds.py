"""Every numerical threshold of quatu11, each defined once; imports nothing.

A row is NAME = value, then its scale and the decision it makes.  Scales:
absolute; entry, x (1 + ||T||_F) (moebius._entry_eps, or ||chi M||_F in
is_singular); relative, x (1 + |x|); size, x the size of the terms.
"""

MEMBERSHIP_TOL = 1e-9  # absolute: validate accepts a membership residual
SIMILARITY_TOL = 1e-9  # absolute: is_similar on Re q and |q|
SINGULAR_TOL = 1e-12  # entry (chi): is_singular on sigma_min of chi(M)
EPS_CLASS = 1e-10  # absolute on a0 - d0, d0^2 - 1, delta; entry on b, c
POLE_TOL = 1e-14  # absolute: apply's denominator |c z + d| vanished
BALL_SLACK = 1e-12  # absolute: apply's image |g(z)| left the unit ball
SPECTRUM_TOL = 1e-7  # absolute: routes agree; entry in verify_s_point
COLLAPSE_TOL = 1e-10  # absolute: from_pairs merges a pair into a sphere
DOUBLE_ROOT_TOL = 1e-13  # size: a root discriminant is a double root's 0
QUADRATIC_RESIDUAL_TOL = 1e-9  # absolute: a left candidate solves its q^2
RADICAND_FLOOR = -1e-9  # absolute: a radicand above is clamped, below refused
CLAIM_TOL = 1e-6  # absolute: Case-3 claim residual and membership of X
UNIT_SNAP = 1e-12  # absolute: a unit point's radicand snaps to 0
CLAIM_MARGIN = 1e-12  # absolute: Claims A and B, |ratio|^2 clear of 1
REAL_COEFF_TOL = 1e-10  # absolute: |Im B| and |Im C| take the real branch
SPHERE_DISC_FLOOR = -1e-12  # absolute: B0^2 - 4 C0 below gives a sphere
POINT_MERGE_TOL = 1e-8  # absolute: a left eigenvalue repeats a kept one
ORACLE_MERGE_TOL = 1e-8  # relative: chi projections merge into one sphere
TURN_TOL = 1e-8  # absolute: 1 - I J turns s onto u in solve_similarity
ROW_FLOOR = 1e-6  # absolute: a sampler normal row this short is redrawn
KAPPA1_FLOOR = 1e-3  # absolute: a CompoundParabolic draw needs kappa1 above
