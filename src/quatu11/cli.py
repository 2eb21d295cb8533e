"""Command-line interface.

Every command reads matrices as JSON documents {"a": [w,x,y,z], ...} (the
path "-" means stdin) and writes JSON to stdout, so commands compose under
pipes.  Exit codes: 0 success, 1 validation or parse failure, 2 requested
operation not applicable to the input.  Output for a fixed invocation is
byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .diagonalize import diagonalize_elliptic
from .errors import (CaseMismatchError, NotApplicableError, NotEllipticError,
                     PoleError, QuatU11Error)
from .group import (GroupElement, MEMBERSHIP_TOL, membership_residual,
                    random_element, validate)
from .invariants import SINGLE_ELEMENT_CHECKS, IDENTITY_CHECKS, report
from .mat2h import Mat2H
from .moebius import MoebiusClass, apply, classify, evidence
from .quaternion import Quaternion
from .spectra import (SPECTRUM_TOL, left_eigenvalues, right_spectrum,
                      right_spectrum_casewise, right_spectrum_oracle)

CLASS_NAMES = sorted(cls.value for cls in MoebiusClass)


def _print(doc, pretty: bool) -> None:
    if pretty:
        text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)
    else:
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"),
                          allow_nan=False)
    print(text)


def _load_matrix(path: str) -> Mat2H:
    if path == "-":
        raw = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as handle:
            raw = handle.read()
    return Mat2H.from_json(json.loads(raw))


def _quaternion_arg(text: str) -> Quaternion:
    parts = json.loads(text)
    if not isinstance(parts, list) or len(parts) != 4 \
            or not all(isinstance(p, (int, float)) and not isinstance(p, bool)
                       and math.isfinite(p) for p in parts):
        raise ValueError("--point expects a JSON list of four finite numbers")
    return Quaternion.from_list(parts)


def _check_tolerances(args) -> None:
    # A NaN or infinite tolerance turns every `residual > tol` gate into a
    # pass, and a negative one rejects everything.
    for name in ("tol_membership", "tol_spectrum", "tol_identity"):
        value = getattr(args, name, None)
        if value is not None and not (math.isfinite(value) and value >= 0.0):
            raise ValueError(f"--{name.replace('_', '-')} must be a finite "
                             f"non-negative number, got {value!r}")


def cmd_validate(args) -> int:
    m = _load_matrix(args.matrix)
    residual = membership_residual(m)
    if not math.isfinite(residual):
        raise ValueError(f"membership residual is not finite ({residual}); "
                         "the components are too large for float arithmetic")
    member = residual <= args.tol_membership
    _print({"member": member, "membership_residual": residual,
            "tol": args.tol_membership}, args.pretty)
    return 0 if member else 1


def cmd_invariants(args) -> int:
    t = validate(_load_matrix(args.matrix), args.tol_membership)
    residuals = {chk.name: chk.fn(t, t) for chk in SINGLE_ELEMENT_CHECKS}
    _print({"invariants": report(t).to_json(),
            "identity_residuals": residuals}, args.pretty)
    return 0


def cmd_spectrum(args) -> int:
    t = validate(_load_matrix(args.matrix), args.tol_membership)
    if args.kind == "left":
        doc = {"kind": "left", **left_eigenvalues(t.m).to_json()}
        if args.oracle:
            doc["oracle_spheres"] = right_spectrum_oracle(t.m).to_json()
    else:
        spheres = right_spectrum(t)
        doc = {"kind": args.kind, "spheres": spheres.to_json(),
               "spheres_casewise": right_spectrum_casewise(t).to_json()}
        if args.oracle:
            oracle = right_spectrum_oracle(t.m)
            deviation = spheres.max_deviation(oracle)
            doc["oracle_spheres"] = oracle.to_json()
            doc["max_deviation"] = deviation
            doc["agrees"] = deviation <= args.tol_spectrum
    _print(doc, args.pretty)
    return 0


def cmd_classify(args) -> int:
    t = validate(_load_matrix(args.matrix), args.tol_membership)
    cls = classify(t)
    _print({"class": cls.value, "coarse": cls.coarse,
            "evidence": evidence(t)}, args.pretty)
    return 0


def cmd_apply(args) -> int:
    point = _quaternion_arg(args.point)
    t = validate(_load_matrix(args.matrix), args.tol_membership)
    image = apply(t, point)
    _print({"point": point.as_list(), "image": image.as_list(),
            "image_norm": image.norm()}, args.pretty)
    return 0


def cmd_diagonalize(args) -> int:
    t = validate(_load_matrix(args.matrix), args.tol_membership)
    result = diagonalize_elliptic(t)
    _print(result.to_json(), args.pretty)
    return 0


def cmd_random(args) -> int:
    element = random_element(args.seed, args.class_hint, args.tol_membership)
    _print(element.m.to_json(), args.pretty)
    return 0


def cmd_check_identities(args) -> int:
    if args.trials < 1 and args.matrix is None:
        raise ValueError(f"--trials must be at least 1 without --matrix, "
                         f"got {args.trials}")
    rows = []
    elements: list[tuple[GroupElement, GroupElement]] = []
    for idx in range(args.trials):
        t = random_element([args.seed, idx, 0])
        g = random_element([args.seed, idx, 1])
        elements.append((t, g))
    worst_membership = 0.0
    if args.matrix is not None:
        m = _load_matrix(args.matrix)
        injected = GroupElement(m, membership_residual(m))
        g = elements[0][1] if elements else random_element([args.seed, 0, 1])
        if elements:
            elements[0] = (injected, g)
        else:
            elements.append((injected, g))
    for t, _g in elements:
        worst_membership = max(worst_membership, t.membership_residual)
    rows.append({"identity": "membership", "max_residual": worst_membership,
                 "tol": args.tol_membership,
                 "pass": worst_membership <= args.tol_membership})
    for check in IDENTITY_CHECKS:
        tol = args.tol_identity if args.tol_identity is not None else check.tol
        worst = max(check.fn(t, g) for t, g in elements)
        rows.append({"identity": check.name, "max_residual": worst,
                     "tol": tol, "pass": worst <= tol})
    ok = all(row["pass"] for row in rows)
    if args.pretty:
        width = max(len(row["identity"]) for row in rows)
        for row in rows:
            print(f"{row['identity']:<{width}}  max {row['max_residual']:.3e}"
                  f"  tol {row['tol']:.1e}  {'ok' if row['pass'] else 'FAIL'}")
        print(f"{'all passed' if ok else 'FAILED'} "
              f"({len(elements)} elements, seed {args.seed})")
    else:
        _print({"seed": args.seed, "trials": len(elements), "rows": rows,
                "pass": ok}, False)
    return 0 if ok else 1


def _add_common(parser, matrix=True):
    if matrix:
        parser.add_argument("matrix", help="matrix JSON path, or - for stdin")
    parser.add_argument("--tol-membership", type=float, default=MEMBERSHIP_TOL)
    parser.add_argument("--pretty", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quatu11",
        description="Quaternionic U(1,1) matrices: membership, invariants, "
                    "spectra, Moebius classification, diagonalization.")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("validate", help="membership test with residuals")
    _add_common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("invariants", help="trace/delta report")
    _add_common(p)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("spectrum", help="right, S-, or left spectrum")
    _add_common(p)
    p.add_argument("--kind", choices=("right", "s", "left"), default="right")
    p.add_argument("--oracle", action="store_true",
                   help="append chi-eigenvalue oracle data")
    p.add_argument("--tol-spectrum", type=float, default=SPECTRUM_TOL)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("classify", help="six-way Moebius classification")
    _add_common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("apply", help="evaluate the ball action at a point")
    _add_common(p)
    p.add_argument("--point", required=True,
                   help="quaternion as a JSON list [w,x,y,z], |point| < 1")
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("diagonalize", help="conjugate an elliptic element "
                                           "to diagonal form")
    _add_common(p)
    p.set_defaults(func=cmd_diagonalize)

    p = sub.add_parser("random", help="seeded random group element")
    _add_common(p, matrix=False)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--class", dest="class_hint", choices=CLASS_NAMES,
                   default=None)
    p.set_defaults(func=cmd_random)

    p = sub.add_parser("check-identities",
                       help="run the invariant identities on random elements")
    _add_common(p, matrix=False)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--matrix", default=None,
                   help="optional matrix JSON injected as trial 0")
    p.add_argument("--tol-identity", type=float, default=None,
                   help="override every identity tolerance")
    p.set_defaults(func=cmd_check_identities)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return 1
    try:
        _check_tolerances(args)
        return args.func(args)
    except (NotApplicableError, NotEllipticError, PoleError,
            CaseMismatchError) as exc:
        print(f"not applicable: {exc}", file=sys.stderr)
        return 2
    except (QuatU11Error, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        # Finite components can still be too large for float arithmetic.
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
