"""Command-line interface.

Every command reads matrices as JSON documents {"a": [w,x,y,z], ...} (the
path "-" means stdin) and writes JSON to stdout, so commands compose under
pipes.  Exit codes: 0 success; 1 invalid input or a numerical failure; 2
the operation does not apply to the input (the `NotApplicableError`
family).  Output for a fixed invocation is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .diagonalize import diagonalize_elliptic
from .errors import NotApplicableError, QuatU11Error
from .group import (GroupElement, MEMBERSHIP_TOL, membership_residual,
                    random_element, validate)
from .invariants import SINGLE_ELEMENT_CHECKS, IDENTITY_CHECKS, report
from .mat2h import Mat2H, is_finite_real
from .moebius import MoebiusClass, apply, classify, evidence
from .quaternion import Quaternion
from .spectra import (SPECTRUM_TOL, left_eigenvalues, right_spectrum,
                      right_spectrum_casewise, right_spectrum_oracle)

CLASS_NAMES = sorted(cls.value for cls in MoebiusClass)


def _print(doc, pretty: bool) -> None:
    layout = {"indent": 2} if pretty else {"separators": (",", ":")}
    print(json.dumps(doc, sort_keys=True, allow_nan=False, **layout))


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
            or not all(map(is_finite_real, parts)):
        raise ValueError("--point expects a JSON list of four finite numbers")
    return Quaternion.from_list(parts)


def _check_flags(args) -> None:
    # A NaN or infinite tolerance turns every `residual > tol` gate into a
    # pass, and a negative one rejects everything.
    for name in ("tol_membership", "tol_spectrum", "tol_identity"):
        value = getattr(args, name, None)
        if value is not None and not (math.isfinite(value) and value >= 0.0):
            raise ValueError(f"--{name.replace('_', '-')} must be a finite "
                             f"non-negative number, got {value!r}")
    if getattr(args, "seed", 0) < 0:
        raise ValueError(f"--seed must be a non-negative integer, "
                         f"got {args.seed}")
    # parsed here, so a bad point is reported before the matrix is read
    if hasattr(args, "point"):
        args.point = _quaternion_arg(args.point)


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


def invariants_doc(t: GroupElement, args) -> dict:
    residuals = {chk.name: chk.fn(t, t) for chk in SINGLE_ELEMENT_CHECKS}
    return {"invariants": report(t).to_json(),
            "identity_residuals": residuals}


def spectrum_doc(t: GroupElement, args) -> dict:
    if args.kind == "left":
        doc = {"kind": "left", **left_eigenvalues(t.m).to_json()}
        if args.oracle:
            doc["oracle_spheres"] = right_spectrum_oracle(t.m).to_json()
        return doc
    spheres, casewise = right_spectrum(t), right_spectrum_casewise(t)
    doc = {"kind": args.kind, "spheres": spheres.to_json(),
           "spheres_casewise": casewise.to_json()}
    if args.oracle:
        oracle = right_spectrum_oracle(t.m)
        deviation = max(spheres.max_deviation(casewise),
                        spheres.max_deviation(oracle),
                        casewise.max_deviation(oracle))
        doc["oracle_spheres"] = oracle.to_json()
        doc["max_deviation"] = deviation
        doc["agrees"] = deviation <= args.tol_spectrum
    return doc


def classify_doc(t: GroupElement, args) -> dict:
    cls = classify(t)
    return {"class": cls.value, "coarse": cls.coarse, "evidence": evidence(t)}


def apply_doc(t: GroupElement, args) -> dict:
    image = apply(t, args.point)
    return {"point": args.point.as_list(), "image": image.as_list(),
            "image_norm": image.norm()}


def diagonalize_doc(t: GroupElement, args) -> dict:
    return diagonalize_elliptic(t).to_json()


def cmd_element(document, args) -> int:
    """Load and validate the matrix, then print document(element, args)."""
    t = validate(_load_matrix(args.matrix), args.tol_membership)
    _print(document(t, args), args.pretty)
    return 0


def cmd_random(args) -> int:
    element = random_element(args.seed, args.class_hint, args.tol_membership)
    _print(element.m.to_json(), args.pretty)
    return 0


def cmd_check_identities(args) -> int:
    if args.trials < 1 and args.matrix is None:
        raise ValueError(f"--trials must be at least 1 without --matrix, "
                         f"got {args.trials}")
    injected = []
    if args.matrix is not None:
        m = _load_matrix(args.matrix)
        injected.append(GroupElement(m, membership_residual(m)))
    # the injected matrix is trial 0's T, so that T is not drawn
    ts = injected + [random_element([args.seed, idx, 0])
                     for idx in range(len(injected), args.trials)]
    elements = [(t, random_element([args.seed, idx, 1]))
                for idx, t in enumerate(ts)]
    worst_membership = max([0.0] + [t.membership_residual for t in ts])
    rows = [{"identity": "membership", "max_residual": worst_membership,
             "tol": args.tol_membership,
             "pass": worst_membership <= args.tol_membership}]
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quatu11",
        description="Quaternionic U(1,1) matrices: membership, invariants, "
                    "spectra, Moebius classification, diagonalization.")
    sub = parser.add_subparsers(dest="command")

    def add(name, summary, func, matrix=True):
        p = sub.add_parser(name, help=summary)
        if matrix:
            p.add_argument("matrix", help="matrix JSON path, or - for stdin")
        p.add_argument("--tol-membership", type=float, default=MEMBERSHIP_TOL)
        p.add_argument("--pretty", action="store_true")
        p.set_defaults(func=func)
        return p

    def element(document):
        return functools.partial(cmd_element, document)

    add("validate", "membership test with residuals", cmd_validate)
    add("invariants", "trace/delta report", element(invariants_doc))
    p = add("spectrum", "right, S-, or left spectrum", element(spectrum_doc))
    p.add_argument("--kind", choices=("right", "s", "left"), default="right")
    p.add_argument("--oracle", action="store_true",
                   help="append chi-eigenvalue oracle data")
    p.add_argument("--tol-spectrum", type=float, default=SPECTRUM_TOL)
    add("classify", "six-way Moebius classification", element(classify_doc))
    p = add("apply", "evaluate the ball action at a point", element(apply_doc))
    p.add_argument("--point", required=True,
                   help="quaternion as a JSON list [w,x,y,z], |point| < 1")
    add("diagonalize", "conjugate an elliptic element to diagonal form",
        element(diagonalize_doc))
    p = add("random", "seeded random group element", cmd_random, matrix=False)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--class", dest="class_hint", choices=CLASS_NAMES,
                   default=None)
    p = add("check-identities",
            "run the invariant identities on random elements",
            cmd_check_identities, matrix=False)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--matrix", default=None,
                   help="optional matrix JSON injected as trial 0")
    p.add_argument("--tol-identity", type=float, default=None,
                   help="override every identity tolerance")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return 1
    try:
        _check_flags(args)
        return args.func(args)
    except NotApplicableError as exc:
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
