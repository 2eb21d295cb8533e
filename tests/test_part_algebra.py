"""The part-tuple algebra: each quaternion formula that sums products has
one body, in `quatu11.quaternion`, and every other site calls it.  A sum or
difference of exactly four products (a part of a Hamilton product, a
squared norm) is written out only in the functions of `UNROLLED`, each for
the reason given there."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "quatu11"

_LEFT_SPECTRUM = "left-spectrum trio: folding it cost the solve workload 6%"
UNROLLED = {
    "quaternion._qmul": "the one body of the Hamilton product",
    "quaternion._norm_sq": "the one body of |q|^2",
    "quaternion.Quaternion.dot": "the one body of the Euclidean inner product",
    "mat2h._matmul": "per-element kernel: every workload runs it per element",
    "mat2h._frobenius": "per-element kernel: every workload runs it per element",
    "group._residual": "per-element kernel: folding its entry norms and "
                       "cross term made membership_residual 30% slower",
    "spectra.left_eigenvalues": _LEFT_SPECTRUM,
    "spectra._quadratic_roots": _LEFT_SPECTRUM,
    "spectra._quad_residual": _LEFT_SPECTRUM,
}


def _is_op(node, ops) -> bool:
    return isinstance(node, ast.BinOp) and isinstance(node.op, ops)


def _terms(node) -> list:
    """The operands of the chain of + and - that node heads."""
    if _is_op(node, (ast.Add, ast.Sub)):
        return _terms(node.left) + _terms(node.right)
    return [node]


def _is_four_product_sum(node) -> bool:
    terms = _terms(node)
    return _is_op(node, (ast.Add, ast.Sub)) and len(terms) == 4 \
        and all(_is_op(t, ast.Mult) for t in terms)


def _four_product_sums(node, scope: str) -> list:
    """(qualified name of the enclosing function, line) of each sum."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            found += _four_product_sums(child, f"{scope}.{child.name}")
            continue
        if _is_four_product_sum(child):
            found.append((scope, child.lineno))
        found += _four_product_sums(child, scope)
    return found


def test_four_product_sums_only_in_the_unrolled_kernels():
    found = [site for path in sorted(SRC.glob("*.py"))
             for site in _four_product_sums(ast.parse(path.read_text()),
                                            path.stem)]
    assert [f"{name}:{line}" for name, line in found
            if name not in UNROLLED] == []
    # and no row outlives its unrolled sum
    assert {name for name, _line in found} == set(UNROLLED)
