"""The value surface of `Mat2H`, pinned by a committed digest.

`tests/golden/mat2h_digest.json` holds, per section, the sha256 of each run
of 64 rows (`probes.chunk_digests`), one row per matrix of the pool: the
class and generic pools, the signed-zero inputs and a few matrices with int
parts.  The sections are what a caller sees of a matrix without reading
its storage:

- `repr`, `hex_parts` and `to_json` (as json.dumps, which tells 1 from
  1.0);
- `hash`: whether a copy hashes equal; `pickle`: whether the matrix comes
  back equal and with the same repr;
- `add`, `sub`, `scale`, `left_qi` and `adjoint`: `hex_parts` of m + m,
  m - m, 2.5 * m, QI * m and m.adjoint();
- `tr` and `frobenius` as float.hex.

The digest was written once by

    PYTHONPATH=src python tests/test_mat2h_digest.py

and should only be rewritten that way for a deliberate output change, with
the chunks that moved named in CHANGES.md.
"""

import copy
import itertools
import json
import pickle
from pathlib import Path

from quatu11 import J, Mat2H, QI, QJ, QK, Quaternion

import probes
from probes import chunk_digests, hex_parts

DIGEST = Path(__file__).resolve().parent / "golden" / "mat2h_digest.json"


def int_part_matrices() -> list:
    """Matrices whose Quaternion entries keep int parts, beside reals that
    the constructor coerces to float."""
    return [
        Mat2H(Quaternion(1), 0, 0, 2),
        Mat2H(Quaternion(1, 0, 2, 0), Quaternion(0, -1, 0, 0), 3,
              Quaternion(0, 0, 0, -2)),
        Mat2H(Quaternion(0, 0, 0, 0), Quaternion(-3, 1, -1, 5), QJ, -1),
        Mat2H(1, 0, 0, 1),
        Mat2H.identity(),
        Mat2H.diag(QI, 2),
        Mat2H.diag(Quaternion(2, 1), QK),
        J,
    ]


def matrix_pool() -> list:
    pool = [t.m for members in probes.class_pool().values() for t in members]
    pool += [t.m for t in probes.generic_pool()]
    pool += [t.m for t in probes.signed_zero_inputs()]
    return pool + int_part_matrices()


def _pickle_row(m) -> str:
    loaded = pickle.loads(pickle.dumps(m))
    return str(loaded == m and repr(loaded) == repr(m))


def digest_sections() -> dict:
    pool = matrix_pool()
    rows = {
        "repr": [repr(m) for m in pool],
        "hex_parts": [" ".join(hex_parts(m)) for m in pool],
        "to_json": [json.dumps(m.to_json()) for m in pool],
        "hash": [str(hash(m) == hash(copy.copy(m))) for m in pool],
        "pickle": [_pickle_row(m) for m in pool],
        "add": [" ".join(hex_parts(m + m)) for m in pool],
        "sub": [" ".join(hex_parts(m - m)) for m in pool],
        "scale": [" ".join(hex_parts(2.5 * m)) for m in pool],
        "left_qi": [" ".join(hex_parts(QI * m)) for m in pool],
        "adjoint": [" ".join(hex_parts(m.adjoint())) for m in pool],
        "tr": [float(m.tr()).hex() for m in pool],
        "frobenius": [m.frobenius().hex() for m in pool],
    }
    return {name: chunk_digests(section) for name, section in rows.items()}


def test_mat2h_keeps_its_value_surface():
    want = json.loads(DIGEST.read_text(encoding="utf-8"))
    got = digest_sections()
    assert list(got) == list(want)
    moved = {name: [k for k, (g, w) in enumerate(
                 itertools.zip_longest(got[name], want[name])) if g != w]
             for name in want}
    assert not any(moved.values()), f"chunks that moved: {moved}"


if __name__ == "__main__":
    DIGEST.write_text(json.dumps(digest_sections(), indent=1) + "\n",
                      encoding="utf-8")
