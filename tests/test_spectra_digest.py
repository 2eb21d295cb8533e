"""The bits of every assembled right spectrum and invariant report, pinned by
a committed digest.

`tests/golden/spectra_digest.json` holds, per section, the sha256 of each
run of 64 rows (`probes.chunk_digests`).  A row is the float.hex of every
output part, or the type and message of the exception raised
(`probes.hex_row`, `probes.error_row`).  The sections are:

- `from_pairs`: `RightSpectrum.from_pairs` on an edge pool of 0 to 4 pairs,
  with ties inside and at COLLAPSE_TOL, signed zeros and infinities (no
  NaN), under the default tolerance and the 1e-9 that test_acceptance
  passes;
- `unified`, `casewise`, `oracle` and `report`: the three right-spectrum
  routes and `report` on the class and generic pools, their negations and
  the signed-zero inputs.

The oracle's eigenvalues come from LAPACK, whose last bits follow the
platform, so its rows feed it fixed chi eigenvalues: those of the unified
spheres, seeded-perturbed inside and outside its clustering tolerance and
shuffled.  They pin the clustering and the assembly, not LAPACK; the
modulus of each eigenvalue is still the C library's hypot, as `abs` of a
complex is.

The digest was written once by

    PYTHONPATH=src python tests/test_spectra_digest.py

and should only be rewritten that way for a deliberate output change, with
the chunks that moved named in CHANGES.md.
"""

import itertools
import json
import math
from pathlib import Path
from unittest import mock

import numpy as np

from quatu11 import (RightSpectrum, report, right_spectrum,
                     right_spectrum_casewise, right_spectrum_oracle, validate)

import probes
from probes import chunk_digests, error_row, hex_row

DIGEST = Path(__file__).resolve().parent / "golden" / "spectra_digest.json"
INF = math.inf

# Two values within COLLAPSE_TOL of 0.0 and of 1.0, and the signed zeros.
EDGE_VALUES = (-INF, -1.0, -0.0, 0.0, 5e-11, 0.5, 1.0, 1.0 + 5e-11, INF)
# 1e-10 sits exactly at COLLAPSE_TOL from either zero.
TIE_VALUES = (-0.0, 0.0, 1e-10, 1.0)


def edge_pairs() -> list:
    """(pairs, keyword arguments) rows: every 1- and 2-pair list over
    EDGE_VALUES, every 3-pair list over TIE_VALUES, and 1,000 4-pair lists
    drawn from default_rng(250) (per list, choice(EDGE_VALUES, 8), then
    integers(0, 30, 8) steps of 4e-11 added to the finite ones), each of
    those under the default tolerance and under 1e-9."""
    rows = [([], {})]
    for n, values in ((1, EDGE_VALUES), (2, EDGE_VALUES), (3, TIE_VALUES)):
        for flat in itertools.product(values, repeat=2 * n):
            rows.append(([flat[k:k + 2] for k in range(0, 2 * n, 2)], {}))
    rng = np.random.default_rng(250)
    for _ in range(1000):
        flat = [v + 4e-11 * s if s and math.isfinite(v) else v
                for v, s in zip(rng.choice(EDGE_VALUES, 8).tolist(),
                                rng.integers(0, 30, 8).tolist())]
        pairs = [tuple(flat[k:k + 2]) for k in range(0, 8, 2)]
        rows += [(pairs, {}), (pairs, {"collapse_tol": 1e-9})]
    return rows


def element_pool() -> list:
    """The class and generic pools, the class pool negated, and the
    signed-zero inputs."""
    pool = [t for members in probes.class_pool().values() for t in members]
    pool += [validate(-1.0 * t.m) for t in pool]
    return pool + probes.generic_pool() + probes.signed_zero_inputs()


def _spectrum_row(route, *args, **kwargs) -> str:
    try:
        spectrum = route(*args, **kwargs)
    except Exception as exc:
        return error_row(exc)
    return hex_row(v for s in spectrum.spheres for v in (s.re, s.modulus))


def _report_row(t) -> str:
    r = report(t)
    return hex_row((r.tr1, r.tr2, r.tr3, r.tr4, r.tr6, r.delta,
                    r.delta_legacy))


def _fixed_eigenvalues(pool) -> list:
    """Four chi eigenvalues per element, re +- i sqrt(mod^2 - re^2) of each
    unified sphere (a single sphere twice).  One default_rng(251); per
    element, choice of a noise scale, standard_normal(8) for the real and
    imaginary noise, then a permutation(4)."""
    rng = np.random.default_rng(251)
    out = []
    for t in pool:
        spheres = right_spectrum(t).spheres
        values = []
        for s in (spheres * 2)[:2]:
            im = math.sqrt(max(s.modulus * s.modulus - s.re * s.re, 0.0))
            values += [complex(s.re, im), complex(s.re, -im)]
        scale = float(rng.choice([0.0, 1e-12, 3e-9, 3e-8]))
        noise = rng.standard_normal(8).tolist()
        values = [v + scale * complex(noise[2 * k], noise[2 * k + 1])
                  for k, v in enumerate(values)]
        out.append(np.array([values[k] for k in rng.permutation(4).tolist()]))
    return out


def digest_sections() -> dict:
    pool = element_pool()
    fixed = iter(_fixed_eigenvalues(pool))
    with mock.patch.object(np.linalg._umath_linalg, "eigvals",
                           lambda _rep, signature: next(fixed)):
        oracle = [_spectrum_row(right_spectrum_oracle, t.m) for t in pool]
    rows = {
        "from_pairs": [_spectrum_row(RightSpectrum.from_pairs, pairs, **kw)
                       for pairs, kw in edge_pairs()],
        "unified": [_spectrum_row(right_spectrum, t) for t in pool],
        "casewise": [_spectrum_row(right_spectrum_casewise, t) for t in pool],
        "oracle": oracle,
        "report": [_report_row(t) for t in pool],
    }
    return {name: chunk_digests(section) for name, section in rows.items()}


def test_assembled_spectra_keep_their_digest():
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
