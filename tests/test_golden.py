"""Byte-identity of CLI reports for fixed configs and seeds.

Each case runs ``cli.main`` on a fixed config and flags and compares the
SHA-256 of the report with a digest recorded before the sampler, collapse
and CLI code paths were consolidated. A changed digest means the random
stream, the classification, the collapse or the serializer changed; such
a change must be declared, and the digests re-recorded with it.
"""

import hashlib
import json

import numpy as np
import pytest

from blochsim.cli import main

_R2 = float(np.sqrt(0.5))


def _mixed_8() -> list:
    """A full-rank N=8 density matrix with two complex coherences, as [re, im] pairs."""
    d = np.diag([0.3, 0.2, 0.15, 0.1, 0.1, 0.08, 0.05, 0.02]).astype(complex)
    d[0, 1], d[1, 0] = 0.05 + 0.02j, 0.05 - 0.02j
    d[3, 6] = d[6, 3] = 0.01
    return [[[z.real, z.imag] for z in row] for row in d]


_THREE = {
    "dim": 3,
    "state": {"ket": [[_R2, 0], [float(np.sqrt(0.3)), 0], [0, float(np.sqrt(0.2))]]},
    "n_trials": 20000,
    "seed": 7,
}

CASES = {
    "plain-json": (_THREE, []),
    "csv": (
        {"dim": 2, "state": {"ket": [[_R2, 0], [0, _R2]]}, "n_trials": 50000, "seed": 42},
        ["--format", "csv"],
    ),
    "partition": (_THREE, ["--partition", "1|2,3", "--seed", "11"]),
    "geometry-trace": (
        {**_THREE, "partition": [[1, 3], [2]], "basis": [
            [[_R2, 0], [_R2, 0], [0, 0]],
            [[_R2, 0], [-_R2, 0], [0, 0]],
            [[0, 0], [0, 0], [0, 1]],
        ]},
        ["--dump-geometry", "--trace"],
    ),
    "oracle": (_THREE, ["--oracle-check", "--trials", "3000"]),
    "mixed-n8": (
        {"dim": 8, "state": {"density": _mixed_8()}, "n_trials": 100000, "seed": 5, "stream": 2,
         "partition": [[1, 2], [3, 4, 5], [6, 7, 8]]},
        ["--trace"],
    ),
}

#: SHA-256 of each case's report, recorded before the consolidation.
DIGESTS = {
    "csv": "ba1b6acd7ee8ecb86b2af4b2ff7589dff4435876b5659bfee2561e938f08d4d0",
    "geometry-trace": "9aebc94c3eb89d221b86330a18793cd90a3e5cfe0a448db007b00890ad2ff978",
    "mixed-n8": "a38c5e86df4e0889da56732647e9449d80860b053c6a5595834be173855b245f",
    "oracle": "2b51dd8c43761a36c8afab490df7a1646430ba25985cdf2335c15085fd1e5a87",
    "partition": "0bb76fb89a13c4975db3980f2c048678c4499169817248291733a6ecfcf3e759",
    "plain-json": "37832d5aee0189c22f068386b5a5f095fda58809c8b2bf75a91851f8796a60dc",
}


def report_digest(tmp_path, name: str) -> str:
    config, flags = CASES[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(config))
    out = tmp_path / f"{name}.out"
    assert main(["--config", str(path), "--out", str(out), *flags]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_unchanged(tmp_path, name):
    assert report_digest(tmp_path, name) == DIGESTS[name]
