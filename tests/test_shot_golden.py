"""Bit-identity of single shots for fixed states, bases and seeds.

Each case runs one single-shot entry point (``measure_once``,
``measure_degenerate``, ``run_measurement`` with and without a
partition) at one N on the canonical or a seeded random basis, for a
ket and a mixed state and a few seeds, and compares the SHA-256 of
everything the shots produced with a recorded digest: the outcome, the
post-state entries, the lambda point and the Bloch coordinates of every
trace stage. The CLI goldens reach only ``run_measurement``, through
``--trace``. A changed digest means the random stream, the lambda draw,
the classification, the collapse or the Bloch map changed; such a
change must be declared, and the digests re-recorded with it.
"""

import hashlib

import numpy as np
import pytest

from blochsim import (
    MeasurementBasis,
    RngSeed,
    ket_to_density,
    measure_degenerate,
    measure_once,
    run_measurement,
    sample_lambda,
)
from util import random_basis, random_density, random_ket

SEEDS = (0, 1, 7, 2016)


def _states_and_basis(n: int, basis: str):
    rng = np.random.default_rng(1000 + n)
    states = (ket_to_density(random_ket(rng, n)), random_density(rng, n))
    b = MeasurementBasis.canonical(n) if basis == "canonical" else random_basis(rng, n)
    return states, b


def _partition(n: int) -> list[list[int]]:
    """Even outcomes in one class, odd outcomes in the other."""
    return [list(range(0, n, 2)), list(range(1, n, 2))]


def _int(i: int) -> bytes:
    return int(i).to_bytes(4, "little")


def _shot_bytes(kind: str, d, b, seed: int) -> bytes:
    n = d.dim
    rs = RngSeed(seed, stream=n)
    if kind == "measure_once" or kind == "measure_degenerate":
        rng = rs.generator()
        if kind == "measure_once":
            outcome, post = measure_once(d, b, rng)
        else:
            outcome, post = measure_degenerate(d, b, _partition(n), rng)
        # the lambda the shot drew, and the stream position after it
        lam = sample_lambda(n, rs.generator()).weights
        return _int(outcome) + post.entries.tobytes() + lam.tobytes() + rng.random(2).tobytes()
    partition = _partition(n) if kind == "run_measurement-partition" else None
    trace = run_measurement(d, b, partition=partition, seed=rs)
    parts = [_int(trace.outcome), trace.lambda_point.weights.tobytes()]
    for stage in trace.stages:
        parts += [stage.label.encode(), stage.vector.coords.tobytes(), stage.density.entries.tobytes()]
    return b"".join(parts)


def shot_digest(kind: str, n: int, basis: str) -> str:
    states, b = _states_and_basis(n, basis)
    h = hashlib.sha256()
    for d in states:
        for seed in SEEDS:
            h.update(_shot_bytes(kind, d, b, seed))
    return h.hexdigest()


KINDS = ("measure_once", "measure_degenerate", "run_measurement", "run_measurement-partition")
CASES = [(kind, n, basis) for kind in KINDS for n in (2, 3, 8, 32) for basis in ("canonical", "random")]

#: SHA-256 of each case's shots, recorded before the value objects made
#: one C-ordered copy and ``sample_lambda`` drew its point in one call.
DIGESTS = {
    "measure_once-N2-canonical": "54a14cd5d7c0a972010a106fa8cd91199af9d678a4f43bf97bedc7498896a178",
    "measure_once-N2-random": "832b9e10fc49d1dca290efea0b17dd3e36ef30a099a64ca9ea14f03195209f41",
    "measure_once-N3-canonical": "e72c1a472413ad864c38a9b5b5cd09762eb0becf5977e6fd82d551ab7b75cd0c",
    "measure_once-N3-random": "1f5b59f8892015343ef2e62d4cd2023639b79ebcd123ad54a476d45c7311311a",
    "measure_once-N8-canonical": "c6a6610749cbeb28cecdbc03239546dffcadceef30159f8cda5c90e0302177ea",
    "measure_once-N8-random": "d4958520e58c4d085dda6ace2247eb313bfa3622a480b03300459509dd300841",
    "measure_once-N32-canonical": "dde60fb37052a74ec02548619113bed61b66a363b7f00e48cc1f5d5c5826c424",
    "measure_once-N32-random": "a2828b54b5180a218e82fe19d0c17247734d1e6adc3e1e606562ce5f149bd37c",
    "measure_degenerate-N2-canonical": "491800c9781ee82bd4863f76b47bdf0e76ffd48922bd0393b035717204159467",
    "measure_degenerate-N2-random": "2ce0d5c313b035b7583d2a3ff6127ad0af7f733553a914d95b62a70f171e4c39",
    "measure_degenerate-N3-canonical": "a02417845c2a761c7a031db12eb841754d57d0bdee44bf59d07c1698cf4a3fd6",
    "measure_degenerate-N3-random": "2c29c0445372946641aa9fdd4dc146637a262e9b6eef8c010bf4c6ca34e82cf0",
    "measure_degenerate-N8-canonical": "16a73e5fea92650ec79c83d4af8b66ca7dd3d28162daaf75a0ebdc54d3aee006",
    "measure_degenerate-N8-random": "0a146127ead91760bf919590d246ab09291f299a398b162795809b06217e5557",
    "measure_degenerate-N32-canonical": "0c67fc40b105f940114d4c64e1b2fc68b5fe7dd0d4e56bb6f9ee6682bb78eb67",
    "measure_degenerate-N32-random": "0dcb1fbcacd39cab87ff28fd4968749fe6a24eaa3b86881b4db95bbe8be2d718",
    "run_measurement-N2-canonical": "2494f8841f3d539bea3922df7fa2d41cd549b4e4004eb277e7a04a872c8812e1",
    "run_measurement-N2-random": "af1490c96a9eea48268698b7004f3d66797e917277962bd6b5c69aeaf6b1aa1e",
    "run_measurement-N3-canonical": "642b2744ad5cf6322175f752236b44ad0896a1662abd5b1ce21b25ca40d233bd",
    "run_measurement-N3-random": "1f03c90c0ee4ebeb06f5b680e1ea73dbce68279a72b6c76ef5c60eb232b39893",
    "run_measurement-N8-canonical": "61e0d19815645747dda1a09edada21050ee37530b252118d6dd6d81f81c06772",
    "run_measurement-N8-random": "8023e07a85fb0a581236852b2ca9c328c0df1f0b2122018ba832167214bca20c",
    "run_measurement-N32-canonical": "89119a0db9ae4ae14849204bdbeb6812051ba831e00bf8215c45425e9c14a7f3",
    "run_measurement-N32-random": "ea1cc137619aa0890fc90db6f60a5bb4f929133b2d740beded5717c71a4a7013",
    "run_measurement-partition-N2-canonical": "a09eb27c7b9d16fda9f5e456ca59c983f3752e60aa12904af378455b11bce9b5",
    "run_measurement-partition-N2-random": "de686cb74f51ac8bfc8cc5750c82d62d22c39ec655dd0b85b5dd5b461e88d903",
    "run_measurement-partition-N3-canonical": "299bdc6abb6d874a9a99c00adef568026c81dce460beff80001be4175c2a84a4",
    "run_measurement-partition-N3-random": "bd4a849a01110fa7a971cdd5bc3292975dcae18b5ab7196ed06f9ec1974dd21f",
    "run_measurement-partition-N8-canonical": "cc2f2d3950bea03101dff644bc0b0a68b932920ffa9f833bd197f12a3f59cb35",
    "run_measurement-partition-N8-random": "4ab33b3ccadd008e83bf56647137c2e8bb25bdfd9c8ddc7fe487ab7cca1af92d",
    "run_measurement-partition-N32-canonical": "72a2c924f57a44c4db746179225bd5a13e81ab0df496e6518cd427daa30de5e2",
    "run_measurement-partition-N32-random": "0967349011657ca3624f609da944d4a4953a6212f2436b67db3a4a6918c1aa18",
}


@pytest.mark.parametrize("kind,n,basis", CASES, ids=[f"{k}-N{n}-{b}" for k, n, b in CASES])
def test_shot_bytes_unchanged(kind, n, basis):
    assert shot_digest(kind, n, basis) == DIGESTS[f"{kind}-N{n}-{basis}"]
