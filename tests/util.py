"""Shared helpers: random state generation, purity and independent geometry oracles.

The Cayley-Menger measure here is deliberately a different formula from
the production path, determinants of square frame systems, so the two
can cross-check each other.
"""

from __future__ import annotations

import json
from math import factorial

import numpy as np

from blochsim import Barycentric, DensityMatrix, Ket, ket_to_density, MeasurementBasis


def random_ket(rng: np.random.Generator, n: int) -> Ket:
    amps = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return Ket(amps / np.linalg.norm(amps))


def random_density(rng: np.random.Generator, n: int) -> DensityMatrix:
    """Convex mixture of <= n random ket projectors with Dirichlet weights."""
    k = int(rng.integers(1, n + 1))
    weights = rng.exponential(size=k)
    weights /= weights.sum()
    m = np.zeros((n, n), dtype=np.complex128)
    for w in weights:
        a = random_ket(rng, n).amplitudes
        m += w * np.outer(a, a.conj())
    return DensityMatrix(m)


def random_basis(rng: np.random.Generator, n: int) -> MeasurementBasis:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(z)
    return MeasurementBasis(q.T)


def random_interior_barycentric(rng: np.random.Generator, n: int, margin: float = 0.02) -> Barycentric:
    """A point of the open simplex with every weight >= margin."""
    w = rng.exponential(size=n)
    w /= w.sum()
    w = (1 - n * margin) * w + margin
    return Barycentric(w)


def purity(d: DensityMatrix) -> float:
    """Tr(D^2), in [1/N, 1]; equals (1 + (N-1) ||r||^2) / N."""
    return float(np.einsum("ij,ji->", d.entries, d.entries).real)


def cm_measure(vertices: np.ndarray) -> float:
    """Simplex measure via the Cayley-Menger determinant (distances only)."""
    v = np.asarray(vertices, dtype=np.float64)
    m = v.shape[0]
    k = m - 1
    b = np.ones((m + 1, m + 1))
    b[0, 0] = 0.0
    for i in range(m):
        for j in range(m):
            b[1 + i, 1 + j] = np.sum((v[i] - v[j]) ** 2)
    det = float(np.linalg.det(b))
    vol_sq = (-1) ** (k + 1) * det / (2**k * factorial(k) ** 2)
    return float(np.sqrt(max(vol_sq, 0.0)))


def projector_mixture(basis: MeasurementBasis, weights) -> DensityMatrix:
    """sum_i w_i |a_i><a_i| built directly from the basis kets."""
    kets = basis.kets
    m = np.einsum("j,ji,jk->ik", np.asarray(weights, dtype=np.float64), kets, kets.conj())
    return DensityMatrix(m)


def standard_state_3() -> DensityMatrix:
    """The recurring 3-outcome test state with Born weights (0.5, 0.3, 0.2)."""
    return ket_to_density(Ket(np.sqrt([0.5, 0.3, 0.2])))


def config_with_entry(field: str, entry) -> str:
    """A dim-2 config text with ``entry`` as the first real part of the pairs of ``field``."""
    cfg = {"dim": 2, "state": {"ket": [[1, 0], [0, 0]]}}
    if field == "state.ket":
        cfg["state"] = {"ket": [[entry, 0], [0, 0]]}
    elif field == "state.density":
        cfg["state"] = {"density": [[[entry, 0], [0, 0]], [[0, 0], [0, 0]]]}
    else:
        cfg["basis"] = [[[entry, 0], [0, 0]], [[0, 0], [1, 0]]]
    return json.dumps(cfg)
