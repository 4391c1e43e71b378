"""Bidirectional map between density matrices and generalized Bloch vectors.

An N-dimensional state D corresponds to a unique real vector r of length
N^2 - 1 through

    D(r) = (1/N) (I + c_N sum_i r_i L_i),      c_N = sqrt(N(N-1)/2),

where the L_i are the SU(N) generators of :mod:`blochsim.generators`.
Pure states sit on the unit sphere ||r|| = 1; mixed states lie inside.
For N >= 3 the unit ball is not completely filled with states: validity
of a vector is a positive-semidefiniteness test on D(r), exposed by
:func:`is_valid_state`.

All values here are immutable and all operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ContractError, DimensionError, NormalizationError
from .generators import GeneratorSet
from .tolerances import ALGEBRA_TOL, EIGEN_TOL


def _as_readonly(a: np.ndarray) -> np.ndarray:
    a = a.copy()
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Ket:
    """A unit-normalized complex state vector.

    Rejects non-normalized input instead of silently renormalizing;
    silent fixes would hide caller bugs in probability-critical code.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.ndim != 1 or amps.size < 2:
            raise DimensionError(f"ket must be a vector of length >= 2, got shape {amps.shape}")
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if not abs(norm_sq - 1.0) <= ALGEBRA_TOL:
            raise NormalizationError(
                f"ket is not unit-normalized: sum |psi_k|^2 = {norm_sq!r}"
            )
        object.__setattr__(self, "amplitudes", _as_readonly(amps))

    @property
    def dim(self) -> int:
        return self.amplitudes.size


@dataclass(frozen=True)
class DensityMatrix:
    """An N x N Hermitian unit-trace matrix.

    Hermiticity and unit trace are enforced at construction (to 1e-12).
    Positive semidefiniteness is deliberately *not* enforced here: vectors
    outside the state region still reconstruct to Hermitian unit-trace
    matrices, and membership is queried via :func:`is_valid_state`.
    """

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 2:
            raise DimensionError(f"density matrix must be square with N >= 2, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise NormalizationError("matrix has non-finite entries")
        herm = float(np.max(np.abs(m - m.conj().T)))
        if not herm <= ALGEBRA_TOL:
            raise NormalizationError(f"matrix is not Hermitian: max |D - D^dagger| = {herm:.3e}")
        tr = complex(np.trace(m))
        if not abs(tr - 1.0) <= ALGEBRA_TOL:
            raise NormalizationError(f"matrix does not have unit trace: Tr D = {tr!r}")
        object.__setattr__(self, "entries", _as_readonly(m))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.entries)[0])

    def is_positive_semidefinite(self) -> bool:
        return self.min_eigenvalue() >= -EIGEN_TOL


@dataclass(frozen=True)
class BlochVector:
    """A real vector of length N^2 - 1 in the generalized Bloch ball.

    ``dim`` is the Hilbert-space dimension N, not the coordinate count.
    Norm constraints are not enforced at construction; vectors outside the
    unit ball are legal inputs to the validity test.
    """

    dim: int
    coords: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=np.float64)
        if self.dim < 2:
            raise DimensionError(f"Bloch vector needs dim >= 2, got {self.dim}")
        if c.shape != (self.dim**2 - 1,):
            raise DimensionError(
                f"Bloch vector for dim {self.dim} needs {self.dim ** 2 - 1} coordinates, "
                f"got shape {c.shape}"
            )
        object.__setattr__(self, "coords", _as_readonly(c))

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.coords))


class StateValidity(NamedTuple):
    """Result of the positive-semidefiniteness membership test."""

    valid: bool
    min_eigenvalue: float


def radius_scale(n: int) -> float:
    """The scale c_N = sqrt(N(N-1)/2) placing pure states at unit radius."""
    return float(np.sqrt(n * (n - 1) / 2.0))


def ket_to_density(psi: Ket) -> DensityMatrix:
    """Rank-1 projector |psi><psi| of a unit ket."""
    a = psi.amplitudes
    return DensityMatrix(np.outer(a, a.conj()))


def _check_dims(g: GeneratorSet, dim: int, what: str) -> None:
    if g.dim != dim:
        raise DimensionError(f"generator set has dim {g.dim} but {what} has dim {dim}")


def to_bloch(d: DensityMatrix, g: GeneratorSet) -> BlochVector:
    """Map a density matrix to its Bloch vector.

    r_j = (N / (2 c_N)) Tr(D L_j). The traces must be real to 1e-12;
    the imaginary rounding residual is checked, then discarded.
    """
    _check_dims(g, d.dim, "state")
    traces = np.einsum("ij,kji->k", d.entries, g.matrices)
    imag = float(np.max(np.abs(traces.imag)))
    if not imag <= ALGEBRA_TOL:
        raise ContractError(f"Tr(D L_j) has imaginary residual {imag:.3e} > {ALGEBRA_TOL}")
    n = d.dim
    coords = (n / (2.0 * radius_scale(n))) * traces.real
    return BlochVector(dim=n, coords=coords)


def from_bloch(r: BlochVector, g: GeneratorSet) -> DensityMatrix:
    """Reconstruct D(r) = (1/N)(I + c_N r . L) from a Bloch vector.

    Always yields a Hermitian unit-trace matrix; whether it is an actual
    state (positive semidefinite) is a separate question answered by
    :func:`is_valid_state`.
    """
    _check_dims(g, r.dim, "Bloch vector")
    n = r.dim
    m = np.tensordot(r.coords, g.matrices, axes=1)
    return DensityMatrix((np.eye(n) + radius_scale(n) * m) / n)


def is_valid_state(r: BlochVector, g: GeneratorSet) -> StateValidity:
    """Whether r lies in the state region (D(r) positive semidefinite).

    Returns the minimum eigenvalue alongside the verdict for diagnostics;
    the threshold is -1e-10 to absorb eigensolver rounding on boundary
    states.
    """
    d = from_bloch(r, g)
    w = d.min_eigenvalue()
    return StateValidity(valid=w >= -EIGEN_TOL, min_eigenvalue=w)


def purity(d: DensityMatrix) -> float:
    """Tr(D^2), in [1/N, 1]; equals (1 + (N-1) ||r||^2) / N."""
    return float(np.einsum("ij,ji->", d.entries, d.entries).real)
