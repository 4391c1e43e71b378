"""Construction and validation of SU(N) generator sets.

The generators are the generalized Gell-Mann matrices: N^2 - 1 traceless
Hermitian N x N matrices normalized so that Tr(L_i L_j) = 2 delta_ij.
They come in three families:

* symmetric off-diagonal:      S_jk = E_jk + E_kj            (j < k)
* antisymmetric off-diagonal:  A_jk = -i E_jk + i E_kj       (j < k)
* diagonal:                    D_k  = sqrt(2/(k(k+1))) * diag(1,...,1,-k,0,...)
                               with k ones, for k = 1..N-1

Ordering convention (fixed, so Bloch coordinates are reproducible): all
symmetric pairs in lexicographic (row, col) order, then all antisymmetric
pairs in the same order, then the diagonal matrices by increasing k.

For N=2 this yields exactly (sigma_x, sigma_y, sigma_z). For N=3 it is a
permutation of the textbook Gell-Mann numbering: our order corresponds to
(lambda_1, lambda_4, lambda_6, lambda_2, lambda_5, lambda_7, lambda_3,
lambda_8).

The dense (N^2 - 1, N, N) tensor is 16.7 MB at N=32 and is built anew
by each :func:`build_generators` call. No other module of the library
uses it: the Bloch maps in both directions and the measurement simplex
use the closed forms of :mod:`blochsim.bloch`, in this module's ordering.
The set defines that convention, and :func:`verify_generator_set` checks
it; the tests compare the closed forms against a contraction with it.

A :class:`GeneratorSet` is immutable after construction and safe to share
across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError
from .tolerances import ALGEBRA_TOL


@dataclass(frozen=True)
class GeneratorSet:
    """An ordered set of SU(N) generators.

    Attributes
    ----------
    dim : int
        Hilbert-space dimension N (>= 2).
    matrices : np.ndarray
        Complex array of shape (N^2 - 1, N, N); ``matrices[i]`` is L_i.
        The array is read-only.
    """

    dim: int
    matrices: np.ndarray

    def __post_init__(self):
        if self.dim < 2:
            raise DimensionError(f"generator set needs dim >= 2, got {self.dim}")
        mats = np.asarray(self.matrices, dtype=np.complex128)
        expected = (self.dim**2 - 1, self.dim, self.dim)
        if mats.shape != expected:
            raise DimensionError(
                f"generator array has shape {mats.shape}, expected {expected}"
            )
        mats = mats.copy()
        mats.setflags(write=False)
        object.__setattr__(self, "matrices", mats)

    def __len__(self) -> int:
        return self.matrices.shape[0]


@dataclass(frozen=True)
class InvariantCheck:
    """Residual of one generator-set invariant against its tolerance."""

    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


@dataclass(frozen=True)
class ValidationReport:
    """Per-invariant residual report produced by :func:`verify_generator_set`."""

    checks: tuple[InvariantCheck, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name: str) -> InvariantCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def build_generators(n: int) -> GeneratorSet:
    """Return the generalized Gell-Mann generator set for SU(n).

    The n^2 - 1 matrices are Hermitian, traceless and satisfy
    Tr(L_i L_j) = 2 delta_ij, in the ordering documented in the module
    docstring.

    Raises
    ------
    DimensionError
        If ``n < 2``.
    """
    if n < 2:
        raise DimensionError(f"generators require dimension >= 2, got {n}")

    mats = np.zeros((n * n - 1, n, n), dtype=np.complex128)
    idx = 0
    for j in range(n):
        for k in range(j + 1, n):
            mats[idx, j, k] = 1.0
            mats[idx, k, j] = 1.0
            idx += 1
    for j in range(n):
        for k in range(j + 1, n):
            mats[idx, j, k] = -1.0j
            mats[idx, k, j] = 1.0j
            idx += 1
    for k in range(1, n):
        scale = np.sqrt(2.0 / (k * (k + 1)))
        mats[idx, :k, :k] = scale * np.eye(k)
        mats[idx, k, k] = -scale * k
        idx += 1

    return GeneratorSet(dim=n, matrices=mats)


def verify_generator_set(g: GeneratorSet) -> ValidationReport:
    """Check the three defining invariants and report max residuals.

    Residuals:

    * hermiticity:    max |L_i - L_i^dagger| entrywise
    * trace:          max |Tr L_i|
    * orthonormality: max |Tr(L_i L_j) - 2 delta_ij|

    The report passes iff every residual is <= 1e-12.
    """
    mats = g.matrices
    herm = float(np.max(np.abs(mats - mats.conj().transpose(0, 2, 1))))
    trace = float(np.max(np.abs(np.trace(mats, axis1=1, axis2=2))))

    gram = np.einsum("aij,bji->ab", mats, mats)
    target = 2.0 * np.eye(len(g))
    ortho = float(np.max(np.abs(gram - target)))

    return ValidationReport(
        checks=(
            InvariantCheck("hermiticity", herm, ALGEBRA_TOL),
            InvariantCheck("trace", trace, ALGEBRA_TOL),
            InvariantCheck("orthonormality", ortho, ALGEBRA_TOL),
        )
    )

