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
by each :func:`build_generators` call, which returns it as a read-only
complex array. No other module of the library uses it: the Bloch maps in
both directions and the measurement simplex use the closed forms of
:mod:`blochsim.bloch`, in this module's ordering. The tensor defines that
convention, and :func:`verify_generator_set` checks it; the tests compare
the closed forms against a contraction with it (Bertlmann & Krammer,
"Bloch vectors for qudits", J. Phys. A 41, 235303 (2008)).
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError


def build_generators(n: int) -> np.ndarray:
    """The generalized Gell-Mann generators of SU(n), shape (n^2 - 1, n, n).

    ``build_generators(n)[i]`` is L_i. The n^2 - 1 matrices are Hermitian,
    traceless and satisfy Tr(L_i L_j) = 2 delta_ij, in the ordering
    documented in the module docstring. The complex array is read-only.

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

    mats.setflags(write=False)
    return mats


def verify_generator_set(mats: np.ndarray) -> dict[str, float]:
    """Max residual of each defining invariant of a stack of matrices (K, N, N).

    * hermiticity:    max |L_i - L_i^dagger| entrywise
    * trace:          max |Tr L_i|
    * orthonormality: max |Tr(L_i L_j) - 2 delta_ij|

    A generator set has every residual <= ``tolerances.ALGEBRA_TOL`` (1e-12).
    """
    herm = float(np.max(np.abs(mats - mats.conj().transpose(0, 2, 1))))
    trace = float(np.max(np.abs(np.trace(mats, axis1=1, axis2=2))))

    gram = np.einsum("aij,bji->ab", mats, mats)
    ortho = float(np.max(np.abs(gram - 2.0 * np.eye(len(mats)))))
    return {"hermiticity": herm, "trace": trace, "orthonormality": ortho}

