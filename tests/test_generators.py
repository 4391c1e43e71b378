import numpy as np
import pytest

from blochsim import DimensionError
from blochsim.generators import build_generators, verify_generator_set
from blochsim.tolerances import ALGEBRA_TOL

PAULI = [
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]

# Textbook Gell-Mann numbering; our ordering is the permutation below.
GELL_MANN = [
    np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex),
    np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]], dtype=complex),
    np.array([[1, 0, 0], [0, -1, 0], [0, 0, 0]], dtype=complex),
    np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=complex),
    np.array([[0, 0, -1j], [0, 0, 0], [1j, 0, 0]], dtype=complex),
    np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex),
    np.array([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]], dtype=complex),
    np.diag([1, 1, -2]).astype(complex) / np.sqrt(3),
]
GELL_MANN_PERMUTATION = [0, 3, 5, 1, 4, 6, 2, 7]


def test_pauli_matrices_for_dim_2():
    g = build_generators(2)
    assert g.shape == (3, 2, 2) and g.dtype == np.complex128
    for ours, pauli in zip(g, PAULI):
        np.testing.assert_allclose(ours, pauli, atol=0)


def test_gell_mann_matrices_for_dim_3_up_to_documented_ordering():
    g = build_generators(3)
    assert g.shape == (8, 3, 3)
    for i, j in enumerate(GELL_MANN_PERMUTATION):
        np.testing.assert_allclose(g[i], GELL_MANN[j], atol=1e-15)


@pytest.mark.parametrize("n", range(2, 9))
def test_invariants_hold_to_tolerance(n):
    g = build_generators(n)
    assert g.shape == (n * n - 1, n, n)
    report = verify_generator_set(g)
    assert set(report) == {"hermiticity", "trace", "orthonormality"}
    assert report["hermiticity"] <= 1e-12
    assert report["trace"] <= 1e-12
    assert report["orthonormality"] <= 1e-12


@pytest.mark.parametrize("n", range(2, 9))
def test_three_families_in_order(n):
    g = build_generators(n)
    n_sym = n_anti = n * (n - 1) // 2
    assert len(g) == n_sym + n_anti + n - 1
    sym = g[:n_sym]
    anti = g[n_sym : n_sym + n_anti]
    diag = g[n_sym + n_anti :]
    assert np.max(np.abs(sym.imag)) == 0
    assert np.max(np.abs(sym - sym.transpose(0, 2, 1))) == 0
    assert np.max(np.abs(anti.real)) == 0
    assert np.max(np.abs(anti + anti.transpose(0, 2, 1))) == 0
    for m in diag:
        assert np.max(np.abs(m - np.diag(np.diag(m)))) == 0


@pytest.mark.parametrize("n", range(2, 9))
def test_casimir_sum_identity(n):
    g = build_generators(n)
    total = np.einsum("kij,kjl->il", g, g)
    expected = 2.0 * (n * n - 1) / n * np.eye(n)
    assert np.max(np.abs(total - expected)) <= 1e-10


@pytest.mark.parametrize("n", [1, 0, -3])
def test_invalid_dimension_rejected(n):
    with pytest.raises(DimensionError):
        build_generators(n)


def test_scaled_matrix_fails_orthonormality_with_residual_six():
    g = build_generators(3)
    mats = g.copy()
    mats[0] = 2.0 * mats[0]
    report = verify_generator_set(mats)
    # independent check: Tr((2L)(2L)) = 4 Tr(L^2) = 8, so the residual is 6
    expected = abs(4.0 * np.trace(g[0] @ g[0]).real - 2.0)
    assert expected == 6.0
    assert report["orthonormality"] == pytest.approx(6.0, abs=1e-12)
    assert report["hermiticity"] <= ALGEBRA_TOL
    assert report["trace"] <= ALGEBRA_TOL


def test_non_hermitian_perturbation_reported():
    mats = build_generators(3).copy()
    mats[0, 0, 1] += 1e-6j
    mats[0, 1, 0] += 1e-6j
    report = verify_generator_set(mats)
    # (M - M^dagger)[0, 1] = 2e-6 i, checked entrywise
    assert report["hermiticity"] == pytest.approx(2e-6, rel=1e-9)
    assert report["hermiticity"] > ALGEBRA_TOL


def test_matrices_are_immutable():
    g = build_generators(3)
    with pytest.raises(ValueError):
        g[0, 0, 0] = 5.0

