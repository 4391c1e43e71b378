import numpy as np
import pytest

from blochsim import (
    BlochVector,
    ContractError,
    DensityMatrix,
    DimensionError,
    Ket,
    NormalizationError,
    from_bloch,
    ket_to_density,
    to_bloch,
)
from blochsim.bloch import _TRACE_IMAG_TOL, _traces_to_coords
from util import purity, random_density, random_ket


class TestKet:
    def test_rejects_non_normalized_without_fixing(self):
        with pytest.raises(NormalizationError):
            Ket([0.9, 0.0])

    def test_rejects_wrong_shape(self):
        with pytest.raises(DimensionError):
            Ket([[1, 0], [0, 1]])

    def test_accepts_complex_phases(self):
        Ket([1j / np.sqrt(2), -1 / np.sqrt(2)])

    def test_algebra_tol_is_how_far_a_norm_may_miss_one(self):
        # ALGEBRA_TOL = 1e-12: sum |psi_k|^2 = 1 + 3e-13 passes, 1 + 3e-12 does not
        Ket([np.sqrt(1 + 3e-13), 0.0])
        with pytest.raises(NormalizationError, match="not unit-normalized"):
            Ket([np.sqrt(1 + 3e-12), 0.0])


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        with pytest.raises(NormalizationError):
            DensityMatrix([[0.5, 0.1], [0.2, 0.5]])

    def test_rejects_wrong_trace(self):
        with pytest.raises(NormalizationError):
            DensityMatrix([[0.6, 0.0], [0.0, 0.5]])

    def test_non_psd_matrices_are_constructible(self):
        # validity is a separate question, not a construction constraint
        d = DensityMatrix([[1.2, 0.0], [0.0, -0.2]])
        assert not d.is_positive_semidefinite()


class TestKetToDensity:
    def test_basis_state(self):
        d = ket_to_density(Ket([1, 0]))
        np.testing.assert_array_equal(d.entries, np.diag([1.0, 0.0]))

    def test_equal_superposition(self):
        d = ket_to_density(Ket([1 / np.sqrt(2), 1 / np.sqrt(2)]))
        np.testing.assert_allclose(d.entries, np.full((2, 2), 0.5), atol=1e-15)

    def test_three_level_uniform(self):
        d = ket_to_density(Ket(np.ones(3) / np.sqrt(3)))
        np.testing.assert_allclose(d.entries, np.full((3, 3), 1 / 3), atol=1e-15)

    def test_result_is_pure(self):
        rng = np.random.default_rng(1)
        for n in (2, 3, 5):
            d = ket_to_density(random_ket(rng, n))
            assert purity(d) == pytest.approx(1.0, abs=1e-12)


class TestToBloch:
    def test_basis_state_maps_to_pole(self):
        r = to_bloch(DensityMatrix(np.diag([1.0, 0.0])))
        np.testing.assert_allclose(r.coords, [0.0, 0.0, 1.0], atol=1e-15)

    def test_maximally_mixed_maps_to_center(self):
        r = to_bloch(DensityMatrix(np.eye(2) / 2))
        np.testing.assert_allclose(r.coords, np.zeros(3), atol=1e-15)

    def test_three_level_basis_state_hits_diagonal_directions(self):
        r = to_bloch(DensityMatrix(np.diag([1.0, 0.0, 0.0])))
        # only the two diagonal generators contribute: (sqrt(3)/2, 1/2)
        np.testing.assert_allclose(r.coords[:6], np.zeros(6), atol=1e-15)
        assert r.coords[6] == pytest.approx(np.sqrt(3) / 2, abs=1e-14)
        assert r.coords[7] == pytest.approx(0.5, abs=1e-14)
        assert r.norm == pytest.approx(1.0, abs=1e-12)


class TestFromBloch:
    def test_pole_reconstructs_basis_state(self):
        d = from_bloch(BlochVector([0.0, 0.0, 1.0]))
        np.testing.assert_allclose(d.entries, np.diag([1.0, 0.0]), atol=1e-15)

    def test_zero_vector_gives_maximally_mixed(self):
        d = from_bloch(BlochVector(np.zeros(3)))
        np.testing.assert_allclose(d.entries, np.eye(2) / 2, atol=1e-15)

    def test_negative_diagonal_direction_is_not_a_state(self):
        coords = np.zeros(8)
        coords[6] = -1.0
        d = from_bloch(BlochVector(coords))
        # eigenvalues of (1/3) diag(1 - sqrt(3), 1 + sqrt(3), 1)
        expected_min = (1.0 - np.sqrt(3)) / 3.0
        assert d.min_eigenvalue() == pytest.approx(expected_min, abs=1e-12)
        assert not d.is_positive_semidefinite()


class TestIsValidState:
    """A Bloch vector is a state iff D(r) is positive semidefinite."""

    @pytest.mark.parametrize("radius", [0.0, 0.3, 0.999999, 1.0])
    def test_qubit_ball_is_filled(self, radius):
        rng = np.random.default_rng(7)
        for _ in range(20):
            v = rng.standard_normal(3)
            v = radius * v / np.linalg.norm(v)
            assert from_bloch(BlochVector(v)).is_positive_semidefinite()

    def test_outside_unit_ball_is_invalid(self):
        v = np.array([1.5, 0.0, 0.0])
        assert not from_bloch(BlochVector(v)).is_positive_semidefinite()

    def test_vertex_antipode_is_invalid_for_three_levels(self):
        n1 = to_bloch(DensityMatrix(np.diag([1.0, 0.0, 0.0])))
        d = from_bloch(BlochVector(-n1.coords))
        assert not d.is_positive_semidefinite()
        assert d.min_eigenvalue() == pytest.approx(-1 / 3, abs=1e-12)


class TestPurity:
    def test_projector_has_unit_purity(self):
        assert purity(ket_to_density(Ket([0, 1, 0]))) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_maximally_mixed_purity(self, n):
        assert purity(DensityMatrix(np.eye(n) / n)) == pytest.approx(1 / n, abs=1e-15)

    def test_half_radius_qubit(self):
        d = from_bloch(BlochVector([0.5, 0.0, 0.0]))
        # (1 + ||r||^2) / 2 = 5/8, cross-checked against the direct trace
        direct = np.trace(d.entries @ d.entries).real
        assert direct == pytest.approx(5 / 8, abs=1e-14)
        assert purity(d) == pytest.approx(5 / 8, abs=1e-14)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_purity_matches_radius_formula(self, n):
        rng = np.random.default_rng(n)
        for _ in range(50):
            d = random_density(rng, n)
            r = to_bloch(d)
            assert purity(d) == pytest.approx((1 + (n - 1) * r.norm**2) / n, abs=1e-10)


class TestMapProperties:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_round_trip(self, n):
        rng = np.random.default_rng(100 + n)
        worst = 0.0
        for i in range(200):
            d = ket_to_density(random_ket(rng, n)) if i % 2 else random_density(rng, n)
            r = to_bloch(d)
            back = to_bloch(from_bloch(r))
            worst = max(worst, float(np.linalg.norm(back.coords - r.coords)))
        assert worst <= 1e-11

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_purity_one_iff_unit_norm(self, n):
        rng = np.random.default_rng(200 + n)
        for i in range(100):
            d = ket_to_density(random_ket(rng, n)) if i % 3 == 0 else random_density(rng, n)
            unit_norm = abs(to_bloch(d).norm - 1.0) <= 1e-10
            pure = abs(purity(d) - 1.0) <= 1e-10
            assert unit_norm == pure

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_linearity(self, n):
        rng = np.random.default_rng(300 + n)
        for alpha in (0.0, 0.25, 0.5, 0.9, 1.0):
            d1 = random_density(rng, n)
            d2 = random_density(rng, n)
            mix = DensityMatrix(alpha * d1.entries + (1 - alpha) * d2.entries)
            expected = alpha * to_bloch(d1).coords + (1 - alpha) * to_bloch(d2).coords
            np.testing.assert_allclose(to_bloch(mix).coords, expected, atol=1e-12)

    def test_norm_of_valid_states_stays_in_ball(self):
        rng = np.random.default_rng(42)
        for n in (2, 3, 4, 5):
            for _ in range(100):
                assert to_bloch(random_density(rng, n)).norm <= 1 + 1e-10

    def test_accepted_state_with_imaginary_diagonal_maps(self):
        # |Im D_mm| = 5e-13 passes construction; the diagonal family weighs it
        # by 2 k s_k, so Tr(D L_8) has imaginary part 2/sqrt(3) * 1e-12
        d = DensityMatrix(np.diag([0.4 + 5e-13j, 0.3 + 5e-13j, 0.3 - 5e-13j]))
        expected = to_bloch(DensityMatrix(np.diag([0.4, 0.3, 0.3]))).coords
        np.testing.assert_array_equal(to_bloch(d).coords, expected)

    def test_imaginary_residual_guard(self):
        # traces complex beyond the bound are rejected; at the bound they map
        over = np.nextafter(_TRACE_IMAG_TOL, 1.0)
        with pytest.raises(ContractError):
            _traces_to_coords(np.array([0.0, 0.0, 1.0 + over * 1j]), 2)
        coords = _traces_to_coords(np.array([0.0, 0.0, 1.0 + _TRACE_IMAG_TOL * 1j]), 2)
        np.testing.assert_array_equal(coords, [0.0, 0.0, 1.0])
