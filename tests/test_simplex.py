import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochsim import (
    Barycentric,
    BasisError,
    BlochVector,
    ContractError,
    DensityMatrix,
    DimensionError,
    GeometryError,
    Ket,
    MeasurementBasis,
    RngSeed,
    barycentric_of,
    basis_to_simplex,
    born_probabilities,
    ket_to_density,
    project_onto_simplex,
    reduce_state,
    run_trials,
    subregion_ratios,
    to_bloch,
)
from blochsim.simplex import _gram_schmidt, affine_coordinates
from blochsim.tolerances import HULL_TOL
from util import cm_measure, random_basis, random_density, random_ket, standard_state_3


@pytest.fixture(scope="module")
def s3():
    return basis_to_simplex(MeasurementBasis.canonical(3))


def canonical_simplex(n):
    return basis_to_simplex(MeasurementBasis.canonical(n))


def gram_schmidt_loop(rows: np.ndarray) -> np.ndarray:
    """The row-by-row frame construction the QR factorization replaced, verbatim."""
    q = rows.astype(np.float64).copy()
    for i in range(q.shape[0]):
        for _ in range(2):
            for j in range(i):
                q[i] -= (q[j] @ q[i]) * q[j]
        norm = np.linalg.norm(q[i])
        if norm < 1e-14:
            raise GeometryError("degenerate edge set: simplex vertices are affinely dependent")
        q[i] /= norm
    return q


class TestBasis:
    def test_non_orthonormal_rejected(self):
        kets = np.array([[1.0, 0.0], [1.0, 1.0]]) / np.array([[1.0], [np.sqrt(2)]])
        with pytest.raises(BasisError):
            MeasurementBasis(kets)

    def test_canonical(self):
        b = MeasurementBasis.canonical(4)
        np.testing.assert_array_equal(b.kets, np.eye(4))


class TestGeometry:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_vertices_unit_norm_and_pairwise_dots(self, n):
        s = canonical_simplex(n)
        dots = s.vertices @ s.vertices.T
        np.testing.assert_allclose(np.diag(dots), 1.0, atol=1e-10)
        off = dots - np.diag(np.diag(dots))
        expected = -1.0 / (n - 1) * (np.ones((n, n)) - np.eye(n))
        np.testing.assert_allclose(off, expected, atol=1e-10)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_edge_lengths(self, n):
        s = canonical_simplex(n)
        expected = np.sqrt(2 * n / (n - 1))
        for i in range(n):
            for j in range(i + 1, n):
                length = np.linalg.norm(s.vertices[i] - s.vertices[j])
                assert length == pytest.approx(expected, abs=1e-10)

    def test_triangle_total_measure(self, s3):
        assert s3.total_measure == pytest.approx(3 * np.sqrt(3) / 4, abs=1e-12)

    def test_qubit_simplex_is_a_diameter(self):
        s = canonical_simplex(2)
        assert s.total_measure == pytest.approx(2.0, abs=1e-12)
        np.testing.assert_allclose(s.vertices[0], -s.vertices[1], atol=1e-15)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_total_measure_against_cayley_menger(self, n):
        s = canonical_simplex(n)
        assert s.total_measure == pytest.approx(cm_measure(s.vertices), abs=1e-10)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_random_bases_give_congruent_simplexes(self, n):
        rng = np.random.default_rng(40 + n)
        for _ in range(5):
            s = basis_to_simplex(random_basis(rng, n))
            dots = s.vertices @ s.vertices.T
            expected = -1 / (n - 1) + (1 + 1 / (n - 1)) * np.eye(n)
            np.testing.assert_allclose(dots, expected, atol=1e-10)

    def test_frame_is_orthonormal(self, s3):
        np.testing.assert_allclose(s3.frame @ s3.frame.T, np.eye(2), atol=1e-14)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n=st.integers(2, 32), seed=st.integers(0, 2**32 - 1))
    def test_frame_is_gram_schmidt_on_the_edges(self, n, seed):
        s = basis_to_simplex(random_basis(np.random.default_rng(seed), n))
        expected = gram_schmidt_loop(s.vertices[:-1] - s.vertices[-1])
        np.testing.assert_allclose(s.frame, expected, rtol=0, atol=1e-14)
        np.testing.assert_allclose(s.frame @ s.frame.T, np.eye(n - 1), rtol=0, atol=1e-14)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n=st.integers(2, 12) | st.just(32), seed=st.integers(0, 2**32 - 1))
    def test_vertices_lie_on_the_derived_frames_span(self, n, seed):
        # the oracle reads samples in frame coordinates without checking the
        # frame: a sample, a convex combination of the vertices, lies no
        # farther off the frame's span than they do
        s = basis_to_simplex(random_basis(np.random.default_rng(seed), n))
        dev = s.vertices - s.centroid
        off_hull = np.linalg.norm(dev - (dev @ s.frame.T) @ s.frame, axis=1)
        assert off_hull.max() <= HULL_TOL

    @pytest.mark.parametrize(
        "edges",
        [
            [[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]],
            [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
            [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [1.0, -1.0, 0.0, 0.0]],
        ],
    )
    def test_rank_deficient_edges_raise(self, edges):
        with pytest.raises(GeometryError, match="affinely dependent"):
            _gram_schmidt(np.array(edges))


class TestProjection:
    def test_on_simplex_point_is_fixed(self, s3):
        point = BlochVector(0.2 * s3.vertices[0] + 0.5 * s3.vertices[1] + 0.3 * s3.vertices[2])
        proj = project_onto_simplex(point, s3)
        np.testing.assert_allclose(proj.coords, point.coords, atol=1e-12)

    def test_equal_superposition_projects_to_center(self):
        s = canonical_simplex(2)
        r = to_bloch(ket_to_density(Ket([1, 1] / np.sqrt(2))))
        proj = project_onto_simplex(r, s)
        np.testing.assert_allclose(proj.coords, np.zeros(3), atol=1e-12)

    def test_weighted_ket_lands_at_born_barycentric(self, s3):
        r = to_bloch(standard_state_3())
        proj = project_onto_simplex(r, s3)
        bc = barycentric_of(proj, s3)
        np.testing.assert_allclose(bc.weights, [0.5, 0.3, 0.2], atol=1e-10)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_reduced_state_for_random_kets(self, n):
        rng = np.random.default_rng(50 + n)
        b = MeasurementBasis.canonical(n)
        s = basis_to_simplex(b)
        for _ in range(100):
            d = ket_to_density(random_ket(rng, n))
            proj = project_onto_simplex(to_bloch(d), s)
            reduced = to_bloch(reduce_state(d, b))
            assert np.linalg.norm(proj.coords - reduced.coords) <= 1e-10

    def test_projection_of_far_outside_point_raises(self, s3):
        # an invalid 'state' far outside the ball projects outside the simplex
        far = BlochVector(5.0 * (s3.vertices[0] - s3.vertices[1]) + s3.vertices[2])
        with pytest.raises(GeometryError):
            project_onto_simplex(far, s3)


class TestBarycentric:
    def test_vertex(self, s3):
        bc = barycentric_of(BlochVector(s3.vertices[1]), s3)
        np.testing.assert_allclose(bc.weights, [0.0, 1.0, 0.0], atol=1e-12)

    def test_centroid(self, s3):
        bc = barycentric_of(BlochVector(s3.centroid), s3)
        np.testing.assert_allclose(bc.weights, np.full(3, 1 / 3), atol=1e-12)

    def test_off_hull_point_rejected(self, s3):
        off = np.zeros(8)
        off[0] = 0.5
        with pytest.raises(GeometryError):
            barycentric_of(BlochVector(off), s3)

    def test_outside_simplex_point_rejected(self, s3):
        outside = BlochVector(1.2 * s3.vertices[0] - 0.2 * s3.vertices[1])
        with pytest.raises(GeometryError):
            barycentric_of(outside, s3)
        # but its affine weights are solvable and reproduce the combination
        w = affine_coordinates(outside, s3)
        np.testing.assert_allclose(w, [1.2, -0.2, 0.0], atol=1e-12)

    def test_type_contract(self):
        with pytest.raises(ContractError):
            Barycentric([0.5, 0.4])
        with pytest.raises(ContractError):
            Barycentric([1.2, -0.2])

    @pytest.mark.parametrize("n", [2, 3])
    def test_hull_tol_is_how_far_a_point_may_lie_off_the_hull(self, n):
        # HULL_TOL = 1e-9: a point 3e-10 off the hull passes, one 3e-9 off does not
        s = canonical_simplex(n)
        normal = np.random.default_rng(n).standard_normal(n * n - 1)
        normal -= s.frame.T @ (s.frame @ normal)
        normal /= np.linalg.norm(normal)
        bc = barycentric_of(BlochVector(s.centroid + 3e-10 * normal), s)
        np.testing.assert_allclose(bc.weights, np.full(n, 1 / n), atol=1e-12)
        with pytest.raises(GeometryError, match="off the simplex affine hull"):
            barycentric_of(BlochVector(s.centroid + 3e-9 * normal), s)

    def test_boundary_tol_is_how_far_a_weight_may_dip(self):
        # BOUNDARY_TOL = 1e-12: a face point's rounding residue passes, a
        # weight twice as far below zero does not
        assert Barycentric([1 + 5e-13, -5e-13]).weights[1] == -5e-13
        with pytest.raises(ContractError, match="below"):
            Barycentric([1 + 2e-12, -2e-12])


class TestBornProbabilities:
    def test_eigenstate(self, s3):
        b = MeasurementBasis.canonical(3)
        p = born_probabilities(b.projector(0), b)
        np.testing.assert_allclose(p.weights, [1.0, 0.0, 0.0], atol=1e-15)

    def test_uniform_superposition(self):
        b = MeasurementBasis.canonical(3)
        p = born_probabilities(ket_to_density(Ket(np.ones(3) / np.sqrt(3))), b)
        np.testing.assert_allclose(p.weights, np.full(3, 1 / 3), atol=1e-15)

    def test_qubit_angle(self):
        theta = np.pi / 3
        b = MeasurementBasis.canonical(2)
        p = born_probabilities(ket_to_density(Ket([np.cos(theta / 2), np.sin(theta / 2)])), b)
        np.testing.assert_allclose(p.weights, [0.75, 0.25], atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_equals_projected_barycentric(self, n):
        rng = np.random.default_rng(60 + n)
        for _ in range(50):
            b = random_basis(rng, n)
            s = basis_to_simplex(b)
            d = random_density(rng, n)
            p = born_probabilities(d, b)
            bc = barycentric_of(project_onto_simplex(to_bloch(d), s), s)
            np.testing.assert_allclose(bc.weights, p.weights, atol=1e-10)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            born_probabilities(ket_to_density(Ket([1, 0])), MeasurementBasis.canonical(3))

    def test_accepted_state_with_anti_hermitian_part_in_a_dense_basis(self):
        # |D_jk - conj(D_kj)| = 1e-12 passes construction; every Fourier ket
        # sums the anti-Hermitian part over all 56 off-diagonal entries, so
        # Im <a_0|D|a_0> = 56 * 5e-13 / 8 = 3.5e-12
        n = 8
        d = DensityMatrix(np.eye(n) / n + 5e-13j * (np.ones((n, n)) - np.eye(n)))
        fourier = MeasurementBasis(np.exp(2j * np.pi * np.outer(range(n), range(n)) / n) / np.sqrt(n))
        np.testing.assert_allclose(born_probabilities(d, fourier).weights, np.full(n, 1 / n), atol=1e-15)
        report = run_trials(d, fourier, 10_000, RngSeed(5))
        assert sum(report.counts) == 10_000


class TestSubregionMeasures:
    def test_centroid_splits_evenly(self, s3):
        ratios = subregion_ratios(BlochVector(s3.centroid), s3)
        np.testing.assert_allclose(ratios, np.full(3, 1 / 3), rtol=0, atol=1e-13)

    def test_vertex_degenerates(self, s3):
        ratios = subregion_ratios(BlochVector(s3.vertices[0]), s3)
        assert ratios[0] == pytest.approx(1.0, abs=1e-13)
        np.testing.assert_allclose(ratios[1:], 0.0, atol=1e-13)

    def test_ratios_equal_barycentric_weights(self, s3):
        rpar = project_onto_simplex(to_bloch(standard_state_3()), s3)
        ratios = subregion_ratios(rpar, s3)
        np.testing.assert_allclose(ratios, [0.5, 0.3, 0.2], rtol=0, atol=1e-13)

    def test_against_cayley_menger(self, s3):
        rpar = project_onto_simplex(to_bloch(standard_state_3()), s3)
        ratios = subregion_ratios(rpar, s3)
        whole = cm_measure(s3.vertices)
        for i in range(3):
            verts = s3.vertices.copy()
            verts[i] = rpar.coords
            assert ratios[i] == pytest.approx(cm_measure(verts) / whole, abs=1e-13)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_additivity(self, n):
        rng = np.random.default_rng(70 + n)
        b = MeasurementBasis.canonical(n)
        s = basis_to_simplex(b)
        for _ in range(50):
            rpar = project_onto_simplex(to_bloch(ket_to_density(random_ket(rng, n))), s)
            assert abs(subregion_ratios(rpar, s).sum() - 1.0) <= 1e-13

    def test_outside_point_rejected(self, s3):
        outside = BlochVector(1.2 * s3.vertices[0] - 0.2 * s3.vertices[1])
        with pytest.raises(GeometryError):
            subregion_ratios(outside, s3)


def test_simplex_beyond_the_factorial_range():
    # (N-1)! overflows a float from N = 172; the measure is taken in logarithms
    s = canonical_simplex(172)
    assert s.total_measure == pytest.approx(1.7398e-308, rel=1e-4)
    p = np.random.default_rng(172).dirichlet(np.ones(172))
    ratios = subregion_ratios(BlochVector(p @ s.vertices), s)
    np.testing.assert_allclose(ratios, p, rtol=0, atol=1e-13)
