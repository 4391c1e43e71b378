import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blochsim.bloch
from blochsim import (
    ContractError,
    DensityMatrix,
    DimensionError,
    Ket,
    MeasurementBasis,
    RngSeed,
    basis_to_simplex,
    born_probabilities,
    ket_to_density,
    project_onto_simplex,
    reduce_state,
    run_measurement,
    measure_degenerate,
    measure_once,
    run_trials,
    to_bloch,
)
from blochsim.collapse import _diagonal
from util import projector_mixture, random_basis, random_density, random_ket, standard_state_3

B3 = MeasurementBasis.canonical(3)


class TestReduceState:
    def test_basis_diagonal_state_is_a_fixed_point(self):
        d = projector_mixture(B3, [0.6, 0.3, 0.1])
        np.testing.assert_allclose(reduce_state(d, B3).entries, d.entries, atol=1e-12)

    def test_equal_superposition_reduces_to_maximally_mixed(self):
        b2 = MeasurementBasis.canonical(2)
        d = ket_to_density(Ket([1, 1] / np.sqrt(2)))
        np.testing.assert_allclose(reduce_state(d, b2).entries, np.eye(2) / 2, atol=1e-12)

    def test_weighted_ket_reduces_to_diagonal(self):
        reduced = reduce_state(standard_state_3(), B3)
        np.testing.assert_allclose(reduced.entries, np.diag([0.5, 0.3, 0.2]), atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_idempotent(self, n):
        rng = np.random.default_rng(500 + n)
        b = MeasurementBasis.canonical(n)
        for _ in range(50):
            d = random_density(rng, n)
            once = reduce_state(d, b)
            twice = reduce_state(once, b)
            np.testing.assert_allclose(twice.entries, once.entries, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_orthogonal_projection(self, n):
        rng = np.random.default_rng(600 + n)
        for _ in range(50):
            b = random_basis(rng, n)
            s = basis_to_simplex(b)
            d = random_density(rng, n)
            reduced = to_bloch(reduce_state(d, b))
            projected = project_onto_simplex(to_bloch(d), s)
            assert np.linalg.norm(reduced.coords - projected.coords) <= 1e-10

    def test_preserves_trace_and_hermiticity(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            reduced = reduce_state(random_density(rng, 3), B3)
            assert abs(np.trace(reduced.entries).real - 1.0) <= 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            reduce_state(ket_to_density(Ket([1, 0])), B3)


def _bases(rng, n):
    """Haar, canonical, permutation, real orthogonal and diagonal phase bases."""
    real, _ = np.linalg.qr(rng.standard_normal((n, n)))
    yield random_basis(rng, n).kets
    yield np.eye(n, dtype=complex)
    yield np.eye(n, dtype=complex)[rng.permutation(n)]
    yield real.T.astype(complex)
    yield np.diag(np.exp(2j * np.pi * rng.random(n)))


def _weights(rng, n):
    """Dirichlet, half of them zero, a vertex, and a Dirichlet draw with -0.0 zeros."""
    yield rng.dirichlet(np.ones(n))
    half = rng.dirichlet(np.ones(n))
    half[rng.permutation(n)[: n // 2]] = 0.0
    yield half / half.sum()
    yield np.eye(n)[rng.integers(n)]
    signed = rng.dirichlet(np.ones(n))
    signed[rng.permutation(n)[: n // 2]] = -0.0
    yield signed / signed.sum()


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 16, 32])
def test_diagonal_is_bitwise_the_three_operand_einsum(n):
    rng = np.random.default_rng(900 + n)
    for kets in _bases(rng, n):
        b = MeasurementBasis(kets)
        for p in _weights(rng, n):
            members = np.sort(rng.permutation(n)[: int(rng.integers(1, n + 1))])
            on_block = rng.dirichlet(np.ones(members.size))
            for w, rows in ((p, slice(None)), (on_block, members)):
                k = b.kets[rows]
                expected = np.einsum("j,ji,jk->ik", w, k, k.conj())
                got = _diagonal(w, b, rows).entries
                np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))


def _signed_zeros(rng, m: np.ndarray) -> np.ndarray:
    """m with about half of its zero real and imaginary parts turned into -0.0."""
    m = m.copy()
    for part in (m.real, m.imag):
        part[(part == 0) & (rng.random(m.shape) < 0.5)] = -0.0
    return m


def _identity_kets(rng, n):
    """The identity, with -0.0 on some zeros, and with (1, -0.0) on the diagonal."""
    eye = np.eye(n, dtype=complex)
    yield eye
    yield _signed_zeros(rng, eye)
    negative_imag = eye.copy()
    negative_imag.imag[np.diag_indices(n)] = -0.0
    yield negative_imag


def _diagonal_densities(rng, n):
    """Densities whose diagonals have -0.0, zero, subnormal, negative and imaginary entries."""
    yield random_density(rng, n).entries
    yield _signed_zeros(rng, np.diag(rng.dirichlet(np.ones(n))).astype(complex))
    a = random_ket(rng, n).amplitudes.copy()
    a[rng.permutation(n)[: n // 2]] = 0.0  # a boundary state: zero rows, columns and diagonal
    yield _signed_zeros(rng, np.outer(a, a.conj()) / np.vdot(a, a).real)
    w = rng.dirichlet(np.ones(n))
    w[0], w[1:-1] = 5e-324, -3e-13  # a subnormal weight and negative rounding residuals
    w[-1] += 1.0 - w.sum()
    yield np.diag(w).astype(complex)
    tilted = random_density(rng, n).entries.copy()
    tilted.imag[np.diag_indices(n)] = -0.0
    tilted[0, 0] += 4e-13j  # an imaginary diagonal residual the checks accept
    yield tilted


def _weights_with_signed_zeros(rng, n):
    """Born-like weights with -0.0 entries, and one with a -3e-13 residual."""
    w = rng.dirichlet(np.ones(n))
    w[rng.permutation(n)[: n // 2]] = -0.0
    yield w / w.sum()
    w = rng.dirichlet(np.ones(n))
    w[-1] = -3e-13
    w[0] += 1.0 - w.sum()
    yield w


def _reference_born(kets: np.ndarray, d: np.ndarray) -> np.ndarray:
    return np.einsum("ij,jk,ik->i", kets.conj(), d, kets)


def _reference_reduced(p: np.ndarray, kets: np.ndarray) -> np.ndarray:
    return np.einsum("ji,jk->ik", p[:, None] * kets, kets.conj())


def _same_bits(got: np.ndarray, expected: np.ndarray) -> None:
    np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("n", [2, 3, 5, 8, 16, 32])
def test_computational_basis_is_bitwise_the_general_contraction(n):
    rng = np.random.default_rng(1900 + n)
    one_ulp_off = np.eye(n, dtype=complex)
    one_ulp_off[0, 0] = np.nextafter(1.0, 0.0)
    cases = [(k, True) for k in _identity_kets(rng, n)] + [(one_ulp_off, False)]
    for kets, fast in cases:
        b = MeasurementBasis(kets)
        assert b._is_identity is fast
        for entries in _diagonal_densities(rng, n):
            d = DensityMatrix(entries)
            p = _reference_born(b.kets, d.entries)
            _same_bits(born_probabilities(d, b).weights, p.real)
            _same_bits(reduce_state(d, b).entries, _reference_reduced(p.real, b.kets))
        for w in _weights_with_signed_zeros(rng, n):
            _same_bits(_diagonal(w, b).entries, _reference_reduced(w, b.kets))
            # the collapsed stage of a partitioned run: member rows in block
            # order, weights over a class of positive weight
            for size in (1, int(rng.integers(1, n + 1)), n):
                members = rng.permutation(n)[:size]
                if not w[members].sum() > 0.0:
                    continue
                on_block = w[members] / w[members].sum()
                _same_bits(_diagonal(on_block, b, members).entries,
                           _reference_reduced(on_block, b.kets[members]))


class _BlochMapCalled(Exception):
    pass


class _Drawn(Exception):
    pass


class TestStageVectorsOnAccess:
    @pytest.mark.parametrize("partition", [None, [[0, 2], [1]]])
    def test_run_measurement_maps_no_bloch_vector(self, monkeypatch, partition):
        def refuse(d):
            raise _BlochMapCalled

        monkeypatch.setattr(blochsim.bloch, "_closed_form_traces", refuse)
        for b in (B3, random_basis(np.random.default_rng(41), 3)):
            trace = run_measurement(standard_state_3(), b, partition=partition, seed=RngSeed(3))
            assert len(trace.stages) == (3 if partition is None else 4)
            for stage in trace.stages:
                with pytest.raises(_BlochMapCalled):
                    stage.vector

    @pytest.mark.parametrize("partition", [None, [[0, 2], [1]]])
    def test_stage_vector_is_the_bloch_map_of_its_density(self, partition):
        for b in (B3, random_basis(np.random.default_rng(42), 3)):
            trace = run_measurement(standard_state_3(), b, partition=partition, seed=RngSeed(4))
            for stage in trace.stages:
                _same_bits(stage.vector.coords, to_bloch(stage.density).coords)


class TestRunMeasurement:
    def test_eigenstate_trace_collapses_in_place(self):
        d = B3.projector(2)
        trace = run_measurement(d, B3, seed=RngSeed(1))
        assert trace.outcome == 2
        assert trace.labels == ("initial", "reduced", "collapsed")
        for stage in trace.stages:
            np.testing.assert_allclose(stage.density.entries, d.entries, atol=1e-12)

    def test_nondegenerate_trace_shape(self):
        s = basis_to_simplex(B3)
        trace = run_measurement(standard_state_3(), B3, seed=RngSeed(7))
        assert trace.labels == ("initial", "reduced", "collapsed")
        assert trace.stages[0].vector.norm == pytest.approx(1.0, abs=1e-10)
        collapsed = trace.stages[2].vector.coords
        np.testing.assert_allclose(collapsed, s.vertices[trace.outcome], atol=1e-10)

    def test_reduced_stage_is_the_projection(self):
        s = basis_to_simplex(B3)
        rng = np.random.default_rng(11)
        for seed in range(5):
            d = ket_to_density(random_ket(rng, 3))
            trace = run_measurement(d, B3, seed=RngSeed(seed))
            projected = project_onto_simplex(trace.stages[0].vector, s)
            reduced = trace.stages[1].vector
            assert np.linalg.norm(projected.coords - reduced.coords) <= 1e-10

    def test_every_stage_has_unit_trace(self):
        trace = run_measurement(standard_state_3(), B3, partition=[[0], [1, 2]], seed=RngSeed(3))
        for stage in trace.stages:
            assert abs(np.trace(stage.density.entries).real - 1.0) <= 1e-12

    def test_deterministic_given_seed(self):
        a = run_measurement(standard_state_3(), B3, seed=RngSeed(12))
        b = run_measurement(standard_state_3(), B3, seed=RngSeed(12))
        assert a.outcome == b.outcome
        np.testing.assert_array_equal(a.lambda_point.weights, b.lambda_point.weights)

    def test_degenerate_trace_collapses_to_subsimplex_then_purifies(self):
        d = standard_state_3()
        seen = set()
        seed = 0
        while seen != {0, 1}:
            trace = run_measurement(d, B3, partition=[[0], [1, 2]], seed=RngSeed(seed))
            seed += 1
            seen.add(trace.outcome)
            assert trace.labels == ("initial", "reduced", "collapsed", "purified")
            assert trace.stages[3].vector.norm == pytest.approx(1.0, abs=1e-10)
            if trace.outcome == 1:
                collapsed = trace.stages[2].density.entries
                np.testing.assert_allclose(collapsed, np.diag([0.0, 0.6, 0.4]), atol=1e-12)
                purified = trace.stages[3].density
                target = np.sqrt([0.0, 0.6, 0.4])
                np.testing.assert_allclose(purified.entries, np.outer(target, target), atol=1e-12)

    def test_degenerate_run_matches_measure_degenerate(self):
        b = random_basis(np.random.default_rng(31), 4)
        d = random_density(np.random.default_rng(32), 4)
        blocks = [[0, 3], [1], [2]]
        for s in range(20):
            trace = run_measurement(d, b, partition=blocks, seed=RngSeed(s, stream=1))
            k, post = measure_degenerate(d, b, blocks, RngSeed(s, stream=1).generator())
            assert trace.outcome == k
            np.testing.assert_array_equal(trace.stages[3].density.entries, post.entries)

    def test_degenerate_class_probabilities_are_block_sums(self):
        d = standard_state_3()
        p = born_probabilities(d, B3).weights
        blocks = ((0,), (1, 2))
        report = run_trials(d, B3, 1000, RngSeed(4), partition=blocks)
        for k, blk in enumerate(blocks):
            assert report.exact_probs.weights[k] == p[np.asarray(blk)].sum()

    def test_outcome_statistics_match_born_over_seeds(self):
        d = standard_state_3()
        counts = np.zeros(3, dtype=int)
        for seed in range(400):
            counts[run_measurement(d, B3, seed=RngSeed(seed)).outcome] += 1
        p = np.array([0.5, 0.3, 0.2])
        assert np.all(np.abs(counts / 400 - p) <= 3 * np.sqrt(p * (1 - p) / 400))

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            run_measurement(ket_to_density(Ket([1, 0])), B3, seed=RngSeed(0))

    def test_partition_is_checked_before_the_draw(self, monkeypatch):
        def refuse(seed):
            raise _Drawn

        monkeypatch.setattr(RngSeed, "generator", refuse)
        with pytest.raises(ContractError, match=r"^partition: duplicate index 0$"):
            run_measurement(standard_state_3(), B3, partition=[[0], [0, 1, 2]], seed=RngSeed(0))

    def test_mixed_input_keeps_reduced_norm_below_one(self):
        d = DensityMatrix(np.diag([0.5, 0.25, 0.25]))
        trace = run_measurement(d, B3, seed=RngSeed(5))
        assert trace.stages[0].vector.norm < 1.0 - 1e-6


def _lueders_post_state(d: DensityMatrix, kets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P D P / Tr(P D P) and P, with P = sum_a |a><a| over the rows of ``kets``."""
    proj = sum(np.outer(a, a.conj()) for a in kets)
    m = proj @ d.entries @ proj
    return m / np.trace(m).real, proj


def _check_post_state(post: np.ndarray, d: DensityMatrix, kets: np.ndarray) -> None:
    expected, proj = _lueders_post_state(d, kets)
    np.testing.assert_allclose(post, expected, rtol=0, atol=1e-11)
    np.testing.assert_allclose(proj @ post, post, rtol=0, atol=1e-11)
    np.testing.assert_allclose(post @ proj, post, rtol=0, atol=1e-11)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 6),
    seed=st.integers(0, 2**32 - 1),
    pure=st.booleans(),
    partitioned=st.booleans(),
)
def test_post_state_is_the_lueders_projection_in_a_haar_basis(n, seed, pure, partitioned):
    """The post-state of class K is P_K D P_K / Tr(P_K D P_K), P_K built here.

    In a complex basis the projector's conjugate is a different matrix, so
    a post-state built from it fails; the canonical basis cannot tell them apart.
    """
    rng = np.random.default_rng(seed)
    b = random_basis(rng, n)
    d = ket_to_density(random_ket(rng, n)) if pure else random_density(rng, n)
    if partitioned:
        cuts = np.sort(rng.choice(np.arange(1, n), size=int(rng.integers(0, n)), replace=False))
        blocks = [blk.tolist() for blk in np.split(rng.permutation(n), cuts)]
    else:
        blocks = [[i] for i in range(n)]
    for s in range(3):
        k, post = measure_degenerate(d, b, blocks, RngSeed(s).generator())
        _check_post_state(post.entries, d, b.kets[blocks[k]])
        trace = run_measurement(d, b, partition=blocks, seed=RngSeed(s))
        _check_post_state(trace.stages[3].density.entries, d, b.kets[blocks[trace.outcome]])
        # without a partition the collapse lands on the outcome's projector
        i, post = measure_once(d, b, RngSeed(s).generator())
        _check_post_state(post.entries, d, b.kets[[i]])
        trace = run_measurement(d, b, seed=RngSeed(s))
        _check_post_state(trace.stages[2].density.entries, d, b.kets[[trace.outcome]])
