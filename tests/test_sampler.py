import gc
import itertools
import sys
import threading
import tracemalloc
import warnings
from contextlib import closing, suppress

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blochsim import (
    Barycentric,
    ContractError,
    DensityMatrix,
    DimensionError,
    GeometryError,
    Ket,
    MeasurementBasis,
    OracleReport,
    RngSeed,
    TrialReport,
    basis_to_simplex,
    born_probabilities,
    classify,
    geometric_hit_count_oracle,
    ket_to_density,
    measure_degenerate,
    measure_once,
    run_measurement,
    run_trials,
    sample_lambda,
    to_bloch,
    validate_partition,
)
from blochsim import sampler
from util import (
    cm_measure,
    projector_mixture,
    purity,
    random_basis,
    random_density,
    random_ket,
    standard_state_3,
)

B3 = MeasurementBasis.canonical(3)
B2 = MeasurementBasis.canonical(2)
S3 = basis_to_simplex(B3)


class TestRngSeed:
    def test_same_seed_same_stream_reproduces(self):
        a = RngSeed(99, stream=2).generator().exponential(size=8)
        b = RngSeed(99, stream=2).generator().exponential(size=8)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        a = RngSeed(99, stream=0).generator().exponential(size=8)
        b = RngSeed(99, stream=1).generator().exponential(size=8)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed,stream", [(0, 0), (99, 2), (2**64 - 1, 7)])
    def test_generator_is_default_rng_of_the_spawned_seed_sequence(self, seed, stream):
        ours = RngSeed(seed, stream).generator()
        ref = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))
        np.testing.assert_array_equal(ours.standard_exponential(64), ref.standard_exponential(64))
        np.testing.assert_array_equal(ours.random(8), ref.random(8))

    def test_seed_range_enforced(self):
        with pytest.raises(ContractError):
            RngSeed(-1)
        with pytest.raises(ContractError):
            RngSeed(2**64)
        with pytest.raises(ContractError):
            RngSeed(0, stream=-1)

class TestSampleLambda:
    def test_two_outcome_point_is_a_complementary_pair(self):
        rng = RngSeed(3).generator()
        for _ in range(100):
            lam = sample_lambda(2, rng)
            assert lam.weights[0] + lam.weights[1] == pytest.approx(1.0, abs=1e-15)
            assert 0.0 <= lam.weights[0] <= 1.0

    def test_uniform_mean_over_triangle(self):
        # Dirichlet(1,1,1) coordinate mean is 1/3; per-coordinate sd over
        # 10^6 samples is sqrt(1/18)/1000, so 3 sigma is within 0.0008
        rng = RngSeed(12345).generator()
        draws = rng.exponential(size=(10**6, 3))
        lam = draws / draws.sum(axis=1, keepdims=True)
        assert np.max(np.abs(lam.mean(axis=0) - 1 / 3)) <= 0.0008

    def test_corner_subtriangle_fraction(self):
        # the region b_1 > 1/2 is the corner triangle on vertex n_1 with
        # both incident edges halved; its area ratio, by the independent
        # Cayley-Menger oracle, is 1/4
        s = basis_to_simplex(B3)
        corner = np.array(
            [s.vertices[0], (s.vertices[0] + s.vertices[1]) / 2, (s.vertices[0] + s.vertices[2]) / 2]
        )
        ratio = cm_measure(corner) / s.total_measure
        assert ratio == pytest.approx(0.25, abs=1e-12)

        rng = RngSeed(12345).generator()
        draws = rng.exponential(size=(10**6, 3))
        lam = draws / draws.sum(axis=1, keepdims=True)
        frac = float((lam[:, 0] > 0.5).mean())
        assert abs(frac - 0.25) <= 3 * np.sqrt(0.25 * 0.75 / 10**6)

    def test_rejects_dim_one(self):
        with pytest.raises(DimensionError):
            sample_lambda(1, RngSeed(0).generator())

    @pytest.mark.parametrize("n", [2, 3, 8, 32])
    def test_matches_a_row_of_the_block_sampler_bit_for_bit(self, n):
        # the block sampler, normalised as the oracle does it, is the
        # reference: same draws, same quotients
        shot, block = RngSeed(n).generator(), RngSeed(n).generator()
        for _ in range(500):
            lam = sample_lambda(n, shot).weights
            row = next(sampler._exponential_rows(n, 1, block, 1))
            row /= row.sum(axis=1, keepdims=True)
            np.testing.assert_array_equal(lam, row[0])


class TestClassify:
    def test_lambda_at_state_point_ties_to_first(self):
        p = Barycentric([0.5, 0.3, 0.2])
        assert classify(p, p) == 0

    def test_uniform_state_reduces_to_argmin(self):
        p = Barycentric(np.full(3, 1 / 3))
        assert classify(Barycentric([0.7, 0.2, 0.1]), p) == 2

    def test_worked_example_with_hull_confirmation(self):
        p = Barycentric([0.5, 0.3, 0.2])
        lam = Barycentric([0.2, 0.5, 0.3])
        ratios = lam.weights / p.weights
        np.testing.assert_allclose(ratios, [0.4, 5 / 3, 1.5], atol=1e-15)
        assert classify(lam, p) == 0

        # brute-force: lambda must be a convex combination of {n_2, n_3, rpar}
        s = basis_to_simplex(B3)
        x = lam.weights @ s.vertices
        cols = np.column_stack([s.vertices[1], s.vertices[2], p.weights @ s.vertices])
        system = np.vstack([cols, np.ones(3)])
        coeffs, *_ = np.linalg.lstsq(system, np.concatenate([x, [1.0]]), rcond=None)
        assert np.all(coeffs >= -1e-10)

    def test_vertex_state_is_deterministic(self):
        p = Barycentric([0.0, 1.0, 0.0])
        rng = RngSeed(8).generator()
        for _ in range(50):
            assert classify(sample_lambda(3, rng), p) == 1

    def test_zero_probability_outcome_never_selected(self):
        p = Barycentric([0.5, 0.5, 0.0])
        rng = RngSeed(8).generator()
        outcomes = {classify(sample_lambda(3, rng), p) for _ in range(2000)}
        assert 2 not in outcomes

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            classify(Barycentric([0.5, 0.5]), Barycentric([0.5, 0.3, 0.2]))


class TestMeasureOnce:
    def test_eigenstate_always_yields_its_outcome(self):
        d = B3.projector(1)
        rng = RngSeed(4).generator()
        for _ in range(50):
            outcome, post = measure_once(d, B3, rng)
            assert outcome == 1
            np.testing.assert_allclose(post.entries, d.entries, atol=1e-15)

    def test_post_state_is_the_outcome_projector(self):
        rng = RngSeed(13).generator()
        outcome, post = measure_once(standard_state_3(), B3, rng)
        np.testing.assert_allclose(post.entries, B3.projector(outcome).entries, atol=1e-15)

    def test_loop_frequencies_near_born(self):
        p = np.array([0.5, 0.3, 0.2])
        rng = RngSeed(55).generator()
        counts = np.zeros(3, dtype=int)
        for _ in range(2000):
            counts[measure_once(standard_state_3(), B3, rng)[0]] += 1
        dev = np.abs(counts / 2000 - p)
        assert np.all(dev <= 3 * np.sqrt(p * (1 - p) / 2000))

    def test_stream_matches_batched_trials(self):
        # the batched trial loop and repeated single measurements consume
        # the generator identically, which the exact-reproduction
        # guarantees rely on
        report = run_trials(standard_state_3(), B3, 500, RngSeed(91))
        rng = RngSeed(91).generator()
        counts = np.zeros(3, dtype=np.int64)
        for _ in range(500):
            counts[measure_once(standard_state_3(), B3, rng)[0]] += 1
        np.testing.assert_array_equal(report.counts, counts)

        blocks = ((0, 2), (1,))
        fused = run_trials(standard_state_3(), B3, 500, RngSeed(91), partition=blocks)
        rng = RngSeed(91).generator()
        tallies = np.zeros(2, dtype=np.int64)
        for _ in range(500):
            tallies[measure_degenerate(standard_state_3(), B3, blocks, rng)[0]] += 1
        np.testing.assert_array_equal(fused.counts, tallies)

    def test_shots_build_no_lambda(self, monkeypatch):
        # the Born weights are the only Barycentric a shot builds; the trace
        # builds one more, the lambda it returns
        built = []
        check = Barycentric.__post_init__

        def counting(self):
            check(self)
            built.append(self)

        monkeypatch.setattr(Barycentric, "__post_init__", counting)
        d = standard_state_3()
        born_probabilities(d, B3)
        per_born = len(built)
        built.clear()
        measure_once(d, B3, RngSeed(5).generator())
        measure_degenerate(d, B3, [[0, 2], [1]], RngSeed(5).generator())
        assert len(built) == 2 * per_born
        built.clear()
        trace = run_measurement(d, B3, seed=RngSeed(5))
        assert len(built) == per_born + 1
        assert built[-1] is trace.lambda_point


#: Dims 2..12, where run_trials races the columns, and 32, where a full support takes the argmin.
SHOT_DIMS = st.one_of(st.integers(2, 12), st.just(32))


def _shot_state(rng: np.random.Generator, b: MeasurementBasis, kind: str) -> DensityMatrix:
    n = b.dim
    if kind == "pure":
        return ket_to_density(random_ket(rng, n))
    if kind == "mixed":
        return random_density(rng, n)
    # a mixture of some basis states, down to a vertex: the others have Born
    # weight zero, exactly in the canonical basis and to rounding in others
    weights = rng.exponential(size=n) * (rng.random(n) < 0.5)
    weights[rng.integers(n)] += 1.0
    return projector_mixture(b, weights / weights.sum())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=SHOT_DIMS,
    canonical=st.booleans(),
    kind=st.sampled_from(["pure", "mixed", "zero weights"]),
    partitioned=st.booleans(),
    seed=st.integers(0, 2**64 - 1),
)
def test_a_shot_is_one_trial(n, canonical, kind, partitioned, seed):
    """Each shot races the row a one-trial run_trials draws, and the trace's
    lambda is that row normalised as sample_lambda normalises it."""
    rng = np.random.default_rng(seed)
    b = MeasurementBasis.canonical(n) if canonical else random_basis(rng, n)
    d = _shot_state(rng, b, kind)
    partition = None
    if partitioned:
        cuts = np.sort(rng.choice(np.arange(1, n), size=int(rng.integers(0, n)), replace=False))
        partition = [blk.tolist() for blk in np.split(rng.permutation(n), cuts)]
    s = RngSeed(seed)

    i, _ = measure_once(d, b, s.generator())
    assert run_trials(d, b, 1, s).counts[i] == 1
    k, _ = measure_degenerate(d, b, partition or [[j] for j in range(n)], s.generator())
    assert run_trials(d, b, 1, s, partition).counts[k] == 1
    trace = run_measurement(d, b, partition, seed=s)
    assert trace.outcome == (i if partition is None else k)
    lam = sample_lambda(n, s.generator()).weights
    assert np.array_equal(trace.lambda_point.weights.view(np.uint64), lam.view(np.uint64))


class TestRunTrials:
    def test_single_trial(self):
        report = run_trials(standard_state_3(), B3, 1, RngSeed(0))
        assert report.n_trials == 1
        assert int(report.counts.sum()) == 1

    @pytest.mark.parametrize("w,draws", [(1e-300, False), (5e-300, True)])
    def test_negligible_weight_is_zero_for_the_draw(self, monkeypatch, w, draws):
        # NEGLIGIBLE_WEIGHT = 1e-300: a weight at it leaves one outcome in
        # the support, so nothing is drawn; five times it is a second outcome
        streams = []
        rows = sampler._exponential_rows
        monkeypatch.setattr(sampler, "_exponential_rows", lambda *args: streams.append(args) or rows(*args))
        d = DensityMatrix(np.diag([1.0 - w, w]))
        report = run_trials(d, B2, 1000, RngSeed(3))
        assert report.exact_probs.weights.tolist() == [1.0, w]
        assert report.counts.tolist() == [1000, 0]
        assert len(streams) == int(draws)

    def test_deterministic_given_seed(self):
        a = run_trials(standard_state_3(), B3, 20000, RngSeed(17))
        b = run_trials(standard_state_3(), B3, 20000, RngSeed(17))
        np.testing.assert_array_equal(a.counts, b.counts)
        assert a.chi_square == b.chi_square
        assert a.max_abs_deviation == b.max_abs_deviation

    def test_qubit_equal_superposition(self):
        d = ket_to_density(Ket([1, 1] / np.sqrt(2)))
        report = run_trials(d, B2, 10**6, RngSeed(42))
        np.testing.assert_allclose(report.exact_probs.weights, [0.5, 0.5], atol=1e-15)
        assert report.max_abs_deviation <= 0.0015  # 3 sigma at p = 1/2

    def test_qubit_three_quarters_momentum(self):
        theta = np.pi / 3
        d = ket_to_density(Ket([np.cos(theta / 2), np.sin(theta / 2)]))
        report = run_trials(d, B2, 10**6, RngSeed(21))
        np.testing.assert_allclose(report.exact_probs.weights, [0.75, 0.25], atol=1e-12)
        assert report.max_abs_deviation <= 3 * np.sqrt(0.75 * 0.25 / 10**6)

    def test_binomial_rate_across_sizes(self):
        p = np.array([0.5, 0.3, 0.2])
        for n in (10**3, 10**4, 10**5):
            report = run_trials(standard_state_3(), B3, n, RngSeed(31))
            assert np.all(np.abs(report.empirical_freqs - p) <= 3 * np.sqrt(p * (1 - p) / n))

    def test_chi_square_quantile_over_many_seeds(self):
        # 99.9% quantile of chi^2 with 2 dof is 13.8; at most 1% of seeded
        # runs may exceed it (these 200 seeds were verified to all pass)
        over = sum(
            run_trials(standard_state_3(), B3, 10**4, RngSeed(seed)).chi_square >= 13.8
            for seed in range(1000, 1200)
        )
        assert over <= 2

    def test_zero_probability_outcome_stays_empty(self):
        d = ket_to_density(Ket([np.sqrt(0.5), np.sqrt(0.5), 0.0]))
        report = run_trials(d, B3, 50000, RngSeed(23))
        assert report.counts[2] == 0
        assert report.exact_probs.weights[2] == 0.0

    def test_rejects_nonpositive_trials(self):
        with pytest.raises(ContractError):
            run_trials(standard_state_3(), B3, 0, RngSeed(0))

    def test_singleton_partition_reproduces_plain_run_exactly(self):
        plain = run_trials(standard_state_3(), B3, 30000, RngSeed(29))
        split = run_trials(standard_state_3(), B3, 30000, RngSeed(29), partition=[[0], [1], [2]])
        np.testing.assert_array_equal(plain.counts, split.counts)
        np.testing.assert_array_equal(plain.exact_probs.weights, split.exact_probs.weights)

    def test_partition_fuses_counts_exactly(self):
        plain = run_trials(standard_state_3(), B3, 30000, RngSeed(37))
        fused = run_trials(standard_state_3(), B3, 30000, RngSeed(37), partition=[[0], [1, 2]])
        assert fused.counts[0] == plain.counts[0]
        assert fused.counts[1] == plain.counts[1] + plain.counts[2]
        p = plain.exact_probs.weights
        assert fused.exact_probs.weights[1] == p[[1, 2]].sum()
        # one block is the 0-simplex: one class, every trial in it
        whole = run_trials(standard_state_3(), B3, 30000, RngSeed(37), partition=[[0, 1, 2]])
        np.testing.assert_array_equal(whole.counts, [30000])
        assert whole.exact_probs.weights.tolist() == [p[[0, 1, 2]].sum()]
        assert whole.chi_square == whole.max_abs_deviation == 0.0

    def test_malformed_partition_rejected_before_any_draw(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("built a generator or drew trials")

        monkeypatch.setattr(sampler, "_exponential_rows", no_draws)
        monkeypatch.setattr(RngSeed, "generator", no_draws)
        with pytest.raises(ContractError, match="partition: duplicate index 0"):
            run_trials(standard_state_3(), B3, 10**7, RngSeed(1), partition=[[0], [0]])

        # a vertex state has one outcome of positive weight: nothing to draw
        for n, i in ((2, 1), (3, 0), (32, 17)):
            d = DensityMatrix(np.diag(np.eye(n)[i]).astype(complex))
            b = MeasurementBasis.canonical(n)
            np.testing.assert_array_equal(born_probabilities(d, b).weights, np.eye(n)[i])
            report = run_trials(d, b, 10**7 + 1, RngSeed(1))
            np.testing.assert_array_equal(report.counts, (10**7 + 1) * np.eye(n, dtype=np.int64)[i])
            blocks = [list(range(n - 1, -1, -2)), list(range(n - 2, -1, -2))]
            report = run_trials(d, b, 5, RngSeed(1), partition=blocks)
            np.testing.assert_array_equal(report.counts, [5 * (i in blk) for blk in blocks])

        # a support of two outcomes inside one class: nothing to draw either
        for n in (3, 32):
            d = ket_to_density(Ket(np.sqrt(np.r_[0.5, 0.5, np.zeros(n - 2)])))
            report = run_trials(d, MeasurementBasis.canonical(n), 10**7, RngSeed(1),
                                partition=[[0, 1], list(range(2, n))])
            np.testing.assert_array_equal(report.counts, [10**7, 0])

    @pytest.mark.parametrize(
        "make",
        [
            lambda c: TrialReport(3, Barycentric([0.5, 0.5]), c),
            lambda c: OracleReport(3, c, ties=0, disagreements=0),
        ],
        ids=["trial", "oracle"],
    )
    def test_reports_copy_the_callers_counts(self, make):
        counts = np.array([1, 2], dtype=np.int64)
        report = make(counts)
        assert counts.flags.writeable and not report.counts.flags.writeable
        assert not np.shares_memory(counts, report.counts)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: TrialReport(3, Barycentric([0.5, 0.5]), [5, -2]),
            lambda: OracleReport(3, [5, -2], ties=0, disagreements=0),
            lambda: OracleReport(3, [[1, 2]], ties=0, disagreements=0),
            lambda: OracleReport(0, [], ties=0, disagreements=0),
            lambda: OracleReport(3, [1, 2], ties=-5, disagreements=0),
            lambda: OracleReport(3, [1, 2], ties=0, disagreements=-1),
            lambda: OracleReport(3, [1, 2], ties=0, disagreements=7),
            lambda: OracleReport(3, [1, 2], ties=4, disagreements=0),
            lambda: TrialReport(0, Barycentric([0.5, 0.5]), [0, 0]),
            lambda: OracleReport(0, [0, 0], ties=0, disagreements=0),
            lambda: TrialReport(True, Barycentric([0.5, 0.5]), [1, 0]),
            lambda: TrialReport(2.0, Barycentric([0.5, 0.5]), [1, 1]),
            lambda: OracleReport(2.0, [1, 1], ties=0, disagreements=0),
            lambda: OracleReport(2, [1, 1], ties=0.5, disagreements=0),
            lambda: OracleReport(2, [1, 1], ties=0, disagreements=True),
            lambda: TrialReport(10, Barycentric([1.0, 0.0]), [9, 1]),
            lambda: TrialReport(10, Barycentric([1 + 5e-13, -5e-13]), [9, 1]),
        ],
        ids=[
            "trial-negative-count",
            "oracle-negative-count",
            "oracle-2d-counts",
            "oracle-empty-counts",
            "oracle-negative-ties",
            "oracle-negative-disagreements",
            "oracle-disagreements-above-samples",
            "oracle-ties-above-samples",
            "trial-zero-trials",
            "oracle-zero-samples",
            "trial-bool-trials",
            "trial-float-trials",
            "oracle-float-samples",
            "oracle-float-ties",
            "oracle-bool-disagreements",
            "trial-count-on-zero-probability",
            "trial-count-on-negative-rounding-probability",
        ],
    )
    def test_reports_reject_impossible_counts(self, make):
        with pytest.raises(ContractError):
            make()

    @pytest.mark.parametrize("n", [2, 32])
    def test_peak_memory_stays_within_two_blocks(self, n):
        # the two draw buffers, the block being classified and the one
        # being filled (256 KiB each), and, at n = 2, the two ratio columns
        # of the race (128 KiB each), at n = 32 the block's ratios (256 KiB)
        p = np.arange(1, n + 1) / (n * (n + 1) / 2)
        d = DensityMatrix(np.diag(p).astype(complex))
        b = MeasurementBasis.canonical(n)
        run_trials(d, b, 1, RngSeed(n))  # the modules numpy imports on a first draw
        tracemalloc.start()
        try:
            run_trials(d, b, 200_000, RngSeed(n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 2**20


def _normalising_rule(p: np.ndarray, n_trials: int, seed: RngSeed):
    """Rows on the simplex and their outcomes under the normalising rule.

    One draw of all rows, each normalised by its sum, b_j / p_j with +inf
    where p_j = 0, argmin per row.
    """
    lam = seed.generator().exponential(size=(n_trials, p.size))
    lam /= lam.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        outcomes = np.argmin(np.where(p > 0, lam / p, np.inf), axis=1)
    return lam, outcomes


@st.composite
def _born_vectors(draw):
    """A Born vector of length 2..32 with some zero entries and at least one positive."""
    n = draw(st.integers(2, 32))
    w = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
    zeros = draw(st.lists(st.integers(0, n - 1), max_size=n - 1, unique=True))
    w[zeros] = 0.0
    return w / w.sum()


#: Trial counts around the first chunk boundary of run_trials, and past the second.
TRIALS = {
    "chunk-1": lambda n: sampler._CHUNK_ELEMS // n - 1,
    "chunk": lambda n: sampler._CHUNK_ELEMS // n,
    "chunk+1": lambda n: sampler._CHUNK_ELEMS // n + 1,
    "two-chunks+3": lambda n: 2 * (sampler._CHUNK_ELEMS // n) + 3,
}


#: The tally threshold on the support size: RACE - 1 positive weights is
#: the most the column race tallies, RACE the fewest that argmin tallies.
RACE = sampler._RACE_BELOW_SUPPORT


def _alternating_weights(n: int, zeros=()) -> np.ndarray:
    """Born weights proportional to 1, 2, 1, 2, ..., zero at ``zeros``."""
    w = 1.0 + np.arange(n) % 2
    w[list(zeros)] = 0.0
    return w / w.sum()


class TestLeanKernel:
    """The unnormalised, full-width trial loop against the normalising rule."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(p=_born_vectors(), trials=st.sampled_from(sorted(TRIALS)), seed=st.integers(0, 2**32))
    @example(p=_alternating_weights(RACE - 1, zeros=[1]), trials="two-chunks+3", seed=7)
    @example(p=np.full(RACE, 1 / RACE), trials="chunk+1", seed=8)
    @example(p=_alternating_weights(RACE, zeros=[0, 2]), trials="two-chunks+3", seed=9)
    @example(p=_alternating_weights(32, zeros=range(33 - RACE)), trials="chunk+1", seed=10)
    @example(p=_alternating_weights(32, zeros=range(32 - RACE)), trials="two-chunks+3", seed=11)
    def test_counts_match_the_normalising_rule_across_a_chunk_boundary(self, p, trials, seed):
        n = p.size
        d = DensityMatrix(np.diag(p).astype(complex))
        b = MeasurementBasis.canonical(n)
        np.testing.assert_array_equal(born_probabilities(d, b).weights, p)
        n_trials = TRIALS[trials](n)

        report = run_trials(d, b, n_trials, RngSeed(seed))
        lam, outcomes = _normalising_rule(p, n_trials, RngSeed(seed))

        np.testing.assert_array_equal(report.counts, np.bincount(outcomes, minlength=n))
        assert not report.counts[p == 0].any()
        probs = Barycentric(p)
        for row in (*range(5), *range(n_trials - 5, n_trials)):
            assert classify(Barycentric(lam[row]), probs) == outcomes[row]


def _support_kernel(blocks, pw: np.ndarray) -> np.ndarray:
    """The trial loop before the full-width ratio rule: support gather, argmin, bincount."""
    counts = np.zeros(pw.size, dtype=np.int64)
    for draws in blocks:
        sup = np.flatnonzero(pw > 0.0)
        if sup.size == pw.size:
            ratios = draws / pw
        else:
            ratios = draws[..., sup] / pw[sup]
        counts[sup] += np.bincount(np.argmin(ratios, axis=1), minlength=sup.size)
    return counts


def _dyadic_weights(rng, n: int, zeros) -> np.ndarray:
    """Born weights k_j / 256, so that (c p_j) / p_j == c exactly for c in 2^-6 Z.

    ``zeros`` is False (no zero weight), True (n // 3 of them) or the
    number of positive weights.
    """
    w = np.zeros(n)
    if zeros is False:
        sup = np.arange(n)
    else:
        sup = rng.permutation(n)[: max(1, n - n // 3) if zeros is True else zeros]
    w[sup] = 1 + rng.multinomial(256 - sup.size, np.full(sup.size, 1 / sup.size))
    return w / 256


def _planted_rows(rng, p: np.ndarray, rows: int):
    """Exponential rows whose minimal ratio E_j / p_j is shared by a random set
    of support columns, with their winners, the smallest index of that set.

    Every fourth row plants the tie at E_j = 0.0; half the zero-weight
    entries are drawn as 0.0 as well.
    """
    sup = np.flatnonzero(p > 0.0)
    lam = rng.exponential(size=(rows, p.size))
    winners = np.empty(rows, dtype=np.intp)
    for r in range(rows):
        tied = rng.choice(sup, size=rng.integers(min(2, sup.size), sup.size + 1), replace=False)
        low = 64 * np.min(lam[r, sup] / p[sup])
        c = 0.0 if r % 4 == 0 or low < 1 else (np.ceil(low) - 1) / 64
        lam[r, tied] = c * p[tied]
        winners[r] = tied.min()
    off = p == 0.0
    lam[:, off] = np.where(rng.random((rows, int(off.sum()))) < 0.5, 0.0, lam[:, off])
    return lam, winners


class FailingRng:
    """Draws of one generator until its ``fail_at``-th fill, which raises MemoryError."""

    def __init__(self, fail_at: int):
        self.rng = np.random.default_rng(0)
        self.fills = 0
        self.fail_at = fail_at

    def standard_exponential(self, out):
        self.fills += 1
        if self.fills == self.fail_at:
            raise MemoryError("planted fill failure")
        return self.rng.standard_exponential(out=out)


class TestExponentialRows:
    """The block pipeline: one stream, one helper thread, joined on every exit."""

    @pytest.mark.parametrize("n", [2, 8, 32])
    @pytest.mark.parametrize("extra", [-1, 0, 1, "2rows+1"])
    def test_blocks_concatenate_to_one_draw(self, n, extra):
        rows = sampler._block_rows(n)
        count = 2 * rows + 1 if extra == "2rows+1" else rows + extra
        rng, serial = RngSeed(n).generator(), RngSeed(n).generator()
        blocks = [block.copy() for block in sampler._exponential_rows(n, count, rng, rows)]
        assert all(0 < len(block) <= rows for block in blocks)
        np.testing.assert_array_equal(np.concatenate(blocks), serial.standard_exponential(size=(count, n)))
        # nothing drawn past count: the stream goes on where a serial fill leaves it
        assert rng.standard_exponential() == serial.standard_exponential()

    def test_one_block_starts_no_thread_and_more_start_one(self):
        baseline = threading.active_count()
        for _ in sampler._exponential_rows(4, 100, RngSeed(1).generator(), 100):
            assert threading.active_count() == baseline
        for _ in sampler._exponential_rows(4, 201, RngSeed(1).generator(), 100):
            # the helper waits at the barrier until the last block is filled
            assert threading.active_count() in (baseline, baseline + 1)
        assert threading.active_count() == baseline
        blocks = sampler._exponential_rows(4, 300, RngSeed(1).generator(), 100)
        next(blocks)  # the helper holds the filled second block at the barrier
        assert threading.active_count() == baseline + 1
        blocks.close()
        assert threading.active_count() == baseline

    def test_the_handover_holds_under_contention(self):
        # four pipelines at once, eight threads on the host's cores, and
        # the interpreter switching between them as often as it can
        results = {}

        def drain(seed):
            stream = sampler._exponential_rows(3, 1000, RngSeed(seed).generator(), 7)
            results[seed] = np.concatenate([block.copy() for block in stream])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=drain, args=(seed,)) for seed in range(4)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
            assert not any(worker.is_alive() for worker in workers)
        finally:
            sys.setswitchinterval(interval)
        for seed in range(4):
            want = RngSeed(seed).generator().standard_exponential(size=(1000, 3))
            np.testing.assert_array_equal(results[seed], want)

    @pytest.mark.parametrize("taken", [1, 2, 3])  # the helper then waits after either buffer
    def test_a_consumer_that_stops_early_joins_the_helper(self, taken):
        baseline = threading.active_count()
        with closing(sampler._exponential_rows(4, 10_000, RngSeed(1).generator(), 100)) as stream:
            for _ in itertools.islice(stream, taken):
                pass
        assert threading.active_count() == baseline

    @pytest.mark.parametrize("fail_at", [1, 2, 3])
    def test_a_fill_error_reraises_in_the_caller(self, fail_at):
        baseline = threading.active_count()
        rng = FailingRng(fail_at)
        with pytest.raises(MemoryError, match="planted"):
            for _ in sampler._exponential_rows(4, 1000, rng, 100):
                pass
        assert threading.active_count() == baseline
        assert rng.fills == fail_at  # the helper stops at its error

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data(), n=st.integers(2, 8), rows=st.integers(1, 64))
    def test_every_exit_keeps_the_stream_and_joins_the_helper(self, data, n, rows):
        count = data.draw(st.integers(1, 5 * rows), "count")
        n_blocks = -(-count // rows)
        stop = data.draw(st.integers(0, n_blocks - 1), "blocks taken before an early stop")
        fail_at = data.draw(st.integers(1, n_blocks), "the fill that raises")
        serial = np.random.default_rng(0)  # the stream of every FailingRng
        want = serial.standard_exponential(size=(count, n))
        baseline = threading.active_count()

        def drawn(blocks):
            return np.concatenate([want[:0], *blocks])

        rng = FailingRng(0)  # fills are numbered from 1: none fails
        full = [block.copy() for block in sampler._exponential_rows(n, count, rng, rows)]
        assert threading.active_count() == baseline
        np.testing.assert_array_equal(drawn(full), want)
        assert rng.rng.standard_exponential() == serial.standard_exponential()

        with closing(sampler._exponential_rows(n, count, FailingRng(0), rows)) as stream:
            taken = [block.copy() for block in itertools.islice(stream, stop)]
        assert threading.active_count() == baseline
        np.testing.assert_array_equal(drawn(taken), want[: stop * rows])

        taken = []
        with pytest.raises(MemoryError, match="planted"):
            for block in sampler._exponential_rows(n, count, FailingRng(fail_at), rows):
                taken.append(block.copy())
        assert threading.active_count() == baseline
        # never the block whose fill failed; one block sooner when the
        # helper's abort overtakes the caller's wake-up from the barrier
        assert fail_at - 2 <= len(taken) < fail_at
        np.testing.assert_array_equal(drawn(taken), want[: len(taken) * rows])

    @pytest.mark.parametrize("fail_at", [0, 2, 3])  # no fill error, the helper's first, a later one
    def test_no_cycle_holds_the_buffers(self, fail_at):
        # neither a stored fill error nor the error of a barrier broken on
        # the way out may tie the helper's frame, and with it both buffers,
        # in a cycle that only the collector frees
        gc.collect()
        gc.disable()
        try:
            for _ in range(50):
                with suppress(MemoryError):
                    for _ in sampler._exponential_rows(2, 40, FailingRng(fail_at), 10):
                        pass
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("n", [3, 32])  # the column race and the argmin tally
    def test_run_trials_joins_the_helper_on_every_exit(self, n, monkeypatch):
        p = np.arange(1, n + 1) / (n * (n + 1) / 2)
        d = DensityMatrix(np.diag(p).astype(complex))
        b = MeasurementBasis.canonical(n)
        count = 3 * sampler._block_rows(n) + 1
        baseline = threading.active_count()
        run_trials(d, b, count, RngSeed(n))
        assert threading.active_count() == baseline
        monkeypatch.setattr(RngSeed, "generator", lambda self: FailingRng(2))
        with pytest.raises(MemoryError, match="planted"):
            run_trials(d, b, count, RngSeed(n))
        assert threading.active_count() == baseline


class TestPlantedRows:
    """Exact ties and exact 0.0 draws, on both sides of the tally threshold."""

    @pytest.mark.parametrize(
        "n, zeros",
        [
            *itertools.product([2, 3, 7, 8, 15, 16, 32], [False, True]),
            (32, RACE - 1),
            (32, RACE),
        ],
    )
    def test_ties_go_to_the_smallest_index_as_before(self, n, zeros, monkeypatch):
        rng = np.random.default_rng(100 * n + zeros)
        p = _dyadic_weights(rng, n, zeros)
        d = DensityMatrix(np.diag(p).astype(complex))
        b = MeasurementBasis.canonical(n)
        np.testing.assert_array_equal(born_probabilities(d, b).weights, p)
        lam, winners = _planted_rows(rng, p, 400)
        blocks = (lam[:250], lam[250:])

        def planted(dim, count, rng, rows):
            assert (dim, count) == (n, len(lam))
            for block in blocks:
                yield block.copy()

        monkeypatch.setattr(sampler, "_exponential_rows", planted)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_trials(d, b, len(lam), RngSeed(0))
            ratios = sampler._ratios(lam, p)

        np.testing.assert_array_equal(report.counts, _support_kernel(blocks, p))
        np.testing.assert_array_equal(report.counts, np.bincount(winners, minlength=n))
        np.testing.assert_array_equal(np.argmin(ratios, axis=1), winners)
        assert np.isposinf(ratios[:, p == 0.0]).all() and np.isfinite(ratios[:, p > 0.0]).all()


class TestPartitionValidation:
    def test_accepts_valid_partition(self):
        assert validate_partition([[2, 0], [1]], 3) == ((2, 0), (1,))

    @pytest.mark.parametrize(
        "bad",
        [
            [[0], [1, 1]],
            [[0], [1]],
            [[0], [1], [2], [3]],
            [[0], []],
            [],
            [[0], [1.5, 2]],
            [[True], [0, 2]],
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ContractError):
            validate_partition(bad, 3)

    def test_missing_labels_are_named_briefly(self):
        with pytest.raises(ContractError, match=r"^partition: does not cover outcomes \[1, 2, 3, 4, 5\]$"):
            validate_partition([[0]], 6)
        # the message and the work are bounded, whatever the outcome count
        for n in (8, 10**6, 2**40):
            with pytest.raises(ContractError) as exc:
                validate_partition([[0], [2]], n)
            assert str(exc.value) == f"partition: does not cover {n - 2} outcomes, first [1, 3, 4, 5, 6]"
            assert len(str(exc.value)) < 200


class TestMeasureDegenerate:
    def test_singletons_match_measure_once_streamwise(self):
        for seed in range(6):
            a = measure_once(standard_state_3(), B3, RngSeed(seed).generator())
            b = measure_degenerate(
                standard_state_3(), B3, [[0], [1], [2]], RngSeed(seed).generator()
            )
            assert a[0] == b[0]
            np.testing.assert_allclose(a[1].entries, b[1].entries, atol=1e-12)

    def test_single_block_is_the_identity_measurement(self):
        d = standard_state_3()
        k, post = measure_degenerate(d, B3, [[0, 1, 2]], RngSeed(2).generator())
        assert k == 0
        np.testing.assert_allclose(post.entries, d.entries, atol=1e-12)

    def test_lueders_post_state_for_fused_block(self):
        d = standard_state_3()
        rng = RngSeed(5).generator()
        seen = set()
        while seen != {0, 1}:
            k, post = measure_degenerate(d, B3, [[0], [1, 2]], rng)
            seen.add(k)
            if k == 1:
                # Lueders by hand: project (sqrt .5, sqrt .3, sqrt .2) onto
                # span{a_2, a_3} and renormalize -> (0, sqrt .6, sqrt .4)
                target = np.sqrt([0.0, 0.6, 0.4])
                expected = np.outer(target, target)
                np.testing.assert_allclose(post.entries, expected, atol=1e-12)
                assert purity(post) == pytest.approx(1.0, abs=1e-10)
                assert to_bloch(post).norm == pytest.approx(1.0, abs=1e-10)
            else:
                np.testing.assert_allclose(post.entries, B3.projector(0).entries, atol=1e-12)

    def test_pure_states_purify_for_random_partitions(self):
        rng_state = np.random.default_rng(2718)
        rng = RngSeed(2718).generator()
        b = MeasurementBasis.canonical(4)
        for _ in range(50):
            d = ket_to_density(random_ket(rng_state, 4))
            _, post = measure_degenerate(d, b, [[0, 2], [1, 3]], rng)
            assert purity(post) == pytest.approx(1.0, abs=1e-10)
            assert to_bloch(post).norm == pytest.approx(1.0, abs=1e-10)

    def test_malformed_partition_rejected(self):
        with pytest.raises(ContractError):
            measure_degenerate(standard_state_3(), B3, [[0, 1]], RngSeed(0).generator())

    def test_zero_weight_class_is_a_contract_violation(self, monkeypatch):
        # reachable only through a broken classifier: outcome 3 has p = 0
        d = ket_to_density(Ket(np.sqrt([0.5, 0.5, 0.0])))
        monkeypatch.setattr(sampler, "_winner", lambda row, weights: 2)
        with pytest.raises(ContractError, match="zero-probability class"):
            measure_degenerate(d, B3, [[0, 1], [2]], RngSeed(0).generator())


class TestGeometricOracle:
    def test_centroid_fractions(self):
        report = geometric_hit_count_oracle(
            Barycentric(np.full(3, 1 / 3)), 10**5, RngSeed(78).generator(), S3
        )
        assert np.all(np.abs(report.fractions - 1 / 3) <= 3 * np.sqrt((1 / 3) * (2 / 3) / 10**5))
        assert int(report.counts.sum()) == 10**5
        assert report.disagreements == 0

    def test_born_weights_recovered(self):
        p = np.array([0.5, 0.3, 0.2])
        report = geometric_hit_count_oracle(Barycentric(p), 10**6, RngSeed(77).generator(), S3)
        assert np.all(np.abs(report.fractions - p) <= 3 * np.sqrt(p * (1 - p) / 10**6))

    def test_agreement_with_argmin_rule(self):
        report = geometric_hit_count_oracle(
            Barycentric([0.5, 0.3, 0.2]), 10**5, RngSeed(79).generator(), S3
        )
        assert report.agreements == report.n_samples - report.ties
        assert report.disagreements == 0

    def test_every_sample_classified_exactly_once(self):
        report = geometric_hit_count_oracle(
            Barycentric([0.4, 0.35, 0.25]), 20000, RngSeed(80).generator(), S3
        )
        assert int(report.counts.sum()) == report.n_samples

    def test_works_against_explicit_simplex(self):
        rng = np.random.default_rng(81)
        s = basis_to_simplex(MeasurementBasis(np.linalg.qr(rng.standard_normal((3, 3)))[0]))
        report = geometric_hit_count_oracle(
            Barycentric([0.5, 0.3, 0.2]), 20000, RngSeed(81).generator(), simplex=s
        )
        p = np.array([0.5, 0.3, 0.2])
        assert np.all(np.abs(report.fractions - p) <= 3 * np.sqrt(p * (1 - p) / 20000))

    def test_boundary_state_point_rejected(self):
        with pytest.raises(GeometryError):
            geometric_hit_count_oracle(
                Barycentric([0.5, 0.5, 0.0]), 100, RngSeed(0).generator(), S3
            )

    def test_cross_check_against_trial_frequencies(self):
        d = standard_state_3()
        p = born_probabilities(d, B3)
        trials = run_trials(d, B3, 10**5, RngSeed(83))
        oracle = geometric_hit_count_oracle(p, 10**5, RngSeed(83).generator(), S3)
        # same lambda stream, two independent classification routes
        np.testing.assert_array_equal(trials.counts, oracle.counts)
