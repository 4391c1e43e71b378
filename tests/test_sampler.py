import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochsim import (
    Barycentric,
    ContractError,
    DensityMatrix,
    DimensionError,
    GeometryError,
    Ket,
    MeasurementBasis,
    RngSeed,
    basis_to_simplex,
    born_probabilities,
    build_generators,
    classify,
    geometric_hit_count_oracle,
    ket_to_density,
    measure_degenerate,
    measure_once,
    merge_reports,
    purity,
    run_trials,
    sample_lambda,
    to_bloch,
    validate_partition,
)
from blochsim import sampler
from util import cm_measure, random_ket, standard_state_3

B3 = MeasurementBasis.canonical(3)
B2 = MeasurementBasis.canonical(2)


class TestRngSeed:
    def test_same_seed_same_stream_reproduces(self):
        a = RngSeed(99, stream=2).generator().exponential(size=8)
        b = RngSeed(99, stream=2).generator().exponential(size=8)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        a = RngSeed(99, stream=0).generator().exponential(size=8)
        b = RngSeed(99, stream=1).generator().exponential(size=8)
        assert not np.array_equal(a, b)

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
        s = basis_to_simplex(B3, build_generators(3))
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
        s = basis_to_simplex(B3, build_generators(3))
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


class TestRunTrials:
    def test_single_trial(self):
        report = run_trials(standard_state_3(), B3, 1, RngSeed(0))
        assert report.n_trials == 1
        assert int(report.counts.sum()) == 1

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

    def test_merge_reports_sums_counts(self):
        parts = [
            run_trials(standard_state_3(), B3, 10000, RngSeed(5, stream=s)) for s in range(3)
        ]
        merged = merge_reports(parts)
        assert merged.n_trials == 30000
        np.testing.assert_array_equal(merged.counts, np.sum([r.counts for r in parts], axis=0))
        np.testing.assert_array_equal(
            merged.empirical_freqs, merged.counts / merged.n_trials
        )

    def test_merge_rejects_mismatched_probabilities(self):
        a = run_trials(standard_state_3(), B3, 100, RngSeed(1))
        b = run_trials(B3.projector(0), B3, 100, RngSeed(1))
        with pytest.raises(ContractError):
            merge_reports([a, b])


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


class TestLeanKernel:
    """The unnormalised, support-only trial loop against the normalising rule."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(p=_born_vectors(), offset=st.sampled_from([-1, 0, 1]), seed=st.integers(0, 2**32))
    def test_counts_match_the_normalising_rule_across_a_chunk_boundary(self, p, offset, seed):
        n = p.size
        d = DensityMatrix(np.diag(p).astype(complex))
        b = MeasurementBasis.canonical(n)
        np.testing.assert_array_equal(born_probabilities(d, b).weights, p)
        n_trials = sampler._CHUNK_ELEMS // n + offset

        report = run_trials(d, b, n_trials, RngSeed(seed))
        lam, outcomes = _normalising_rule(p, n_trials, RngSeed(seed))

        np.testing.assert_array_equal(report.counts, np.bincount(outcomes, minlength=n))
        assert not report.counts[p == 0].any()
        probs = Barycentric(p)
        for row in (*range(5), *range(n_trials - 5, n_trials)):
            assert classify(Barycentric(lam[row]), probs) == outcomes[row]


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
        g = build_generators(3)
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
                assert to_bloch(post, g).norm == pytest.approx(1.0, abs=1e-10)
            else:
                np.testing.assert_allclose(post.entries, B3.projector(0).entries, atol=1e-12)

    def test_pure_states_purify_for_random_partitions(self):
        rng_state = np.random.default_rng(2718)
        rng = RngSeed(2718).generator()
        g = build_generators(4)
        b = MeasurementBasis.canonical(4)
        for _ in range(50):
            d = ket_to_density(random_ket(rng_state, 4))
            _, post = measure_degenerate(d, b, [[0, 2], [1, 3]], rng)
            assert purity(post) == pytest.approx(1.0, abs=1e-10)
            assert to_bloch(post, g).norm == pytest.approx(1.0, abs=1e-10)

    def test_malformed_partition_rejected(self):
        with pytest.raises(ContractError):
            measure_degenerate(standard_state_3(), B3, [[0, 1]], RngSeed(0).generator())

    def test_zero_weight_class_is_a_contract_violation(self, monkeypatch):
        # reachable only through a broken classifier: outcome 3 has p = 0
        d = ket_to_density(Ket(np.sqrt([0.5, 0.5, 0.0])))
        monkeypatch.setattr(sampler, "classify", lambda lam, p: 2)
        with pytest.raises(ContractError, match="zero-probability class"):
            measure_degenerate(d, B3, [[0, 1], [2]], RngSeed(0).generator())


class TestGeometricOracle:
    def test_centroid_fractions(self):
        report = geometric_hit_count_oracle(
            Barycentric(np.full(3, 1 / 3)), 10**5, RngSeed(78).generator()
        )
        assert np.all(np.abs(report.fractions - 1 / 3) <= 3 * np.sqrt((1 / 3) * (2 / 3) / 10**5))
        assert int(report.counts.sum()) == 10**5
        assert report.disagreements == 0

    def test_born_weights_recovered(self):
        p = np.array([0.5, 0.3, 0.2])
        report = geometric_hit_count_oracle(Barycentric(p), 10**6, RngSeed(77).generator())
        assert np.all(np.abs(report.fractions - p) <= 3 * np.sqrt(p * (1 - p) / 10**6))

    def test_agreement_with_argmin_rule(self):
        report = geometric_hit_count_oracle(
            Barycentric([0.5, 0.3, 0.2]), 10**5, RngSeed(79).generator()
        )
        assert report.agreements == report.n_samples - report.ties
        assert report.disagreements == 0

    def test_every_sample_classified_exactly_once(self):
        report = geometric_hit_count_oracle(
            Barycentric([0.4, 0.35, 0.25]), 20000, RngSeed(80).generator()
        )
        assert int(report.counts.sum()) == report.n_samples

    def test_works_against_explicit_simplex(self):
        rng = np.random.default_rng(81)
        g = build_generators(3)
        s = basis_to_simplex(MeasurementBasis(np.linalg.qr(rng.standard_normal((3, 3)))[0]), g)
        report = geometric_hit_count_oracle(
            Barycentric([0.5, 0.3, 0.2]), 20000, RngSeed(81).generator(), simplex=s
        )
        p = np.array([0.5, 0.3, 0.2])
        assert np.all(np.abs(report.fractions - p) <= 3 * np.sqrt(p * (1 - p) / 20000))

    def test_boundary_state_point_rejected(self):
        with pytest.raises(GeometryError):
            geometric_hit_count_oracle(
                Barycentric([0.5, 0.5, 0.0]), 100, RngSeed(0).generator()
            )

    def test_cross_check_against_trial_frequencies(self):
        d = standard_state_3()
        p = born_probabilities(d, B3)
        trials = run_trials(d, B3, 10**5, RngSeed(83))
        oracle = geometric_hit_count_oracle(p, 10**5, RngSeed(83).generator())
        # same lambda stream, two independent classification routes
        np.testing.assert_array_equal(trials.counts, oracle.counts)
