"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time

import numpy as np
import pytest

from blochsim import (
    DensityMatrix,
    MeasurementBasis,
    RngSeed,
    basis_to_simplex,
    born_probabilities,
    from_bloch,
    ket_to_density,
    measure_degenerate,
    project_onto_simplex,
    reduce_state,
    run_trials,
    sample_lambda,
    subregion_ratios,
    to_bloch,
)
from blochsim.generators import build_generators, verify_generator_set
from blochsim.sampler import geometric_hit_count_oracle
from util import purity, random_density, random_interior_barycentric, random_ket, standard_state_3


def _report(name: str, ok: bool, detail: str, started: float):
    elapsed = time.perf_counter() - started
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail} ({elapsed:.2f}s)")
    assert ok, f"{name}: {detail}"


def test_criterion_1_born_identity_as_measure_ratio():
    started = time.perf_counter()
    worst = 0.0
    for n in (2, 3, 4, 5):
        rng = np.random.default_rng(1000 + n)
        b = MeasurementBasis.canonical(n)
        s = basis_to_simplex(b)
        for _ in range(1000):
            d = ket_to_density(random_ket(rng, n))
            p = born_probabilities(d, b).weights
            rpar = project_onto_simplex(to_bloch(d), s)
            ratios = subregion_ratios(rpar, s)
            worst = max(worst, float(np.max(np.abs(ratios - p))))
    _report(
        "criterion 1 (Born identity, 1000 states per N in 2..5)",
        worst <= 1e-9,
        f"max |mu(A_i)/mu - p_i| = {worst:.3e} <= 1e-9",
        started,
    )


def test_criterion_2_simplex_geometry():
    started = time.perf_counter()
    worst_dot = 0.0
    for n in range(2, 7):
        s = basis_to_simplex(MeasurementBasis.canonical(n))
        dots = s.vertices @ s.vertices.T
        expected = -1 / (n - 1) + (1 + 1 / (n - 1)) * np.eye(n)
        worst_dot = max(worst_dot, float(np.max(np.abs(dots - expected))))
    s3 = basis_to_simplex(MeasurementBasis.canonical(3))
    area_resid = abs(s3.total_measure - 3 * np.sqrt(3) / 4)
    ok = worst_dot <= 1e-10 and area_resid <= 1e-10
    _report(
        "criterion 2 (simplex geometry, N in 2..6)",
        ok,
        f"max dot residual {worst_dot:.3e}, triangle measure residual {area_resid:.3e}",
        started,
    )


def test_criterion_3_monte_carlo_born_convergence():
    started = time.perf_counter()
    d = standard_state_3()
    b = MeasurementBasis.canonical(3)
    p = np.array([0.5, 0.3, 0.2])
    bound = 3 * np.sqrt(p * (1 - p) / 10**6)
    worst_ratio = 0.0
    worst_chi = 0.0
    ok = True
    for seed in (1, 2, 3, 4, 5):
        report = run_trials(d, b, 10**6, RngSeed(seed))
        dev = np.abs(report.empirical_freqs - p)
        ok = ok and bool(np.all(dev <= bound)) and report.chi_square < 13.8
        worst_ratio = max(worst_ratio, float(np.max(dev / bound)))
        worst_chi = max(worst_chi, report.chi_square)
    _report(
        "criterion 3 (MC Born convergence, 5 seeds x 1e6 trials)",
        ok,
        f"max |freq - p| / 3sigma = {worst_ratio:.3f}, max chi2 = {worst_chi:.2f} < 13.8",
        started,
    )


def test_criterion_4_classification_equivalence():
    started = time.perf_counter()
    disagreements = 0
    ties = 0
    for n, point_seed in ((3, 4000), (4, 4001)):
        rng_points = np.random.default_rng(point_seed)
        simplex = basis_to_simplex(MeasurementBasis.canonical(n))
        for k in range(20):
            rpar = random_interior_barycentric(rng_points, n)
            report = geometric_hit_count_oracle(
                rpar, 10**5, RngSeed(point_seed, stream=k).generator(), simplex=simplex
            )
            disagreements += report.disagreements
            ties += report.ties
    _report(
        "criterion 4 (argmin vs hull-membership oracle, 20 points x 1e5 at N=3,4)",
        disagreements == 0,
        f"{disagreements} disagreements outside the 1e-10 tie band ({ties} ties)",
        started,
    )


def test_criterion_5_reduction_consistency():
    started = time.perf_counter()
    worst = 0.0
    for n in (2, 3, 4, 5):
        rng = np.random.default_rng(5000 + n)
        b = MeasurementBasis.canonical(n)
        s = basis_to_simplex(b)
        for i in range(1000):
            d = ket_to_density(random_ket(rng, n)) if i % 2 else random_density(rng, n)
            reduced = to_bloch(reduce_state(d, b))
            projected = project_onto_simplex(to_bloch(d), s)
            worst = max(worst, float(np.linalg.norm(reduced.coords - projected.coords)))
    _report(
        "criterion 5 (reduction = orthogonal projection, 1000 states per N in 2..5)",
        worst <= 1e-10,
        f"max ||to_bloch(reduce) - project|| = {worst:.3e} <= 1e-10",
        started,
    )


def test_criterion_6_degenerate_lueders_suite():
    started = time.perf_counter()
    d = standard_state_3()
    b = MeasurementBasis.canonical(3)
    p = born_probabilities(d, b).weights

    blocks = ((0,), (1, 2))
    fused = run_trials(d, b, 10**5, RngSeed(61), partition=blocks)
    exact_block_sums = all(
        fused.exact_probs.weights[k] == p[np.asarray(blk)].sum() for k, blk in enumerate(blocks)
    )

    rng_states = np.random.default_rng(62)
    rng_draws = RngSeed(62).generator()
    b4 = MeasurementBasis.canonical(4)
    worst_purity = 0.0
    worst_norm = 0.0
    for _ in range(200):
        pure = ket_to_density(random_ket(rng_states, 4))
        _, post = measure_degenerate(pure, b4, [[0, 3], [1], [2]], rng_draws)
        worst_purity = max(worst_purity, abs(purity(post) - 1.0))
        worst_norm = max(worst_norm, abs(to_bloch(post).norm - 1.0))

    singleton_exact = True
    for seed in (63, 64, 65):
        plain = run_trials(d, b, 10**5, RngSeed(seed))
        split = run_trials(d, b, 10**5, RngSeed(seed), partition=[[0], [1], [2]])
        singleton_exact = singleton_exact and bool(np.array_equal(plain.counts, split.counts))

    ok = exact_block_sums and worst_purity <= 1e-10 and worst_norm <= 1e-10 and singleton_exact
    _report(
        "criterion 6 (degenerate/Lueders suite)",
        ok,
        f"block sums exact: {exact_block_sums}, max |purity-1| = {worst_purity:.3e}, "
        f"max ||r|-1| = {worst_norm:.3e}, singleton counts exact: {singleton_exact}",
        started,
    )


def test_criterion_7_generator_suite():
    started = time.perf_counter()
    worst_invariant = 0.0
    worst_casimir = 0.0
    for n in range(2, 9):
        g = build_generators(n)
        worst_invariant = max(worst_invariant, *verify_generator_set(g).values())
        total = np.einsum("kij,kjl->il", g, g)
        expected = 2.0 * (n * n - 1) / n * np.eye(n)
        worst_casimir = max(worst_casimir, float(np.max(np.abs(total - expected))))
    ok = worst_invariant <= 1e-12 and worst_casimir <= 1e-10
    _report(
        "criterion 7 (generator invariants, N in 2..8)",
        ok,
        f"max invariant residual {worst_invariant:.3e} <= 1e-12, "
        f"max Casimir residual {worst_casimir:.3e} <= 1e-10",
        started,
    )


def test_criterion_8_bloch_map_invariants():
    started = time.perf_counter()
    worst_rt = 0.0
    correspondence = True
    worst_linear = 0.0
    for n in range(2, 7):
        rng = np.random.default_rng(8000 + n)
        for i in range(1000):
            d = ket_to_density(random_ket(rng, n)) if i % 2 else random_density(rng, n)
            r = to_bloch(d)
            back = to_bloch(from_bloch(r))
            worst_rt = max(worst_rt, float(np.linalg.norm(back.coords - r.coords)))
            if i % 10 == 0:
                unit = abs(r.norm - 1.0) <= 1e-10
                pure = abs(purity(d) - 1.0) <= 1e-10
                correspondence = correspondence and (unit == pure)
        for alpha in (0.0, 0.3, 0.7, 1.0):
            d1, d2 = random_density(rng, n), random_density(rng, n)
            mix = to_bloch(DensityMatrix(alpha * d1.entries + (1 - alpha) * d2.entries))
            expected = alpha * to_bloch(d1).coords + (1 - alpha) * to_bloch(d2).coords
            worst_linear = max(worst_linear, float(np.max(np.abs(mix.coords - expected))))
    ok = worst_rt <= 1e-11 and correspondence and worst_linear <= 1e-12
    _report(
        "criterion 8 (Bloch map round-trip/purity/linearity, 1000 states per N in 2..6)",
        ok,
        f"max round-trip {worst_rt:.3e} <= 1e-11, purity<->norm equivalence: {correspondence}, "
        f"max linearity residual {worst_linear:.3e} <= 1e-12",
        started,
    )


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
