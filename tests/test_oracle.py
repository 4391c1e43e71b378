"""The frame-coordinate oracle gives the per-region pinv oracle's results.

``geometric_hit_count_oracle`` solves each region's convex coefficients
in the simplex's own frame, from stacked square inverses, a block of
samples at a time; a sample's frame coordinates are the vertices' frame
coordinates weighted by its barycentric lambda. The reference below is
the per-region pseudo-inverse solve over the embedded vertices that it
replaced, kept verbatim: on the same lambda stream both must report
identical counts, ties and disagreements. Unlike the reference, the
oracle reads the simplex's frame, derived from the vertices so that it
spans their affine hull; a singular region system must be an error,
raised before any sample is drawn.
"""

import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochsim import (
    Barycentric,
    MeasurementBasis,
    MeasurementSimplex,
    OracleInconsistencyError,
    RngSeed,
    basis_to_simplex,
    geometric_hit_count_oracle,
)
from blochsim import sampler
from blochsim.errors import DimensionError, GeometryError
from blochsim.simplex import _frame_systems
from blochsim.sampler import (
    OracleReport,
    _CHUNK_ELEMS,
    _argmin_and_gap,
    _as_integer,
    _block_rows,
    _exponential_rows,
    _oracle_block,
    _ratios,
)
from blochsim.tolerances import BOUNDARY_TOL, HULL_TOL, MEMBER_TOL, TIE_BAND
from util import random_basis


def reference_oracle(
    rpar: Barycentric,
    n_samples: int,
    rng: np.random.Generator,
    simplex: MeasurementSimplex,
) -> OracleReport:
    n_samples = _as_integer(n_samples, "n_samples", 1)
    pw = rpar.weights
    if not float(pw.min()) > BOUNDARY_TOL:
        raise GeometryError("oracle requires r_par strictly inside the simplex")
    n = rpar.dim
    if simplex.dim != n:
        raise DimensionError(f"simplex has dim {simplex.dim} but rpar has dim {n}")

    verts = simplex.vertices
    x_par = pw @ verts
    mats = []
    pinvs = []
    for i in range(n):
        cols = [verts[j] for j in range(n) if j != i] + [x_par]
        m_aug = np.vstack([np.column_stack(cols), np.ones((1, n))])
        mats.append(m_aug)
        pinvs.append(np.linalg.pinv(m_aug))

    counts = np.zeros(n, dtype=np.int64)
    ties = 0
    disagreements = 0
    for lam in _exponential_rows(n, n_samples, rng, _block_rows(n)):
        lam /= lam.sum(axis=1, keepdims=True)
        m = lam.shape[0]
        x_aug = np.hstack([lam @ verts, np.ones((m, 1))])

        accept = np.empty((m, n), dtype=bool)
        min_coeff = np.empty((m, n))
        for i in range(n):
            coeffs = x_aug @ pinvs[i].T
            resid = np.max(np.abs(coeffs @ mats[i].T - x_aug), axis=1)
            min_coeff[:, i] = coeffs.min(axis=1)
            accept[:, i] = (min_coeff[:, i] >= -MEMBER_TOL) & (resid <= HULL_TOL)

        n_accept = accept.sum(axis=1)
        if np.any(n_accept == 0):
            raise OracleInconsistencyError(
                "a sample point was claimed by no region; geometry is inconsistent"
            )
        strict = accept & (min_coeff > TIE_BAND)
        if np.any(strict.sum(axis=1) > 1):
            raise OracleInconsistencyError(
                "a sample point was claimed strictly by several regions; geometry is inconsistent"
            )
        member = np.argmax(accept, axis=1)

        ratios = _ratios(lam, pw)
        argmin = np.argmin(ratios, axis=1)
        two_smallest = np.partition(ratios, 1, axis=1)
        tie_rows = (n_accept > 1) | (two_smallest[:, 1] - two_smallest[:, 0] <= TIE_BAND)

        counts += np.bincount(member, minlength=n)
        ties += int(tie_rows.sum())
        disagreements += int(np.sum(~tie_rows & (member != argmin)))

    return OracleReport(n_samples, counts, ties, disagreements)


def interior_weights(rng: np.random.Generator, n: int, p_min: float) -> Barycentric:
    """Born weights with a random subset of outcomes near ``p_min``, all > 0."""
    w = rng.exponential(size=n)
    small = rng.permutation(n)[: int(rng.integers(0, n))]
    w[small] = p_min * (1.0 + rng.random(small.size))
    return Barycentric(w / w.sum())


#: Sample counts around the oracle's block and across two of the reference's draw blocks.
COUNTS = {
    "one": lambda n: 1,
    "block-1": lambda n: _oracle_block(n) - 1,
    "block": _oracle_block,
    "block+1": lambda n: _oracle_block(n) + 1,
    "two-chunks": lambda n: _CHUNK_ELEMS // n + 7,
}


def assert_same_report(n, count, seed, simplex, p):
    got = geometric_hit_count_oracle(p, count, RngSeed(seed).generator(), simplex)
    want = reference_oracle(p, count, RngSeed(seed).generator(), simplex)
    assert got.n_samples == want.n_samples == count
    np.testing.assert_array_equal(got.counts, want.counts)
    assert (got.ties, got.disagreements) == (want.ties, want.disagreements)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 12),
    count=st.sampled_from(sorted(COUNTS)),
    p_min_exp=st.floats(1.0, 6.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_matches_the_pinv_oracle(n, count, p_min_exp, seed):
    rng = np.random.default_rng(seed)
    simplex = basis_to_simplex(random_basis(rng, n))
    p = interior_weights(rng, n, 10.0**-p_min_exp)
    assert_same_report(n, COUNTS[count](n), seed, simplex, p)


@pytest.mark.parametrize("count", ["one", "block-1", "block", "block+1", "two-chunks"])
def test_matches_the_pinv_oracle_at_n32(count):
    rng = np.random.default_rng(32)
    simplex = basis_to_simplex(random_basis(rng, 32))
    p = interior_weights(rng, 32, 1e-6)
    assert_same_report(32, COUNTS[count](32), 5, simplex, p)


@pytest.mark.parametrize("n", [3, 8])
@pytest.mark.parametrize("count", sorted(COUNTS))
def test_the_stream_goes_on_where_a_serial_fill_leaves_it(n, count):
    rng = np.random.default_rng(n)
    simplex = basis_to_simplex(random_basis(rng, n))
    p = interior_weights(rng, n, 0.01)
    count = COUNTS[count](n)
    drawn, serial = RngSeed(n).generator(), RngSeed(n).generator()
    baseline = threading.active_count()
    geometric_hit_count_oracle(p, count, drawn, simplex)
    assert threading.active_count() == baseline
    serial.standard_exponential(size=(count, n))
    np.testing.assert_array_equal(drawn.standard_exponential(5), serial.standard_exponential(5))


def test_an_inconsistency_mid_stream_joins_the_helper(monkeypatch):
    rng = np.random.default_rng(3)
    simplex = basis_to_simplex(random_basis(rng, 3))
    p = interior_weights(rng, 3, 0.1)
    monkeypatch.setattr(sampler, "MEMBER_TOL", -np.inf)  # no region accepts a sample
    baseline = threading.active_count()
    with pytest.raises(OracleInconsistencyError, match="no region") as raised:
        geometric_hit_count_oracle(p, 4 * _oracle_block(3), RngSeed(3).generator(), simplex)
    # the held traceback keeps the oracle's frame alive, but not its helper thread
    assert raised.tb is not None
    assert threading.active_count() == baseline


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(2, 12), seed=st.integers(0, 2**32 - 1))
def test_column_sweep_matches_argmin_and_partition(n, seed):
    # ties are measure zero in the oracle's stream, so plant them here
    rng = np.random.default_rng(seed)
    ratios = rng.integers(0, 4, size=(500, n)) + rng.choice([0.0, 1e-11, 0.5], size=(500, n))
    argmin, gap = _argmin_and_gap(ratios)
    two_smallest = np.partition(ratios, 1, axis=1)
    np.testing.assert_array_equal(argmin, np.argmin(ratios, axis=1))
    np.testing.assert_array_equal(gap, two_smallest[:, 1] - two_smallest[:, 0])


@pytest.mark.parametrize("n", [3, 5])
def test_boundary_points_match_the_pinv_oracle(n, monkeypatch):
    # uniform samples never land on a region boundary, so plant points there:
    # (1 - t) r_par + t mu with mu_i = mu_j = 0 ties regions i and j, r_par ties all
    rng = np.random.default_rng(n)
    p = interior_weights(rng, n, 0.05)
    planted = [p.weights]
    for i in range(n):
        for j in range(i + 1, n):
            for t in rng.random(3):
                mu = rng.exponential(size=n)
                mu[[i, j]] = 0.0
                planted.append((1 - t) * p.weights + t * mu / mu.sum())
    planted = np.array(planted)

    def planted_rows(dim, count, rng, rows):
        yield planted[:count].copy()  # each caller normalises its block in place

    monkeypatch.setattr(sampler, "_exponential_rows", planted_rows)
    monkeypatch.setitem(globals(), "_exponential_rows", planted_rows)
    simplex = basis_to_simplex(random_basis(rng, n))
    assert_same_report(n, len(planted), 0, simplex, p)
    assert geometric_hit_count_oracle(p, len(planted), None, simplex).ties == len(planted)


@pytest.mark.parametrize("n", [2, 3, 8])
@pytest.mark.parametrize("switched_off", [None, "MEMBER_TOL", "TIE_BAND"])
def test_the_tolerance_table_decides_which_rows_tie(n, switched_off, monkeypatch):
    # rows whose two smallest ratios, of outcomes 0 and 1, are r and r + gap:
    # the ratio rule ties them when gap <= TIE_BAND, and region 1 claims them
    # too when its coefficient on vertex 0, -gap * p_0, reads >= -MEMBER_TOL.
    # At p_0 = 1/2 and r = 1/2 both rules tie the gap of 5e-11 and neither
    # that of 5e-10, so each tolerance is checked once more with the other
    # rule switched off. At N = 2 the state p = [1 - 1e-7, 1e-7] lies near a
    # vertex: region 1's system has condition number 2e7 and the geometry
    # reads that coefficient as -5.6e-10 at either gap, so only the ratio
    # rule ties the row, and without it nothing does.
    if n == 2:
        p = np.array([1.0 - 1e-7, 1e-7])
        simplex = basis_to_simplex(MeasurementBasis.canonical(2))
    else:
        p = np.array([0.5, 0.25, *np.full(n - 2, 0.25 / (n - 2))])
        simplex = basis_to_simplex(random_basis(np.random.default_rng(n), n))
    if switched_off:
        monkeypatch.setattr(sampler, switched_off, 0.0)
    verdicts = []
    for gap in (5e-11, 5e-10):
        if n == 2:
            r = 1.0 - gap * p[1]  # the row sums to 1
            row = np.array([r * p[0], (r + gap) * p[1]])
        else:
            row = p * (1.0 - 0.5 * p[0] - (0.5 + gap) * p[1]) / (1.0 - p[0] - p[1])
            row[:2] = 0.5 * p[0], (0.5 + gap) * p[1]

        def planted_row(dim, count, rng, rows, row=row):
            yield row[None].copy()

        monkeypatch.setattr(sampler, "_exponential_rows", planted_row)
        report = geometric_hit_count_oracle(Barycentric(p), 1, None, simplex)
        assert (report.counts[0], report.disagreements) == (1, 0)
        verdicts.append(report.ties)
    assert verdicts == ([0, 0] if (n, switched_off) == (2, "TIE_BAND") else [1, 0])


def test_a_singular_region_system_is_inconsistent(monkeypatch):
    # the simplex derives a frame that spans it, so plant a flat one at the
    # oracle's seam: at N = 2 a frame orthogonal to the one edge maps both
    # vertices to 0, and every region system is singular
    s = basis_to_simplex(MeasurementBasis.canonical(2))
    across = np.linalg.svd(s.frame)[2][1:2]

    def no_draws(*args):
        raise AssertionError("drew samples for an inconsistent simplex")

    monkeypatch.setattr(sampler, "_frame_systems", lambda v, c, f, point: _frame_systems(v, c, across, point))
    monkeypatch.setattr(sampler, "_exponential_rows", no_draws)
    with pytest.raises(OracleInconsistencyError, match="singular"):
        geometric_hit_count_oracle(Barycentric([0.3, 0.7]), 10, RngSeed(2).generator(), s)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(2, 16), p_min_exp=st.floats(1.0, 6.0), seed=st.integers(0, 2**32 - 1))
def test_classify_agrees_with_the_oracle_inside(n, p_min_exp, seed):
    rng = np.random.default_rng(seed)
    p = interior_weights(rng, n, 10.0**-p_min_exp)
    report = geometric_hit_count_oracle(
        p, 2000, RngSeed(seed).generator(), basis_to_simplex(random_basis(rng, n))
    )
    assert report.disagreements == 0
    assert report.agreements == report.n_samples


#: tracemalloc bound per N, set 0.2-0.3 MiB above the peaks of 2.17, 1.38
#: and 5.10 MiB measured with one draw buffer; the second buffer of the
#: overlapped fill takes one block of draws more (2.34, 1.45 and 5.17 MiB).
#: At N = 32 the 256-sample floor of the block holds it: two slabs of
#: 32^2 x 256 floats take 4 MiB.
PEAK_MIB = {3: 2.4, 8: 1.6, 32: 5.4}


@pytest.mark.parametrize("n, count", [(3, 100_000), (8, 30_000), (32, 2_000)])
def test_peak_memory_stays_within_the_block_bound(n, count):
    p = interior_weights(np.random.default_rng(n), n, 0.01)
    simplex = basis_to_simplex(MeasurementBasis.canonical(n))
    tracemalloc.start()
    try:
        geometric_hit_count_oracle(p, count, RngSeed(n).generator(), simplex)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < PEAK_MIB[n] * 2**20
