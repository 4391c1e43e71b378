"""Weighted symmetry breaking by uniform sampling of hidden interaction points.

Every point lambda of the measurement simplex stands for one potential
measurement interaction. Sampling lambda uniformly (Lebesgue) and asking
which sub-region A_i contains it selects outcome i; because the region
measures are proportional to the Born probabilities, the outcome
frequencies converge to them at the binomial rate.

Classification rule. Writing lambda and the on-simplex state point r_par
in barycentric coordinates b and p, membership lambda in A_i (the
sub-simplex over {n_j : j != i} union {r_par}) is equivalent to

    b_i / p_i = min_j b_j / p_j,      j ranging over the support p_j > 0:

expanding lambda = c0 r_par + sum_{j != i} c_j n_j gives c0 = b_i / p_i
and c_j = b_j - (b_i / p_i) p_j, all nonnegative exactly at the argmin.
An outcome with p_j = 0 owns a region of measure zero, so the rule
ranges over the support only and such outcomes are never selected;
their frequency is exactly zero. This O(N) rule is the production path
and is written once, in ``_ratios``; :func:`classify`,
:func:`run_trials` and the oracle's comparison all take the argmin of
its output. :func:`geometric_hit_count_oracle` re-derives membership by
brute-force convex-coefficient solves over the embedded vertices and is
kept as an independent cross-check, never replaced by the shortcut.

The exponential race. A uniform lambda is b = E / sum_k E_k with the
E_j i.i.d. unit-rate exponentials (the Dirichlet(1, ..., 1)
construction). Scaling every ratio of a row by the same positive
1 / sum_k E_k leaves the argmin unchanged, so :func:`run_trials`
classifies the raw E_j / p_j and never normalises. E_j / p_j is
exponential with rate p_j, and of independent exponentials the one
with rate p_i is the smallest with probability p_i / sum_j p_j = p_i
(the sum runs over the support): the race reproduces the Born weights
exactly. All draws come from one stream of exponentials,
``_exponential_rows``, filled into one reused buffer of
``_CHUNK_ELEMS`` elements; the values do not depend on the chunking.
``_lambda_rows`` normalises those rows for the callers that need points
on the simplex (:func:`sample_lambda`, the oracle). Skipping the
normalisation can change an outcome only where two ratios of a row
agree to within one rounding step.

Ties (boundary lambdas, measure zero) break to the smallest index.

Trial loops may be fanned out over workers holding distinct (seed,
stream) pairs; merge the per-worker reports with :func:`merge_reports`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .bloch import DensityMatrix
from .errors import ContractError, DimensionError, GeometryError, OracleInconsistencyError
from .generators import build_generators
from .simplex import (
    Barycentric,
    MeasurementBasis,
    MeasurementSimplex,
    basis_to_simplex,
    born_probabilities,
)
from .tolerances import BOUNDARY_TOL, HULL_TOL, MEMBER_TOL, TIE_BAND

#: Elements (not rows) per block of exponential draws: 2 MiB of float64,
#: so a block and its ratios stay cache-resident at every N.
_CHUNK_ELEMS = 1 << 18


def _as_integer(value, what: str) -> int:
    """``value`` as an int; a non-integer or a bool is a ContractError, not a TypeError."""
    if isinstance(value, bool):
        raise ContractError(f"{what} must be an integer, got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise ContractError(f"{what} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class RngSeed:
    """A reproducible random stream: same (seed, stream) gives the same draws.

    Distinct stream ids on one seed yield statistically independent
    sub-streams for parallel workers.
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        seed, stream = _as_integer(self.seed, "seed"), _as_integer(self.stream, "stream id")
        if not 0 <= seed < 2**64:
            raise ContractError(f"seed must be an unsigned 64-bit integer, got {seed!r}")
        if stream < 0:
            raise ContractError(f"stream id must be nonnegative, got {stream!r}")
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "stream", stream)

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream,))
        return np.random.default_rng(ss)


@dataclass(frozen=True)
class TrialReport:
    """A repeated-measurement run: its counts against the Born weights.

    ``exact_probs`` are the Born probabilities (per outcome, or per
    partition class for degenerate runs), ``counts`` the observed tallies.
    The statistics are derived from these on access:
    ``empirical_freqs`` is counts / n_trials, ``chi_square`` is computed
    against the exact probabilities over the entries with positive
    probability, and ``max_abs_deviation`` is the largest
    |frequency - probability| over all entries.
    """

    n_trials: int
    exact_probs: Barycentric
    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.shape != (self.exact_probs.dim,):
            raise DimensionError("counts do not match the probability vector")
        if int(counts.sum()) != self.n_trials:
            raise ContractError(
                f"counts sum to {int(counts.sum())}, expected n_trials = {self.n_trials}"
            )
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    @property
    def empirical_freqs(self) -> np.ndarray:
        return self.counts / self.n_trials

    @property
    def chi_square(self) -> float:
        p = self.exact_probs.weights
        positive = p > 0.0
        expected = self.n_trials * p[positive]
        return float(np.sum((self.counts[positive] - expected) ** 2 / expected))

    @property
    def max_abs_deviation(self) -> float:
        return float(np.max(np.abs(self.empirical_freqs - self.exact_probs.weights)))


@dataclass(frozen=True)
class OracleReport:
    """Hit statistics of the brute-force membership oracle.

    ``counts`` are per sub-region; ``ties`` counts samples within the
    1e-10 band of a region boundary (under either rule); ``disagreements``
    counts non-tie samples where the membership solve and the
    ratio-argmin rule picked different regions (always 0 unless the
    geometry is buggy). ``fractions`` and ``agreements`` are derived.
    """

    n_samples: int
    counts: np.ndarray
    ties: int
    disagreements: int

    @property
    def fractions(self) -> np.ndarray:
        return self.counts / self.n_samples

    @property
    def agreements(self) -> int:
        return self.n_samples - self.disagreements

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if int(counts.sum()) != self.n_samples:
            raise ContractError("oracle counts must sum to the sample count")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)


def _exponential_rows(n: int, count: int, rng: np.random.Generator):
    """Yield ``count`` rows of n unit-rate exponentials as row blocks.

    Every block is a view of one buffer that the next block overwrites;
    at most ``_CHUNK_ELEMS // n`` rows (at least one) per block. The
    values are those of ``rng.exponential(size=(count, n))``.
    """
    rows = max(1, _CHUNK_ELEMS // n)
    buf = np.empty((min(count, rows), n))
    while count > 0:
        m = min(count, rows)
        yield rng.standard_exponential(out=buf[:m])
        count -= m


def _lambda_rows(n: int, count: int, rng: np.random.Generator):
    """Yield ``count`` uniform points of the (n-1)-simplex as row blocks.

    Each row of :func:`_exponential_rows` normalized by its sum.
    """
    for draws in _exponential_rows(n, count, rng):
        yield draws / draws.sum(axis=1, keepdims=True)


def _ratios(lam: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(sup, b_j / p_j over sup)`` along the last axis, sup the support p > 0.

    The outcome is ``sup[argmin]``; ``lam`` may be unnormalized.
    """
    sup = np.flatnonzero(p > 0.0)
    if sup.size == p.size:
        # the gather lam[..., sup] copies every row: a third of the trial loop at N = 32
        return sup, lam / p
    return sup, lam[..., sup] / p[sup]


def sample_lambda(n: int, rng: np.random.Generator) -> Barycentric:
    """One interaction point, Lebesgue-uniform on the (n-1)-simplex.

    Rejection-free in any dimension; consumes the same draws as one row
    of a :func:`run_trials` chunk.
    """
    if n < 2:
        raise DimensionError(f"simplex sampling needs n >= 2, got {n}")
    return Barycentric(next(_lambda_rows(n, 1, rng))[0])


def classify(lam: Barycentric, p: Barycentric) -> int:
    """Index of the sub-region A_i containing lambda, given the state point p.

    Implements i = argmin_j b_j / p_j over the support p_j > 0, ties to
    the smallest index. When p is a vertex (one weight equal to 1) the
    result is deterministically that outcome. The sum-to-one contract on
    p is enforced by the Barycentric type.
    """
    if lam.dim != p.dim:
        raise DimensionError(f"lambda has dim {lam.dim} but p has dim {p.dim}")
    sup, ratios = _ratios(lam.weights, p.weights)
    return int(sup[np.argmin(ratios)])


def measure_once(
    d: DensityMatrix, b: MeasurementBasis, rng: np.random.Generator
) -> tuple[int, DensityMatrix]:
    """One collapse: sample lambda, classify, return (outcome, |a_i><a_i|)."""
    p = born_probabilities(d, b)
    lam = sample_lambda(d.dim, rng)
    i = classify(lam, p)
    return i, b.projector(i)


def _set_partition(partition, labels: range) -> tuple[tuple[int, ...], ...]:
    """Check that partition is a set partition of ``labels``; returns it as tuples.

    The one partition rule: nonempty blocks of integers (not bools), each
    label in exactly one block. Messages quote the labels as given (1-based
    for the CLI) and leave naming the field to the caller.
    """
    try:
        blocks = tuple(tuple(_as_integer(i, "index") for i in blk) for blk in partition)
    except TypeError as exc:
        raise ContractError(f"expected an iterable of index blocks ({exc})") from exc
    if not blocks or any(not blk for blk in blocks):
        raise ContractError("expected nonempty index blocks")
    seen: set[int] = set()
    for blk in blocks:
        for i in blk:
            if i not in labels:
                raise ContractError(f"index {i} out of range {labels.start}..{labels.stop - 1}")
            if i in seen:
                raise ContractError(f"duplicate index {i}")
            seen.add(i)
    if len(seen) != len(labels):
        raise ContractError(f"does not cover outcomes {sorted(set(labels) - seen)}")
    return blocks


def validate_partition(partition, n: int) -> tuple[tuple[int, ...], ...]:
    """Check that partition is a set partition of range(n); returns it as tuples.

    A violation is a ContractError whose message starts with
    ``partition:``, e.g. ``partition: duplicate index 1``.
    """
    try:
        return _set_partition(partition, range(n))
    except ContractError as exc:
        raise ContractError(f"partition: {exc}") from None


def _lueders(d: DensityMatrix, b: MeasurementBasis, blocks, p: Barycentric, i: int):
    """Class k of outcome i, its member outcomes and the Lueders post-state.

    The post-state is P_K D P_K / Tr(P_K D P_K), P_K the block projector.
    """
    k = next(k for k, blk in enumerate(blocks) if i in blk)
    members = np.asarray(blocks[k], dtype=np.intp)
    if float(p.weights[members].sum()) <= 0.0:
        raise ContractError("sampled a zero-probability class; classification is broken")
    kets = b.kets[members]
    proj = kets.T @ kets.conj()
    m = proj @ d.entries @ proj
    return k, members, DensityMatrix(m / float(np.trace(m).real))


def measure_degenerate(
    d: DensityMatrix,
    b: MeasurementBasis,
    partition,
    rng: np.random.Generator,
) -> tuple[int, DensityMatrix]:
    """One degenerate collapse: fused sub-regions, Lueders post-state.

    The sub-regions of the outcomes in one partition block are fused, so
    class K occurs with probability sum_{i in K} p_i, and the post-state
    is P_K D P_K / Tr(P_K D P_K) with P_K the block projector. A pure
    input yields a pure post-state (back to the sphere surface). Classes
    of zero probability are never sampled; reaching one raises
    ContractError.
    """
    blocks = validate_partition(partition, d.dim)
    p = born_probabilities(d, b)
    i = classify(sample_lambda(d.dim, rng), p)
    k, _, post = _lueders(d, b, blocks, p, i)
    return k, post


def run_trials(
    d: DensityMatrix,
    b: MeasurementBasis,
    n_trials: int,
    seed: RngSeed,
    partition=None,
) -> TrialReport:
    """Repeat the measurement n_trials times; deterministic given the seed.

    With a partition the outcomes are tallied per fused class; a
    partition of singletons consumes the identical sample stream and
    therefore reproduces the non-degenerate tallies exactly.
    """
    n_trials = _as_integer(n_trials, "n_trials")
    if n_trials < 1:
        raise ContractError(f"n_trials must be >= 1, got {n_trials}")
    p = born_probabilities(d, b)
    pw = p.weights
    k = d.dim

    counts = np.zeros(k, dtype=np.int64)
    for draws in _exponential_rows(k, n_trials, seed.generator()):
        sup, ratios = _ratios(draws, pw)
        counts[sup] += np.bincount(np.argmin(ratios, axis=1), minlength=sup.size)

    if partition is None:
        return TrialReport(n_trials, p, counts)

    blocks = validate_partition(partition, k)
    class_counts = np.array([counts[np.asarray(blk, dtype=np.intp)].sum() for blk in blocks])
    class_probs = np.array([pw[np.asarray(blk, dtype=np.intp)].sum() for blk in blocks])
    return TrialReport(n_trials, Barycentric(class_probs), class_counts)


def merge_reports(reports) -> TrialReport:
    """Combine worker reports for one experiment by summing counts."""
    reports = list(reports)
    if not reports:
        raise ContractError("cannot merge an empty collection of reports")
    probs = reports[0].exact_probs
    for r in reports[1:]:
        if not np.array_equal(r.exact_probs.weights, probs.weights):
            raise ContractError("reports to merge must share identical exact probabilities")
    counts = np.sum([r.counts for r in reports], axis=0)
    total = int(sum(r.n_trials for r in reports))
    return TrialReport(total, probs, counts)


def geometric_hit_count_oracle(
    rpar: Barycentric,
    n_samples: int,
    rng: np.random.Generator,
    simplex: MeasurementSimplex | None = None,
) -> OracleReport:
    """Brute-force hit counts over the sub-regions, bypassing the argmin rule.

    Each uniform lambda is embedded in Bloch space and tested against
    every candidate region A_i by solving for the convex coefficients
    over that region's actual vertex set {n_j : j != i} union {r_par};
    a region accepts when all coefficients are >= -1e-10. Exactly one
    region must accept away from boundaries; zero acceptances, or two
    regions claiming the sample strictly (beyond the tie band), raise
    OracleInconsistencyError. The same lambda stream is also classified
    with the production argmin rule and disagreements outside the tie
    band are counted.

    ``simplex`` defaults to the canonical-basis simplex of the matching
    dimension; the statistics are affine-invariant, so any simplex of the
    right dimension gives the same law.
    """
    n_samples = _as_integer(n_samples, "n_samples")
    if n_samples < 1:
        raise ContractError(f"n_samples must be >= 1, got {n_samples}")
    pw = rpar.weights
    if not float(pw.min()) > BOUNDARY_TOL:
        raise GeometryError("oracle requires r_par strictly inside the simplex")
    n = rpar.dim
    if simplex is None:
        simplex = basis_to_simplex(MeasurementBasis.canonical(n), build_generators(n))
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
    for lam in _lambda_rows(n, n_samples, rng):
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

        _, ratios = _ratios(lam, pw)
        argmin = np.argmin(ratios, axis=1)
        two_smallest = np.partition(ratios, 1, axis=1)
        tie_rows = (n_accept > 1) | (two_smallest[:, 1] - two_smallest[:, 0] <= TIE_BAND)

        counts += np.bincount(member, minlength=n)
        ties += int(tie_rows.sum())
        disagreements += int(np.sum(~tie_rows & (member != argmin)))

    return OracleReport(n_samples, counts, ties, disagreements)
