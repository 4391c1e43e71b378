"""Weighted symmetry breaking by uniform sampling of hidden interaction points.

Every point lambda of the measurement simplex stands for one potential
measurement interaction. Sampling lambda uniformly (Lebesgue) and asking
which sub-region A_i contains it selects outcome i; because the region
measures are proportional to the Born probabilities, the outcome
frequencies converge to them at the binomial rate.

Classification rule. Writing lambda and the on-simplex state point r_par
in barycentric coordinates b and p, membership lambda in A_i (the
sub-simplex over {n_j : j != i} union {r_par}) is equivalent to

    b_i / p_i = min_j b_j / p_j,      with b_j / p_j = +inf where p_j = 0:

expanding lambda = c0 r_par + sum_{j != i} c_j n_j gives c0 = b_i / p_i
and c_j = b_j - (b_i / p_i) p_j, all nonnegative exactly at the argmin.
An outcome with p_j = 0 owns a region of measure zero; its column of
ratios is +inf, which never beats the finite ratio of an outcome with
p_j >= 1/N, so such outcomes are never selected and their frequency is
exactly zero. Its column is divided by 1.0 before the +inf is written,
never by 0, so an exact 0.0 draw cannot form the NaN of 0/0. A weight at
or below ``NEGLIGIBLE_WEIGHT`` = 1e-300 counts as zero: it could win
only against a draw below 1e-297, and a subnormal one would overflow the
quotients of any draw. This O(N)
rule is the production path and is written once, in ``_ratios``; a
single row's argmin of it, ``_winner``, serves :func:`classify` and the
single shots, and the oracle's comparison and :func:`run_trials` on a
large support take the argmin of its full-width output. On a small
support :func:`run_trials` races the same quotients column by column and
never reads a zero-weight column, whose +inf could not win anyway.
:func:`geometric_hit_count_oracle` re-derives membership by brute-force
convex-coefficient solves over the embedded vertices and is kept as an
independent cross-check, never replaced by the shortcut.

The oracle's solve. ``simplex._frame_systems``, whose determinants give
the measure ratios, builds its systems: S = [vert_y; 1], vert_y the
vertices' frame coordinates, and the region systems S_i, S with column i
dropped and r_par's column appended. Because sum(lambda) = 1, a sample's
frame coordinates are vert_y . lambda, one (N-1) x N product per sample,
never a trip through R^(N^2 - 1). The simplex derives its frame from
its vertices, so the frame spans their affine hull and every sample, a
convex combination of them, lies on it up to rounding. The coefficients
of all N regions come from one product of [y; 1] with the N stacked
inverses of the S_i, each checked by its back-substitution residual. It
draws blocks of ``_ORACLE_ELEMS // N^2`` samples (2^16 / N^2), at least
``_ORACLE_MIN_BLOCK`` = 256, from ``_exponential_rows`` at that size (two
buffers of at most 256 KiB of draws each, at N = 2) and normalises each
in place. It solves a block sample axis last in two reused slabs, the
coefficients and the back-substitution: a slab takes 512 KiB up to
N = 16 and 2 MiB at N = 32, and the traced peak of a run is 2.3, 1.4 and
5.2 MiB at N = 3, 8 and 32. The ratio rule enters
only afterwards, as the route the oracle is compared with, and its
argmin and tie gap come from a sweep over the columns of ``_ratios``.
With one BLAS thread on a 2-core Xeon VM the oracle solves 5300-7900,
1700-2700 and 95-140 ksamples/s at N = 3, 8 and 32 (the range is the
host's load), about 5, 8 and 30 times the per-region pseudo-inverse
solve it replaced.

The exponential race. A uniform lambda is b = E / sum_k E_k with the
E_j i.i.d. unit-rate exponentials (the Dirichlet(1, ..., 1)
construction). Scaling every ratio of a row by the same positive
1 / sum_k E_k leaves the argmin unchanged, so :func:`run_trials`
classifies the raw E_j / p_j and never normalises. E_j / p_j is
exponential with rate p_j, and of independent exponentials the one
with rate p_i is the smallest with probability p_i / sum_j p_j = p_i
(the sum runs over the support): the race reproduces the Born weights
exactly. All draws come from one stream of exponentials and one block
generator, ``_exponential_rows``, in blocks of the caller's size:
``_CHUNK_ELEMS`` = 2^15 elements for :func:`run_trials`, one oracle block
for the oracle. Block k, a view derived from k alone, lies in buffer
k mod 2 of two reused buffers. The caller's thread fills block 0, all a
call of one block needs. A longer call overlaps the fill with the
classify: one helper thread fills block k + 1 of the same generator while
the caller classifies block k, and the two meet at one barrier before
each later block is handed over. numpy releases the GIL in the fill
and in the ufuncs of the classify, so the two run on two cores, and a
block costs about the larger of its fill and its classify rather than
their sum. The values, and so every count, depend neither on the
chunking nor on the overlap: the stream is never split, the helper
draws nothing past the call's rows and is joined before the generator
ends, so the caller's generator is left exactly where a serial fill
would leave it. :func:`run_trials` finds the support
sup = {j : p_j > 0} once per call. When sup lies inside one class (one
outcome without a partition, as for a vertex state) there is nothing to
break: only ratios of that class are finite, so one of them wins every
row, and :func:`run_trials` counts every trial for that class and builds
no generator. Below
``_RACE_BELOW_SUPPORT`` = 22 support columns it races them one column at
a time (the tally, below). From there on it takes the argmin of each
block's ``_ratios``, :func:`classify`'s rule applied to a block, and
tallies it with ``bincount``. The two buffers and the block of ratios
take 256 KiB each, the race's two ratio columns at most half as much
each, so memory peaks there: a run of any length peaks near 0.6-0.8 MiB
(tracemalloc), and the block being classified and its ratios fit the
2 MiB L2 of one core of a 2-core Xeon VM while the helper fills the
other buffer on the other core.
A single shot is one trial: it draws one row of n exponentials in one
call and races it raw with the rule of a block, so :func:`measure_once`
and :func:`measure_degenerate` build no lambda and pick the outcome a
one-trial :func:`run_trials` on the same seed counts. The oracle
normalises its blocks in place; :func:`sample_lambda`, and
:func:`~blochsim.collapse.run_measurement` for the lambda its trace
returns, divide one row by its sum, the same bits either way.
Skipping the normalisation can change an outcome only where two ratios
of a row agree to within one rounding step.

The tally. Below ``_RACE_BELOW_SUPPORT`` support columns,
:func:`run_trials` counts each block's winners without a per-row argmin
and never divides, writes or reads a zero-weight column. It takes the
support columns sup[0] < sup[1] < ... in turn, divides each by its
scalar weight into a reused contiguous buffer (the quotient of
``_ratios``), and sets mask_i where column sup[i] is below the running
minimum of the columns before it. A row's winner is its last i with
mask_i set (the first index attaining the minimum), so
c_i = #(mask_i and no later mask) and c_sup[0] = rows - sum. The race
reads each support column at stride N, so its cost grows with the
support, while that of ``bincount(argmin(axis=1))`` over the divided
block does not. Measured before the overlap, per 2^16-element block on
a 2-core Xeon VM (median of 300 calls on one block), race against
divide + argmin + bincount: 0.06 vs 0.74 ms at N = 2, 0.08 vs 0.48 at
N = 3, 0.11 vs 0.36 at N = 8, 0.05 vs 0.30 at N = 8 with 4 support
columns; at N = 32, 0.05 vs 0.22 with 8, 0.12-0.15 vs 0.20 with 16,
0.15-0.20 vs 0.17-0.18 with 21 and 0.22 vs 0.12 with all 32. The
exponential fill of the block takes 0.30-0.47 ms at every N. Inside
:func:`run_trials` at N = 32 the two meet at about 22 support columns:
the median time ratio argmin/race over 11 alternating runs of 5 10^5
trials was 1.24 with 16, 1.16 with 20, 1.02 with 21, 1.00 with 22, 1.01
with 23 and 0.96 with 24.

Ties (boundary lambdas, measure zero) break to the smallest index.
"""

from __future__ import annotations

import threading
from contextlib import closing
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .bloch import DensityMatrix, _as_integer, _numbers
from .errors import ContractError, DimensionError, GeometryError, OracleInconsistencyError
from .simplex import (
    Barycentric,
    MeasurementBasis,
    MeasurementSimplex,
    _frame_systems,
    born_probabilities,
)
from .tolerances import BOUNDARY_TOL, HULL_TOL, MEMBER_TOL, NEGLIGIBLE_WEIGHT, TIE_BAND

#: Elements (not rows) per buffer of :func:`run_trials`' exponential
#: draws: 256 KiB of float64. The trial loop holds two buffers, the block
#: it classifies and the one the helper thread fills, and either the
#: block's ratios, of the same size, or the race's two ratio columns of at
#: most half its size, so it peaks near 768 KiB at every N, and the block
#: and its ratios (512 KiB) fit the 2 MiB L2 of one core.
_CHUNK_ELEMS = 1 << 15

#: Elements per oracle block before its floor: the oracle keeps the 2^16
#: it was tuned at, as its solves, not its fill, set its pace; blocks of
#: 2^15 ran 20-35% slower at N = 8.
_ORACLE_ELEMS = 1 << 16

#: Fewest samples per oracle block. At N = 32, ``_ORACLE_ELEMS // N^2``
#: would give 64-sample blocks, and each block makes N batched
#: back-substitution products, which then ran 21-29% slower; 256 keeps
#: the block of the 2^18-element chunking at N = 32.
_ORACLE_MIN_BLOCK = 256

#: :func:`run_trials` races the support columns one at a time below this
#: many outcomes of positive Born weight, and divides the whole block and
#: tallies its argmin from it on (see the module docstring).
_RACE_BELOW_SUPPORT = 22


def _tallies(counts, total: int, what: str) -> np.ndarray:
    """Read-only int64 ``counts``: a vector of nonnegative tallies summing to ``total``."""
    c = _numbers(counts, np.int64, what)
    if c.ndim != 1 or c.size == 0:
        raise ContractError(f"{what} must be a nonempty vector, got shape {c.shape}")
    if c.min() < 0:
        raise ContractError(f"{what} must be nonnegative, got {c.tolist()}")
    seen = sum(c.tolist())  # Python ints: an int64 sum of large counts wraps
    if seen != total:
        raise ContractError(f"{what} sum to {seen}, expected {total}")
    return c


@dataclass(frozen=True)
class RngSeed:
    """A reproducible random stream: same (seed, stream) gives the same draws.

    Distinct stream ids on one seed yield statistically independent
    sub-streams for parallel workers.
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        object.__setattr__(self, "seed", _as_integer(self.seed, "seed", 0, 2**64 - 1))
        object.__setattr__(self, "stream", _as_integer(self.stream, "stream", 0, None))

    def generator(self) -> np.random.Generator:
        """PCG64 on SeedSequence(seed, spawn_key=(stream,)): the stream default_rng builds."""
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream,))
        return np.random.Generator(np.random.PCG64(ss))


@dataclass(frozen=True)
class TrialReport:
    """A repeated-measurement run: its counts against the Born weights.

    ``exact_probs`` are the Born probabilities (per outcome, or per
    partition class for degenerate runs), ``counts`` the observed tallies.
    The statistics are derived from these on access:
    ``empirical_freqs`` is counts / n_trials, ``chi_square`` is computed
    against the exact probabilities over the entries with positive
    probability, and ``max_abs_deviation`` is the largest
    |frequency - probability| over all entries. ``n_trials`` is an int of
    at least one (not a bool or a float), so no statistic divides 0 / 0,
    and an entry of probability 0 or below (a weight may round to -1e-12)
    has count 0, as no run can hit it.
    """

    n_trials: int
    exact_probs: Barycentric
    counts: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n_trials", _as_integer(self.n_trials, "n_trials", 1))
        object.__setattr__(self, "counts", _tallies(self.counts, self.n_trials, "counts"))
        if self.counts.shape != (self.exact_probs.dim,):
            raise DimensionError("counts do not match the probability vector")
        if self.counts[self.exact_probs.weights <= 0.0].any():
            raise ContractError(f"counts on zero-probability entries: {self.counts.tolist()}")

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
    ``n_samples``, ``ties`` and ``disagreements`` are ints (not bools or
    floats), ``n_samples`` at least one and the other two in 0..n_samples.
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
        n = _as_integer(self.n_samples, "n_samples", 1)
        object.__setattr__(self, "n_samples", n)
        object.__setattr__(self, "ties", _as_integer(self.ties, "ties", 0, n))
        object.__setattr__(self, "disagreements", _as_integer(self.disagreements, "disagreements", 0, n))
        object.__setattr__(self, "counts", _tallies(self.counts, n, "oracle counts"))


def _block_rows(n: int) -> int:
    """Rows of n draws per block of ``_CHUNK_ELEMS`` elements, at least one."""
    return max(1, _CHUNK_ELEMS // n)


def _oracle_block(n: int) -> int:
    """Samples per block of the oracle: ``_ORACLE_ELEMS // n^2``, at least
    ``_ORACLE_MIN_BLOCK``."""
    return max(_ORACLE_ELEMS // (n * n), _ORACLE_MIN_BLOCK)


def _exponential_rows(n: int, count: int, rng: np.random.Generator, rows: int):
    """Yield ``count`` rows of n unit-rate exponentials in blocks of at most ``rows`` rows.

    The one generator of lambda blocks. The values are those of
    ``rng.standard_exponential(size=(count, n))``, whatever ``rows`` is.
    Block k is a view of buffer k % 2, which block k + 2 overwrites. The
    caller fills block 0; one block ends there, with no thread. Otherwise
    a helper thread fills block k + 1 while the caller reads block k, and
    both wait at one barrier before each later block is yielded. The
    helper draws nothing past ``count``. Its error breaks the barrier and
    re-raises here before the block it failed on is yielded, or one block
    sooner if the abort overtakes the caller's wake-up. Every exit
    breaks the barrier and joins the helper, so a full pass leaves ``rng``
    where a serial fill would. Consume it inside ``contextlib.closing``,
    so an error in the consumer also joins it.
    """
    starts = range(0, count, rows)
    bufs = np.empty((min(len(starts), 2), min(rows, count), n))

    def block(k: int) -> np.ndarray:
        return bufs[k % 2, : min(rows, count - starts[k])]

    rng.standard_exponential(out=block(0))
    if len(starts) == 1:
        yield block(0)
        return
    handover = threading.Barrier(2)
    failure = []

    def fill_ahead():
        try:
            for k in range(1, len(starts)):
                rng.standard_exponential(out=block(k))
                handover.wait()
        except threading.BrokenBarrierError:
            pass  # broken by the caller's exit; kept, it would hold the buffers in a reference cycle
        except BaseException as exc:  # re-raised by the caller's thread
            failure.append(exc)
            handover.abort()

    # daemon: a generator dropped unclosed must not hold up the interpreter's exit
    helper = threading.Thread(target=fill_ahead, daemon=True)
    helper.start()
    try:
        yield block(0)
        for k in range(1, len(starts)):
            try:
                handover.wait()
            except threading.BrokenBarrierError:
                raise failure.pop() from None  # popped: a kept error would cycle with the buffers
            yield block(k)
    finally:
        handover.abort()
        helper.join()


def _ratios(lam: np.ndarray, p: np.ndarray) -> np.ndarray:
    """b_j / p_j along the last axis of ``lam``, +inf where p_j is zero (at most 1e-300).

    The outcome is the argmin; ``lam`` may be unnormalized. A zero weight
    divides by 1.0 and its column is then overwritten, so an exact 0.0
    draw never forms 0/0.
    """
    support = p > NEGLIGIBLE_WEIGHT
    full = np.count_nonzero(support) == p.size
    ratios = lam / (p if full else np.where(support, p, 1.0))
    if not full:
        ratios[..., ~support] = np.inf
    return ratios


def _column_race(blocks, p: np.ndarray, sup: np.ndarray, rows: int, counts: np.ndarray) -> None:
    """Add each row's argmin of E_j / p_j (ties to the smallest index) to
    ``counts``, racing the support columns ``sup`` (at least two) one at a time.

    Every block of ``blocks`` has at most ``rows`` rows. Column sup[i] is
    divided by its scalar weight into a contiguous buffer; mask_i is set
    where it is below the running minimum of the columns before it, a
    row's winner is its last i with mask_i set, sup[0] if none.
    """
    s = sup.size
    cols = sup.tolist()
    weights = p[sup].tolist()
    ratios = np.empty((2, rows))
    masks = np.empty((s, rows), dtype=bool)  # row 0 unused
    for draws in blocks:
        m = draws.shape[0]
        running = np.divide(draws[:, cols[0]], weights[0], out=ratios[0, :m])
        col = ratios[1, :m]
        for i in range(1, s):
            np.divide(draws[:, cols[i]], weights[i], out=col)
            np.less(col, running, out=masks[i, :m])
            if i < s - 1:
                np.minimum(running, col, out=running)
        later = masks[s - 1, :m]  # set where a mask after i is set
        won = np.count_nonzero(later)
        counts[cols[-1]] += won
        for i in range(s - 2, 0, -1):
            c = np.count_nonzero(masks[i, :m] > later)  # mask_i and no later mask
            counts[cols[i]] += c
            won += c
            later |= masks[i, :m]
        counts[cols[0]] += m - won


def _to_lambda(row: np.ndarray) -> Barycentric:
    """The point of the simplex that a row of exponentials stands for: the
    row divided by its sum, in place."""
    row /= row.sum()
    return Barycentric(row)


def sample_lambda(n: int, rng: np.random.Generator) -> Barycentric:
    """One interaction point, Lebesgue-uniform on the (n-1)-simplex.

    One ``standard_exponential(n)`` call divided by its sum: the draws of
    one row of a :func:`run_trials` block, or of one shot, normalised as
    the oracle's blocks and :func:`~blochsim.collapse.run_measurement`'s
    lambda are.
    """
    return _to_lambda(rng.standard_exponential(_as_integer(n, "simplex dim", 2, error=DimensionError)))


def _winner(row: np.ndarray, weights: np.ndarray) -> int:
    """argmin_j row_j / p_j, +inf where p_j is zero, ties to the smallest index."""
    return int(np.argmin(_ratios(row, weights)))


def classify(lam: Barycentric, p: Barycentric) -> int:
    """Index of the sub-region A_i containing lambda, given the state point p.

    Implements i = argmin_j b_j / p_j, with +inf where p_j = 0, ties to
    the smallest index. When p is a vertex (one weight equal to 1) the
    result is deterministically that outcome. The sum-to-one contract on
    p is enforced by the Barycentric type.
    """
    if lam.dim != p.dim:
        raise DimensionError(f"lambda has dim {lam.dim} but p has dim {p.dim}")
    return _winner(lam.weights, p.weights)


def _draw(d: DensityMatrix, b: MeasurementBasis, rng: np.random.Generator):
    """One shot's symmetry breaking, a one-trial :func:`run_trials`: the Born
    weights p of d in b, one row of n exponentials and the outcome i, the
    winner of the row's race, as a block classifies it.

    The row is returned raw, the draws of ``sample_lambda(n, rng)`` before
    they are divided by their sum; only a caller that returns lambda
    normalises it (``_to_lambda``).
    """
    p = born_probabilities(d, b)
    row = rng.standard_exponential(d.dim)
    return p, row, _winner(row, p.weights)


def measure_once(
    d: DensityMatrix, b: MeasurementBasis, rng: np.random.Generator
) -> tuple[int, DensityMatrix]:
    """One collapse: draw one row, race it, return (outcome, |a_i><a_i|).

    The outcome is the one ``run_trials(d, b, 1, seed)`` counts when ``rng``
    is ``seed.generator()``; no lambda is built.
    """
    _, _, i = _draw(d, b, rng)
    return i, b.projector(i)


def _set_partition(partition, labels: range) -> tuple[tuple[int, ...], ...]:
    """Check that partition is a set partition of ``labels``; returns it as tuples.

    The one partition rule: nonempty blocks of integers (not bools), each
    label in exactly one block. Messages quote the labels as given (1-based
    for the CLI) and leave naming the field to the caller.
    """
    try:
        blocks = tuple(
            tuple(_as_integer(i, "index", labels.start, labels.stop - 1) for i in blk) for blk in partition
        )
    except TypeError as exc:
        raise ContractError(f"expected an iterable of index blocks ({exc})") from exc
    if not blocks or any(not blk for blk in blocks):
        raise ContractError("expected nonempty index blocks")
    seen: set[int] = set()
    for blk in blocks:
        for i in blk:
            if i in seen:
                raise ContractError(f"duplicate index {i}")
            seen.add(i)
    missing = len(labels) - len(seen)
    if missing:
        # the first five missing labels lie within the first len(seen) + 5
        first = list(islice((i for i in labels if i not in seen), 5))
        what = f"outcomes {first}" if missing <= 5 else f"{missing} outcomes, first {first}"
        raise ContractError(f"does not cover {what}")
    return blocks


def validate_partition(partition, n: int) -> tuple[tuple[int, ...], ...]:
    """Check that partition is a set partition of range(n); returns it as tuples.

    A violation is a ContractError whose message starts with
    ``partition:``, e.g. ``partition: duplicate index 1``.
    """
    try:
        return _set_partition(partition, range(_as_integer(n, "outcome count", 1)))
    except ContractError as exc:
        raise ContractError(f"partition: {exc}") from None


def _lueders(d: DensityMatrix, b: MeasurementBasis, blocks, p: Barycentric, i: int):
    """Class k of outcome i, its member outcomes, its Born weight and the Lueders post-state.

    The post-state is P_K D P_K / Tr(P_K D P_K), P_K the block projector.
    """
    k = next(k for k, blk in enumerate(blocks) if i in blk)
    members = np.asarray(blocks[k], dtype=np.intp)
    weight = float(p.weights[members].sum())
    if weight <= 0.0:
        raise ContractError("sampled a zero-probability class; classification is broken")
    kets = b.kets[members]
    proj = kets.T @ kets.conj()
    m = proj @ d.entries @ proj
    return k, members, weight, DensityMatrix(m / float(m.trace().real))


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
    ContractError. The class is the one ``run_trials(d, b, 1, seed,
    partition)`` counts when ``rng`` is ``seed.generator()``: the shot
    races its raw row as a block does and builds no lambda.
    """
    blocks = validate_partition(partition, d.dim)
    p, _, i = _draw(d, b, rng)
    k, _, _, post = _lueders(d, b, blocks, p, i)
    return k, post


def _fuse(values: np.ndarray, blocks) -> np.ndarray:
    """The sums of ``values`` over each partition block, in block order."""
    return np.array([values[np.asarray(blk, dtype=np.intp)].sum() for blk in blocks])


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
    therefore reproduces the non-degenerate tallies exactly. A vertex
    state, or any state whose Born support lies inside one partition
    class, draws nothing and builds no generator.
    """
    n_trials = _as_integer(n_trials, "n_trials", 1)
    p = born_probabilities(d, b)
    pw = p.weights
    k = d.dim
    blocks = None if partition is None else validate_partition(partition, k)

    counts = np.zeros(k, dtype=np.int64)
    sup = np.flatnonzero(pw > NEGLIGIBLE_WEIGHT)
    rows = min(n_trials, _block_rows(k))
    support = set(sup.tolist())
    classes = [(j,) for j in range(k)] if blocks is None else blocks
    if any(support <= set(blk) for blk in classes):
        # the support lies in one class: every trial lands there, nothing to draw
        counts[sup[0]] = n_trials
    else:
        with closing(_exponential_rows(k, n_trials, seed.generator(), rows)) as stream:
            if sup.size < _RACE_BELOW_SUPPORT:
                _column_race(stream, pw, sup, rows, counts)
            else:
                for draws in stream:
                    counts += np.bincount(np.argmin(_ratios(draws, pw), axis=1), minlength=k)

    if blocks is None:
        return TrialReport(n_trials, p, counts)
    return TrialReport(n_trials, Barycentric(_fuse(pw, blocks)), _fuse(counts, blocks))


def _argmin_and_gap(ratios: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ``ratios``: the argmin (ties to the smallest index) and the
    gap between the two smallest values, in one sweep over the columns."""
    first = ratios[:, 0].copy()
    second = np.full_like(first, np.inf)
    argmin = np.zeros(first.size, dtype=np.intp)
    for j in range(1, ratios.shape[1]):
        col = ratios[:, j]
        np.minimum(second, np.maximum(first, col), out=second)
        argmin[col < first] = j
        np.minimum(first, col, out=first)
    return argmin, second - first


def geometric_hit_count_oracle(
    rpar: Barycentric,
    n_samples: int,
    rng: np.random.Generator,
    simplex: MeasurementSimplex,
) -> OracleReport:
    """Brute-force hit counts over the sub-regions, bypassing the argmin rule.

    Each uniform lambda, the point x = lambda . V of Bloch space, is
    tested against every candidate region A_i by solving for its convex
    coefficients over that region's actual vertex set
    {n_j : j != i} union {r_par}. The solve runs in the simplex's own
    frame: y = frame . (x - centroid), which is vert_y . lambda with
    vert_y the vertices' frame coordinates, since lambda sums to 1. The
    coefficients of region i are S_i^-1 [y; 1] with S_i the square
    system [frame . (n_j - centroid) (j != i) | frame . (r_par - centroid); 1].
    All N inverses are stacked into one product, and the back-substitution
    residual |S_i c - [y; 1]| is checked per sample and region. A region
    accepts when all its coefficients are >= -1e-10 and its residual is
    within 1e-9. Exactly one region must accept away from boundaries;
    zero acceptances, or two regions claiming the sample strictly (beyond
    the tie band), raise OracleInconsistencyError, and so does a singular
    region system, before any draw. The frame spans the simplex's affine
    hull by construction, derived from the vertices, so a sample, a convex
    combination of them, needs no off-hull check. The same lambda stream
    is also classified with the production argmin rule and disagreements
    outside the tie band are counted.

    The membership test never reads the ratio rule: it solves the
    embedded geometry, so a fault in either route shows as a
    disagreement. Its blocks and its throughput are in the module docstring.
    The statistics are affine-invariant, so any simplex of the right
    dimension gives the same law.
    """
    n_samples = _as_integer(n_samples, "n_samples", 1)
    pw = rpar.weights
    if not float(pw.min()) > BOUNDARY_TOL:
        raise GeometryError("oracle requires r_par strictly inside the simplex")
    n = rpar.dim
    if simplex.dim != n:
        raise DimensionError(f"simplex has dim {simplex.dim} but rpar has dim {n}")

    verts = simplex.vertices
    stack = _frame_systems(verts, simplex.centroid, simplex.frame, pw @ verts)
    vert_y, systems = stack[0, :-1], stack[1:]
    try:
        inverses = np.linalg.inv(systems).reshape(n * n, n)
    except np.linalg.LinAlgError:
        raise OracleInconsistencyError(
            "a region system is singular; geometry is inconsistent"
        ) from None

    counts = np.zeros(n, dtype=np.int64)
    ties = 0
    disagreements = 0
    block = min(_oracle_block(n), n_samples)
    # two reused slabs, the coefficients and the back-substitution, and
    # the right-hand sides [y; 1]
    slabs = np.empty((2, n * n * block))
    rhs = np.empty(n * block)
    with closing(_exponential_rows(n, n_samples, rng, block)) as stream:
        for lam in stream:
            lam /= lam.sum(axis=1, keepdims=True)
            m = lam.shape[0]
            # sum(lambda) = 1, so frame . (lambda . V - centroid) = vert_y . lambda
            y_aug = rhs[: n * m].reshape(n, m)
            y_aug[-1] = 1.0
            np.matmul(vert_y, lam.T, out=y_aug[:-1])

            # [region, coefficient, sample]
            coeffs = np.matmul(inverses, y_aug, out=slabs[0, : n * n * m].reshape(n * n, m))
            coeffs = coeffs.reshape(n, n, m)
            resid = np.matmul(systems, coeffs, out=slabs[1, : n * n * m].reshape(n, n, m))
            resid -= y_aug
            np.abs(resid, out=resid)
            min_coeff = coeffs.min(axis=1)
            accept = (min_coeff >= -MEMBER_TOL) & (resid.max(axis=1) <= HULL_TOL)

            n_accept = np.count_nonzero(accept, axis=0)
            if np.any(n_accept == 0):
                raise OracleInconsistencyError(
                    "a sample point was claimed by no region; geometry is inconsistent"
                )
            strict = accept & (min_coeff > TIE_BAND)
            if np.any(np.count_nonzero(strict, axis=0) > 1):
                raise OracleInconsistencyError(
                    "a sample point was claimed strictly by several regions; "
                    "geometry is inconsistent"
                )
            member = np.argmax(accept, axis=0)

            argmin, gap = _argmin_and_gap(_ratios(lam, pw))
            tie_rows = (n_accept > 1) | (gap <= TIE_BAND)

            counts += np.bincount(member, minlength=n)
            ties += int(np.count_nonzero(tie_rows))
            disagreements += int(np.count_nonzero(~tie_rows & (member != argmin)))

    return OracleReport(n_samples, counts, ties, disagreements)
