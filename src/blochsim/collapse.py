"""Staged orchestration of the full measurement process.

A run produces an inspectable trace of snapshots:

* ``initial``   the input state (on the sphere surface when pure);
* ``reduced``   the basis-diagonal state, whose Bloch vector is the
                orthogonal projection of the initial vector onto the
                measurement simplex;
* ``collapsed`` the selected vertex (non-degenerate) or the point of the
                fused sub-simplex the contraction reaches (degenerate);
* ``purified``  degenerate runs only: the Lueders post-state, back on the
                sphere surface for pure inputs.

A stage stores its density matrix; ``stage.vector`` maps it to Bloch
coordinates on access, so a run that reads only outcomes and densities
computes no Bloch vector. The reduced stage, and the collapsed stage of a
partitioned run, are basis-diagonal states; in the computational basis
both are written onto the diagonal, without a contraction.

Snapshots are discrete; the dynamics between them is not modeled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import BlochVector, DensityMatrix, to_bloch
from .sampler import RngSeed, _draw, _lueders, _to_lambda, validate_partition
from .simplex import Barycentric, MeasurementBasis, born_probabilities


@dataclass(frozen=True)
class ProcessStage:
    """One snapshot: label plus the state; its Bloch vector is mapped on access."""

    label: str
    density: DensityMatrix

    @property
    def vector(self) -> BlochVector:
        return to_bloch(self.density)


@dataclass(frozen=True)
class ProcessTrace:
    """Ordered snapshots of one measurement run.

    ``outcome`` is the outcome index (non-degenerate) or partition class
    index (degenerate); ``lambda_point`` is the sampled hidden
    interaction that selected it.
    """

    stages: tuple[ProcessStage, ...]
    outcome: int
    lambda_point: Barycentric

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(s.label for s in self.stages)


def _diagonal(p: np.ndarray, b: MeasurementBasis, rows=slice(None)) -> DensityMatrix:
    """sum_j p_j |a_j><a_j| over the basis kets |a_j> = ``b.kets[rows]``, one weight each.

    Two operands, p_j a_j first: bit for bit the three-operand
    ``einsum("j,ji,jk->ik", p, kets, kets.conj())``, signed zeros included.
    In the computational basis that is p + 0.0 on those rows' diagonal
    entries and +0.0 elsewhere: the contraction adds one p_j term to each
    of those entries and signed zeros everywhere, all onto +0.0, so the
    bits are the same.
    """
    if b._is_identity:
        diag = np.zeros(b.dim)
        diag[rows] = p + 0.0
        return DensityMatrix(np.diag(diag))
    kets = b.kets[rows]
    return DensityMatrix(np.einsum("ji,jk->ik", p[:, None] * kets, kets.conj()))


def reduce_state(d: DensityMatrix, b: MeasurementBasis) -> DensityMatrix:
    """The fully reduced state sum_j <a_j|D|a_j> |a_j><a_j|.

    Diagonal in the measurement basis, idempotent, and Bloch-equivalent
    to the orthogonal projection of D's vector onto the simplex.
    """
    return _diagonal(born_probabilities(d, b).weights, b)


def run_measurement(
    d: DensityMatrix,
    b: MeasurementBasis,
    partition=None,
    *,
    seed: RngSeed,
) -> ProcessTrace:
    """Run one measurement and record the staged trace.

    Without a partition the process is bipartite (reduce, then collapse
    to a vertex). With a partition it is tripartite: the fused collapse
    lands on the block's sub-simplex at the renormalized weights
    p_i / P(K), and a final purification applies the Lueders formula.
    Deterministic given the seed: the outcome is the one a one-trial
    ``run_trials`` on that seed counts, and ``lambda_point`` is
    ``sample_lambda(d.dim, seed.generator())``, the shot's row divided by
    its sum; only this trace normalises the row a shot draws.
    """
    blocks = None if partition is None else validate_partition(partition, d.dim)
    p, row, i = _draw(d, b, seed.generator())
    reduced = _diagonal(p.weights, b)

    if blocks is None:
        labels = ("initial", "reduced", "collapsed")
        densities = (d, reduced, b.projector(i))
        outcome = i
    else:
        outcome, members, weight, purified = _lueders(d, b, blocks, p, i)
        labels = ("initial", "reduced", "collapsed", "purified")
        densities = (d, reduced, _diagonal(p.weights[members] / weight, b, members), purified)

    stages = tuple(ProcessStage(label, rho) for label, rho in zip(labels, densities))
    return ProcessTrace(stages=stages, outcome=outcome, lambda_point=_to_lambda(row))
