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

Snapshots are discrete; the dynamics between them is not modeled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import BlochVector, DensityMatrix, to_bloch
from .generators import build_generators
from .sampler import (
    Barycentric,
    RngSeed,
    _lueders,
    classify,
    sample_lambda,
    validate_partition,
)
from .simplex import MeasurementBasis, born_probabilities


@dataclass(frozen=True)
class ProcessStage:
    """One snapshot: label plus the state in both representations."""

    label: str
    vector: BlochVector
    density: DensityMatrix


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

    def stage(self, label: str) -> ProcessStage:
        for s in self.stages:
            if s.label == label:
                return s
        raise KeyError(label)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(s.label for s in self.stages)


def reduce_state(d: DensityMatrix, b: MeasurementBasis) -> DensityMatrix:
    """The fully reduced state sum_j <a_j|D|a_j> |a_j><a_j|.

    Diagonal in the measurement basis, idempotent, and Bloch-equivalent
    to the orthogonal projection of D's vector onto the simplex.
    """
    p = born_probabilities(d, b).weights
    kets = b.kets
    return DensityMatrix(np.einsum("j,ji,jk->ik", p, kets, kets.conj()))


def run_measurement(
    d: DensityMatrix,
    b: MeasurementBasis,
    partition=None,
    seed: RngSeed = RngSeed(0),
) -> ProcessTrace:
    """Run one measurement and record the staged trace.

    Without a partition the process is bipartite (reduce, then collapse
    to a vertex). With a partition it is tripartite: the fused collapse
    lands on the block's sub-simplex at the renormalized weights
    p_i / P(K), and a final purification applies the Lueders formula.
    Deterministic given the seed.
    """
    p = born_probabilities(d, b)
    n = d.dim
    g = build_generators(n)

    stages = [ProcessStage("initial", to_bloch(d, g), d)]
    reduced = reduce_state(d, b)
    stages.append(ProcessStage("reduced", to_bloch(reduced, g), reduced))

    lam = sample_lambda(n, seed.generator())
    i = classify(lam, p)

    if partition is None:
        collapsed = b.projector(i)
        stages.append(ProcessStage("collapsed", to_bloch(collapsed, g), collapsed))
        return ProcessTrace(stages=tuple(stages), outcome=i, lambda_point=lam)

    k, members, purified = _lueders(d, b, validate_partition(partition, n), p, i)
    kets = b.kets[members]
    on_block = p.weights[members] / float(p.weights[members].sum())
    collapsed = DensityMatrix(np.einsum("j,ji,jk->ik", on_block, kets, kets.conj()))
    stages.append(ProcessStage("collapsed", to_bloch(collapsed, g), collapsed))
    stages.append(ProcessStage("purified", to_bloch(purified, g), purified))
    return ProcessTrace(stages=tuple(stages), outcome=k, lambda_point=lam)
