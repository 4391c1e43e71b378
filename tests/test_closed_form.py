"""The closed-form Bloch maps reproduce the generator contraction.

``to_bloch`` computes each trace Tr(D L_j) from a few entries of D instead
of contracting D with the dense generator tensor. The reference below is
the contraction it replaced: every coordinate of every state, simplex
vertex and process stage must have the same bits, signed zeros included,
because reports print them. ``from_bloch`` writes D(r) entry by entry; it
must agree with (I + c_N r . L) / N to rounding.
"""

import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from blochsim import (
    BlochVector,
    ContractError,
    DensityMatrix,
    DimensionError,
    MeasurementBasis,
    RngSeed,
    basis_to_simplex,
    from_bloch,
    ket_to_density,
    run_measurement,
    to_bloch,
)
from blochsim.bloch import radius_scale
from blochsim.generators import build_generators
from blochsim.tolerances import ALGEBRA_TOL
from util import random_basis, random_density, random_ket

generators = functools.cache(build_generators)


def reference_to_bloch(d, g):
    if g.shape[-1] != d.dim:
        raise DimensionError(f"generator set has dim {g.shape[-1]} but state has dim {d.dim}")
    traces = np.einsum("ij,kji->k", d.entries, g)
    imag = float(np.max(np.abs(traces.imag)))
    if not imag <= ALGEBRA_TOL:
        raise ContractError(f"Tr(D L_j) has imaginary residual {imag:.3e} > {ALGEBRA_TOL}")
    n = d.dim
    coords = (n / (2.0 * radius_scale(n))) * traces.real
    return coords


def reference_from_bloch(r):
    n = r.dim
    return (np.eye(n) + radius_scale(n) * np.tensordot(r.coords, generators(n), axes=1)) / n


def bits(x) -> np.ndarray:
    return np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)


def assert_same_bits(actual, expected):
    assert np.array_equal(bits(actual), bits(expected)), (actual, expected)


def _state(rng: np.random.Generator, n: int, kind: str) -> DensityMatrix:
    if kind == "pure":
        return ket_to_density(random_ket(rng, n))
    if kind == "mixed":
        return random_density(rng, n)
    # a state on a random subset of levels: zero rows, columns and diagonal entries
    support = rng.permutation(n)[: int(rng.integers(1, n))]
    m = np.zeros((n, n), dtype=np.complex128)
    for _ in range(int(rng.integers(1, 3))):
        a = np.zeros(n, dtype=np.complex128)
        a[support] = rng.standard_normal(support.size) + 1j * rng.standard_normal(support.size)
        a /= np.linalg.norm(a)
        m += np.outer(a, a.conj())
    m /= np.trace(m).real
    if kind == "signed-zero":
        # negative zeros wherever the state vanishes
        m[m == 0] = complex(-0.0, -0.0)
    return DensityMatrix(m)


KINDS = st.sampled_from(["pure", "mixed", "sparse", "signed-zero"])
SEEDS = st.integers(0, 2**32 - 1)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(n=st.integers(2, 32), kind=KINDS, seed=SEEDS)
def test_to_bloch_matches_the_contraction(n, kind, seed):
    d = _state(np.random.default_rng(seed), n, kind)
    assert_same_bits(to_bloch(d).coords, reference_to_bloch(d, generators(n)))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(n=st.integers(2, 32), canonical=st.booleans(), seed=SEEDS)
def test_simplex_vertices_match_the_contraction(n, canonical, seed):
    b = MeasurementBasis.canonical(n) if canonical else random_basis(np.random.default_rng(seed), n)
    g = generators(n)
    expected = [reference_to_bloch(b.projector(i), g) for i in range(n)]
    assert_same_bits(basis_to_simplex(b).vertices, expected)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(2, 32), kind=KINDS, partitioned=st.booleans(), seed=SEEDS)
def test_stage_vectors_match_the_contraction(n, kind, partitioned, seed):
    rng = np.random.default_rng(seed)
    d = _state(rng, n, kind)
    b = random_basis(rng, n)
    partition = None
    if partitioned:
        cut = int(rng.integers(1, n))
        order = rng.permutation(n)
        partition = [order[:cut].tolist(), order[cut:].tolist()]
    trace = run_measurement(d, b, partition=partition, seed=RngSeed(seed))
    assert len(trace.stages) == (4 if partitioned else 3)
    for stage in trace.stages:
        assert_same_bits(stage.vector.coords, reference_to_bloch(stage.density, generators(n)))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(n=st.integers(2, 32), kind=st.sampled_from(["pure", "mixed", "outside"]), seed=SEEDS)
def test_from_bloch_matches_the_contraction(n, kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "outside":
        # off the state region, beyond the unit ball
        v = rng.standard_normal(n * n - 1)
        r = BlochVector(rng.uniform(1.0, 3.0) * v / np.linalg.norm(v))
    else:
        r = to_bloch(_state(rng, n, kind))
    np.testing.assert_allclose(from_bloch(r).entries, reference_from_bloch(r), rtol=0, atol=1e-15)
