"""Property tests of two identities of the representation, up to N=32.

* Round trip: D(r(D)) = D for every state.
* Born = measure ratio: the sub-simplex measures carved out by the
  projected Bloch vector, divided by the simplex measure, are the Born
  probabilities.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from blochsim import (
    basis_to_simplex,
    born_probabilities,
    from_bloch,
    ket_to_density,
    project_onto_simplex,
    subregion_ratios,
    to_bloch,
)
from blochsim.tolerances import ALGEBRA_TOL
from util import random_basis, random_density, random_ket

SEEDS = st.integers(0, 2**32 - 1)


def _state(rng, n, pure):
    return ket_to_density(random_ket(rng, n)) if pure else random_density(rng, n)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(2, 32), pure=st.booleans(), seed=SEEDS)
def test_round_trip_reconstructs_the_state(n, pure, seed):
    d = _state(np.random.default_rng(seed), n, pure)
    back = from_bloch(to_bloch(d))
    assert float(np.max(np.abs(back.entries - d.entries))) <= ALGEBRA_TOL


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(2, 32), pure=st.booleans(), seed=SEEDS)
def test_born_weights_are_measure_ratios(n, pure, seed):
    rng = np.random.default_rng(seed)
    d = _state(rng, n, pure)
    b = random_basis(rng, n)
    s = basis_to_simplex(b)
    rpar = project_onto_simplex(to_bloch(d), s)
    ratios = subregion_ratios(rpar, s)
    np.testing.assert_allclose(ratios, born_probabilities(d, b).weights, rtol=0, atol=1e-13)
