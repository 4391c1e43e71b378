"""Every value object stores one C-ordered, read-only copy of its input.

The layout of a caller's array must not reach the stored one: einsum and
matmul may sum a Fortran-ordered or strided operand in another order,
which changes the last bits of reports. The copy must also be the
object's own, so mutating the caller's array leaves the object as it was.
The same holds for the centroid and frame a simplex derives from its
vertices: they have the same bits whatever the vertices' layout.
"""

import numpy as np
import pytest

from blochsim import (
    Barycentric,
    BlochVector,
    DensityMatrix,
    Ket,
    MeasurementBasis,
    MeasurementSimplex,
    basis_to_simplex,
    to_bloch,
)
from util import random_basis, random_density, random_ket

N = 4


def _cases():
    """name -> (build the object from an array, the stored attribute, a valid
    array, the attribute's value when built from that array)."""
    rng = np.random.default_rng(11)
    d = random_density(rng, N)
    b = random_basis(rng, N)
    s = basis_to_simplex(b)
    stored = {
        "Ket": (Ket, "amplitudes", random_ket(rng, N).amplitudes),
        "DensityMatrix": (DensityMatrix, "entries", d.entries),
        "BlochVector": (BlochVector, "coords", to_bloch(d).coords),
        "Barycentric": (Barycentric, "weights", np.array([0.1, 0.2, 0.3, 0.4])),
        "MeasurementBasis": (MeasurementBasis, "kets", b.kets),
        "MeasurementSimplex.vertices": (MeasurementSimplex, "vertices", s.vertices),
    }
    cases = {name: (build, attr, value, value) for name, (build, attr, value) in stored.items()}
    for attr in ("centroid", "frame"):
        cases[f"MeasurementSimplex.{attr}"] = (MeasurementSimplex, attr, s.vertices, getattr(s, attr))
    return cases


CASES = _cases()


def _caller_array(value: np.ndarray, layout: str) -> tuple[np.ndarray, np.ndarray]:
    """(the caller's buffer, the view passed to the constructor) in the given layout.

    The strided view has Fortran-like strides, so a copy that keeps the
    input's layout would not be C-ordered for a matrix.
    """
    if layout != "strided":
        a = np.array(value, order=layout)
        return a, a
    buffer = np.zeros(tuple(2 * k for k in value.shape), dtype=value.dtype, order="F")
    view = buffer[tuple(slice(None, None, 2) for _ in value.shape)]
    view[...] = value
    return buffer, view


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_stores_its_own_c_ordered_read_only_copy(name, layout):
    build, attr, value, expected = CASES[name]
    buffer, given = _caller_array(value, layout)
    if layout == "F" and value.ndim == 2:
        assert not given.flags.c_contiguous
    stored = getattr(build(given), attr)
    assert stored.flags.c_contiguous
    assert stored.flags.owndata
    assert not stored.flags.writeable
    np.testing.assert_array_equal(stored, expected)
    buffer.fill(0)
    np.testing.assert_array_equal(stored, expected)
