"""Bidirectional map between density matrices and generalized Bloch vectors.

An N-dimensional state D corresponds to a unique real vector r of length
N^2 - 1 through

    D(r) = (1/N) (I + c_N sum_i r_i L_i),      c_N = sqrt(N(N-1)/2),

where the L_i are the SU(N) generators of :mod:`blochsim.generators`.
Pure states sit on the unit sphere ||r|| = 1; mixed states lie inside.
For N >= 3 the unit ball is not completely filled with states: r is a
state iff D(r) is positive semidefinite, which
``from_bloch(r).is_positive_semidefinite()`` tests.

The forward map needs no generator matrices. The generator ordering
gives each trace Tr(D L_j) in closed form:

* symmetric pair (j < k):      Re D_jk + Re D_kj
* antisymmetric pair (j < k):  Im D_kj - Im D_jk
* diagonal k = 1..N-1:         sum_{m<k} D_mm s_k + D_kk (-k s_k),
                               s_k = sqrt(2/(k(k+1))), summed in index order

The imaginary parts come from the same formulas and must vanish to
sqrt(2) * 1e-12. Construction leaves |Im D_mm| <= 5e-13 on a Hermitian
matrix, and the diagonal family weighs those by up to 2 k s_k, so its
imaginary parts reach sqrt(2k/(k+1)) * 1e-12; that is below
sqrt(2) * 1e-12 at every N, with room for rounding. The off-diagonal
families stay within 1e-12.

This summation order is a pinned contract: it reproduces the
dense contraction with the generator tensor bit for bit, so reports keep
their bytes. A regrouped sum (``2 Re D_jk``, or ``s_k`` times a cumulative
sum of the D_mm) changes the last digit of some coordinates.

The inverse map writes D(r) entry by entry in the same ordering:

* off-diagonal (j < k):  D_jk = c_N (r_s - i r_a) / N,  D_kj = conj(D_jk)
* diagonal:              D_mm = (1 + c_N (sum_{k>m} s_k r_k - m s_m r_m)) / N

with r_s, r_a the symmetric and antisymmetric coordinates of the pair
(j, k) and r_k the k-th diagonal coordinate. Neither direction builds the
generator matrices; the tensor of :func:`blochsim.generators.build_generators`
defines the convention and serves as the reference the closed forms are
tested against.

All values here are immutable and all operations are pure functions.

``_as_integer`` is the package's one integer contract: every count, dim,
partition index and seed a caller passes is an int or numpy integer, not
a bool, within the bounds its owner sets. Counts and dims are at most
2^63 - 1, as each sizes an array or an int64 tally.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError, NormalizationError, _shown
from .tolerances import ALGEBRA_TOL, EIGEN_TOL

#: Bound on |Im Tr(D L_j)| for a matrix that construction accepted (module docstring).
_TRACE_IMAG_TOL = math.sqrt(2.0) * ALGEBRA_TOL
#: The largest count or dim: each sizes an array or an int64 tally.
_INT64_MAX = 2**63 - 1


def _as_integer(value, what: str, low: int, high: int | None = _INT64_MAX, error=ContractError) -> int:
    """``value`` as an int in low..high, or at least low if ``high`` is None.

    A non-integer or a bool is a ContractError, an integer out of range
    raises ``error``; the one message names ``what`` first and quotes the
    value as given.
    """
    n = value
    if type(n) is not int:  # a bool is not taken, a numpy integer is
        try:
            n = None if isinstance(value, bool) else operator.index(value)
        except TypeError:
            n = None
    if n is not None and low <= n and (high is None or n <= high):
        return n
    span = f">= {low}" if high is None else f"in {low}..{high}"
    raise (ContractError if n is None else error)(f"{what} must be an integer {span}, got {_shown(value)}")


#: Per stored dtype, the input kinds it takes and their name: integers and
#: reals everywhere, complex numbers in complex fields only.
_NUMBER_KINDS = {
    np.complex128: ("iufc", "numbers"),
    np.float64: ("iuf", "real numbers"),
    np.int64: ("iu", "integers"),
}


def _numbers(value, dtype, what: str) -> np.ndarray:
    """One C-ordered, read-only copy of ``value`` as ``dtype``, from numbers that dtype holds.

    Strings, objects and bools are a ContractError for every dtype, and so
    are complex numbers for a real one and non-integers for int64; numpy
    would parse a numeric string, read a bool as 1 and truncate a float.
    So are a ragged nested sequence and, for int64, an unsigned integer
    above 2^63 - 1, which numpy would wrap to a negative one.
    """
    try:
        a = value if isinstance(value, np.ndarray) else np.asarray(value)
    except ValueError:
        raise ContractError(f"{what} must be a rectangular array, got a ragged sequence") from None
    kinds, name = _NUMBER_KINDS[dtype]
    if a.dtype.kind not in kinds:
        raise ContractError(f"{what} must be {name}, got dtype {a.dtype}")
    if a.dtype.kind == "u" and dtype is np.int64 and a.size and a.max() > _INT64_MAX:
        raise ContractError(f"{what} must be at most {_INT64_MAX}, got {a.max()}")
    copy = np.array(a, dtype=dtype, order="C")
    copy.setflags(write=False)
    return copy


@dataclass(frozen=True)
class Ket:
    """A unit-normalized complex state vector.

    Rejects non-normalized input instead of silently renormalizing;
    silent fixes would hide caller bugs in probability-critical code.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _numbers(self.amplitudes, np.complex128, "ket amplitudes")
        if amps.ndim != 1 or amps.size < 2:
            raise DimensionError(f"ket must be a vector of length >= 2, got shape {amps.shape}")
        # einsum reports no overflow: amplitudes near float max give inf, not a warning
        parts = amps.view(np.float64)
        norm_sq = float(np.einsum("i,i->", parts, parts))
        if not abs(norm_sq - 1.0) <= ALGEBRA_TOL:
            raise NormalizationError(
                f"ket is not unit-normalized: sum |psi_k|^2 = {norm_sq!r}"
            )
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.size


@dataclass(frozen=True)
class DensityMatrix:
    """An N x N Hermitian unit-trace matrix.

    Hermiticity and unit trace are enforced at construction (to 1e-12).
    Positive semidefiniteness is deliberately *not* enforced here: vectors
    outside the state region still reconstruct to Hermitian unit-trace
    matrices, and membership is queried via :meth:`is_positive_semidefinite`.
    """

    entries: np.ndarray

    def __post_init__(self):
        m = _numbers(self.entries, np.complex128, "density matrix entries")
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 2:
            raise DimensionError(f"density matrix must be square with N >= 2, got shape {m.shape}")
        # a non-finite entry makes herm nan or inf, and so does an entry near float max
        with np.errstate(over="ignore", invalid="ignore"):
            herm = float(np.abs(m - m.conj().T).max())
            tr = complex(m.trace())
        if not herm <= ALGEBRA_TOL:
            if not np.isfinite(m).all():
                raise NormalizationError("matrix has non-finite entries")
            raise NormalizationError(f"matrix is not Hermitian: max |D - D^dagger| = {herm:.3e}")
        if not abs(tr - 1.0) <= ALGEBRA_TOL:
            raise NormalizationError(f"matrix does not have unit trace: Tr D = {tr!r}")
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.entries)[0])

    def is_positive_semidefinite(self) -> bool:
        return self.min_eigenvalue() >= -EIGEN_TOL


@dataclass(frozen=True)
class BlochVector:
    """A real vector of length N^2 - 1 in the generalized Bloch ball.

    ``dim`` is the Hilbert-space dimension N, not the coordinate count; it
    is derived from the N^2 - 1 coordinates, N >= 2. Coordinates must be
    finite. Norm constraints are not enforced at construction; vectors
    outside the unit ball are legal inputs to ``from_bloch``.
    """

    coords: np.ndarray

    def __post_init__(self):
        c = _numbers(self.coords, np.float64, "Bloch vector coordinates")
        n = math.isqrt(c.size + 1)
        if c.ndim != 1 or n < 2 or n * n != c.size + 1:
            raise DimensionError(f"Bloch vector needs N^2 - 1 coordinates, N >= 2, got shape {c.shape}")
        if not np.isfinite(c).all():
            raise ContractError("Bloch vector has non-finite coordinates")
        object.__setattr__(self, "coords", c)

    @property
    def dim(self) -> int:
        return math.isqrt(self.coords.size + 1)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.coords))


def radius_scale(n: int) -> float:
    """The scale c_N = sqrt(N(N-1)/2) placing pure states at unit radius."""
    return float(np.sqrt(n * (n - 1) / 2.0))


def ket_to_density(psi: Ket) -> DensityMatrix:
    """Rank-1 projector |psi><psi| of a unit ket."""
    a = psi.amplitudes
    return DensityMatrix(np.outer(a, a.conj()))


@functools.lru_cache(maxsize=32)
def _plan(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only gather indices and diagonal-family scales for dimension n.

    The indices pick D_jk (j < k), then D_kj, then D_mm out of the
    flattened matrix. The scales are the generator entries s_k and
    -k s_k, stored as complex like the generator tensor's.
    """
    rows, cols = np.triu_indices(n, 1)
    k = np.arange(1, n)
    scales = np.sqrt(2.0 / (k * (k + 1)))
    plan = (
        np.concatenate([rows * n + cols, cols * n + rows, np.arange(n) * (n + 1)]),
        scales[:, None].astype(np.complex128),
        (-scales * k).astype(np.complex128),
    )
    for a in plan:
        a.setflags(write=False)
    return plan


def _closed_form_traces(d: np.ndarray) -> np.ndarray:
    """Tr(D L_j) for a stack of matrices (..., N, N), in the module's closed form."""
    n = d.shape[-1]
    gather, scales, last = _plan(n)
    m = n * (n - 1) // 2
    picked = d.reshape(d.shape[:-2] + (n * n,))[..., gather]
    upper, lower, diag = picked[..., :m], picked[..., m : 2 * m], picked[..., 2 * m :]
    traces = np.empty(d.shape[:-2] + (n * n - 1,), dtype=np.complex128)
    np.add(upper, lower, out=traces[..., :m])
    np.subtract(lower.imag, upper.imag, out=traces.real[..., m : 2 * m])
    np.subtract(upper.real, lower.real, out=traces.imag[..., m : 2 * m])
    # head[..., k-1, m] = sum_{m' <= m} D_m'm' s_k, accumulated in index order
    head = np.cumsum(diag[..., None, :-1] * scales, axis=-1)
    np.add(np.diagonal(head, axis1=-2, axis2=-1), diag[..., 1:] * last, out=traces[..., 2 * m :])
    # The dense contraction accumulates from +0.0, so an exact zero is +0.0
    # there; adding 0.0 does the same here and changes no other value.
    traces.real += 0.0
    return traces


def _traces_to_coords(traces: np.ndarray, n: int) -> np.ndarray:
    """r_j = (N / (2 c_N)) Tr(D L_j), after checking the traces are real to _TRACE_IMAG_TOL."""
    imag = float(np.abs(traces.imag).max())
    if not imag <= _TRACE_IMAG_TOL:
        raise ContractError(f"Tr(D L_j) has imaginary residual {imag:.3e} > {_TRACE_IMAG_TOL:.3e}")
    return (n / (2.0 * radius_scale(n))) * traces.real


def _bloch_rows(d: np.ndarray) -> np.ndarray:
    """Bloch coordinates of a stack of N x N matrices, shape (..., N^2 - 1)."""
    return _traces_to_coords(_closed_form_traces(d), d.shape[-1])


def to_bloch(d: DensityMatrix) -> BlochVector:
    """Map a density matrix to its Bloch vector.

    r_j = (N / (2 c_N)) Tr(D L_j), from the closed form in the module
    docstring. The traces must be real to sqrt(2) * 1e-12 (the module
    docstring says why); the imaginary rounding residual is checked, then
    discarded.
    """
    return BlochVector(_bloch_rows(d.entries))


def from_bloch(r: BlochVector) -> DensityMatrix:
    """Reconstruct D(r) = (1/N)(I + c_N r . L) from a Bloch vector.

    Entries come from the inverse closed form in the module docstring.
    Always yields a Hermitian unit-trace matrix; whether it is an actual
    state is a separate question answered by
    :meth:`DensityMatrix.is_positive_semidefinite`.
    """
    n = r.dim
    gather, scales, last = _plan(n)
    m = n * (n - 1) // 2
    c = radius_scale(n)
    sym, anti, diag = r.coords[:m], r.coords[m : 2 * m], r.coords[2 * m :]
    upper = c * (sym - 1j * anti)
    # sum_{k>m} s_k r_k for m = 0..N-1, then -m s_m r_m for m = 1..N-1
    weighted = np.append(np.cumsum((scales[:, 0].real * diag)[::-1])[::-1], 0.0)
    weighted[1:] += last.real * diag
    d = np.empty(n * n, dtype=np.complex128)
    d[gather] = np.concatenate([upper, upper.conj(), 1.0 + c * weighted])
    return DensityMatrix(d.reshape(n, n) / n)
