"""The measurement simplex and exact Born probabilities as measure ratios.

The Bloch vectors n_i of the N outcome projectors |a_i><a_i| of an
orthonormal basis are unit vectors with pairwise dot products -1/(N-1);
they span an (N-1)-dimensional regular simplex inscribed in the Bloch
sphere. Orthogonally projecting a state's Bloch vector onto the simplex
lands on the vector of the basis-diagonal (fully reduced) state, and the
barycentric coordinates of that point are the Born probabilities.

The central identity: the projected point r_par splits the simplex into N
sub-simplexes A_i (replace vertex n_i by r_par), and

    mu(A_i) / mu(simplex) = Tr(D |a_i><a_i|)

with mu the Lebesgue measure. :func:`subregion_ratios` computes the
left-hand side as |det S_i| / |det S|, S and S_i the square systems of
the simplex and of A_i in frame coordinates, which ``_frame_systems``
alone builds; :func:`born_probabilities` the right-hand side from traces,
read off the diagonal of D when the basis is the computational one.
A :class:`MeasurementSimplex` is given its vertices alone and derives its
centroid and frame from them; its total measure is derived on request,
from the same system S.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bloch import BlochVector, DensityMatrix, _as_integer, _bloch_rows, _numbers
from .errors import BasisError, ContractError, DimensionError, GeometryError
from .tolerances import ALGEBRA_TOL, BOUNDARY_TOL, HULL_TOL


@dataclass(frozen=True)
class MeasurementBasis:
    """N orthonormal kets defining a non-degenerate projective measurement.

    ``kets[i]`` is the i-th basis vector |a_i>. ``_is_identity`` records,
    once, whether the validated kets equal the identity exactly (signed
    zeros compare equal): the computational basis, whose Born weights and
    reduced state are read off the diagonal.
    """

    kets: np.ndarray
    _is_identity: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        k = _numbers(self.kets, np.complex128, "basis kets")
        if k.ndim != 2 or k.shape[0] != k.shape[1] or k.shape[0] < 2:
            raise DimensionError(f"basis must be N kets of length N (N >= 2), got shape {k.shape}")
        if not np.isfinite(k).all():
            raise BasisError("basis kets have non-finite entries")
        with np.errstate(over="ignore", invalid="ignore"):  # near float max: resid inf or nan
            gram = k.conj() @ k.T
            resid = float(np.abs(gram - np.eye(k.shape[0])).max())
        if not resid <= ALGEBRA_TOL:
            raise BasisError(f"basis is not orthonormal: max |<a_i|a_j> - delta_ij| = {resid:.3e}")
        k.setflags(write=False)
        object.__setattr__(self, "kets", k)
        object.__setattr__(self, "_is_identity", bool((k == np.eye(k.shape[0])).all()))

    @property
    def dim(self) -> int:
        return self.kets.shape[0]

    @classmethod
    def canonical(cls, n: int) -> "MeasurementBasis":
        """The canonical (computational) basis of dimension n."""
        return cls(np.eye(_as_integer(n, "basis dim", 2, error=DimensionError), dtype=np.complex128))

    def projector(self, i: int) -> DensityMatrix:
        """|a_i><a_i|, the outer product ``ket_to_density`` forms, from the validated row."""
        a = self.kets[i]
        return DensityMatrix(np.outer(a, a.conj()))


@dataclass(frozen=True)
class Barycentric:
    """Convex weights over the N simplex vertices: each >= -1e-12, sum 1.

    Doubles as a probability vector (Born weights) and as the coordinates
    of points on the simplex. A single weight is the 0-simplex, a point:
    the one class of a one-block partition.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = _numbers(self.weights, np.float64, "barycentric weights")
        if w.ndim != 1 or w.size < 1:
            raise DimensionError(f"barycentric weights must be a nonempty vector, got shape {w.shape}")
        values = w.tolist()
        total = sum(values)  # Python floats: an overflow is inf, not a RuntimeWarning
        if not abs(total - 1.0) <= ALGEBRA_TOL:
            raise ContractError(f"barycentric weights sum to {total!r}, expected 1")
        # a NaN or infinite weight has already failed the sum, so min reads finite floats
        low = min(values)
        if not low >= -BOUNDARY_TOL:
            raise ContractError(f"barycentric weight {low!r} below -{BOUNDARY_TOL}")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def dim(self) -> int:
        return self.weights.size


@dataclass(frozen=True)
class MeasurementSimplex:
    """The N outcome vertices, and the affine geometry derived from them.

    Only the vertices are given: they fix the simplex, and the centroid
    and frame are worked out from them once, at construction.

    Attributes
    ----------
    vertices : np.ndarray
        Shape (N, N^2 - 1), N >= 2; row i is n_i.
    centroid : np.ndarray
        Shape (N^2 - 1,); the mean of the vertices (numerically the
        origin, i.e. the maximally mixed state).
    frame : np.ndarray
        Shape (N - 1, N^2 - 1); orthonormal rows spanning the direction
        space of the affine hull: the Q factor of one QR factorization of
        the edges (n_i - n_N), with each row's sign set so that R has a
        positive diagonal. That is Gram-Schmidt on the edges in order, up
        to rounding.
    """

    vertices: np.ndarray
    centroid: np.ndarray = field(init=False)
    frame: np.ndarray = field(init=False)

    def __post_init__(self):
        v = _numbers(self.vertices, np.float64, "simplex vertices")
        n = v.shape[0] if v.ndim == 2 else 0
        if n < 2 or v.shape != (n, n * n - 1):
            raise DimensionError(f"simplex vertices must have shape (N, N^2 - 1) with N >= 2, got {v.shape}")
        if not np.isfinite(v).all():
            raise ContractError("simplex has non-finite entries")
        with np.errstate(over="ignore"):  # vertices near float max: an edge or the mean is inf
            c = v.mean(axis=0)
            f = np.array(_gram_schmidt(v[:-1] - v[-1]), order="C")  # Q^T is column-major
        if not (np.isfinite(c).all() and np.isfinite(f).all()):
            raise GeometryError("simplex edges or centroid overflow the float range")
        for name, a in (("vertices", v), ("centroid", c), ("frame", f)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def dim(self) -> int:
        """Hilbert dimension N, one vertex per outcome: affine dimension N - 1 in R^(N^2 - 1)."""
        return self.vertices.shape[0]

    @property
    def total_measure(self) -> float:
        """Lebesgue measure of the simplex in the embedding's Euclidean metric.

        |det S| / (N-1)!, taken as a log so that neither factor overflows;
        subnormal from N = 172, and never read by the ratios.
        """
        # column-major like _gram_schmidt's frame: matmul rounds by layout, and reports print the bits
        frame = np.asfortranarray(self.frame)
        _, logdet = np.linalg.slogdet(_frame_systems(self.vertices, self.centroid, frame))
        return math.exp(logdet - math.lgamma(self.dim))


def _gram_schmidt(rows: np.ndarray) -> np.ndarray:
    """Orthonormalize rows in order, as one QR factorization with R_ii > 0."""
    q, r = np.linalg.qr(rows.T)
    diag = np.diagonal(r)
    if not np.all(np.abs(diag) >= 1e-14):
        raise GeometryError("degenerate edge set: simplex vertices are affinely dependent")
    q *= np.sign(diag)
    return q.T


def basis_to_simplex(b: MeasurementBasis) -> MeasurementSimplex:
    """Build the measurement simplex of an orthonormal basis.

    Vertices are n_i = to_bloch(|a_i><a_i|), all N mapped in one call.
    They satisfy ||n_i|| = 1 and n_i . n_j = -1/(N-1) for i != j, so all
    edges have length sqrt(2N/(N-1)).
    """
    kets = b.kets
    # the projectors |a_i><a_i|, entry for entry as ket_to_density builds them
    return MeasurementSimplex(_bloch_rows(kets[:, :, None] * kets.conj()[:, None, :]))


def _frame_systems(vertices, centroid, frame, point=None) -> np.ndarray:
    """S = [frame . (n_j - centroid); 1], one column per vertex; mu = |det S| / (N-1)!.

    Given a Bloch-space ``point``, the stack (N + 1, N, N) of S and the N
    systems S_i of the regions A_i: S without column i, then the point's
    column [frame . (point - centroid); 1].
    """
    n = vertices.shape[0]
    square = np.vstack([frame @ (vertices - centroid).T, np.ones(n)])
    if point is None:
        return square
    extended = np.column_stack([square, np.append(frame @ (point - centroid), 1.0)])
    k = np.arange(n)
    columns = k + (k >= k[:, None])  # row i: every column but i, the point's (N) last
    return np.concatenate([square[None], extended[:, columns].transpose(1, 0, 2)])


def _check_point(r: BlochVector, s: MeasurementSimplex) -> None:
    if r.dim != s.dim:
        raise DimensionError(f"point has dim {r.dim} but simplex has dim {s.dim}")


def affine_coordinates(point: BlochVector, s: MeasurementSimplex) -> np.ndarray:
    """Affine weights b with point = sum_i b_i n_i and sum b_i = 1.

    The point must lie on the affine hull (orthogonal-complement residual
    <= 1e-9); the weights themselves may be negative for points outside
    the simplex. Solved by least squares in the frame coordinates.
    """
    _check_point(point, s)
    dev = point.coords - s.centroid
    y = s.frame @ dev
    off_hull = float(np.linalg.norm(dev - s.frame.T @ y))
    if not off_hull <= HULL_TOL:
        raise GeometryError(
            f"point is {off_hull:.3e} off the simplex affine hull (tolerance {HULL_TOL})"
        )
    system = _frame_systems(s.vertices, s.centroid, s.frame)
    rhs = np.concatenate([y, [1.0]])
    weights, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    resid = float(np.linalg.norm(system @ weights - rhs))
    if not resid <= HULL_TOL:
        raise ContractError(f"barycentric solve residual {resid:.3e} exceeds {HULL_TOL}")
    return weights


def barycentric_of(point: BlochVector, s: MeasurementSimplex) -> Barycentric:
    """Barycentric coordinates of an on-simplex point.

    Raises GeometryError if the point is off the affine hull or outside
    the closed simplex (any weight < -1e-12).
    """
    weights = affine_coordinates(point, s)
    low = float(weights.min())
    if not low >= -BOUNDARY_TOL:
        raise GeometryError(f"point lies outside the simplex: min weight {low!r}")
    return Barycentric(weights)


def project_onto_simplex(r: BlochVector, s: MeasurementSimplex) -> BlochVector:
    """Orthogonal projection of r onto the simplex's affine hull.

    For a valid state this is the Bloch vector of the fully reduced state
    sum_j <a_j|D|a_j> |a_j><a_j|, and it always lands inside the closed
    simplex; that containment is asserted rather than assumed, so an
    invalid input surfaces as a GeometryError instead of silent nonsense.
    """
    _check_point(r, s)
    dev = r.coords - s.centroid
    proj = BlochVector(s.centroid + s.frame.T @ (s.frame @ dev))
    barycentric_of(proj, s)
    return proj


def born_probabilities(d: DensityMatrix, b: MeasurementBasis) -> Barycentric:
    """Exact outcome probabilities p_i = Tr(D |a_i><a_i|) = <a_i|D|a_i>.

    Equal (to 1e-10) to the barycentric coordinates of the projection of
    the state's Bloch vector onto the measurement simplex.

    The imaginary parts must vanish to N * 1e-12. Construction leaves the
    anti-Hermitian part of D with entries up to 5e-13, and <a|D|a> sums
    it over all N^2 entries, so its imaginary part reaches
    5e-13 (sum_j |a_j|)^2 <= N * 5e-13 for a unit ket a.

    In the computational basis every term of the contraction but
    D_ii is a signed zero, summed onto +0.0, so the diagonal plus 0.0
    (which turns -0.0 into +0.0) is the contraction bit for bit.
    """
    if d.dim != b.dim:
        raise DimensionError(f"state has dim {d.dim} but basis has dim {b.dim}")
    if b._is_identity:
        p = np.diagonal(d.entries) + 0.0
    else:
        p = np.einsum("ij,jk,ik->i", b.kets.conj(), d.entries, b.kets)
    imag = float(np.abs(p.imag).max())
    bound = d.dim * ALGEBRA_TOL
    if not imag <= bound:
        raise ContractError(f"<a_i|D|a_i> has imaginary residual {imag:.3e} > {bound:.3e}")
    return Barycentric(p.real)


def subregion_ratios(rpar: BlochVector, s: MeasurementSimplex) -> np.ndarray:
    """Measure ratios mu(A_i) / mu(simplex) of the N sub-simplexes A_i carved out by rpar.

    A_i is spanned by the vertices {n_j : j != i} plus rpar; its ratio,
    |det S_i| / |det S| from one ``slogdet``, is the i-th barycentric
    weight of rpar: the Born probability of outcome i. The point must lie
    inside the closed simplex.
    """
    barycentric_of(rpar, s)
    _, logdets = np.linalg.slogdet(_frame_systems(s.vertices, s.centroid, s.frame, rpar.coords))
    return np.exp(logdets[1:] - logdets[0])
