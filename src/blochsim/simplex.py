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

with mu the Lebesgue measure. :func:`subregion_measures` computes the
left-hand side from Gram determinants; :func:`born_probabilities` the
right-hand side from traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bloch import BlochVector, DensityMatrix, Ket, ket_to_density, to_bloch
from .errors import BasisError, ContractError, DimensionError, GeometryError
from .generators import GeneratorSet
from .tolerances import ALGEBRA_TOL, BOUNDARY_TOL, HULL_TOL


@dataclass(frozen=True)
class MeasurementBasis:
    """N orthonormal kets defining a non-degenerate projective measurement.

    ``kets[i]`` is the i-th basis vector |a_i>.
    """

    kets: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.kets, dtype=np.complex128)
        if k.ndim != 2 or k.shape[0] != k.shape[1] or k.shape[0] < 2:
            raise DimensionError(f"basis must be N kets of length N (N >= 2), got shape {k.shape}")
        if not np.isfinite(k).all():
            raise BasisError("basis kets have non-finite entries")
        gram = k.conj() @ k.T
        resid = float(np.max(np.abs(gram - np.eye(k.shape[0]))))
        if not resid <= ALGEBRA_TOL:
            raise BasisError(f"basis is not orthonormal: max |<a_i|a_j> - delta_ij| = {resid:.3e}")
        k = k.copy()
        k.setflags(write=False)
        object.__setattr__(self, "kets", k)

    @property
    def dim(self) -> int:
        return self.kets.shape[0]

    @classmethod
    def canonical(cls, n: int) -> "MeasurementBasis":
        """The canonical (computational) basis of dimension n."""
        return cls(np.eye(n, dtype=np.complex128))

    def ket(self, i: int) -> Ket:
        return Ket(self.kets[i])

    def projector(self, i: int) -> DensityMatrix:
        return ket_to_density(self.ket(i))


@dataclass(frozen=True)
class Barycentric:
    """Convex weights over the N simplex vertices: each >= -1e-12, sum 1.

    Doubles as a probability vector (Born weights) and as the coordinates
    of points on the simplex.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1 or w.size < 2:
            raise DimensionError(f"barycentric weights must be a vector of length >= 2, got shape {w.shape}")
        total = float(w.sum())
        if not abs(total - 1.0) <= ALGEBRA_TOL:
            raise ContractError(f"barycentric weights sum to {total!r}, expected 1")
        low = float(w.min())
        if not low >= -BOUNDARY_TOL:
            raise ContractError(f"barycentric weight {low!r} below -{BOUNDARY_TOL}")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def dim(self) -> int:
        return self.weights.size


@dataclass(frozen=True)
class MeasurementSimplex:
    """The N outcome vertices plus cached affine geometry.

    Attributes
    ----------
    dim : int
        Hilbert dimension N; the simplex has affine dimension N - 1 and
        lives in R^(N^2 - 1).
    vertices : np.ndarray
        Shape (N, N^2 - 1); row i is n_i.
    centroid : np.ndarray
        Mean of the vertices (numerically the origin, i.e. the maximally
        mixed state).
    frame : np.ndarray
        Shape (N - 1, N^2 - 1); orthonormal rows spanning the direction
        space of the affine hull, built by Gram-Schmidt on the edges
        (n_i - n_N) in order.
    total_measure : float
        Lebesgue measure of the simplex in the embedding's Euclidean
        metric.
    """

    dim: int
    vertices: np.ndarray
    centroid: np.ndarray
    frame: np.ndarray
    total_measure: float

    def __post_init__(self):
        for name in ("vertices", "centroid", "frame"):
            a = np.asarray(getattr(self, name), dtype=np.float64).copy()
            a.setflags(write=False)
            object.__setattr__(self, name, a)


def simplex_measure(vertices: np.ndarray) -> float:
    """Lebesgue measure of the simplex spanned by the given vertex rows.

    Gram-determinant formula: mu = sqrt(det(E^T E)) / k! with E the matrix
    of edge vectors v_i - v_0 and k the number of edges.
    """
    v = np.asarray(vertices, dtype=np.float64)
    k = v.shape[0] - 1
    edges = v[1:] - v[0]
    gram = edges @ edges.T
    det = float(np.linalg.det(gram))
    return math.sqrt(max(det, 0.0)) / math.factorial(k)


def _gram_schmidt(rows: np.ndarray) -> np.ndarray:
    """Orthonormalize rows in order; two passes for numerical insurance."""
    q = rows.astype(np.float64).copy()
    for i in range(q.shape[0]):
        for _ in range(2):
            for j in range(i):
                q[i] -= (q[j] @ q[i]) * q[j]
        norm = np.linalg.norm(q[i])
        if norm < 1e-14:
            raise GeometryError("degenerate edge set: simplex vertices are affinely dependent")
        q[i] /= norm
    return q


def basis_to_simplex(b: MeasurementBasis, g: GeneratorSet) -> MeasurementSimplex:
    """Build the measurement simplex of an orthonormal basis.

    Vertices are n_i = to_bloch(|a_i><a_i|). They satisfy ||n_i|| = 1 and
    n_i . n_j = -1/(N-1) for i != j, so all edges have length
    sqrt(2N/(N-1)).
    """
    if g.dim != b.dim:
        raise DimensionError(f"generator set has dim {g.dim} but basis has dim {b.dim}")
    n = b.dim
    vertices = np.empty((n, n * n - 1), dtype=np.float64)
    for i in range(n):
        vertices[i] = to_bloch(b.projector(i), g).coords
    centroid = vertices.mean(axis=0)
    frame = _gram_schmidt(vertices[:-1] - vertices[-1])
    total = simplex_measure(vertices)
    return MeasurementSimplex(
        dim=n, vertices=vertices, centroid=centroid, frame=frame, total_measure=total
    )


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
    system = np.vstack([s.frame @ (s.vertices - s.centroid).T, np.ones(s.dim)])
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
    proj = BlochVector(dim=r.dim, coords=s.centroid + s.frame.T @ (s.frame @ dev))
    barycentric_of(proj, s)
    return proj


def born_probabilities(d: DensityMatrix, b: MeasurementBasis) -> Barycentric:
    """Exact outcome probabilities p_i = Tr(D |a_i><a_i|) = <a_i|D|a_i>.

    Equal (to 1e-10) to the barycentric coordinates of the projection of
    the state's Bloch vector onto the measurement simplex.
    """
    if d.dim != b.dim:
        raise DimensionError(f"state has dim {d.dim} but basis has dim {b.dim}")
    p = np.einsum("ij,jk,ik->i", b.kets.conj(), d.entries, b.kets)
    imag = float(np.max(np.abs(p.imag)))
    if not imag <= ALGEBRA_TOL:
        raise ContractError(f"<a_i|D|a_i> has imaginary residual {imag:.3e} > {ALGEBRA_TOL}")
    return Barycentric(p.real)


def subregion_measures(rpar: BlochVector, s: MeasurementSimplex) -> np.ndarray:
    """Lebesgue measures of the N sub-simplexes A_i carved out by rpar.

    A_i is spanned by the vertices {n_j : j != i} plus rpar; its measure
    ratio mu(A_i) / mu(simplex) equals the i-th barycentric weight of
    rpar, which is the Born probability of outcome i. The point must lie
    inside the closed simplex.
    """
    barycentric_of(rpar, s)
    measures = np.empty(s.dim)
    for i in range(s.dim):
        verts = s.vertices.copy()
        verts[i] = rpar.coords
        measures[i] = simplex_measure(verts)
    return measures
