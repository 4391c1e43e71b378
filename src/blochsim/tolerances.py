"""The package's numerical tolerances, each defined once.

Validators compare as ``not (residual <= TOL)``, so that a NaN residual
fails the check instead of slipping past ``residual > TOL``.
"""

#: Exact algebraic identities (hermiticity, traces, norms): rounding error.
ALGEBRA_TOL = 1e-12
#: Eigenvalue checks; eigensolvers leave larger residuals on boundary states.
EIGEN_TOL = 1e-10
#: An edge whose part off the span of the edges before it is shorter than
#: this makes the vertices affinely dependent: QR leaves rounding of that size.
EDGE_TOL = 1e-14
#: Points further than this from the simplex's affine hull are rejected.
HULL_TOL = 1e-9
#: Weights may dip this far below zero and still count as inside (valid
#: states land exactly on faces); strictly inside means every weight exceeds it.
BOUNDARY_TOL = 1e-12
#: Born weights at or below this count as zero in the sampler: such an outcome
#: could win the race only with a draw below 1e-297, and its quotients overflow.
NEGLIGIBLE_WEIGHT = 1e-300
#: Coefficient tolerance for the oracle's brute-force membership solve.
MEMBER_TOL = 1e-10
#: Two classifications within this band of a region boundary count as a tie.
TIE_BAND = 1e-10
