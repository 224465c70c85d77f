"""Left-invariant metrics and two independent sectional-curvature routes.

A left-invariant metric is encoded by a symmetric positive-definite
endomorphism ``phi`` with h(a, b) = <phi a, b> relative to the algebra's
bi-invariant inner product.  Curvature is computed two ways:

* ``puttmann_curvature`` -- a closed-form expression in phi, its inverse and
  brackets (the production path, also available row-vectorized);
* ``koszul_oracle`` -- an independent first-principles route that assembles
  the Levi-Civita connection on a left-invariant frame from the Koszul
  formula and contracts the curvature tensor.

Both return the unnormalized sectional curvature <R(z1, z2) z2, z1>_h.
``normalized_curvature_many`` divides it by the h-Gram determinant of each
plane, so that the value depends only on span{z1, z2}; it is the one
plane-curvature evaluator, with the one degeneracy rule, and the scalar
``normalized_curvature`` is its single-row case.

For searches, ``LeftInvariantMetric.curvature_operator`` assembles the
curvature tensor once per metric as a quadratic form C on bivectors, in the
coordinates x = Lambda^1/2 V^T z of the metric's h-orthonormal eigenframe
(phi = V Lambda V^T), where a plane's h-Gram determinant is the plain Gram
determinant of its frame: w.Cw / w.w at w = x1 ^ x2 is the normalized
curvature of span{z1, z2}.  It is the only operator a metric carries.
"""

from __future__ import annotations

import functools

import numpy as np

from .algebra import LieAlgebra, symmetric_matrix
from .errors import DegeneratePlane, NotPositiveDefinite

__all__ = [
    "DEFINITENESS_GATE",
    "LeftInvariantMetric",
    "puttmann_curvature",
    "puttmann_curvature_many",
    "koszul_oracle",
    "normalized_curvature",
    "normalized_curvature_many",
    "wedge_many",
    "wedge_pairs",
]

# phi is a metric when its smallest eigenvalue exceeds this fraction of its
# largest; inverse-linear paths apply the same rule to phi_t
DEFINITENESS_GATE = 1e-12
# A plane is degenerate when its h-Gram determinant is at most this fraction
# of g11 g22, the squared h-sine of the angle between z1 and z2; the rule is
# scale-free, so rescaling a vector or the metric never changes it.  It never
# rejects a reference-orthonormal frame (the search witnesses): by
# Wielandt's inequality such a frame has gram / (g11 g22) >= 4k / (k + 1)^2
# for the condition number k of phi, about 4e-12 at the gate's k = 1e12.
_GRAM_TOL = 1e-14


class LeftInvariantMetric:
    """h(a, b) = <phi a, b> for a symmetric positive-definite phi.

    The eigendecomposition of phi is computed once at construction and used
    for all inverse applications, which keeps the curvature formula stable
    when phi approaches the positive-definiteness boundary.
    """

    def __init__(self, algebra: LieAlgebra, phi):
        phi = symmetric_matrix(phi, "phi", algebra.dim)
        w, v = np.linalg.eigh(phi)
        if w[-1] <= 0.0 or w[0] <= DEFINITENESS_GATE * w[-1]:
            raise NotPositiveDefinite(
                f"phi eigenvalues span [{w[0]:.3e}, {w[-1]:.3e}]"
            )
        self.algebra = algebra
        self.phi = phi
        self.eigenvalues = w
        self.eigenvectors = v
        self.phi.setflags(write=False)
        self._gamma = None
        self._operator = None

    def h(self, a, b) -> float:
        """Metric pairing h(a, b)."""
        a = self.algebra.check_vector(a)
        b = self.algebra.check_vector(b)
        return float(a @ self.phi @ b)

    def apply_rows(self, x: np.ndarray) -> np.ndarray:
        """phi applied to each row of x."""
        return x @ self.phi  # phi is symmetric

    def inv_apply_rows(self, x: np.ndarray) -> np.ndarray:
        """phi^{-1} applied to each row of x, via the eigendecomposition."""
        return ((x @ self.eigenvectors) / self.eigenvalues) @ self.eigenvectors.T

    def connection(self) -> np.ndarray:
        """Levi-Civita coefficients gamma[i, j, m] with D_{e_i} e_j = gamma[i,j,m] e_m.

        Built from the Koszul formula, using that brackets and metric values
        of left-invariant fields are constant. Cached after first use.
        """
        if self._gamma is None:
            c = self.algebra.structure
            g = self.phi
            rhs = (
                np.einsum("ijl,lk->ijk", c, g)
                - np.einsum("jkl,li->ijk", c, g)
                + np.einsum("kil,lj->ijk", c, g)
            )
            d = self.algebra.dim
            gamma = 0.5 * np.linalg.solve(g, rhs.reshape(d * d, d).T).T
            self._gamma = gamma.reshape(d, d, d)
        return self._gamma

    def curvature_operator(self) -> np.ndarray:
        """Curvature operator C on bivectors, in the metric's own frame.

        C is a symmetric d(d-1)/2 square matrix in the ``wedge_many``
        coordinates of x = Lambda^1/2 V^T z, so w = x1 ^ x2 gives w.Cw =
        <R(z1, z2) z2, z1>_h.  It is built in the h-orthonormal eigenframe f
        = V Lambda^-1/2, by the Koszul formula with the identity metric, and
        shares neither ``connection()`` nor a solve with the Koszul oracle.
        Cached after first use.
        """
        if self._operator is None:
            f = self.eigenvectors / np.sqrt(self.eigenvalues)
            # c[a, b, c]: f_c coefficient of [f_a, f_b]; f^-1 = Lambda^1/2 V^T
            back = self.eigenvectors * np.sqrt(self.eigenvalues)
            c = np.einsum("ia,ijc,jb->abc", f, self.algebra.structure @ back, f)
            # gamma[a, b, c] with D_{f_a} f_b = gamma[a, b, c] f_c
            gamma = 0.5 * (c - c.transpose(2, 0, 1) + c.transpose(1, 2, 0))
            # r[a, b, e, m]: f_m coefficient of R(f_a, f_b) f_e, where
            # R(x, y) = D_x D_y - D_y D_x - D_[x,y]
            dd = np.tensordot(gamma, gamma, (2, 1)).transpose(2, 0, 1, 3)
            r = dd - dd.transpose(1, 0, 2, 3) - np.tensordot(c, gamma, (2, 0))
            i, j = wedge_pairs(self.algebra.dim)
            # entry (p, q) is <R(f_a, f_b) f_e, f_g>_h = r[a, b, e, g] for the
            # p-th pair (a, b) and the q-th pair (g, e)
            op = r[i, j][:, j, i]
            op = 0.5 * (op + op.T)
            op.setflags(write=False)
            self._operator = op
        return self._operator


def puttmann_curvature_many(m: LeftInvariantMetric, z1s: np.ndarray, z2s: np.ndarray) -> np.ndarray:
    """Unnormalized sectional curvature, row-vectorized over (n, dim) stacks."""
    g = m.algebra
    pz1 = m.apply_rows(z1s)
    pz2 = m.apply_rows(z2s)
    lie = g.bracket_many(z1s, z2s)
    br_pz1_z2 = g.bracket_many(pz1, z2s)
    br_z1_pz2 = g.bracket_many(z1s, pz2)
    term1 = 0.5 * np.einsum("nk,nk->n", br_pz1_z2 + br_z1_pz2, lie)
    term2 = -0.75 * np.einsum("nk,nk->n", m.apply_rows(lie), lie)
    b12 = 0.5 * (br_z1_pz2 - br_pz1_z2)  # [z2, phi z1] = -[phi z1, z2]
    b11 = g.bracket_many(z1s, pz1)
    b22 = g.bracket_many(z2s, pz2)
    term3 = np.einsum("nk,nk->n", b12, m.inv_apply_rows(b12))
    term4 = -np.einsum("nk,nk->n", b11, m.inv_apply_rows(b22))
    return term1 + term2 + term3 + term4


def puttmann_curvature(m: LeftInvariantMetric, z1, z2) -> float:
    """Unnormalized sectional curvature of the pair (z1, z2) under the metric.

    Symmetric in its arguments and biquadratic under scaling of either one.
    """
    z1 = m.algebra.check_vector(z1)
    z2 = m.algebra.check_vector(z2)
    return float(puttmann_curvature_many(m, z1[None, :], z2[None, :])[0])


def koszul_oracle(m: LeftInvariantMetric, z1, z2) -> float:
    """Curvature from first principles: connection coefficients, then
    <R(z1, z2) z2, z1>_h with R(x, y) = D_x D_y - D_y D_x - D_[x,y].

    Deliberately shares nothing with ``puttmann_curvature`` beyond the
    bracket; used to cross-validate it.
    """
    g = m.algebra
    z1 = g.check_vector(z1)
    z2 = g.check_vector(z2)
    gamma = m.connection()

    def nabla(u, v):
        return np.einsum("i,j,ijm->m", u, v, gamma)

    r = (
        nabla(z1, nabla(z2, z2))
        - nabla(z2, nabla(z1, z2))
        - nabla(g.bracket(z1, z2), z2)
    )
    return float(r @ m.phi @ z1)


def normalized_curvature_many(m: LeftInvariantMetric, z1s: np.ndarray, z2s: np.ndarray) -> np.ndarray:
    """Sectional curvature of each plane span{z1, z2}, row-vectorized over
    (n, dim) stacks.

    Divides the unnormalized value by the h-Gram determinant, so the result
    is invariant under change of basis of the plane.

    Raises:
        DegeneratePlane: if some row's h-Gram determinant is at most 1e-14
            times g11 g22, as for a zero vector or a parallel pair.
    """
    pz1 = m.apply_rows(z1s)
    g11 = np.einsum("nk,nk->n", pz1, z1s)
    g22 = np.einsum("nk,nk->n", m.apply_rows(z2s), z2s)
    g12 = np.einsum("nk,nk->n", pz1, z2s)
    gram = g11 * g22 - g12 * g12
    bad = np.nonzero(gram <= _GRAM_TOL * g11 * g22)[0]
    if len(bad):
        n = bad[0]
        raise DegeneratePlane(
            f"h-Gram determinant {gram[n]:.3e} of a plane with g11 g22 = {g11[n] * g22[n]:.3e}"
        )
    return puttmann_curvature_many(m, z1s, z2s) / gram


@functools.lru_cache(maxsize=None)
def wedge_pairs(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j), i < j, of the bivector coordinates: the read-only
    arrays ``np.triu_indices(dim, 1)``."""
    i, j = np.triu_indices(dim, 1)
    i.setflags(write=False)
    j.setflags(write=False)
    return i, j


def wedge_many(z1s: np.ndarray, z2s: np.ndarray) -> np.ndarray:
    """Row-wise bivector coordinates of z1 ^ z2 on (n, dim) stacks.

    Coordinate k is z1[i] z2[j] - z1[j] z2[i] for the k-th pair (i, j) of
    ``wedge_pairs(dim)``.
    """
    i, j = wedge_pairs(z1s.shape[1])
    return z1s[:, i] * z2s[:, j] - z1s[:, j] * z2s[:, i]


def normalized_curvature(m: LeftInvariantMetric, z1, z2) -> float:
    """Sectional curvature of the plane span{z1, z2}: the single-row case of
    ``normalized_curvature_many``, which raises DegeneratePlane."""
    z1 = m.algebra.check_vector(z1)
    z2 = m.algebra.check_vector(z2)
    return float(normalized_curvature_many(m, z1[None, :], z2[None, :])[0])
