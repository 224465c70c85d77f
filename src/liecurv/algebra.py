"""Lie algebra arithmetic for the compact algebras so(3) and so(4).

Vectors are plain numpy arrays of coefficients in a fixed orthonormal basis,
and the reference inner product is the ordinary dot product of coefficients.
The structure tensor ``c[i, j, k]`` holds the e_k coefficient of [e_i, e_j].
For the algebras built here ``c`` is exactly antisymmetric in (i, j) and in
(j, k); antisymmetry in the trailing pair is precisely bi-invariance of the
dot product, which the rest of the library relies on.

Basis conventions:

* so(3): ``[e1, e2] = e3`` cyclically (the quaternion i, j, k table).
* so(4): basis ordered (A1, A2, A3, B1, B2, B3) where each triple is an
  so(3) copy and the two triples commute.  ``factor_split`` records the
  index sets of the two ideals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch

__all__ = [
    "LieAlgebra",
    "Subalgebra",
    "so3",
    "so4",
    "factor_subalgebra",
    "diagonal_subalgebra",
    "symmetric_matrix",
    "symmetric_matrices",
]

_STRUCTURE_TOL = 1e-12
_SUBALGEBRA_SPAN_TOL = 1e-10
_ORTHONORMAL_TOL = 1e-12
_SYMMETRY_TOL = 1e-12


def symmetric_matrix(m, name: str, dim: int | None = None) -> np.ndarray:
    """Validated symmetric float copy of a square matrix (dim x dim if given):
    the one-matrix case of ``symmetric_matrices``.

    Raises DimensionMismatch for a wrong shape, and ValueError for
    non-finite entries or an asymmetry beyond 1e-12 relative to the largest
    entry (at least 1); within that tolerance the matrix is symmetrized.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or dim not in (None, m.shape[0]):
        want = "square" if dim is None else f"{dim}x{dim}"
        raise DimensionMismatch(f"{name} must be {want}, got {m.shape}")
    return _symmetrized(m[None], lambda n: name)[0]


def symmetric_matrices(ms, name: str, dim: int | None = None) -> np.ndarray:
    """Validated symmetric float copy of an (n, d, d) stack (d = dim if
    given), each matrix checked and symmetrized by ``symmetric_matrix``'s
    rule, so row n is bitwise ``symmetric_matrix(ms[n], ...)``.  The first
    matrix that fails is named ``name[n]``.
    """
    ms = np.asarray(ms, dtype=float)
    if ms.ndim != 3 or ms.shape[1] != ms.shape[2] or dim not in (None, ms.shape[1]):
        want = "square" if dim is None else f"{dim}x{dim}"
        raise DimensionMismatch(f"{name} must be a stack of {want} matrices, got {ms.shape}")
    return _symmetrized(ms, lambda n: f"{name}[{n}]")


def _symmetrized(ms: np.ndarray, label) -> np.ndarray:
    """The rule of ``symmetric_matrices`` on an (n, d, d) stack; ``label(n)``
    names matrix n in an error."""
    if not np.isfinite(ms).all():
        finite = np.isfinite(ms).all(axis=(1, 2))
        raise ValueError(f"{label(np.argmin(finite))} has non-finite entries")
    asym = np.abs(ms - ms.transpose(0, 2, 1)).max(axis=(1, 2))
    skew = asym > _SYMMETRY_TOL * np.maximum(1.0, np.abs(ms).max(axis=(1, 2)))
    if skew.any():
        raise ValueError(f"{label(np.argmax(skew))} is not symmetric")
    return 0.5 * (ms + ms.transpose(0, 2, 1))


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(np.asarray(a, dtype=float))
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class LieAlgebra:
    """A finite-dimensional Lie algebra with a bi-invariant inner product.

    Construction validates antisymmetry, bi-invariance of the dot product
    (total antisymmetry of the structure tensor in its last two indices),
    the Jacobi identity, and, when ``factor_split`` is given, that the two
    factors are commuting bracket-closed ideals.  Instances are immutable
    and safe to share between threads.
    """

    dim: int
    structure: np.ndarray
    factor_split: tuple[tuple[int, ...], tuple[int, ...]] | None = None

    def __post_init__(self):
        c = _readonly(self.structure)
        object.__setattr__(self, "structure", c)
        if c.shape != (self.dim, self.dim, self.dim):
            raise DimensionMismatch(
                f"structure tensor shape {c.shape} does not match dim={self.dim}"
            )
        if np.abs(c + np.swapaxes(c, 0, 1)).max() > _STRUCTURE_TOL:
            raise ValueError("structure tensor is not antisymmetric in (i, j)")
        if np.abs(c + np.swapaxes(c, 1, 2)).max() > _STRUCTURE_TOL:
            raise ValueError("inner product is not bi-invariant for this bracket")
        jacobi = (
            np.einsum("ijm,mkl->ijkl", c, c)
            + np.einsum("jkm,mil->ijkl", c, c)
            + np.einsum("kim,mjl->ijkl", c, c)
        )
        if np.abs(jacobi).max() > _STRUCTURE_TOL:
            raise ValueError("Jacobi identity violated")
        if self.factor_split is not None:
            idx1, idx2 = self.factor_split
            if sorted(idx1 + idx2) != list(range(self.dim)):
                raise ValueError("factor_split must partition the basis indices")
            i1, i2 = np.asarray(idx1), np.asarray(idx2)
            if np.abs(c[np.ix_(i1, i2)]).max() > _STRUCTURE_TOL:
                raise ValueError("factors do not commute")
            # each factor closed: brackets within a factor have no component outside it
            if np.abs(c[np.ix_(i1, i1, i2)]).max() > _STRUCTURE_TOL:
                raise ValueError("first factor is not bracket-closed")
            if np.abs(c[np.ix_(i2, i2, i1)]).max() > _STRUCTURE_TOL:
                raise ValueError("second factor is not bracket-closed")

    # -- vectors -----------------------------------------------------------

    def check_vector(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise DimensionMismatch(f"expected shape ({self.dim},), got {x.shape}")
        if not np.all(np.isfinite(x)):
            raise ValueError("vector has non-finite entries")
        return x

    def bracket(self, x, y) -> np.ndarray:
        """Lie bracket [x, y] of two coefficient vectors."""
        x = self.check_vector(x)
        y = self.check_vector(y)
        return np.einsum("ijk,i,j->k", self.structure, x, y)

    def bracket_many(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Row-wise brackets of two (n, dim) stacks. No validation.

        One matrix product of the row-wise outer products with the flattened
        structure tensor.  For so(3) and so(4), whose structure constants are
        0 and +-1, each component sums two rounded products, so the result is
        bitwise that of ``bracket``.
        """
        d = self.dim
        outer = (xs[:, :, None] * ys[:, None, :]).reshape(len(xs), d * d)
        return outer @ self.structure.reshape(d * d, d)

    # -- factor structure --------------------------------------------------

    def _require_split(self):
        if self.factor_split is None:
            raise ValueError("algebra has no factor decomposition")

    def embed_factor(self, v, which: int) -> np.ndarray:
        """Embed factor coordinates into a full-length vector."""
        self._require_split()
        idx = list(self.factor_split[which - 1])
        v = np.asarray(v, dtype=float)
        if v.shape != (len(idx),):
            raise DimensionMismatch(f"expected shape ({len(idx)},), got {v.shape}")
        out = np.zeros(self.dim)
        out[idx] = v
        return out


@dataclass(frozen=True)
class Subalgebra:
    """An orthonormal basis spanning a bracket-closed subspace."""

    algebra: LieAlgebra
    basis: np.ndarray  # (k, dim), orthonormal rows

    def __post_init__(self):
        b = _readonly(np.atleast_2d(self.basis))
        object.__setattr__(self, "basis", b)
        if b.ndim != 2 or b.shape[1] != self.algebra.dim:
            raise DimensionMismatch("basis rows must have the algebra dimension")
        gram = b @ b.T
        if np.abs(gram - np.eye(len(b))).max() > _ORTHONORMAL_TOL:
            raise ValueError("basis is not orthonormal")
        for u in b:
            for v in b:
                w = self.algebra.bracket(u, v)
                resid = w - b.T @ (b @ w)
                if np.linalg.norm(resid) > _SUBALGEBRA_SPAN_TOL:
                    raise ValueError("subspace is not closed under the bracket")

    @property
    def projector(self) -> np.ndarray:
        """Orthogonal projection matrix onto the subspace."""
        return self.basis.T @ self.basis

    @property
    def k(self) -> int:
        return self.basis.shape[0]


# ---------------------------------------------------------------------------
# constructors


def _so3_structure() -> np.ndarray:
    c = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        c[i, j, k] = 1.0
        c[j, i, k] = -1.0
    return c


def so3() -> LieAlgebra:
    """The 3-dimensional algebra with [e1, e2] = e3 cyclically."""
    return LieAlgebra(dim=3, structure=_so3_structure())


def so4() -> LieAlgebra:
    """so(4) as two commuting so(3) ideals with basis (A1..A3, B1..B3)."""
    c = np.zeros((6, 6, 6))
    c3 = _so3_structure()
    c[:3, :3, :3] = c3
    c[3:, 3:, 3:] = c3
    return LieAlgebra(dim=6, structure=c, factor_split=((0, 1, 2), (3, 4, 5)))


# ---------------------------------------------------------------------------
# subalgebras


def factor_subalgebra(g: LieAlgebra, which: int) -> Subalgebra:
    """One of the two so(3) ideals of so(4) as a Subalgebra."""
    g._require_split()
    idx = list(g.factor_split[which - 1])
    basis = np.zeros((len(idx), g.dim))
    basis[np.arange(len(idx)), idx] = 1.0
    return Subalgebra(g, basis)


def diagonal_subalgebra(g: LieAlgebra) -> Subalgebra:
    """The diagonal so(3) inside so(4): span of (A_i + B_i)/sqrt(2)."""
    g._require_split()
    idx1, idx2 = g.factor_split
    if len(idx1) != len(idx2):
        raise ValueError("factors have different dimensions")
    basis = np.zeros((len(idx1), g.dim))
    for r, (i, j) in enumerate(zip(idx1, idx2)):
        basis[r, i] = basis[r, j] = 1.0 / np.sqrt(2.0)
    return Subalgebra(g, basis)
