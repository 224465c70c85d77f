"""Normal form of a variation derivative adapted to an invariant abelian plane.

For a symmetric psi on so(4) that preserves some abelian plane
span{A1 in factor1, B1 in factor2}, there are orthonormal bases
(A1, A2, A3) and (B1, B2, B3) of the two factors in which psi couples the
factors only inside the pairs (A_i, B_i), plus possibly one coupling
``lambda`` between A2 and A3 and one coupling ``mu`` between B2 and B3.
In the ordered basis (A1, B1, A2, B2, A3, B3) the matrix is

    [a1 a3  .  .  .  . ]
    [a3 a2  .  .  .  . ]
    [ .  . b1 b3  L  . ]
    [ .  . b3 b2  .  M ]
    [ .  .  L  . c1 c3 ]
    [ .  .  .  M c3 c2 ]

Both steps are closed constructions.  When the plane is not supplied, it is
read off the eigenspaces of the two diagonal blocks (one stacked ``eigh``
of the validated psi's blocks) and the singular vectors of the
cross-factor coupling restricted to each pairing of them.  Most pairings
need no SVD: one whose off-pairing couplings both lie within the tolerance
keeps its eigenspaces as they are, a one-column kernel is a norm test, and
a 1x1 coupling k = f.C^T e gives the candidate (e, copysign(1, k) f), as
LAPACK's 1x1 SVD does.  The rest of the bases are the singular vectors
of that coupling between the complements of A1 and B1.  A torus or
S^3-action quotient psi takes 2 small SVDs in all.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .algebra import LieAlgebra, symmetric_matrix
from .errors import NormalFormUnavailable
from .variation import kappa_third_deriv_many
from .verify import EigenStructure, null_space

__all__ = [
    "NormalFormBasis",
    "NormalFormParams",
    "psi_normal_form",
    "normal_form_psi",
    "normal_form_kappa3",
]

_INVARIANCE_TOL = 1e-8
_SINGULAR_TOL = 1e-8

# allowed sparsity pattern in the ordered basis (A1, B1, A2, B2, A3, B3)
_ALLOWED = np.zeros((6, 6), dtype=bool)
_ALLOWED[np.arange(6), np.arange(6)] = True
for _i, _j in ((0, 1), (2, 3), (4, 5), (2, 4), (3, 5)):
    _ALLOWED[_i, _j] = _ALLOWED[_j, _i] = True


@dataclass(frozen=True)
class NormalFormBasis:
    """Adapted bases and the transformed matrix of a variation derivative."""

    a_basis: np.ndarray  # (3, 3) rows A1, A2, A3 in factor-1 coordinates
    b_basis: np.ndarray  # (3, 3) rows B1, B2, B3 in factor-2 coordinates
    transformed: np.ndarray  # (6, 6) in the ordered basis (A1, B1, ..., B3)
    lambda_coupling: float
    mu_coupling: float
    plane_residual: float
    singular_branch: bool

    def off_pattern_residual(self) -> float:
        """Largest entry outside the allowed sparsity pattern."""
        return float(np.abs(self.transformed[~_ALLOWED]).max())


def _blocks(psi: np.ndarray):
    p = psi[:3, :3]
    q = psi[3:, 3:]
    c = psi[:3, 3:]  # maps factor-2 coordinates to factor-1 coordinates
    return p, q, c


def _unit_complement(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal complement (u1, u2) of the unit rows of a, (r, 3) each."""
    r = len(a)
    axis = np.argmin(np.abs(a), axis=1)
    e = np.zeros_like(a)
    e[np.arange(r), axis] = 1.0
    u1 = np.cross(a, e)
    u1 /= np.linalg.norm(u1, axis=1)[:, None]
    u2 = np.cross(a, u1)
    return u1, u2


def _unit_plane(plane) -> np.ndarray:
    """The plane vectors (a, b) as unit rows, shape (2, 1, 3)."""
    ab = np.asarray(plane, dtype=float).reshape(2, 1, 3)
    norms = np.linalg.norm(ab, axis=2, keepdims=True)
    if not np.all(np.isfinite(norms) & (norms > 0.0)):
        raise ValueError("plane vectors must be finite and nonzero")
    return ab / norms


def _plane_residual_many(psi: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Invariance residual of span{(a, 0), (0, b)} for unit rows a, b."""
    p, q, c = _blocks(psi)
    pa = a @ p
    cta = a @ c
    qb = b @ q
    cb = b @ c.T
    r1 = pa - np.einsum("nk,nk->n", pa, a)[:, None] * a
    r2 = cta - np.einsum("nk,nk->n", cta, b)[:, None] * b
    r3 = qb - np.einsum("nk,nk->n", qb, b)[:, None] * b
    r4 = cb - np.einsum("nk,nk->n", cb, a)[:, None] * a
    return np.sqrt(
        np.einsum("nk,nk->n", r1, r1)
        + np.einsum("nk,nk->n", r2, r2)
        + np.einsum("nk,nk->n", r3, r3)
        + np.einsum("nk,nk->n", r4, r4)
    )


def _coupled_subspaces(c: np.ndarray, e: np.ndarray, f: np.ndarray, tol: float):
    """Largest subspaces A of span(e) and B of span(f) with C^T A in B and
    C B in A, as orthonormal columns, or None when either is zero.

    One restriction to the kernels of the off-subspace couplings can leave
    C^T A partly outside B; repeating it until neither space shrinks makes
    every singular pair of B^T C^T A an exact plane.  Both couplings within
    tol in Frobenius norm (so in every singular value) keep (e, f) with no
    SVD; a one-column kernel is a norm test (``null_space``), and the first
    empty kernel ends the restriction, as the spaces only shrink.  The
    narrower side's kernel comes first, so a one-column side that empties
    spares the other side's SVD.
    """
    while True:
        off = (c.T @ e - f @ (f.T @ c.T @ e), c @ f - e @ (e.T @ c @ f))
        if np.linalg.norm(off[0]) <= tol and np.linalg.norm(off[1]) <= tol:
            return e, f
        spaces = [e, f]
        for i in sorted((0, 1), key=lambda i: spaces[i].shape[1]):
            spaces[i] = spaces[i] @ null_space(off[i], tol)
            if not spaces[i].shape[1]:
                return None
        a, b = spaces
        if a.shape == e.shape and b.shape == f.shape:
            return e, f
        e, f = a, b


def _singular_vectors(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """U and Vh of m's SVD.  A 1x1 m = [[k]] needs none: LAPACK returns U =
    [[copysign(1, k)]] and Vh = [[1]]."""
    if m.shape == (1, 1):
        return np.copysign(np.ones((1, 1)), m), np.ones((1, 1))
    u, _, vh = np.linalg.svd(m)
    return u, vh


def _candidate_planes(psi: np.ndarray, tol: float):
    """Unit rows (a, b) pairing every right with every left singular vector
    of the coupling restricted to each pair of eigenspaces of P and Q.

    The plane is invariant iff P a = lambda a, Q b = mu b, C^T a = sigma b and
    C b = sigma a, so when an invariant plane exists, one is a candidate.
    P and Q take one stacked ``eigh``; psi is validated by the caller.
    """
    p, q, c = _blocks(psi)
    ws, vs = np.linalg.eigh(np.stack([p, q]))
    spaces = [EigenStructure.from_eigh(w, v).eigenspaces for w, v in zip(ws, vs)]
    cand_a, cand_b = [np.zeros((0, 3))], [np.zeros((0, 3))]
    for e, f in itertools.product(*spaces):
        coupled = _coupled_subspaces(c, e, f, tol)
        if coupled is None:
            continue
        a, b = coupled
        u, vh = _singular_vectors(b.T @ c.T @ a)
        rows_a, rows_b = vh @ a.T, u.T @ b.T
        cand_a.append(np.repeat(rows_a, len(rows_b), axis=0))
        cand_b.append(np.tile(rows_b, (len(rows_a), 1)))
    return np.concatenate(cand_a), np.concatenate(cand_b)


def _proper(basis: np.ndarray) -> np.ndarray:
    """Flip the third row of an orthonormal basis with det -1.

    Only bases of determinant +1 give an automorphism of so(4); the flip
    changes signs inside the allowed pattern, not the pattern.
    """
    if np.linalg.det(basis) < 0.0:
        basis[2] *= -1.0
    return basis


def psi_normal_form(
    g: LieAlgebra,
    psi,
    plane: tuple[np.ndarray, np.ndarray] | None = None,
) -> NormalFormBasis:
    """Adapted bases in which psi takes the coupled-pairs normal form.

    ``plane`` optionally supplies the invariant abelian plane as factor
    vectors (a, b); otherwise it is constructed from the eigenspaces of the
    diagonal blocks.  Both returned bases are proper rotations, so the
    basis change is an automorphism of so(4).  The off-pattern entries of
    the returned matrix vanish exactly when the plane is truly invariant;
    their size is bounded by the reported plane residual.

    Raises:
        ValueError: for non-finite psi or a zero or non-finite plane vector.
        NormalFormUnavailable: when no pairing of the diagonal blocks'
            eigenspaces has a coupled plane, or when no plane reaches the
            invariance tolerance.
    """
    psi = symmetric_matrix(psi, "psi", 6)
    tol = _INVARIANCE_TOL * max(1.0, float(np.abs(np.linalg.eigvalsh(psi)).max()))

    if plane is not None:
        aa, bb = _unit_plane(plane)
    else:
        aa, bb = _candidate_planes(psi, tol)
    if not len(aa):
        raise NormalFormUnavailable(
            "no pairing of the diagonal blocks' eigenspaces has a coupled plane"
        )
    res = _plane_residual_many(psi, aa, bb)
    residual = float(res.min())
    if residual > tol:
        raise NormalFormUnavailable(
            f"best invariance residual {residual:.3e} exceeds tolerance {tol:.3e}"
        )
    k = int(np.argmin(res))
    a1, b1 = aa[k], bb[k]

    v1 = np.concatenate(_unit_complement(a1[None])).T  # factor-1 complement of A1, (3, 2)
    v2 = np.concatenate(_unit_complement(b1[None])).T
    _, _, c = _blocks(psi)
    # T1: complement of A1 -> complement of B1, in the (v1, v2) coordinates;
    # its singular pairs couple A2 only to B2 and A3 only to B3
    m2 = v2.T @ c.T @ v1
    u, svals, vh = np.linalg.svd(m2)
    singular = svals[-1] <= _SINGULAR_TOL * max(1.0, svals[0])

    a_basis = _proper(np.stack([a1, v1 @ vh[1], v1 @ vh[0]]))
    b_basis = _proper(np.stack([b1, v2 @ u[:, 1], v2 @ u[:, 0]]))
    cols = []
    for i in range(3):
        cols.append(g.embed_factor(a_basis[i], 1))
        cols.append(g.embed_factor(b_basis[i], 2))
    s = np.stack(cols, axis=1)
    transformed = s.T @ psi @ s
    return NormalFormBasis(
        a_basis=a_basis,
        b_basis=b_basis,
        transformed=transformed,
        lambda_coupling=float(transformed[2, 4]),
        mu_coupling=float(transformed[3, 5]),
        plane_residual=float(residual),
        singular_branch=bool(singular),
    )


# ---------------------------------------------------------------------------
# structured variation derivatives and their commuting-pair derivatives

@dataclass(frozen=True)
class NormalFormParams:
    """Entries of the normal-form matrix displayed in the module docstring.

    Raises ValueError when any entry is not finite.
    """

    a1: float
    a2: float
    a3: float
    b1: float
    b2: float
    b3: float
    c1: float
    c2: float
    c3: float
    lam: float = 0.0
    mu: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite, vars(self).values())):
            bad = [name for name, v in vars(self).items() if not math.isfinite(v)]
            raise ValueError(f"NormalFormParams has non-finite fields: {', '.join(bad)}")


def normal_form_psi(p: NormalFormParams) -> np.ndarray:
    """The normal-form matrix in the algebra basis (A1, A2, A3, B1, B2, B3)."""
    m = np.zeros((6, 6))
    m[:3, :3] = [[p.a1, 0.0, 0.0], [0.0, p.b1, p.lam], [0.0, p.lam, p.c1]]
    m[3:, 3:] = [[p.a2, 0.0, 0.0], [0.0, p.b2, p.mu], [0.0, p.mu, p.c2]]
    m[:3, 3:] = np.diag([p.a3, p.b3, p.c3])
    m[3:, :3] = m[:3, 3:].T
    return m


def normal_form_kappa3(g: LieAlgebra, p: NormalFormParams, x_coeffs, y_coeffs) -> float:
    """kappa'''(0) for x in factor 1 and y in factor 2 with given coefficients.

    Such pairs commute exactly and the normal-form matrix is symmetric by
    construction, so this evaluates the closed form directly; it is the
    quantity whose sign constraints pin down the normal form.
    """
    psi = normal_form_psi(p)
    x = g.check_vector(g.embed_factor(np.asarray(x_coeffs, dtype=float), 1))
    y = g.check_vector(g.embed_factor(np.asarray(y_coeffs, dtype=float), 2))
    return float(kappa_third_deriv_many(g, psi, x[None, :], y[None, :])[0])
