"""Generators for the known nonnegatively curved metric families on so(4).

All matrices use the so4() basis convention (A1, A2, A3, B1, B2, B3).
Three families are produced, each with a metric generator and the matching
variation-derivative generator:

* products        -- block-diagonal metrics, one block per so(3) factor;
* torus metrics   -- a common eigenvalue c on a 2-plane of the first factor,
  d on a 2-plane of the second, and an arbitrary 2x2 block on the remaining
  plane tau = span{A, B}, bounded above by (4/3) diag(c, d);
* quotient (diagonal-action) metrics -- block-diagonal over the three planes
  V_i = span{A_i, B_i} with the closed-form 2x2 blocks below.

Eigenvalue formulas for the 3-dimensional quotient construction and its
inverse-linear counterpart are included, plus the reparametrization that
identifies the inverse-linear path with family members at every time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import symmetric_matrix
from .errors import (
    DimensionMismatch,
    FamilyConstraintViolated,
    HorizonExceeded,
    NotPositiveDefinite,
)

__all__ = [
    "ProductParams",
    "TorusParams",
    "S3ActionParams",
    "product_phi",
    "s3_quotient_eigenvalues",
    "inverse_linear_eigs_s3",
    "torus_phi",
    "torus_psi",
    "s3_action_phi",
    "s3_action_psi",
    "s3_action_path_residual_many",
    "product_invariant_planes",
    "torus_invariant_planes",
    "s3_action_invariant_planes",
    "invariant_abelian_residual_many",
]

_BOUND_MARGIN = 1e-12


def _check_spd(mat: np.ndarray, name: str) -> np.ndarray:
    mat = symmetric_matrix(mat, name)
    w = np.linalg.eigvalsh(mat)
    if w[0] <= 0.0:
        raise NotPositiveDefinite(f"{name} has eigenvalue {w[0]:.3e}")
    return mat


def _require_finite(**values):
    for name, value in values.items():
        if not np.isfinite(value).all():
            raise ValueError(f"{name} is non-finite: {value}")


@dataclass(frozen=True)
class ProductParams:
    """Two independent 3x3 positive-definite factor metrics."""

    phi1: np.ndarray
    phi2: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "phi1", _check_spd(self.phi1, "phi1"))
        object.__setattr__(self, "phi2", _check_spd(self.phi2, "phi2"))
        if self.phi1.shape != (3, 3) or self.phi2.shape != (3, 3):
            raise DimensionMismatch("factor blocks must be 3x3")


def product_phi(p: ProductParams) -> np.ndarray:
    """Block-diagonal 6x6 metric endomorphism from two factor blocks."""
    out = np.zeros((6, 6))
    out[:3, :3] = p.phi1
    out[3:, 3:] = p.phi2
    return out


@dataclass(frozen=True)
class TorusParams:
    """Parameters (c, d, tau_block) of a torus-quotient metric.

    ``tau_block`` is the 2x2 metric on span{A, B} in the (A, B) basis.  It
    must be symmetric positive definite and bounded above, as a quadratic
    form, by diag((4/3) c, (4/3) d); the bound is admitted with equality.
    """

    c: float
    d: float
    tau_block: np.ndarray

    def __post_init__(self):
        _require_finite(c=self.c, d=self.d)
        if self.c <= 0.0 or self.d <= 0.0:
            raise FamilyConstraintViolated("c and d must be positive")
        tau = _check_spd(self.tau_block, "tau_block")
        if tau.shape != (2, 2):
            raise DimensionMismatch("tau_block must be 2x2")
        bound = np.diag([4.0 * self.c / 3.0, 4.0 * self.d / 3.0])
        if np.linalg.eigvalsh(bound - tau)[0] < -_BOUND_MARGIN:
            raise FamilyConstraintViolated(
                "tau_block exceeds the (4/3) diag(c, d) upper bound"
            )
        object.__setattr__(self, "tau_block", tau)


def _unit_factor_vector(vec, which: int, name: str) -> np.ndarray:
    v = np.asarray(vec, dtype=float)
    if v.shape != (6,):
        raise DimensionMismatch(f"{name} must be a 6-vector")
    lo, hi = (0, 3) if which == 1 else (3, 6)
    outside = np.delete(v, np.arange(lo, hi))
    if np.abs(outside).max() > 1e-12:
        raise ValueError(f"{name} must lie in factor {which}")
    if abs(np.linalg.norm(v) - 1.0) > 1e-10:
        raise ValueError(f"{name} must be a unit vector")
    return v


_A1_DEFAULT = np.array([1.0, 0, 0, 0, 0, 0])
_B1_DEFAULT = np.array([0.0, 0, 0, 1, 0, 0])


def torus_phi(p: TorusParams, a_vec=None, b_vec=None) -> np.ndarray:
    """Torus-family metric: c on factor1 minus A, d on factor2 minus B,
    tau_block on span{A, B}.

    A and B default to the first basis vector of each factor; any other
    unit choices are isometrically equivalent.
    """
    a = _A1_DEFAULT if a_vec is None else _unit_factor_vector(a_vec, 1, "A")
    b = _B1_DEFAULT if b_vec is None else _unit_factor_vector(b_vec, 2, "B")
    p1 = np.zeros((6, 6))
    p1[:3, :3] = np.eye(3)
    p2 = np.zeros((6, 6))
    p2[3:, 3:] = np.eye(3)
    aa = np.outer(a, a)
    bb = np.outer(b, b)
    frame = np.stack([a, b], axis=1)  # 6x2
    return (
        p.c * (p1 - aa)
        + p.d * (p2 - bb)
        + frame @ p.tau_block @ frame.T
    )


def torus_psi(c: float, d: float, a1: float, a2: float, a3: float) -> np.ndarray:
    """Variation derivative of the torus family.

    In the basis (A1, A2, A3, B1, B2, B3): eigenvalue c on span{A1, A2},
    the symmetric block [[a1, a3], [a3, a2]] on span{A3, B1}, and d on
    span{B2, B3}.  Any real parameters are allowed; this is a derivative,
    not a metric.
    """
    _require_finite(c=c, d=d, a1=a1, a2=a2, a3=a3)
    m = np.zeros((6, 6))
    m[0, 0] = m[1, 1] = c
    m[2, 2] = a1
    m[3, 3] = a2
    m[2, 3] = m[3, 2] = a3
    m[4, 4] = m[5, 5] = d
    return m


@dataclass(frozen=True)
class S3ActionParams:
    """Parameters (a, b, lambda_1..3) of a diagonal-action quotient metric."""

    a: float
    b: float
    lam: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lam, dtype=float)
        if lam.shape != (3,):
            raise DimensionMismatch("lam must have three entries")
        _require_finite(a=self.a, b=self.b, lam=lam)
        if self.a <= 0.0 or self.b <= 0.0 or lam.min() <= 0.0:
            raise FamilyConstraintViolated("a, b and all lambda_i must be positive")
        lam = lam.copy()
        lam.setflags(write=False)
        object.__setattr__(self, "lam", lam)

    @property
    def t_values(self) -> np.ndarray:
        """The derived mixing weights lambda_i / (1 + lambda_i), in (0, 1)."""
        return self.lam / (1.0 + self.lam)


def s3_quotient_eigenvalues(a: float, lam) -> np.ndarray:
    """Eigenvalues a * lambda_i / (1 + lambda_i) of the 3-dim quotient metric."""
    _require_finite(a=a, lam=lam)
    lam = np.asarray(lam, dtype=float)
    if a <= 0.0 or lam.min() <= 0.0:
        raise FamilyConstraintViolated("a and all lambda_i must be positive")
    return a * lam / (1.0 + lam)


def inverse_linear_eigs_s3(alpha: float, lam, t: float) -> np.ndarray:
    """Eigenvalues lambda_i / (t + lambda_i (1 - alpha t)) of the
    inverse-linear path on the 3-dimensional factor.

    At t=0 this is (1, 1, 1); with alpha=1 the value at t=1 is lambda itself.
    No code in the package calls it: it is kept as the closed-form
    reference that the acceptance tests check.

    Raises:
        HorizonExceeded: if any denominator is nonpositive.
    """
    _require_finite(alpha=alpha, lam=lam, t=t)
    lam = np.asarray(lam, dtype=float)
    if lam.min() <= 0.0:
        raise FamilyConstraintViolated("all lambda_i must be positive")
    denom = t + lam * (1.0 - alpha * t)
    if denom.min() <= 0.0:
        raise HorizonExceeded(f"denominator reaches {denom.min():.3e} at t={t}")
    return lam / denom


def _s3_blocks(a, b, t_vals) -> np.ndarray:
    """Block matrices over the planes V_i = span{A_i, B_i}: one 6x6 matrix
    per row of t_vals (shape (..., 3)), with a and b of shape (...)."""
    a = np.asarray(a, dtype=float)[..., None]
    b = np.asarray(b, dtype=float)[..., None]
    t_vals = np.asarray(t_vals, dtype=float)
    m = np.zeros(t_vals.shape[:-1] + (6, 6))
    i = np.arange(3)
    m[..., i, i] = a * (b + a * t_vals) / (a + b)
    m[..., i + 3, i + 3] = b * (a + b * t_vals) / (a + b)
    m[..., i, i + 3] = m[..., i + 3, i] = a * b * (t_vals - 1.0) / (a + b)
    return m


def s3_action_phi(p: S3ActionParams) -> np.ndarray:
    """Quotient-family metric, block-diagonal over V_i = span{A_i, B_i}.

    Each V_i block has determinant a b t_i > 0, so the result is positive
    definite for all valid parameters.
    """
    return _s3_blocks(p.a, p.b, p.t_values)


def s3_action_psi(alpha: float, beta: float, lam) -> np.ndarray:
    """Variation derivative of the quotient family.

    Block-diagonal over V_i with blocks diag(alpha, beta) minus the rank-one
    coupling (1 / (2 lambda_i)) * ones(2, 2).
    """
    _require_finite(alpha=alpha, beta=beta, lam=lam)
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (3,) or lam.min() <= 0.0:
        raise FamilyConstraintViolated("lam must be three positive reals")
    return _s3_psis(np.asarray(alpha, dtype=float), np.asarray(beta, dtype=float), lam)


def _s3_psis(alpha, beta, lam) -> np.ndarray:
    """``s3_action_psi`` of each row, unvalidated: alpha and beta of shape
    (...) and lam of shape (..., 3)."""
    s = 1.0 / (2.0 * lam)
    m = np.zeros(lam.shape[:-1] + (6, 6))
    i = np.arange(3)
    m[..., i, i] = alpha[..., None] - s
    m[..., i + 3, i + 3] = beta[..., None] - s
    m[..., i, i + 3] = m[..., i + 3, i] = -s
    return m


def _finite_rows(name: str, value, shape) -> np.ndarray:
    """A float array of the given shape (DimensionMismatch) with finite
    entries (ValueError), both errors naming the argument."""
    value = np.asarray(value, dtype=float)
    if value.shape != shape:
        raise DimensionMismatch(f"{name} must have shape {shape}, got {value.shape}")
    _require_finite(**{name: value})
    return value


def _barred(alphas, betas, lams, ts):
    """The family parameters (a, b, lam) that the inverse-linear path hits
    at each row's time: a = 1/u, b = 1/v and lam rescaled to
    2 lam u v / (u + v), a positive multiple of lam, with u = 1 - alpha t
    and v = 1 - beta t.  HorizonExceeded names the first row whose u or v
    is nonpositive, and FamilyConstraintViolated the first whose parameters
    are not finite and positive."""
    u = 1.0 - alphas * ts
    v = 1.0 - betas * ts
    bad = np.flatnonzero((u <= 0.0) | (v <= 0.0))
    if len(bad):
        k = bad[0]
        raise HorizonExceeded(f"1-alpha*t={u[k]:.3e}, 1-beta*t={v[k]:.3e} at t={ts[k]}")
    a, b = 1.0 / u, 1.0 / v
    lam_bar = 2.0 * lams * u[:, None] * v[:, None] / (u + v)[:, None]
    params = np.column_stack([a, b, lam_bar])
    bad = np.flatnonzero(~(np.isfinite(params) & (params > 0.0)).all(axis=1))
    if len(bad):
        raise FamilyConstraintViolated(
            f"barred parameters {params[bad[0]]} at t={ts[bad[0]]} are not finite and positive"
        )
    return a, b, lam_bar


def s3_action_path_residual_many(alphas, betas, lams, ts) -> np.ndarray:
    """Max-norm gap between (I - t psi)^{-1} and the barred family metric,
    one row per (alphas[n], betas[n], lams[n], ts[n]).

    Zero (to roundoff) for every admissible row; this is the identity that
    keeps the inverse-linear path inside the family.  The path at time t is
    the family metric of the barred parameters with the right-invariant
    factor scaled by 1/t, whose mixing weights are lam / (t + lam).

    ts, alphas and betas are (n,) and lams (n, 3).  Each is checked for
    shape (DimensionMismatch) and finiteness (ValueError naming it) before
    any work, and lams for positivity (FamilyConstraintViolated).  Then
    HorizonExceeded names the first row's time with t <= 0, then with
    I - t psi not positive definite, then with 1 - alpha t or 1 - beta t
    nonpositive.  Each row is computed on its own, so row n is bitwise the
    one-row call.
    """
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1:
        raise DimensionMismatch(f"t must be a 1-d sequence, got shape {ts.shape}")
    alphas = _finite_rows("alpha", alphas, ts.shape)
    betas = _finite_rows("beta", betas, ts.shape)
    lams = _finite_rows("lam", lams, ts.shape + (3,))
    ts = _finite_rows("t", ts, ts.shape)
    if (lams <= 0.0).any():
        raise FamilyConstraintViolated("lam must be three positive reals")
    early = np.flatnonzero(ts <= 0.0)
    if len(early):
        raise HorizonExceeded(f"t must be positive, got t={ts[early[0]]}")
    m = np.eye(6) - ts[:, None, None] * _s3_psis(alphas, betas, lams)
    singular = np.flatnonzero(np.linalg.eigvalsh(m).min(axis=1) <= 0.0)
    if len(singular):
        raise HorizonExceeded(f"I - t psi not positive definite at t={ts[singular[0]]}")
    a, b, lam_bar = _barred(alphas, betas, lams, ts)
    rhs = _s3_blocks(a, b, lam_bar / (ts[:, None] + lam_bar))
    return np.abs(np.linalg.inv(m) - rhs).max(axis=(1, 2))


# ---------------------------------------------------------------------------
# invariant abelian planes

def _plane(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.stack([u, v], axis=1)


def product_invariant_planes(p: ProductParams) -> np.ndarray:
    """Three orthogonal abelian planes preserved by a product metric.

    Pairs the i-th eigenvector of each factor block; any pairing works
    because the blocks act within their own factors.
    """
    _, v1 = np.linalg.eigh(p.phi1)
    _, v2 = np.linalg.eigh(p.phi2)
    planes = []
    for i in range(3):
        u = np.concatenate([v1[:, i], np.zeros(3)])
        w = np.concatenate([np.zeros(3), v2[:, i]])
        planes.append(_plane(u, w))
    return np.stack(planes)


def _torus_planes() -> np.ndarray:
    a, b = _A1_DEFAULT, _B1_DEFAULT
    comp1 = np.linalg.svd(np.eye(3) - np.outer(a[:3], a[:3]))[0][:, :2]
    comp2 = np.linalg.svd(np.eye(3) - np.outer(b[3:], b[3:]))[0][:, :2]
    planes = [_plane(a, b)]
    for i in range(2):
        u = np.concatenate([comp1[:, i], np.zeros(3)])
        w = np.concatenate([np.zeros(3), comp2[:, i]])
        planes.append(_plane(u, w))
    return np.stack(planes)


# both families fix their invariant planes whatever their parameters, so
# each set is built once, read-only
_TORUS_PLANES = _torus_planes()
_S3_PLANES = np.stack([_plane(np.eye(6)[i], np.eye(6)[i + 3]) for i in range(3)])
_TORUS_PLANES.setflags(write=False)
_S3_PLANES.setflags(write=False)


def torus_invariant_planes() -> np.ndarray:
    """tau = span{A1, B1} plus pairings of the complementary eigenvectors:
    the same read-only (3, 6, 2) planes for every torus metric."""
    return _TORUS_PLANES


def s3_action_invariant_planes() -> np.ndarray:
    """The fixed planes V_i = span{A_i, B_i}, read-only, (3, 6, 2)."""
    return _S3_PLANES


def invariant_abelian_residual_many(g, phis, planes) -> np.ndarray:
    """For each row n, the largest violation among: each plane of planes[n]
    abelian with orthonormal columns, the planes mutually orthogonal, and
    phis[n] mapping each plane into itself.

    phis is an (n, dim, dim) stack and planes an (n, k, dim, 2) stack.  A
    wrong shape raises DimensionMismatch and a non-finite entry ValueError,
    each naming the argument, before any work.  Every product is taken
    matrix by matrix, so row n is bitwise the one-row call.
    """
    d = g.dim
    phis = np.asarray(phis, dtype=float)
    planes = np.asarray(planes, dtype=float)
    if phis.ndim != 3 or phis.shape[1:] != (d, d):
        raise DimensionMismatch(f"phis must be an (n, {d}, {d}) stack, got shape {phis.shape}")
    if planes.ndim != 4 or planes.shape[2:] != (d, 2) or len(planes) != len(phis):
        raise DimensionMismatch(
            f"planes must be an ({len(phis)}, k, {d}, 2) stack, got shape {planes.shape}"
        )
    for name, value in (("phis", phis), ("planes", planes)):
        if not np.isfinite(value).all():
            raise ValueError(f"{name} has non-finite entries")
    n, k = planes.shape[:2]
    qt = np.swapaxes(planes, -1, -2)
    gram = qt[:, :, None] @ planes[:, None]  # block (i, j) is q_i^T q_j
    i, j = np.triu_indices(k, 1)
    lie = g.bracket_many(planes[..., 0].reshape(-1, d), planes[..., 1].reshape(-1, d))
    # a batched (1, d) @ (d, 1) product takes the dot routine of np.linalg.norm
    lie_norm = np.sqrt(np.matmul(lie[:, None, :], lie[:, :, None]))
    img = phis[:, None] @ planes
    violations = (
        np.abs(gram[:, np.arange(k), np.arange(k)] - np.eye(2)),
        lie_norm.reshape(n, k),
        np.abs(img - planes @ (qt @ img)),
        np.abs(gram[:, i, j]),
    )
    return np.max([v.max(axis=tuple(range(1, v.ndim)), initial=0.0) for v in violations], axis=0)
