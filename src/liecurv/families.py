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
    "barred_params",
    "s3_action_phi_at_time",
    "s3_action_path_residual",
    "product_invariant_planes",
    "torus_invariant_planes",
    "s3_action_invariant_planes",
    "invariant_abelian_residual",
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


def _s3_blocks(a: float, b: float, t_vals: np.ndarray) -> np.ndarray:
    """6x6 block matrix over the planes V_i = span{A_i, B_i}."""
    m = np.zeros((6, 6))
    for i in range(3):
        ti = t_vals[i]
        ia, ib = i, i + 3
        m[ia, ia] = a * (b + a * ti) / (a + b)
        m[ib, ib] = b * (a + b * ti) / (a + b)
        m[ia, ib] = m[ib, ia] = a * b * (ti - 1.0) / (a + b)
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
    m = np.zeros((6, 6))
    for i in range(3):
        s = 1.0 / (2.0 * lam[i])
        ia, ib = i, i + 3
        m[ia, ia] = alpha - s
        m[ib, ib] = beta - s
        m[ia, ib] = m[ib, ia] = -s
    return m


def barred_params(alpha: float, beta: float, lam, t: float) -> S3ActionParams:
    """Family parameters that the inverse-linear path hits at time t.

    Returns (a_bar, b_bar, lam_bar) with a_bar = 1/(1 - alpha t),
    b_bar = 1/(1 - beta t) and lam_bar the harmonic-type rescaling of lam;
    lam_bar is always a positive multiple of lam.  The metric at time t is
    recovered by ``s3_action_phi_at_time``, which feeds lam_bar / t through
    the block formula.

    Raises:
        HorizonExceeded: if 1 - alpha t or 1 - beta t is nonpositive.
    """
    lam = np.asarray(lam, dtype=float)
    u = 1.0 - alpha * t
    v = 1.0 - beta * t
    if u <= 0.0 or v <= 0.0:
        raise HorizonExceeded(f"1-alpha*t={u:.3e}, 1-beta*t={v:.3e} at t={t}")
    lam_bar = 2.0 * lam * u * v / (u + v)
    return S3ActionParams(a=1.0 / u, b=1.0 / v, lam=lam_bar)


def s3_action_phi_at_time(p: S3ActionParams, t: float) -> np.ndarray:
    """Family metric with the right-invariant factor scaled by 1/t.

    Scaling that factor replaces each lambda_i by lambda_i / t, so the
    mixing weights become lambda_i / (t + lambda_i).  At t=1 this is just
    ``s3_action_phi(p)``.
    """
    _require_finite(t=t)
    if t <= 0.0:
        raise HorizonExceeded("t must be positive")
    return _s3_blocks(p.a, p.b, p.lam / (t + p.lam))


def s3_action_path_residual(alpha: float, beta: float, lam, t: float) -> float:
    """Max-norm gap between (I - t psi)^{-1} and the barred family metric.

    Zero (to roundoff) for every admissible (alpha, beta, lam, t); this is
    the identity that keeps the inverse-linear path inside the family.
    """
    psi = s3_action_psi(alpha, beta, lam)
    m = np.eye(6) - t * psi
    w = np.linalg.eigvalsh(m)
    if w.min() <= 0.0:
        raise HorizonExceeded(f"I - t psi not positive definite at t={t}")
    lhs = np.linalg.inv(m)
    rhs = s3_action_phi_at_time(barred_params(alpha, beta, lam, t), t)
    return float(np.abs(lhs - rhs).max())


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


def torus_invariant_planes(p: TorusParams) -> np.ndarray:
    """tau = span{A1, B1} plus pairings of the complementary eigenvectors."""
    a, b = _A1_DEFAULT, _B1_DEFAULT
    comp1 = np.linalg.svd(np.eye(3) - np.outer(a[:3], a[:3]))[0][:, :2]
    comp2 = np.linalg.svd(np.eye(3) - np.outer(b[3:], b[3:]))[0][:, :2]
    planes = [_plane(a, b)]
    for i in range(2):
        u = np.concatenate([comp1[:, i], np.zeros(3)])
        w = np.concatenate([np.zeros(3), comp2[:, i]])
        planes.append(_plane(u, w))
    return np.stack(planes)


def s3_action_invariant_planes() -> np.ndarray:
    """The fixed planes V_i = span{A_i, B_i}."""
    planes = []
    for i in range(3):
        u = np.zeros(6)
        u[i] = 1.0
        w = np.zeros(6)
        w[i + 3] = 1.0
        planes.append(_plane(u, w))
    return np.stack(planes)


def invariant_abelian_residual(g, phi: np.ndarray, planes: np.ndarray) -> float:
    """Largest violation among: each plane abelian, planes mutually
    orthogonal, and phi mapping each plane into itself.

    ``planes`` has shape (3, dim, 2) with orthonormal columns.
    """
    phi = np.asarray(phi, dtype=float)
    worst = 0.0
    for i in range(len(planes)):
        q = planes[i]
        worst = max(worst, np.abs(q.T @ q - np.eye(2)).max())
        worst = max(worst, float(np.linalg.norm(g.bracket(q[:, 0], q[:, 1]))))
        img = phi @ q
        resid = img - q @ (q.T @ img)
        worst = max(worst, np.abs(resid).max())
        for j in range(i + 1, len(planes)):
            worst = max(worst, np.abs(q.T @ planes[j]).max())
    return worst
