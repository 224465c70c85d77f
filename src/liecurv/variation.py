"""Inverse-linear metric paths and their curvature-derivative formulas.

An inverse-linear path starts at the bi-invariant metric and is determined
by a symmetric ``psi``: the metric endomorphism at time t is
``phi_t = (I - t psi)^{-1}``, so psi is the time derivative of phi_t at 0.

Two curvature curves are tracked for a commuting pair (x, y):

* ``k_of_t``     -- curvature of the fixed pair (x, y) under the metric at t;
* ``kappa_of_t`` -- curvature of the twisted pair ((I - t psi) x, (I - t psi) y),
  whose plane follows the path.

Closed forms for k''(0) and kappa'''(0) are provided together with
finite-difference estimators that pin their constants independently;
``stencil_curve`` evaluates such a curve once per stencil time, for the
finite-difference suites.
"""

from __future__ import annotations

import functools

import numpy as np

from .algebra import LieAlgebra, symmetric_matrix
from .errors import HorizonExceeded, NotCommuting
from .metric import LeftInvariantMetric, puttmann_curvature

__all__ = [
    "InverseLinearPath",
    "k_of_t",
    "kappa_of_t",
    "k_second_deriv",
    "kappa_third_deriv",
    "kappa_third_deriv_many",
    "finite_diff",
    "refined_derivative",
    "stencil_curve",
    "require_commuting",
]

_COMMUTE_TOL = 1e-10
# margin on the smallest eigenvalue of I - t psi before declaring the
# horizon exceeded
_HORIZON_GUARD = 1e-10


def require_commuting(g: LieAlgebra, x, y) -> tuple[np.ndarray, np.ndarray]:
    """Validate [x, y] = 0 within tolerance; returns the checked vectors."""
    x = g.check_vector(x)
    y = g.check_vector(y)
    lie = g.bracket(x, y)
    scale = np.linalg.norm(x) * np.linalg.norm(y)
    if np.linalg.norm(lie) > _COMMUTE_TOL * max(scale, 1e-300):
        raise NotCommuting(
            f"|[x, y]| = {np.linalg.norm(lie):.3e} exceeds tolerance"
        )
    return x, y


class InverseLinearPath:
    """The metric path with phi_t = (I - t psi)^{-1}.

    ``t_max`` is the forward positive-definiteness horizon (1/lambda_max(psi)
    when psi has a positive eigenvalue, else +inf).  The path is equally
    well-defined for negative t down to ``t_min``; central finite-difference
    stencils at 0 rely on that two-sided window.
    """

    def __init__(self, algebra: LieAlgebra, psi):
        self.algebra = algebra
        self.psi = symmetric_matrix(psi, "psi", algebra.dim)
        self.psi.setflags(write=False)
        self._eigs = np.linalg.eigvalsh(self.psi)

    @property
    def t_max(self) -> float:
        top = self._eigs[-1]
        return 1.0 / top if top > 0.0 else np.inf

    @property
    def t_min(self) -> float:
        bottom = self._eigs[0]
        return 1.0 / bottom if bottom < 0.0 else -np.inf

    def admissible(self, t: float) -> bool:
        return (1.0 - t * self._eigs).min() > _HORIZON_GUARD

    def phi_at(self, t: float) -> np.ndarray:
        """(I - t psi)^{-1} for admissible t."""
        d = self.algebra.dim
        m = np.eye(d) - t * self.psi
        if not self.admissible(t):
            raise HorizonExceeded(
                f"t={t} outside the positive-definiteness window "
                f"({self.t_min:.6g}, {self.t_max:.6g})"
            )
        w, v = np.linalg.eigh(m)
        return (v / w) @ v.T

    def metric_at(self, t: float) -> LeftInvariantMetric:
        return LeftInvariantMetric(self.algebra, self.phi_at(t))


def k_of_t(path: InverseLinearPath, x, y, t: float) -> float:
    """Curvature of the fixed pair (x, y) under the metric at time t."""
    return puttmann_curvature(path.metric_at(t), x, y)


def kappa_of_t(path: InverseLinearPath, x, y, t: float) -> float:
    """Curvature of the twisted pair ((I-t psi) x, (I-t psi) y) at time t.

    Requires [x, y] = 0; this is the curve whose third derivative at 0 the
    closed form ``kappa_third_deriv`` computes.
    """
    x, y = require_commuting(path.algebra, x, y)
    m = np.eye(path.algebra.dim) - t * path.psi
    return puttmann_curvature(path.metric_at(t), m @ x, m @ y)


def k_second_deriv(g: LieAlgebra, psi, x, y) -> float:
    """Closed form (1/2)|[x, psi y] + [psi x, y]|^2 for k''(0).

    Always nonnegative; the first derivative of k vanishes at 0.  psi must
    be finite and symmetric (ValueError) of the algebra's shape
    (DimensionMismatch).
    """
    x, y = require_commuting(g, x, y)
    psi = symmetric_matrix(psi, "psi", g.dim)
    w = g.bracket(x, psi @ y) + g.bracket(psi @ x, y)
    return 0.5 * float(w @ w)


def kappa_third_deriv(g: LieAlgebra, psi, x, y) -> float:
    """Closed form for kappa'''(0) on a commuting pair.

    Six times a five-term bracket expression in (x, y, psi); the factor of
    six is pinned against the finite-difference estimator in the test suite.
    psi is validated as in ``k_second_deriv``.
    """
    x, y = require_commuting(g, x, y)
    psi = symmetric_matrix(psi, "psi", g.dim)
    return float(kappa_third_deriv_many(g, psi, x[None, :], y[None, :])[0])


def kappa_third_deriv_many(g: LieAlgebra, psi: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Row-vectorized kappa'''(0). Assumes each row pair commutes."""
    pxs = xs @ psi
    pys = ys @ psi
    br_x_py = g.bracket_many(xs, pys)
    br_px_y = g.bracket_many(pxs, ys)
    br_px_py = g.bracket_many(pxs, pys)
    br_px_x = g.bracket_many(pxs, xs)
    br_py_y = g.bracket_many(pys, ys)
    t1 = np.einsum("nk,nk->n", br_x_py + br_px_y, br_px_py)
    t2 = np.einsum("nk,nk->n", br_px_x, br_py_y @ psi)
    t3 = np.einsum("nk,nk->n", br_x_py, br_x_py @ psi)
    t4 = np.einsum("nk,nk->n", br_x_py, br_px_y @ psi)
    t5 = np.einsum("nk,nk->n", br_px_y, br_px_y @ psi)
    return 6.0 * (t1 + t2 - t3 - t4 - t5)


# ---------------------------------------------------------------------------
# finite differences

_STENCILS = {
    1: ((-1, -0.5), (1, 0.5)),
    2: ((-1, 1.0), (0, -2.0), (1, 1.0)),
    3: ((-2, -0.5), (-1, 1.0), (1, -1.0), (2, 0.5)),
}


def finite_diff(f, t0: float, order: int, h: float) -> float:
    """Central-difference estimate of the order-th derivative of f at t0.

    Stencil widths: order 1 and 2 use 3 points, order 3 uses 5 points
    (offsets -2h..2h).  Exact for cubics at order 3 up to roundoff.
    Evaluation errors from f (e.g. HorizonExceeded) propagate unchanged.
    """
    if order not in _STENCILS:
        raise ValueError("order must be 1, 2 or 3")
    if h <= 0.0:
        raise ValueError("h must be positive")
    acc = 0.0
    for offset, weight in _STENCILS[order]:
        acc += weight * f(t0 + offset * h)
    return acc / h ** order


def refined_derivative(f, t0: float, order: int, h: float) -> float:
    """Richardson combination of finite_diff at steps h and h/2.

    Central stencils have O(h^2) error, so (4 D(h/2) - D(h)) / 3 cancels the
    leading term; at third order and double precision this leaves roughly
    five significant figures.
    """
    d_h = finite_diff(f, t0, order, h)
    d_half = finite_diff(f, t0, order, h / 2.0)
    return (4.0 * d_half - d_h) / 3.0


def stencil_curve(curve, path: InverseLinearPath, x, y):
    """t -> curve(path, x, y, t), evaluated once per distinct t.

    The refined stencils at 0 read 0, +-h/2, +-h and +-2h; 2 * (h/2) == h
    exactly, so each time is computed once and every stencil sum reads the
    same values in the same order as with the plain curve.
    """
    return functools.cache(lambda t: curve(path, x, y, t))


def default_step(path: InverseLinearPath) -> float:
    """Step size 1e-2 * min(1, window/4) for two-sided stencils at 0."""
    window = min(path.t_max, -path.t_min)
    return 1e-2 * min(1.0, window / 4.0)
