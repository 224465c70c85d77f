"""Inverse-linear metric paths and their curvature-derivative formulas.

An inverse-linear path starts at the bi-invariant metric and is determined
by a symmetric ``psi``: the metric endomorphism at time t is
``phi_t = (I - t psi)^{-1}``, so psi is the time derivative of phi_t at 0.
Every time's phi_t comes from the one eigendecomposition psi = V diag(lam) V^T
made when the path is built, in the resolvent form

    phi_t = I + V diag(t lam / (1 - t lam)) V^T,

which is exactly I at t = 0, while its inverse is the exact I - t psi.
The path's window decides which times it admits: phi_t has eigenvalues
1 / (1 - t lam), so ``LeftInvariantMetric``'s definiteness gate reads
min(1 - t lam) > DEFINITENESS_GATE * max(1 - t lam), which also requires
every 1 - t lam > 0.  ``admissible_many``, the curves and ``phi_at`` read
it, and a time that fails it raises HorizonExceeded naming that time.  A
metric built at an admitted time (``metric_at``, ``path_metrics``) passes
the metric's own gate too, which decides on phi_t's own ``eigh``: within a
few ulps of the horizon that gate can still refuse the time, and raises
NotPositiveDefinite (``path_metrics`` names the time).

Two curvature curves are tracked for a commuting pair (x, y):

* ``k_of_t``     -- curvature of the fixed pair (x, y) under the metric at t;
* ``kappa_of_t`` -- curvature of the twisted pair ((I - t psi) x, (I - t psi) y),
  whose plane follows the path.

Both curves are read through one kind of row stack: (path, time)
rows, from one path or many, whose metrics go through one
``puttmann_curvature_many`` call.  ``k_of_t_many`` and ``kappa_of_t_many``
are its one-path case, evaluating a curve at a stack of times; the scalar
curves are their one-time case, and each row is bitwise the one-time value.
``stencil_curves`` is its many-path case: it reads every time of a set of
refined stencils at 0 on every path of a stack in one call, for the
finite-difference suites, and ``InverseLinearPath.many`` builds those paths
from a psi stack with one validation and one batched ``eigh``.  Closed
forms for k''(0) and kappa'''(0) are provided, as row kernels that take one
psi for every row or one psi per row and as their validated one-row cases,
together with finite-difference estimators that pin their constants
independently.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .algebra import LieAlgebra, symmetric_matrices, symmetric_matrix
from .errors import DimensionMismatch, HorizonExceeded, NotCommuting, NotPositiveDefinite
from .metric import DEFINITENESS_GATE, LeftInvariantMetric, MetricStack, puttmann_curvature_many

__all__ = [
    "InverseLinearPath",
    "k_of_t",
    "k_of_t_many",
    "kappa_of_t",
    "kappa_of_t_many",
    "path_metrics",
    "k_second_deriv",
    "k_second_deriv_many",
    "kappa_third_deriv",
    "kappa_third_deriv_many",
    "finite_diff",
    "refined_derivative",
    "stencil_curves",
    "default_step",
    "require_commuting",
]

_COMMUTE_TOL = 1e-10


def require_commuting(g: LieAlgebra, x, y) -> tuple[np.ndarray, np.ndarray]:
    """Validate [x, y] = 0 within tolerance; returns the checked vectors.
    The one-row case of the stacked check the many-path curves run."""
    x = g.check_vector(x)
    y = g.check_vector(y)
    _require_commuting_rows(g, x[None], y[None])
    return x, y


def _require_commuting_rows(g: LieAlgebra, xs: np.ndarray, ys: np.ndarray):
    """NotCommuting for the first row of two validated (n, dim) stacks whose
    bracket exceeds the tolerance, relative to |x| |y|."""
    lie = _row_norms(g.bracket_many(xs, ys))
    bad = lie > _COMMUTE_TOL * np.maximum(_row_norms(xs) * _row_norms(ys), 1e-300)
    if bad.any():
        k = np.argmax(bad)
        row = "" if len(xs) == 1 else f" in row {k}"
        raise NotCommuting(f"|[x, y]| = {lie[k]:.3e} exceeds tolerance{row}")


def _row_norms(vs: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("nk,nk->n", vs, vs))


def _vector_rows(g: LieAlgebra, xs, name: str) -> np.ndarray:
    """A validated (n, dim) stack of finite vectors."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != g.dim:
        raise DimensionMismatch(f"{name} must be an (n, {g.dim}) stack, got {xs.shape}")
    if not np.isfinite(xs).all():
        raise ValueError(f"{name} has non-finite entries")
    return xs


class InverseLinearPath:
    """The metric path with phi_t = (I - t psi)^{-1}, at the times where
    phi_t passes the definiteness gate (see the module docstring).

    ``t_max`` is 1/lambda_max(psi) when psi has a positive eigenvalue, else
    +inf, and ``t_min`` the same at the other end; every admissible time
    lies strictly between them.  Central finite-difference stencils at 0
    rely on that two-sided window.
    """

    def __init__(self, algebra: LieAlgebra, psi):
        psi = symmetric_matrix(psi, "psi", algebra.dim)
        self._diagonalized(algebra, psi, *np.linalg.eigh(psi))

    @classmethod
    def many(cls, algebra: LieAlgebra, psis) -> list[InverseLinearPath]:
        """One path per matrix of an (n, dim, dim) stack.  The stack is
        validated by ``symmetric_matrices`` and takes one batched ``eigh``,
        so path n is bitwise ``InverseLinearPath(algebra, psis[n])``."""
        psis = symmetric_matrices(psis, "psis", algebra.dim)
        paths = [cls.__new__(cls) for _ in psis]
        for path, psi, lam, v in zip(paths, psis, *np.linalg.eigh(psis)):
            path._diagonalized(algebra, psi, lam, v)
        return paths

    def _diagonalized(self, algebra: LieAlgebra, psi: np.ndarray, lam: np.ndarray, v: np.ndarray):
        self.algebra = algebra
        self.psi = psi
        self.psi.setflags(write=False)
        self._lam = lam
        # v[i, k] v[j, k] is exactly symmetric in (i, j), and so is every phi_t
        self._outer = v[:, None, :] * v[None, :, :]

    @property
    def t_max(self) -> float:
        top = self._lam[-1]
        return 1.0 / top if top > 0.0 else np.inf

    @property
    def t_min(self) -> float:
        bottom = self._lam[0]
        return 1.0 / bottom if bottom < 0.0 else -np.inf

    def admissible_many(self, ts) -> np.ndarray:
        """Whether phi_t passes the gate at each time of a 1-d sequence, as
        a boolean array: ``_PathRows``' check, one row per time."""
        return _admitted(np.asarray(ts, dtype=float)[:, None] * self._lam)

    def phi_at(self, t: float) -> np.ndarray:
        """(I - t psi)^{-1} for admissible t; exactly I at t = 0."""
        return _PathRows([self], [[t]]).phis[0]

    def metric_at(self, t: float) -> LeftInvariantMetric:
        """The metric at time t.  A refused time raises its error naming it,
        as ``path_metrics`` names it: HorizonExceeded outside the window,
        NotPositiveDefinite where the metric's own gate refuses phi_t."""
        phi = self.phi_at(t)
        try:
            return LeftInvariantMetric(self.algebra, phi)
        except NotPositiveDefinite as err:
            raise NotPositiveDefinite(f"t={float(t)}: {err}") from None


def path_metrics(paths, grids) -> MetricStack:
    """The metric at each time of grids[k] on paths[k], path after path, as
    one ``MetricStack``: each path's phis from its ``_PathRows``, then one
    ``symmetric_matrices`` and one batched ``eigh`` through
    ``MetricStack.validated``, so row n is bitwise ``path.metric_at(t)`` at
    its time.  The first time refused in path order raises its own error
    naming it: HorizonExceeded where its path's window refuses it, and
    NotPositiveDefinite where the metric's gate does."""
    phis, times, refused = [], [], None
    for path, grid in zip(paths, grids):
        grid = np.asarray(grid, dtype=float)
        admitted = path.admissible_many(grid)
        cut = len(grid) if admitted.all() else int(np.argmin(admitted))
        phis.append(_PathRows([path], [grid[:cut]]).phis)
        times += grid[:cut].tolist()
        if cut < len(grid):
            refused = _outside_window(path, float(grid[cut]))
            break
    # the times before a window's refusal are gated first
    stack = MetricStack.validated(paths[0].algebra, np.concatenate(phis),
                                  lambda n: f"t={times[n]}: ")
    if refused is not None:
        raise refused
    return stack


def _outside_window(path: InverseLinearPath, t: float) -> HorizonExceeded:
    """The error for a time t that the path's window refuses."""
    return HorizonExceeded(
        f"t={t} outside the path's window: phi_t fails the "
        f"definiteness gate (horizons {path.t_min:.6g}, {path.t_max:.6g})"
    )


def _admitted(s: np.ndarray) -> np.ndarray:
    """Whether each row's phi passes the gate, from s = t lam, one row of
    the path's eigenvalues times its time per row."""
    mu = 1.0 - s
    return mu.min(axis=1) > DEFINITENESS_GATE * mu.max(axis=1)


def _rowwise(mats: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """mats[n] @ xs[n] for each row n, each row summed on its own."""
    return (mats * xs[:, None, :]).sum(axis=-1)


class _PathRows:
    """(path, time) rows of many paths, as ``puttmann_curvature_many`` reads
    a metric: ``times`` is a (paths, k) array holding k times of each path,
    and the rows run path after path.  Row n of ``apply_rows`` applies its
    path's phi at its time, and row n of ``inv_apply_rows`` the exact
    inverse I - t psi.

    Every time is checked first, and the first one outside its path's
    window raises HorizonExceeded naming it.  Row n's phi is
    I + V diag(c) V^T with c = t lam / (1 - t lam), each entry summed on its
    own, so a row does not depend on the rest of the stack.  Each path's
    eigenvectors broadcast over its times, with no per-row copy of them.
    """

    def __init__(self, paths, ts):
        self.times = np.asarray(ts, dtype=float)
        if self.times.ndim != 2 or len(self.times) != len(paths):
            raise ValueError(
                f"times must be a 1-d sequence for each of {len(paths)} paths, "
                f"got shape {self.times.shape}"
            )
        self.algebra = paths[0].algebra
        if any(path.algebra is not self.algebra for path in paths):
            raise ValueError("the paths must share one algebra")
        self._paths = paths
        d = self.algebra.dim
        s = self.times[:, :, None] * np.array([path._lam for path in paths])[:, None, :]
        admitted = _admitted(s.reshape(-1, d))
        if not admitted.all():
            path, t = divmod(int(np.argmin(admitted)), self.times.shape[1])
            raise _outside_window(paths[path], float(self.times[path, t]))
        c = s / (1.0 - s)
        outers = np.array([path._outer for path in paths])[:, None]
        self.phis = (np.eye(d) + (outers * c[:, :, None, None, :]).sum(axis=-1)).reshape(-1, d, d)

    @cached_property
    def inverses(self) -> np.ndarray:
        psis = np.array([path.psi for path in self._paths])[:, None]
        d = self.algebra.dim
        return (np.eye(d) - self.times[:, :, None, None] * psis).reshape(-1, d, d)

    def __len__(self) -> int:
        return len(self.phis)

    def apply_rows(self, xs: np.ndarray) -> np.ndarray:
        return _rowwise(self.phis, xs)

    def inv_apply_rows(self, xs: np.ndarray) -> np.ndarray:
        return _rowwise(self.inverses, xs)


def _curves(paths, xs: np.ndarray, ys: np.ndarray, ts, twisted: bool) -> np.ndarray:
    """k, or kappa when twisted, of the validated pair (xs[k], ys[k]) on
    paths[k] at each time of ts[k], path after path, as the rows of one
    ``puttmann_curvature_many`` call."""
    rows = _PathRows(paths, ts)
    per_path = rows.times.shape[1]
    xs, ys = np.repeat(xs, per_path, axis=0), np.repeat(ys, per_path, axis=0)
    if twisted:
        xs, ys = rows.inv_apply_rows(xs), rows.inv_apply_rows(ys)
    return puttmann_curvature_many(rows, xs, ys)


def k_of_t_many(path: InverseLinearPath, x, y, ts) -> np.ndarray:
    """k at each time of ts: entry n is the curvature of the fixed pair (x, y)
    under the metric at ts[n], bitwise ``k_of_t(path, x, y, ts[n])``.

    The one-path case of the many-path rows ``stencil_curves`` reads.  The
    pair and every time are validated before any evaluation; a time
    outside the window raises HorizonExceeded naming it.
    """
    x = path.algebra.check_vector(x)
    y = path.algebra.check_vector(y)
    return _curves([path], x[None], y[None], [ts], twisted=False)


def kappa_of_t_many(path: InverseLinearPath, x, y, ts) -> np.ndarray:
    """kappa at each time of ts: entry n is the curvature of the twisted pair
    ((I - t psi) x, (I - t psi) y) at t = ts[n], bitwise
    ``kappa_of_t(path, x, y, ts[n])``.

    Requires [x, y] = 0 (NotCommuting); the times are validated as in
    ``k_of_t_many``.
    """
    x, y = require_commuting(path.algebra, x, y)
    return _curves([path], x[None], y[None], [ts], twisted=True)


def k_of_t(path: InverseLinearPath, x, y, t: float) -> float:
    """Curvature of the fixed pair (x, y) under the metric at time t: the
    one-time case of ``k_of_t_many``."""
    return float(k_of_t_many(path, x, y, [t])[0])


def kappa_of_t(path: InverseLinearPath, x, y, t: float) -> float:
    """Curvature of the twisted pair ((I-t psi) x, (I-t psi) y) at time t: the
    one-time case of ``kappa_of_t_many``.

    Requires [x, y] = 0; this is the curve whose third derivative at 0 the
    closed form ``kappa_third_deriv`` computes.
    """
    return float(kappa_of_t_many(path, x, y, [t])[0])


def _check_psi_rows(psi: np.ndarray, xs: np.ndarray):
    """A row kernel's psi is one (d, d) matrix for every row, or an
    (n, d, d) stack holding one matrix per row of xs (DimensionMismatch
    otherwise)."""
    if psi.ndim == 3 and len(psi) != len(xs):
        raise DimensionMismatch(
            f"psi stack of shape {psi.shape} does not match rows of shape {xs.shape}"
        )


def k_second_deriv_many(g: LieAlgebra, psi: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Row-vectorized k''(0).  Assumes each row pair commutes and psi is
    symmetric; only a psi stack's length is checked.

    psi is one (d, d) matrix for every row or an (n, d, d) stack with one
    per row; row n applies its psi as ``psi @ x`` and is bitwise
    ``k_second_deriv(g, psi[n], xs[n], ys[n])``.
    """
    _check_psi_rows(psi, xs)
    pxs = np.matmul(psi, xs[:, :, None])[:, :, 0]
    pys = np.matmul(psi, ys[:, :, None])[:, :, 0]
    w = g.bracket_many(xs, pys) + g.bracket_many(pxs, ys)
    # a batched (1, d) @ (d, 1) product takes the dot routine of a 1-d w @ w
    return 0.5 * np.matmul(w[:, None, :], w[:, :, None])[:, 0, 0]


def k_second_deriv(g: LieAlgebra, psi, x, y) -> float:
    """Closed form (1/2)|[x, psi y] + [psi x, y]|^2 for k''(0): the
    validated one-row case of ``k_second_deriv_many``.

    Always nonnegative; the first derivative of k vanishes at 0.  Requires
    [x, y] = 0 (NotCommuting); psi must be finite and symmetric (ValueError)
    of the algebra's shape (DimensionMismatch).
    """
    x, y = require_commuting(g, x, y)
    psi = symmetric_matrix(psi, "psi", g.dim)
    return float(k_second_deriv_many(g, psi, x[None, :], y[None, :])[0])


def kappa_third_deriv(g: LieAlgebra, psi, x, y) -> float:
    """Closed form for kappa'''(0) on a commuting pair: the validated
    one-row case of ``kappa_third_deriv_many``.

    Six times a five-term bracket expression in (x, y, psi); the factor of
    six is pinned against the finite-difference estimator in the test suite.
    psi is validated as in ``k_second_deriv``.
    """
    x, y = require_commuting(g, x, y)
    psi = symmetric_matrix(psi, "psi", g.dim)
    return float(kappa_third_deriv_many(g, psi, x[None, :], y[None, :])[0])


def kappa_third_deriv_many(g: LieAlgebra, psi: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Row-vectorized kappa'''(0).  Assumes each row pair commutes and psi
    is symmetric; only a psi stack's length is checked.

    psi is one (d, d) matrix for every row, applied as ``xs @ psi``, or an
    (n, d, d) stack with one per row; row n of a stack is bitwise the
    one-row call on psi[n].
    """
    _check_psi_rows(psi, xs)

    def times_psi(vs):
        return vs @ psi if psi.ndim == 2 else np.matmul(vs[:, None, :], psi)[:, 0]

    pxs = times_psi(xs)
    pys = times_psi(ys)
    br_x_py = g.bracket_many(xs, pys)
    br_px_y = g.bracket_many(pxs, ys)
    br_px_py = g.bracket_many(pxs, pys)
    br_px_x = g.bracket_many(pxs, xs)
    br_py_y = g.bracket_many(pys, ys)
    t1 = np.einsum("nk,nk->n", br_x_py + br_px_y, br_px_py)
    t2 = np.einsum("nk,nk->n", br_px_x, times_psi(br_py_y))
    t3 = np.einsum("nk,nk->n", br_x_py, times_psi(br_x_py))
    t4 = np.einsum("nk,nk->n", br_x_py, times_psi(br_px_y))
    t5 = np.einsum("nk,nk->n", br_px_y, times_psi(br_px_y))
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


def stencil_curves(paths, xs, ys, hs, orders, *, twisted: bool = False) -> list:
    """For each path k, t -> the curve of the pair (xs[k], ys[k]) on
    paths[k] at the times ``refined_derivative(f, 0.0, j, hs[k])`` reads
    for each j in orders: ``kappa_of_t`` when twisted, else ``k_of_t``.

    The refined stencils at 0 read 0, +-h/2, +-h and +-2h; 2 * (h/2) == h
    exactly, so each distinct time of a path is one row, and every row of
    every path is evaluated in one ``puttmann_curvature_many`` call, each
    value bitwise the one-time value.  The pairs are validated as (n, dim)
    stacks (and must commute when twisted, NotCommuting), then every time
    is checked against its path's window.  Reading any other time raises
    KeyError.
    """
    if not len(paths) == len(xs) == len(ys) == len(hs):
        raise ValueError(
            f"one pair and step per path, got {len(paths)} paths, {len(xs)} x, "
            f"{len(ys)} y and {len(hs)} steps"
        )
    if not paths:
        return []
    g = paths[0].algebra
    xs, ys = _vector_rows(g, xs, "xs"), _vector_rows(g, ys, "ys")
    if twisted:
        _require_commuting_rows(g, xs, ys)
    times = [
        list(dict.fromkeys(
            0.0 + offset * step
            for order in orders
            for step in (h, h / 2.0)
            for offset, _ in _STENCILS[order]
        ))
        for h in hs
    ]
    values = _curves(paths, xs, ys, times, twisted).reshape(len(paths), -1).tolist()
    return [dict(zip(ts, row)).__getitem__ for ts, row in zip(times, values)]


def default_step(path: InverseLinearPath) -> float:
    """Step size 1e-2 * min(1, window/4) for two-sided stencils at 0."""
    window = min(path.t_max, -path.t_min)
    return 1e-2 * min(1.0, window / 4.0)
