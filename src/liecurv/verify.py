"""Nonnegativity verification by seeded multistart minimization.

Two search problems share the same engine shape:

* ``min_curvature``       -- minimize plane-normalized sectional curvature
  over 2-planes of the algebra;
* ``infinitesimal_check`` -- minimize the twisted third derivative
  kappa'''(0) over commuting pairs, the necessary condition for an
  inverse-linear variation to stay nonnegatively curved.

Both run a coarse sampling stage followed by gradient descent with
re-projection from the best starts.  The plane search uses exact-gradient
descent on the Rayleigh quotient of the metric's curvature operator; the
pair search uses central differences.  A ``NegativeWitness`` verdict is
conclusive (the witness re-evaluates below -tol in isolation); a
``NonnegativeWithinBudget`` verdict is a bounded-search claim, not a proof.

Determinism contract: all randomness is drawn up front from the given seed
and all refined starts descend together in one batch, so reports are
identical across runs for a fixed configuration and seed.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

from .algebra import LieAlgebra
from .errors import HorizonExceeded
from .metric import (
    LeftInvariantMetric,
    normalized_curvature_many,
    wedge_many,
    wedge_pairs,
)
from .variation import InverseLinearPath, kappa_of_t, kappa_third_deriv_many

__all__ = [
    "VERDICT_NONNEGATIVE",
    "VERDICT_NEGATIVE",
    "Budget",
    "CommutingPair",
    "CurvatureReport",
    "EigenStructure",
    "LemmaKReport",
    "sample_commuting_pairs",
    "min_curvature",
    "infinitesimal_check",
    "eigenstructure",
    "lemma_k_check",
    "path_scan",
]

VERDICT_NONNEGATIVE = "NonnegativeWithinBudget"
VERDICT_NEGATIVE = "NegativeWitness"

DEFAULT_TOL = 1e-9

_GRAD_DELTA = 1e-6  # central-difference step of the pair search
_STEP_INIT = 0.05
_STEP_STOP = 1e-10
_MIX_GUARD = 0.1  # lower bound on |cos(phi - psi)| for sampled pairs


@dataclass(frozen=True)
class Budget:
    """Search budget: coarse samples, refined starts, descent iterations."""

    samples: int = 4096
    restarts: int = 64
    iters: int = 200

    def __post_init__(self):
        for name in ("samples", "restarts", "iters"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value <= 0:
                raise ValueError(f"budget field {name} must be a positive integer, got {value!r}")
            object.__setattr__(self, name, int(value))  # numpy integers are not JSON values


def _check_tol(tol) -> float:
    tol = float(tol)
    if not np.isfinite(tol):
        raise ValueError(f"tol must be finite, got {tol}")
    return tol


def _warn_workers(workers):
    if workers is not None:
        warnings.warn(
            "workers is deprecated and ignored: every search runs in one batch",
            DeprecationWarning,
            stacklevel=3,
        )


@dataclass(frozen=True)
class CommutingPair:
    """Two independent commuting vectors; exact zero bracket by construction."""

    x: np.ndarray
    y: np.ndarray


@dataclass(frozen=True)
class CurvatureReport:
    """Outcome of a bounded search for negative curvature."""

    verdict: str
    min_value: float
    witness: tuple[tuple[float, ...], ...] | None
    samples: int
    restarts: int
    seed: int
    t: float | None = None
    small_t: tuple[tuple[float, float], ...] | None = None

    @property
    def negative(self) -> bool:
        return self.verdict == VERDICT_NEGATIVE

    def to_dict(self) -> dict:
        out = {
            "verdict": self.verdict,
            "min_value": self.min_value,
            "witness": None if self.witness is None else [list(v) for v in self.witness],
            "samples": self.samples,
            "restarts": self.restarts,
            "seed": self.seed,
        }
        if self.t is not None:
            out["t"] = self.t
        if self.small_t is not None:
            out["small_t"] = [[t, v] for t, v in self.small_t]
        return out


# ---------------------------------------------------------------------------
# commuting pairs

def sample_commuting_pairs(g: LieAlgebra, n: int, seed: int) -> list[CommutingPair]:
    """Seeded commuting pairs of the form x = cos(p) (A, 0) + sin(p) (0, B),
    y = -sin(q) (A, 0) + cos(q) (0, B) with unit A, B and mixing angles
    bounded away from the degenerate quarter turn.

    Every 2-dimensional abelian subspace of so(4) arises as span{(A,0),(0,B)},
    so these samples cover all zero-curvature planes of the bi-invariant
    metric.  So that the pairs commute exactly in floating point (not just to
    roundoff), y's two factor components are built as power-of-two multiples
    of x's: scaling by a power of two is exact, so the bracket's pairwise
    products cancel bitwise.  The second mixing angle is therefore realized
    up to a factor-of-two quantization of its tangent.

    For an algebra without a factor decomposition (so(3)) there are no
    independent commuting pairs and the list is empty.
    """
    if g.factor_split is None:
        return []
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < n:
        a = rng.standard_normal(3)
        b = rng.standard_normal(3)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        p, q = rng.uniform(0.0, 2.0 * np.pi, size=2)
        c, s = np.cos(p), np.sin(p)
        sq, cq = np.sin(q), np.cos(q)
        if min(abs(c), abs(s), abs(sq), abs(cq)) < 0.05:
            continue
        m1 = -np.copysign(2.0 ** round(np.log2(abs(sq / c))), sq / c)
        m2 = np.copysign(2.0 ** round(np.log2(abs(cq / s))), cq / s)
        if m1 == m2:
            continue  # proportional, not independent
        x = c * g.embed_factor(a, 1) + s * g.embed_factor(b, 2)
        idx1, idx2 = (list(ix) for ix in g.factor_split)
        y = np.zeros(g.dim)
        y[idx1] = m1 * x[idx1]
        y[idx2] = m2 * x[idx2]
        gram = (x @ x) * (y @ y) - (x @ y) ** 2
        if gram < 1e-2 * (x @ x) * (y @ y):
            continue
        pairs.append(CommutingPair(x=x, y=y))
    return pairs


# ---------------------------------------------------------------------------
# plane search

def _basis_planes(basis: np.ndarray) -> np.ndarray:
    """Frames of the planes spanned by pairs of basis columns, in the order
    of the bivector coordinates."""
    i, j = wedge_pairs(basis.shape[1])
    return np.stack([basis[:, i].T, basis[:, j].T], axis=2)


def _plane_values(op, frames: np.ndarray):
    """Normalized curvature w.Rw / w.Hw of the planes of (n, d, 2) frames,
    with Rw, Hw and w.Hw for the gradient."""
    r, h = op
    w = wedge_many(frames[:, :, 0], frames[:, :, 1])
    rw, hw = w @ r, w @ h
    wh = np.einsum("nk,nk->n", w, hw)
    return np.einsum("nk,nk->n", w, rw) / wh, rw, hw, wh


def _plane_gradient(op, frames: np.ndarray):
    """Exact gradient of the normalized curvature of the planes of
    orthonormal (n, d, 2) frames with respect to the two frame columns.

    With v = 2 (Rw - f Hw) / w.Hw read as an antisymmetric matrix V, the
    gradients are V z2 and -V z1; both are projected on the orthogonal
    complement of the frame.
    """
    val, rw, hw, wh = _plane_values(op, frames)
    v = 2.0 * (rw - val[:, None] * hw) / wh[:, None]
    n, d, _ = frames.shape
    i, j = wedge_pairs(d)
    vm = np.zeros((n, d, d))
    vm[:, i, j] = v
    vm[:, j, i] = -v
    grad = vm @ frames[:, :, ::-1]
    grad[:, :, 1] *= -1.0
    return grad - frames @ (frames.transpose(0, 2, 1) @ grad)


def _refine_planes(op, frames: np.ndarray, iters: int):
    """Descend plane-normalized curvature from each start frame.

    Each step moves the frame's columns along the unit steepest-descent
    direction in the orthogonal complement, re-orthonormalizes by QR, and
    keeps the result if the value drops.
    """
    q = frames.copy()
    val = _plane_values(op, q)[0]
    step = np.full(len(q), _STEP_INIT)
    for _ in range(iters):
        active = step >= _STEP_STOP
        if not active.any():
            break
        idx = np.nonzero(active)[0]
        qa = q[idx]
        grad = _plane_gradient(op, qa)
        gnorm = np.sqrt(np.einsum("ndc,ndc->n", grad, grad))
        moving = gnorm > 1e-15
        move = np.zeros_like(grad)
        move[moving] = -grad[moving] / gnorm[moving, None, None]
        cq = np.linalg.qr(qa + step[idx, None, None] * move)[0]
        cv = _plane_values(op, cq)[0]
        better = cv < val[idx]
        took = idx[better]
        q[took] = cq[better]
        val[took] = cv[better]
        new_step = np.where(better, step[idx] * 1.6, step[idx] * 0.5)
        new_step[~moving] = 0.0
        step[idx] = new_step
    return val, q


def _canonical_plane(frame: np.ndarray) -> np.ndarray:
    """Plane-intrinsic orthonormal frame with normalized signs.

    Derived from the orthogonal projector, so equal planes reported from
    different optimizer paths canonicalize to the same frame.
    """
    p = frame @ frame.T
    i1 = int(np.argmax(np.diag(p)))
    v1 = p[:, i1] / np.linalg.norm(p[:, i1])
    p2 = p - np.outer(v1, v1)
    i2 = int(np.argmax(np.diag(p2)))
    v2 = p2[:, i2] - v1 * (v1 @ p2[:, i2])
    v2 /= np.linalg.norm(v2)
    cols = []
    for v in (v1, v2):
        k = int(np.argmax(np.abs(v)))
        cols.append(-v if v[k] < 0 else v)
    cols.sort(key=lambda v: tuple(v))
    return np.stack(cols, axis=1)


def min_curvature(
    m: LeftInvariantMetric,
    budget: Budget | None = None,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
    workers: int | None = None,
) -> CurvatureReport:
    """Search for the minimum plane-normalized curvature of a metric.

    Coarse stage: ``budget.samples`` random orthonormal frames plus the
    coordinate and metric-eigenvector planes, scored by the Rayleigh
    quotient of ``m.curvature_operator()``.  The best ``budget.restarts``
    starts are refined together by exact-gradient descent.  The reported
    witness is the canonicalized minimizing plane and ``min_value`` is the
    closed-form curvature re-evaluated on it, so a negative verdict is
    reproducible in isolation.  ``workers`` is deprecated and ignored.
    """
    _warn_workers(workers)
    tol = _check_tol(tol)
    budget = budget or Budget()
    d = m.algebra.dim
    op = m.curvature_operator()
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((budget.samples, d, 2))
    pool = np.concatenate(
        [np.linalg.qr(raw)[0], _basis_planes(np.eye(d)), _basis_planes(m.eigenvectors)]
    )
    vals = _plane_values(op, pool)[0]
    order = np.argsort(vals, kind="stable")
    rv, rq = _refine_planes(op, pool[order[: budget.restarts]], budget.iters)

    witness = _canonical_plane(rq[int(np.argmin(rv))])
    final = float(
        normalized_curvature_many(m, witness[None, :, 0], witness[None, :, 1])[0]
    )
    verdict = VERDICT_NEGATIVE if final < -tol else VERDICT_NONNEGATIVE
    return CurvatureReport(
        verdict=verdict,
        min_value=final,
        witness=(tuple(witness[:, 0]), tuple(witness[:, 1])),
        samples=budget.samples,
        restarts=budget.restarts,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# commuting-pair search

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


def _pair_values(g, psi, a, b, p, q):
    """Normalized kappa'''(0) of the pairs built from (a, b, angles)."""
    r = len(a)
    av = np.zeros((r, 6))
    bv = np.zeros((r, 6))
    av[:, :3] = a
    bv[:, 3:] = b
    x = np.cos(p)[:, None] * av + np.sin(p)[:, None] * bv
    y = -np.sin(q)[:, None] * av + np.cos(q)[:, None] * bv
    gram = np.cos(p - q) ** 2
    vals = kappa_third_deriv_many(g, psi, x, y)
    out = np.full(r, np.inf)
    ok = gram >= _MIX_GUARD**2
    out[ok] = vals[ok] / gram[ok]
    return out


def _refine_pairs(g, psi, a, b, p, q, iters: int):
    """Descend normalized kappa'''(0) over (A, B, mixing angles).

    The sphere directions use tangent-plane charts that are re-centered
    after every accepted step; the two mixing angles are pure gauge for the
    normalized objective but are kept in the parameter vector.
    """
    a, b, p, q = a.copy(), b.copy(), p.copy(), q.copy()
    val = _pair_values(g, psi, a, b, p, q)
    step = np.full(len(a), _STEP_INIT)
    for _ in range(iters):
        active = step >= _STEP_STOP
        if not active.any():
            break
        idx = np.nonzero(active)[0]
        aa, bb, pp, qq = a[idx], b[idx], p[idx], q[idx]
        ra = len(idx)
        ua1, ua2 = _unit_complement(aa)
        ub1, ub2 = _unit_complement(bb)

        def chart(ta1, ta2, tb1, tb2, dp, dq):
            an = aa + ta1[:, None] * ua1 + ta2[:, None] * ua2
            bn = bb + tb1[:, None] * ub1 + tb2[:, None] * ub2
            an = an / np.linalg.norm(an, axis=1)[:, None]
            bn = bn / np.linalg.norm(bn, axis=1)[:, None]
            return an, bn, pp + dp, qq + dq

        zero = np.zeros(ra)
        grad = np.empty((ra, 6))
        for k in range(6):
            coords_plus = [zero.copy() for _ in range(6)]
            coords_minus = [zero.copy() for _ in range(6)]
            coords_plus[k] = coords_plus[k] + _GRAD_DELTA
            coords_minus[k] = coords_minus[k] - _GRAD_DELTA
            fp = _pair_values(g, psi, *chart(*coords_plus))
            fm = _pair_values(g, psi, *chart(*coords_minus))
            grad[:, k] = (fp - fm) / (2.0 * _GRAD_DELTA)
        gnorm = np.linalg.norm(grad, axis=1)
        moving = np.isfinite(gnorm) & (gnorm > 1e-15)
        direction = np.zeros_like(grad)
        direction[moving] = -grad[moving] / gnorm[moving, None]
        mv = step[idx][:, None] * direction
        an, bn, pn, qn = chart(mv[:, 0], mv[:, 1], mv[:, 2], mv[:, 3], mv[:, 4], mv[:, 5])
        cv = _pair_values(g, psi, an, bn, pn, qn)
        better = cv < val[idx]
        took = idx[better]
        a[took], b[took] = an[better], bn[better]
        p[took], q[took] = pn[better], qn[better]
        val[took] = cv[better]
        new_step = np.where(better, step[idx] * 1.6, step[idx] * 0.5)
        new_step[~moving] = 0.0
        step[idx] = new_step
    return val, a, b, p, q


def _sign_normalized(v: np.ndarray) -> np.ndarray:
    k = int(np.argmax(np.abs(v)))
    return -v if v[k] < 0 else v


def infinitesimal_check(
    g: LieAlgebra,
    psi,
    budget: Budget | None = None,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
    workers: int | None = None,
) -> CurvatureReport:
    """Search for commuting pairs with negative kappa'''(0).

    A negative minimum refutes infinitesimal nonnegativity of the variation;
    a nonnegative minimum is a bounded-search claim.  The report's witness is
    the orthonormal pair ((A, 0), (0, B)) spanning the worst plane, and
    ``small_t`` holds the twisted curvature at small times on that pair.
    ``workers`` is deprecated and ignored.
    """
    _warn_workers(workers)
    tol = _check_tol(tol)
    budget = budget or Budget()
    path = InverseLinearPath(g, psi)  # validates symmetry and shape
    psi = path.psi
    rng = np.random.default_rng(seed)

    a = rng.standard_normal((budget.samples, 3))
    b = rng.standard_normal((budget.samples, 3))
    a /= np.linalg.norm(a, axis=1)[:, None]
    b /= np.linalg.norm(b, axis=1)[:, None]
    p = rng.uniform(0.0, 2.0 * np.pi, budget.samples)
    q = rng.uniform(0.0, 2.0 * np.pi, budget.samples)
    # keep the coarse stage clear of the degenerate quarter turn
    bad = np.abs(np.cos(p - q)) < _MIX_GUARD
    p[bad] = 0.0
    q[bad] = 0.0
    vals = _pair_values(g, psi, a, b, p, q)
    order = np.argsort(vals, kind="stable")
    top = order[: budget.restarts]

    rv, ra, rb, _, _ = _refine_pairs(g, psi, a[top], b[top], p[top], q[top], budget.iters)
    k = int(np.argmin(rv))
    av = g.embed_factor(_sign_normalized(ra[k]), 1)
    bv = g.embed_factor(_sign_normalized(rb[k]), 2)
    final = float(kappa_third_deriv_many(g, psi, av[None], bv[None])[0])
    verdict = VERDICT_NEGATIVE if final < -tol else VERDICT_NONNEGATIVE

    small_t = []
    for t in (1e-4, 1e-3, 1e-2, 5e-2):
        if path.admissible(t) and t < 0.5 * path.t_max:
            small_t.append((t, kappa_of_t(path, av, bv, t)))
    return CurvatureReport(
        verdict=verdict,
        min_value=final,
        witness=(tuple(av), tuple(bv)),
        samples=budget.samples,
        restarts=budget.restarts,
        seed=seed,
        small_t=tuple(small_t),
    )


# ---------------------------------------------------------------------------
# eigenstructure and the smallest-eigenspace generation property

@dataclass(frozen=True)
class EigenStructure:
    """Clustered eigendecomposition of a symmetric map."""

    eigenvalues: np.ndarray  # one representative per cluster, ascending
    eigenspaces: list = field(default_factory=list)  # (dim, k) orthonormal blocks

    @property
    def smallest(self) -> np.ndarray:
        return self.eigenspaces[0]


def eigenstructure(psi, cluster_tol: float = 1e-8) -> EigenStructure:
    """Symmetric eigendecomposition with eigenvalues merged at relative gaps
    below ``cluster_tol``.

    The gap scale is the largest absolute eigenvalue, so a zero map yields a
    single cluster.  Non-finite psi raises ValueError.
    """
    psi = np.asarray(psi, dtype=float)
    if not np.all(np.isfinite(psi)):
        raise ValueError("psi has non-finite entries")
    psi = 0.5 * (psi + psi.T)
    w, v = np.linalg.eigh(psi)
    scale = max(np.abs(w).max(), 1e-300)
    bounds = [0]
    for i in range(1, len(w)):
        if w[i] - w[i - 1] > cluster_tol * scale:
            bounds.append(i)
    bounds.append(len(w))
    values = []
    spaces = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        values.append(float(w[lo:hi].mean()))
        spaces.append(v[:, lo:hi].copy())
    return EigenStructure(eigenvalues=np.array(values), eigenspaces=spaces)


@dataclass(frozen=True)
class LemmaKReport:
    """Result of sampling the smallest-eigenspace generation property."""

    max_residual: float
    samples: int
    passed: bool

    @property
    def vacuous(self) -> bool:
        return self.samples == 0


def lemma_k_check(g: LieAlgebra, psi, n: int = 200, seed: int = 0) -> LemmaKReport:
    """Sample the closure property of the smallest eigenspace.

    For x in the smallest eigenspace of psi and y commuting with x (drawn
    from the null space of ad(x)), measures the component of [x, psi y]
    orthogonal to that eigenspace, relative to the operator norm of psi.
    Infinitesimally nonnegative variations satisfy this with residual 0;
    PASS means max residual below 1e-8.  Non-finite psi raises ValueError.
    """
    psi = np.asarray(psi, dtype=float)
    psi = 0.5 * (psi + psi.T)
    struct = eigenstructure(psi)
    basis = struct.smallest
    proj = basis @ basis.T
    scale = max(np.abs(np.linalg.eigvalsh(psi)).max(), 1e-300)
    rng = np.random.default_rng(seed)
    worst = 0.0
    used = 0
    for _ in range(n):
        coeff = rng.standard_normal(basis.shape[1])
        x = basis @ coeff
        nx = np.linalg.norm(x)
        if nx < 1e-14:
            continue
        x /= nx
        _, s, vh = np.linalg.svd(g.ad(x))
        null = vh[s < 1e-10 * max(s.max(), 1.0)]
        if len(null) == 0:
            continue
        y = null.T @ rng.standard_normal(len(null))
        ny = np.linalg.norm(y)
        if ny < 1e-14:
            continue
        y /= ny
        w = g.bracket(x, psi @ y)
        resid = np.linalg.norm(w - proj @ w) / scale
        worst = max(worst, float(resid))
        used += 1
    return LemmaKReport(max_residual=worst, samples=used, passed=worst < 1e-8)


# ---------------------------------------------------------------------------
# path scans

def derived_seed(seed: int, index: int) -> int:
    """Per-task seed derived from (seed, task index), stable across runs."""
    return int(np.random.SeedSequence(entropy=seed, spawn_key=(index,)).generate_state(1)[0])


def path_scan(
    g: LieAlgebra,
    psi,
    t_grid,
    budget: Budget | None = None,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
    workers: int | None = None,
) -> list[CurvatureReport]:
    """Run ``min_curvature`` on the path metric at each grid time.

    All grid times are validated against the positive-definiteness horizon
    before any work starts.  Each time gets an independent derived seed, so
    the scan is reproducible entry by entry.  ``workers`` is deprecated and
    ignored.
    """
    _warn_workers(workers)
    tol = _check_tol(tol)
    path = InverseLinearPath(g, psi)
    t_grid = [float(t) for t in t_grid]
    for t in t_grid:
        if not path.admissible(t):
            raise HorizonExceeded(f"grid time {t} is outside (..., {path.t_max:.6g})")
    reports = []
    for i, t in enumerate(t_grid):
        metric = path.metric_at(t)
        rep = min_curvature(metric, budget=budget, tol=tol, seed=derived_seed(seed, i))
        reports.append(
            CurvatureReport(
                verdict=rep.verdict,
                min_value=rep.min_value,
                witness=rep.witness,
                samples=rep.samples,
                restarts=rep.restarts,
                seed=rep.seed,
                t=t,
            )
        )
    return reports
