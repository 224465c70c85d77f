"""Nonnegativity verification: closed form on so(3); on so(4), plane and
pair verdicts from one certified route.

* ``min_curvature``       -- the minimum plane-normalized sectional
  curvature over 2-planes of the algebra;
* ``infinitesimal_check`` -- the minimum of the twisted third derivative
  kappa'''(0) over commuting pairs, the necessary condition for an
  inverse-linear variation to stay nonnegatively curved.

On so(3) Milnor's closed form in phi's eigenvalues (``_milnor_curvatures``)
gives the least curved metric-eigenvector plane, the minimum, and the report
is ``exact``, with ``lower_bound`` the minimum less delta = max |K| (1e-12 +
4 eps kappa(phi)) for the eigenvalues' rounding.

Every other verdict minimizes w.Cw over decomposable unit vectors w.  An
so(4) plane's curvature is the Rayleigh quotient of the curvature operator
C (``curvature_operator()``, in the coordinates x = Lambda^1/2 V^T z of phi
= V Lambda V^T) at w = x1 ^ x2; a commuting pair's kappa'''(0) is (a (x)
b).G(a (x) b), with G the 9x9 ``_pair_form``.  Both run one driver,
``_verdicts``, on (T, ...) stacks of operators:

1. W = 0: lambda_min(C) less its margin delta (1e-12 of C's spectral norm)
   bounds every w.  The best point of a fixed search set closes the row
   where it attains that bound (``_closes``: its value and its re-evaluated
   one lie within delta of the bound and of each other); the report is
   then ``exact``, min_value - lower_bound <= 2 delta.
2. Thorpe's certificate (``_certify``): quadrics that vanish on every
   decomposable w leave each point's value unchanged, so lambda_min(C + W)
   bounds every w for each combination W of them (Thorpe, *The zeros of
   nonnegative curvature operators*, J. Diff. Geom. 1972).  Where C + W - t
   I is semidefinite, a point with w.(C + W - t I)w = 0 has (C + W - t I)w
   = 0, so at t = the best search value each flat search point gives
   linear equations in W, and one least-squares solve takes W from them
   (from further flat points too, where they leave W free).  A row that
   solve leaves short takes a log-barrier Newton method's bound instead.
3. The best search point is tried again on the lifted bound.
4. The open polish: where the lifted bound is tight, the witness lies in
   the lowest eigenspace of C + W, so exact alternating minimization
   (``_alternate``), then damped Newton steps (``_newton_pairs``), start
   from fixed starts and from the points nearest the lowest eigenvectors of
   C + W and of C, until they reach the lifted bound plus its margin.
5. The lower of the polished point and the best search point is tried
   once more.

A closure on a lifted bound also needs that bound, within its margin, on
one side of -floor, floor = min(tol, 1e-8 ||C||_2).  A report left open
carries the lifted bound less its margin.  What each route passes in:

* planes: C; the 15 Pluecker quadrics, scaled to x; the 30 coordinate and
  metric-eigenvector planes as the search set, and the flat planes inside
  phi's repeated eigenspaces (``_partner_planes``), which eigh's basis
  misses, as its further flat points; the 30 planes' first columns as
  extra starts, and the 3 lowest eigenvectors; no margin floor.  The
  witness is mapped back by z = V Lambda^-1/2 x and re-evaluated in closed
  form.
* pairs: G; the 9 Segre quadrics, the 2x2 minors of a b^T; three pairs,
  the top singular vectors of G's three lowest eigenvectors read as 3x3
  matrices and polished by ``_alternate``, as the search set, with no
  further points; no extra starts, and all 9 eigenvectors; a margin floor
  of 1e-12 ||psi||_2^3, as G carries rounding at that scale.  A
  nonnegative biquadratic form need not be a sum of squares, so a pair can
  stay open.

The cap of 200 rounds and 200 Newton steps on every polish is a fixed
constant, not an option.  ``_alternate`` stops each row of its (T, n, d)
stacks of starts on its own, so a row's rounds depend on its own form
alone.  ``path_scan`` uses this: the times of a scan still open after the
certificate are polished together, and each entry still equals its
standalone ``min_curvature`` report byte for byte, so the scan stays
reproducible entry by entry.  ``path_scan_many`` does the same for the
times of several paths at once, and ``path_scan`` is its one-path case.

Both verdicts come from one rule,
``_report``: negative exactly when the minimum lies below -tol.  A
``NegativeWitness`` verdict is conclusive (the witness re-evaluates below
-tol in isolation); a ``NonnegativeWithinBudget`` verdict is a
bounded-search claim, not a proof, unless the report is ``exact``.

``lemma_k_check`` checks the smallest-eigenspace generation property that
the rigidity theorems force on nonnegatively curved paths exactly, on the
eigenspace's basis pairs and its factor strata, from one validation and one
``eigh`` of psi; ``null_space`` gives each factor stratum, as it gives the
normal form's kernels.

Determinism contract: no verdict or lemma report draws a random number
(``sample_commuting_pairs``, the suites' draw, is the one random routine
here), and every batch of metrics, times or starts is computed row by row,
so reports are identical across runs for a fixed configuration.
"""

from __future__ import annotations

import functools
import itertools
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .algebra import LieAlgebra, symmetric_matrix
from .metric import (
    LeftInvariantMetric,
    normalized_curvature_many,
    wedge_pairs,
)
from .variation import InverseLinearPath, kappa_of_t_many, kappa_third_deriv_many

__all__ = [
    "VERDICT_NONNEGATIVE",
    "VERDICT_NEGATIVE",
    "CommutingPair",
    "CurvatureReport",
    "EigenStructure",
    "LemmaKReport",
    "null_space",
    "sample_commuting_pairs",
    "min_curvature",
    "infinitesimal_check",
    "lemma_k_check",
    "path_scan",
    "path_scan_many",
    "DEFAULT_TOL",
]

VERDICT_NONNEGATIVE = "NonnegativeWithinBudget"
VERDICT_NEGATIVE = "NegativeWitness"

DEFAULT_TOL = 1e-9

# the rounding margin delta of a lower bound, relative to the spectral norm
# of the curvature operator it comes from
_BOUND_MARGIN = 1e-12
# the so(3) margin per unit of phi's condition number: eigh's error, with room
_EIGH_ERROR = 4.0 * np.finfo(float).eps
# a report closes on a lifted bound only where that bound, plus or minus its
# margin, lies wholly on one side of -floor, with floor the smaller of tol and
# this many margins delta (1e-8 of the spectral norm), so the rule does not
# depend on the metric's scale unless tol binds
_CERT_FLOOR = 1e4
# the plane certificate's barrier parameter shrinks by this factor after a
# short Newton step, and the barrier stops lifting after as many steps
_CERT_SHRINK = 100.0
_CERT_STEPS = 50


# the most alternating rounds, and the most damped Newton steps, of any
# polish: a guard that ends a polish still creeping down a flat valley
_MAX_ROUNDS = 200


def _check_tol(tol) -> float:
    tol = float(tol)
    # a negative tol would call a positive minimum a negative witness
    if not (np.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")
    return tol


def _check_count(n, name: str = "n") -> int:
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {n!r}")
    return int(n)


def _grid_times(grid) -> list[float]:
    """The times of one scan grid, a 1-d sequence of real numbers
    (ValueError); a NaN time is left to the path's own check."""
    try:
        times = None if isinstance(grid, (str, bytes)) else list(grid)
    except TypeError:
        times = None
    real = times is not None and all(isinstance(t, numbers.Real) and not isinstance(t, bool)
                                     for t in times)
    if not real:
        raise ValueError(f"t_grid must be a 1-d sequence of real numbers, got {grid!r}")
    return [float(t) for t in times]


@dataclass(frozen=True)
class CommutingPair:
    """Two independent commuting vectors; exact zero bracket by construction."""

    x: np.ndarray
    y: np.ndarray


@dataclass(frozen=True)
class CurvatureReport:
    """Outcome of a search for negative curvature.

    A plane report carries ``lower_bound``, below which no plane lies: on
    so(3) Milnor's closed-form minimum, on so(4) the smallest eigenvalue of
    the curvature operator C or, for a metric not closed there, the
    Pluecker certificate's lifted lambda_min(C + W), less a rounding margin
    delta.  ``exact`` says the minimum is known: on so(3) it comes in closed
    form; on so(4) the witness attains the bound, min_value - lower_bound
    <= 2 delta.  A pair report carries the same certificate's lifted
    lambda_min(G + W), W a combination of the Segre quadrics, less its
    margin, and ``exact`` says the same of its witness pair.
    """

    verdict: str
    min_value: float
    witness: tuple[tuple[float, ...], ...] | None
    exact: bool = False
    lower_bound: float | None = None
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
            "exact": self.exact,
        }
        if self.lower_bound is not None:
            out["lower_bound"] = self.lower_bound
        if self.t is not None:
            out["t"] = self.t
        if self.small_t is not None:
            out["small_t"] = [[t, v] for t, v in self.small_t]
        return out


def _report(final: float, witness, tol: float, **extra) -> CurvatureReport:
    """The report on a minimum ``final`` attained at ``witness`` (two
    vectors): negative exactly when final < -tol."""
    return CurvatureReport(
        verdict=VERDICT_NEGATIVE if final < -tol else VERDICT_NONNEGATIVE,
        min_value=final,
        witness=tuple(tuple(v) for v in witness),
        **extra,
    )


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
    independent commuting pairs and the list is empty.  n and seed must be
    nonnegative integers (ValueError), on so(3) too.

    Attempts run in chunks: each attempt draws a, b and the two angles, in
    that order, and the rejection tests and the construction then run on
    the whole chunk at once, keeping the first n accepted attempts.  Each
    kept pair is bitwise the one a draw-by-draw loop over the same stream
    accepts; the stream is local, so the attempts drawn past the n-th
    acceptance change nothing.
    """
    n, seed = _check_count(n), _check_count(seed, "seed")
    if g.factor_split is None:
        return []
    rng = np.random.default_rng(seed)
    idx1, idx2 = (list(ix) for ix in g.factor_split)
    xs = ys = np.zeros((0, g.dim))
    while (missing := n - len(xs)) > 0:
        # about 4 in 5 attempts are accepted
        draws = [
            (rng.standard_normal(3), rng.standard_normal(3), rng.uniform(0.0, 2.0 * np.pi, size=2))
            for _ in range(missing + missing // 4 + 1)
        ]
        p, q = np.array([pq for _, _, pq in draws]).T
        c, s, sq, cq = np.cos(p), np.sin(p), np.sin(q), np.cos(q)
        keep = np.flatnonzero(np.min(abs(np.stack([c, s, sq, cq])), axis=0) >= 0.05)
        c, s, sq, cq = c[keep, None], s[keep, None], sq[keep, None], cq[keep, None]
        m1 = -np.copysign(np.ldexp(1.0, np.rint(np.log2(abs(sq / c))).astype(int)), sq / c)
        m2 = np.copysign(np.ldexp(1.0, np.rint(np.log2(abs(cq / s))).astype(int)), cq / s)
        # each draw normalized on its own: a row-wise norm can differ by an ulp
        unit = np.reshape([[v / np.linalg.norm(v) for v in draws[i][:2]] for i in keep],
                          (len(keep), 2, len(idx1)))
        ab = np.zeros((2, len(keep), g.dim))
        ab[0][:, idx1], ab[1][:, idx2] = unit[:, 0], unit[:, 1]
        x = c * ab[0] + s * ab[1]
        y = np.zeros_like(x)
        y[:, idx1] = m1 * x[:, idx1]
        y[:, idx2] = m2 * x[:, idx2]
        xx, yy, xy = (np.einsum("nk,nk->n", u, v) for u, v in ((x, x), (y, y), (x, y)))
        # m1 == m2 makes y proportional to x, not independent
        accepted = (m1[:, 0] != m2[:, 0]) & ~(xx * yy - xy**2 < 1e-2 * xx * yy)
        xs = np.concatenate([xs, x[accepted][:missing]])
        ys = np.concatenate([ys, y[accepted][:missing]])
    return [CommutingPair(x=x, y=y) for x, y in zip(xs, ys)]


# ---------------------------------------------------------------------------
# the Rayleigh-quotient search of planes

@functools.lru_cache(maxsize=None)
def _incidence(d: int) -> np.ndarray:
    """The B of the plane operator: the (d(d-1)/2, d*d) matrix taking
    vec(z1 z2^T) to the bivector coordinates of z1 ^ z2, whose row k is +1
    at (i, j) and -1 at (j, i) for the k-th pair (i, j) of
    ``wedge_pairs(d)``."""
    i, j = wedge_pairs(d)
    k = np.arange(len(i))
    inc = np.zeros((len(i), d * d))
    inc[k, i * d + j] = 1.0
    inc[k, j * d + i] = -1.0
    inc.setflags(write=False)
    return inc


def _quotient_values(op, x: np.ndarray):
    """Rayleigh quotient w.Cw / w.w of the operator (C, B) on the stacks x
    of shape (T, 2, d, n): for each of T operators, the columns x1 = x[:, 0]
    and x2 = x[:, 1] of n frames, with w = B (x1 (x) x2).  C is a (T, k, k)
    stack, or one (k, k) matrix for every T; B is (k, d*d).  Returns the
    (T, n) values with w and w.w."""
    c, b = op
    t, _, d, n = x.shape
    w = b @ (x[:, 0, :, None] * x[:, 1, None]).reshape(t, d * d, n)
    ww = np.add.reduce(w * w, axis=1)
    return np.add.reduce(w * (c @ w), axis=1) / ww, w, ww


def _gram_schmidt(frames: np.ndarray) -> np.ndarray:
    """Orthonormalized (T, 2, d, n) frames: the Q factor of each frame's QR
    decomposition with a positive diagonal of R, in closed form."""
    z1, z2 = frames[:, 0], frames[:, 1]
    q = np.empty_like(frames)
    q1 = np.divide(z1, np.sqrt(np.add.reduce(z1 * z1, axis=1, keepdims=True)), out=q[:, 0])
    z2 = z2 - q1 * np.add.reduce(q1 * z2, axis=1, keepdims=True)
    np.divide(z2, np.sqrt(np.add.reduce(z2 * z2, axis=1, keepdims=True)), out=q[:, 1])
    return q


def _outer_rows(v: np.ndarray) -> np.ndarray:
    """The rows vec(v v^T), (..., d*d), of the (..., d) rows v."""
    return (v[..., :, None] * v[..., None, :]).reshape(*v.shape[:-1], -1)


def _alternate(m: np.ndarray, a: np.ndarray, iters: int, stop: np.ndarray, reach: np.ndarray):
    """Exact alternating minimization of T biquadratic forms f(a, b) =
    vec(a a^T) M vec(b b^T) over unit a and b, M the (d*d, d*d) matrices of
    the (T, d*d, d*d) stack m, from the (T, n, d) starts a.

    For fixed a the minimum over b is the smallest eigenvalue of G_a, with
    vec(G_a) = vec(a a^T) M; for fixed b, G^b reads M the other way.  Each
    round takes every start's b as the lowest eigenvector of G_a, then its a
    as the lowest eigenvector of G^b.  Row t stops once its best value falls
    by no more than stop[t] in a round or reaches reach[t], or after
    ``iters`` rounds.  A stopped row is not computed again, so each row's
    result depends on its own form and starts alone.  Returns the (T,) best
    values of each row and their (T, d) a and b.

    Alternation can end short of a minimum where both half-steps are
    optimal but f falls along a direction that moves a and b together: a
    row can creep along a flat valley, each half-step gaining a fixed
    fraction of what is left, or zig-zag by a saddle, where the value falls
    by less than a round's rounding while a step of a and b together still
    gains.  So a caller whose rows must reach their target passes the
    result on to ``_newton_pairs``: the open polish of ``_verdicts``.  The
    pair route's pre-polish in ``infinitesimal_check`` does not: its rounds
    only give the certificate its search set.
    """
    t, n, d = a.shape
    a = np.array(a)
    val, best_a, best_b = np.empty(t), np.empty((t, d)), np.empty((t, d))
    prev = np.full(t, np.inf)
    rows = np.arange(t)
    for _ in range(iters):
        mr = m[rows]
        b = np.linalg.eigh((_outer_rows(a[rows]) @ mr).reshape(-1, n, d, d))[1][..., 0]
        low, vec = np.linalg.eigh((_outer_rows(b) @ mr.transpose(0, 2, 1)).reshape(-1, n, d, d))
        a[rows] = vec[..., 0]
        k, r = np.argmin(low[..., 0], axis=1), np.arange(len(rows))
        val[rows], best_a[rows], best_b[rows] = low[r, k, 0], vec[r, k, :, 0], b[r, k]
        done = (prev[rows] - val[rows] <= stop[rows]) | (val[rows] <= reach[rows])
        prev[rows] = val[rows]
        rows = rows[~done]
        if not len(rows):
            break
    return val, best_a, best_b


def _newton_pairs(m: np.ndarray, val: np.ndarray, a: np.ndarray, b: np.ndarray, iters: int,
                  stop: np.ndarray, reach: np.ndarray):
    """At most ``iters`` damped Newton steps on f(a, b) = vec(a a^T) M
    vec(b b^T) over unit a and b for the (T, d*d, d*d) stack m, from the
    (T,) values val at the (T, d) pairs a, b that ``_alternate`` returns,
    each step kept only where it lowers f.  Only the rows above reach[t]
    take steps; the others are returned as they came.

    With N the entries of M read over (i, j, k, l), symmetrized in (i, j)
    and in (k, l), G_a = N(a, a, ., .) and G^b = N(., ., b, b): the
    gradient on the two spheres is 2 (G^b a - f a, G_a b - f b), and the
    Hessian H has the blocks 2 (G^b - f I) and 2 (G_a - f I), joined by 4
    N(., a, ., b), each projected off a and b.  The step solves (H + sI) p
    = -gradient in H's eigenbasis, s = max(0, -lambda_min(H)) + mu, with
    the eigenvalues below 1e-10 of the largest dropped (the normals a and
    b, and the planes' turn within the plane, leave f fixed), and a and b
    are renormalized.  mu starts at 1e-8 of H's largest eigenvalue and is
    divided by 4 after a kept step, multiplied by 4 after a dropped one, so
    the steps follow a curved valley and leave a saddle, where a negative
    eigenvalue's step has at least the length it would have at the gradient
    1e-3 |lambda_min|.  Row t ends, without that step, once the step's
    predicted fall is at most stop[t], and once its value reaches
    reach[t]."""
    t, d = a.shape
    rows = np.flatnonzero(val > reach)
    if not len(rows):
        return val, a, b
    a, b, val = np.array(a), np.array(b), np.array(val)
    n = m.reshape(t, d, d, d, d)
    n = n + n.transpose(0, 2, 1, 3, 4)
    n = 0.25 * (n + n.transpose(0, 1, 2, 4, 3))
    eye = np.eye(d)
    mu, moved = np.zeros(t), np.zeros(t, bool)
    for k in range(iters):
        nr, ar, br = n[rows], a[rows], b[rows]
        g_a = np.einsum("tijkl,ti,tj->tkl", nr, ar, ar)
        g_b = np.einsum("tijkl,tk,tl->tij", nr, br, br)
        f = np.einsum("tkl,tk,tl->t", g_a, br, br)[:, None, None]
        p_a, p_b = eye - ar[:, :, None] * ar[:, None], eye - br[:, :, None] * br[:, None]
        g_b, g_a = g_b - f * eye, g_a - f * eye
        h = np.empty((len(rows), 2 * d, 2 * d))
        h[:, :d, :d], h[:, d:, d:] = p_a @ g_b @ p_a, p_b @ g_a @ p_b
        h[:, :d, d:] = 2.0 * p_a @ np.einsum("tijkl,tj,tl->tik", nr, ar, br) @ p_b
        h[:, d:, :d] = h[:, :d, d:].transpose(0, 2, 1)
        lam, vec = np.linalg.eigh(h)
        grad = np.concatenate([g_b @ ar[..., None], g_a @ br[..., None]], axis=1)[..., 0]
        top = np.abs(lam).max(axis=1)
        if k == 0:
            mu[rows] = 1e-8 * top
        g = np.einsum("tji,tj->ti", vec, grad)
        g[:, 0] = np.where(lam[:, 0] < 0, np.where(g[:, 0] > 0, 1.0, -1.0)
                           * np.maximum(np.abs(g[:, 0]), -1e-3 * lam[:, 0]), g[:, 0])
        shift = np.maximum(0.0, -lam[:, 0]) + mu[rows]
        coef = np.where(np.abs(lam) > 1e-10 * top[:, None], -g / (lam + shift[:, None]), 0.0)
        fall = -np.einsum("ti,ti->t", coef, g + 0.5 * lam * coef)
        go = fall > stop[rows]
        if not go.any():
            break
        step = np.einsum("tji,ti->tj", vec, coef)
        na, nb = ar + step[:, :d], br + step[:, d:]
        na /= np.linalg.norm(na, axis=1, keepdims=True)
        nb /= np.linalg.norm(nb, axis=1, keepdims=True)
        nf = np.einsum("tijkl,ti,tj,tk,tl->t", nr, na, na, nb, nb)
        better = go & (nf < val[rows])
        kept = rows[better]
        a[kept], b[kept], val[kept] = na[better], nb[better], nf[better]
        moved[kept] = True
        mu[rows] *= np.where(better, 0.25, 4.0)
        rows = rows[go & (val[rows] > reach[rows])]
        if not len(rows):
            break
    # a pair that the steps moved takes one more alternating round (reach
    # +inf ends it there), which puts b on a best reply to a and a on one
    # to b: a plane's x1 and x2 are then orthonormal again, and its value
    # is its quotient
    rows = np.flatnonzero(moved)
    if len(rows):
        val[rows], a[rows], b[rows] = _alternate(m[rows], a[rows, None], 1, stop[rows],
                                                 np.full(len(rows), np.inf))
    return val, a, b


@functools.lru_cache(maxsize=None)
def _plucker_forms(d: int) -> np.ndarray:
    """The (C(d, 4), k, k) symmetric matrices of the Pluecker quadrics
    w_ab w_ce - w_ac w_be + w_ae w_bc, one per a < b < c < e, in the
    bivector coordinates of ``wedge_pairs(d)``: each vanishes on every
    decomposable bivector z1 ^ z2, and together they vanish on no other."""
    i, j = wedge_pairs(d)
    pos = {pair: k for k, pair in enumerate(zip(i.tolist(), j.tolist()))}
    quads = list(itertools.combinations(range(d), 4))
    forms = np.zeros((len(quads), len(i), len(i)))
    for n, (a, b, c, e) in enumerate(quads):
        for p, q, sign in (((a, b), (c, e), 0.5), ((a, c), (b, e), -0.5), ((a, e), (b, c), 0.5)):
            forms[n, pos[p], pos[q]] = forms[n, pos[q], pos[p]] = sign
    forms.setflags(write=False)
    return forms


@functools.lru_cache(maxsize=None)
def _partner_blocks(sizes: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """For metric eigenvalues in consecutive clusters of the given sizes,
    one (n, s) table per cluster size s >= 2: row (a, E) holds the bivector
    coordinates of e_a ^ e_r for r in E, over every cluster E of size s
    and every index a before it."""
    i, j = wedge_pairs(sum(sizes))
    pos = {pair: k for k, pair in enumerate(zip(i.tolist(), j.tolist()))}
    tables: dict[int, list] = {}
    start = 0
    for s in sizes:
        if s > 1 and start:
            tables.setdefault(s, []).extend([pos[a, r] for r in range(start, start + s)]
                                            for a in range(start))
        start += s
    out = tuple(np.array(rows) for _, rows in sorted(tables.items()))
    for table in out:
        table.setflags(write=False)
    return out


def _partner_planes(c: np.ndarray, eigenvalues: np.ndarray, top: float) -> np.ndarray:
    """The (k, n) unit bivectors e_a ^ u of the (k, k) operator c with
    quotient at most top, for each metric eigenvector e_a and each later
    cluster E of equal metric eigenvalues: u runs over the eigenvectors of
    C's block on {e_a ^ e_r : r in E}.  eigh's basis of E is arbitrary, so a
    flat plane e_a ^ u lies in no basis plane, but it is one of these."""
    sizes = tuple(map(len, np.split(eigenvalues, _cluster_cuts(eigenvalues))))
    planes = [np.zeros((len(c), 0))]
    for table in _partner_blocks(sizes):
        val, vec = np.linalg.eigh(c[table[:, :, None], table[:, None, :]])
        block, col = np.nonzero(val <= top)
        w = np.zeros((len(c), len(block)))
        w[table[block], np.arange(len(block))[:, None]] = vec[block, :, col]
        planes.append(w)
    return np.concatenate(planes, axis=1)


def _plucker_weights(forms: np.ndarray, c: np.ndarray, t: float, w: np.ndarray):
    """The least-squares weights y of the (q, k, k) quadrics ``forms`` with
    sum_a y_a K_a w = (t I - c) w for each column w of the (k, n) planes w,
    one block of k equations each, and the rank of that system."""
    lhs = (forms @ w).transpose(2, 1, 0).reshape(-1, len(forms))
    y, _, rank, _ = np.linalg.lstsq(lhs, (t * w - c @ w).T.reshape(-1), rcond=None)
    return y, rank


def _certify(c: np.ndarray, lam0: np.ndarray, delta: np.ndarray, values: np.ndarray,
             forms: np.ndarray, points: np.ndarray, more, floor: np.ndarray):
    """Thorpe's certificate on the (T, k, k) operators c, whose bounds at W
    = 0 are the (T,) lam0 with margins delta, for the (T, q, k, k) quadrics
    ``forms`` in c's coordinates, which vanish on the search set: the best
    lower bound lambda_min(C + W) found, its rounding margin and the (T, k,
    k) weights W that give it, lifted towards each row's target, the lowest
    of its (T, n) ``values`` at the (T, k, n) unit points of the search set.

    The quadrics vanish on the search set, so each point's value there is
    the same on C and on C + W, and lies at or above lambda_min(C + W), for
    every combination W of them (Thorpe, *The zeros of nonnegative
    curvature operators*, J. Diff. Geom. 1972).  Every bound comes from
    ``eigvalsh`` of C + W less the rounding margin of C + W, at least the
    row's margin floor, floor[t].  A row is done once its bound plus margin
    reaches its target.

    If C + W - t I is positive semidefinite and w.(C + W - t I)w = 0, then
    (C + W - t I)w = 0.  So at t = target each flat point w (one within
    delta of the target) gives k linear equations in the weights of W, and
    each row not yet done takes W from them by one least-squares solve, a
    row at a time.  Where those equations leave W free (their rank is below
    the number of quadrics), ``more(r, top)``, if given, adds row r's
    further flat points with value at most top = target + delta, and the
    row solves once more.  Any W gives a valid bound, so the choice of
    points decides only how high it reaches.  A row whose solve does not
    reach its target takes the bound of ``_barrier`` from W = 0 instead.
    """
    target = values.min(axis=1)
    bound, margin, weights = lam0.copy(), delta.copy(), np.zeros_like(c)
    live = bound + margin < target
    for r in np.flatnonzero(live):
        top = target[r] + delta[r]
        w = points[r][:, values[r] <= top]
        y, rank = _plucker_weights(forms[r], c[r], target[r], w)
        if rank < len(forms[r]) and more is not None:
            w = np.concatenate([w, more(r, top)], axis=1)
            y = _plucker_weights(forms[r], c[r], target[r], w)[0]
        lifted = np.tensordot(y, forms[r], 1)
        lw0, dw = _lower_bound(np.linalg.eigvalsh(c[r] + lifted))
        dw = max(dw, floor[r])
        if lw0 + dw >= target[r]:
            bound[r], margin[r], weights[r], live[r] = lw0, dw, lifted, False
    rows = np.flatnonzero(live)
    if len(rows):
        bound[rows], margin[rows], y = _barrier(c[rows], forms[rows], lam0[rows], delta[rows],
                                                target[rows])
        # the barrier's own margins are those of C + W alone
        margin[rows] = np.maximum(margin[rows], floor[rows])
        weights[rows] = np.einsum("tq,tqkl->tkl", y, forms[rows])
    return bound, margin, weights


def _barrier(c, forms, lam0, delta, target):
    """The log-barrier Newton method of ``_certify`` on the (T, k, k)
    operators c, not yet done, with the (T, q, k, k) quadrics ``forms`` in
    their coordinates, from W = 0 and its bound lam0 with margin delta: the
    rows' best bounds, their margins and the (T, q) weights of the quadrics
    that give them.

    It maximizes t over (W, t) with C + W - t I positive definite: it
    maximizes t/mu + log det(C + W - t I) by Newton steps with an exact line
    search inside the feasible set, and divides mu by ``_CERT_SHRINK``
    whenever a step's Newton decrement is at most 1/2.  A row stops lifting
    once its bound plus margin reaches its target, once k mu falls below
    delta, or after ``_CERT_STEPS`` steps.
    """
    t_rows, k, _ = c.shape
    # the last coordinate of y is t, entering as -t I
    dirs = np.concatenate([forms, np.broadcast_to(-np.eye(k), (t_rows, 1, k, k))], axis=1)
    flat = dirs.reshape(t_rows, -1, k * k)
    base = c.reshape(t_rows, 1, k * k)
    bound, margin = lam0, delta
    # mu starts at delta / _BOUND_MARGIN (C's spectral norm, unless a pair's
    # margin floor binds), and t that far below lambda_0, at W = 0
    mu = delta / _BOUND_MARGIN
    y = np.zeros(flat.shape[:2])
    y[:, -1] = lam0 - mu
    best = y[:, :-1]
    live = np.ones(t_rows, dtype=bool)
    for _ in range(_CERT_STEPS):
        if not np.count_nonzero(live):
            break
        # the directions whitened by M = C + W - t I = L L^T: P = L^-1 K L^-T,
        # so the gradient of log det M is tr P and its Hessian -tr(P_a P_b)
        inv = np.linalg.inv(np.linalg.cholesky((base + y[:, None] @ flat).reshape(t_rows, k, k)))
        p = inv[:, None] @ dirs @ inv[:, None].transpose(0, 1, 3, 2)
        grad = np.trace(p, axis1=2, axis2=3)
        grad[:, -1] += 1.0 / mu
        p = p.reshape(t_rows, -1, k * k)
        dy = np.linalg.solve(p @ p.transpose(0, 2, 1), grad[..., None])[..., 0]
        decrement = np.sqrt(np.maximum(np.add.reduce(grad * dy, axis=1), 0.0))
        # log det(M + a dM) = log det M + sum log(1 + a e) over the eigenvalues
        # e of the whitened move: an exact line search inside the feasible set
        e = np.linalg.eigvalsh((dy[:, None] @ p).reshape(t_rows, k, k))
        limit = np.where(e[:, 0] < 0.0, -1.0 / np.minimum(e[:, 0], -1e-300), np.inf)
        a, cap, slope = np.minimum(1.0, 0.5 * limit), 0.99 * limit, dy[:, -1] / mu
        # four Newton steps on the slope, with as few small-array calls as
        # they take; the curvature sum(q^2) is 0 only for a zero move
        for _ in range(4):
            q = e / (1.0 + a[:, None] * e)
            curve = np.maximum(np.add.reduce(q * q, axis=1), 1e-300)
            a = np.minimum(np.maximum(a + (slope + np.add.reduce(q, axis=1)) / curve, 0.0), cap)
        y = np.where(live[:, None], y + a[:, None] * dy, y)
        lifted = np.linalg.eigvalsh((base + y[:, None, :-1] @ flat[:, :-1]).reshape(t_rows, k, k))
        lw0, dw = _lower_bound(lifted)
        better = live & (lw0 - dw > bound - margin)
        bound, margin = np.where(better, lw0, bound), np.where(better, dw, margin)
        best = np.where(better[:, None], y[:, :-1], best)
        live &= (bound + margin < target) & (k * mu >= delta)
        mu = np.where((decrement <= 0.5) & live, mu / _CERT_SHRINK, mu)
    return bound, margin, best


# ---------------------------------------------------------------------------
# the verdict route of planes and pairs

def _closes(quotient: float, final: float, lam0: float, delta: float) -> bool:
    """Whether a point attains the lower bound lambda_0 - delta: its operator
    quotient is at most lambda_0 + delta, and its re-evaluated value
    ``final`` lies within delta of both that quotient and lambda_0."""
    return bool(
        quotient <= lam0 + delta and abs(final - quotient) <= delta and abs(final - lam0) <= delta
    )


def _verdicts(c, lam0, delta, values, certificate, polish, tol: float, witness) -> list[tuple]:
    """The verdict of each row of the (T, k, k) operators c, whose value at
    a decomposable unit vector w is w.Cw: per row, the witness, its value,
    whether it is exact and the lower bound, by the route of the module
    docstring.  Its inputs:

    * lam0, delta: the (T,) bounds lambda_min(C) and margins at W = 0, and
      ``values``: the (T, n) values of each row's search set;
    * ``certificate(rows)``: what ``_certify`` takes for those rows, their
      (R, q, k, k) quadrics, which vanish on every decomposable w, the (R,
      k, n) unit points of their search sets, ``more(i, top)`` (row i's
      further flat points for the solve) or None, and their (R,) margin
      floors;
    * ``polish(rows)``: what the open polish takes for those rows, their
      (R, d*d, d*d) biquadratic forms of ``_alternate``, their (R, s, d)
      extra starts, the (R,) gains that end their rounds, and the (d*d, k)
      map that reads an eigenvector as a d x d matrix, for the ``lowest``
      lowest eigenvectors of C + W and of C that start the polish too;
    * ``witness(t, point)``: row t's point mapped back to a witness and its
      re-evaluated value, where point is the index of a search point or a
      polished pair (x1, x2).  The best search point is mapped at most
      once.

    The W = 0 bound needs no -floor rule, and has none: a bi-invariant
    metric scaled by 1e-4 has flat planes on a bound whose margin, 2.5e-9,
    straddles -tol.  ``certificate`` and ``polish`` build only the rows that
    reach their stage, so a row that closes early costs neither, nor an
    ``eigh``.  A row's route depends on its own inputs alone, so a stack of
    rows gives each row what it gets alone, byte for byte.  Two inputs
    differ by route on purpose: planes start from 3 eigenvectors and pairs
    from all 9, as a change of the plane start set moves verdicts on
    S^3-action quotients near their boundary, and only pairs floor their
    margin.
    """
    # per-row scalars as Python floats: the same IEEE arithmetic, cheaper
    target, lam0s, deltas = values.min(axis=1).tolist(), lam0.tolist(), delta.tolist()
    settle = [min(tol, _CERT_FLOOR * x) for x in deltas]
    mapped = {}

    def settled(r, bound, margin):
        return bound - margin >= -settle[r] or bound + margin < -settle[r]

    def best_point(r):
        if r not in mapped:
            mapped[r] = witness(r, int(values[r].argmin()))
        return mapped[r]

    def on_best(r, bound, margin, floor_rule=True):
        """Row r's entry from its best search point if that closes on
        bound - margin, else None."""
        if target[r] > bound + margin or (floor_rule and not settled(r, bound, margin)):
            return None
        found = best_point(r)
        if _closes(target[r], found[1], bound, margin):
            return (*found, True, bound - margin)
        return None

    out = [on_best(r, *bm, floor_rule=False) for r, bm in enumerate(zip(lam0s, deltas))]
    rows = np.array([r for r, entry in enumerate(out) if entry is None], dtype=int)
    if not len(rows):
        return out
    bound, margin, weights = _certify(c[rows], lam0[rows], delta[rows], values[rows],
                                      *certificate(rows))
    for r, *bm in zip(rows.tolist(), bound.tolist(), margin.tolist()):
        out[r] = on_best(r, *bm)
    keep = [out[r] is None for r in rows]
    if not any(keep):
        return out
    rest, bound, margin = rows[keep], bound[keep], margin[keep]
    forms, starts, stop, read, lowest = polish(rest)
    lifted = c[rest] + weights[keep]
    vecs = np.concatenate([np.linalg.eigh(op)[1][..., :lowest] for op in (lifted, c[rest])], axis=2)
    d = starts.shape[2]
    tops = np.linalg.svd((read @ vecs).transpose(0, 2, 1).reshape(len(rest), -1, d, d))[0][..., 0]
    reach = bound + margin
    rounds = _alternate(forms, np.concatenate([starts, tops], axis=1), _MAX_ROUNDS, stop, reach)
    vals, x1, x2 = _newton_pairs(forms, *rounds, _MAX_ROUNDS, stop, reach)
    for i, (r, b, m) in enumerate(zip(rest.tolist(), bound.tolist(), margin.tolist())):
        if vals[i] < target[r]:
            found, quotient = witness(r, (x1[i], x2[i])), vals[i]
        else:
            found, quotient = best_point(r), target[r]
        out[r] = (*found, settled(r, b, m) and _closes(quotient, found[1], b, m), b - m)
    return out


# ---------------------------------------------------------------------------
# plane search

def _basis_planes(basis: np.ndarray) -> np.ndarray:
    """The (2, d, d(d-1)/2) frames of the planes spanned by pairs of basis
    columns, in the order of the bivector coordinates."""
    i, j = wedge_pairs(basis.shape[1])
    return np.stack([basis[:, i], basis[:, j]])


def _sign_normalized(v: np.ndarray) -> np.ndarray:
    """v with its largest-magnitude entry made nonnegative."""
    k = int(np.argmax(np.abs(v)))
    return -v if v[k] < 0 else v


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
    cols = [_sign_normalized(v1), _sign_normalized(v2)]
    cols.sort(key=lambda v: tuple(v))
    return np.stack(cols, axis=1)


def _lower_bound(eigs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The smallest eigenvalue lambda_0 and the rounding margin delta =
    ``_BOUND_MARGIN`` times the spectral norm of each ascending spectrum in
    the (..., k) stack eigs of a curvature operator."""
    return eigs[..., 0], _BOUND_MARGIN * np.maximum(-eigs[..., 0], eigs[..., -1])


def _milnor_curvatures(k: float, lam: np.ndarray) -> np.ndarray:
    """The (T, 3) curvatures of the metric-eigenvector planes, in the order
    of ``wedge_pairs(3)``, for (T, 3) eigenvalues lam on an algebra with
    structure constants k epsilon (Milnor, *Curvatures of left invariant
    metrics on Lie groups*, Adv. Math. 1976): with mu_i = k sqrt(lambda_i /
    (lambda_j lambda_k)) and m_i = sum(mu)/2 - mu_i, the plane (v_i, v_j) has
    m_i m_k + m_j m_k - m_i m_j.  They are the eigenvalues of C."""
    mu = k * np.sqrt(lam / (np.roll(lam, -1, axis=1) * np.roll(lam, -2, axis=1)))
    m = 0.5 * mu.sum(axis=1, keepdims=True) - mu
    i, j = wedge_pairs(3)
    o = 3 - i - j
    return m[:, i] * m[:, o] + m[:, j] * m[:, o] - m[:, i] * m[:, j]


def _to_orthonormal(m: LeftInvariantMetric, frames: np.ndarray) -> np.ndarray:
    """The (2, d, n) frames z mapped to x = Lambda^1/2 V^T z, orthonormal there: (1, 2, d, n)."""
    return _gram_schmidt((np.sqrt(m.eigenvalues)[:, None] * m.eigenvectors.T @ frames)[None])


def _scored_basis(metrics, c: np.ndarray):
    """The quotients of the (T, k, k) operators c at each metric's basis
    planes, (T, 2n): the coordinate planes, scored in x as the polish
    scores them, then the metric-eigenvector planes, the coordinate planes of x (C's
    diagonal).  With them the (T, k, n) unit bivectors in x of the
    coordinate planes, and their (T, 2, d, n) orthonormal frames in x."""
    d = metrics[0].algebra.dim
    coords = np.concatenate([_to_orthonormal(m, _basis_planes(np.eye(d))) for m in metrics])
    values, w, ww = _quotient_values((c, _incidence(d)), coords)
    return np.concatenate([values, c.diagonal(axis1=1, axis2=2)], 1), w / np.sqrt(ww)[:, None], coords


def _plane_forms(c: np.ndarray, delta: np.ndarray, d: int) -> np.ndarray:
    """The (T, d*d, d*d) forms of ``_alternate`` for the planes of the (T, k,
    k) operators c on d coordinates, with margins delta: vec(x1 x1^T) F
    vec(x2 x2^T) is w.Cw
    at w = x1 ^ x2 for F the entries of B^T C B read over ((i, k), (j, l)),
    and s I, s = 4 ||C||_2, adds s (x1.x2)^2, so that each half-step's best
    unit x2 is orthogonal to the unit x1, and w is then a unit bivector."""
    inc = _incidence(d)
    form = (inc.T @ c @ inc).reshape(-1, d, d, d, d).transpose(0, 1, 3, 2, 4)
    s = 4.0 * delta / _BOUND_MARGIN
    return form.reshape(len(c), d * d, d * d) + s[:, None, None] * np.eye(d * d)


def _plane_reports(metrics, tol: float) -> list[CurvatureReport]:
    """``min_curvature`` of each metric (all on one algebra).

    On so(3) the least curved plane is the metric-eigenvector plane lowest
    on ``_milnor_curvatures``.  On so(4) each metric's row of ``_verdicts``
    runs on its ``curvature_operator()`` C, in its orthonormal coordinates
    x = Lambda^1/2 V^T z, with the Pluecker quadrics scaled to x by
    1/sqrt(lambda_i lambda_j) per bivector coordinate (i, j).  The search
    set is the coordinate and metric-eigenvector planes of
    ``_scored_basis``, and the further flat points are the
    ``_partner_planes`` inside phi's repeated eigenspaces, which eigh's
    basis misses.  The polish form is ``_plane_forms``, and its starts are
    the first columns of the 30 basis planes in x.  A polished plane is
    mapped back by z = V Lambda^-1/2 x, and every witness is canonicalized
    and re-evaluated in closed form.  A metric's route depends on that
    metric alone, so each report equals the one its metric gets alone,
    byte for byte.
    """
    d = metrics[0].algebra.dim

    def evaluated(m, frame):
        """The canonical plane of the (2, d) frame, as two rows, and m's
        curvature there."""
        w = _canonical_plane(frame.T)
        return w.T, float(normalized_curvature_many(m, w[None, :, 0], w[None, :, 1])[0])

    if d == 3:
        # phi's eigenvalues, and so the curvatures, carry eps kappa(phi) errors
        lam = np.stack([m.eigenvalues for m in metrics])
        curv = _milnor_curvatures(metrics[0].algebra.structure[0, 1, 2], lam)
        delta = np.abs(curv).max(axis=1) * (_BOUND_MARGIN + _EIGH_ERROR * lam[:, -1] / lam[:, 0])
        low = np.argmin(curv, axis=1)
        i, j = wedge_pairs(3)
        reports = []
        for k, (m, b) in enumerate(zip(metrics, low)):
            witness, final = evaluated(m, m.eigenvectors[:, [i[b], j[b]]].T)
            reports.append(_report(final, witness, tol, exact=True,
                                   lower_bound=float(curv[k, b] - delta[k])))
        return reports
    c = np.stack([m.curvature_operator() for m in metrics])
    lam0, delta = _lower_bound(np.linalg.eigvalsh(c))
    basis, coords, frames = _scored_basis(metrics, c)
    n = coords.shape[2]
    i, j = wedge_pairs(d)

    def certificate(rows):
        """The Pluecker quadrics scaled to x, by 1/sqrt(lambda_i lambda_j)
        per bivector coordinate (i, j); the basis planes' unit bivectors in
        x (the metric-eigenvector planes' are the unit vectors); the partner
        planes; no margin floor."""
        lam = np.stack([metrics[r].eigenvalues for r in rows])
        s = 1.0 / np.sqrt(lam[:, i] * lam[:, j])
        eye = np.broadcast_to(np.eye(n), (len(rows), n, n))
        return (s[:, None, :, None] * _plucker_forms(d) * s[:, None, None, :],
                np.concatenate([coords[rows], eye], axis=2),
                lambda k, top: _partner_planes(c[rows[k]], lam[k], top), np.zeros(len(rows)))

    def polish(rows):
        """The plane forms; the first columns of the basis planes in x; a
        round's stop, 1e-3 delta; the bivectors as antisymmetric matrices,
        from the 3 lowest eigenvectors."""
        first = np.broadcast_to(_basis_planes(np.eye(d))[0].T, (len(rows), n, d))
        return (_plane_forms(c[rows], delta[rows], d),
                np.concatenate([frames[rows, 0].transpose(0, 2, 1), first], axis=1),
                1e-3 * delta[rows], _incidence(d).T, 3)

    def witness(r, point):
        m = metrics[r]
        if isinstance(point, tuple):
            # mapped back by z = V Lambda^-1/2 x, orthonormal in z
            x = np.stack(point)[None, :, :, None]
            frame = _gram_schmidt((m.eigenvectors / np.sqrt(m.eigenvalues)) @ x)[0, :, :, 0]
        else:
            frame = _basis_planes(np.eye(d) if point < n else m.eigenvectors)[:, :, point % n]
        return evaluated(m, frame)

    entries = _verdicts(c, lam0, delta, basis, certificate, polish, tol, witness)
    return [_report(final, w, tol, exact=exact, lower_bound=lower)
            for w, final, exact, lower in entries]


def min_curvature(
    m: LeftInvariantMetric,
    tol: float = DEFAULT_TOL,
    *,
    seed=None,
) -> CurvatureReport:
    """The minimum plane-normalized curvature of a metric.

    On a 3-dimensional algebra Milnor's formula in phi's eigenvalues gives
    the least curved metric-eigenvector plane, and the report is ``exact``,
    with ``lower_bound`` the minimum less delta = max |K| (1e-12 + 4 eps
    kappa(phi)).  On so(4) a plane's curvature is the Rayleigh quotient of
    C = ``m.curvature_operator()`` at x1 ^ x2, in the coordinates x =
    Lambda^1/2 V^T z of m's eigenframe, and the verdict comes from the
    route of this module's docstring: the bound lambda_min(C) less a margin
    delta (1e-12 of C's spectral norm), the Pluecker certificate, which
    lifts it towards the lowest coordinate or metric-eigenvector plane, and
    the open polish, at most 200 rounds and 200 Newton steps (a guard
    against a polish creeping down a flat valley, not a setting).
    ``lower_bound`` is the last bound less its margin, and ``exact`` says
    that the witness attains it (min_value - lower_bound <= 2 delta).  The
    reported witness is the minimizing plane mapped back by z = V
    Lambda^-1/2 x and canonicalized, and ``min_value`` is the closed-form
    curvature re-evaluated on it, so a negative verdict is reproducible in
    isolation.  ``seed`` is accepted and ignored, only because verdictbench
    still passes it.
    """
    return _plane_reports([m], _check_tol(tol))[0]


# ---------------------------------------------------------------------------
# commuting-pair search

def _pair_form(g: LieAlgebra, psi: np.ndarray) -> np.ndarray:
    """The symmetric 9x9 matrix G with kappa'''(0) on ((a, 0), (0, b))
    equal to w.Gw for w = a (x) b, that is G[(i, k), (j, l)] = T_ijkl with
    kappa'''(0) = a_i a_j T_ijkl b_k b_l.

    kappa'''(0) (``kappa_third_deriv_many``) is a sum of dot products of
    brackets, each bilinear in x = a_i e_i and y = b_k f_k, e and f the two
    factors' bases.  With B_ik = [e_i, psi f_k], C_ik = [psi e_i, f_k], D_ik
    = [psi e_i, psi f_k], E_ij = [psi e_i, e_j] and F_kl = [psi f_k, f_l],
    its coefficients are

        T_ijkl = 6 ((B + C)_ik.D_jl + E_ij.psi F_kl - B_ik.psi (B + C)_jl
                    - C_ik.psi C_jl),

    symmetrized in (i, j) and in (k, l), which makes G exactly symmetric.
    B, C, E and F are blocks of the one table [psi u, v] over basis vectors
    u and v, and the three terms paired over ((i, k), (j, l)) are one
    product of two 9 x 18 matrices.
    """
    i1, i2 = (list(ix) for ix in g.factor_split)
    d = g.dim
    table = (psi @ g.structure.reshape(d, d * d)).reshape(d, d, d)  # [psi u, v]
    split = table[np.ix_(i1 + i2, i1 + i2)]  # its rows and columns e, then f
    b, c = -split[3:, :3].transpose(1, 0, 2), split[:3, 3:]
    bc = b + c
    # the terms paired over ((i, k), (j, l)) as one product, then E.psi F
    x = np.concatenate([bc, b, c], axis=2).reshape(9, 3 * d)
    y = np.concatenate([psi[i2] @ table[i1], -bc @ psi, -c @ psi], axis=2).reshape(9, 3 * d)
    e, f = split[:3, :3].reshape(9, d), (split[3:, 3:] @ psi).reshape(9, d)
    t = (x @ y.T).reshape(3, 3, 3, 3)
    t += (e @ f.T).reshape(3, 3, 3, 3).transpose(0, 2, 1, 3)
    t = t + t.transpose(2, 1, 0, 3)
    return (1.5 * (t + t.transpose(0, 3, 2, 1))).reshape(9, 9)


def _biquadratic(form: np.ndarray) -> np.ndarray:
    """The 9x9 M of ``_alternate`` for the ``_pair_form`` G: its entries
    T_ijkl read over (ij, kl), so that vec(a a^T) M vec(b b^T) = (a (x)
    b).G(a (x) b)."""
    return form.reshape(3, 3, 3, 3).transpose(0, 2, 1, 3).reshape(9, 9)


@functools.lru_cache(maxsize=None)
def _segre_forms() -> np.ndarray:
    """The (9, 9, 9) symmetric matrices of the Segre quadrics X_ik X_jl -
    X_il X_jk, one per i < j and k < l, in the coordinates w[3i + k] = X_ik
    of a 3x3 matrix X: the 2x2 minors of X, which vanish exactly where X =
    a b^T, that is on every w = a (x) b."""
    forms = np.zeros((9, 9, 9))
    minors = itertools.product(itertools.combinations(range(3), 2), repeat=2)
    for n, ((i, j), (k, l)) in enumerate(minors):
        for p, q, sign in ((3 * i + k, 3 * j + l, 0.5), (3 * i + l, 3 * j + k, -0.5)):
            forms[n, p, q] = forms[n, q, p] = sign
    forms.setflags(write=False)
    return forms


def infinitesimal_check(
    g: LieAlgebra,
    psi,
    tol: float = DEFAULT_TOL,
    *,
    seed=None,
) -> CurvatureReport:
    """Search for commuting pairs with negative kappa'''(0).

    The pairs ((a, 0), (0, b)) with unit a and b span every commuting
    plane, and kappa'''(0) on them is the biquadratic form (a (x) b).G(a (x)
    b) of the 9x9 ``_pair_form`` G, built in closed form.  Its one row of
    ``_verdicts`` runs on G with the Segre quadrics (the 2x2 minors of
    a b^T), which vanish on every a (x) b, so lambda_min(G + W) bounds every
    pair, less a margin delta = 1e-12 max(||G + W||_2, ||psi||_2^3).  The
    search set is three pairs, the top singular vectors of G's three lowest
    eigenvectors read as 3x3 matrices X, w[3i + k] = X_ik, each polished
    alone by at most 200 rounds of ``_alternate``; they give the Segre solve
    its points (one pair alone leaves W too free to close a symmetric
    form).  The open polish has no further starts.  ``lower_bound`` is the
    bound less its margin, and the report is ``exact`` when the witness's
    re-evaluated kappa''' meets it (min_value - lower_bound <= 2 delta).  A
    nonnegative biquadratic form need not be a sum of squares (Choi,
    *Positive semidefinite biquadratic forms*, Linear Algebra Appl. 1975),
    so a report can stay open.  kappa''' itself is evaluated only on
    witness pairs.  No random number is drawn.  ``seed`` is accepted and
    ignored, only because verdictbench still passes it.

    A negative minimum refutes infinitesimal nonnegativity of the variation;
    a nonnegative minimum is proven when the report is ``exact`` and is a
    bounded-search claim otherwise.  The report's witness is
    the orthonormal pair ((A, 0), (0, B)) spanning the worst plane, and
    ``small_t`` holds the twisted curvature at small times on that pair.
    An algebra without a factor decomposition (so(3)) has no independent
    commuting pairs and raises ValueError.
    """
    tol = _check_tol(tol)
    g._require_split()
    path = InverseLinearPath(g, psi)  # validates symmetry and shape
    psi = path.psi
    form = _pair_form(g, psi)
    # kappa''' is cubic in psi: G carries rounding at that scale (a torus G,
    # exactly 0, measures up to 2.3e-15 ||psi||^3), and a round that gains
    # less than rounding there ends a polish, even when G is rounding noise
    scale = np.linalg.norm(psi, 2) ** 3
    floor, stop = np.array([_BOUND_MARGIN * scale]), np.array([1e-15 * scale])
    eigs, vecs = np.linalg.eigh(form)
    lam0, delta = _lower_bound(eigs[None])
    delta = np.maximum(delta, floor)
    m = _biquadratic(form)
    starts = np.linalg.svd(vecs[:, :3].T.reshape(3, 3, 3))[0][..., 0]
    vals, a, b = _alternate(np.broadcast_to(m, (3, 9, 9)), starts[:, None], _MAX_ROUNDS,
                            np.repeat(stop, 3), np.repeat(lam0 + delta, 3))
    points = (a[:, :, None] * b[:, None, :]).reshape(-1, 9).T

    def witness(point):
        x, y = point if isinstance(point, tuple) else (a[point], b[point])
        av, bv = g.embed_factor(_sign_normalized(x), 1), g.embed_factor(_sign_normalized(y), 2)
        return (av, bv), float(kappa_third_deriv_many(g, psi, av[None], bv[None])[0])

    [((av, bv), final, exact, lower)] = _verdicts(
        form[None], lam0, delta, vals[None],
        lambda rows: (_segre_forms()[None], points[None], None, floor),
        lambda rows: (m[None], np.zeros((1, 0, 3)), stop, np.eye(9), 9), tol,
        lambda r, point: witness(point))
    small = np.array([1e-4, 1e-3, 1e-2, 5e-2])
    times = small[path.admissible_many(small) & (small < 0.5 * path.t_max)].tolist()
    small_t = tuple(zip(times, kappa_of_t_many(path, av, bv, times).tolist()))
    return _report(final, (av, bv), tol, exact=exact, lower_bound=lower, small_t=small_t)


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

    @classmethod
    def from_eigh(cls, w: np.ndarray, v: np.ndarray) -> EigenStructure:
        """The clusters of ``np.linalg.eigh``'s (w, v) of a symmetric map,
        for callers that validated and decomposed it themselves: each
        cluster's mean eigenvalue and a copy of its eigenvector columns."""
        bounds = [0, *_cluster_cuts(w).tolist(), len(w)]
        spans = list(zip(bounds[:-1], bounds[1:]))
        return cls(
            eigenvalues=np.array([w[i:j].sum() / (j - i) for i, j in spans]),
            eigenspaces=[v[:, i:j].copy() for i, j in spans],
        )


def _cluster_cuts(w: np.ndarray) -> np.ndarray:
    """Where a new cluster of equal eigenvalues starts in the ascending w:
    at each gap above 1e-8 of the largest absolute eigenvalue, so a zero
    map is one cluster."""
    scale = max(np.abs(w).max(), 1e-300)
    return np.nonzero(np.diff(w) > 1e-8 * scale)[0] + 1


def null_space(m: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal columns spanning the vectors x with |m x| <= tol: the
    right singular vectors of m whose singular values are at most tol.

    One column is a norm test: LAPACK's SVD of a single column has Vh =
    [[1]], so the null space is [[1]] when |m| <= tol and empty otherwise.
    """
    if m.shape[1] == 1:
        return np.ones((1, int(np.linalg.norm(m) <= tol)))
    _, s, vh = np.linalg.svd(m)
    return vh[np.count_nonzero(s > tol):].T


@functools.lru_cache(maxsize=None)
def _upper_pairs(k: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(k)``, built once per k: the index pairs a <= b of
    the polarized checks on E's basis pairs."""
    pairs = np.triu_indices(k)
    for ix in pairs:
        ix.setflags(write=False)
    return pairs


@dataclass(frozen=True)
class LemmaKReport:
    """Result of the exact smallest-eigenspace generation check."""

    max_residual: float
    passed: bool


def lemma_k_check(g: LieAlgebra, psi, *, seed=None) -> LemmaKReport:
    """Check exactly that [x, psi y] lies in the smallest eigenspace E of
    psi for every x in E and every y commuting with x.

    On so(4) the centralizer of x = (a, b) is z(a) + z(b), with z(a) =
    span(a) for a != 0 and the whole factor for a = 0 (on so(3), span(x)).
    So the property holds exactly when, with Pi the projection off E, for
    each factor projector P_i (P = I on so(3)) the quadratic map x -> Pi[x,
    psi P_i x] vanishes on E, checked by polarization on E's basis pairs,
    and for each factor i the bilinear map (x, c) -> Pi[x, psi c] vanishes
    on (E within factor i) x (the other factor), checked on their bases:
    E within factor i is the ``null_space`` of E's rows in the other factor.
    Both read one tensor Pi[e_a, psi f_j], e_a E's orthonormal basis and f_j
    the algebra's.  psi is validated once and decomposed once: E and the
    clustered spectrum come from one ``eigh`` of the validated psi
    (``EigenStructure.from_eigh``), and the basis pairs' index table is
    built once per dim E.  ``max_residual`` is the largest checked norm
    relative to psi's spectral radius; PASS means below 1e-8.
    Infinitesimally nonnegative variations pass with residual 0.  psi must
    be finite and symmetric (ValueError) of the algebra's shape
    (DimensionMismatch).  No random number is drawn.  ``seed`` is accepted
    and ignored, only because verdictbench still passes it.
    """
    psi = symmetric_matrix(psi, "psi", g.dim)
    spectrum = EigenStructure.from_eigh(*np.linalg.eigh(psi))
    e = spectrum.smallest
    t = np.einsum("ia,lj,ilm->ajm", e, psi, g.structure)
    t -= (t @ e) @ e.T
    factors = [list(ix) for ix in g.factor_split] if g.factor_split else [list(range(g.dim))]
    checked = []
    for own, other in zip(factors, factors[::-1]):
        m = np.einsum("jb,ajm->abm", e[own], t[:, own])
        checked.append(0.5 * (m + m.transpose(1, 0, 2))[_upper_pairs(e.shape[1])])
        if other is not own:
            # E within factor `own`: e[other]'s singular values are at most
            # 1, as e's columns are orthonormal, so 1e-10 is a relative cut
            inside = null_space(e[other], 1e-10).T
            checked.append(np.einsum("la,ajm->ljm", inside, t[:, other]).reshape(-1, g.dim))
    scale = max(np.abs(spectrum.eigenvalues).max(), 1e-300)
    worst = float(np.linalg.norm(np.concatenate(checked), axis=1).max() / scale)
    return LemmaKReport(max_residual=worst, passed=worst < 1e-8)


# ---------------------------------------------------------------------------
# path scans

def path_scan(
    g: LieAlgebra,
    psi,
    t_grid,
    tol: float = DEFAULT_TOL,
    *,
    seed=None,
) -> list[CurvatureReport]:
    """``min_curvature`` of the path metric at each grid time: the one-path
    case of ``path_scan_many``.

    Every grid time's metric is built by ``path.metric_at`` before any work
    starts, so the first time outside the path's window raises the path's
    HorizonExceeded, naming that time.  The times still open after the
    certificate are polished together as one stack.  Entry i equals
    ``min_curvature(path.metric_at(t_i))`` with ``t`` set, so the scan is
    reproducible entry by entry.  ``seed`` is accepted and ignored, only
    because verdictbench still passes it.
    """
    return path_scan_many(g, [psi], [t_grid], tol)[0]


def path_scan_many(
    g: LieAlgebra,
    psis,
    t_grids,
    tol: float = DEFAULT_TOL,
) -> list[list[CurvatureReport]]:
    """``path_scan`` of several paths on one algebra, in one batch.

    Entry k is ``path_scan(g, psis[k], t_grids[k], tol)``.
    Every path and every grid time's metric is built before any search
    starts, so the first refused time, path by path, raises HorizonExceeded
    naming it; then every time of every path goes through the bound, the
    certificate and the polish together.  Each time's rows depend on its
    own metric alone, so entries stay byte for byte those of
    ``min_curvature``.  ``psis`` and ``t_grids`` must have one entry per
    path, each grid a 1-d sequence of real numbers, checked before any path
    is built (ValueError); a NaN time raises the path's HorizonExceeded.
    """
    tol = _check_tol(tol)
    psis, t_grids = list(psis), [_grid_times(grid) for grid in t_grids]
    if len(psis) != len(t_grids):
        raise ValueError(f"one psi and t_grid per path, got {len(psis)} and {len(t_grids)}")
    paths = [InverseLinearPath(g, psi) for psi in psis]
    metrics = [path.metric_at(t) for path, grid in zip(paths, t_grids) for t in grid]
    reports = iter(_plane_reports(metrics, tol) if metrics else [])
    return [[replace(next(reports), t=t) for t in grid] for grid in t_grids]
