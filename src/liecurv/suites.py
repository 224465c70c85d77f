"""Named verification suites: each re-derives a set of published identities
or behaviors numerically and reports one residual row per check.

A row passes when its value is at or below its tolerance.  Suite names are
stable CLI tokens; descriptions say what is being checked.  Every suite
finishes in well under a minute on one core.

Suites draw exactly as a draw-by-draw loop would, then evaluate their draws
in batches: the draws of a check are stacked and go through one call of a
row kernel (``kappa_third_deriv_many``, ``k_second_deriv_many``,
``bracket_many``, ``normalized_curvature_many``,
``families.s3_action_path_residual_many``,
``families.invariant_abelian_residual_many``), not one scalar call per
draw.  Where every draw has its own psi (the finite-difference suites, the
normal-form identities), the closed-form kernel takes one psi per row, so a
suite's closed forms are one call.  The two finite-difference suites share
one draw function, ``_fd_draws``: the 60 psis are one (60, 6, 6) block of
the stream, their paths are built by ``InverseLinearPath.many``, and every
stencil time of every path is a row of one ``variation.stencil_curves``
call (the refined stencils at 0 of orders 1 to 3 share the times 0, +-h/2,
+-h and +-2h).  ``eq-yy`` draws its 200 rows as one (200, 6) block of
uniforms and checks them in one call; ``obs-3.1-planes`` draws 20 members
of each family in turn and checks all 60 in one call.  The six family paths
of ``obs-3.2-paths`` are scanned in one ``path_scan_many`` call.

The Eschenburg draws of ``example-2.3`` take their unit triples in chunks
and score them in one ``bracket_many`` call, and the normal forms of
``th1-identities`` are two blocks of the stream whose psis are one
``normal_form_psi_many`` scatter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import families
from .algebra import diagonal_subalgebra, factor_subalgebra, so4
from .metric import normalized_curvature_many
from .normalform import NormalFormParams, normal_form_psi_many
from .variation import (
    InverseLinearPath,
    k_second_deriv_many,
    kappa_third_deriv_many,
    default_step,
    refined_derivative,
    stencil_curves,
)
from .verify import infinitesimal_check, path_scan_many, row_norms, sample_commuting_pairs

__all__ = ["SuiteRow", "SuiteResult", "SUITES", "run_suite", "list_suites"]


@dataclass(frozen=True)
class SuiteRow:
    name: str
    value: float
    tol: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "tol", float(self.tol))

    @property
    def passed(self) -> bool:
        return self.value <= self.tol

    def to_dict(self) -> dict:
        return {"name": self.name, "value": self.value, "tol": self.tol, "pass": self.passed}


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    rows: tuple[SuiteRow, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def to_dict(self) -> dict:
        return {"suite": self.suite, "pass": self.passed, "rows": [r.to_dict() for r in self.rows]}


def _unit_spectral(rng, n: int, d: int = 6) -> np.ndarray:
    """n symmetric matrices of spectral radius 1, drawn as one (n, d, d)
    block of the stream: the same numbers as n draws of shape (d, d)."""
    m = rng.standard_normal((n, d, d))
    m = 0.5 * (m + m.transpose(0, 2, 1))
    return m / np.abs(np.linalg.eigvalsh(m)).max(axis=1)[:, None, None]


def _rel(err: float, ref: float, floor: float = 1e-3) -> float:
    return err / max(abs(ref), floor)


def _stack(pairs) -> tuple[np.ndarray, np.ndarray]:
    """The x and y vectors of commuting pairs as two (n, dim) stacks."""
    return np.stack([p.x for p in pairs]), np.stack([p.y for p in pairs])


# ---------------------------------------------------------------------------
# derivative-formula suites

def _fd_draws(seed: int, twisted: bool, orders, closed_form):
    """The draws of the finite-difference suites: for each of 60 seeded
    commuting pairs and the path of a unit-spectral psi, the path's default
    step h, the pair's curve on the path (kappa when twisted, else k) and
    ``closed_form`` (a closed-form row kernel) on the pair under its psi.

    The curves are read at the refined stencils' times for the given orders
    in one ``stencil_curves`` call, and the closed forms take one call with
    one psi per row.
    """
    g = so4()
    xs, ys = _stack(sample_commuting_pairs(g, 60, seed))
    paths = InverseLinearPath.many(g, _unit_spectral(np.random.default_rng(seed), 60))
    hs = [default_step(path) for path in paths]
    curves = stencil_curves(paths, xs, ys, hs, orders, twisted=twisted)
    closed = closed_form(g, np.array([path.psi for path in paths]), xs, ys)
    return zip(hs, curves, closed.tolist())


def _suite_k_derivatives(seed: int) -> list[SuiteRow]:
    worst_fd1 = worst_rel = 0.0
    min_k2 = np.inf
    for h, f, closed in _fd_draws(seed, False, (1, 2), k_second_deriv_many):
        worst_fd1 = max(worst_fd1, abs(refined_derivative(f, 0.0, 1, h)))
        fd2 = refined_derivative(f, 0.0, 2, h)
        worst_rel = max(worst_rel, _rel(abs(fd2 - closed), closed))
        min_k2 = min(min_k2, closed)
    return [
        SuiteRow("first-derivative-vanishes", worst_fd1, 1e-6),
        SuiteRow("second-derivative-closed-vs-fd", worst_rel, 1e-5),
        SuiteRow("second-derivative-nonnegative", max(0.0, -min_k2), 0.0),
    ]


def _suite_kappa_derivatives(seed: int) -> list[SuiteRow]:
    worst0 = worst1 = worst2 = worst_rel = 0.0
    for h, f, closed in _fd_draws(seed, True, (1, 2, 3), kappa_third_deriv_many):
        worst0 = max(worst0, abs(f(0.0)))
        worst1 = max(worst1, abs(refined_derivative(f, 0.0, 1, h)))
        worst2 = max(worst2, abs(refined_derivative(f, 0.0, 2, h)))
        fd3 = refined_derivative(f, 0.0, 3, h)
        worst_rel = max(worst_rel, _rel(abs(fd3 - closed), closed))
    return [
        SuiteRow("curve-vanishes-at-0", worst0, 1e-12),
        SuiteRow("first-derivative-vanishes", worst1, 1e-6),
        SuiteRow("second-derivative-vanishes", worst2, 1e-6),
        SuiteRow("third-derivative-closed-vs-fd", worst_rel, 1e-4),
    ]


# ---------------------------------------------------------------------------
# projection-variation suites

def _suite_shrink_subalgebra(seed: int) -> list[SuiteRow]:
    g = so4()
    xs, ys = _stack(sample_commuting_pairs(g, 100, seed))
    rows = []
    for name, sub in (("factor", factor_subalgebra(g, 1)), ("diagonal", diagonal_subalgebra(g))):
        proj = sub.projector
        lie = g.bracket_many(xs @ proj, ys @ proj)
        target = 6.0 * np.einsum("nk,nk->n", lie, lie)
        got = kappa_third_deriv_many(g, -proj, xs, ys)
        worst = float(np.max(np.abs(got - target) / np.maximum(np.abs(target), 1e-9)))
        rows.append(SuiteRow(f"third-derivative-identity-{name}", worst, 1e-8))
        rows.append(_eschenburg_row(g, sub, name, seed))
    return rows


def _eschenburg_draws(g, sub, seed: int):
    """200 factor pairs (x, y) with the subalgebra parts commuting on every
    other draw, as (200, dim) stacks, and whether each twisted plane is
    expected to be flat.

    The stream holds only unit triples.  A draw takes one, a, for x; after
    an even number of kept draws y's triple b is a again, which forces the
    subalgebra parts to commute, and otherwise the next triple.  Triples
    are drawn in chunks of as many as the missing draws take when none is
    rejected (a (k, 3) block is the same numbers as k draws of 3) and
    normalized as one stack by ``row_norms``.  One ``bracket_many`` scores
    every triple q as the start of either kind of draw, (q, q) and
    (q, q + 1); a plain walk then takes the draws in stream order.  A
    triple that a two-triple draw leaves at the end of a chunk starts the
    next chunk.
    """
    proj = sub.projector
    idx1, idx2 = (list(ix) for ix in g.factor_split)
    rng = np.random.default_rng(seed)
    xs, ys, flat = [], [], []
    triples = np.zeros((0, 3))
    while len(flat) < 200:
        need = sum(1 + k % 2 for k in range(len(flat), 200)) - len(triples)
        triples = np.concatenate([triples, rng.standard_normal((need, 3))])
        # each unit triple in factor 1 (x) and in factor 2 (y)
        x, y = np.zeros((2, len(triples), g.dim))
        x[:, idx1] = y[:, idx2] = triples / row_norms(triples)[:, None]
        px, py = (np.matmul(proj, v[:, :, None])[:, :, 0] for v in (x, y))
        lies = row_norms(g.bracket_many(np.concatenate([px, px[:-1]]),
                                        np.concatenate([py, py[1:]]))).tolist()
        scores = lies[:len(x)], lies[len(x):]  # (q, q) and (q, q + 1)
        q, kept_x, kept_y = 0, [], []
        while len(flat) < 200 and q + len(flat) % 2 < len(x):
            odd = len(flat) % 2
            b = q + odd
            lie = scores[odd][q]
            if not 1e-8 <= lie < 0.05:  # keep the nonzero class well separated
                kept_x.append(q)
                kept_y.append(b)
                flat.append(lie < 1e-8)
            q = b + 1
        xs.append(x[kept_x])
        ys.append(y[kept_y])
        triples = triples[q:]
    return np.concatenate(xs), np.concatenate(ys), np.array(flat)


def _eschenburg_row(g, sub, name: str, seed: int) -> SuiteRow:
    """Zero-curvature classification of twisted planes at t in {0.25, 0.5}.

    A twisted commuting plane is flat exactly when the subalgebra parts of
    the pair also commute; the row counts misclassifications against that
    rule over 200 sampled pairs, split between the two cases.
    """
    psi = -sub.projector
    path = InverseLinearPath(g, psi)
    xs, ys, flat = _eschenburg_draws(g, sub, seed)
    mis = 0
    for t in (0.25, 0.5):
        m = np.eye(6) - t * psi
        val = normalized_curvature_many(path.metric_at(t), xs @ m, ys @ m)
        mis += int(np.count_nonzero((val < 1e-10) != flat))
    return SuiteRow(f"flat-plane-classification-{name}", float(mis), 0.0)


def _suite_enlarge_subalgebra(seed: int) -> list[SuiteRow]:
    g = so4()
    sub = diagonal_subalgebra(g)
    psi = sub.projector
    report = infinitesimal_check(g, psi)
    # the worst commuting pair has orthogonal unit factor parts, giving
    # |[x^h, y^h]|^2 = 1/8 and a third derivative of -6/8
    target = -0.75
    rows = [
        SuiteRow(
            "min-third-derivative-vs-closed-form",
            abs(report.min_value - target) / abs(target),
            1e-6,
        )
    ]
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([0.0, 1.0, 0.0])
    abelian = np.outer(g.embed_factor(a, 1), g.embed_factor(a, 1)) + np.outer(
        g.embed_factor(b, 2), g.embed_factor(b, 2)
    )
    xs, ys = _stack(sample_commuting_pairs(g, 100, seed))
    worst = float(np.max(np.abs(kappa_third_deriv_many(g, abelian, xs, ys))))
    rows.append(SuiteRow("abelian-subalgebra-flat", worst, 1e-9))
    return rows


# ---------------------------------------------------------------------------
# family suites

def _s3_action_horizon(alpha, beta):
    """Time cap for an s3-action path, elementwise: 1 - alpha t and
    1 - beta t stay positive below it, and it is at most 2.

    Below 1 / max(alpha, beta) both stay positive, and a largest rate of
    at most 1/2 gives the cap 2.  For positive rates 1 / max is bitwise the
    smaller of the two reciprocals."""
    return 1.0 / np.maximum(np.maximum(alpha, beta), 0.5)


def _suite_family_consistency(seed: int) -> list[SuiteRow]:
    # a draw is alpha, beta, the three lam and t's fraction of the horizon:
    # one (200, 6) block of the stream, each column mapped as uniform(low,
    # high) maps its draw, so bitwise the draw-by-draw uniform calls
    low = np.array([-1.5, -1.5, 0.3, 0.3, 0.3, 0.05])
    high = np.array([0.9, 0.9, 3.0, 3.0, 3.0, 0.95])
    u = low + (high - low) * np.random.default_rng(seed).random((200, 6))
    alpha, beta, lam, frac = u[:, 0], u[:, 1], u[:, 2:5], u[:, 5]
    residuals = families.s3_action_path_residual_many(
        alpha, beta, lam, frac * _s3_action_horizon(alpha, beta)
    )
    return [SuiteRow("path-equals-family-member", residuals.max(), 1e-10)]


def berger_triple(rng) -> np.ndarray:
    """Eigenvalues of a nonnegatively curved 3-dim metric: a Berger triple
    (two equal entries, third at most 4/3 of them), scaled and permuted."""
    ratio = rng.uniform(0.2, 4.0 / 3.0)
    scale = rng.uniform(0.5, 2.0)
    vals = scale * np.array([ratio, 1.0, 1.0])
    return vals[rng.permutation(3)]


def _rotation3(rng) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    return q


def random_product_params(rng) -> families.ProductParams:
    blocks = []
    for _ in range(2):
        eigs = families.s3_quotient_eigenvalues(rng.uniform(0.5, 2.0), berger_triple(rng))
        q = _rotation3(rng)
        blocks.append(q @ np.diag(eigs) @ q.T)
    return families.ProductParams(phi1=blocks[0], phi2=blocks[1])


def random_torus_params(rng) -> families.TorusParams:
    c, d = rng.uniform(0.5, 2.0, size=2)
    top = (4.0 / 3.0) * min(c, d)
    eigs = rng.uniform(0.2, 0.98, size=2) * top
    theta = rng.uniform(0.0, np.pi)
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    tau = rot @ np.diag(eigs) @ rot.T
    return families.TorusParams(c=c, d=d, tau_block=tau)


def random_s3_action_params(rng) -> families.S3ActionParams:
    return families.S3ActionParams(
        a=rng.uniform(0.5, 2.0), b=rng.uniform(0.5, 2.0), lam=berger_triple(rng)
    )


def family_scan_cases(rng, kind: str):
    """(psi, t_cap) pairs whose inverse-linear paths stay in the family.

    Product and torus paths target the drawn family metric at t=1; the
    quotient family uses its own variation derivative, valid while both
    1 - alpha t and 1 - beta t stay positive.
    """
    if kind == "product":
        h = families.product_phi(random_product_params(rng))
        return np.eye(6) - np.linalg.inv(h), 1.0
    if kind == "torus":
        h = families.torus_phi(random_torus_params(rng))
        return np.eye(6) - np.linalg.inv(h), 1.0
    if kind == "s3-action":
        alpha, beta = rng.uniform(-1.0, 0.9, size=2)
        lam = berger_triple(rng)
        return families.s3_action_psi(alpha, beta, lam), 0.9 * _s3_action_horizon(alpha, beta)
    raise ValueError(f"unknown family kind: {kind}")


def _suite_invariant_planes(seed: int) -> list[SuiteRow]:
    g = so4()
    rng = np.random.default_rng(seed)
    cases = (
        ("product", random_product_params, families.product_phi,
         families.product_invariant_planes),
        ("torus", random_torus_params, families.torus_phi,
         lambda p: families.torus_invariant_planes()),
        ("quotient", random_s3_action_params, families.s3_action_phi,
         lambda p: families.s3_action_invariant_planes()),
    )
    # 20 draws of each family in turn, then every draw's residual in one call
    draws = [(phi, planes, draw(rng)) for _, draw, phi, planes in cases for _ in range(20)]
    residuals = families.invariant_abelian_residual_many(
        g,
        np.array([phi(p) for phi, _, p in draws]),
        np.array([planes(p) for _, planes, p in draws]),
    )
    return [
        SuiteRow(f"{name}-planes", worst, 1e-12)
        for (name, *_), worst in zip(cases, residuals.reshape(len(cases), 20).max(axis=1))
    ]


def _suite_family_paths(seed: int) -> list[SuiteRow]:
    g = so4()
    rng = np.random.default_rng(seed)
    kinds = ("product", "torus", "s3-action")
    cases = [family_scan_cases(rng, kind) for kind in kinds for _ in range(2)]
    # the two draws of each kind, all scanned in one call
    scans = path_scan_many(
        g,
        [psi for psi, _ in cases],
        [np.array([0.25, 0.5, 0.75]) * cap for _, cap in cases],
    )
    rows = []
    for k, kind in enumerate(kinds):
        reports = scans[2 * k] + scans[2 * k + 1]
        lowest = min(rep.min_value for rep in reports)
        negatives = sum(rep.negative for rep in reports)
        rows.append(SuiteRow(f"{kind}-negatives", float(negatives), 0.0))
        rows.append(SuiteRow(f"{kind}-min-curvature", max(0.0, -lowest), 1e-9))
    return rows


# ---------------------------------------------------------------------------
# normal-form identity suite

_IDENTITY_CASES = [
    # name, x coefficients, y coefficients, closed form in the parameters
    ("mixed-pair-plus", (0, 1, 1), (1, 0, 0),
     lambda p: p.c3**2 * (p.a2 - p.b2) + 4 * p.a3**2 * p.lam),
    ("mixed-pair-minus", (0, -1, 1), (1, 0, 0),
     lambda p: p.c3**2 * (p.a2 - p.b2) - 4 * p.a3**2 * p.lam),
    ("swapped-pair-plus", (1, 0, 0), (0, 1, 1),
     lambda p: p.c3**2 * (p.a1 - p.b1) + 4 * p.a3**2 * p.mu),
    ("swapped-pair-minus", (1, 0, 0), (0, -1, 1),
     lambda p: p.c3**2 * (p.a1 - p.b1) - 4 * p.a3**2 * p.mu),
    ("single-pair-1", (0, 1, 0), (1, 0, 0),
     lambda p: p.a3**2 * (p.b1 - p.c1)),
    ("single-pair-2", (0, 0, 1), (1, 0, 0),
     lambda p: p.a3**2 * (p.c1 - p.b1) + p.c3**2 * (p.a2 - p.b2)),
    ("single-pair-3", (1, 0, 0), (0, 1, 0),
     lambda p: p.a3**2 * (p.b2 - p.c2)),
    ("single-pair-4", (1, 0, 0), (0, 0, 1),
     lambda p: p.c3**2 * (p.a1 - p.b1) + p.a3**2 * (p.c2 - p.b2)),
]

_SUM_CASES = [
    ("pair-sum-1", ((0, 0, 1), (0, 1, 0)), ((0, 0, 1), (0, 0, 1)),
     lambda p: p.c3**2 * (p.b2 - p.a2)),
    ("pair-sum-2", ((1, 0, 0), (0, 1, 0)), ((1, 0, 0), (0, 0, 1)),
     lambda p: p.c3**2 * (p.a1 - p.b1)),
]

_ELIMINATION_CASES = [
    ("elimination-1", (1, 1, 1), lambda p: p.a3 * p.c3 * (p.a3 + p.c3)),
    ("elimination-2", (-1, 1, 1), lambda p: p.a3 * p.c3 * (p.c3 - p.a3)),
    ("elimination-3", (1, -1, 1), lambda p: -p.a3 * p.c3 * (p.a3 + p.c3)),
    ("elimination-4", (1, 1, -1), lambda p: p.a3 * p.c3 * (p.a3 - p.c3)),
]


def _normal_form_draws(rng) -> np.ndarray:
    """The fields of 100 random normal forms, then of 100 with equal a, b
    and c entries in each factor and no lam or mu coupling, as (200, 11)
    rows in ``NormalFormParams`` field order; b3 is 0 throughout.  The two
    blocks are drawn as (100, 10) and (100, 4): the same numbers as a draw
    of 10 or of 4 per normal form."""
    values = np.zeros((200, 11))
    values[:100, [0, 1, 2, 3, 4, 6, 7, 8, 9, 10]] = rng.uniform(-1.0, 1.0, size=(100, 10))
    p, q, a3, c3 = rng.uniform(-1.0, 1.0, size=(100, 4)).T
    values[100:, [0, 3, 6]] = p[:, None]
    values[100:, [1, 4, 7]] = q[:, None]
    values[100:, 2], values[100:, 8] = a3, c3
    return values


def _normal_form_tables(g, blocks) -> list[np.ndarray]:
    """For each block (values, coeffs), kappa'''(0) of the normal form of
    each row of values, (n, 11) fields in ``NormalFormParams`` order
    (rows), on each factor pair of coefficients (columns).

    The psis of all blocks are one ``normal_form_psi_many`` scatter, each
    repeated once per column of its block into the input of a single
    ``kappa_third_deriv_many`` call with one psi per row, so entry (i, j)
    of a block is bitwise ``normal_form_kappa3(g, NormalFormParams(
    *values[i]), *coeffs[j])``."""
    sizes = [(len(values), len(coeffs)) for values, coeffs in blocks]
    coeffs = [pair for _, block in blocks for pair in block]
    xs = np.array([g.embed_factor(np.asarray(xc, dtype=float), 1) for xc, _ in coeffs])
    ys = np.array([g.embed_factor(np.asarray(yc, dtype=float), 2) for _, yc in coeffs])
    # row after row of each block, every entry's psi and coefficient pair
    psis = np.repeat(normal_form_psi_many(np.concatenate([values for values, _ in blocks])),
                     [m for n, m in sizes for _ in range(n)], axis=0)
    firsts = np.cumsum([0] + [m for _, m in sizes])
    pairs = np.concatenate([np.tile(np.arange(f, f + m), n) for (n, m), f in zip(sizes, firsts)])
    entries = kappa_third_deriv_many(g, psis, xs[pairs], ys[pairs])
    ends = np.cumsum([n * m for n, m in sizes])
    return [v.reshape(size) for v, size in zip(np.split(entries, ends[:-1]), sizes)]


def _worst_fit(params, lhs, const: float, closed) -> float:
    worst = 0.0
    for p, value in zip(params, lhs):
        worst = max(worst, abs(value - const * closed(p)) / max(1.0, abs(value)))
    return worst


def bracket_identity_rows(seed: int) -> list[SuiteRow]:
    """Check the commuting-pair third-derivative identities of the normal form
    on 100 draws.

    A single positive proportionality constant is fitted once from the first
    identity and then asserted across every identity and draw; the fit
    accounts for the constant that relates the raw third derivative to the
    tabulated closed forms.
    """
    g = so4()
    values = _normal_form_draws(np.random.default_rng(seed))
    # columns: each identity case, then the two terms of each sum case
    n_id = len(_IDENTITY_CASES)
    table, elimination = _normal_form_tables(g, [
        (
            values[:100],
            [(xc, yc) for _, xc, yc, _ in _IDENTITY_CASES]
            + [term for _, *terms, _ in _SUM_CASES for term in terms],
        ),
        (values[100:], [((1, 1, 1), signs) for _, signs, _ in _ELIMINATION_CASES]),
    ])
    # the closed forms, the fit and _worst_fit run on Python floats: an
    # array's x**2 is x*x, which is not always the scalar x**2 (libm pow)
    params = [NormalFormParams(*row) for row in values[:100].tolist()]
    stratum = [NormalFormParams(*row) for row in values[100:].tolist()]

    num = den = 0.0
    closed0 = _IDENTITY_CASES[0][3]
    for p, lhs in zip(params, table[:, 0].tolist()):
        rhs = closed0(p)
        num += lhs * rhs
        den += rhs * rhs
    const = num / den

    rows = [SuiteRow("constant-positive", max(0.0, -const), 0.0)]
    for k, (name, _, _, closed) in enumerate(_IDENTITY_CASES):
        rows.append(SuiteRow(name, _worst_fit(params, table[:, k].tolist(), const, closed), 1e-10))
    for k, (name, _, _, closed) in enumerate(_SUM_CASES):
        lhs = (table[:, n_id + 2 * k] + table[:, n_id + 2 * k + 1]).tolist()
        rows.append(SuiteRow(name, _worst_fit(params, lhs, const, closed), 1e-10))
    for k, (name, _, closed) in enumerate(_ELIMINATION_CASES):
        rows.append(SuiteRow(name, _worst_fit(stratum, elimination[:, k].tolist(), const, closed),
                             1e-10))
    return rows


# ---------------------------------------------------------------------------
# registry

SUITES: dict[str, tuple[str, callable]] = {
    "lemma-2.1-fd": (
        "fixed-plane curvature derivatives: k'(0)=0 and the closed form for k''(0)",
        _suite_k_derivatives,
    ),
    "lemma-2.2-fd": (
        "twisted-plane curvature derivatives up to the third-order closed form",
        _suite_kappa_derivatives,
    ),
    "example-2.3": (
        "shrinking a subalgebra: third-derivative identity and flat-plane classification",
        _suite_shrink_subalgebra,
    ),
    "example-2.4": (
        "enlarging a subalgebra: negative third derivative, flat for abelian subalgebras",
        _suite_enlarge_subalgebra,
    ),
    "eq-yy": (
        "inverse-linear path equals a family member at every admissible time",
        _suite_family_consistency,
    ),
    "th1-identities": (
        "normal-form third-derivative identities with one fitted constant",
        bracket_identity_rows,
    ),
    "obs-3.1-planes": (
        "each family metric preserves three orthogonal abelian planes",
        _suite_invariant_planes,
    ),
    "obs-3.2-paths": (
        "family paths scan nonnegative at sampled times",
        _suite_family_paths,
    ),
}


def list_suites() -> list[dict]:
    return [{"suite": name, "description": desc} for name, (desc, _) in SUITES.items()]


def run_suite(name: str, seed: int = 0) -> SuiteResult:
    if name not in SUITES:
        raise ValueError(f"unknown suite: {name}")
    _, fn = SUITES[name]
    return SuiteResult(suite=name, rows=tuple(fn(seed)))
