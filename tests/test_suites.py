"""The batched evaluation paths of the reproduce suites against the scalar
calls they replace, on the suites' own draws; ``stencil_curves``, which
reads every stencil time of every finite-difference curve in one stacked
call; and the draw-by-draw loops the suites replaced, kept as references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liecurv import (
    DegeneratePlane,
    InverseLinearPath,
    NormalFormParams,
    diagonal_subalgebra,
    factor_subalgebra,
    families,
    invariant_abelian_residual_many,
    k_of_t,
    k_of_t_many,
    k_second_deriv,
    kappa_of_t,
    kappa_of_t_many,
    kappa_third_deriv,
    normal_form_kappa3,
    normal_form_psi,
    normalized_curvature,
    s3_action_path_residual_many,
    sample_commuting_pairs,
    so4,
    variation,
)
from liecurv import suites, verify
from liecurv.metric import normalized_curvature_many
from liecurv.variation import (
    default_step,
    kappa_third_deriv_many,
    refined_derivative,
    stencil_curves,
)

from conftest import random_symmetric


def _close(batched, scalar, rel=1e-14):
    """Equal to rel times the largest scalar value; every input here is of
    unit size, so values near zero are compared on that scale."""
    scalar = np.asarray(scalar)
    assert np.abs(batched - scalar).max() <= rel * max(np.abs(scalar).max(), 1.0)


def _count_rows(monkeypatch):
    """Wrap variation.puttmann_curvature_many so each call records its
    (paths, k) array of row times."""
    calls = []
    inner = variation.puttmann_curvature_many

    def counting(rows, z1s, z2s):
        calls.append(rows.times.copy())
        return inner(rows, z1s, z2s)

    monkeypatch.setattr(variation, "puttmann_curvature_many", counting)
    return calls


@pytest.mark.parametrize(
    "suite, curve, times", [("lemma-2.1-fd", "k_of_t", 5), ("lemma-2.2-fd", "kappa_of_t", 7)]
)
def test_fd_curve_evaluated_once_per_stencil_time(monkeypatch, suite, curve, times):
    # the 60 paths' stencils are the rows of one curvature call, path after
    # path, each path holding each of its stencil times once
    calls = _count_rows(monkeypatch)
    kinds = []
    inner = suites.stencil_curves

    def recording(*args, twisted):
        kinds.append("kappa_of_t" if twisted else "k_of_t")
        return inner(*args, twisted=twisted)

    monkeypatch.setattr(suites, "stencil_curves", recording)
    assert suites.run_suite(suite, seed=7).passed
    assert kinds == [curve] and len(calls) == 1
    assert calls[0].shape == (60, times)
    for path_times in calls[0]:
        assert len(set(path_times.tolist())) == times


@pytest.mark.parametrize("curve", [k_of_t, kappa_of_t])
def test_fd_curve_refined_derivatives_bitwise_equal(g4, curve):
    rng = np.random.default_rng(21)
    pairs = sample_commuting_pairs(g4, 5, seed=21)
    paths = [InverseLinearPath(g4, random_symmetric(rng, 6)) for _ in pairs]
    hs = [default_step(path) for path in paths]
    xs, ys = suites._stack(pairs)
    stacked = stencil_curves(paths, xs, ys, hs, (1, 2, 3), twisted=curve is kappa_of_t)
    for path, pair, h, f in zip(paths, pairs, hs, stacked):
        for order in (1, 2, 3):
            plain = refined_derivative(lambda t: curve(path, pair.x, pair.y, t), 0.0, order, h)
            assert refined_derivative(f, 0.0, order, h) == plain


def test_derivative_report_evaluates_each_stencil_time_once(g4, monkeypatch):
    # the refined second-order stencil reads 5 distinct times, the
    # third-order one 6, all in one stacked call, and the estimates are
    # bitwise the plain ones
    psi = random_symmetric(np.random.default_rng(4), 6)
    pair = sample_commuting_pairs(g4, 1, seed=4)[0]
    path = InverseLinearPath(g4, psi)
    h = default_step(path)
    for curve, order, times in ((k_of_t, 2, 5), (kappa_of_t, 3, 6)):
        calls = _count_rows(monkeypatch)
        (f,) = stencil_curves(
            [path], [pair.x], [pair.y], [h], (order,), twisted=curve is kappa_of_t
        )
        estimate = refined_derivative(f, 0.0, order, h)
        assert len(calls) == 1 and calls[0].shape == (1, times)
        assert len(set(calls[0][0].tolist())) == times
        plain = refined_derivative(lambda t: curve(path, pair.x, pair.y, t), 0.0, order, h)
        assert estimate == plain
        with pytest.raises(KeyError):
            f(3.0 * h)
        monkeypatch.undo()


def test_subalgebra_rows_match_per_pair_calls(g4):
    pairs = sample_commuting_pairs(g4, 100, seed=7)
    xs, ys = suites._stack(pairs)
    a = g4.embed_factor(np.array([1.0, 0.0, 0.0]), 1)
    b = g4.embed_factor(np.array([0.0, 1.0, 0.0]), 2)
    abelian = np.outer(a, a) + np.outer(b, b)
    for sub in (factor_subalgebra(g4, 1), diagonal_subalgebra(g4)):
        proj = sub.projector
        for psi in (-proj, abelian):
            _close(
                kappa_third_deriv_many(g4, psi, xs, ys),
                [kappa_third_deriv(g4, psi, p.x, p.y) for p in pairs],
            )
        lie = g4.bracket_many(xs @ proj, ys @ proj)
        scalar = [g4.bracket(proj @ p.x, proj @ p.y) for p in pairs]
        _close(np.einsum("nk,nk->n", lie, lie), [v @ v for v in scalar])


@pytest.mark.parametrize("seed", [0, 7])
def test_eschenburg_rows_match_per_pair_calls(g4, seed):
    for sub in (factor_subalgebra(g4, 1), diagonal_subalgebra(g4)):
        psi = -sub.projector
        path = InverseLinearPath(g4, psi)
        xs, ys, flat = suites._eschenburg_draws(g4, sub, seed)
        assert len(flat) == 200 and flat[::2].all()
        for t in (0.25, 0.5):
            m = np.eye(6) - t * psi
            metric = path.metric_at(t)
            scalar = [normalized_curvature(metric, m @ x, m @ y) for x, y in zip(xs, ys)]
            batched = normalized_curvature_many(metric, xs @ m, ys @ m)
            _close(batched, scalar)
            assert np.array_equal(batched < 1e-10, flat)


def test_degenerate_row_raises_through_batched_path(g4):
    metric = InverseLinearPath(g4, -diagonal_subalgebra(g4).projector).metric_at(0.5)
    xs, ys = suites._stack(sample_commuting_pairs(g4, 3, seed=1))
    ys[1] = 2.0 * xs[1]
    with pytest.raises(DegeneratePlane):
        normalized_curvature(metric, xs[1], ys[1])
    with pytest.raises(DegeneratePlane):
        normalized_curvature_many(metric, xs, ys)


def test_normal_form_table_matches_per_pair_calls(g4):
    values = suites._normal_form_draws(np.random.default_rng(5))
    values = np.concatenate([values[:10], values[100:110]])
    coeffs = [(xc, yc) for _, xc, yc, _ in suites._IDENTITY_CASES]
    coeffs += [term for _, *terms, _ in suites._SUM_CASES for term in terms]
    coeffs += [((1, 1, 1), signs) for _, signs, _ in suites._ELIMINATION_CASES]
    # one block, and the same entries split over two blocks of one call
    (table,) = suites._normal_form_tables(g4, [(values, coeffs)])
    head, tail = suites._normal_form_tables(g4, [(values[:7], coeffs[:5]), (values[7:], coeffs)])
    assert table.shape == (20, 16) and head.shape == (7, 5) and tail.shape == (13, 16)
    assert np.array_equal(head, table[:7, :5]) and np.array_equal(tail, table[7:])
    for i, row in enumerate(values):
        p = NormalFormParams(*row)
        assert table[i].tolist() == [normal_form_kappa3(g4, p, xc, yc) for xc, yc in coeffs]


def _draw_by_draw_eschenburg(g, sub, seed):
    """The draw loop that ``suites._eschenburg_draws`` runs on validated
    stacks, on the scalar ``bracket`` and ``embed_factor`` path, kept as its
    reference."""
    proj = sub.projector
    rng = np.random.default_rng(seed)
    xs, ys, flat = [], [], []
    rejected = 0
    while len(flat) < 200:
        a = rng.standard_normal(3)
        a /= np.linalg.norm(a)
        if len(flat) % 2 == 0:
            b = a.copy()
        else:
            b = rng.standard_normal(3)
            b /= np.linalg.norm(b)
        x = g.embed_factor(a, 1)
        y = g.embed_factor(b, 2)
        lie = np.linalg.norm(g.bracket(proj @ x, proj @ y))
        if lie >= 1e-8 and lie < 0.05:
            rejected += 1
            continue
        xs.append(x)
        ys.append(y)
        flat.append(lie < 1e-8)
    return np.stack(xs), np.stack(ys), np.array(flat), rejected


@pytest.mark.parametrize("seed", range(100))
def test_eschenburg_draws_are_the_draw_by_draw_loop(g4, seed):
    for sub in (factor_subalgebra(g4, 1), diagonal_subalgebra(g4)):
        got = suites._eschenburg_draws(g4, sub, seed)
        for a, b in zip(got, _draw_by_draw_eschenburg(g4, sub, seed)):
            assert np.array_equal(a, b)


def test_some_tested_eschenburg_seed_draws_a_second_chunk(g4):
    # the first chunk holds the triples of 200 draws with no rejection, so
    # a seed whose loop rejects a draw takes the refill path
    sub = diagonal_subalgebra(g4)
    assert any(_draw_by_draw_eschenburg(g4, sub, seed)[3] for seed in range(100))


@pytest.mark.parametrize("suite, kernel", [
    ("lemma-2.1-fd", "k_second_deriv_many"),
    ("lemma-2.2-fd", "kappa_third_deriv_many"),
    ("th1-identities", "kappa_third_deriv_many"),
    ("obs-3.2-paths", "path_scan_many"),
    ("eq-yy", "families.s3_action_path_residual_many"),
    ("obs-3.1-planes", "families.invariant_abelian_residual_many"),
])
def test_suite_takes_its_closed_forms_or_scans_in_one_call(monkeypatch, suite, kernel):
    calls = []
    *owner, name = kernel.split(".")
    owner = getattr(suites, owner[0]) if owner else suites
    inner = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    assert suites.run_suite(suite, seed=3).passed
    assert len(calls) == 1


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_no_suite_takes_the_barrier_bound(monkeypatch, seed):
    """Every verdict of every suite closes at W = 0, on a certificate solve
    or in the polish: none takes the log-barrier bound.  example-2.4's
    unrotated diagonal projector, whose three pairs leave the Segre
    weights free, closes on the second solve with its kernel point."""
    def refused(*args):
        raise AssertionError("_barrier")

    monkeypatch.setattr(verify, "_barrier", refused)
    for name in suites.SUITES:
        assert suites.run_suite(name, seed=seed).passed, name


# ---------------------------------------------------------------------------
# the draw-by-draw loops the batched suites replaced, kept as references

def _draw_by_draw_fd(seed, curve_many, closed_form, orders):
    """The finite-difference suites' per-draw loop: for each of 60 pairs, a
    path built alone from one (6, 6) draw, the pair's curve read at the
    stencil times 0, +-h/2, +-h and +-2h in one call on that path alone,
    the curve at 0, its refined derivatives at the given orders and the
    scalar closed form."""
    g = so4()
    rng = np.random.default_rng(seed)
    out = []
    for pair in sample_commuting_pairs(g, 60, seed):
        m = rng.standard_normal((6, 6))
        m = 0.5 * (m + m.T)
        path = InverseLinearPath(g, m / np.abs(np.linalg.eigvalsh(m)).max())
        h = default_step(path)
        times = [0.0 + offset * step for step in (h, h / 2.0) for offset in (-2, -1, 0, 1, 2)]
        f = dict(zip(times, curve_many(path, pair.x, pair.y, times).tolist())).__getitem__
        derivatives = [refined_derivative(f, 0.0, k, h) for k in orders]
        out.append((f(0.0), derivatives, closed_form(g, path.psi, pair.x, pair.y)))
    return out


def _draw_by_draw_k(seed):
    worst_fd1 = worst_rel = 0.0
    min_k2 = np.inf
    for _, (fd1, fd2), closed in _draw_by_draw_fd(seed, k_of_t_many, k_second_deriv, (1, 2)):
        worst_fd1 = max(worst_fd1, abs(fd1))
        worst_rel = max(worst_rel, suites._rel(abs(fd2 - closed), closed))
        min_k2 = min(min_k2, closed)
    return [worst_fd1, worst_rel, max(0.0, -min_k2)]


def _draw_by_draw_kappa(seed):
    worst = [0.0] * 4
    draws = _draw_by_draw_fd(seed, kappa_of_t_many, kappa_third_deriv, (1, 2, 3))
    for f0, (fd1, fd2, fd3), closed in draws:
        values = (abs(f0), abs(fd1), abs(fd2), suites._rel(abs(fd3 - closed), closed))
        worst = [max(w, v) for w, v in zip(worst, values)]
    return worst


def _loop_path_residual(alpha, beta, lam, t):
    """inv(I - t psi) against the family block formula at the barred
    parameters, entry by entry."""
    psi = np.zeros((6, 6))
    for i in range(3):
        s = 1.0 / (2.0 * lam[i])
        psi[i, i] = alpha - s
        psi[i + 3, i + 3] = beta - s
        psi[i, i + 3] = psi[i + 3, i] = -s
    u, v = 1.0 - alpha * t, 1.0 - beta * t
    a, b = 1.0 / u, 1.0 / v
    lam_bar = 2.0 * lam * u * v / (u + v)
    rhs = np.zeros((6, 6))
    for i, ti in enumerate(lam_bar / (t + lam_bar)):
        rhs[i, i] = a * (b + a * ti) / (a + b)
        rhs[i + 3, i + 3] = b * (a + b * ti) / (a + b)
        rhs[i, i + 3] = rhs[i + 3, i] = a * b * (ti - 1.0) / (a + b)
    return np.abs(np.linalg.inv(np.eye(6) - t * psi) - rhs).max()


def _loop_horizon(alpha, beta):
    """The s3-action time cap of one draw, rate by rate."""
    return min(
        1.0 / alpha if alpha > 0 else np.inf,
        1.0 / beta if beta > 0 else np.inf,
        2.0,
    )


def _draw_by_draw_eq_yy(seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(200):
        alpha, beta = rng.uniform(-1.5, 0.9, size=2)
        lam = rng.uniform(0.3, 3.0, size=3)
        t = rng.uniform(0.05, 0.95) * _loop_horizon(alpha, beta)
        worst = max(worst, _loop_path_residual(alpha, beta, lam, t))
    return [worst]


def test_s3_action_horizon_is_the_rate_by_rate_cap():
    rates = np.concatenate([
        [-1.0, -0.0, 0.0, 1e-300, 0.25, 0.5, np.nextafter(0.5, 1.0), 0.9, 4.0],
        np.random.default_rng(2).uniform(-1.5, 0.9, size=200),
    ])
    alpha, beta = np.meshgrid(rates, rates[::-1])
    caps = suites._s3_action_horizon(alpha, beta)
    want = [[_loop_horizon(a, b) for a, b in zip(*rows)] for rows in zip(alpha, beta)]
    assert caps.tolist() == want
    assert suites._s3_action_horizon(0.75, -1.0) == 1.0 / 0.75


def _draw_by_draw_identities(seed):
    """The th1-identities suite's per-draw loop: each normal form drawn on
    its own and its psi built alone by ``normal_form_psi``, every entry of
    the table one row of a ``kappa_third_deriv_many`` call, then the
    constant fit and each identity's worst fit."""
    g = so4()
    rng = np.random.default_rng(seed)
    params, stratum = [], []
    for _ in range(100):
        v = rng.uniform(-1.0, 1.0, size=10)
        params.append(NormalFormParams(
            a1=v[0], a2=v[1], a3=v[2], b1=v[3], b2=v[4], b3=0.0,
            c1=v[5], c2=v[6], c3=v[7], lam=v[8], mu=v[9],
        ))
    for _ in range(100):
        p, q, a3, c3 = rng.uniform(-1.0, 1.0, size=4)
        stratum.append(NormalFormParams(
            a1=p, a2=q, a3=a3, b1=p, b2=q, b3=0.0, c1=p, c2=q, c3=c3, lam=0.0, mu=0.0
        ))

    def table(draws, coeffs):
        rows = [(normal_form_psi(p), g.embed_factor(np.asarray(xc, dtype=float), 1),
                 g.embed_factor(np.asarray(yc, dtype=float), 2))
                for p in draws for xc, yc in coeffs]
        psis, xs, ys = map(np.array, zip(*rows))
        return kappa_third_deriv_many(g, psis, xs, ys).reshape(len(draws), len(coeffs))

    def worst_fit(draws, lhs, closed):
        worst = 0.0
        for p, value in zip(draws, lhs):
            worst = max(worst, abs(value - const * closed(p)) / max(1.0, abs(value)))
        return worst

    identities = table(params, [(xc, yc) for _, xc, yc, _ in suites._IDENTITY_CASES]
                       + [term for _, *terms, _ in suites._SUM_CASES for term in terms])
    eliminations = table(stratum, [((1, 1, 1), s) for _, s, _ in suites._ELIMINATION_CASES])
    num = den = 0.0
    for p, lhs in zip(params, identities[:, 0]):
        rhs = suites._IDENTITY_CASES[0][3](p)
        num += lhs * rhs
        den += rhs * rhs
    const = float(num / den)
    n_id = len(suites._IDENTITY_CASES)
    return [
        max(0.0, -const),
        *(worst_fit(params, identities[:, k], case[3])
          for k, case in enumerate(suites._IDENTITY_CASES)),
        *(worst_fit(params, identities[:, n_id + 2 * k] + identities[:, n_id + 2 * k + 1], case[3])
          for k, case in enumerate(suites._SUM_CASES)),
        *(worst_fit(stratum, eliminations[:, k], case[2])
          for k, case in enumerate(suites._ELIMINATION_CASES)),
    ]


def _loop_abelian_residual(g, phi, planes):
    """The invariant-plane residual plane by plane, on the scalar bracket."""
    worst = 0.0
    for i in range(len(planes)):
        q = planes[i]
        worst = max(worst, np.abs(q.T @ q - np.eye(2)).max())
        worst = max(worst, float(np.linalg.norm(g.bracket(q[:, 0], q[:, 1]))))
        img = phi @ q
        worst = max(worst, np.abs(img - q @ (q.T @ img)).max())
        for j in range(i + 1, len(planes)):
            worst = max(worst, np.abs(q.T @ planes[j]).max())
    return worst


def _draw_by_draw_planes(seed):
    g = so4()
    rng = np.random.default_rng(seed)
    cases = (
        (suites.random_product_params, families.product_phi, families.product_invariant_planes),
        (suites.random_torus_params, families.torus_phi,
         lambda p: families.torus_invariant_planes()),
        (suites.random_s3_action_params, families.s3_action_phi,
         lambda p: families.s3_action_invariant_planes()),
    )
    rows = []
    for draw, phi, planes in cases:
        worst = 0.0
        for _ in range(20):
            p = draw(rng)
            worst = max(worst, _loop_abelian_residual(g, phi(p), planes(p)))
        rows.append(worst)
    return rows


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("suite, reference", [
    ("lemma-2.1-fd", _draw_by_draw_k),
    ("lemma-2.2-fd", _draw_by_draw_kappa),
    ("eq-yy", _draw_by_draw_eq_yy),
    ("th1-identities", _draw_by_draw_identities),
    ("obs-3.1-planes", _draw_by_draw_planes),
])
def test_batched_suite_rows_are_the_draw_by_draw_loop(suite, reference, seed):
    assert [row.value for row in suites.run_suite(suite, seed).rows] == reference(seed)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 9))
def test_many_kernel_rows_are_their_one_row_calls_after_a_shuffle(g4, seed, n):
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)

    alphas, betas = rng.uniform(-1.5, 0.9, size=(2, n))
    lams = rng.uniform(0.3, 3.0, size=(n, 3))
    caps = [suites._s3_action_horizon(a, b) for a, b in zip(alphas, betas)]
    ts = rng.uniform(0.05, 0.95, size=n) * caps
    rows = s3_action_path_residual_many(alphas, betas, lams, ts)
    shuffled = s3_action_path_residual_many(alphas[perm], betas[perm], lams[perm], ts[perm])
    assert shuffled.tolist() == rows[perm].tolist() == [
        s3_action_path_residual_many([alphas[k]], [betas[k]], [lams[k]], [ts[k]])[0] for k in perm
    ]

    # any finite input: phi need not preserve the planes, nor the planes be orthonormal
    phis = rng.standard_normal((n, 6, 6))
    planes = rng.standard_normal((n, int(rng.integers(0, 4)), 6, 2))
    rows = invariant_abelian_residual_many(g4, phis, planes)
    shuffled = invariant_abelian_residual_many(g4, phis[perm], planes[perm])
    assert shuffled.tolist() == rows[perm].tolist() == [
        invariant_abelian_residual_many(g4, phis[k][None], planes[k][None])[0] for k in perm
    ]

    paths = InverseLinearPath.many(g4, 3.0 * rng.standard_normal() * np.stack(
        [random_symmetric(rng, 6) for _ in range(n)]
    ))
    xs, ys = suites._stack(sample_commuting_pairs(g4, n, seed))
    hs = [default_step(path) for path in paths]
    for twisted in (False, True):
        curves = stencil_curves(
            [paths[k] for k in perm], xs[perm], ys[perm], [hs[k] for k in perm], (1, 2, 3),
            twisted=twisted,
        )
        for k, f in zip(perm, curves):
            (one,) = stencil_curves([paths[k]], xs[k:k + 1], ys[k:k + 1], [hs[k]], (1, 2, 3),
                                    twisted=twisted)
            times = [0.0 + o * step for step in (hs[k], hs[k] / 2.0) for o in (-2, -1, 0, 1, 2)]
            assert [f(t) for t in times] == [one(t) for t in times]
