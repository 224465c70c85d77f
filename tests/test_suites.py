"""The batched evaluation paths of the reproduce suites against the scalar
calls they replace, on the suites' own draws, and ``stencil_curve``, which
reads every stencil time of a finite-difference curve in one stacked call."""

import numpy as np
import pytest

from liecurv import (
    DegeneratePlane,
    InverseLinearPath,
    diagonal_subalgebra,
    factor_subalgebra,
    k_of_t,
    k_of_t_many,
    kappa_of_t,
    kappa_of_t_many,
    kappa_third_deriv,
    normal_form_kappa3,
    normalized_curvature,
    sample_commuting_pairs,
)
from liecurv import suites
from liecurv.metric import normalized_curvature_many
from liecurv.variation import (
    default_step,
    kappa_third_deriv_many,
    refined_derivative,
    stencil_curve,
)

from conftest import random_symmetric


def _close(batched, scalar, rel=1e-14):
    """Equal to rel times the largest scalar value; every input here is of
    unit size, so values near zero are compared on that scale."""
    scalar = np.asarray(scalar)
    assert np.abs(batched - scalar).max() <= rel * max(np.abs(scalar).max(), 1.0)


def _count_times(monkeypatch, module, curve_many):
    """Wrap module.curve_many so each call records the times it receives,
    per path."""
    seen = {}
    inner = getattr(module, curve_many)

    def counting(path, x, y, ts):
        seen.setdefault(path, []).append(list(ts))  # keeps each path alive
        return inner(path, x, y, ts)

    monkeypatch.setattr(module, curve_many, counting)
    return seen


@pytest.mark.parametrize(
    "suite, curve, times", [("lemma-2.1-fd", "k_of_t", 5), ("lemma-2.2-fd", "kappa_of_t", 7)]
)
def test_fd_curve_evaluated_once_per_stencil_time(monkeypatch, suite, curve, times):
    # one stacked call per path, holding each stencil time once
    seen = _count_times(monkeypatch, suites, f"{curve}_many")
    assert suites.run_suite(suite, seed=7).passed
    assert len(seen) == 60
    for calls in seen.values():
        assert len(calls) == 1
        assert len(calls[0]) == len(set(calls[0])) == times


@pytest.mark.parametrize("curve", [k_of_t, kappa_of_t])
def test_fd_curve_refined_derivatives_bitwise_equal(g4, curve):
    curve_many = {k_of_t: k_of_t_many, kappa_of_t: kappa_of_t_many}[curve]
    rng = np.random.default_rng(21)
    for pair in sample_commuting_pairs(g4, 5, seed=21):
        path = InverseLinearPath(g4, random_symmetric(rng, 6))
        h = default_step(path)
        stacked = stencil_curve(curve_many, path, pair.x, pair.y, h, (1, 2, 3))
        for order in (1, 2, 3):
            plain = refined_derivative(lambda t: curve(path, pair.x, pair.y, t), 0.0, order, h)
            assert refined_derivative(stacked, 0.0, order, h) == plain


def test_derivative_report_evaluates_each_stencil_time_once(g4):
    # the refined second-order stencil reads 5 distinct times, the
    # third-order one 6, all in one stacked call, and the estimates are
    # bitwise the plain ones
    psi = random_symmetric(np.random.default_rng(4), 6)
    pair = sample_commuting_pairs(g4, 1, seed=4)[0]
    path = InverseLinearPath(g4, psi)
    h = default_step(path)
    for curve, curve_many, order, times in (
        (k_of_t, k_of_t_many, 2, 5),
        (kappa_of_t, kappa_of_t_many, 3, 6),
    ):
        calls = []

        def counting(path, x, y, ts, curve_many=curve_many, calls=calls):
            calls.append(list(ts))
            return curve_many(path, x, y, ts)

        f = stencil_curve(counting, path, pair.x, pair.y, h, (order,))
        estimate = refined_derivative(f, 0.0, order, h)
        assert len(calls) == 1
        assert len(calls[0]) == len(set(calls[0])) == times
        plain = refined_derivative(lambda t: curve(path, pair.x, pair.y, t), 0.0, order, h)
        assert estimate == plain
        with pytest.raises(KeyError):
            f(3.0 * h)


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
    rng = np.random.default_rng(5)
    params = [suites._random_normal_form(rng) for _ in range(10)]
    params += [suites._constrained_normal_form(rng) for _ in range(10)]
    coeffs = [(xc, yc) for _, xc, yc, _ in suites._IDENTITY_CASES]
    coeffs += [term for _, *terms, _ in suites._SUM_CASES for term in terms]
    coeffs += [((1, 1, 1), signs) for _, signs, _ in suites._ELIMINATION_CASES]
    # one block, and the same entries split over two blocks of one call
    (table,) = suites._normal_form_tables(g4, [(params, coeffs)])
    head, tail = suites._normal_form_tables(g4, [(params[:7], coeffs[:5]), (params[7:], coeffs)])
    assert table.shape == (20, 16) and head.shape == (7, 5) and tail.shape == (13, 16)
    assert np.array_equal(head, table[:7, :5]) and np.array_equal(tail, table[7:])
    for i, p in enumerate(params):
        assert table[i].tolist() == [normal_form_kappa3(g4, p, xc, yc) for xc, yc in coeffs]


def _draw_by_draw_eschenburg(g, sub, seed):
    """The draw loop that ``suites._eschenburg_draws`` runs on validated
    stacks, on the scalar ``bracket`` and ``embed_factor`` path, kept as its
    reference."""
    proj = sub.projector
    rng = np.random.default_rng(seed)
    xs, ys, flat = [], [], []
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
            continue
        xs.append(x)
        ys.append(y)
        flat.append(lie < 1e-8)
    return np.stack(xs), np.stack(ys), np.array(flat)


@pytest.mark.parametrize("seed", range(10))
def test_eschenburg_draws_are_the_draw_by_draw_loop(g4, seed):
    for sub in (factor_subalgebra(g4, 1), diagonal_subalgebra(g4)):
        got = suites._eschenburg_draws(g4, sub, seed)
        for a, b in zip(got, _draw_by_draw_eschenburg(g4, sub, seed)):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("suite, kernel", [
    ("lemma-2.1-fd", "k_second_deriv_many"),
    ("lemma-2.2-fd", "kappa_third_deriv_many"),
    ("th1-identities", "kappa_third_deriv_many"),
    ("obs-3.2-paths", "path_scan_many"),
])
def test_suite_takes_its_closed_forms_or_scans_in_one_call(monkeypatch, suite, kernel):
    calls = []
    inner = getattr(suites, kernel)

    def counting(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(suites, kernel, counting)
    assert suites.run_suite(suite, seed=3).passed
    assert len(calls) == 1
