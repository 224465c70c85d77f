import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liecurv import (
    DimensionMismatch,
    HorizonExceeded,
    InverseLinearPath,
    NotCommuting,
    diagonal_subalgebra,
    factor_subalgebra,
    finite_diff,
    k_of_t,
    k_of_t_many,
    k_second_deriv,
    k_second_deriv_many,
    kappa_of_t,
    kappa_of_t_many,
    kappa_third_deriv,
    normalized_curvature,
    path_scan,
    refined_derivative,
    torus_psi,
)
from liecurv.variation import default_step, kappa_third_deriv_many, stencil_curves
from liecurv.verify import sample_commuting_pairs

from conftest import random_symmetric

E6 = np.eye(6)


def test_phi_at_zero_is_identity(g4):
    rng = np.random.default_rng(0)
    path = InverseLinearPath(g4, random_symmetric(rng, 6))
    assert np.array_equal(path.phi_at(0.0), np.eye(6))
    assert np.array_equal(path.metric_at(0.0).phi, np.eye(6))


def _window_times(path, rng) -> list[float]:
    """Admissible times across the window: 0, small and unit-size times of
    both signs, and times near each finite end of the window."""
    ts = [0.0, 1e-4, -1e-4, *rng.uniform(-1.0, 1.0, 4)]
    for end in (path.t_max, path.t_min):
        if np.isfinite(end):
            ts += [end * (1.0 - 10.0 ** -k) for k in (1, 4, 8)]
        else:
            ts += [np.copysign(1e3, end)]
    return [t for t, ok in zip(ts, path.admissible_many(ts)) if ok]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), scale=st.floats(0.1, 10.0))
def test_many_curves_are_their_one_time_calls(g4, seed, scale):
    rng = np.random.default_rng(seed)
    psi = scale * random_symmetric(rng, 6)
    path = InverseLinearPath(g4, psi)
    pair = sample_commuting_pairs(g4, 1, seed=seed)[0]
    ts = _window_times(path, rng)
    rng.shuffle(ts)
    for many, one in ((k_of_t_many, k_of_t), (kappa_of_t_many, kappa_of_t)):
        rows = many(path, pair.x, pair.y, ts)
        assert rows.shape == (len(ts),)
        assert rows.tolist() == [one(path, pair.x, pair.y, t) for t in ts]
    for t in ts:
        # phi_t (I - t psi) = I up to rounding scaled by the condition
        # number of I - t psi
        s = 1.0 - t * np.linalg.eigvalsh(psi)
        cond = np.abs(s).max() / np.abs(s).min()
        err = np.abs(path.phi_at(t) @ (np.eye(6) - t * psi) - np.eye(6)).max()
        assert err <= 64 * np.finfo(float).eps * cond
    # one time outside the window fails the whole stack, naming that time
    bad = 1.5 * path.t_max if np.isfinite(path.t_max) else 1.5 * path.t_min
    at = int(rng.integers(len(ts) + 1))
    for many in (k_of_t_many, kappa_of_t_many):
        with pytest.raises(HorizonExceeded, match=re.escape(f"t={bad} ")):
            many(path, pair.x, pair.y, ts[:at] + [bad] + ts[at:])


def test_many_curves_take_an_empty_stack_and_refuse_a_2d_one(g4):
    path = InverseLinearPath(g4, random_symmetric(np.random.default_rng(30), 6))
    pair = sample_commuting_pairs(g4, 1, seed=30)[0]
    for many in (k_of_t_many, kappa_of_t_many):
        assert many(path, pair.x, pair.y, []).shape == (0,)
        with pytest.raises(ValueError, match="1-d"):
            many(path, pair.x, pair.y, [[0.0, 0.1]])
    with pytest.raises(NotCommuting):
        kappa_of_t_many(path, E6[0], E6[1], [0.0])


def test_path_rejects_bad_psi(g4):
    bad = np.eye(6)
    bad[0, 1] = 1e-6
    with pytest.raises(ValueError):
        InverseLinearPath(g4, bad)
    with pytest.raises(Exception):
        InverseLinearPath(g4, np.eye(5))


def test_shrinking_projection_path_matrix(g4):
    h = factor_subalgebra(g4, 1)
    path = InverseLinearPath(g4, -h.projector)
    rng = np.random.default_rng(1)
    for t in (0.1, 0.7, 2.5):
        phi = path.phi_at(t)
        v = rng.standard_normal(6)
        vh = h.projector @ v
        expected = vh / (1.0 + t) + (v - vh)
        assert np.allclose(phi @ v, expected, atol=1e-12)


def test_enlarging_projection_hits_horizon(g4):
    h = factor_subalgebra(g4, 1)
    path = InverseLinearPath(g4, h.projector)
    assert path.t_max == 1.0
    with pytest.raises(HorizonExceeded):
        path.phi_at(1.0)
    # two-sided window: negative times are admissible
    assert np.isfinite(path.phi_at(-0.5)).all()


def _accepts(path, pair, t) -> dict:
    """Whether each entry point of the path takes time t; the one refusal
    allowed is HorizonExceeded."""
    calls = {
        "k_of_t": lambda: k_of_t(path, pair.x, pair.y, t),
        "kappa_of_t": lambda: kappa_of_t(path, pair.x, pair.y, t),
        "metric_at": lambda: path.metric_at(t),
        "path_scan": lambda: path_scan(path.algebra, path.psi, [t]),
    }
    # one row of a stack of times decides on its own time alone
    alone, stacked = path.admissible_many([t]), path.admissible_many([0.0, t, -t])
    assert alone.dtype == bool and alone.shape == (1,)
    accepted = {"admissible_many": bool(alone[0]), "admissible_stacked": bool(stacked[1])}
    for name, call in calls.items():
        try:
            call()
            accepted[name] = True
        except HorizonExceeded:
            accepted[name] = False
    return accepted


def test_one_rule_decides_every_path_time(g4):
    # every entry point reads the metric's definiteness gate on the
    # eigenvalues 1 / (1 - t lam) of phi_t, so they accept the same times:
    # those close to the horizon, and not those where phi_t's condition
    # number passes 1e12, as far out as t = -1e13 for psi >= 0
    pair = sample_commuting_pairs(g4, 1, seed=41)[0]
    projector = InverseLinearPath(g4, factor_subalgebra(g4, 1).projector)
    generic = InverseLinearPath(g4, random_symmetric(np.random.default_rng(41), 6))
    assert projector.t_max == 1.0 and np.isfinite([generic.t_min, generic.t_max]).all()
    inside = {projector: (-0.5, 0.5), generic: (0.5 * generic.t_min, 0.5 * generic.t_max)}
    for path in (projector, generic):
        cases = dict.fromkeys(inside[path], True)
        cases.update({(1 - 1e-9) * path.t_max: True, (1 - 5e-11) * path.t_max: True})
        cases[path.t_max] = False
        if path is projector:  # psi >= 0, so t_min = -inf
            cases[-1e13] = False
        for t, want in cases.items():
            entries = ("admissible_many", "admissible_stacked", "k_of_t", "kappa_of_t",
                       "metric_at", "path_scan")
            assert _accepts(path, pair, t) == dict.fromkeys(entries, want), t


def test_horizon_eigenvalue_decreases_monotonically(g4):
    rng = np.random.default_rng(2)
    psi = random_symmetric(rng, 6)
    path = InverseLinearPath(g4, psi)
    assert np.isfinite(path.t_max)
    ts = np.linspace(0.0, path.t_max * (1 - 1e-9), 40)
    mins = [np.linalg.eigvalsh(np.eye(6) - t * psi).min() for t in ts]
    assert all(a > b for a, b in zip(mins, mins[1:]))
    assert mins[-1] < 1e-6


def test_k_second_deriv_scalar_psi_is_zero(g4):
    pair = sample_commuting_pairs(g4, 1, seed=3)[0]
    # power-of-two multiples of the identity scale exactly, so the brackets
    # cancel bitwise; other multiples leave only representation noise
    assert k_second_deriv(g4, 0.5 * np.eye(6), pair.x, pair.y) == 0.0
    assert k_second_deriv(g4, 0.7 * np.eye(6), pair.x, pair.y) < 1e-30


def test_k_second_deriv_hand_value(g4):
    # psi couples A1 <-> B2 symmetrically; for x = A1, y = B1 the closed form
    # reduces to (1/2) |[psi x, y]|^2 = (1/2) |[B2, B1]|^2 = 1/2
    psi = np.zeros((6, 6))
    psi[0, 4] = psi[4, 0] = 1.0
    assert abs(k_second_deriv(g4, psi, E6[0], E6[3]) - 0.5) < 1e-15


def test_k_second_deriv_rejects_noncommuting(g4):
    with pytest.raises(NotCommuting):
        k_second_deriv(g4, np.eye(6), E6[0], E6[1])


def test_k_second_deriv_matches_fd(g4):
    rng = np.random.default_rng(4)
    for pair in sample_commuting_pairs(g4, 25, seed=5):
        psi = random_symmetric(rng, 6)
        path = InverseLinearPath(g4, psi)
        closed = k_second_deriv(g4, psi, pair.x, pair.y)
        fd = refined_derivative(
            lambda t: k_of_t(path, pair.x, pair.y, t), 0.0, 2, default_step(path)
        )
        assert abs(fd - closed) < 1e-5 * max(abs(closed), 1e-3)
        assert closed >= 0.0


def test_kappa_vanishes_at_zero(g4):
    rng = np.random.default_rng(6)
    psi = random_symmetric(rng, 6)
    path = InverseLinearPath(g4, psi)
    for pair in sample_commuting_pairs(g4, 10, seed=7):
        assert kappa_of_t(path, pair.x, pair.y, 0.0) == 0.0


def test_torus_variation_twisted_curvature_identically_zero(g4):
    psi = torus_psi(0.7, -0.4, 0.3, 1.1, 0.5)
    path = InverseLinearPath(g4, psi)
    for pair in sample_commuting_pairs(g4, 20, seed=8):
        for t in (0.05, 0.4, 0.8):
            if path.admissible_many([t])[0]:
                assert abs(kappa_of_t(path, pair.x, pair.y, t)) < 1e-12


def test_enlarging_diagonal_goes_negative_immediately(g4):
    sub = diagonal_subalgebra(g4)
    path = InverseLinearPath(g4, sub.projector)
    x = E6[0]
    y = E6[4]  # factor parts e1 and e2 do not commute inside the subalgebra
    xh = sub.projector @ x
    yh = sub.projector @ y
    assert np.linalg.norm(g4.bracket(xh, yh)) > 0.1
    for t in (0.01, 0.05, 0.1):
        assert kappa_of_t(path, x, y, t) < 0.0


def test_kappa_third_deriv_scalar_psi_zero(g4):
    for pair in sample_commuting_pairs(g4, 5, seed=9):
        assert kappa_third_deriv(g4, -2.0 * np.eye(6), pair.x, pair.y) == 0.0
        assert abs(kappa_third_deriv(g4, -1.3 * np.eye(6), pair.x, pair.y)) < 1e-30


def test_kappa_third_deriv_shrinking_subalgebra_identity(g4):
    for sub in (factor_subalgebra(g4, 1), diagonal_subalgebra(g4)):
        psi = -sub.projector
        for pair in sample_commuting_pairs(g4, 30, seed=10):
            xh = sub.projector @ pair.x
            yh = sub.projector @ pair.y
            lie = g4.bracket(xh, yh)
            got = kappa_third_deriv(g4, psi, pair.x, pair.y)
            assert abs(got - 6.0 * lie @ lie) < 1e-8 * max(abs(got), 1e-9)


def test_kappa_third_deriv_matches_fd(g4):
    rng = np.random.default_rng(11)
    for pair in sample_commuting_pairs(g4, 25, seed=12):
        psi = random_symmetric(rng, 6)
        path = InverseLinearPath(g4, psi)
        closed = kappa_third_deriv(g4, psi, pair.x, pair.y)
        fd = refined_derivative(
            lambda t: kappa_of_t(path, pair.x, pair.y, t), 0.0, 3, default_step(path)
        )
        assert abs(fd - closed) < 1e-4 * max(abs(closed), 1e-3)


def test_eschenburg_flatness_classification(g4):
    sub = diagonal_subalgebra(g4)
    path = InverseLinearPath(g4, -sub.projector)
    rng = np.random.default_rng(13)
    t = 0.5
    m = np.eye(6) - t * (-sub.projector)
    metric = path.metric_at(t)
    for i in range(60):
        a = rng.standard_normal(3)
        a /= np.linalg.norm(a)
        if i % 2 == 0:
            b = a.copy()
        else:
            b = rng.standard_normal(3)
            b /= np.linalg.norm(b)
        x = g4.embed_factor(a, 1)
        y = g4.embed_factor(b, 2)
        lie_h = g4.bracket(sub.projector @ x, sub.projector @ y)
        flat = np.linalg.norm(lie_h) < 1e-8
        if not flat and np.linalg.norm(lie_h) < 0.05:
            continue
        val = normalized_curvature(metric, m @ x, m @ y)
        assert (val < 1e-10) == flat


def test_finite_diff_polynomials():
    assert abs(finite_diff(lambda t: t**3, 0.0, 3, 0.1) - 6.0) < 1e-8
    assert abs(finite_diff(lambda t: t**2, 1.0, 1, 0.05) - 2.0) < 1e-10
    assert abs(finite_diff(lambda t: t**2, 0.0, 2, 0.05) - 2.0) < 1e-9
    with pytest.raises(ValueError):
        finite_diff(lambda t: t, 0.0, 4, 0.1)
    with pytest.raises(ValueError):
        finite_diff(lambda t: t, 0.0, 1, -0.1)


def test_finite_diff_propagates_horizon(g4):
    h = factor_subalgebra(g4, 1)
    path = InverseLinearPath(g4, h.projector)
    pair = sample_commuting_pairs(g4, 1, seed=14)[0]
    with pytest.raises(HorizonExceeded):
        finite_diff(lambda t: kappa_of_t(path, pair.x, pair.y, t), 0.9, 3, 0.1)


def test_derivative_report_consistency(g4):
    # closed forms for k''(0) and kappa'''(0) next to their Richardson
    # estimates, each curve read through stencil_curves
    rng = np.random.default_rng(15)
    psi = random_symmetric(rng, 6)
    pair = sample_commuting_pairs(g4, 1, seed=16)[0]
    path = InverseLinearPath(g4, psi)
    h = default_step(path)
    k2 = k_second_deriv(g4, psi, pair.x, pair.y)
    kappa3 = kappa_third_deriv(g4, psi, pair.x, pair.y)
    (k,) = stencil_curves([path], [pair.x], [pair.y], [h], (2,))
    (kappa,) = stencil_curves([path], [pair.x], [pair.y], [h], (3,), twisted=True)
    fd_k2 = refined_derivative(k, 0.0, 2, h)
    fd_kappa3 = refined_derivative(kappa, 0.0, 3, h)
    assert abs(fd_k2 - k2) < 1e-5 * max(abs(k2), 1e-3)
    assert abs(fd_kappa3 - kappa3) < 1e-4 * max(abs(kappa3), 1e-3)


def test_non_finite_psi_rejected(g4):
    x, y = g4.embed_factor([1.0, 0.0, 0.0], 1), g4.embed_factor([0.0, 1.0, 0.0], 2)
    for bad in (np.nan, np.inf):
        psi = np.zeros((6, 6))
        psi[2, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            InverseLinearPath(g4, psi)
        for closed_form in (k_second_deriv, kappa_third_deriv):
            with pytest.raises(ValueError, match="non-finite"):
                closed_form(g4, psi, x, y)
    # the closed forms refuse a non-symmetric psi and a wrong shape instead
    # of using them as given
    for closed_form in (k_second_deriv, kappa_third_deriv):
        with pytest.raises(ValueError, match="not symmetric"):
            closed_form(g4, np.triu(np.ones((6, 6))), x, y)
        with pytest.raises(DimensionMismatch, match="psi"):
            closed_form(g4, np.eye(5), x, y)


def _stacked_rows(g4, n, seed):
    rng = np.random.default_rng(seed)
    pairs = sample_commuting_pairs(g4, n, seed=seed)
    psis = np.stack([random_symmetric(rng, 6) for _ in pairs])
    return pairs, psis, np.stack([p.x for p in pairs]), np.stack([p.y for p in pairs])


def test_per_row_psi_kernels_are_the_per_psi_calls_bitwise(g4):
    pairs, psis, xs, ys = _stacked_rows(g4, 40, 31)
    assert kappa_third_deriv_many(g4, psis, xs, ys).tolist() == [
        kappa_third_deriv(g4, psi, p.x, p.y) for psi, p in zip(psis, pairs)
    ]
    assert k_second_deriv_many(g4, psis, xs, ys).tolist() == [
        k_second_deriv(g4, psi, p.x, p.y) for psi, p in zip(psis, pairs)
    ]
    # one psi for every row gives each row's one-psi value as well
    assert k_second_deriv_many(g4, psis[0], xs, ys).tolist() == [
        k_second_deriv(g4, psis[0], p.x, p.y) for p in pairs
    ]


def test_k_second_deriv_is_the_stacked_pair_formula_bitwise(g4):
    # the one-row kernel keeps the bits of (1/2)|w|^2 with w the sum of
    # the two brackets of one stacked bracket_many call
    pairs, psis, _, _ = _stacked_rows(g4, 40, 32)
    for psi, p in zip(psis, pairs):
        w = g4.bracket_many(np.stack([p.x, psi @ p.x]), np.stack([psi @ p.y, p.y])).sum(axis=0)
        assert k_second_deriv(g4, psi, p.x, p.y) == 0.5 * float(w @ w)


@pytest.mark.parametrize("kernel", [kappa_third_deriv_many, k_second_deriv_many])
def test_psi_stack_of_another_length_is_refused(g4, kernel):
    _, psis, xs, ys = _stacked_rows(g4, 4, 33)
    named = re.escape("(3, 6, 6)") + ".*" + re.escape("(4, 6)")
    with pytest.raises(DimensionMismatch, match=named):
        kernel(g4, psis[:3], xs, ys)


def test_k_second_deriv_validates_what_its_row_kernel_takes_as_given(g4):
    # the row kernel assumes commuting rows; the one-row call checks them
    x, y = E6[0], E6[1]
    assert k_second_deriv_many(g4, np.eye(6), x[None], y[None]).shape == (1,)
    with pytest.raises(NotCommuting):
        k_second_deriv(g4, np.eye(6), x, y)


def test_paths_of_a_psi_stack_are_the_one_psi_paths_bitwise(g4):
    rng = np.random.default_rng(34)
    psis = np.stack([random_symmetric(rng, 6) for _ in range(12)])
    for many, psi in zip(InverseLinearPath.many(g4, psis), psis):
        one = InverseLinearPath(g4, psi)
        assert np.array_equal(many.psi, one.psi) and not many.psi.flags.writeable
        assert (many.t_min, many.t_max) == (one.t_min, one.t_max)
        for t in (0.0, 0.3 * one.t_max, 0.3 * one.t_min):
            assert np.array_equal(many.phi_at(t), one.phi_at(t))
    assert InverseLinearPath.many(g4, np.zeros((0, 6, 6))) == []
    # each matrix is checked by symmetric_matrix's rule, and the first bad one named
    broken = psis.copy()
    broken[4, 0, 1] += 1e-6
    with pytest.raises(ValueError, match=re.escape("psis[4] is not symmetric")):
        InverseLinearPath.many(g4, broken)
    broken[2, 3, 3] = np.nan
    with pytest.raises(ValueError, match=re.escape("psis[2] has non-finite entries")):
        InverseLinearPath.many(g4, broken)
    with pytest.raises(DimensionMismatch, match="psis"):
        InverseLinearPath.many(g4, psis[0])


def test_stencil_curves_check_pairs_then_every_window(g4):
    rng = np.random.default_rng(35)
    paths = InverseLinearPath.many(g4, np.stack([random_symmetric(rng, 6) for _ in range(3)]))
    pairs = sample_commuting_pairs(g4, 3, seed=35)
    xs, ys = np.stack([p.x for p in pairs]), np.stack([p.y for p in pairs])
    hs = [default_step(path) for path in paths]
    with pytest.raises(ValueError, match="one pair and step per path"):
        stencil_curves(paths, xs[:2], ys, hs, (1,))
    with pytest.raises(DimensionMismatch, match="ys"):
        stencil_curves(paths, xs, ys[:, :5], hs, (1,))
    bad = xs.copy()
    bad[1, 0] = np.inf
    with pytest.raises(ValueError, match="xs has non-finite entries"):
        stencil_curves(paths, bad, ys, hs, (1,))
    # k reads any pair; kappa needs every pair to commute
    loose = ys.copy()
    loose[2] = E6[0] if np.abs(xs[2, 1:3]).max() > 0.1 else E6[1]
    assert len(stencil_curves(paths, xs, loose, hs, (1,))) == 3
    with pytest.raises(NotCommuting, match="in row 2"):
        stencil_curves(paths, xs, loose, hs, (1,), twisted=True)
    # a step that leaves one path's window names that path's time
    wide = list(hs)
    wide[1] = paths[1].t_max
    with pytest.raises(HorizonExceeded, match=re.escape(f"t={wide[1]} ")):
        stencil_curves(paths, xs, ys, wide, (1,))
    assert stencil_curves([], [], [], [], (1,)) == []
