import functools
import json
import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from liecurv import (
    DimensionMismatch,
    EigenStructure,
    HorizonExceeded,
    InverseLinearPath,
    LeftInvariantMetric,
    NotPositiveDefinite,
    ProductParams,
    S3ActionParams,
    TorusParams,
    VERDICT_NEGATIVE,
    VERDICT_NONNEGATIVE,
    diagonal_subalgebra,
    infinitesimal_check,
    kappa_of_t,
    kappa_third_deriv,
    koszul_oracle,
    lemma_k_check,
    min_curvature,
    normalized_curvature,
    path_scan,
    path_scan_many,
    product_phi,
    s3_action_phi,
    s3_action_psi,
    sample_commuting_pairs,
    so3,
    so4,
    torus_phi,
    torus_psi,
)
from liecurv import verify
from liecurv.cli import main as cli_main
from liecurv.metric import normalized_curvature_many, wedge_many, wedge_pairs
from liecurv.suites import family_scan_cases
from liecurv.variation import kappa_third_deriv_many
from liecurv.verify import (
    DEFAULT_TOL,
    _alternate,
    _basis_planes,
    _biquadratic,
    _certify,
    _cluster_cuts,
    _gram_schmidt,
    _incidence,
    _lower_bound,
    _newton_pairs,
    _outer_rows,
    _pair_form,
    _plane_forms,
    _plucker_forms,
    _quotient_values,
    _milnor_curvatures,
    _segre_forms,
    _to_orthonormal,
    _verdicts,
)

from conftest import random_automorphism, random_rotation, random_spd, random_symmetric


def _unit_columns(ab):
    """Each column of the (T, c, d, n) stack ab scaled to unit length."""
    return ab / np.sqrt(np.add.reduce(ab * ab, axis=2, keepdims=True))


def _gram(m):
    """The h-Gram form H = Lambda^2 phi on bivectors: w.Hw is the h-Gram
    determinant of (z1, z2) at w = z1 ^ z2.  With ``_reference_operator``,
    the reference route to a plane's quotient w.Rw / w.Hw."""
    i, j = wedge_pairs(m.algebra.dim)
    p = m.phi
    return p[np.ix_(i, i)] * p[np.ix_(j, j)] - p[np.ix_(i, j)] * p[np.ix_(j, i)]


def _reference_operator(m):
    """The curvature operator R in reference bivector coordinates, built from
    ``m.connection()``: w.Rw is the unnormalized curvature of span{z1, z2}
    at w = z1 ^ z2.  It shares nothing with ``m.curvature_operator()``,
    which the searches build in the metric's eigenframe."""
    gamma = m.connection()
    # r[i, j, k, m]: e_m coefficient of R(e_i, e_j) e_k
    dd = np.einsum("jkp,ipm->ijkm", gamma, gamma)
    r = dd - dd.transpose(1, 0, 2, 3) - np.einsum("ijq,qkm->ijkm", m.algebra.structure, gamma)
    i, j = wedge_pairs(m.algebra.dim)
    op = (r @ m.phi)[i, j][:, j, i]
    return 0.5 * (op + op.T)


def _to_reference(m, x):
    """The frames z = V Lambda^-1/2 x of the (..., d, n) columns x given in
    m's orthonormal coordinates."""
    return (m.eigenvectors / np.sqrt(m.eigenvalues)) @ x


def test_sampling_empty_on_so3(g3):
    assert sample_commuting_pairs(g3, 10, seed=0) == []


@pytest.mark.parametrize("n", [-2, 2.5, True, np.float64(4.0)])
def test_sampling_rejects_bad_count(g3, g4, n):
    for g in (g3, g4):
        with pytest.raises(ValueError, match="n must be"):
            sample_commuting_pairs(g, n, seed=0)


def test_sampled_pairs_commute_exactly(g4):
    for pair in sample_commuting_pairs(g4, 50, seed=1):
        assert np.linalg.norm(g4.bracket(pair.x, pair.y)) == 0.0
        gram = np.array([
            [pair.x @ pair.x, pair.x @ pair.y],
            [pair.x @ pair.y, pair.y @ pair.y],
        ])
        assert np.linalg.det(gram) > 1e-4  # independent, not just commuting


def test_sampling_is_seed_deterministic(g4):
    a = sample_commuting_pairs(g4, 20, seed=42)
    b = sample_commuting_pairs(g4, 20, seed=42)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.x, pb.x) and np.array_equal(pa.y, pb.y)


def test_every_commuting_pair_splits_across_factors(g4):
    """Planes spanned by commuting pairs always contain one vector from each
    factor: checked by solving [x, .] = 0 directly over random x."""
    rng = np.random.default_rng(2)
    n = 10_000
    xs = rng.standard_normal((n, 6))
    ads = np.einsum("ijk,ni->nkj", g4.structure, xs)
    _, svals, vhs = np.linalg.svd(ads)
    assert (svals[:, -2] < 1e-10).all()  # null space is at least 2-dimensional
    for i in range(0, n, 7):
        plane = vhs[i, -2:]  # spans the centralizer of xs[i]
        for part in (plane[:, :3], plane[:, 3:]):
            s = np.linalg.svd(part, compute_uv=False)
            assert s[-1] < 1e-8  # a combination vanishes on this factor


def test_min_curvature_identity_metric(g4):
    m = LeftInvariantMetric(g4, np.eye(6))
    rep = min_curvature(m)
    assert rep.verdict == VERDICT_NONNEGATIVE
    assert -1e-12 <= rep.min_value <= 1e-12
    w = np.array(rep.witness)
    assert np.linalg.norm(g4.bracket(w[0], w[1])) < 1e-6  # minimizer is commuting


def test_min_curvature_detects_berger_excess(g4):
    m = LeftInvariantMetric(g4, np.diag([1.4, 1, 1, 1, 1, 1.0]))
    rep = min_curvature(m)
    assert rep.verdict == VERDICT_NEGATIVE
    assert rep.min_value < -1e-3


def test_min_curvature_known_family_nonnegative(g4):
    p = S3ActionParams(a=1.0, b=1.0, lam=np.array([1.0, 1.0, 1.0]))
    rep = min_curvature(LeftInvariantMetric(g4, s3_action_phi(p)))
    assert rep.verdict == VERDICT_NONNEGATIVE
    assert rep.min_value >= -1e-9


def test_negative_witness_reproduces_in_isolation(g4):
    m = LeftInvariantMetric(g4, np.diag([1.5, 1, 1, 1, 1, 1.0]))
    rep = min_curvature(m)
    assert rep.verdict == VERDICT_NEGATIVE
    w = np.array(rep.witness)
    again = normalized_curvature(m, w[0], w[1])
    assert again < -1e-9
    assert abs(again - rep.min_value) < 1e-10 * (1.0 + abs(rep.min_value))


def test_min_curvature_small_metric_scale(g4):
    # the witness of 1e-8 * diag(1.4, 1, ...) has h-Gram determinant about
    # 1.4e-16, which the plane-curvature evaluator must still accept
    base = np.diag([1.4, 1.0, 1.0, 1.0, 1.0, 1.0])
    ref = min_curvature(LeftInvariantMetric(g4, base))
    small = min_curvature(LeftInvariantMetric(g4, 1e-8 * base))
    assert abs(1e-8 * small.min_value - ref.min_value) <= 1e-9 * abs(ref.min_value)


def test_min_curvature_same_call_same_report(g4):
    m = LeftInvariantMetric(g4, np.diag([1.4, 1, 1, 1, 1, 1.0]))
    a = min_curvature(m)
    b = min_curvature(m)
    assert a == b
    assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())


@pytest.mark.parametrize("name", ["workers", "budget"])
def test_removed_argument_is_refused(g4, name):
    m = LeftInvariantMetric(g4, np.diag([1.4, 1, 1, 1, 1, 1.0]))
    psi = torus_psi(0.9, -0.3, 0.2, 1.4, 0.6)
    with pytest.raises(TypeError, match=name):
        min_curvature(m, **{name: 2})
    with pytest.raises(TypeError, match=name):
        infinitesimal_check(g4, psi, **{name: 2})
    with pytest.raises(TypeError, match=name):
        path_scan(g4, psi, [0.1], **{name: 2})
    with pytest.raises(TypeError, match=name):
        path_scan_many(g4, [psi], [[0.1]], **{name: 2})


@pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf])
def test_non_finite_tol_rejected(g4, tol):
    m = LeftInvariantMetric(g4, np.eye(6))
    psi = torus_psi(0.9, -0.3, 0.2, 1.4, 0.6)
    with pytest.raises(ValueError, match="tol"):
        min_curvature(m, tol=tol)
    with pytest.raises(ValueError, match="tol"):
        infinitesimal_check(g4, psi, tol=tol)
    with pytest.raises(ValueError, match="tol"):
        path_scan(g4, psi, [0.1], tol=tol)


@pytest.mark.parametrize(
    "grid",
    [[[0.1]], np.array([[0.1, 0.2]]), 0.5, np.float64(0.5), "0.1", [0.1, "0.2"], [1j], [True]],
)
def test_bad_grid_rejected_before_any_path(g4, grid):
    """A scan grid is a 1-d sequence of real numbers: a nested, scalar,
    string, complex or boolean grid raises a ValueError naming t_grid, from
    ``path_scan`` and from ``path_scan_many`` (here the second path's grid),
    before any path is built."""
    psi = torus_psi(0.9, -0.3, 0.2, 1.4, 0.6)
    work = mock.Mock(side_effect=AssertionError("a path was built before the grid check"))
    with mock.patch.object(verify, "InverseLinearPath", work):
        for call in (lambda: path_scan(g4, psi, grid),
                     lambda: path_scan_many(g4, [psi, psi], [[0.1], grid])):
            with pytest.raises(ValueError, match="t_grid must be a 1-d sequence of real numbers"):
                call()


def test_grid_of_real_numbers_accepted(g4):
    """A tuple or 1-d array of numpy reals scans as the list of its floats;
    a NaN time raises the path's HorizonExceeded, as ``metric_at`` does."""
    psi = torus_psi(0.9, -0.3, 0.2, 1.4, 0.6)
    want = path_scan(g4, psi, [0.1, 0.25])
    assert path_scan(g4, psi, (np.float64(0.1), 0.25)) == want
    assert path_scan(g4, psi, np.array([0.1, 0.25])) == want
    with pytest.raises(HorizonExceeded):
        path_scan(g4, psi, [0.1, np.nan])


@pytest.mark.parametrize("seed", [-1, 2.5, True, "x"])
@pytest.mark.parametrize("entry, case", [
    ("sample_commuting_pairs", "pair"),
    ("sample_commuting_pairs", "so3"),
])
def test_bad_seed_rejected_before_any_work(g3, g4, entry, case, seed):
    """The commuting-pair sampler, the one seeded routine, checks its seed
    first: a nonnegative integer, else a ValueError naming ``seed``, on
    so(4) and on so(3), where it has nothing to draw.  A control call with
    seed 0 under the same patch reaches the draw on so(4) and returns no
    pair on so(3)."""
    g = g3 if case == "so3" else g4
    work = mock.Mock(side_effect=AssertionError("work started before the seed check"))
    with mock.patch.object(np.random, "default_rng", work):
        with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
            sample_commuting_pairs(g, 3, seed)
        assert not work.called
        if case == "so3":
            assert sample_commuting_pairs(g, 3, 0) == []
        else:
            with pytest.raises(AssertionError, match="work started"):
                sample_commuting_pairs(g, 3, 0)


@pytest.mark.parametrize("seed", [7, 12345, -1, 2.5, True, "x"])
@pytest.mark.parametrize("entry, case", [
    *((entry, case) for entry in ("min_curvature", "path_scan")
      for case in ("closing", "so3", "searching")),
    ("infinitesimal_check", "pair"),
    ("lemma_k_check", "pair"),
])
def test_benchmark_seed_keyword_is_accepted_and_ignored(g3, g4, entry, case, seed):
    """verdictbench's workloads still pass ``seed=`` to these four
    functions, so each keeps the keyword: any value, a valid seed or one
    that the seeded API once refused, is ignored, and the report equals the
    one of the call without it.  The plane entries are tried on an input
    that closes on its bound, on so(3) and on one that is lifted and
    polished; lemma K on a psi that fails on a factor stratum."""
    g = g3 if case == "so3" else g4
    phi, psi = {
        "closing": (np.diag([1.4, 1, 1, 1, 1, 1.0]), np.diag([0.3, -0.2, 0.1, 0.4, 0.0, -0.5])),
        "so3": (np.diag([1.5, 1.0, 1.0]), np.diag([0.4, -0.3, 0.9])),
        "searching": (_forty_metric_phis()[1], diagonal_subalgebra(g4).projector),
        "pair": (None, torus_psi(0.9, -0.3, 0.2, 1.4, 0.6)),
    }[case]
    call = {
        "min_curvature": lambda **kw: min_curvature(LeftInvariantMetric(g, phi), **kw),
        "path_scan": lambda **kw: path_scan(g, psi, [0.2], **kw),
        "infinitesimal_check": lambda **kw: infinitesimal_check(g, psi, **kw),
        "lemma_k_check": lambda **kw: lemma_k_check(g, _stratum_failure(), **kw),
    }[entry]
    assert call(seed=seed) == call()


def test_negative_tol_rejected(g3, g4, capsys):
    # every plane of the round so(3) metric has curvature 1/4; a tol of
    # -0.5 would call that minimum a negative witness
    round3 = LeftInvariantMetric(g3, np.eye(3))
    psi = torus_psi(0.9, -0.3, 0.2, 1.4, 0.6)
    for tol in (-0.5, -1e-300):
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            min_curvature(round3, tol=tol)
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            infinitesimal_check(g4, psi, tol=tol)
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            path_scan(g4, psi, [0.1], tol=tol)
    assert cli_main(["check", "--phi", "diag:1,1,1", "--tol", "-0.5"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "tol must be finite and nonnegative" in err
    assert min_curvature(round3, tol=0.0).verdict == VERDICT_NONNEGATIVE


def test_basis_planes_follow_wedge_coordinates(g3, g4):
    rng = np.random.default_rng(44)
    for g in (g3, g4):
        frames = _basis_planes(np.eye(g.dim))
        w = wedge_many(frames[0].T, frames[1].T)
        assert np.array_equal(w, np.eye(len(w)))
        # B = _incidence(d) takes z1 (x) z2 to the same coordinates
        z = rng.standard_normal((2, g.dim, 50))
        outer = np.einsum("in,jn->ijn", z[0], z[1]).reshape(-1, 50)
        assert np.array_equal((_incidence(g.dim) @ outer).T, wedge_many(z[0].T, z[1].T))


def _quotient_gradient(op, x):
    """``_quotient_values`` and its exact gradient with respect to x1 and x2,
    for the reference descent ``_unstopped_descend``.

    With v = 2 (Cw - f w) / w.w mapped through B^T and read as a d x d
    matrix V, the gradients are V x2 and V^T x1.  They need no tangent
    projection: the quotient is homogeneous of degree 0 in each column, so
    x1.V x2 = v.w = 0; for planes V is antisymmetric, so x2.V x2 = 0 too.
    """
    val, w, ww = _quotient_values(op, x)
    t, _, d, n = x.shape
    v = (op[0] @ w - val[:, None] * w) * (2.0 / ww)[:, None]
    vm = (op[1].T @ v).reshape(t, d, d, n)
    grad = np.empty_like(x)
    np.einsum("tijn,tjn->tin", vm, x[:, 1], out=grad[:, 0])
    np.einsum("tijn,tin->tjn", vm, x[:, 0], out=grad[:, 1])
    return val, grad


@pytest.mark.parametrize("case", ["so3-planes", "so4-planes", "so4-pairs"])
def test_quotient_gradient_matches_central_differences(g3, g4, case):
    """The gradient of the quotient that the reference descent follows,
    against central differences of an independent route:
    ``normalized_curvature_many`` for planes, ``kappa_third_deriv_many`` on
    unit columns for pairs."""
    h = 1e-5
    if case == "so4-pairs":
        rng = np.random.default_rng(42)
        psi = random_symmetric(rng, 6)
        op = (_pair_form(g4, psi), np.eye(9))
        x = _unit_columns(rng.standard_normal((1, 2, 3, 20)))

        def reference(s):
            return kappa_third_deriv_many(g4, psi, *_pair_rows(g4, _unit_columns(s)))

        spans = [x[0, :1], x[0, 1:]]  # each column's own sphere point
    else:
        rng = np.random.default_rng(40)
        g = g3 if case == "so3-planes" else g4
        m = LeftInvariantMetric(g, random_spd(rng, g.dim))
        op = (m.curvature_operator(), _incidence(g.dim))
        x = np.ascontiguousarray(np.linalg.qr(rng.standard_normal((20, g.dim, 2)))[0].T[None])

        def reference(s):
            z = _to_reference(m, s[0])
            return normalized_curvature_many(m, z[0].T, z[1].T)

        spans = [x[0], x[0]]  # both columns move in the complement of the plane
    val, grad = _quotient_gradient(op, x)
    ref = _quotient_values(op, x)[0]
    assert np.all(np.abs(val - ref) <= 1e-13 * np.abs(ref))
    d = x.shape[2]
    for c, span in enumerate(spans):
        # the unprojected gradient is already tangent
        assert np.abs(np.einsum("sdn,dn->sn", span, grad[0, c])).max() < 1e-12
        u = rng.standard_normal((d, 20))
        u -= np.einsum("sdn,sn->dn", span, np.einsum("sdn,dn->sn", span, u))
        u /= np.linalg.norm(u, axis=0)
        plus, minus = x.copy(), x.copy()
        plus[0, c] += h * u
        minus[0, c] -= h * u
        fd = (reference(plus) - reference(minus)) / (2.0 * h)
        exact = np.einsum("dn,dn->n", u, grad[0, c])
        assert np.all(np.abs(exact - fd) <= 1e-8 * np.maximum(1.0, np.abs(fd)))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), dim=st.sampled_from([3, 6]))
def test_whitened_quotient_is_the_plane_curvature(seed, dim):
    """In a metric's orthonormal coordinates x = Lambda^1/2 V^T z, the
    quotient of (C, B) at an orthonormal frame x is the normalized curvature
    of the plane z = V Lambda^-1/2 x, to 1e-12 ||C||_2: C is the one
    operator every so(4) plane search runs on."""
    rng = np.random.default_rng(seed)
    g = so3() if dim == 3 else so4()
    m = LeftInvariantMetric(g, random_spd(rng, dim))
    c = m.curvature_operator()[None]
    x = _gram_schmidt(rng.standard_normal((1, 2, dim, 50)))
    got = _quotient_values((c, _incidence(dim)), x)[0][0]
    z = _to_reference(m, x[0])
    ref = normalized_curvature_many(m, z[0].T, z[1].T)
    assert np.abs(got - ref).max() <= 1e-12 * np.linalg.norm(c[0], 2)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), scale=st.floats(-3.0, 3.0))
def test_so3_operator_is_milnors_diagonal(seed, scale):
    """On so(3) the eigenframe curvature operator is diagonal to 1e-12
    ||C||_2, and its diagonal holds Milnor's curvatures of the
    metric-eigenvector planes to the same bound: the closed form the so(3)
    reports read and the operator the so(4) searches run on agree."""
    rng = np.random.default_rng(seed)
    g = so3()
    m = LeftInvariantMetric(g, 10.0**scale * random_spd(rng, 3))
    c = m.curvature_operator()
    norm = np.linalg.norm(c, 2)
    assert np.abs(c - np.diag(np.diag(c))).max() <= 1e-12 * norm
    milnor = _milnor_curvatures(g.structure[0, 1, 2], m.eigenvalues[None])[0]
    assert np.abs(np.diag(c) - milnor).max() <= 1e-12 * norm


def test_reference_descent_reaches_smallest_eigenvalue():
    """On the unit sphere, x.Ax has minimum lambda_min(A); every start of
    every stacked operator of the reference descent must reach it, which
    needs the gradient of each accepted point."""
    rng = np.random.default_rng(46)
    a = np.stack([random_symmetric(rng, 6) for _ in range(3)])

    def evaluate(x):
        grad = 2.0 * (a[:, None] @ x)
        val = 0.5 * np.einsum("tcdn,tcdn->tn", x, grad)
        return val, grad - x * np.einsum("tcdn,tcdn->tcn", x, grad)[:, :, None]

    start = _unit_columns(rng.standard_normal((3, 1, 6, 16)))
    val, x = _unstopped_descend(evaluate, _unit_columns, start, 200)
    # a has unit spectral norm; a stale gradient stalls at O(1) errors
    assert np.abs(val - np.linalg.eigvalsh(a)[:, :1]).max() < 1e-6
    assert np.allclose(evaluate(x)[0], val, rtol=0.0, atol=1e-15)


def test_polish_leaves_an_exact_saddle():
    """f(a, b) = a1^2 b2^2 + a2^2 b1^2 + a2^2 b2^2 + 4 a1 a2 b1 b2 over unit
    a, b in R^2: from a = e1 each half-step's best reply is e1 again, so
    the rounds stall at f = 0 with zero gradient, although f falls along
    a = (cos s, sin s), b = (cos s, -sin s).  The damped Newton steps that
    a row above its reach takes from the rounds' pair leave that saddle,
    for the minimum of a fine grid."""
    m = np.zeros((2, 2, 2, 2))
    m[0, 0, 1, 1] = m[1, 1, 0, 0] = m[1, 1, 1, 1] = 1.0
    m[0, 1, 0, 1] = m[0, 1, 1, 0] = m[1, 0, 0, 1] = m[1, 0, 1, 0] = 1.0
    m = m.reshape(1, 4, 4)
    stop, reach = np.zeros(1), np.full(1, -np.inf)
    rounds = _alternate(m, np.array([[[1.0, 0.0]]]), 50, stop, reach)
    assert rounds[0][0] == 0.0
    val, a, b = _newton_pairs(m, *rounds, 50, stop, reach)
    theta = np.linspace(0.0, np.pi, 721)
    circle = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    grid = np.einsum("pi,qj,ij->pq", _outer_rows(circle), _outer_rows(circle), m[0])
    assert grid.min() < -0.2 and val[0] <= grid.min() + 1e-12
    assert val[0] == pytest.approx(_outer_rows(a)[0] @ m[0] @ _outer_rows(b)[0], abs=1e-15)


def test_stacked_polish_matches_each_slice_bitwise(g4):
    """Polishing T forms as one stack, the rounds of ``_alternate`` then
    the Newton steps of ``_newton_pairs`` and their closing round, gives
    every row bit for bit as polishing its slice alone: the round metric and
    a wide draw of the 40-metric set stop when their best values stall (at
    1e-3 delta, the plane polish's stop), each at its own round, and their
    rows stay frozen while the product row and the near-round draw run the
    whole cap of rounds (no stall stop).  The Newton steps carry the
    near-round draw on from -8.246e-4, where its rounds end, to -8.589e-4."""
    rng = np.random.default_rng(47)
    phis = [
        np.eye(6),
        _forty_metric_phis()[1],
        product_phi(ProductParams(np.diag([0.8, 1.0, 1.2]), np.diag([1.0, 1.1, 0.9]))),
        _forty_metric_phis()[0],
    ]
    metrics = [LeftInvariantMetric(g4, phi) for phi in phis]
    c = np.stack([m.curvature_operator() for m in metrics])
    delta = _lower_bound(np.linalg.eigvalsh(c))[1]
    form = _plane_forms(c, delta, 6)
    starts = rng.standard_normal((len(phis), 16, 6))
    starts /= np.linalg.norm(starts, axis=2, keepdims=True)
    stop = np.where(np.arange(len(phis)) < 2, 1e-3 * delta, -np.inf)
    reach = np.full(len(phis), -np.inf)
    iters = 40

    def polish(rows):
        args = form[rows], starts[rows], iters, stop[rows], reach[rows]
        with mock.patch.object(verify.np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
            ends = _alternate(*args)
            out = _newton_pairs(form[rows], *ends, *args[2:])
        return out, _round_eighs(eigh), ends[0]

    (val, a, b), stacked, ends = polish(slice(None))
    assert stacked == 2 * iters
    assert np.array_equal(val[:3], ends[:3]) and val[3] < ends[3] - 3e-5
    rounds = []
    for k in range(len(phis)):
        (vk, ak, bk), calls, _ = polish(slice(k, k + 1))
        assert vk[0] == val[k] and np.array_equal(ak[0], a[k]) and np.array_equal(bk[0], b[k])
        rounds.append(calls // 2)
    assert rounds[2:] == [iters] * 2
    assert len(set(rounds[:2])) == 2 and max(rounds[:2]) < iters
    # each best pair is orthonormal, and its value is the plane's quotient
    x = np.stack([a, b], axis=1)[..., None]
    assert np.abs(np.einsum("tcdn,tedn->tce", x, x) - np.eye(2)).max() < 1e-12
    assert np.abs(_quotient_values((c, _incidence(6)), x)[0][:, 0] - val).max() < 1e-12


def _unstopped_descend(evaluate, retract, x, iters):
    """The plane descent that so(4) verdicts once ran, with no stop scaled
    to the operator, kept as the reference search: every start runs until
    its step falls below 1e-10, its gradient below an absolute 1e-15, or
    ``iters`` steps have passed."""
    x = np.ascontiguousarray(x)
    val, grad = evaluate(x)
    step = np.full(val.shape, 0.05)
    for _ in range(iters):
        active = step >= 1e-10
        if not np.count_nonzero(active):
            break
        gnorm = np.sqrt(np.add.reduce(grad * grad, axis=(1, 2)))
        moving = gnorm > 1e-15
        scale = np.divide(step, gnorm, out=np.zeros_like(step), where=moving)
        cx = retract(x - scale[:, None, None] * grad)
        cv, cg = evaluate(cx)
        better = active & (cv < val)
        keep = better[:, None, None]
        x = np.where(keep, cx, x)
        grad = np.where(keep, cg, grad)
        val = np.where(better, cv, val)
        step = np.where(moving, np.where(better, 1.6, 0.5) * step, 0.0)
    return val, x


def _unstopped(m, seed):
    """The seeded multistart search of so(4) planes, kept as the reference:
    4096 random frames from ``default_rng(seed)`` plus the coordinate and
    metric-eigenvector planes, orthonormal in x, scored by the quotient of
    C; the 64 lowest descend together for 200 steps of
    ``_unstopped_descend``, and the lowest plane reached is mapped back by
    z = V Lambda^-1/2 x.  Returns its re-evaluated curvature and its (2, 6)
    orthonormal frame."""
    samples, restarts, steps = 4096, 64, 200
    op = (m.curvature_operator(), _incidence(6))
    raw = np.random.default_rng(seed).standard_normal((samples, 6, 2))
    pool = np.concatenate([raw.T, _basis_planes(np.eye(6)), _basis_planes(m.eigenvectors)], axis=2)
    x = _to_orthonormal(m, pool)
    starts = x[..., np.argsort(_quotient_values(op, x)[0][0], kind="stable")[:restarts]]
    val, x = _unstopped_descend(lambda s: _quotient_gradient(op, s), _gram_schmidt, starts, steps)
    frame = np.linalg.qr(_to_reference(m, x[0, :, :, np.argmin(val[0])].T))[0]
    return float(normalized_curvature(m, frame[:, 0], frame[:, 1])), frame.T


def _koszul_value(m, witness):
    """The Koszul oracle's plane-normalized curvature at a report's witness."""
    z1, z2 = (np.array(v) for v in witness)
    return koszul_oracle(m, z1, z2) / (m.h(z1, z1) * m.h(z2, z2) - m.h(z1, z2) ** 2)


def _delta(m):
    """The rounding margin delta = 1e-12 ||C||_2 of m's curvature operator."""
    return float(_lower_bound(np.linalg.eigvalsh(m.curvature_operator()))[1])


@functools.lru_cache(maxsize=1)
def _forty_metric_phis():
    """The 40 rotated metrics Q diag(lambda) Q^T of ``default_rng(3)``, even
    draws near-round, odd ones wide."""
    rng = np.random.default_rng(3)
    phis = []
    for k in range(40):
        q = np.linalg.qr(rng.standard_normal((6, 6)))[0]
        lam = rng.uniform(0.7, 1.3, 6) if k % 2 == 0 else rng.uniform(0.3, 3.0, 6)
        phis.append(q @ np.diag(lam) @ q.T)
    return phis


def _family_member(rng, kind):
    """A nonnegatively curved so(4) metric with flat planes, under a random
    automorphism: an S^3-action quotient with a Berger triple lambda, or a
    torus quotient with tau_block inside its bound."""
    if kind == "quotient":
        lam = rng.uniform(0.5, 2.0) * np.array([rng.uniform(0.2, 4.0 / 3.0), 1.0, 1.0])
        phi = s3_action_phi(S3ActionParams(*rng.uniform(0.5, 2.0, 2), rng.permutation(lam)))
    else:
        c, d = rng.uniform(0.5, 2.0, 2)
        angle = rng.uniform(0.0, np.pi)
        rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
        tau = rot @ np.diag(rng.uniform(0.2, 0.98, 2) * (4.0 / 3.0) * min(c, d)) @ rot.T
        a, b = np.zeros((2, 6))
        a[:3], b[3:] = random_rotation(rng)[:, 0], random_rotation(rng)[:, 0]
        phi = torus_phi(TorusParams(c, d, 0.5 * (tau + tau.T)), a, b)
    auto = random_automorphism(rng, bool(rng.integers(2)))
    phi = auto @ phi @ auto.T
    return 0.5 * (phi + phi.T)


def _outside_quotient(rng):
    """An S^3-action quotient with a general lambda in [0.3, 2]^3, mostly
    just outside the nonnegative range, under a random automorphism."""
    phi = s3_action_phi(S3ActionParams(*rng.uniform(0.5, 2.0, 2), rng.uniform(0.3, 2.0, 3)))
    auto = random_automorphism(rng, bool(rng.integers(2)))
    phi = auto @ phi @ auto.T
    return 0.5 * (phi + phi.T)


def _driver_inputs(call):
    """call()'s result and the arguments of its one call of ``_verdicts``."""
    with mock.patch.object(verify, "_verdicts", wraps=_verdicts) as drive:
        out = call()
    assert drive.call_count == 1
    return out, drive.call_args.args


def _certified_row(args):
    """``_certify`` on row 0 of the ``_verdicts`` arguments args, as the
    driver runs it, whether or not the row closes at W = 0 first: the bound
    lambda_min(C + W) and its margin."""
    c, lam0, delta, values, certificate = args[:5]
    bound, margin, _ = _certify(c, lam0, delta, values, *certificate(np.array([0])))
    return float(bound[0]), float(margin[0])


def _certificate(m, tol=DEFAULT_TOL):
    """The Pluecker certificate on m as ``min_curvature`` feeds it to
    ``_verdicts``: whether its lifted bound less its margin proves every
    plane above the certificate floor min(tol, 1e4 delta), the bound
    lambda_min(C + W) and its margin, lifted towards the lowest coordinate
    or metric-eigenvector plane from the flat ones, and how many are flat."""
    args = _driver_inputs(lambda: min_curvature(m))[1]
    delta, values = args[2][0], args[3][0]
    bound, margin = _certified_row(args)
    flats = np.count_nonzero(values <= values.min() + delta)
    return bound - margin >= -min(tol, 1e4 * delta), bound, margin, flats


def _newton_batches(call):
    """call()'s result and the number of operators in each Newton step of
    the Pluecker barrier it took, read from ``np.linalg.cholesky`` as verify
    sees it."""
    with mock.patch.object(verify.np.linalg, "cholesky", wraps=np.linalg.cholesky) as chol:
        out = call()
    return out, [len(args[0]) for args, _ in chol.call_args_list]


def _certified(m, tol=DEFAULT_TOL):
    """Whether the Pluecker certificate proves every plane of m above the
    certificate floor min(tol, 1e4 delta) that ``min_curvature`` uses."""
    return _certificate(m, tol)[0]


def _round_eighs(eigh):
    """The calls of a mocked ``np.linalg.eigh`` that the alternating rounds
    of ``_alternate`` from many starts make: two a round, each on a (rows,
    starts, d, d) stack.  The Newton steps of ``_newton_pairs`` after them
    take one (rows, 2d, 2d) stack a step and their closing round a (rows, 1,
    d, d) one, and neither is counted."""
    return sum(call.args[0].ndim == 4 and call.args[0].shape[1] > 1
               for call in eigh.call_args_list)


def _polish_rounds(m):
    """``min_curvature(m)`` and the rounds of each call of the
    plane polish ``_alternate``, read from ``np.linalg.eigh`` (two calls a
    round) as verify sees it."""
    rounds = []

    def alternate(*args, **kwargs):
        with mock.patch.object(verify.np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
            out = _alternate(*args, **kwargs)
        rounds.append(_round_eighs(eigh) // 2)
        return out

    with mock.patch.object(verify, "_alternate", alternate):
        return min_curvature(m), rounds


@pytest.mark.parametrize("kind", ["quotient", "torus"])
def test_noisy_family_member_closes_below_the_reference_search(g4, kind):
    """A family member plus symmetric noise of relative size 1e-9 to 1e-7 no
    longer attains its bound at a basis plane.  Its certificate lifts the
    bound, the polish reaches it, and the report is exact on most of them:
    its minimum is never above the reference search's by more than delta,
    a verdict differs from the reference only on an exact report whose
    witness the Koszul oracle puts below -tol."""
    rng = np.random.default_rng(61)
    exact = 0
    for seed in range(8):
        phi = _family_member(rng, kind)
        noise = random_symmetric(rng, 6)
        noise *= 10.0 ** rng.uniform(-9.0, -7.0) / np.linalg.norm(noise, 2)
        m = LeftInvariantMetric(g4, phi + noise)
        rep = min_curvature(m)
        ref = _unstopped(m, seed)[0]
        assert rep.lower_bound <= rep.min_value <= ref + _delta(m)
        if rep.negative != (ref < -DEFAULT_TOL):
            assert rep.exact and rep.negative and _koszul_value(m, rep.witness) < -DEFAULT_TOL
        exact += rep.exact
    assert exact >= 6


def test_near_round_draw_closes_below_the_descent(g4):
    """Draw 0 of the 40-metric set kept the reference descent improving for
    its whole run of steps, at -7.76e-4.  Its certificate and one polish round
    close it exactly, lower, at -8.589e-4."""
    m = LeftInvariantMetric(g4, _forty_metric_phis()[0])
    rep, rounds = _polish_rounds(m)
    assert rep.exact and rounds == [1]
    assert abs(rep.min_value + 8.58902e-4) <= 1e-9
    assert rep.min_value < _unstopped(m, 0)[0] - 1e-5


def test_plucker_forms_vanish_on_planes_only():
    """Each of the 15 quadrics is 0 on z1 ^ z2 to rounding; e0 ^ e1 + e2 ^ e3,
    no plane, gives 1 on the quadric of (0, 1, 2, 3) and 0 on the others."""
    forms = _plucker_forms(6)
    assert forms.shape == (15, 15, 15) and np.array_equal(forms, forms.transpose(0, 2, 1))
    rng = np.random.default_rng(71)
    w = wedge_many(rng.standard_normal((50, 6)), rng.standard_normal((50, 6)))
    values = np.einsum("nk,qkl,nl->nq", w, forms, w)
    assert np.abs(values).max() <= 1e-14 * np.einsum("nk,nk->n", w, w).max()
    v = np.zeros(15)
    v[[0, 9]] = 1.0  # the pairs (0, 1) and (2, 3)
    assert np.einsum("k,qkl,l->q", v, forms, v).tolist() == [1.0] + [0.0] * 14


@pytest.mark.parametrize("kind", ["quotient", "torus"])
def test_family_members_are_certified(g4, kind):
    """Quotient and torus members have flat planes and no exact basis
    plane; the Pluecker certificate proves them above -tol at the default
    tol, and at tol 0 (no floor to reach) it proves nothing."""
    rng = np.random.default_rng(73)
    for _ in range(4):
        m = LeftInvariantMetric(g4, _family_member(rng, kind))
        assert _certified(m) and not _certified(m, tol=0.0)


@pytest.mark.parametrize(
    "params, seed",
    [
        (S3ActionParams(1.59, 0.53, (1.97, 1.53, 1.23)), 0),
        (S3ActionParams(0.52, 0.86, (1.51, 1.0, 1.81)), 1),
    ],
)
def test_quotients_just_outside_the_family_close_on_their_negative_witness(g4, params, seed):
    """Two S^3-action quotients just outside the nonnegative range whose
    reference pools' best planes are flat (a stall stop that did not ask
    for a certificate once reported 0.0 on both): the certificate does not
    prove them above -floor, and the lifted bound closes an exact negative
    witness, at or below the reference search's minimum, which the Koszul
    oracle confirms."""
    m = LeftInvariantMetric(g4, s3_action_phi(params))
    assert not _certified(m)
    rep = min_curvature(m)
    assert rep.exact and rep.verdict == VERDICT_NEGATIVE
    assert rep.min_value < -1e-5 and rep.lower_bound <= rep.min_value
    assert rep.min_value <= _unstopped(m, seed)[0] + _delta(m)
    assert _koszul_value(m, rep.witness) < -DEFAULT_TOL


def test_certificate_closes_without_a_random_number(g4):
    """A quotient member, a torus member and a torus path time close on the
    lifted bound, drawing no random number, and a second call gives the
    same report."""
    rng = np.random.default_rng(79)
    quotient = _family_member(rng, "quotient")
    torus = _family_member(rng, "torus")
    path = InverseLinearPath(g4, family_scan_cases(rng, "torus")[0])
    for m in (LeftInvariantMetric(g4, quotient), LeftInvariantMetric(g4, torus), path.metric_at(0.5)):
        with mock.patch("numpy.random.default_rng", side_effect=AssertionError):
            rep = min_curvature(m)
        assert rep.exact and min_curvature(m) == rep


def test_cli_keeps_the_negative_witness_just_outside_the_family(capsys):
    """The CLI on the first of those quotients exits 1 (negative)."""
    args = ["check", "--family", "s3-action", "--a", "1.59", "--b", "0.53",
            "--lambda", "1.97,1.53,1.23"]
    assert cli_main(args) == 1
    assert json.loads(capsys.readouterr().out)["results"][0]["verdict"] == VERDICT_NEGATIVE


@settings(max_examples=12, deadline=None)
@given(kind=st.sampled_from(["quotient", "torus"]), seed=st.integers(0, 2**31 - 1))
def test_family_members_close_on_the_plucker_bound(kind, seed):
    """Quotient and torus members under automorphisms close on the lifted
    bound lambda_min(C + W): the report is exact, its
    lower_bound is that bound less its margin delta, lower_bound <= min_value
    <= lower_bound + 2 delta and |min_value| <= delta, no random number is
    drawn, a second call gives the same report, and no sampled plane lies
    below lower_bound.  Both close on the least-squares solve
    with no Newton step: a torus member's five flat basis planes fix W (a
    near-flat one has more); a quotient member's flat basis planes (one, or
    in some 40 draws three) do not, and its partner planes inside phi's
    repeated eigenspaces do."""
    rng = np.random.default_rng(seed)
    m = LeftInvariantMetric(so4(), _family_member(rng, kind))
    proven, bound, delta, flats = _certificate(m)
    with mock.patch("numpy.random.default_rng", side_effect=AssertionError):
        rep, steps = _newton_batches(lambda: min_curvature(m))
        other = min_curvature(m)
    assert not steps
    if kind == "torus":
        assert flats >= 5
    assert proven and rep.exact
    assert rep.lower_bound == bound - delta
    assert rep.lower_bound <= rep.min_value <= rep.lower_bound + 2.0 * delta
    assert abs(rep.min_value) <= delta
    assert other == rep
    z = rng.standard_normal((2, 2000, 6))
    assert normalized_curvature_many(m, z[0], z[1]).min() >= rep.lower_bound


def test_quotient_members_close_with_no_newton_step(g4):
    """200 quotient members all close exactly on the least-squares solve:
    no Newton step of the barrier is taken."""
    rng = np.random.default_rng(97)
    metrics = [LeftInvariantMetric(g4, _family_member(rng, "quotient")) for _ in range(200)]
    reports, steps = _newton_batches(lambda: [min_curvature(m) for m in metrics])
    assert not steps
    assert all(rep.exact and rep.verdict == VERDICT_NONNEGATIVE for rep in reports)


def test_quotient_closes_whatever_basis_eigh_picks(g4):
    """The route does not depend on eigh's basis of phi's repeated
    eigenspaces: with the eigenvectors turned by a random orthogonal matrix
    inside each repeated cluster before C is built, a quotient member still
    closes exactly on the least-squares solve."""
    rng = np.random.default_rng(101)
    for _ in range(6):
        phi = _family_member(rng, "quotient")
        for _ in range(4):
            m = LeftInvariantMetric(g4, phi)
            v = m.eigenvectors.copy()
            for cols in np.split(np.arange(6), verify._cluster_cuts(m.eigenvalues)):
                if len(cols) > 1:
                    v[:, cols] = v[:, cols] @ np.linalg.qr(rng.standard_normal((len(cols),) * 2))[0]
            m.eigenvectors = v
            rep, steps = _newton_batches(lambda: min_curvature(m))
            assert not steps and rep.exact
            assert rep.lower_bound <= rep.min_value and abs(rep.min_value) <= 2.0 * _delta(m)


def test_torus_members_build_no_partner_planes(g4):
    """The flat basis planes of torus members and torus path times already
    fix W, so the certificate never looks inside an eigenspace for more."""
    rng = np.random.default_rng(103)
    metrics = [LeftInvariantMetric(g4, _family_member(rng, "torus")) for _ in range(20)]
    path = InverseLinearPath(g4, family_scan_cases(rng, "torus")[0])
    metrics += [path.metric_at(t) for t in (0.25, 0.5, 0.75, 1.0)]
    with mock.patch.object(verify, "_partner_planes", side_effect=AssertionError):
        assert all(min_curvature(m).exact for m in metrics)


def test_quotients_just_outside_the_family_close_in_the_cli(capsys):
    """The CLI on the first quotient just outside the family exits 1 with
    an exact report."""
    args = ["check", "--family", "s3-action", "--a", "1.59", "--b", "0.53",
            "--lambda", "1.97,1.53,1.23"]
    assert cli_main(args) == 1
    assert json.loads(capsys.readouterr().out)["results"][0]["exact"] is True


def test_once_seed_dependent_quotient_is_a_negative_witness(g4):
    """S3ActionParams(2, 0.5, (1, 1.40002, 1)), whose lowest eigenvalue of
    C + W is triple: the seeded search called it nonnegative, with minimum
    0.0, at seeds 0 and 3 and negative at seeds 1, 2 and 4.  The report,
    which takes no seed now, is a NegativeWitness that the Koszul oracle
    confirms.  The alternating polish alone stopped short at about
    -3.78e-7; its Newton steps now reach the lifted bound, exactly, at
    -3.876e-7."""
    m = LeftInvariantMetric(g4, s3_action_phi(S3ActionParams(2.0, 0.5, (1.0, 1.40002, 1.0))))
    rep = min_curvature(m)
    assert rep.verdict == VERDICT_NEGATIVE and rep.lower_bound <= rep.min_value
    assert rep.exact and abs(rep.min_value + 3.876e-7) <= 0.001e-7
    assert _koszul_value(m, rep.witness) < -DEFAULT_TOL


def _noisy_family_members():
    """40 family members plus symmetric noise of 2-norm 10^U(-9, -6), from
    ``default_rng(5)``: even draws quotients, odd draws tori."""
    rng = np.random.default_rng(5)
    for k in range(40):
        phi = _family_member(rng, "quotient" if k % 2 == 0 else "torus")
        noise = random_symmetric(rng, 6)
        noise *= 10.0 ** rng.uniform(-9.0, -6.0) / np.linalg.norm(noise, 2)
        yield LeftInvariantMetric(so4(), phi + noise)


def test_noisy_family_members_find_their_negative_witnesses(g4):
    """Of the 40 noisy family members, the seeded search
    called draws 4, 6, 8, 20 and 22 nonnegative; the lifted bound closes
    each as an exact NegativeWitness at its listed minimum, whose witness
    the Koszul oracle puts below -tol, with the whole interval [lower_bound,
    min_value] below -tol.  No other draw changes its verdict."""
    found = {4: -2.25e-9, 6: -2.69e-9, 8: -2.15e-9, 20: -1.26e-9, 22: -6.65e-9}
    negative = {1, 3, 9, 10, 11, 12, 13, 14, 17, 27, 31, 33, 35, 39} | set(found)
    for k, m in enumerate(_noisy_family_members()):
        rep = min_curvature(m)
        assert rep.negative == (k in negative)
        if k in found:
            assert rep.exact and abs(rep.min_value - found[k]) <= 0.01e-9
            assert rep.lower_bound <= rep.min_value < -DEFAULT_TOL
            assert _koszul_value(m, rep.witness) < -DEFAULT_TOL


def test_path_scan_many_mixes_plucker_closed_and_polished_times(g4):
    """One ``path_scan_many`` over a torus path, whose
    times close on the lifted bound, a path to a family member plus 1e-8
    noise, whose times the barrier lifts and the polish closes, and a
    random path, whose time is negative: every entry equals
    ``min_curvature`` on its metric, byte for byte.
    The torus times, the random time and the noisy path's second time are
    exact; at its first time the lifted bound stops 1.6e-13 short of the
    flat plane, half a margin, and the report stays open.  The torus times close on the least-squares solve,
    alone and in the scan, so every Newton step of the scan steps the other
    three times only."""
    rng = np.random.default_rng(91)
    torus = family_scan_cases(rng, "torus")[0]
    family_scan_cases(rng, "s3-action")
    noisy = _family_member(rng, "quotient") + 1e-8 * random_symmetric(rng, 6)
    psis = [torus, np.eye(6) - np.linalg.inv(noisy), 0.3 * random_symmetric(rng, 6)]
    grids = [[0.3, 0.6], [0.5, 1.0], [0.5]]
    scans, steps = _newton_batches(lambda: path_scan_many(g4, psis, grids))
    assert steps and set(steps) == {3}
    for psi, grid, scan in zip(psis, grids, scans):
        path = InverseLinearPath(g4, psi)
        for t, rep in zip(grid, scan):
            alone, steps = _newton_batches(lambda: replace(min_curvature(path.metric_at(t)), t=t))
            assert json.dumps(rep.to_dict()) == json.dumps(alone.to_dict())
            assert (len(steps) == 0) == (psi is torus)
    exact = [[rep.exact for rep in scan] for scan in scans]
    assert exact == [[True, True], [False, True], [True]]
    assert all(_certified(InverseLinearPath(g4, psis[1]).metric_at(t)) for t in grids[1])
    assert scans[2][0].negative


@settings(max_examples=12, deadline=None)
@given(k=st.integers(0, 39), exponent=st.sampled_from([-8, -4, 4, 8]))
@example(k=4, exponent=8)
def test_plane_minimum_is_scale_free(k, exponent):
    """phi -> c phi scales every curvature by 1/c; the certificate's and the
    polish's stops scale with it, so c min_value agrees to 1e-13 and the
    witness plane to 1e-6 on the 40-metric set (an absolute gradient
    threshold once moved draw 4 at c = 1e8 by 1e-12)."""
    c = 10.0**exponent
    phi = _forty_metric_phis()[k]
    rep = min_curvature(LeftInvariantMetric(so4(), phi))
    scaled = min_curvature(LeftInvariantMetric(so4(), c * phi))
    assert abs(c * scaled.min_value - rep.min_value) <= 1e-13 * abs(rep.min_value)
    planes = [np.array(x.witness).T for x in (rep, scaled)]
    projectors = [p @ np.linalg.pinv(p) for p in planes]
    assert np.abs(projectors[0] - projectors[1]).max() <= 1e-6


KINDS = ["near-round", "wide", "log-uniform", "quotient", "torus", "outside"]


def _kind_phi(kind, rng):
    """A random so(4) metric of one of ``KINDS``: a rotated spectrum near 1,
    in [0.3, 3] or log-uniform in [1e-2, 1e2], a family member under an
    automorphism, or an S^3-action quotient with a general lambda (mostly
    just outside the family)."""
    if kind in ("quotient", "torus"):
        phi = _family_member(rng, kind)
    elif kind == "outside":
        phi = _outside_quotient(rng)
    else:
        q = np.linalg.qr(rng.standard_normal((6, 6)))[0]
        if kind == "near-round":
            lam = rng.uniform(0.7, 1.3, 6)
        elif kind == "wide":
            lam = rng.uniform(0.3, 3.0, 6)
        else:
            lam = 10.0 ** rng.uniform(-2.0, 2.0, 6)
        phi = q @ np.diag(lam) @ q.T
    return 0.5 * (phi + phi.T)


@settings(max_examples=20, deadline=None)
@given(kind=st.sampled_from(KINDS), seed=st.integers(0, 2**31 - 1))
@example(kind="outside", seed=1538258)
@example(kind="outside", seed=20407)
@example(kind="outside", seed=191)
def test_polished_verdict_keeps_the_unstopped_verdict(kind, seed):
    """Against the reference search ``_unstopped`` on random so(4) metrics,
    family members and quotients just outside the family: the minimum is
    never above the reference's by more than delta, and a verdict differs
    only where the report is exact and its witness re-evaluates below -tol
    through the Koszul oracle.  A certified metric has no plane below the
    certificate floor.  The example's polish once ran out of rounds in a
    flat valley, 1.26e-12 above the reference (delta 1.21e-12); Newton
    steps now finish it, exactly, 2.35e-11 below.  The polish of seeds 20407
    and 191 once stalled by a saddle, 6.7e-7 and 3.4e-7 above the reference,
    where only a step of both vectors at once lowers the value; the damped
    Newton steps leave it."""
    m = LeftInvariantMetric(so4(), _kind_phi(kind, np.random.default_rng(seed)))
    rep, ref = min_curvature(m), _unstopped(m, seed % 1000)[0]
    delta = _delta(m)
    assert rep.min_value <= ref + delta
    if rep.negative != (ref < -DEFAULT_TOL):
        assert rep.exact and rep.negative and _koszul_value(m, rep.witness) < -DEFAULT_TOL
    if _certified(m):
        assert min(rep.min_value, ref) >= -min(DEFAULT_TOL, 1e4 * delta) - delta


@settings(max_examples=20, deadline=None)
@given(kind=st.sampled_from([*KINDS, "path"]), seed=st.integers(0, 2**31 - 1))
def test_no_so4_plane_report_draws_a_random_number(kind, seed):
    """An so(4) plane report draws no random number: ``min_curvature``, and
    a ``path_scan`` of a random path, run with the generator patched to
    fail, and a second call gives the same reports."""
    rng = np.random.default_rng(seed)
    with mock.patch("numpy.random.default_rng", side_effect=AssertionError):
        if kind == "path":
            psi = 0.3 * random_symmetric(rng, 6)
            scans = [path_scan(so4(), psi, [0.25, 0.5]) for _ in range(2)]
        else:
            m = LeftInvariantMetric(so4(), _kind_phi(kind, rng))
            scans = [[min_curvature(m)] for _ in range(2)]
    assert scans[1] == scans[0]


def test_gram_schmidt_matches_qr_planes():
    rng = np.random.default_rng(43)
    frames = rng.standard_normal((2, 2, 6, 250))
    q = _gram_schmidt(frames)
    gram = np.einsum("tcdn,tedn->tnce", q, q)
    assert np.abs(gram - np.eye(2)).max() < 1e-14
    ref = np.linalg.qr(frames.transpose(0, 3, 2, 1))[0]
    proj = np.einsum("tcin,tcjn->tnij", q, q)
    assert np.abs(proj - ref @ ref.transpose(0, 1, 3, 2)).max() < 1e-13


@settings(max_examples=50, deadline=None)
@given(
    r=st.floats(0.2, 2.0),
    s=st.floats(0.5, 2.0),
    seed=st.integers(0, 2**31 - 1),
)
def test_so3_berger_minimum_is_exact(r, s, seed):
    """On so(3), s Q diag(r, 1, 1) Q^T has minimum sectional curvature
    min(r, 4 - 3r) / (4s), negative exactly when r > 4/3; the closed form
    finds it, and a negative witness re-evaluates through the oracle."""
    assume(abs(r - 4.0 / 3.0) > 1e-3)
    rng = np.random.default_rng(seed)
    q = random_rotation(rng)
    phi = s * q @ np.diag([r, 1.0, 1.0]) @ q.T
    m = LeftInvariantMetric(so3(), 0.5 * (phi + phi.T))
    rep = min_curvature(m)
    expected = min(r, 4.0 - 3.0 * r) / (4.0 * s)
    assert rep.exact and rep.to_dict()["exact"] is True
    assert abs(rep.min_value - expected) <= 1e-9 * abs(expected)
    assert rep.verdict == (VERDICT_NEGATIVE if r > 4.0 / 3.0 else VERDICT_NONNEGATIVE)
    if rep.negative:
        z1, z2 = (np.array(v) for v in rep.witness)
        gram = m.h(z1, z1) * m.h(z2, z2) - m.h(z1, z2) ** 2
        assert koszul_oracle(m, z1, z2) / gram < -1e-9


def test_so3_closed_form_is_below_every_sampled_plane(g3):
    rng = np.random.default_rng(44)
    for _ in range(10):
        m = LeftInvariantMetric(g3, random_spd(rng, 3))
        rep = min_curvature(m)
        z = rng.standard_normal((2, 20_000, 3))
        sampled = normalized_curvature_many(m, z[0], z[1])
        assert rep.min_value <= sampled.min() + 1e-12


def test_so3_near_the_gate_raises_nothing(g3):
    """40 rotations each of diag(1, 1e6, 9e11) and diag(1, 1e5, 1e10), with
    minima near -6.75e5 and -7.5e4: none raises (a Cholesky factor of the
    h-Gram form raised LinAlgError on 6 of these 80), and every report is
    an exact NegativeWitness, finite, with lower_bound <= min_value, whose
    witness re-evaluates below -tol through the Koszul oracle."""
    rng = np.random.default_rng(0)
    for spectrum in ([1.0, 1e6, 9e11], [1.0, 1e5, 1e10]):
        for _ in range(40):
            q = random_rotation(rng)
            phi = q @ np.diag(spectrum) @ q.T
            m = LeftInvariantMetric(g3, 0.5 * (phi + phi.T))
            rep = min_curvature(m)
            assert rep.exact and rep.verdict == VERDICT_NEGATIVE
            assert np.isfinite([rep.min_value, rep.lower_bound]).all()
            assert rep.lower_bound <= rep.min_value
            z1, z2 = (np.array(v) for v in rep.witness)
            gram = m.h(z1, z1) * m.h(z2, z2) - m.h(z1, z2) ** 2
            assert koszul_oracle(m, z1, z2) / gram < -DEFAULT_TOL


def test_searches_never_call_the_connection(g3, g4):
    """The plane verdicts build C in the metric's eigenframe and never call
    ``connection()``, which stays the Koszul oracle's own: with it patched
    to raise, so(3), an so(4) metric that closes on its bound, one that the
    polish closes (wide draw 1 of the 40-metric set) and a path scan all
    report, exactly."""
    boom = mock.Mock(side_effect=AssertionError("connection() called"))
    with mock.patch.object(LeftInvariantMetric, "connection", boom), \
            mock.patch.object(verify, "_alternate", wraps=verify._alternate) as polish:
        assert min_curvature(LeftInvariantMetric(g3, np.diag([1.5, 1.0, 1.0]))).exact
        assert min_curvature(LeftInvariantMetric(g4, np.diag([1.4, 1, 1, 1, 1, 1.0]))).exact
        assert polish.call_count == 0
        assert min_curvature(LeftInvariantMetric(g4, _forty_metric_phis()[1])).exact
        assert polish.call_count == 1
        scan = path_scan(g4, diagonal_subalgebra(g4).projector, [0.1, 0.2])
        assert len(scan) == 2 and all(rep.exact for rep in scan)
    boom.assert_not_called()


@settings(max_examples=25, deadline=None)
@given(
    r=st.floats(1.4, 2.0),
    s=st.floats(0.5, 2.0),
    seed=st.integers(0, 2**31 - 1),
    swap=st.booleans(),
)
def test_berger_excess_minimum_is_exact(r, s, seed, swap):
    """A Berger-excess factor s Q diag(r, 1, 1) Q^T (r > 4/3) next to a
    bi-invariant factor has minimum sectional curvature (1 - 3r/4)/s; an
    automorphism diag(Q1, Q2), optionally with the factor swap, keeps it."""
    rng = np.random.default_rng(seed)
    q = random_rotation(rng)
    phi = np.eye(6)
    phi[:3, :3] = s * q @ np.diag([r, 1.0, 1.0]) @ q.T
    auto = random_automorphism(rng, swap)
    phi = auto @ phi @ auto.T
    m = LeftInvariantMetric(so4(), 0.5 * (phi + phi.T))
    rep = min_curvature(m)
    expected = (1.0 - 0.75 * r) / s
    assert rep.exact
    assert rep.verdict == VERDICT_NEGATIVE
    assert abs(rep.min_value - expected) <= 1e-9 * abs(expected)
    w = np.array(rep.witness)
    assert normalized_curvature(m, w[0], w[1]) < -1e-9


def _pencil_bound(m):
    """lambda_0 and delta = 1e-12 ||pencil||_2 of the pencil (R, H), from a
    general eigensolver on H^-1 R: a route to ``lower_bound`` that shares
    nothing with the operator built in the metric's eigenframe."""
    eigs = np.linalg.eigvals(np.linalg.solve(_gram(m), _reference_operator(m))).real
    return eigs.min(), 1e-12 * np.abs(eigs).max()


def _closing_metric(kind, seed):
    """An so(4) metric whose least curved plane is a coordinate or
    metric-eigenvector plane, under a random automorphism, with its minimum
    in closed form: a Berger-excess block s Q diag(r, 1, 1) Q^T (r in
    [1.4, 2]) next to a bi-invariant one, gives (1 - 3r/4)/s; a product of
    two random so(3) metrics gives the least of 0 and its factors' minima;
    the bi-invariant metric gives 0."""
    rng = np.random.default_rng(seed)
    if kind == "berger":
        r, s = rng.uniform(1.4, 2.0), rng.uniform(0.5, 2.0)
        q = random_rotation(rng)
        blocks, expected = (s * q @ np.diag([r, 1.0, 1.0]) @ q.T, np.eye(3)), (1.0 - 0.75 * r) / s
    elif kind == "product":
        blocks = (random_spd(rng, 3), random_spd(rng, 3))
        factors = (min_curvature(LeftInvariantMetric(so3(), b)).min_value for b in blocks)
        expected = min(0.0, *factors)
    else:
        blocks, expected = (np.eye(3), np.eye(3)), 0.0
    phi = product_phi(ProductParams(*(0.5 * (b + b.T) for b in blocks)))
    auto = random_automorphism(rng, bool(rng.integers(2)))
    phi = auto @ phi @ auto.T
    return LeftInvariantMetric(so4(), 0.5 * (phi + phi.T)), expected


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["berger", "product", "bi-invariant"]), seed=st.integers(0, 2**31 - 1))
def test_closed_reports_attain_the_bound(kind, seed):
    """Products of so(3) metrics close on the bound: the report is exact,
    lower_bound <= min_value <= lower_bound + 2 delta, and min_value is the
    closed form."""
    m, expected = _closing_metric(kind, seed)
    lam0, delta = _pencil_bound(m)
    rep = min_curvature(m)
    assert rep.exact and rep.to_dict()["exact"] is True
    assert abs(rep.lower_bound - (lam0 - delta)) <= 0.1 * delta
    assert rep.lower_bound <= rep.min_value <= rep.lower_bound + 2.0 * delta * (1.0 + 1e-9)
    assert abs(rep.min_value - expected) <= max(1e-12 * abs(expected), delta)


def test_product_and_torus_path_times_close(g4):
    """One ``path_scan_many`` over a product path, whose times
    close on the bound of C, and a torus path, whose times close on the
    lifted bound: every entry equals ``min_curvature`` on its metric."""
    rng = np.random.default_rng(52)
    cases = [family_scan_cases(rng, kind) for kind in ("product", "torus")]
    grid = [0.25, 0.5, 0.75]
    scans = path_scan_many(g4, [psi for psi, _ in cases], [grid, grid])
    for (psi, _), scan in zip(cases, scans):
        path = InverseLinearPath(g4, psi)
        for t, rep in zip(grid, scan):
            alone = min_curvature(path.metric_at(t))
            assert rep.to_dict() == replace(alone, t=t).to_dict()
            assert rep.lower_bound <= rep.min_value
    assert [rep.exact for rep in scans[0] + scans[1]] == [True] * 6
    # a product path stays a product of so(3) metrics: its times close on
    # the least of 0 and the factors' minima, and the one-path scan agrees
    path = InverseLinearPath(g4, cases[0][0])
    again = path_scan(g4, cases[0][0], grid)
    for t, rep, other in zip(grid, scans[0], again):
        m = path.metric_at(t)
        lam0, delta = _pencil_bound(m)
        assert rep.lower_bound <= rep.min_value <= rep.lower_bound + 2.0 * delta * (1.0 + 1e-9)
        factors = (min_curvature(LeftInvariantMetric(so3(), m.phi[b, b])).min_value
                   for b in (slice(0, 3), slice(3, 6)))
        assert abs(rep.min_value - min(0.0, *factors)) <= delta
        assert other == rep


@settings(max_examples=20, deadline=None)
@given(
    kind=st.sampled_from(["berger", "product", "bi-invariant", "random"]),
    seed=st.integers(0, 2**31 - 1),
    log_c=st.floats(-6.0, 6.0),
)
def test_closure_is_scale_free(kind, seed, log_c):
    """phi -> c phi keeps the closure decision and scales lower_bound by
    1/c, as it scales every curvature.  Random metrics close too: on the
    bound the certificate lifts, with the polish's witness."""
    if kind == "random":
        m = LeftInvariantMetric(so4(), random_spd(np.random.default_rng(seed), 6))
    else:
        m = _closing_metric(kind, seed)[0]
    c = 10.0**log_c
    rep = min_curvature(m)
    scaled = min_curvature(LeftInvariantMetric(so4(), c * m.phi))
    assert scaled.exact and rep.exact
    assert abs(c * scaled.lower_bound - rep.lower_bound) <= 100.0 * _pencil_bound(m)[1]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), dim=st.sampled_from([3, 6]))
def test_lower_bound_is_below_the_minimum(seed, dim):
    """lower_bound lies below min_value and below every sampled plane.  On
    so(3) it is the pencil's lambda_0 - delta; on so(4) the certificate
    lifts it from there, and the report closes on it."""
    rng = np.random.default_rng(seed)
    g = so3() if dim == 3 else so4()
    m = LeftInvariantMetric(g, random_spd(rng, dim))
    rep = min_curvature(m)
    lam0, delta = _pencil_bound(m)
    assert rep.lower_bound <= rep.min_value
    z = rng.standard_normal((2, 2000, dim))
    assert rep.lower_bound <= normalized_curvature_many(m, z[0], z[1]).min()
    if dim == 3:
        assert abs(rep.lower_bound - (lam0 - delta)) <= 0.1 * delta
    else:
        assert rep.lower_bound >= lam0 - 1.1 * delta and rep.exact


def test_forty_metric_set_closes_and_detects(g4):
    """The 40-metric set:
    every report is exact, on the bound the certificate lifts, and every
    wide draw has a negative minimum, whose witness re-evaluates below -tol
    through the Koszul oracle."""
    for k, phi in enumerate(_forty_metric_phis()):
        m = LeftInvariantMetric(g4, phi)
        rep = min_curvature(m)
        assert rep.exact
        assert rep.lower_bound <= rep.min_value
        if k % 2:
            assert rep.verdict == VERDICT_NEGATIVE
            assert _koszul_value(m, rep.witness) < -DEFAULT_TOL


def test_near_gate_metrics_close_only_where_the_routes_agree(g4):
    """Rotated so(4) metrics with condition numbers 1e10 to 1e11.9, generic
    and products: building the metric may raise NotPositiveDefinite, the
    search raises nothing, and a report is exact only where the Puttmann
    value at its witness and the operator's quotient there agree within
    delta (near the gate the operator's rounding can break that)."""
    rng = np.random.default_rng(53)
    closed = 0
    for k in range(24):
        top = 10.0 ** rng.uniform(10.0, 11.9)
        if k % 2:
            q = random_rotation(rng)
            blocks = (q @ np.diag([rng.uniform(1.4, 2.0), 1.0, 1.0]) @ q.T,
                      top * np.diag(rng.uniform(0.5, 1.0, 3)))
            phi = product_phi(ProductParams(*(0.5 * (b + b.T) for b in blocks)))
            auto = random_automorphism(rng, bool(k % 4 == 1))
            phi = auto @ phi @ auto.T
        else:
            q = np.linalg.qr(rng.standard_normal((6, 6)))[0]
            lam = np.concatenate([[1.0, top], 10.0 ** rng.uniform(0.0, np.log10(top), 4)])
            phi = q @ np.diag(lam) @ q.T
        try:
            m = LeftInvariantMetric(g4, 0.5 * (phi + phi.T))
        except NotPositiveDefinite:
            continue
        rep = min_curvature(m)
        r, h = _reference_operator(m), _gram(m)
        delta = _delta(m)
        w = wedge_many(*(np.array(v)[None] for v in rep.witness))[0]
        if abs(rep.min_value - (w @ r @ w) / (w @ h @ w)) > delta:
            assert not rep.exact
        closed += rep.exact
    assert closed >= 1


def test_near_gate_family_members_close_only_where_the_routes_agree(g4):
    """Quotient members with lambda scaled by 1e-4 to 1e-11.9 and torus
    members with a tau eigenvalue that small, under automorphisms, where
    the Pluecker certificate runs: a report is exact
    only where the Puttmann value at its witness and the operator's quotient
    there agree within delta, and only on a lower bound at or above -tol;
    the rounding near the gate breaks that agreement for many of them."""
    rng = np.random.default_rng(54)
    disagree = 0
    for k in range(24):
        small = 10.0 ** -rng.uniform(4.0, 11.9)
        if k % 2:
            c, d = rng.uniform(0.5, 2.0, 2)
            angle = rng.uniform(0.0, np.pi)
            rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
            tau = rot @ np.diag([small, rng.uniform(0.2, 0.98)]) @ rot.T * (4.0 / 3.0) * min(c, d)
            phi = torus_phi(TorusParams(c, d, 0.5 * (tau + tau.T)))
        else:
            lam = small * np.array([rng.uniform(0.2, 4.0 / 3.0), 1.0, 1.0])
            phi = s3_action_phi(S3ActionParams(*rng.uniform(0.5, 2.0, 2), rng.permutation(lam)))
        auto = random_automorphism(rng, bool(rng.integers(2)))
        phi = auto @ phi @ auto.T
        try:
            m = LeftInvariantMetric(g4, 0.5 * (phi + phi.T))
        except NotPositiveDefinite:
            continue
        rep = min_curvature(m)
        r, h = _reference_operator(m), _gram(m)
        w = wedge_many(*(np.array(v)[None] for v in rep.witness))[0]
        if abs(rep.min_value - (w @ r @ w) / (w @ h @ w)) > _delta(m):
            assert not rep.exact
            disagree += 1
        if rep.exact:
            assert rep.lower_bound >= -DEFAULT_TOL
    assert disagree >= 4


def test_infinitesimal_torus_flat(g4):
    """A torus derivative is flat on its pairs: the pair report carries a
    lower bound at or below its minimum and is exact."""
    rep = infinitesimal_check(g4, torus_psi(0.9, -0.3, 0.2, 1.4, 0.6))
    assert rep.verdict == VERDICT_NONNEGATIVE
    assert abs(rep.min_value) < 1e-9
    assert rep.exact and rep.lower_bound <= rep.min_value
    assert rep.to_dict()["lower_bound"] == rep.lower_bound


def test_infinitesimal_enlarging_diagonal_negative(g4):
    from liecurv import diagonal_subalgebra

    rep = infinitesimal_check(g4, diagonal_subalgebra(g4).projector)
    assert rep.verdict == VERDICT_NEGATIVE
    # -6 * max |[x^h, y^h]|^2 = -3/4; the polish ends at a stationary pair,
    # so the minimum meets it to rounding, not to a search tolerance
    assert abs(rep.min_value + 0.75) <= 1e-12 * 0.75
    assert rep.small_t is not None
    for t, val in rep.small_t:
        assert val < 0.0


def test_infinitesimal_torus_stops_on_rounding_noise(g4, monkeypatch):
    """A torus psi has a pair form made of rounding noise.  The margin of
    its bound scales with psi, not with that noise, so the cheap witness
    closes on lambda_min(G) at W = 0: no Segre solve, no barrier and no
    open polish runs (in the pair route only that polish takes Newton
    steps)."""
    psi = torus_psi(0.5, -0.2, 0.3, 0.9, 0.4)
    form = _pair_form(g4, psi)
    assert np.abs(form).max() < 1e-12
    for name in ("_plucker_weights", "_barrier", "_newton_pairs"):
        monkeypatch.setattr(verify, name, mock.Mock(side_effect=AssertionError(name)))
    rep = infinitesimal_check(g4, psi)
    assert rep.verdict == VERDICT_NONNEGATIVE and rep.exact
    assert abs(rep.min_value) < 1e-9
    margin = 1e-12 * np.linalg.norm(psi, 2) ** 3
    assert rep.lower_bound == np.linalg.eigh(form)[0][0] - margin


@pytest.mark.parametrize("swap", [False, True])
def test_shrink_projector_closes_on_the_segre_solve_alone(g4, swap):
    """-c S P S^T, P the diagonal projector under an automorphism S, has
    minimum 0 on commuting pairs, but lambda_min(G) lies below it, so W = 0
    does not close.  The Segre solve on the rounds' pairs does: no open
    polish runs (no Newton step is built), and kappa''' is evaluated on
    one row, the witness's, as G comes in closed form."""
    rng = np.random.default_rng(62)
    s = random_automorphism(rng, swap)
    psi = -rng.uniform(0.5, 1.5) * s @ diagonal_subalgebra(g4).projector @ s.T
    assert np.linalg.eigvalsh(_pair_form(g4, psi))[0] < -1e-3
    rows = []

    def third(g, psi, xs, ys):
        rows.append(len(xs))
        return kappa_third_deriv_many(g, psi, xs, ys)

    with mock.patch.object(verify, "_newton_pairs", side_effect=AssertionError("_newton_pairs")), \
            mock.patch.object(verify, "_barrier", side_effect=AssertionError("_barrier")), \
            mock.patch.object(verify, "kappa_third_deriv_many", third), \
            mock.patch.object(verify, "_plucker_weights", wraps=verify._plucker_weights) as solve:
        rep = infinitesimal_check(g4, psi)
    assert rep.exact and rep.verdict == VERDICT_NONNEGATIVE
    assert rep.lower_bound <= rep.min_value and abs(rep.min_value) <= 1e-12
    assert solve.call_count == 1 and rows == [1]


@pytest.mark.parametrize("c", [1.0, 0.7, -1.3])
def test_axis_aligned_projector_closes_on_the_certificate(g4, monkeypatch, c):
    """c times the diagonal projector, unconjugated: eigh's basis of G's
    repeated lowest eigenspace is aligned with the axes, so at c = 1 its
    three polished pairs leave the Segre weights free, the solve falls
    short and the barrier closes.  No open polish runs (no Newton step is
    built), and the report is exact at min(-3/4 c^3, 0)."""
    monkeypatch.setattr(verify, "_newton_pairs", mock.Mock(side_effect=AssertionError("open")))
    barrier = mock.Mock(wraps=verify._barrier)
    monkeypatch.setattr(verify, "_barrier", barrier)
    rep = infinitesimal_check(g4, c * diagonal_subalgebra(g4).projector)
    assert rep.exact and rep.lower_bound <= rep.min_value
    assert abs(rep.min_value - min(-0.75 * c**3, 0.0)) <= 1e-12
    assert barrier.call_count == (c == 1.0)


def test_infinitesimal_small_t_entries_are_one_time_curves(g4):
    # small_t is read in one kappa_of_t_many call over the times below half
    # the horizon; each entry is bitwise kappa_of_t at its time
    for psi, times in (
        (diagonal_subalgebra(g4).projector, [1e-4, 1e-3, 1e-2, 5e-2]),
        (20.0 * diagonal_subalgebra(g4).projector, [1e-4, 1e-3, 1e-2]),
    ):
        rep = infinitesimal_check(g4, psi)
        path = InverseLinearPath(g4, psi)
        assert [t for t, _ in rep.small_t] == times
        x, y = (np.array(v) for v in rep.witness)
        for t, val in rep.small_t:
            assert val == kappa_of_t(path, x, y, t)


def test_infinitesimal_quotient_family_nonnegative(g4):
    psi = s3_action_psi(0.0, 0.0, np.array([1.0, 1.0, 4.0 / 3.0]))
    rep = infinitesimal_check(g4, psi)
    assert rep.verdict == VERDICT_NONNEGATIVE
    assert rep.min_value >= -1e-9


def test_infinitesimal_quotient_family_random_parameters(g4):
    # valid lambda triples are eigenvalue sets of nonnegatively curved
    # 3-dim metrics; any alpha, beta below 1 then keep the variation flat
    # or better on commuting pairs
    from liecurv.suites import berger_triple

    rng = np.random.default_rng(30)
    for _ in range(5):
        psi = s3_action_psi(
            rng.uniform(-1.0, 0.9), rng.uniform(-1.0, 0.9), berger_triple(rng)
        )
        rep = infinitesimal_check(g4, psi)
        assert rep.min_value >= -1e-9


def test_quotient_eigenvalue_paths_nonnegative_on_so3(g3):
    # the 3-dim inverse-linear family stays positive and verifies nonnegative;
    # lambda must itself be the eigenvalue set of a nonnegatively curved
    # metric (a berger triple here) for the family construction to apply
    from liecurv import inverse_linear_eigs_s3
    from liecurv.suites import berger_triple

    rng = np.random.default_rng(32)
    for _ in range(5):
        alpha = rng.uniform(-1.5, 0.95)
        lam = berger_triple(rng)
        for t in (0.3, 0.9):
            eigs = inverse_linear_eigs_s3(alpha, lam, t)
            m = LeftInvariantMetric(g3, np.diag(eigs))
            rep = min_curvature(m)
            assert rep.verdict == VERDICT_NONNEGATIVE
            assert rep.min_value >= -1e-9


def test_infinitesimal_witness_reproduces(g4):
    from liecurv import diagonal_subalgebra

    psi = diagonal_subalgebra(g4).projector
    rep = infinitesimal_check(g4, psi)
    w = np.array(rep.witness)
    assert abs(kappa_third_deriv(g4, psi, w[0], w[1]) - rep.min_value) < 1e-12


def test_infinitesimal_check_rejects_so3(g3):
    with pytest.raises(ValueError, match="no factor decomposition"):
        infinitesimal_check(g3, 0.3 * np.eye(3))


def _pair_rows(g, ab):
    """Full-length vectors (a, 0) and (0, b) of the (1, 2, 3, n) stack [a, b]."""
    xs = np.zeros((ab.shape[-1], g.dim))
    ys = np.zeros((ab.shape[-1], g.dim))
    xs[:, :3] = ab[0, 0].T
    ys[:, 3:] = ab[0, 1].T
    return xs, ys


def _polarized_pair_form(g, psi):
    """The reference G: kappa'''(0) is biquadratic in the pair, so T is its
    polarization, T_ijkl = sum over s, t = +-1 of s t f(e_i + s e_j, e_k +
    t e_l) / 16, read off one batch of 324 closed-form evaluations."""
    signs = np.array([1.0, -1.0])
    e = np.eye(3)
    u = (e[:, None, None, :] + signs[None, None, :, None] * e[None, :, None, :]).reshape(18, 3)
    idx1, idx2 = (list(ix) for ix in g.factor_split)
    xs, ys = np.zeros((2, 18, 18, g.dim))
    xs[:, :, idx1] = u[:, None, :]
    ys[:, :, idx2] = u[None, :, :]
    f = kappa_third_deriv_many(g, psi, xs.reshape(-1, g.dim), ys.reshape(-1, g.dim))
    t = np.einsum("ijsklt,s,t->ijkl", f.reshape(3, 3, 2, 3, 3, 2), signs, signs) / 16.0
    return t.transpose(0, 2, 1, 3).reshape(9, 9)


def _checked_pair_form(g, psi):
    """``_pair_form(g, psi)``, checked to be exactly symmetric and to match
    the polarization entrywise to 1e-14 max(1, ||psi||_2^3)."""
    form = _pair_form(g, psi)
    assert form.shape == (9, 9)
    assert np.array_equal(form, form.T)
    # G[(i, k), (j, l)] = T_ijkl with T symmetric in (i, j) and in (k, l)
    t = form.reshape(3, 3, 3, 3).transpose(0, 2, 1, 3)
    assert np.array_equal(t, t.transpose(1, 0, 2, 3))
    assert np.array_equal(t, t.transpose(0, 1, 3, 2))
    scale = max(1.0, np.linalg.norm(psi, 2) ** 3)
    assert np.abs(form - _polarized_pair_form(g, psi)).max() <= 1e-14 * scale
    return form


@pytest.mark.parametrize("kind", ["torus", "quotient", "projector", "symmetric"])
def test_pair_form_matches_closed_form(g4, kind):
    rng = np.random.default_rng(41)
    psi = {
        "torus": torus_psi(0.9, -0.3, 0.2, 1.4, 0.6),
        "quotient": s3_action_psi(0.2, -0.4, np.array([0.7, 1.0, 1.3])),
        "projector": diagonal_subalgebra(g4).projector,
        "symmetric": random_symmetric(rng, 6),
    }[kind]
    form = _checked_pair_form(g4, psi)
    ab = _unit_columns(rng.standard_normal((1, 2, 3, 250)))
    ref = kappa_third_deriv_many(g4, psi, *_pair_rows(g4, ab))
    got = _quotient_values((form, np.eye(9)), ab)[0][0]
    assert np.abs(got - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), scale=st.floats(1e-3, 1e3))
def test_pair_form_matches_the_polarization(seed, scale):
    """The closed-form G equals the polarization of 324 kappa''' rows to
    rounding at the scale of psi^3, and is exactly symmetric, on random
    symmetric psi of any size."""
    _checked_pair_form(so4(), scale * random_symmetric(np.random.default_rng(seed), 6))


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    p=st.floats(0.0, 2.0 * np.pi),
    q=st.floats(0.0, 2.0 * np.pi),
)
def test_mixing_angles_are_gauge(seed, p, q):
    """On x = cos p (a, 0) + sin p (0, b), y = -sin q (a, 0) + cos q (0, b)
    the bivector is x^y = cos(p - q) (a, 0)^(0, b), so kappa'''(x, y) is
    cos^2(p - q) kappa'''((a, 0), (0, b))."""
    g = so4()
    rng = np.random.default_rng(seed)
    psi = random_symmetric(rng, 6)
    av, bv = _pair_rows(g, _unit_columns(rng.standard_normal((1, 2, 3, 1))))
    x = np.cos(p) * av + np.sin(p) * bv
    y = -np.sin(q) * av + np.cos(q) * bv
    plain = kappa_third_deriv_many(g, psi, av, bv)[0]
    mixed = kappa_third_deriv_many(g, psi, x, y)[0]
    assert abs(mixed - np.cos(p - q) ** 2 * plain) <= 1e-12 * max(1.0, abs(plain))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_pair_minimum_is_a_stationary_lower_envelope(seed):
    """The reported minimum lies below kappa'''(0) on random unit pairs, and
    the witness is stationary: no b improves on it for its a, and no a for
    its b."""
    g = so4()
    rng = np.random.default_rng(seed)
    psi = random_symmetric(rng, 6, unit_norm=False)
    scale = np.linalg.norm(psi, 2) ** 3
    rep = infinitesimal_check(g, psi)
    xs, ys = _pair_rows(g, _unit_columns(rng.standard_normal((1, 2, 3, 2000))))
    assert rep.min_value <= kappa_third_deriv_many(g, psi, xs, ys).min() + 1e-12 * scale
    x, y = (np.array(v) for v in rep.witness)
    t = _pair_form(g, psi).reshape(3, 3, 3, 3)  # [i, k, j, l]
    g_a = np.einsum("ikjl,i,j->kl", t, x[:3], x[:3])
    g_b = np.einsum("ikjl,k,l->ij", t, y[3:], y[3:])
    for lam in (np.linalg.eigvalsh(g_a)[0], np.linalg.eigvalsh(g_b)[0]):
        assert abs(rep.min_value - lam) <= 1e-12 * scale


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), swap=st.booleans())
def test_pair_minimum_is_automorphism_invariant_and_draws_nothing(seed, swap):
    """The minimum is unchanged under psi -> S psi S^T for an automorphism
    S = diag(Q1, Q2), optionally with the factor swap, and the search draws
    no random number: it runs with the generator patched to fail, and a
    second call gives the same report."""
    g = so4()
    rng = np.random.default_rng(seed)
    psi = random_symmetric(rng, 6, unit_norm=False)
    s = random_automorphism(rng, swap)
    with mock.patch("numpy.random.default_rng", side_effect=AssertionError):
        rep = infinitesimal_check(g, psi)
        moved = infinitesimal_check(g, s @ psi @ s.T)
        assert infinitesimal_check(g, psi) == rep
    assert abs(moved.min_value - rep.min_value) <= 1e-12 * np.linalg.norm(psi, 2) ** 3


def _grid_pair_reference(form):
    """The pair search that ``infinitesimal_check`` ran alone before the
    Segre certificate, kept as the reference: 4096 Fibonacci points on the
    upper hemisphere (a and -a give one value, so they cover RP^2) scored
    by the smallest eigenvalue of G_a, the 64 lowest polished by 200
    alternating rounds with no stop.  Returns the lowest value reached."""
    samples, restarts, rounds = 4096, 64, 200
    m = form.reshape(3, 3, 3, 3).transpose(0, 2, 1, 3).reshape(9, 9)
    k = np.arange(samples)
    z = (k + 0.5) / samples
    lon = np.pi * (3.0 - np.sqrt(5.0)) * k
    r = np.sqrt(1.0 - z * z)
    grid = np.stack([r * np.cos(lon), r * np.sin(lon), z], axis=1)

    def outer(v):
        return (v[:, :, None] * v[:, None, :]).reshape(len(v), 9)

    scores = np.linalg.eigvalsh((outer(grid) @ m).reshape(-1, 3, 3))[:, 0]
    a = grid[np.argsort(scores, kind="stable")[:restarts]]
    for _ in range(rounds):
        b = np.linalg.eigh((outer(a) @ m).reshape(-1, 3, 3))[1][..., 0]
        low, vec = np.linalg.eigh((outer(b) @ m.T).reshape(-1, 3, 3))
        a = vec[..., 0]
    return float(low[:, 0].min())


@settings(max_examples=20, deadline=None)
@given(kind=st.sampled_from(["random", "family"]), seed=st.integers(0, 2**31 - 1))
def test_pair_lower_bound_holds_and_closes_on_the_reference(kind, seed):
    """On random symmetric psi and on conjugated family derivatives (the
    pair benchmark's kinds), ``lower_bound`` lies below kappa'''(0) on 2000
    random unit pairs, it is the certificate's bound less its margin delta,
    an exact report meets it within 2 delta, and the minimum is never above
    the grid reference's by more than delta."""
    g = so4()
    rng = np.random.default_rng(seed)
    if kind == "random":
        psi = random_symmetric(rng, 6, unit_norm=False)
    else:
        psi = _pair_verdict_psis(rng, 4)[seed % 4]
    rep, args = _driver_inputs(lambda: infinitesimal_check(g, psi))
    form = _pair_form(g, psi)
    bound, margin = _certified_row(args)
    assert rep.lower_bound == bound - margin
    xs, ys = _pair_rows(g, _unit_columns(rng.standard_normal((1, 2, 3, 2000))))
    assert rep.lower_bound <= kappa_third_deriv_many(g, psi, xs, ys).min()
    if rep.exact:
        assert rep.min_value - rep.lower_bound <= 2.0 * margin
    assert rep.min_value <= _grid_pair_reference(form) + margin


def _choi_form():
    """The 9x9 G of Choi's biquadratic form, sum x_i^2 y_i^2 + 2 (x1^2 y2^2 +
    x2^2 y3^2 + x3^2 y1^2) - 2 (x1 x2 y1 y2 + x2 x3 y2 y3 + x3 x1 y3 y1):
    nonnegative, zero at (e1, e3), and no sum of squares (Choi, *Positive
    semidefinite biquadratic forms*, Linear Algebra Appl. 1975)."""
    t = np.zeros((3, 3, 3, 3))  # [i, j, k, l] of x_i x_j y_k y_l
    for i in range(3):
        j = (i + 1) % 3
        t[i, i, i, i] = 1.0
        t[i, i, j, j] = 2.0
        for p, q in ((i, j), (j, i)):
            t[p, q, i, j] = t[p, q, j, i] = -0.5
    return t.transpose(0, 2, 1, 3).reshape(9, 9)


def test_choi_form_stays_open_and_runs_the_open_polish(g4, monkeypatch):
    """Choi's nonnegative form has no Segre certificate.  Fed in as the pair
    form, and as kappa''' itself, its lifted bound stays below the minimum
    0, the report is open, and the open polish runs its Newton steps and
    finds 0."""
    form = _choi_form()

    def choi(g, psi, xs, ys):
        w = (xs[:, :3, None] * ys[:, None, 3:]).reshape(-1, 9)
        return np.einsum("ni,ij,nj->n", w, form, w)

    monkeypatch.setattr(verify, "_pair_form", lambda g, psi: form)
    monkeypatch.setattr(verify, "kappa_third_deriv_many", choi)
    newton = mock.Mock(wraps=_newton_pairs)
    monkeypatch.setattr(verify, "_newton_pairs", newton)
    rep = infinitesimal_check(g4, np.eye(6))
    assert newton.call_count == 1
    assert not rep.exact and rep.verdict == VERDICT_NONNEGATIVE
    assert abs(rep.min_value) <= 1e-12
    assert rep.lower_bound < rep.min_value - 1e-3


def _symmetric_draw(seed, index):
    """psi = m + m^T for draw ``index`` of m, standard normal 6x6 from
    ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    for _ in range(index + 1):
        m = rng.standard_normal((6, 6))
    return m + m.T


@pytest.mark.parametrize("seed, index", [(100, 227), (102, 301), (102, 374), (102, 523),
                                         (102, 724), (102, 788)])
def test_open_pair_polishes_to_the_grid_minimum(g4, seed, index):
    """Draw ``index`` of psi = m + m^T, m standard normal from
    ``default_rng(seed)``: six of 3000 such draws leave the Segre
    certificate open, and on each its three polished pairs end in the wrong
    basin, up to 4.7% of ||psi||^3 above the minimum.  The open polish from
    every eigenvector of G + W and of G reaches the grid reference's
    minimum, and the report closes exact there."""
    psi = _symmetric_draw(seed, index)
    form = _pair_form(g4, psi)
    rep, args = _driver_inputs(lambda: infinitesimal_check(g4, psi))
    bound, margin = _certified_row(args)
    assert args[3].min() > bound + margin  # the certificate alone leaves it open
    assert rep.exact and rep.verdict == VERDICT_NEGATIVE
    assert abs(rep.min_value - _grid_pair_reference(form)) <= margin


def _entry_bytes(entry):
    """A ``_verdicts`` pair entry as bytes: witness, value, exact, bound."""
    (av, bv), value, exact, lower = entry
    return av.tobytes(), bv.tobytes(), value.hex(), exact, lower.hex()


def test_stacked_pair_rows_equal_single_runs(g4):
    """``_verdicts`` on a stack of pair rows gives each row what it gets
    alone, byte for byte, as ``path_scan_many`` does for planes.  The rows
    close at W = 0 (a torus psi), on the Segre solve (draw 1 of psi = m +
    m^T from ``default_rng(16)``), on the barrier (its draw 0) and after the
    open polish (draws 227 of ``default_rng(100)`` and 301 of
    ``default_rng(102)``, polished together)."""
    psis = [torus_psi(0.5, -0.2, 0.3, 0.9, 0.4), _symmetric_draw(16, 1), _symmetric_draw(16, 0),
            _symmetric_draw(100, 227), _symmetric_draw(102, 301)]
    inputs, routes = [], []
    for psi in psis:
        spies = [mock.patch.object(verify, name, wraps=getattr(verify, name))
                 for name in ("_plucker_weights", "_barrier", "_newton_pairs")]
        with spies[0] as solve, spies[1] as barrier, spies[2] as polish:
            rep, args = _driver_inputs(lambda: infinitesimal_check(g4, psi))
        routes.append((solve.call_count, barrier.call_count, polish.call_count))
        single = _verdicts(*args)[0]
        assert (rep.min_value, rep.exact, rep.lower_bound) == single[1:]
        inputs.append((args, _entry_bytes(single)))
    assert routes == [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1), (1, 1, 1)]

    def stacked(k):
        return np.concatenate([args[k] for args, _ in inputs])

    def joined(k, per_row):
        """The stage callable k over the stacked rows: the entries at
        per_row joined row by row, the others shared."""
        def call(rows):
            parts = zip(*(inputs[r][0][k](np.array([0])) for r in rows))
            return tuple(np.concatenate(p) if j in per_row else p[0] for j, p in enumerate(parts))
        return call

    entries = _verdicts(*map(stacked, range(4)), joined(4, (0, 1, 3)), joined(5, (0, 1, 2)),
                        DEFAULT_TOL, lambda r, point: inputs[r][0][7](0, point))
    assert [_entry_bytes(entry) for entry in entries] == [single for _, single in inputs]


def _lifted_row(shape, lam):
    """The ``_verdicts`` inputs of one row C = diag(lam, 1, ..., 1) + K, K
    the first quadric, as a plane operator (15x15, Pluecker quadrics) or as a
    pair form (9x9, Segre quadrics).  The search set is the basis vectors,
    all decomposable, on which K vanishes.  K puts lambda_min(C) below lam,
    so W = 0 does not close, and the solve at the one flat point e_0 takes W
    = -K, which lifts the bound to lam."""
    forms, d, read, lowest = ((_plucker_forms(6), 6, _incidence(6).T, 3) if shape == "plane"
                              else (_segre_forms(), 3, np.eye(9), 9))
    k = forms.shape[1]
    c = (np.diag([lam] + [1.0] * (k - 1)) + forms[0])[None]
    lam0, delta = _lower_bound(np.linalg.eigvalsh(c))
    polish = _plane_forms(c, delta, d) if shape == "plane" else _biquadratic(c[0])[None]

    def witness(r, point):
        w = np.eye(k)[point] if isinstance(point, int) else read.T @ np.outer(*point).ravel()
        return point, float(w @ c[r] @ w / (w @ w))

    return (c, lam0, delta, np.diag(c[0])[None],
            lambda rows: (forms[None], np.eye(k)[None], None, np.zeros(1)),
            lambda rows: (polish, np.zeros((1, 0, d)), 1e-3 * delta, read, lowest), DEFAULT_TOL,
            witness)


@pytest.mark.parametrize("shape", ["plane", "pair"])
def test_one_floor_rule_for_planes_and_pairs(shape):
    """A lifted bound that, within its margin, straddles -floor = -tol
    decides nothing, for a plane row and a pair row alike: at lam = -tol
    the point e_0 attains the lifted bound lam, but the row stays open.  At
    lam = -1e-6 the same row closes exact on the lifted bound."""
    for lam, closes in ((-DEFAULT_TOL, False), (-1e-6, True)):
        args = _lifted_row(shape, lam)
        [(_, value, exact, lower)] = _verdicts(*args)
        assert exact == closes
        assert args[1][0] < -0.1 and abs(value - lam) <= 1e-15
        assert lower < lam < lower + 1e-11


def _clustered(psi) -> EigenStructure:
    return EigenStructure.from_eigh(*np.linalg.eigh(psi))


def test_eigenstructure_clustering():
    es = _clustered(np.eye(6))
    assert len(es.eigenspaces) == 1
    assert abs(es.eigenvalues[0] - 1.0) < 1e-15
    assert es.smallest.shape == (6, 6)

    m = torus_psi(0.2, 3.0, 1.0, 2.0, 0.0)
    es = _clustered(m)
    assert abs(es.eigenvalues[0] - 0.2) < 1e-15
    assert es.smallest.shape == (6, 2)

    near = np.diag([1.0, 1.0 + 1e-12, 2.0, 2.0, 2.0, 3.0])
    es = _clustered(near)
    assert [s.shape[1] for s in es.eigenspaces] == [2, 3, 1]


def test_eigenstructure_spaces_orthogonal_and_invariant(g4):
    rng = np.random.default_rng(12)
    psi = random_symmetric(rng, 6)
    es = _clustered(psi)
    for i, space in enumerate(es.eigenspaces):
        resid = psi @ space - es.eigenvalues[i] * space
        assert np.abs(resid).max() < 1e-8
        for other in es.eigenspaces[i + 1:]:
            assert np.abs(space.T @ other).max() < 1e-10


def test_eigenstructure_clusters_match_split_and_mean():
    """``EigenStructure.from_eigh`` slices each cluster and divides its sum
    by its size: bit for bit ``np.split``'s blocks and each block's
    ``mean()``, on spectra with repeated, rounded-apart and zero values."""
    rng = np.random.default_rng(17)
    for n in range(300):
        d = (3, 6)[n % 2]
        vals = rng.choice([-1.0, 0.0, 0.5, 1.0, 2.0], size=d) * 10.0 ** rng.integers(-3, 4)
        q = np.linalg.qr(rng.standard_normal((d, d)))[0]
        m = q @ np.diag(vals) @ q.T
        w, v = np.linalg.eigh(0.5 * (m + m.T))
        es = EigenStructure.from_eigh(w, v)
        cuts = _cluster_cuts(w)
        want = np.array([float(c.mean()) for c in np.split(w, cuts)])
        assert es.eigenvalues.tobytes() == want.tobytes()
        assert [b.tobytes() for b in es.eigenspaces] == [
            b.tobytes() for b in np.split(v, cuts, axis=1)
        ]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_lemma_k_rejects_non_finite(g4, bad):
    psi = torus_psi(-0.5, 0.8, 0.1, 0.9, 0.4)
    psi[0, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        lemma_k_check(g4, psi)


def test_lemma_k_torus_and_scalar_pass(g4):
    rep = lemma_k_check(g4, torus_psi(-0.5, 0.8, 0.1, 0.9, 0.4))
    assert rep.passed
    rep = lemma_k_check(g4, 0.7 * np.eye(6))
    assert rep.passed
    assert rep.max_residual < 1e-12


def test_lemma_k_projection_passes_despite_negative_variation(g4):
    """Projections onto subalgebras satisfy the generation property even when
    the enlarging variation picks up negative curvature: for x orthogonal to
    the subalgebra, [x, y^h] stays orthogonal to it by invariance of the
    inner product, so the check is one-directional by design."""
    from liecurv import diagonal_subalgebra

    proj = diagonal_subalgebra(g4).projector
    assert lemma_k_check(g4, proj).passed
    assert infinitesimal_check(g4, proj).verdict == VERDICT_NEGATIVE


def _constructed_failure(case):
    if case == "factor":
        # smallest eigenspace is span{A1}; psi maps its commuting partner B1
        # to 3 B1 + A2, and [A1, A2] = A3 escapes the eigenspace
        psi = np.diag([0.0, 2.0, 2.0, 3.0, 3.0, 3.0])
        psi[1, 3] = psi[3, 1] = 1.0
        return psi
    # a generic smallest eigenspace of dimension 1 or 2
    second = 5.0 if case == "generic-1d" else 0.0
    q = np.linalg.qr(np.random.default_rng(24).standard_normal((6, 6)))[0]
    return q @ np.diag([0.0, second, 1.0, 2.0, 3.0, 4.0]) @ q.T


@pytest.mark.parametrize("case", ["factor", "generic-1d", "generic-2d"])
def test_lemma_k_detects_constructed_failure(g4, case):
    psi = _constructed_failure(case)
    rep = lemma_k_check(g4, psi)
    assert not rep.passed
    assert rep.max_residual > 1e-3
    # and consistently, the variation fails the infinitesimal test
    inf = infinitesimal_check(g4, psi)
    assert inf.verdict == VERDICT_NEGATIVE


def _stratum_failure():
    """psi whose smallest eigenspace E = span{A1, B1} fails only on a factor
    stratum: psi B2 = A2 + 3 B2, and [A1, A2 + 3 B2] = A3 lies outside E,
    though B2 commutes with A1 alone and no generic x of E sees it."""
    psi = np.diag([0.0, 2.0, 2.0, 0.0, 3.0, 3.0])
    psi[1, 4] = psi[4, 1] = 1.0
    return psi


@pytest.mark.parametrize("seed", range(5))
def test_lemma_k_fails_on_a_factor_stratum_at_every_seed(g4, seed):
    """The sampled reference draws x generic in E, so it passes this psi
    with residual 0.0 at seeds 0-4; the exact check fails it at every seed, with
    residual |[A1, psi B2]| / ||psi|| = 2 / (5 + sqrt 5), and the variation
    has a negative pair."""
    psi = _stratum_failure()
    assert _sampled_lemma_k(g4, psi, seed=seed) == (0.0, True)
    rep = lemma_k_check(g4, psi)
    assert not rep.passed
    assert rep.max_residual > 0.1
    assert rep.max_residual == pytest.approx(2.0 / (5.0 + np.sqrt(5.0)), rel=1e-12)
    assert infinitesimal_check(g4, psi).verdict == VERDICT_NEGATIVE


@pytest.mark.parametrize("case", ["torus", "projector", "generic"])
def test_lemma_k_validates_and_decomposes_psi_once(g4, case):
    """One lemma_k_check validates psi once and takes one 6x6 eigh, from
    which E and the spectrum's scale are both read."""
    psi = {
        "torus": torus_psi(-0.5, 0.8, 0.1, 0.9, 0.4),
        "projector": -diagonal_subalgebra(g4).projector,
        "generic": random_symmetric(np.random.default_rng(8), 6),
    }[case]
    with mock.patch.object(verify, "symmetric_matrix", wraps=verify.symmetric_matrix) as sym, \
            mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh, \
            mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as eigvalsh:
        report = lemma_k_check(g4, psi)
    assert report == lemma_k_check(g4, psi)
    assert sym.call_count == 1
    assert [c.args[0].shape for c in eigh.call_args_list] == [(6, 6)]
    assert not eigvalsh.called


def test_lemma_k_rejects_malformed_psi(g4):
    psi = torus_psi(-0.5, 0.8, 0.1, 0.9, 0.4)
    psi[0, 1] += 1e-6
    with pytest.raises(ValueError, match="symmetric"):
        lemma_k_check(g4, psi)
    with pytest.raises(DimensionMismatch):
        lemma_k_check(g4, np.eye(3))


def _sampled_lemma_k(g, psi, n=200, seed=0):
    """The reference: the sampled check that the exact ``lemma_k_check``
    replaced, as (max residual, passed).  n unit x in the smallest
    eigenspace of psi, each with a unit y drawn from the null space of
    ad(x), and the component of [x, psi y] off that eigenspace relative to
    psi's spectral radius."""
    psi = np.asarray(psi, dtype=float)
    basis = _clustered(psi).smallest
    scale = max(np.abs(np.linalg.eigvalsh(psi)).max(), 1e-300)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, basis.shape[1])) @ basis.T
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    _, s, vh = np.linalg.svd(np.einsum("ijk,ni->nkj", g.structure, x))
    null = s < 1e-10 * np.maximum(s.max(axis=1, keepdims=True), 1.0)
    y = np.einsum("nk,nkj->nj", null * rng.standard_normal((n, g.dim)), vh)
    y /= np.linalg.norm(y, axis=1, keepdims=True)
    w = g.bracket_many(x, y @ psi)
    worst = float((np.linalg.norm(w - (w @ basis) @ basis.T, axis=1) / scale).max(initial=0.0))
    return worst, worst < 1e-8


def _pair_verdict_psis(rng, n):
    """n variation derivatives of the pair benchmark's kinds, in turn: the
    enlarging and the shrinking projector onto the diagonal, torus and
    S^3-action derivatives, each under a random automorphism."""
    proj = diagonal_subalgebra(so4()).projector
    psis = []
    for k in range(n):
        if k % 4 < 2:
            psi = (1.0 - 2.0 * (k % 4)) * rng.uniform(0.5, 1.5) * proj
        elif k % 4 == 2:
            psi = torus_psi(*rng.uniform(-1.0, 1.0, 4), rng.uniform(0.2, 1.0))
        else:
            lam = rng.uniform(0.5, 2.0) * np.array([rng.uniform(0.2, 4.0 / 3.0), 1.0, 1.0])
            psi = s3_action_psi(*rng.uniform(-1.0, 0.9, 2), lam[rng.permutation(3)])
        auto = random_automorphism(rng, bool(rng.integers(2)))
        psi = auto @ psi @ auto.T
        psis.append(0.5 * (psi + psi.T))
    return psis


def _strata_psi(rng):
    """psi with integer diagonal entries in 0..3 and one coupling of 0 or 1
    between two basis vectors, under a random automorphism: repeated
    eigenvalues make smallest eigenspaces that meet a factor, as in
    ``_stratum_failure``."""
    psi = np.diag(rng.integers(0, 4, 6).astype(float))
    i, j = rng.choice(6, 2, replace=False)
    psi[i, j] = psi[j, i] = float(rng.integers(2))
    auto = random_automorphism(rng, bool(rng.integers(2)))
    psi = auto @ psi @ auto.T
    return 0.5 * (psi + psi.T)


def test_lemma_k_agrees_with_the_sampler(g4):
    """On 300 random symmetric psi, on the pair benchmark's kinds and on the
    psi of the tests above, the exact check and the sampled reference agree
    on PASS."""
    rng = np.random.default_rng(16)
    randoms = [m + m.T for m in rng.standard_normal((300, 6, 6))]
    named = [
        torus_psi(-0.5, 0.8, 0.1, 0.9, 0.4),
        0.7 * np.eye(6),
        diagonal_subalgebra(g4).projector,
        *(_constructed_failure(case) for case in ("factor", "generic-1d", "generic-2d")),
        torus_psi(0.3, 0.6, 0.2, 0.5, 0.3),
        s3_action_psi(0.2, -0.4, np.array([0.7, 1.0, 1.3])),
    ]
    outcomes = set()
    for psi in [*randoms, *_pair_verdict_psis(np.random.default_rng(71), 80), *named]:
        passed = lemma_k_check(g4, psi).passed
        assert passed == _sampled_lemma_k(g4, psi)[1]
        outcomes.add(passed)
    assert outcomes == {True, False}


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_lemma_k_fails_wherever_the_sampler_fails(g4, seed):
    psi = _strata_psi(np.random.default_rng(seed))
    if not _sampled_lemma_k(g4, psi, seed=seed % 7)[1]:
        assert not lemma_k_check(g4, psi).passed


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), swap=st.booleans(), scale=st.floats(1e-3, 1e3),
       stratum=st.booleans())
def test_lemma_k_is_automorphism_and_scale_invariant(g4, seed, swap, scale, stratum):
    """PASS does not change under diag(Q1, Q2), the factor swap, or psi ->
    s psi, on ``_strata_psi`` draws and on the stratum failure."""
    rng = np.random.default_rng(seed)
    psi = _stratum_failure() if stratum else _strata_psi(rng)
    auto = random_automorphism(rng, swap)
    moved = scale * (auto @ psi @ auto.T)
    assert lemma_k_check(g4, 0.5 * (moved + moved.T)).passed == lemma_k_check(g4, psi).passed


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       repeats=st.sampled_from([(0, 1, 2), (0, 0, 1), (0, 1, 1), (0, 0, 0)]))
def test_lemma_k_passes_every_so3_psi(g3, seed, repeats):
    """On so(3) y commuting with x in E is a multiple of x, and psi x is a
    multiple of x, so every psi passes with residual 0 up to rounding."""
    rng = np.random.default_rng(seed)
    q = random_rotation(rng)
    eigs = rng.uniform(-2.0, 2.0, 3)[list(repeats)]
    rep = lemma_k_check(g3, q @ np.diag(eigs) @ q.T)
    assert rep.passed and rep.max_residual < 1e-12


def test_infinitesimal_pass_implies_lemma_k_pass(g4):
    rng = np.random.default_rng(16)
    checked = 0
    for _ in range(40):
        psi = random_symmetric(rng, 6)
        rep = infinitesimal_check(g4, psi)
        if rep.verdict == VERDICT_NONNEGATIVE:
            assert lemma_k_check(g4, psi).passed
            checked += 1
    for psi in (
        torus_psi(0.3, 0.6, 0.2, 0.5, 0.3),
        s3_action_psi(0.2, -0.4, np.array([0.7, 1.0, 1.3])),
    ):
        assert lemma_k_check(g4, psi).passed
        checked += 1
    assert checked >= 2


def test_path_scan_family_and_failure(g4):
    psi = s3_action_psi(0.0, 0.0, np.array([1.0, 1.0, 1.25]))
    reports = path_scan(g4, psi, [0.25, 0.75, 1.5])
    assert all(r.verdict == VERDICT_NONNEGATIVE for r in reports)
    assert [r.t for r in reports] == [0.25, 0.75, 1.5]

    from liecurv import diagonal_subalgebra

    proj = diagonal_subalgebra(g4).projector
    reports = path_scan(g4, proj, [0.05, 0.2])
    assert any(r.verdict == VERDICT_NEGATIVE for r in reports)


@pytest.mark.parametrize("case", ["so3", "so4-torus", "so4-projector"])
def test_path_scan_entries_match_standalone_min_curvature(g3, g4, case):
    """A scan polishes every open time at once, yet entry i is byte for byte
    the report of ``min_curvature`` on the metric at t_i, with ``t`` set."""
    from liecurv import diagonal_subalgebra

    g, psi, grid = {
        "so3": (g3, np.diag([0.4, -0.3, 0.9]), [0.1, 0.5, 1.0]),
        "so4-torus": (g4, torus_psi(0.5, -0.2, 0.3, 0.9, 0.4), [0.1, 0.4, 0.6, 0.85]),
        "so4-projector": (g4, diagonal_subalgebra(g4).projector, [0.05, 0.2, 0.5]),
    }[case]
    path = InverseLinearPath(g, psi)
    scan = path_scan(g, psi, grid)
    assert [r.t for r in scan] == grid
    for t, rep in zip(grid, scan):
        alone = min_curvature(path.metric_at(t))
        assert json.dumps(rep.to_dict(), sort_keys=True) == json.dumps(
            replace(alone, t=t).to_dict(), sort_keys=True
        )


def test_path_scan_rejects_out_of_horizon(g4):
    from liecurv import factor_subalgebra

    proj = factor_subalgebra(g4, 1).projector
    # the error names the first grid time outside the window, as the
    # curves' horizon error does
    with pytest.raises(HorizonExceeded, match=re.escape("t=1.0 ")):
        path_scan(g4, proj, [0.5, 1.0, 2.0])


def _draw_by_draw_pairs(g, n, seed):
    """The one-attempt-at-a-time loop that ``sample_commuting_pairs`` now
    runs in chunks, kept as its reference."""
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
            continue
        x = c * g.embed_factor(a, 1) + s * g.embed_factor(b, 2)
        idx1, idx2 = (list(ix) for ix in g.factor_split)
        y = np.zeros(g.dim)
        y[idx1] = m1 * x[idx1]
        y[idx2] = m2 * x[idx2]
        gram = (x @ x) * (y @ y) - (x @ y) ** 2
        if gram < 1e-2 * (x @ x) * (y @ y):
            continue
        pairs.append((x, y))
    return pairs


@pytest.mark.parametrize("n", [0, 1, 60, 100])
def test_chunked_sampler_is_the_draw_by_draw_loop(g4, n):
    for seed in range(10):
        got = sample_commuting_pairs(g4, n, seed)
        want = _draw_by_draw_pairs(g4, n, seed)
        assert len(got) == len(want) == n
        for pair, (x, y) in zip(got, want):
            assert np.array_equal(pair.x, x) and np.array_equal(pair.y, y)


def test_path_scan_many_entries_are_single_path_scans(g3, g4):
    """Entry k is ``path_scan`` of path k, byte for byte, for
    grids of different lengths, an empty one included, on both algebras."""
    cases = [
        (
            g4,
            [torus_psi(0.5, -0.2, 0.3, 0.9, 0.4), diagonal_subalgebra(g4).projector,
             s3_action_psi(0.2, -0.4, np.array([0.7, 1.0, 1.3]))],
            [[0.1, 0.4, 0.6], [], [0.05, 0.2]],
        ),
        (g3, [np.diag([0.4, -0.3, 0.9]), np.diag([0.1, 0.2, 0.3])], [[0.5], [0.1, 1.0]]),
    ]
    for g, psis, grids in cases:
        scans = path_scan_many(g, psis, grids)
        assert len(scans) == len(psis)
        for psi, grid, scan in zip(psis, grids, scans):
            alone = path_scan(g, psi, grid)
            assert [r.to_dict() for r in scan] == [r.to_dict() for r in alone]
    assert path_scan_many(g4, [np.eye(6)], [[]]) == [[]]


def test_path_scan_many_refuses_a_time_before_drawing(g4, monkeypatch):
    from liecurv import factor_subalgebra, verify

    searches = []
    monkeypatch.setattr(verify, "_plane_reports", lambda *args: searches.append(args))
    proj = factor_subalgebra(g4, 1).projector
    # the first refused time is in the second path; no search starts
    with pytest.raises(HorizonExceeded, match=re.escape("t=1.0 ")):
        path_scan_many(g4, [torus_psi(0.5, -0.2, 0.3, 0.9, 0.4), proj],
                       [[0.2, 0.4], [0.5, 1.0, 2.0]])
    assert searches == []


@pytest.mark.parametrize("psis, grids", [(2, 1), (1, 2)])
def test_path_scan_many_needs_one_entry_per_path(g4, psis, grids):
    with pytest.raises(ValueError, match="one psi and t_grid per path"):
        path_scan_many(g4, [np.eye(6)] * psis, [[0.1]] * grids)


# Wrong verdicts that ROADMAP lists as open defects.  Each test is a strict
# xfail on its assertion, so the change that mends the defect must flip it.

@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 1, the witness from the lifted bound's kernel: with a = b "
    "the lowest eigenspace of C + W is triple and every polish start ends at "
    "a flat plane"))
@pytest.mark.parametrize("a, lam", [
    (1.0, (1.0, 1.4001, 1.0)),
    (0.5, (1.0, 1.405, 1.0)),
    (2.0, (1.401, 1.0, 1.0)),
])
def test_equal_quotient_just_past_the_boundary_is_negative(g4, a, lam):
    """S^3-action quotients with a = b and lambda just past 7/5 are
    negatively curved: their own lifted lower bounds are -4.2e-6, -4.2e-4
    and -2.1e-5 (the Koszul oracle agrees).  They are reported
    ``NonnegativeWithinBudget`` at min_value <= 3e-31."""
    rep = min_curvature(LeftInvariantMetric(g4, s3_action_phi(S3ActionParams(a, a, lam))))
    assert rep.verdict == VERDICT_NEGATIVE


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 3, scale-relative verdicts: tol is absolute, so a large "
    "metric's minimum -5e-10 passes it"))
def test_scaled_metric_keeps_its_verdict(g4):
    """1e8 diag(1.4, 1, ..., 1) is the Berger metric scaled, so its verdict
    is the negative one of diag(1.4, 1, ..., 1); it is reported as an exact
    nonnegative minimum at -5e-10."""
    base = np.diag([1.4, 1.0, 1.0, 1.0, 1.0, 1.0])
    rep = min_curvature(LeftInvariantMetric(g4, base))
    assert min_curvature(LeftInvariantMetric(g4, 1e8 * base)).verdict == rep.verdict


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 3, scale-relative verdicts: tol is absolute, so a small "
    "psi's minimum -1.04e-10 passes it"))
def test_scaled_psi_keeps_its_verdict(g4):
    """psi -> s psi only reparametrizes the path, so 1e-4 (m + m^T), m from
    ``default_rng(0)``, has the verdict of m + m^T, negative at -103.9; it
    is reported as an exact nonnegative minimum at -1.04e-10."""
    m = np.random.default_rng(0).standard_normal((6, 6))
    rep = infinitesimal_check(g4, m + m.T)
    assert infinitesimal_check(g4, 1e-4 * (m + m.T)).verdict == rep.verdict
