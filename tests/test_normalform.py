import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liecurv import (
    NormalFormParams,
    NormalFormUnavailable,
    kappa_third_deriv,
    normal_form_kappa3,
    normal_form_psi,
    psi_normal_form,
    s3_action_psi,
    torus_psi,
)

from conftest import random_automorphism, random_symmetric


def test_quotient_family_already_block_diagonal(g4):
    rng = np.random.default_rng(0)
    for _ in range(10):
        psi = s3_action_psi(
            rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0.3, 3.0, size=3)
        )
        nf = psi_normal_form(g4, psi)
        assert nf.off_pattern_residual() < 1e-10
        assert abs(nf.lambda_coupling) < 1e-10
        assert abs(nf.mu_coupling) < 1e-10
        assert not nf.singular_branch


def test_torus_family_takes_singular_branch(g4):
    rng = np.random.default_rng(1)
    for _ in range(10):
        c, d, a1, a2 = rng.uniform(-1, 1, size=4)
        a3 = rng.uniform(0.2, 1.0)
        nf = psi_normal_form(g4, torus_psi(c, d, a1, a2, a3))
        assert nf.singular_branch  # the cross-factor coupling has rank one
        assert nf.off_pattern_residual() < 1e-10
        assert abs(nf.lambda_coupling) < 1e-10
        assert abs(nf.mu_coupling) < 1e-10


def test_transformed_matrix_is_conjugate(g4):
    psi = s3_action_psi(0.3, -0.4, np.array([0.5, 1.0, 2.0]))
    nf = psi_normal_form(g4, psi)
    assert np.allclose(
        np.sort(np.linalg.eigvalsh(nf.transformed)),
        np.sort(np.linalg.eigvalsh(psi)),
        atol=1e-12,
    )
    for basis in (nf.a_basis, nf.b_basis):
        assert np.allclose(basis @ basis.T, np.eye(3), atol=1e-12)


def test_mixing_angle_root_condition(g4):
    """At the returned basis the two image directions are orthogonal."""
    psi = s3_action_psi(0.7, 0.1, np.array([0.4, 1.1, 2.2]))
    nf = psi_normal_form(g4, psi)
    c = psi[:3, 3:]
    f_value = float((c.T @ nf.a_basis[1]) @ (c.T @ nf.a_basis[2]))
    assert abs(f_value) < 1e-12


def test_rank_one_coupling_exercises_singular_branch(g4):
    psi = np.zeros((6, 6))
    psi[:3, :3] = np.diag([0.4, 0.9, 1.3])
    psi[3:, 3:] = np.diag([0.4, 0.7, 1.1])
    psi[0, 3] = psi[3, 0] = 0.8  # single cross coupling, rank-one
    nf = psi_normal_form(g4, psi)
    assert nf.singular_branch
    assert nf.off_pattern_residual() < 1e-10


def test_supplied_plane_is_used(g4):
    psi = torus_psi(0.2, 0.6, 0.1, 0.5, 0.3)
    nf = psi_normal_form(g4, psi, plane=(np.array([1.0, 0, 0]), np.array([0.0, 1, 0])))
    assert nf.plane_residual < 1e-12
    assert nf.off_pattern_residual() < 1e-10


def test_generic_psi_has_no_normal_form(g4):
    rng = np.random.default_rng(2)
    psi = random_symmetric(rng, 6)
    with pytest.raises(NormalFormUnavailable):
        psi_normal_form(g4, psi)


def test_invariant_plane_residual_zero_for_family(g4):
    # a supplied plane: zero residual when it is invariant, no normal form
    # when it is not
    psi = s3_action_psi(0.2, 0.5, np.array([1.0, 2.0, 3.0]))
    e1, e2 = np.array([1.0, 0, 0]), np.array([0.0, 1, 0])
    assert psi_normal_form(g4, psi, plane=(e1, e1)).plane_residual < 1e-14
    with pytest.raises(NormalFormUnavailable, match="residual"):
        psi_normal_form(g4, psi, plane=(e1, e2))


def test_normal_form_psi_layout(g4):
    p = NormalFormParams(
        a1=0.1, a2=0.2, a3=0.3, b1=0.4, b2=0.5, b3=0.6,
        c1=0.7, c2=0.8, c3=0.9, lam=1.0, mu=1.1,
    )
    m = normal_form_psi(p)
    assert np.allclose(m, m.T)
    assert m[0, 0] == 0.1 and m[3, 3] == 0.2
    assert m[0, 3] == 0.3 and m[1, 4] == 0.6 and m[2, 5] == 0.9
    assert m[1, 2] == 1.0 and m[4, 5] == 1.1
    # the normal form of its own matrix keeps the pattern
    nf = psi_normal_form(g4, normal_form_psi(NormalFormParams(
        a1=0.1, a2=0.2, a3=0.3, b1=0.4, b2=0.5, b3=0.0,
        c1=0.7, c2=0.8, c3=0.9, lam=0.0, mu=0.0,
    )))
    assert nf.off_pattern_residual() < 1e-8


def test_normal_form_kappa3_matches_direct_evaluation(g4):
    rng = np.random.default_rng(3)
    v = rng.uniform(-1, 1, size=11)
    p = NormalFormParams(*v)
    x = np.array([0.3, -1.2, 0.5])
    y = np.array([0.9, 0.1, -0.7])
    direct = kappa_third_deriv(
        g4, normal_form_psi(p), g4.embed_factor(x, 1), g4.embed_factor(y, 2)
    )
    assert abs(normal_form_kappa3(g4, p, x, y) - direct) < 1e-14


def test_scalar_psi_all_brackets_vanish(g4):
    p = NormalFormParams(
        a1=0.6, a2=0.6, a3=0.0, b1=0.6, b2=0.6, b3=0.0,
        c1=0.6, c2=0.6, c3=0.0, lam=0.0, mu=0.0,
    )
    rng = np.random.default_rng(4)
    for _ in range(20):
        x = rng.standard_normal(3)
        y = rng.standard_normal(3)
        assert normal_form_kappa3(g4, p, x, y) == 0.0


def _conjugate(auto, psi):
    out = auto @ psi @ auto.T
    return 0.5 * (out + out.T)


def _berger_triple(rng):
    """Two equal entries and a third at most 4/3 of them, scaled and permuted."""
    vals = rng.uniform(0.5, 2.0) * np.array([rng.uniform(0.2, 4.0 / 3.0), 1.0, 1.0])
    return vals[rng.permutation(3)]


def _family_psi(rng, quotient):
    if quotient:
        alpha, beta = rng.uniform(-1.0, 0.9, size=2)
        return s3_action_psi(alpha, beta, _berger_triple(rng))
    c, d, a1, a2 = rng.uniform(-1, 1, size=4)
    return torus_psi(c, d, a1, a2, rng.uniform(0.2, 1.0))


def test_bases_are_rotations_and_keep_kappa3(g4):
    """Both bases have det +1, so the basis change is an automorphism of so(4)
    and kappa'''(0) in adapted coordinates equals its value on psi."""
    rng = np.random.default_rng(5)
    adapted = [0, 2, 4, 1, 3, 5]  # (A1, B1, A2, ...) -> (A1, A2, A3, B1, B2, B3)
    for i in range(20):
        psi = _conjugate(random_automorphism(rng, i % 4 >= 2), _family_psi(rng, i % 2))
        nf = psi_normal_form(g4, psi)
        for basis in (nf.a_basis, nf.b_basis):
            assert abs(np.linalg.det(basis) - 1.0) < 1e-12
        s = np.zeros((6, 6))
        s[:3, :3] = nf.a_basis.T
        s[3:, 3:] = nf.b_basis.T
        local = nf.transformed[np.ix_(adapted, adapted)]
        for _ in range(5):
            x = g4.embed_factor(rng.standard_normal(3), 1)
            y = g4.embed_factor(rng.standard_normal(3), 2)
            gap = kappa_third_deriv(g4, local, x, y) - kappa_third_deriv(g4, psi, s @ x, s @ y)
            assert abs(gap) < 1e-10 * max(1.0, np.abs(psi).max()) ** 3


def _hard_psi(kind, rng):
    """An input of the given kind and the absolute couplings of its normal form."""
    if kind in ("torus", "quotient"):
        return _family_psi(rng, kind == "quotient"), (0.0, 0.0)
    if kind == "scalar":
        return 0.6 * np.eye(6), (0.0, 0.0)
    if kind == "generic":
        return random_symmetric(rng, 6), None
    v = rng.uniform(-1, 1, size=8)
    lam, mu = rng.choice([-1.0, 1.0], size=2) * rng.uniform(0.2, 1.0, size=2)
    params = NormalFormParams(*v[:5], 0.0, *v[5:], lam=lam, mu=mu)
    return normal_form_psi(params), tuple(sorted((abs(lam), abs(mu))))


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(["torus", "quotient", "scalar", "normal-form", "generic"]),
    seed=st.integers(0, 2**31 - 1),
    swap=st.booleans(),
)
def test_closed_construction_on_hard_inputs(g4, kind, seed, swap):
    """Family inputs with repeated eigenvalues (Berger-triple lambda), the
    scalar 0.6 I and a normal form with lambda, mu != 0 and b3 = 0 keep their
    normal form under an automorphism diag(Q1, Q2), optionally with the
    factor swap; a generic psi has none."""
    rng = np.random.default_rng(seed)
    base, couplings = _hard_psi(kind, rng)
    psi = _conjugate(random_automorphism(rng, swap), base)
    if couplings is None:
        with pytest.raises(NormalFormUnavailable):
            psi_normal_form(g4, psi)
        return
    nf = psi_normal_form(g4, psi)
    assert nf.off_pattern_residual() < 1e-8
    got = sorted((abs(nf.lambda_coupling), abs(nf.mu_coupling)))
    assert np.allclose(got, couplings, rtol=0.0, atol=1e-10)


def test_plane_hidden_by_repeated_singular_value(g4):
    """P = 0.3 I, Q = diag(0.8, 0.8, -0.5), and the coupling C below leave
    (A1, B1) as the only invariant plane.  Restricted once to the kernels of
    the off-eigenspace couplings, C has the repeated singular value
    1/sqrt(2), whose singular vectors need not contain the plane; the
    restriction is repeated until it stops shrinking."""
    c = np.array([[np.sqrt(0.5), 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
    psi = np.zeros((6, 6))
    psi[:3, :3] = 0.3 * np.eye(3)
    psi[3:, 3:] = np.diag([0.8, 0.8, -0.5])
    psi[:3, 3:] = c
    psi[3:, :3] = c.T
    nf = psi_normal_form(g4, _conjugate(random_automorphism(np.random.default_rng(9)), psi))
    assert nf.plane_residual < 1e-12
    assert nf.off_pattern_residual() < 1e-10


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_hostile_input_rejected(g4, bad):
    psi = torus_psi(0.2, 0.6, 0.1, 0.5, 0.3)
    broken = psi.copy()
    broken[1, 4] = broken[4, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        psi_normal_form(g4, broken)
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    with pytest.raises(ValueError, match="non-finite"):
        psi_normal_form(g4, broken, plane=(e1, e2))
    with pytest.raises(ValueError, match="not symmetric"):
        psi_normal_form(g4, np.triu(np.ones((6, 6))), plane=(e1, e2))
    for plane in ((np.zeros(3), e1), (e1, np.array([bad, 0.0, 0.0]))):
        with pytest.raises(ValueError, match="plane"):
            psi_normal_form(g4, psi, plane=plane)
    fields = dict(a1=0.1, a2=0.2, a3=0.3, b1=0.4, b2=0.5, b3=0.6, c1=0.7, c2=0.8, c3=0.9)
    for name in (*fields, "lam", "mu"):
        with pytest.raises(ValueError, match=f"non-finite fields: {name}"):
            NormalFormParams(**{**fields, name: bad})


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_invariant_plane_residual_rejects_degenerate_vectors(g4, bad):
    psi = torus_psi(0.2, 0.6, 0.1, 0.5, 0.3)
    e1 = np.array([1.0, 0.0, 0.0])
    for a, b in ((np.zeros(3), e1), (e1, np.zeros(3)), (e1, np.array([bad, 0.0, 0.0]))):
        for m in (np.eye(6), psi):
            with pytest.raises(ValueError, match="finite and nonzero"):
                psi_normal_form(g4, m, plane=(a, b))
