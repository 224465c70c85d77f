import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liecurv import (
    EigenStructure,
    NormalFormParams,
    NormalFormUnavailable,
    kappa_third_deriv,
    normal_form_kappa3,
    normal_form_psi,
    psi_normal_form,
    s3_action_psi,
    torus_psi,
)
from liecurv import normalform, verify
from liecurv.algebra import symmetric_matrix

from conftest import random_automorphism, random_rotation, random_symmetric


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
    # a generic psi leaves no pairing of its blocks' eigenspaces a coupled
    # plane, and the error says so rather than quoting an infinite residual
    rng = np.random.default_rng(2)
    for _ in range(200):
        psi = random_symmetric(rng, 6)
        with pytest.raises(NormalFormUnavailable, match="no pairing") as err:
            psi_normal_form(g4, psi)
        assert "inf" not in str(err.value)


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


def test_normal_form_psi_is_the_one_row_case_of_the_stack():
    values = np.random.default_rng(8).uniform(-1, 1, size=(5, 11))
    values[1] = -0.0  # a signed zero lands where the layout puts it
    stack = normalform.normal_form_psi_many(values)
    assert stack.shape == (5, 6, 6)
    for row, m in zip(values, stack):
        assert normal_form_psi(NormalFormParams(*row)).tobytes() == m.tobytes()


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


def _hidden_plane_psi():
    """P = 0.3 I, Q = diag(0.8, 0.8, -0.5) and a coupling whose plane only
    a repeated restriction finds (``test_plane_hidden_by_repeated_singular_value``)."""
    c = np.array([[np.sqrt(0.5), 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
    psi = np.zeros((6, 6))
    psi[:3, :3] = 0.3 * np.eye(3)
    psi[3:, 3:] = np.diag([0.8, 0.8, -0.5])
    psi[:3, 3:] = c
    psi[3:, :3] = c.T
    return _conjugate(random_automorphism(np.random.default_rng(9)), psi)


def test_plane_hidden_by_repeated_singular_value(g4):
    """P = 0.3 I, Q = diag(0.8, 0.8, -0.5), and the coupling C of
    ``_hidden_plane_psi`` leave (A1, B1) as the only invariant plane.  Restricted once to the kernels of
    the off-eigenspace couplings, C has the repeated singular value
    1/sqrt(2), whose singular vectors need not contain the plane; the
    restriction is repeated until it stops shrinking."""
    nf = psi_normal_form(g4, _hidden_plane_psi())
    assert nf.plane_residual < 1e-12
    assert nf.off_pattern_residual() < 1e-10


def _reference_kernel(m, tol):
    _, s, vh = np.linalg.svd(m)
    return vh[int(np.sum(s > tol)):].T


def _reference_candidate_planes(psi, tol):
    """The loop construction with one SVD per kernel and per pairing: each
    pair of eigenspaces of P and Q is restricted to the kernels of its
    off-pairing couplings until neither shrinks, and every right singular
    vector of the restricted coupling is paired with every left one."""
    p, q, c = psi[:3, :3], psi[3:, 3:], psi[:3, 3:]
    cand_a, cand_b = [], []
    spaces = [EigenStructure.from_eigh(*np.linalg.eigh(m)).eigenspaces for m in (p, q)]
    for e, f in itertools.product(*spaces):
        while True:
            a = e @ _reference_kernel(c.T @ e - f @ (f.T @ c.T @ e), tol)
            b = f @ _reference_kernel(c @ f - e @ (e.T @ c @ f), tol)
            if a.shape == e.shape and b.shape == f.shape:
                break
            e, f = a, b
        u, _, vh = np.linalg.svd(f.T @ c.T @ e)
        rows_a, rows_b = vh @ e.T, u.T @ f.T
        cand_a.append(np.repeat(rows_a, len(rows_b), axis=0))
        cand_b.append(np.tile(rows_b, (len(rows_a), 1)))
    return np.concatenate(cand_a), np.concatenate(cand_b)


def _assert_matches_reference(g4, psi):
    """psi_normal_form gives bitwise the reference construction's bases and
    matrix, or raises NormalFormUnavailable where the reference does."""
    with mock.patch.object(normalform, "_candidate_planes", _reference_candidate_planes):
        try:
            want = psi_normal_form(g4, psi)
        except NormalFormUnavailable:
            want = None
    if want is None:
        with pytest.raises(NormalFormUnavailable):
            psi_normal_form(g4, psi)
        return
    got = psi_normal_form(g4, psi)
    for name in ("a_basis", "b_basis", "transformed"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    for name in ("lambda_coupling", "mu_coupling", "plane_residual", "singular_branch"):
        assert getattr(got, name) == getattr(want, name), name


# eigenvalue multiplicities of a 3x3 block, in ascending order of the values
_SHAPES = [(1, 1, 1), (1, 2), (2, 1), (3,)]


def _block_spectrum_psi(rng, shape_p, shape_q, coupling):
    """psi with P and Q of the given eigenspace shapes in rotated bases, and
    a coupling C that is zero, diagonal between the two eigenbases (every
    eigenvector pair an invariant plane, some uncoupled), rank one, or
    generic."""
    def block(shape):
        values = np.sort(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 2.0, len(shape)))
        values = np.repeat(values, shape)
        rot = random_rotation(rng)
        return rot @ np.diag(values) @ rot.T, rot

    p, rot_p = block(shape_p)
    q, rot_q = block(shape_q)
    if coupling == "zero":
        c = np.zeros((3, 3))
    elif coupling == "diagonal":
        c = rot_p @ np.diag(rng.uniform(-1.0, 1.0, 3) * (rng.random(3) < 0.7)) @ rot_q.T
    elif coupling == "rank-one":
        c = np.outer(rot_p[:, rng.integers(3)], rot_q[:, rng.integers(3)]) * rng.uniform(0.2, 1.0)
    else:
        c = rng.standard_normal((3, 3))
    psi = np.block([[p, c], [c.T, q]])
    return 0.5 * (psi + psi.T)


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["torus", "quotient", "scalar", "normal-form", "generic"]),
    seed=st.integers(0, 2**31 - 1),
    swap=st.booleans(),
)
def test_closed_forms_match_the_svd_construction_on_hard_inputs(g4, kind, seed, swap):
    """The closed-form pairings (no SVD for 1x1 couplings, norm-test
    kernels, whole kernels kept) give the per-pair SVD construction's
    output bit for bit on the hard inputs and their automorphic images."""
    rng = np.random.default_rng(seed)
    psi = _conjugate(random_automorphism(rng, swap), _hard_psi(kind, rng)[0])
    _assert_matches_reference(g4, psi)


@settings(max_examples=150, deadline=None)
@given(
    shape_p=st.sampled_from(_SHAPES),
    shape_q=st.sampled_from(_SHAPES),
    coupling=st.sampled_from(["zero", "diagonal", "rank-one", "generic"]),
    seed=st.integers(0, 2**31 - 1),
)
def test_closed_forms_match_the_svd_construction_on_every_eigenspace_shape(
    g4, shape_p, shape_q, coupling, seed
):
    """Every pairing of eigenspace shapes (1,1,1), (1,2), (2,1) and (3) on
    both blocks, under zero, diagonal, rank-one and generic couplings."""
    rng = np.random.default_rng(seed)
    _assert_matches_reference(g4, _block_spectrum_psi(rng, shape_p, shape_q, coupling))


def test_closed_forms_match_the_svd_construction_on_the_hidden_plane(g4):
    _assert_matches_reference(g4, _hidden_plane_psi())


# The normal form of a torus or S^3-action quotient psi (eigenspace shapes
# (1, 2) or (2, 1) on both blocks) makes at most this many SVDs: the
# coupling between the two 2-dim eigenspaces, and the coupling between the
# complements of A1 and B1.  The other pairings are closed forms, and a
# (2-dim, 1-dim) pairing ends on the one-column side's norm test before
# the 2-column kernel is taken.
_FAMILY_NORMAL_FORM_SVDS = 2


def test_normal_form_validates_once_and_decomposes_blocks_once(g4):
    """psi is validated once; its blocks take one stacked (2, 3, 3) eigh and
    the tolerance one eigvalsh of psi; at most _FAMILY_NORMAL_FORM_SVDS
    small SVDs follow."""
    rng = np.random.default_rng(6)
    for i in range(20):
        psi = _conjugate(random_automorphism(rng, i % 4 >= 2), _family_psi(rng, i % 2))
        with mock.patch.object(normalform, "symmetric_matrix", wraps=symmetric_matrix) as sym, \
                mock.patch.object(verify, "symmetric_matrix", wraps=symmetric_matrix) as sym_v, \
                mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh, \
                mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as eigvalsh, \
                mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
            psi_normal_form(g4, psi)
        assert sym.call_count + sym_v.call_count == 1
        assert [c.args[0].shape for c in eigh.call_args_list] == [(2, 3, 3)]
        assert [c.args[0].shape for c in eigvalsh.call_args_list] == [(6, 6)]
        assert svd.call_count <= _FAMILY_NORMAL_FORM_SVDS


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
