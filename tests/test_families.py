import warnings

import numpy as np
import pytest

from liecurv import (
    FamilyConstraintViolated,
    HorizonExceeded,
    NotPositiveDefinite,
    ProductParams,
    S3ActionParams,
    TorusParams,
    DimensionMismatch,
    invariant_abelian_residual_many,
    inverse_linear_eigs_s3,
    product_invariant_planes,
    product_phi,
    s3_action_invariant_planes,
    s3_action_path_residual_many,
    s3_action_phi,
    s3_action_psi,
    s3_quotient_eigenvalues,
    torus_invariant_planes,
    torus_phi,
    torus_psi,
)
from liecurv import families
from liecurv.suites import (
    berger_triple,
    random_product_params,
    random_s3_action_params,
    random_torus_params,
)


def test_product_phi_blocks():
    p = ProductParams(phi1=np.eye(3), phi2=np.eye(3))
    assert np.allclose(product_phi(p), np.eye(6))
    p = ProductParams(phi1=np.diag([4 / 3, 1.0, 1.0]), phi2=2.0 * np.eye(3))
    phi = product_phi(p)
    assert np.allclose(phi[:3, :3], p.phi1)
    assert np.allclose(phi[3:, 3:], p.phi2)
    assert np.allclose(phi[:3, 3:], 0.0)


def test_product_params_reject_bad_block():
    with pytest.raises(NotPositiveDefinite):
        ProductParams(phi1=np.diag([1.0, 1.0, 0.0]), phi2=np.eye(3))


def test_quotient_eigenvalues_closed_form():
    got = s3_quotient_eigenvalues(1.0, [1.0, 1.0, 1.0])
    assert np.allclose(got, 0.5, atol=1e-15)
    got = s3_quotient_eigenvalues(2.0, [1.0, 2.0, 3.0])
    assert np.allclose(got, [1.0, 4.0 / 3.0, 3.0 / 2.0], atol=1e-15)
    # large lambda limit approaches the overall scale
    got = s3_quotient_eigenvalues(0.7, [1e12, 1e12, 1e12])
    assert np.allclose(got, 0.7, atol=1e-9)


def test_inverse_linear_eigs():
    lam = np.array([2.0, 3.0, 4.0])
    assert np.allclose(inverse_linear_eigs_s3(0.3, lam, 0.0), 1.0, atol=1e-15)
    assert np.allclose(inverse_linear_eigs_s3(1.0, lam, 1.0), lam, atol=1e-14)
    t = 0.37
    assert np.allclose(
        inverse_linear_eigs_s3(0.0, lam, t), lam / (t + lam), atol=1e-15
    )
    with pytest.raises(HorizonExceeded):
        inverse_linear_eigs_s3(3.0, np.array([5.0, 5.0, 5.0]), 0.5)


def test_inverse_linear_eigs_positive_below_one_for_subcritical_alpha():
    rng = np.random.default_rng(0)
    for _ in range(50):
        alpha = rng.uniform(-2.0, 0.999)
        lam = rng.uniform(0.2, 4.0, size=3)
        for t in np.linspace(0.0, 1.0, 21):
            assert inverse_linear_eigs_s3(alpha, lam, t).min() > 0.0


def test_torus_phi_identity_case():
    p = TorusParams(c=1.0, d=1.0, tau_block=np.eye(2))
    assert np.allclose(torus_phi(p), np.eye(6), atol=1e-15)


def test_torus_phi_custom_directions(g4):
    a = g4.embed_factor(np.array([0.6, 0.8, 0.0]), 1)
    b = g4.embed_factor(np.array([0.0, 0.0, 1.0]), 2)
    p = TorusParams(c=0.5, d=2.0, tau_block=np.diag([0.6, 0.9]))
    phi = torus_phi(p, a, b)
    assert abs(phi @ a @ a - 0.6) < 1e-12
    assert abs(phi @ b @ b - 0.9) < 1e-12
    perp = g4.embed_factor(np.array([-0.8, 0.6, 0.0]), 1)
    assert np.allclose(phi @ perp, 0.5 * perp, atol=1e-12)


def test_torus_bound_enforced_as_quadratic_form():
    TorusParams(c=1.0, d=1.0, tau_block=np.diag([4.0 / 3.0, 4.0 / 3.0]))  # boundary ok
    with pytest.raises(FamilyConstraintViolated):
        TorusParams(c=1.0, d=1.0, tau_block=np.diag([1.5, 1.0]))
    # cheeger-style eigenvalues lie strictly inside the bound
    lam = np.array([0.4, 2.5])
    TorusParams(c=1.0, d=1.0, tau_block=np.diag(lam / (1.0 + lam)))


def test_torus_psi_matrix_layout():
    assert np.allclose(torus_psi(0.0, 0.0, 0.0, 0.0, 0.0), 0.0)
    assert np.allclose(torus_psi(1.0, 1.0, 1.0, 1.0, 0.0), np.eye(6))
    m = torus_psi(0.3, -0.2, 0.5, 0.7, 0.9)
    assert m[0, 0] == m[1, 1] == 0.3
    assert m[4, 4] == m[5, 5] == -0.2
    assert m[2, 2] == 0.5 and m[3, 3] == 0.7 and m[2, 3] == m[3, 2] == 0.9
    assert np.count_nonzero(m) == 8


def test_s3_action_phi_reference_values():
    p = S3ActionParams(a=1.0, b=1.0, lam=np.array([1.0, 1.0, 1.0]))
    phi = s3_action_phi(p)
    block = 0.5 * np.array([[1.5, -0.5], [-0.5, 1.5]])
    for i in range(3):
        assert np.allclose(phi[np.ix_([i, i + 3], [i, i + 3])], block, atol=1e-15)
    # t_i -> 1 recovers the product of the two scalings
    p = S3ActionParams(a=1.7, b=0.4, lam=np.array([1e14, 1e14, 1e14]))
    assert np.allclose(s3_action_phi(p), np.diag([1.7] * 3 + [0.4] * 3), atol=1e-10)


def test_s3_action_phi_positive_definite():
    rng = np.random.default_rng(1)
    for _ in range(50):
        p = S3ActionParams(
            a=rng.uniform(0.2, 3.0),
            b=rng.uniform(0.2, 3.0),
            lam=rng.uniform(0.1, 5.0, size=3),
        )
        assert np.linalg.eigvalsh(s3_action_phi(p)).min() > 0.0


def test_s3_action_psi_reference_block():
    psi = s3_action_psi(0.0, 0.0, np.array([1.0, 1.0, 1.0]))
    block = -0.5 * np.ones((2, 2))
    for i in range(3):
        assert np.allclose(psi[np.ix_([i, i + 3], [i, i + 3])], block, atol=1e-15)
    # equal large-lambda parameters approach a multiple of the identity
    psi = s3_action_psi(0.4, 0.4, np.array([1e13, 1e13, 1e13]))
    assert np.allclose(psi, 0.4 * np.eye(6), atol=1e-12)


def _barred_row(alpha, beta, lam, t):
    """The barred parameters of one row, as the path-residual kernel builds
    them."""
    a, b, lam_bar = families._barred(
        np.array([alpha]), np.array([beta]), np.array([lam]), np.array([t])
    )
    return a[0], b[0], lam_bar[0]


def test_barred_params_special_cases():
    lam = np.array([0.7, 1.3, 2.1])
    a0, b0, lam0 = _barred_row(0.6, -0.4, lam, 0.0)
    assert a0 == 1.0 and b0 == 1.0
    assert np.allclose(lam0, lam, atol=1e-15)
    t = 0.45
    alpha = 0.8
    _, _, lam_eq = _barred_row(alpha, alpha, lam, t)
    assert np.allclose(lam_eq, lam * (1.0 - alpha * t), atol=1e-14)
    with pytest.raises(HorizonExceeded):
        _barred_row(2.0, 0.0, lam, 0.6)
    with pytest.raises(HorizonExceeded):
        s3_action_path_residual_many([2.0], [0.0], [lam], [0.6])


def test_barred_lambda_is_positive_multiple():
    rng = np.random.default_rng(2)
    for _ in range(50):
        lam = rng.uniform(0.2, 4.0, size=3)
        alpha, beta = rng.uniform(-1.5, 0.9, size=2)
        t = rng.uniform(0.0, 0.9)
        _, _, lam_bar = _barred_row(alpha, beta, lam, t)
        ratios = lam_bar / lam
        assert ratios.min() > 0.0
        assert np.abs(ratios - ratios[0]).max() < 1e-12 * ratios[0]


def test_path_consistency_residual():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        alpha, beta = rng.uniform(-1.5, 0.9, size=2)
        lam = rng.uniform(0.3, 3.0, size=3)
        cap = min(
            1.0 / alpha if alpha > 0 else np.inf,
            1.0 / beta if beta > 0 else np.inf,
            2.0,
        )
        t = rng.uniform(0.05, 0.95) * cap
        worst = max(worst, s3_action_path_residual_many([alpha], [beta], [lam], [t])[0])
    assert worst < 1e-10


def test_phi_at_time_one_is_the_family_metric():
    # at t = 1 the path's metric is the family metric of the barred
    # parameters, and the residual kernel refuses t <= 0
    alpha, beta, lam = 0.3, -0.2, np.array([0.5, 1.0, 2.0])
    a, b, lam_bar = _barred_row(alpha, beta, lam, 1.0)
    member = s3_action_phi(S3ActionParams(a=a, b=b, lam=lam_bar))
    path = np.linalg.inv(np.eye(6) - s3_action_psi(alpha, beta, lam))
    assert np.allclose(member, path, atol=1e-15)
    for t in (0.0, -0.1):
        with pytest.raises(HorizonExceeded, match="t must be positive"):
            s3_action_path_residual_many([alpha], [beta], [lam], [t])


def test_invariant_planes_all_families(g4):
    rng = np.random.default_rng(4)
    for _ in range(10):
        p = random_product_params(rng)
        q = random_torus_params(rng)
        s = random_s3_action_params(rng)
        res = invariant_abelian_residual_many(
            g4,
            [product_phi(p), torus_phi(q), s3_action_phi(s)],
            [product_invariant_planes(p), torus_invariant_planes(), s3_action_invariant_planes()],
        )
        assert res.max() < 1e-12


def test_fixed_invariant_planes_are_built_once():
    """The torus and S^3-action planes do not depend on the parameters: each
    call returns the same read-only array, equal to the planes built from
    their definition."""
    planes = torus_invariant_planes()
    assert planes is torus_invariant_planes()
    assert s3_action_invariant_planes() is s3_action_invariant_planes()
    e = np.eye(6)
    assert np.array_equal(s3_action_invariant_planes(),
                          np.stack([np.stack([e[i], e[i + 3]], axis=1) for i in range(3)]))
    a, b = families._A1_DEFAULT, families._B1_DEFAULT
    assert np.array_equal(planes[0], np.stack([a, b], axis=1))
    for fixed in (planes, s3_action_invariant_planes()):
        assert fixed.shape == (3, 6, 2) and not fixed.flags.writeable
        with pytest.raises(ValueError):
            fixed[0, 0, 0] = 1.0


def test_berger_triples_are_valid_eigenvalue_sets():
    rng = np.random.default_rng(5)
    for _ in range(50):
        lam = berger_triple(rng)
        assert lam.min() > 0.0
        srt = np.sort(lam)
        assert srt[2] <= (4.0 / 3.0) * srt[1] + 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_family_parameters_rejected(bad):
    tau = np.eye(2)
    broken_tau = tau.copy()
    broken_tau[0, 0] = bad
    broken_block = np.eye(3)
    broken_block[1, 2] = broken_block[2, 1] = bad
    lam = np.ones(3)
    broken_lam = lam.copy()
    broken_lam[1] = bad
    makers = [
        lambda: TorusParams(c=bad, d=1.0, tau_block=tau),
        lambda: TorusParams(c=1.0, d=bad, tau_block=tau),
        lambda: TorusParams(c=1.0, d=1.0, tau_block=broken_tau),
        lambda: S3ActionParams(a=bad, b=1.0, lam=lam),
        lambda: S3ActionParams(a=1.0, b=bad, lam=lam),
        lambda: S3ActionParams(a=1.0, b=1.0, lam=broken_lam),
        lambda: ProductParams(phi1=broken_block, phi2=np.eye(3)),
        lambda: ProductParams(phi1=np.eye(3), phi2=broken_block),
        lambda: s3_quotient_eigenvalues(bad, lam),
        lambda: s3_quotient_eigenvalues(1.0, broken_lam),
        lambda: inverse_linear_eigs_s3(bad, lam, 0.5),
        lambda: inverse_linear_eigs_s3(0.5, broken_lam, 0.5),
        lambda: inverse_linear_eigs_s3(0.5, lam, bad),
        lambda: torus_psi(bad, 0.8, 0.1, 0.9, 0.4),
        lambda: torus_psi(0.5, 0.8, 0.1, 0.9, bad),
        lambda: s3_action_psi(bad, 0.0, lam),
        lambda: s3_action_psi(0.0, bad, lam),
        lambda: s3_action_psi(0.0, 0.0, broken_lam),
        lambda: s3_action_path_residual_many([bad], [0.2], [lam], [0.5]),
        lambda: s3_action_path_residual_many([0.3], [bad], [lam], [0.5]),
        lambda: s3_action_path_residual_many([0.3], [0.2], [broken_lam], [0.5]),
        lambda: s3_action_path_residual_many([0.3], [0.2], [lam], [bad]),
    ]
    for make in makers:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="non-finite"):
                make()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["alpha", "beta", "lam", "t"])
def test_path_residual_names_its_non_finite_argument(name, bad):
    # a non-finite time used to reach eigvalsh and raise LinAlgError
    args = {"alpha": 0.3, "beta": 0.2, "lam": np.ones(3), "t": 0.5}
    args[name] = np.array([1.0, bad, 1.0]) if name == "lam" else bad
    for n in (1, 2):
        rows = {key: [value] * n for key, value in args.items()}
        with pytest.raises(ValueError, match=f"{name} is non-finite"):
            s3_action_path_residual_many(rows["alpha"], rows["beta"], rows["lam"], rows["t"])


def test_path_residual_kernel_checks_shapes_and_lambda():
    lam = np.ones((2, 3))
    with pytest.raises(DimensionMismatch, match="t must be a 1-d"):
        s3_action_path_residual_many([0.3], [0.2], [np.ones(3)], 0.5)
    with pytest.raises(DimensionMismatch, match="beta must have shape"):
        s3_action_path_residual_many([0.3, 0.3], [0.2], lam, [0.5, 0.5])
    with pytest.raises(DimensionMismatch, match="lam must have shape"):
        s3_action_path_residual_many([0.3, 0.3], [0.2, 0.2], np.ones((2, 2)), [0.5, 0.5])
    with pytest.raises(FamilyConstraintViolated):
        s3_action_path_residual_many([0.3, 0.3], [0.2, 0.2], [[1, 1, 1], [1, 0, 1]], [0.5, 0.5])
    assert s3_action_path_residual_many([], [], np.zeros((0, 3)), []).shape == (0,)


def test_abelian_residual_refuses_non_finite_phi_and_planes(g4):
    # max(0.0, nan) kept 0.0, so a NaN or infinite phi read as a perfect fit
    p = S3ActionParams(a=1.2, b=0.8, lam=np.array([0.5, 1.0, 2.0]))
    planes = s3_action_invariant_planes()
    nan_phi = s3_action_phi(p)
    nan_phi[0, 0] = np.nan
    inf_phi = s3_action_phi(p)
    inf_phi[0, 3] = inf_phi[3, 0] = np.inf
    for phi in (nan_phi, inf_phi):
        with pytest.raises(ValueError, match="phis has non-finite entries"):
            invariant_abelian_residual_many(g4, phi[None], planes[None])
    broken = planes.copy()
    broken[1, 4, 0] = np.nan
    with pytest.raises(ValueError, match="planes has non-finite entries"):
        invariant_abelian_residual_many(g4, s3_action_phi(p)[None], broken[None])
    with pytest.raises(ValueError, match="phis has non-finite entries"):
        invariant_abelian_residual_many(g4, np.stack([s3_action_phi(p), nan_phi]), [planes] * 2)


def test_abelian_residual_names_a_misshapen_argument(g4):
    phi = np.eye(6)
    planes = s3_action_invariant_planes()
    with pytest.raises(DimensionMismatch, match="phis must be"):
        invariant_abelian_residual_many(g4, np.ones(6)[None], planes[None])
    with pytest.raises(DimensionMismatch, match="planes must be"):
        invariant_abelian_residual_many(g4, phi[None], planes[0][None])
    with pytest.raises(DimensionMismatch, match="phis must be"):
        invariant_abelian_residual_many(g4, np.eye(5)[None], planes[None])
    with pytest.raises(DimensionMismatch, match="planes must be"):
        invariant_abelian_residual_many(g4, phi[None], planes[None, :, :5])
    with pytest.raises(DimensionMismatch, match="planes must be"):
        invariant_abelian_residual_many(g4, np.stack([phi, phi]), planes[None])
    assert invariant_abelian_residual_many(g4, np.zeros((0, 6, 6)), np.zeros((0, 3, 6, 2))).shape == (0,)
    assert invariant_abelian_residual_many(g4, phi[None], np.zeros((1, 0, 6, 2))).tolist() == [0.0]
