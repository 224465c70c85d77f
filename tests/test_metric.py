import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liecurv import (
    DegeneratePlane,
    LeftInvariantMetric,
    NotPositiveDefinite,
    koszul_oracle,
    normalized_curvature,
    puttmann_curvature,
    so4,
)
from liecurv.metric import normalized_curvature_many, wedge_pairs

from conftest import random_spd


def test_bi_invariant_curvature_law(g4, g3):
    rng = np.random.default_rng(2)
    for g in (g3, g4):
        m = LeftInvariantMetric(g, np.eye(g.dim))
        for _ in range(50):
            z1, z2 = rng.standard_normal((2, g.dim))
            lie = g.bracket(z1, z2)
            assert abs(puttmann_curvature(m, z1, z2) - 0.25 * lie @ lie) < 1e-12


def test_puttmann_symmetry_and_homogeneity(g4):
    rng = np.random.default_rng(3)
    m = LeftInvariantMetric(g4, random_spd(rng, 6))
    for _ in range(20):
        z1, z2 = rng.standard_normal((2, 6))
        k12 = puttmann_curvature(m, z1, z2)
        k21 = puttmann_curvature(m, z2, z1)
        assert abs(k12 - k21) < 1e-12 * (1.0 + abs(k12))
        a = rng.uniform(0.5, 2.0)
        ka = puttmann_curvature(m, a * z1, z2)
        assert abs(ka - a * a * k12) < 1e-10 * (1.0 + abs(ka))


def test_oracle_agreement_spot(g3, g4):
    rng = np.random.default_rng(4)
    for g in (g3, g4):
        for _ in range(50):
            m = LeftInvariantMetric(g, random_spd(rng, g.dim))
            z1, z2 = rng.standard_normal((2, g.dim))
            a = puttmann_curvature(m, z1, z2)
            b = koszul_oracle(m, z1, z2)
            assert abs(a - b) / (1.0 + abs(b)) < 1e-8


def test_oracle_bi_invariant_value(g3):
    m = LeftInvariantMetric(g3, np.eye(3))
    assert abs(koszul_oracle(m, np.eye(3)[0], np.eye(3)[1]) - 0.25) < 1e-14


def test_berger_boundary_metric_nonnegative_on_samples(g3):
    m = LeftInvariantMetric(g3, np.diag([4.0 / 3.0, 1.0, 1.0]))
    rng = np.random.default_rng(5)
    frames = np.linalg.qr(rng.standard_normal((2000, 3, 2)))[0]
    vals = normalized_curvature_many(m, frames[:, :, 0], frames[:, :, 1])
    assert vals.min() >= -1e-9


def test_normalized_curvature_plane_invariance(g4):
    rng = np.random.default_rng(6)
    m = LeftInvariantMetric(g4, random_spd(rng, 6))
    for _ in range(20):
        z1, z2 = rng.standard_normal((2, 6))
        v1 = normalized_curvature(m, z1, z2)
        v2 = normalized_curvature(m, 2.0 * z1, z1 + z2)
        assert abs(v1 - v2) < 1e-10 * (1.0 + abs(v1))


def test_normalized_curvature_identity_orthonormal(g4):
    m = LeftInvariantMetric(g4, np.eye(6))
    rng = np.random.default_rng(7)
    for _ in range(20):
        q, _ = np.linalg.qr(rng.standard_normal((6, 2)))
        lie = g4.bracket(q[:, 0], q[:, 1])
        got = normalized_curvature(m, q[:, 0], q[:, 1])
        assert abs(got - 0.25 * lie @ lie) < 1e-12


@settings(max_examples=60, deadline=None)
@given(e1=st.floats(-8.0, 8.0), e2=st.floats(-8.0, 8.0))
def test_normalized_curvature_is_scale_free(e1, e2):
    # the degeneracy rule is relative to g11 g22, so rescaled vectors of a
    # non-degenerate plane never raise and give the same curvature
    rng = np.random.default_rng(11)
    m = LeftInvariantMetric(so4(), random_spd(rng, 6))
    z1, z2 = rng.standard_normal((2, 6))
    ref = normalized_curvature(m, z1, z2)
    got = normalized_curvature(m, 10.0**e1 * z1, 10.0**e2 * z2)
    assert abs(got - ref) <= 1e-12 * abs(ref)


def test_degenerate_plane_rejected(g4):
    # a zero vector, parallel vectors and a nearly parallel pair of large
    # vectors, through the scalar and the row path
    e = np.eye(6)
    z = np.arange(6.0)
    cases = [(z, z), (np.zeros(6), e[1]), (z, -3.0 * z), (1e8 * e[0], 1e8 * e[0] + 1e-3 * e[1])]
    for phi in (np.eye(6), random_spd(np.random.default_rng(12), 6)):
        m = LeftInvariantMetric(g4, phi)
        for z1, z2 in cases:
            with pytest.raises(DegeneratePlane):
                normalized_curvature(m, z1, z2)
            with pytest.raises(DegeneratePlane):
                normalized_curvature_many(m, np.stack([e[0], z1]), np.stack([e[1], z2]))


def test_non_positive_definite_rejected(g4):
    with pytest.raises(NotPositiveDefinite):
        LeftInvariantMetric(g4, np.diag([1.0, 1, 1, 1, 1, 0.0]))
    with pytest.raises(NotPositiveDefinite):
        LeftInvariantMetric(g4, np.diag([1.0, 1, 1, 1, 1, -0.5]))


def test_asymmetric_phi_rejected(g4):
    phi = np.eye(6)
    phi[0, 1] = 1e-6
    with pytest.raises(ValueError):
        LeftInvariantMetric(g4, phi)


def test_non_finite_phi_rejected(g4):
    for bad in (np.nan, np.inf, -np.inf):
        phi = np.eye(6)
        phi[0, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            LeftInvariantMetric(g4, phi)


def test_curvature_operator_matches_both_routes(g3, g4):
    """C, built in the metric's eigenframe, gives at w = x1 ^ x2, with x =
    Lambda^1/2 V^T z, the Koszul oracle's unnormalized curvature of (z1, z2)."""
    rng = np.random.default_rng(3)
    for g in (g3, g4):
        m = LeftInvariantMetric(g, random_spd(rng, g.dim))
        c = m.curvature_operator()
        npair = g.dim * (g.dim - 1) // 2
        assert c.shape == (npair, npair) and np.array_equal(c, c.T)
        z1s, z2s = rng.standard_normal((2, 200, g.dim))
        x1s, x2s = ((z @ m.eigenvectors) * np.sqrt(m.eigenvalues) for z in (z1s, z2s))
        i, j = wedge_pairs(g.dim)
        w = x1s[:, i] * x2s[:, j] - x1s[:, j] * x2s[:, i]
        wrw = np.einsum("nk,kl,nl->n", w, c, w)
        oracle = np.array([koszul_oracle(m, a, b) for a, b in zip(z1s, z2s)])
        assert np.all(np.abs(wrw - oracle) <= 1e-12 * np.maximum(1.0, np.abs(oracle)))


def test_curvature_operator_cached_per_metric(g4):
    rng = np.random.default_rng(4)
    phi = random_spd(rng, 6)
    m = LeftInvariantMetric(g4, phi)
    first = m.curvature_operator()
    assert m.curvature_operator() is first
    assert not first.flags.writeable
    other = LeftInvariantMetric(g4, phi).curvature_operator()
    assert other is not first
    assert np.array_equal(other, first)
