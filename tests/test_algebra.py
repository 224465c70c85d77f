import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liecurv import (
    DimensionMismatch,
    Subalgebra,
    diagonal_subalgebra,
    so3,
    so4,
)
from liecurv.algebra import symmetric_matrices, symmetric_matrix

E3 = np.eye(3)
E6 = np.eye(6)


def test_so3_bracket_table(g3):
    assert np.allclose(g3.bracket(E3[0], E3[1]), E3[2])
    assert np.allclose(g3.bracket(E3[1], E3[2]), E3[0])
    assert np.allclose(g3.bracket(E3[2], E3[0]), E3[1])
    assert np.allclose(g3.bracket(E3[0], E3[0]), 0.0)


def test_so4_factors_commute_and_mirror_so3(g4):
    assert np.allclose(g4.bracket(E6[0], E6[4]), 0.0)  # A1 with B2
    assert np.allclose(g4.bracket(E6[0], E6[1]), E6[2])  # A1, A2 -> A3
    assert np.allclose(g4.bracket(E6[3], E6[4]), E6[5])  # B1, B2 -> B3


def test_jacobi_residual_exact(g3, g4):
    for g in (g3, g4):
        c = g.structure
        jac = (
            np.einsum("ijm,mkl->ijkl", c, c)
            + np.einsum("jkm,mil->ijkl", c, c)
            + np.einsum("kim,mjl->ijkl", c, c)
        )
        assert np.abs(jac).max() == 0.0


def test_ad_invariance_random_triples(g4):
    rng = np.random.default_rng(0)
    for _ in range(100):
        x, y, z = rng.standard_normal((3, 6))
        lhs = np.dot(g4.bracket(x, y), z)
        rhs = -np.dot(y, g4.bracket(x, z))
        assert abs(lhs - rhs) < 1e-12


def test_bi_invariance_thousand_triples(g4):
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(1000):
        x, y, z = rng.standard_normal((3, 6))
        worst = max(worst, abs(np.dot(g4.bracket(x, y), z) - np.dot(x, g4.bracket(y, z))))
    assert worst < 1e-12


def test_bracket_dimension_mismatch(g4):
    with pytest.raises(DimensionMismatch):
        g4.bracket(np.ones(3), np.ones(6))


def test_bracket_many_is_bitwise_row_bracket(g3, g4):
    rng = np.random.default_rng(5)
    for g in (g3, g4):
        for n in (1, 64, 4096):
            xs, ys = rng.standard_normal((2, n, g.dim))
            rows = np.array([g.bracket(x, y) for x, y in zip(xs, ys)])
            assert np.array_equal(g.bracket_many(xs, ys), rows)


@settings(max_examples=50, deadline=None)
@given(
    coeffs=st.lists(st.floats(-10, 10), min_size=4, max_size=4),
    seed=st.integers(0, 2**31),
)
def test_bracket_bilinear_antisymmetric(coeffs, seed):
    g = so4()
    rng = np.random.default_rng(seed)
    x, y, z = rng.standard_normal((3, 6))
    a, b, c, d = coeffs
    lhs = g.bracket(a * x + b * y, z)
    rhs = a * g.bracket(x, z) + b * g.bracket(y, z)
    scale = 1.0 + np.linalg.norm(lhs)
    assert np.linalg.norm(lhs - rhs) / scale < 1e-12
    assert np.linalg.norm(g.bracket(x, y) + g.bracket(y, x)) < 1e-12
    assert np.linalg.norm(g.bracket(x, x)) == 0.0


def test_subalgebra_validation(g4):
    with pytest.raises(ValueError):
        Subalgebra(g4, np.stack([E6[0], 2.0 * E6[1]]))  # not orthonormal
    with pytest.raises(ValueError):
        Subalgebra(g4, np.stack([E6[0], E6[1]]))  # not closed: [A1,A2]=A3
    d = diagonal_subalgebra(g4)
    assert d.k == 3
    assert np.allclose(d.projector @ d.projector, d.projector, atol=1e-14)


def test_structure_validation_catches_bad_tensor():
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = 1.0  # missing the antisymmetric partner
    with pytest.raises(ValueError):
        so3().__class__(dim=3, structure=c)


def test_symmetric_matrix_validates_then_symmetrizes():
    m = np.array([[2.0, 1.0], [1.0 + 1e-13, 3.0]])
    out = symmetric_matrix(m, "m", 2)
    assert np.array_equal(out, out.T) and abs(out[0, 1] - 1.0) < 1e-12
    with pytest.raises(DimensionMismatch, match="m must be square"):
        symmetric_matrix(np.ones((2, 3)), "m")
    with pytest.raises(DimensionMismatch, match="m must be 3x3"):
        symmetric_matrix(m, "m", 3)
    with pytest.raises(ValueError, match="m has non-finite entries"):
        symmetric_matrix(np.full((2, 2), np.nan), "m")
    with pytest.raises(ValueError, match="m is not symmetric"):
        symmetric_matrix(np.array([[2.0, 1.0], [1.1, 3.0]]), "m")


def test_symmetric_matrices_is_symmetric_matrix_row_by_row():
    rng = np.random.default_rng(6)
    ms = rng.standard_normal((5, 3, 3))
    ms = ms + ms.transpose(0, 2, 1)
    ms[2, 0, 1] += 1e-13
    out = symmetric_matrices(ms, "ms", 3)
    for row, m in zip(out, ms):
        assert np.array_equal(row, symmetric_matrix(m, "m", 3))
    assert symmetric_matrices(np.zeros((0, 3, 3)), "ms").shape == (0, 3, 3)
    with pytest.raises(DimensionMismatch, match="ms must be a stack of 3x3"):
        symmetric_matrices(ms[0], "ms", 3)
    with pytest.raises(DimensionMismatch, match="ms must be a stack of 2x2"):
        symmetric_matrices(ms, "ms", 2)
    broken = ms.copy()
    broken[3, 1, 2] += 1e-3
    with pytest.raises(ValueError, match=r"ms\[3\] is not symmetric"):
        symmetric_matrices(broken, "ms")
    broken[1, 0, 0] = np.inf
    with pytest.raises(ValueError, match=r"ms\[1\] has non-finite entries"):
        symmetric_matrices(broken, "ms")
