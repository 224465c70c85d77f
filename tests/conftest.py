import numpy as np
import pytest

from liecurv import so3, so4


@pytest.fixture(scope="session")
def g3():
    return so3()


@pytest.fixture(scope="session")
def g4():
    return so4()


def random_spd(rng, d, floor=0.3):
    m = rng.standard_normal((d, d))
    return m @ m.T + floor * np.eye(d)


def random_symmetric(rng, d, unit_norm=True):
    m = rng.standard_normal((d, d))
    m = 0.5 * (m + m.T)
    if unit_norm:
        m /= np.abs(np.linalg.eigvalsh(m)).max()
    return m


def random_rotation(rng):
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def random_automorphism(rng, swap=False):
    """diag(Q1, Q2) with Q1, Q2 in SO(3), optionally followed by the factor
    swap: an orthogonal automorphism of so(4)."""
    auto = np.zeros((6, 6))
    auto[:3, :3] = random_rotation(rng)
    auto[3:, 3:] = random_rotation(rng)
    return auto[[3, 4, 5, 0, 1, 2]] if swap else auto
