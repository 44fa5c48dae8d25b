"""Time grids, noise streams, schemes, and PSD projection."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbflow import NoiseStream, Scheme, TimeGrid, project_psd


def test_time_grid_validation():
    g = TimeGrid(0.0, 0.01, 100)
    assert g.horizon == pytest.approx(1.0)
    assert len(g.times()) == 101
    with pytest.raises(ValueError):
        TimeGrid(0.0, -0.01, 10)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 0.01, 0)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 2.0, 10)  # above dt_max
    with pytest.raises(ValueError):
        TimeGrid.from_horizon(0.0, 1.0, 0.3)  # not an integer multiple
    g2 = TimeGrid.from_horizon(0.0, 1.0, 0.25)
    assert g2.steps == 4


def test_increments_match_n0_dt():
    stream = NoiseStream(123, 0, "w")
    dt = 0.01
    draws = stream.increments((1_000_000,), dt)
    assert abs(draws.mean()) < 4 * math.sqrt(dt / 1e6)
    assert abs(draws.var() / dt - 1) < 0.01
    with pytest.raises(ValueError):
        stream.increments((4,), 0.0)


def test_stream_determinism_bitwise():
    a = NoiseStream(99, 3, "obs").normals((100,))
    b = NoiseStream(99, 3, "obs").normals((100,))
    np.testing.assert_array_equal(a, b)
    # distinct trial or channel gives a different sequence
    c = NoiseStream(99, 4, "obs").normals((100,))
    d = NoiseStream(99, 3, "sig").normals((100,))
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_stream_cross_correlation():
    n = 100_000
    x = NoiseStream(7, 0, "w").normals((n,))
    y = NoiseStream(7, 1, "w").normals((n,))
    rho = float(np.mean(x * y))
    assert abs(rho) < 4 / math.sqrt(n)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), trial=st.integers(0, 10 ** 6),
       shape=st.lists(st.integers(0, 4), max_size=3), steps=st.integers(1, 9),
       dt=st.floats(1e-6, 1.0))
def test_leading_axis_draws_equal_successive_draws(seed, trial, shape, steps, dt):
    # kernels draw a block of L steps at once and single runs are B = 1
    # kernel calls: an (L,) + s draw must equal L successive s draws bit for
    # bit, and leave the stream at the same place
    shape = tuple(shape)
    a = NoiseStream(seed, trial, "w")
    b = NoiseStream(seed, trial, "w")
    for _ in range(2):
        block = b.normals((steps,) + shape)
        for row in block:
            np.testing.assert_array_equal(row, a.normals(shape))
        block = b.increments((steps,) + shape, dt)
        for row in block:
            np.testing.assert_array_equal(row, a.increments(shape, dt))
    assert a.cursor == b.cursor


def test_scheme_parse():
    assert Scheme.parse("tamed_euler") is Scheme.TAMED_EULER
    assert Scheme.parse(Scheme.EULER_MARUYAMA) is Scheme.EULER_MARUYAMA
    with pytest.raises(ValueError, match="^unknown scheme 'heun'; expected one of: "
                                         "euler_maruyama, tamed_euler$"):
        Scheme.parse("heun")


def test_project_psd():
    P = np.array([[2.0, 1.0], [1.0, 2.0]])
    np.testing.assert_allclose(project_psd(P), P, atol=1e-12)
    np.testing.assert_allclose(project_psd(np.diag([1.0, -1e-14])),
                               np.diag([1.0, 0.0]), atol=1e-15)
    np.testing.assert_array_equal(project_psd([[-2.0]]), [[0.0]])
    rng = np.random.default_rng(3)
    for _ in range(20):
        M = rng.normal(size=(4, 4))
        M = 0.5 * (M + M.T)
        out = project_psd(M)
        w = np.linalg.eigvalsh(out)
        assert w[0] >= -1e-12
        # distance equals the norm of the clipped negative spectrum
        neg = np.clip(np.linalg.eigvalsh(M), None, 0.0)
        assert np.linalg.norm(out - M) == pytest.approx(np.linalg.norm(neg), abs=1e-10)
