"""The batch wrapper of the stepping kernels: empty and negative batches, and
array initial clouds split over chunks."""
import numpy as np
import pytest

from conftest import random_model, scalar_lg
from kbflow import NoiseStream, TimeGrid
from kbflow._engines import (law_cov_paths_1d, law_cov_paths_nd, particle_cov_paths_1d,
                             particle_cov_paths_nd)

GRID = TimeGrid(0.0, 1e-2, 20)
_D2 = random_model(2, seed=31, stabilize=1.0)

_KERNELS = {
    "particle_1d": lambda trials: particle_cov_paths_1d(
        scalar_lg(), "vanilla", N=4, grid=GRID, seed=1, trials=trials, integral_from=0),
    "law_1d": lambda trials: law_cov_paths_1d(
        scalar_lg(), kappa=1, N=4, Q=1.0, grid=GRID, seed=1, trials=trials, integral_from=0),
    "law_nd": lambda trials: law_cov_paths_nd(
        _D2, kappa=1, N=4, Q=np.eye(2), grid=GRID, seed=1, trials=trials, integral_from=0),
    "particle_nd": lambda trials: particle_cov_paths_nd(
        _D2, "vanilla", N=4, grid=GRID, seed=1, trials=trials, frame="absolute"),
}


@pytest.mark.parametrize("kernel", sorted(_KERNELS))
def test_zero_trials_give_empty_outputs_and_negative_trials_fail(kernel):
    one, empty = _KERNELS[kernel](1), _KERNELS[kernel](0)
    assert empty.keys() == one.keys()
    np.testing.assert_array_equal(empty["t"], GRID.times())
    for key in one.keys() - {"t"}:
        assert empty[key].shape == (0,) + one[key].shape[1:], key
        assert empty[key].dtype == one[key].dtype, key
    with pytest.raises(ValueError):
        _KERNELS[kernel](-1)


def test_array_init_is_split_over_the_chunks():
    # 5 clouds in chunks of 2: each chunk takes its own rows of init and
    # equals a one-chunk call on them at its chunk index
    init = NoiseStream(9, 0, "clouds").normals((5, 2, 7))
    kw = dict(variant="vanilla", N=6, grid=GRID, seed=7, frame="absolute", truth_seed=3)
    whole = particle_cov_paths_nd(_D2, trials=5, chunk=2, init=init, **kw)
    parts = [particle_cov_paths_nd(_D2, trials=len(init[rows]), chunk=2, first_chunk=c,
                                   init=init[rows], **kw)
             for c, rows in enumerate([slice(0, 2), slice(2, 4), slice(4, 5)])]
    assert whole.keys() == parts[0].keys()
    for key in whole:
        expected = parts[0][key] if key == "t" else np.concatenate([p[key] for p in parts])
        np.testing.assert_array_equal(whole[key], expected)
