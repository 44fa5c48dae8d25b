"""Shared model builders for the test suite, and ``tools/outputs.py`` as a
module (its seeded corpus specs and its compare mode)."""
import importlib.util
from pathlib import Path

import numpy as np

from kbflow import LinearGaussianModel, ScalarModel

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("outputs_tool", ROOT / "tools" / "outputs.py")
outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(outputs)


def scalar_lg(A=1.0, R=1.0, S=1.0):
    """Full d=1 model realizing the reduced scalar parameters (A, R, S)."""
    return ScalarModel(A=A, R=R, S=S).to_model()


def random_model(d, seed, d_y=None, stabilize=0.0):
    """Generic random model; controllable/observable with probability one.

    ``stabilize`` shifts the drift spectrum left by that amount, which keeps
    long-horizon flows tame without affecting genericity.
    """
    rng = np.random.default_rng(seed)
    d_y = d if d_y is None else d_y
    A = rng.normal(size=(d, d)) / np.sqrt(d) - stabilize * np.eye(d)
    H = rng.normal(size=(d_y, d)) / np.sqrt(d)
    G = rng.normal(size=(d, d)) / np.sqrt(d)
    R = G @ G.T + 0.5 * np.eye(d)
    G1 = rng.normal(size=(d_y, d_y)) / np.sqrt(d_y)
    R1 = G1 @ G1.T + 0.5 * np.eye(d_y)
    return LinearGaussianModel(A, H, R, R1)


def random_psd(d, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    G = rng.normal(size=(d, d))
    return scale * (G @ G.T) / d
