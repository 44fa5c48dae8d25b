"""Model container, Gramians, ARE solver, and matrix utilities."""
import itertools
import math

import numpy as np
import pytest
from scipy.linalg import expm

import kbflow
from conftest import outputs, random_model, random_psd, scalar_lg
from kbflow import (
    LinearGaussianModel,
    NoStabilizingSolution,
    NotPSD,
    ScalarModel,
    SingularGramian,
    check_controllability,
    check_observability,
    gramians,
    load_model,
    log_norm,
    ricc_drift,
    save_model,
    solve_are,
    spectral_abscissa,
    spectral_matching_distance,
    symmetric_sqrt,
)


def test_s_is_derived_and_symmetric():
    m = random_model(3, seed=7, d_y=2)
    assert np.linalg.norm(m.S - m.S.T) < 1e-12
    np.testing.assert_allclose(m.S, m.H.T @ np.linalg.inv(m.R1) @ m.H,
                               atol=1e-12)
    assert "S" not in m.to_dict()


def test_model_validation():
    with pytest.raises(ValueError):
        LinearGaussianModel([[0.0, 1.0]], [[1.0]], [[1.0]], [[1.0]])
    with pytest.raises((NotPSD, ValueError)):
        LinearGaussianModel([[0.0]], [[1.0]], [[1.0]], [[0.0]])  # R1 singular
    with pytest.raises((NotPSD, ValueError)):
        LinearGaussianModel([[0.0]], [[1.0]], [[-1.0]], [[1.0]])
    # d_y may exceed d
    m = random_model(2, seed=3, d_y=4)
    assert m.d == 2 and m.d_y == 4


def test_scalar_model_reduction():
    sm = ScalarModel(A=1.0, R=2.0, S=3.0)
    m = sm.to_model()
    assert m.d == 1
    np.testing.assert_allclose(m.S, [[3.0]], atol=1e-12)
    np.testing.assert_allclose(m.R, [[2.0]])
    with pytest.raises(ValueError):
        ScalarModel(A=1.0, R=0.0, S=1.0)


def test_gramians_constant_integrands():
    # A=0 makes both integrands constant: O_tau = tau*S, C_tau = tau*R
    m = LinearGaussianModel([[0.0]], [[1.0]], [[1.0]], [[1.0]])
    g = gramians(m, tau=2.0)
    np.testing.assert_allclose(g.O_tau, [[2.0]], rtol=1e-8)
    m3 = LinearGaussianModel([[0.0]], [[1.0]], [[3.0]], [[1.0]])
    g3 = gramians(m3, tau=1.0)
    np.testing.assert_allclose(g3.C_tau, [[3.0]], rtol=1e-8)


def test_gramian_closed_form_integral():
    # C_tau = int_0^tau e^{2As} R ds = (1 - e^{-2})/2 for A=-1, R=1
    m = LinearGaussianModel([[-1.0]], [[1.0]], [[1.0]], [[1.0]])
    g = gramians(m, tau=1.0)
    np.testing.assert_allclose(g.C_tau, [[(1 - math.exp(-2)) / 2]], rtol=1e-8)


def test_gramian_refinement_is_converged():
    # tightening the quadrature tolerance must not move the result
    m = random_model(2, seed=11)
    loose = gramians(m, tau=1.5, rel_tol=1e-8)
    tight = gramians(m, tau=1.5, rel_tol=1e-10)
    rel = np.linalg.norm(loose.O_tau - tight.O_tau) / np.linalg.norm(tight.O_tau)
    assert rel < 1e-7


def test_gramian_refinement_stops_on_each_integrals_own_norm():
    # |I_CO| = 0.10 here: refined to 1e-8 of 1 rather than of itself, the
    # composite leaves C_tau_of_O 1.6e-7 from the fine grid's
    m = outputs._model(kbflow, 3, 63, stabilize=0.5)
    O, _, I_CO, _ = kbflow.model._gramians_at(m, 0.5, 8192)
    O_inv = np.linalg.inv(0.5 * (O + O.T))
    fine = O_inv @ I_CO @ O_inv
    got = gramians(m, 0.5).C_tau_of_O
    assert np.linalg.norm(got - fine) <= 5e-8 * np.linalg.norm(fine)


@pytest.mark.parametrize("tau", [0.1, 1.0])
@pytest.mark.parametrize("model", ["d1", "d2", "d3", "d4", "A20"])
def test_gramians_meet_the_lyapunov_identities(model, tau):
    # -A'O - OA = e^{-A'tau} S e^{-A tau} - S and AC + CA' = e^{A tau} R e^{A'tau} - R
    m = (scalar_lg(A=20.0) if model == "A20" else
         outputs._model(kbflow, int(model[1]), 60 + int(model[1]), stabilize=0.5))
    g = gramians(m, tau)
    for X, Q, G in ((-m.A.T, m.S, g.O_tau), (m.A, m.R, g.C_tau)):
        E = expm(X * tau)
        rhs = E @ Q @ E.T - Q
        assert np.linalg.norm(X @ G + G @ X.T - rhs) <= 1e-10 * np.linalg.norm(rhs)


def test_gramian_singular_detected():
    # H = 0 makes O_tau = 0, R = 0 makes C_tau = 0
    for H, R, check, name in (([[0.0]], [[1.0]], check_observability, "O_tau"),
                              ([[1.0]], [[0.0]], check_controllability, "C_tau")):
        m = LinearGaussianModel([[0.0]], H, R, [[1.0]])
        assert not check(m)
        with pytest.raises(SingularGramian, match=name):
            gramians(m, tau=1.0)


def test_are_scalar_fixed_points():
    m = LinearGaussianModel([[0.0]], [[1.0]], [[1.0]], [[1.0]])
    np.testing.assert_allclose(solve_are(m).P, [[1.0]], atol=1e-10)
    m20 = scalar_lg(A=20.0)
    P = solve_are(m20).P
    assert abs(P[0, 0] - (20 + math.sqrt(401))) < 1e-8


def test_are_random_models():
    for seed in (0, 1, 2):
        m = random_model(3, seed=seed)
        P = solve_are(m).P
        assert np.linalg.norm(ricc_drift(m, P)) < 1e-8 * (1 + np.linalg.norm(P) ** 2)
        closed = m.A - P @ m.S
        assert spectral_abscissa(closed) < 0
        np.testing.assert_allclose(P, P.T, atol=1e-10)
        assert np.linalg.eigvalsh(P)[0] >= -1e-10 * np.linalg.norm(P)


@pytest.mark.parametrize("seed", [3, 12])
def test_solve_are_is_exactly_symmetric(seed):
    # without signal noise the last Newton iterate of these corpus models has
    # a negative eigenvalue at rounding level, which the projection clamps
    m = outputs._model(kbflow, 3, seed, stabilize=1.0)
    with pytest.warns(UserWarning, match="not controllable"):
        P = solve_are(LinearGaussianModel(m.A, m.H, np.zeros((3, 3)), m.R1)).P
    np.testing.assert_array_equal(P, P.T)


def test_are_rejects_unobservable():
    m = LinearGaussianModel([[1.0]], [[0.0]], [[1.0]], [[1.0]])  # unstable, H=0
    with pytest.warns(UserWarning, match="not observable"):
        with pytest.raises(NoStabilizingSolution):
            solve_are(m)


def test_are_pbh_rejects_unreachable_axis_mode():
    # A=0, R=0: the mode 0 sits on the imaginary axis and no noise reaches
    # it, so P=0 is the only solution and its closed loop A - P S = 0 is not
    # Hurwitz
    m = LinearGaussianModel([[0.0]], [[1.0]], [[0.0]], [[1.0]])
    with pytest.warns(UserWarning, match="not controllable"):
        with pytest.raises(NoStabilizingSolution, match="imaginary axis"):
            solve_are(m)
    # A=1, R=0: the unreachable mode is unstable but detectable; 2P - P^2 = 0
    # has the stabilizing root P = 2
    m = LinearGaussianModel([[1.0]], [[1.0]], [[0.0]], [[1.0]])
    with pytest.warns(UserWarning, match="not controllable"):
        P = solve_are(m).P
    np.testing.assert_allclose(P, [[2.0]], atol=1e-10)


def test_controllability_observability_flags():
    m = random_model(3, seed=5)
    assert check_controllability(m)
    assert check_observability(m)
    deaf = LinearGaussianModel(np.eye(2).tolist(), [[1.0, 0.0]],
                               np.eye(2).tolist(), [[1.0]])
    # H only sees the first coordinate and A is diagonal: unobservable
    assert not check_observability(deaf)


def test_spectral_abscissa_and_log_norm():
    assert spectral_abscissa(np.eye(2)) == pytest.approx(1.0)
    assert log_norm(np.eye(2)) == pytest.approx(1.0)
    skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert spectral_abscissa(skew) == pytest.approx(0.0, abs=1e-12)
    assert log_norm(skew) == pytest.approx(0.0, abs=1e-12)
    shear = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert spectral_abscissa(shear) == pytest.approx(0.0, abs=1e-12)
    assert log_norm(shear) == pytest.approx(0.5)


def test_log_norm_of_a_stack_is_per_matrix():
    rng = np.random.default_rng(8)
    for d in (1, 2, 3):
        stack = rng.normal(size=(6, d, d))
        np.testing.assert_array_equal(log_norm(stack), [log_norm(M) for M in stack])
        assert type(log_norm(stack[0])) is float


def test_log_norm_dominates_abscissa():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        M = rng.normal(size=(3, 3))
        assert log_norm(M) >= spectral_abscissa(M) - 1e-10


def test_symmetric_sqrt():
    np.testing.assert_allclose(symmetric_sqrt(np.eye(2)), np.eye(2), atol=1e-12)
    np.testing.assert_allclose(symmetric_sqrt(np.diag([4.0, 9.0])),
                               np.diag([2.0, 3.0]), atol=1e-12)
    Q = np.array([[2.0, 1.0], [1.0, 2.0]])
    B = symmetric_sqrt(Q)
    assert np.linalg.norm(B @ B - Q) < 1e-10
    np.testing.assert_allclose(B, B.T, atol=1e-12)
    with pytest.raises(NotPSD):
        symmetric_sqrt(np.diag([1.0, -1.0]))
    # clamp tolerance: tiny negative eigenvalues are forgiven
    tiny = np.diag([1.0, -1e-14])
    out = symmetric_sqrt(tiny)
    assert np.linalg.eigvalsh(out)[0] >= 0


def test_spectral_matching_distance():
    M = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert spectral_matching_distance(M, M) == pytest.approx(0.0, abs=1e-12)
    assert spectral_matching_distance(np.diag([1.0, 2.0]),
                                      np.diag([2.0, 1.0])) == pytest.approx(0.0, abs=1e-12)
    assert spectral_matching_distance(np.diag([0.0, 0.0]),
                                      np.diag([1.0, 3.0])) == pytest.approx(3.0)


def test_spectral_matching_distance_is_the_minimax_assignment():
    # brute force over every pairing of the two spectra, d = 1..9
    rng = np.random.default_rng(17)
    for d in range(1, 10):
        perms = np.array(list(itertools.permutations(range(d))), dtype=np.int8)
        for _ in range(3):
            X, Y = rng.normal(size=(2, d, d))
            D = np.abs(np.linalg.eigvals(X)[:, None] - np.linalg.eigvals(Y)[None, :])
            best = D[np.arange(d), perms].max(axis=1).min()
            assert spectral_matching_distance(X, Y) == best


def test_spectral_matching_distance_is_a_metric_on_samples():
    rng = np.random.default_rng(9)
    for _ in range(30):
        d = rng.integers(2, 5)
        X, Y, Z = (rng.normal(size=(d, d)) for _ in range(3))
        dxy = spectral_matching_distance(X, Y)
        dyx = spectral_matching_distance(Y, X)
        assert dxy == pytest.approx(dyx, abs=1e-10)
        dxz = spectral_matching_distance(X, Z)
        dzy = spectral_matching_distance(Z, Y)
        assert dxy <= dxz + dzy + 1e-10


def test_model_json_roundtrip(tmp_path):
    m = random_model(3, seed=21, d_y=2)
    path = tmp_path / "model.json"
    save_model(m, path)
    back = load_model(path)
    np.testing.assert_allclose(back.A, m.A, atol=0)
    np.testing.assert_allclose(back.H, m.H, atol=0)
    np.testing.assert_allclose(back.R, m.R, atol=0)
    np.testing.assert_allclose(back.R1, m.R1, atol=0)


def test_model_json_rejects_unknown_keys(tmp_path):
    m = scalar_lg()
    path = tmp_path / "model.json"
    save_model(m, path)
    import json

    doc = json.loads(path.read_text())
    doc["S"] = [[1.0]]
    path.write_text(json.dumps(doc))
    with pytest.raises((ValueError, KeyError)):
        load_model(path)
