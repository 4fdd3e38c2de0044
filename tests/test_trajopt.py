from __future__ import annotations

import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
import verbatim_oracles

from guided_ddpg import trajopt
from guided_ddpg.ddpg import DdpgHyper, make_agent, policy_action
from guided_ddpg.envs import InsertionEnvConfig, initial_state_distribution, rollout
from guided_ddpg.exceptions import (
    InputError,
    NotPositiveDefiniteError,
    NumericalError,
    SupervisorError,
)
from guided_ddpg.trajopt import (
    DualState,
    LinearDynamics,
    LinearGaussianPolicy,
    QuadraticCost,
    SmoothedInsertionCost,
    SupervisorConfig,
    TrajectoryDistribution,
    expected_cost,
    fit_dynamics,
    kl_divergence,
    linearize_policy,
    lqg_backward,
    lqg_forward,
    prior_penalty,
    run_supervisor,
    update_epsilon,
    update_trajectory,
)


def riccati_oracle(A, B, Q, R, Qf, horizon):
    """Independent discrete-time finite-horizon Riccati recursion (u = -K x)."""
    P = Qf.copy()
    gains = []
    for _ in range(horizon):
        K = np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)
        P = Q + K.T @ R @ K + (A - B @ K).T @ P @ (A - B @ K)
        gains.append(K)
    return list(reversed(gains))


def lqr_problem(rng, n, m, horizon):
    A = rng.normal(scale=0.5, size=(n, n)) + 0.3 * np.eye(n)
    B = rng.normal(size=(n, m))
    Q = np.eye(n) * rng.uniform(0.5, 2.0)
    R = np.eye(m) * rng.uniform(0.5, 2.0)
    Qf = np.eye(n) * rng.uniform(0.5, 3.0)
    F = np.tile(np.concatenate([A, B], axis=1), (horizon, 1, 1))
    dynamics = LinearDynamics(F, np.zeros((horizon, n)), np.zeros((horizon, n, n)))
    Czz = np.zeros((horizon, n + m, n + m))
    Czz[:, :n, :n] = 2.0 * Q
    Czz[:, n:, n:] = 2.0 * R
    cost = QuadraticCost(Czz, np.zeros((horizon, n + m)), np.zeros(horizon), 2.0 * Qf, np.zeros(n), 0.0)
    return A, B, Q, R, Qf, dynamics, cost


def constant_policy(horizon, n, m, K=None, k=None, cov=None):
    K = np.zeros((m, n)) if K is None else K
    k = np.zeros(m) if k is None else k
    cov = np.eye(m) if cov is None else cov
    return LinearGaussianPolicy(np.tile(K, (horizon, 1, 1)), np.tile(k, (horizon, 1)),
                                np.tile(cov, (horizon, 1, 1)))


def flat_prior(horizon, n, m):
    """Zero gains and covariance 1e12 I: its pull on the backward pass is about
    1e-12 of a unit cost, so lqg_backward against it is LQR to that order."""
    return constant_policy(horizon, n, m, cov=1e12 * np.eye(m))


# ---------------------------------------------------------------------------
# The per-step stage implementations the vectorized ones replaced, kept as
# oracles: lqg_backward and lqg_forward must match them bitwise, and
# kl_divergence and expected_cost to 1e-12 relative. Their solves are numpy's:
# the backward pass inverts each prior covariance and solves each step once,
# against [Qux | qu | I], as the stacked pass does.


def _oracle_chol(mat: np.ndarray, what: str) -> np.ndarray:
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"{what} is not positive definite") from exc


def oracle_kl_divergence(p: TrajectoryDistribution, other: LinearGaussianPolicy) -> float:
    """Sum over steps of the expected Gaussian KL between action conditionals."""
    pol = p.policy
    if pol.K.shape[:2] != other.K.shape[:2]:
        raise ValueError("policies must share horizon and dimensions")
    T, m, _ = pol.K.shape
    total = 0.0
    for t in range(T):
        c1 = pol.C[t]
        c2 = other.C[t]
        l1 = _oracle_chol(c1, "policy covariance")
        l2 = _oracle_chol(c2, "policy covariance")
        logdet1 = 2.0 * np.sum(np.log(np.diag(l1)))
        logdet2 = 2.0 * np.sum(np.log(np.diag(l2)))
        c2_inv_c1 = np.linalg.solve(c2, c1)
        dK = pol.K[t] - other.K[t]
        d = dK @ p.mean[t] + (pol.k[t] - other.k[t])
        c2_inv_d = np.linalg.solve(c2, d)
        c2_inv_dK = np.linalg.solve(c2, dK)
        quad = float(d @ c2_inv_d) + float(np.trace(c2_inv_dK @ p.cov[t] @ dK.T))
        total += 0.5 * (logdet2 - logdet1 - m + float(np.trace(c2_inv_c1)) + quad)
    return float(total)


def oracle_lqg_backward(
    dynamics: LinearDynamics,
    cost: QuadraticCost,
    prior: LinearGaussianPolicy,
    eta: float,
    lm_reg: float = 0.0,
) -> LinearGaussianPolicy:
    """Maximum-entropy Riccati recursion on the dual surrogate cost."""
    if eta <= 0.0:
        raise InputError(f"eta must be positive, got {eta}")
    T, n, nm = dynamics.F.shape
    m = nm - n
    if cost.Czz.shape != (T, nm, nm):
        raise ValueError("dynamics and cost horizons/dimensions disagree")
    if prior.K.shape[:2] != (T, m):
        raise ValueError("prior horizon/dimensions disagree with dynamics")

    prior_inv = []
    for t in range(T):
        _oracle_chol(prior.C[t], "prior covariance")
        prior_inv.append(np.linalg.inv(prior.C[t]))

    K = np.zeros((T, m, n))
    k = np.zeros((T, m))
    C = np.zeros((T, m, m))
    Vxx = cost.Cxx_T / eta
    vx = cost.cx_T / eta
    for t in range(T - 1, -1, -1):
        Ci = prior_inv[t]
        M = np.concatenate([-prior.K[t], np.eye(m)], axis=1)
        quad = cost.Czz[t] / eta + M.T @ Ci @ M
        lin = cost.cz[t] / eta - M.T @ (Ci @ prior.k[t])

        Ft = dynamics.F[t]
        ft = dynamics.f[t]
        Q = quad + Ft.T @ Vxx @ Ft
        q = lin + Ft.T @ (Vxx @ ft + vx)

        Quu = 0.5 * (Q[n:, n:] + Q[n:, n:].T) + lm_reg * np.eye(m)
        Qux = Q[n:, :n]
        Qxx = Q[:n, :n]
        qu = q[n:]
        qx = q[:n]

        _oracle_chol(Quu, "action Hessian")
        sol = np.linalg.solve(Quu, np.concatenate([Qux, qu[:, None], np.eye(m)], axis=1))
        K[t] = -sol[:, :n]
        k[t] = -sol[:, n]
        Cuu = sol[:, n + 1:]
        C[t] = 0.5 * (Cuu + Cuu.T)

        Vxx = Qxx + Qux.T @ K[t]
        Vxx = 0.5 * (Vxx + Vxx.T)
        vx = qx + Qux.T @ k[t]
    return LinearGaussianPolicy(K, k, C)


def oracle_lqg_forward(
    dynamics: LinearDynamics,
    policy: LinearGaussianPolicy,
    init_mean: np.ndarray,
    init_cov: np.ndarray,
) -> TrajectoryDistribution:
    """Propagate Gaussian state marginals through the closed loop."""
    T, n, _ = dynamics.F.shape
    if policy.K.shape[0] != T:
        raise ValueError("policy and dynamics horizons disagree")
    mean = np.zeros((T + 1, n))
    cov = np.zeros((T + 1, n, n))
    mean[0] = np.asarray(init_mean, dtype=np.float64)
    cov[0] = np.asarray(init_cov, dtype=np.float64)
    joint_means, joint_covs = [], []
    for t in range(T):
        Kt, kt, Ct = policy.K[t], policy.k[t], policy.C[t]
        mu, S = mean[t], cov[t]
        mu_u = Kt @ mu + kt
        SKt = S @ Kt.T
        joint_means.append(np.concatenate([mu, mu_u]))
        joint_covs.append(np.block([[S, SKt], [SKt.T, Kt @ SKt + Ct]]))
        mean[t + 1] = dynamics.F[t] @ joint_means[t] + dynamics.f[t]
        nxt = dynamics.F[t] @ joint_covs[t] @ dynamics.F[t].T + dynamics.Sigma[t]
        cov[t + 1] = 0.5 * (nxt + nxt.T)
    return TrajectoryDistribution(mean, cov, np.stack(joint_means), np.stack(joint_covs), policy)


def oracle_expected_cost(cost: QuadraticCost, traj: TrajectoryDistribution) -> float:
    """Exact Gaussian expectation of the quadratic cost under ``traj``, its
    ``[s; u]`` moments rebuilt from the state marginals and the policy."""
    pol = traj.policy
    total = 0.0
    for t in range(pol.K.shape[0]):
        Kt, kt, Ct = pol.K[t], pol.k[t], pol.C[t]
        mu, S = traj.mean[t], traj.cov[t]
        mu_z = np.concatenate([mu, Kt @ mu + kt])
        SKt = S @ Kt.T
        cov_z = np.block([[S, SKt], [SKt.T, Kt @ SKt + Ct]])
        total += 0.5 * float(mu_z @ cost.Czz[t] @ mu_z + np.trace(cost.Czz[t] @ cov_z))
        total += float(cost.cz[t] @ mu_z) + float(cost.const[t])
    mu_T, S_T = traj.mean[-1], traj.cov[-1]
    total += 0.5 * float(mu_T @ cost.Cxx_T @ mu_T + np.trace(cost.Cxx_T @ S_T))
    total += float(cost.cx_T @ mu_T) + float(cost.const_T)
    return total


class TestFitDynamics:
    def test_exact_linear_recovery(self):
        rng = np.random.default_rng(0)
        n, m, horizon, n_roll = 3, 2, 5, 50
        A = rng.normal(scale=0.4, size=(n, n))
        B = rng.normal(size=(n, m))
        states = np.zeros((n_roll, horizon + 1, n))
        actions = rng.normal(size=(n_roll, horizon, m))
        states[:, 0] = rng.normal(size=(n_roll, n))
        for t in range(horizon):
            states[:, t + 1] = states[:, t] @ A.T + actions[:, t] @ B.T
        dyn = fit_dynamics(states, actions)
        for t in range(horizon):
            assert np.allclose(dyn.F[t], np.concatenate([A, B], axis=1), atol=1e-6)
            assert np.allclose(dyn.f[t], 0.0, atol=1e-6)
            assert np.all(np.abs(dyn.Sigma[t]) < 1e-8)

    def test_constant_data(self):
        c = np.array([0.3, -0.7])
        states = np.tile(c, (10, 4, 1))
        states[:, 0] = np.random.default_rng(1).normal(size=(10, 2))
        actions = np.zeros((10, 3, 1))
        dyn = fit_dynamics(states, actions)
        # steps 1.. have constant inputs; check the first step which has spread
        assert np.allclose(dyn.F[0] @ np.zeros(3) + dyn.f[0], c, atol=1e-5)
        pred = states[0, 1] @ dyn.F[1][:, :2].T + dyn.f[1]
        assert np.allclose(pred, c, atol=1e-5)

    def test_noisy_system_within_three_standard_errors(self):
        rng = np.random.default_rng(42)
        n, m, horizon, n_roll = 2, 1, 4, 100
        A = np.array([[0.9, 0.1], [0.0, 0.8]])
        B = np.array([[0.0], [0.5]])
        noise_std = 0.05
        states = np.zeros((n_roll, horizon + 1, n))
        actions = rng.normal(size=(n_roll, horizon, m))
        states[:, 0] = rng.normal(size=(n_roll, n))
        for t in range(horizon):
            states[:, t + 1] = states[:, t] @ A.T + actions[:, t] @ B.T + noise_std * rng.normal(size=(n_roll, n))
        dyn = fit_dynamics(states, actions)
        truth = np.concatenate([A, B], axis=1)
        for t in range(horizon):
            # OLS oracle: standard errors from the unregularized normal equations
            X = np.concatenate([states[:, t], actions[:, t], np.ones((n_roll, 1))], axis=1)
            beta, *_ = np.linalg.lstsq(X, states[:, t + 1], rcond=None)
            resid = states[:, t + 1] - X @ beta
            dof = n_roll - X.shape[1]
            xtx_inv = np.linalg.inv(X.T @ X)
            for i in range(n):
                sigma2 = resid[:, i] @ resid[:, i] / dof
                se = np.sqrt(sigma2 * np.diag(xtx_inv))[: n + m]
                assert np.all(np.abs(dyn.F[t][i] - truth[i]) <= 3.0 * se)

    def test_overflowing_rollouts_raise_numerical_error(self):
        # rollouts scaled to 1e300 overflow the Gram matrix to inf
        rng = np.random.default_rng(3)
        states = 1e300 * rng.normal(size=(5, 4, 3))
        actions = 1e300 * rng.normal(size=(5, 3, 2))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalError, match="dynamics fit at step 0"):
            fit_dynamics(states, actions)

    def test_overflow_at_a_later_step_is_named(self):
        rng = np.random.default_rng(3)
        states, actions = rng.normal(size=(5, 6, 3)), rng.normal(size=(5, 5, 2))
        actions[:, 3] *= 1e300  # only step 3's Gram matrix overflows
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericalError, match="dynamics fit at step 3 received non-finite values"):
            fit_dynamics(states, actions)


class TestSolvePos:
    @staticmethod
    def _stack(rng, horizon=5, d=3):
        a = rng.normal(size=(horizon, d, d))
        return a @ a.transpose(0, 2, 1) + np.eye(d), rng.normal(size=(horizon, d, 2))

    def test_names_the_first_step_that_fails_to_factor(self):
        gram, rhs = self._stack(np.random.default_rng(1))
        gram[2] = -np.eye(3)
        gram[4] = np.zeros((3, 3))
        with pytest.raises(NumericalError, match="^fit at step 2 failed$") as exc:
            trajopt._solve_pos(gram, rhs, "fit")
        assert isinstance(exc.value.__cause__, np.linalg.LinAlgError)

    def test_a_failure_no_step_shows_is_still_raised(self, monkeypatch):
        cholesky = np.linalg.cholesky

        def failing_on_stacks(a, *args, **kwargs):
            if np.ndim(a) == 3:
                raise np.linalg.LinAlgError("Matrix is not positive definite")
            return cholesky(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "cholesky", failing_on_stacks)
        with pytest.raises(NumericalError, match="^fit failed$"):
            trajopt._solve_pos(*self._stack(np.random.default_rng(1)), "fit")

    @pytest.mark.parametrize("where", ["gram", "rhs"])
    def test_names_the_first_step_with_non_finite_input(self, where):
        gram, rhs = self._stack(np.random.default_rng(2))
        (gram if where == "gram" else rhs)[3, 0, 1] = np.nan
        (gram if where == "gram" else rhs)[4, 1, 0] = np.inf
        with pytest.raises(NumericalError, match="^fit at step 3 received non-finite values$"):
            trajopt._solve_pos(gram, rhs, "fit")
        gram[1] = -np.eye(3)  # an earlier step that fails to factor is named first, as in a loop over steps
        with pytest.raises(NumericalError, match="^fit at step 1 failed$"):
            trajopt._solve_pos(gram, rhs, "fit")


def ridge_stack(rng, horizon, d, k, n_samples, reg):
    """``X' X + reg I`` and ``X' Y`` per step, ``Y`` with ``k`` columns, from ``n_samples`` rows:
    rank-deficient but for the ridge when ``n_samples < d``."""
    X = rng.normal(size=(horizon, n_samples, d)) * 10.0 ** rng.uniform(-3, 2, size=(horizon, 1, d))
    Y = rng.normal(size=(horizon, n_samples, k))
    XT = X.transpose(0, 2, 1)
    return XT @ X + reg * np.eye(d), XT @ Y


def spd_stack(rng, count, d, scales=(-8, 8)):
    """``count`` random SPD ``(d, d)`` matrices, each scaled by a random power of ten in ``scales``."""
    a = rng.normal(size=(count, d, d))
    return (a @ a.transpose(0, 2, 1) + 0.1 * np.eye(d)) * 10.0 ** rng.uniform(*scales, size=(count, 1, 1))


# L L' with L = [[1e-100, 0], [1, 1]]: its solve against [1e200; 1] is [2e400; -1e300]
OVERFLOWING_GRAM = np.array([[[1e-200, 1e-100], [1e-100, 2.0]]])
OVERFLOWING_RHS = np.array([[[1e200], [1.0]]])


def residual_within(a, x, b, rtol):
    """Whether each slice solves ``a x = b`` to ``rtol`` of ``|a| |x|``, the bound of a backward-stable solve."""
    resid = np.abs(a @ x - b).max(axis=(-2, -1))
    return bool((resid <= rtol * np.abs(a).max(axis=(-2, -1)) * np.abs(x).max(axis=(-2, -1))).all())


class TestCholeskySolves:
    """The numpy solves behind their Cholesky checks are accurate solves at every size."""

    @pytest.mark.parametrize("d", [1, 2, 3, 6, 9, 15, 16, 17, 31, 40])
    def test_solve_pos_solves(self, d):
        rng = np.random.default_rng(d)
        gram = spd_stack(rng, 4, d, scales=(-3, 3))
        rhs = rng.normal(size=(4, d, 3))
        got = trajopt._solve_pos(gram, rhs, "fit")
        assert residual_within(gram, got, rhs, 1e-14 * d)
        # a step solves as it would alone, and an identity right-hand side inverts each slice
        assert np.array_equal(trajopt._solve_pos(gram[1:2], rhs[1:2], "fit")[0], got[1])
        eye = np.broadcast_to(np.eye(d), gram.shape)
        assert residual_within(gram, trajopt._solve_pos(gram, eye, "fit"), eye, 1e-14 * d)

    @pytest.mark.parametrize("d,k", [(9, 6), (6, 2), (2, 9), (2, 2), (3, 7), (20, 4)])
    def test_solve_pos_matches_a_cholesky_solve(self, d, k):
        rng = np.random.default_rng([d, k])
        gram = spd_stack(rng, 50, d, scales=(-3, 3))
        rhs = rng.normal(size=(50, d, k))
        lower = np.linalg.cholesky(gram)
        want = np.linalg.solve(lower.mT, np.linalg.solve(lower, rhs))
        assert np.allclose(trajopt._solve_pos(gram, rhs, "fit"), want, rtol=1e-7, atol=0)

    @pytest.mark.parametrize("d,k", [(9, 6), (6, 2)])
    def test_rank_deficient_ridge_fits_are_backward_stable(self, d, k):
        # the ridge leaves condition numbers near 1e12, so the residual is held to the backward error
        gram, rhs = ridge_stack(np.random.default_rng(3), 100, d, k, 5, 1e-6)
        assert residual_within(gram, trajopt._solve_pos(gram, rhs, "fit"), rhs, 1e-13)

    @pytest.mark.parametrize("cond", [1.0, 1e8])
    def test_prior_penalty_inverts_the_prior_covariances(self, cond):
        rng = np.random.default_rng([16, int(cond)])
        for _ in range(20):
            prior = random_stage_problem(rng, cond)[2]
            n = prior.K.shape[2]
            P, p = prior_penalty(prior)
            # the action block of P is C^-1, and the action part of p is C^-1 k
            assert residual_within(prior.C, P[:, n:, n:], np.eye(prior.K.shape[1]), 1e-14)
            assert residual_within(prior.C, p[:, n:, None], prior.k[:, :, None], 1e-14)

    @pytest.mark.parametrize("cond", [1.0, 1e8])
    def test_riccati_step_solves_the_action_hessian(self, cond):
        # the last step of a random problem, alone: its Q comes from the terminal cost
        rng = np.random.default_rng([17, int(cond)])
        for _ in range(20):
            dynamics, cost, prior, _, _, _ = random_stage_problem(rng, cond)
            n, eta = dynamics.F.shape[1], 10.0 ** rng.uniform(-2, 3)
            P, p = prior_penalty(prior)
            F, f = dynamics.F[-1], dynamics.f[-1]
            Vxx, vx = cost.Cxx_T / eta, cost.cx_T / eta
            Q = cost.Czz[-1] / eta + P[-1] + F.T @ Vxx @ F
            q = cost.cz[-1] / eta - p[-1] + F.T @ (Vxx @ f + vx)
            Quu = 0.5 * (Q[n:, n:] + Q[n:, n:].T)
            step = LinearDynamics(dynamics.F[-1:], dynamics.f[-1:], dynamics.Sigma[-1:])
            last = replace(cost, Czz=cost.Czz[-1:], cz=cost.cz[-1:], const=cost.const[-1:])
            got = lqg_backward(step, last, (P[-1:], p[-1:]), eta)
            assert residual_within(Quu, -got.K[0], Q[n:, :n], 1e-14)
            assert residual_within(Quu, -got.k[0][:, None], q[n:, None], 1e-14)
            assert residual_within(Quu, got.C[0], np.eye(prior.K.shape[1]), 1e-14)

    def test_overflow_returns_non_finite_values_silently(self):
        # as LAPACK does, with no warning: 2e400 overflows to inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = trajopt._solve_pos(OVERFLOWING_GRAM, OVERFLOWING_RHS, "fit")
        assert np.isposinf(got[0, 0, 0]) and got[0, 1, 0] == pytest.approx(-1e300, rel=1e-12)


class TestLinearizePolicy:
    def test_affine_policy_recovered_exactly(self):
        rng = np.random.default_rng(3)
        K_true = rng.normal(size=(2, 4))
        k_true = rng.normal(size=2)
        states = rng.normal(size=(60, 3, 4))
        policy = linearize_policy(lambda S: S @ K_true.T + k_true, states, 0.1 * np.eye(2))
        for t in range(2):
            assert np.allclose(policy.K[t], K_true, atol=1e-6)
            assert np.allclose(policy.k[t], k_true, atol=1e-6)
            assert np.allclose(policy.C[t], 0.1 * np.eye(2))

    def test_constant_policy_zero_gain(self):
        u0 = np.array([0.5, -1.5])
        states = np.random.default_rng(4).normal(size=(20, 2, 3))
        policy = linearize_policy(lambda S: np.tile(u0, S.shape[:-1] + (1,)), states, np.eye(2))
        assert np.allclose(policy.K[0], 0.0)
        assert np.allclose(policy.k[0], u0)

    def test_tanh_policy_jacobian_oracle(self):
        rng = np.random.default_rng(5)
        W = rng.normal(scale=0.8, size=(2, 4))
        b = rng.normal(scale=0.2, size=2)
        fn = lambda S: np.tanh(S @ W.T + b)
        s0 = rng.normal(scale=0.3, size=4)
        states = (s0 + 1e-3 * rng.normal(size=(8000, 1, 4))).reshape(8000, 1, 4)
        states = np.concatenate([states, states], axis=1)  # horizon 1 needs T+1 steps
        policy = linearize_policy(fn, states, np.eye(2))
        # analytic Jacobian at the sample mean
        mean_state = states[:, 0, :].mean(axis=0)
        z = W @ mean_state + b
        jac = (1.0 - np.tanh(z) ** 2)[:, None] * W
        assert np.max(np.abs(policy.K[0] - jac)) < 1e-3

    def test_non_finite_actions_name_their_step(self):
        states = np.random.default_rng(6).normal(size=(6, 4, 3))
        fn = lambda S: np.where(S[..., :2] == states[0, 2, :2], np.inf, S[..., :2])  # inf only at step 2
        with np.errstate(invalid="ignore"), \
                pytest.raises(NumericalError, match="policy linearization at step 2 received non-finite values"):
            linearize_policy(fn, states, np.eye(2))


class TestKlDivergence:
    def test_identical_policies_zero(self):
        pol = constant_policy(5, 3, 2, K=np.ones((2, 3)), k=np.ones(2), cov=0.5 * np.eye(2))
        dyn = LinearDynamics(np.zeros((5, 3, 5)), np.zeros((5, 3)), np.zeros((5, 3, 3)))
        traj = lqg_forward(dyn, pol, np.zeros(3), np.eye(3))
        assert kl_divergence(traj, pol) == pytest.approx(0.0, abs=1e-12)

    def test_covariance_ratio_closed_form(self):
        # same means, covariances C vs 2C in 1-D: per-step KL = 0.5(0.5 - 1 + ln 2)
        horizon = 7
        C = 0.3
        p = constant_policy(horizon, 1, 1, cov=np.array([[C]]))
        q = constant_policy(horizon, 1, 1, cov=np.array([[2 * C]]))
        dyn = LinearDynamics(np.zeros((horizon, 1, 2)), np.zeros((horizon, 1)), np.zeros((horizon, 1, 1)))
        traj = lqg_forward(dyn, p, np.zeros(1), np.zeros((1, 1)))
        expected = horizon * 0.5 * (0.5 - 1.0 + np.log(2.0))
        assert kl_divergence(traj, q) == pytest.approx(expected, abs=1e-10)

    def test_mean_offset_closed_form(self):
        # offsets differing by d with equal covariance C in 1-D: per-step KL = d^2 / (2C)
        horizon = 4
        C, d = 0.25, 0.15
        p = constant_policy(horizon, 1, 1, k=np.array([d]), cov=np.array([[C]]))
        q = constant_policy(horizon, 1, 1, k=np.array([0.0]), cov=np.array([[C]]))
        dyn = LinearDynamics(np.zeros((horizon, 1, 2)), np.zeros((horizon, 1)), np.zeros((horizon, 1, 1)))
        traj = lqg_forward(dyn, p, np.zeros(1), np.zeros((1, 1)))
        assert kl_divergence(traj, q) == pytest.approx(horizon * d**2 / (2 * C), abs=1e-10)

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            horizon, n, m = 3, 2, 2
            def rand_policy():
                K = rng.normal(size=(horizon, m, n))
                k = rng.normal(size=(horizon, m))
                C = np.stack([np.eye(m) * rng.uniform(0.1, 2.0) for _ in range(horizon)])
                return LinearGaussianPolicy(K, k, C)
            p, q = rand_policy(), rand_policy()
            F = np.concatenate([0.5 * np.eye(n), rng.normal(size=(n, m))], axis=1)
            dyn = LinearDynamics(np.tile(F, (horizon, 1, 1)), np.zeros((horizon, n)),
                                 np.tile(0.01 * np.eye(n), (horizon, 1, 1)))
            traj = lqg_forward(dyn, p, np.zeros(n), 0.1 * np.eye(n))
            assert kl_divergence(traj, q) >= 0.0


    def test_nonnegative_on_stage_problems(self):
        # a policy against itself and an optimized policy against its prior, where
        # rounding alone used to make the first about -2e-15
        rng = np.random.default_rng(14)
        for _ in range(30):
            dynamics, cost, prior, _, mu0, S0 = random_stage_problem(rng)
            assert kl_divergence(lqg_forward(dynamics, prior, mu0, S0), prior) >= 0.0
            policy = lqg_backward(dynamics, cost, prior_penalty(prior), 10.0 ** rng.uniform(-2, 16))
            assert kl_divergence(lqg_forward(dynamics, policy, mu0, S0), prior) >= 0.0

    def test_nan_state_covariance_stays_nan(self):
        # update_trajectory counts a non-finite KL as infinite, so the clamp at zero must keep a NaN
        pol = constant_policy(3, 2, 2, K=np.ones((2, 2)), cov=np.eye(2))
        traj = TrajectoryDistribution(np.zeros((4, 2)), np.full((4, 2, 2), np.nan), np.zeros((3, 4)),
                                      np.full((3, 4, 4), np.nan), pol)
        assert np.isnan(kl_divergence(traj, constant_policy(3, 2, 2, cov=np.eye(2))))


class TestLqgBackward:
    def test_matches_riccati_oracle(self):
        rng = np.random.default_rng(7)
        for trial in range(5):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 5))
            horizon = int(rng.integers(3, 40))
            A, B, Q, R, Qf, dynamics, cost = lqr_problem(rng, n, m, horizon)
            policy = lqg_backward(dynamics, cost, prior_penalty(flat_prior(horizon, n, m)), eta=1.0)
            oracle = riccati_oracle(A, B, Q, R, Qf, horizon)
            for t in range(horizon):
                assert np.max(np.abs(policy.K[t] + oracle[t])) < 1e-6

    def test_large_eta_returns_prior(self):
        # stable closed loop so the vanishing cost term is not amplified
        rng = np.random.default_rng(8)
        n, m, horizon = 2, 1, 6
        A = 0.5 * np.eye(n)
        B = np.array([[0.2], [0.4]])
        F = np.tile(np.concatenate([A, B], axis=1), (horizon, 1, 1))
        dynamics = LinearDynamics(F, np.zeros((horizon, n)), np.zeros((horizon, n, n)))
        Czz = np.tile(np.eye(n + m), (horizon, 1, 1))
        cost = QuadraticCost(Czz, np.zeros((horizon, n + m)), np.zeros(horizon), np.eye(n), np.zeros(n), 0.0)
        prior = constant_policy(horizon, n, m, K=0.05 * rng.normal(size=(m, n)),
                                k=rng.normal(size=m), cov=0.5 * np.eye(m))
        gaps = []
        for eta in (1e0, 1e3, 1e6, 1e9):
            policy = lqg_backward(dynamics, cost, prior_penalty(prior), eta)
            gaps.append(np.max(np.abs(policy.K - prior.K)) + np.max(np.abs(policy.k - prior.k))
                        + np.max(np.abs(policy.C - prior.C)))
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-6

    def test_one_step_scalar_covariance(self):
        # 1-step 1-D: Quu = R + B^2 * Qf (doubled by convention), C = 1 / Quu
        A = np.array([[1.0]])
        B = np.array([[2.0]])
        Q = np.array([[1.5]])
        R = np.array([[0.7]])
        Qf = np.array([[3.0]])
        F = np.concatenate([A, B], axis=1)[None]
        dynamics = LinearDynamics(F, np.zeros((1, 1)), np.zeros((1, 1, 1)))
        Czz = np.zeros((1, 2, 2))
        Czz[0, 0, 0] = 2 * Q[0, 0]
        Czz[0, 1, 1] = 2 * R[0, 0]
        cost = QuadraticCost(Czz, np.zeros((1, 2)), np.zeros(1), 2 * Qf, np.zeros(1), 0.0)
        policy = lqg_backward(dynamics, cost, prior_penalty(flat_prior(1, 1, 1)), eta=1.0)
        q_uu = 2 * R[0, 0] + B[0, 0] ** 2 * 2 * Qf[0, 0]
        assert policy.C[0, 0, 0] == pytest.approx(1.0 / q_uu, rel=1e-12)


class TestLqgForward:
    def test_zero_everything_stays_zero(self):
        horizon, n, m = 5, 2, 1
        F = np.concatenate([0.7 * np.eye(n), np.ones((n, m))], axis=1)
        dyn = LinearDynamics(np.tile(F, (horizon, 1, 1)), np.zeros((horizon, n)),
                             np.zeros((horizon, n, n)))
        pol = constant_policy(horizon, n, m, cov=np.zeros((m, m)))
        traj = lqg_forward(dyn, pol, np.zeros(n), np.zeros((n, n)))
        assert np.all(traj.mean == 0.0)

    def test_deterministic_matches_mean_rollout(self):
        rng = np.random.default_rng(9)
        horizon, n, m = 6, 3, 2
        A = rng.normal(scale=0.4, size=(n, n))
        B = rng.normal(size=(n, m))
        F = np.concatenate([A, B], axis=1)
        f = rng.normal(size=n)
        dyn = LinearDynamics(np.tile(F, (horizon, 1, 1)), np.tile(f, (horizon, 1)),
                             np.zeros((horizon, n, n)))
        K = rng.normal(scale=0.2, size=(m, n))
        k = rng.normal(size=m)
        pol = constant_policy(horizon, n, m, K=K, k=k, cov=np.zeros((m, m)))
        x0 = rng.normal(size=n)
        traj = lqg_forward(dyn, pol, x0, np.zeros((n, n)))
        x = x0.copy()
        for t in range(horizon):
            u = K @ x + k
            x = A @ x + B @ u + f
            assert np.allclose(traj.mean[t + 1], x)
        assert np.all(traj.cov == 0.0)

    def test_scalar_variance_recursion(self):
        # s' = 0.5 s, S0 = 1, no control effect: S_t = 0.25^t
        horizon = 8
        F = np.array([[0.5, 0.0]])
        dyn = LinearDynamics(np.tile(F, (horizon, 1, 1)), np.zeros((horizon, 1)),
                             np.zeros((horizon, 1, 1)))
        pol = constant_policy(horizon, 1, 1, cov=np.zeros((1, 1)))
        traj = lqg_forward(dyn, pol, np.zeros(1), np.ones((1, 1)))
        for t in range(horizon + 1):
            assert traj.cov[t, 0, 0] == pytest.approx(0.25**t, rel=1e-12)


class TestDualUpdates:
    @staticmethod
    def _walk(monkeypatch, eta, kls):
        """Run ``update_trajectory`` from ``eta`` with epsilon 1e-2, its KL read from ``kls`` in turn;
        return the result and the eta of each backward pass."""
        dynamics, prior, quad, mu0, S0 = fitted_insertion_problem()
        etas = TestUpdateTrajectory._backward_etas(monkeypatch)
        kls = iter(kls)
        monkeypatch.setattr(trajopt, "kl_divergence", lambda traj, prior: next(kls))
        result = update_trajectory(dynamics, prior, DualState(eta=eta, epsilon=1e-2), quad, mu0, S0)
        return result, etas

    def test_eta_decreases_when_under_target(self, monkeypatch):
        result, etas = self._walk(monkeypatch, 1.0, [0.5e-2, 1e-2])
        assert etas == [1.0, 1.0 / trajopt.ETA_FACTOR]
        assert result.converged and result.dual.eta < 1.0

    def test_eta_increases_when_over_target(self, monkeypatch):
        result, etas = self._walk(monkeypatch, 1.0, [2e-2, 1e-2])
        assert etas == [1.0, trajopt.ETA_FACTOR]
        assert result.converged and result.dual.eta > 1.0

    def test_eta_clamped_at_min(self, monkeypatch):
        # under target at the floor: the walk cannot step down, so the search stops after one pass
        result, etas = self._walk(monkeypatch, trajopt.ETA_MIN, [0.1e-2])
        assert etas == [trajopt.ETA_MIN]
        assert not result.converged and result.dual.eta == trajopt.ETA_MIN

    def test_epsilon_halves_on_poor_improvement(self):
        dual = DualState(eta=1.0, epsilon=0.4)
        assert update_epsilon(dual, 1.0, 0.01).epsilon == pytest.approx(0.2)

    def test_epsilon_grows_on_good_improvement(self):
        dual = DualState(eta=1.0, epsilon=0.4)
        assert update_epsilon(dual, 1.0, 0.9).epsilon == pytest.approx(0.6)

    def test_epsilon_unchanged_in_between(self):
        dual = DualState(eta=1.0, epsilon=0.4)
        assert update_epsilon(dual, 1.0, 0.5).epsilon == 0.4

    def test_epsilon_unchanged_without_predicted_improvement(self):
        dual = DualState(eta=1.0, epsilon=0.4)
        assert update_epsilon(dual, 0.0, 1.0).epsilon == 0.4
        assert update_epsilon(dual, -0.3, 1.0).epsilon == 0.4


def fitted_insertion_problem(seed=0, n_rollouts=8):
    """A fixed fitted-dynamics problem from real environment rollouts."""
    env = InsertionEnvConfig(horizon=40)
    hyper = DdpgHyper.for_env(env)
    nets = make_agent(hyper, seed=seed)
    controller = trajopt._gaussian_controller(lambda S: policy_action(nets.actor, hyper, S), 0.8 * np.eye(2))
    batch = rollout(env, controller, np.random.default_rng(seed), n_rollouts)
    states, actions = batch.states, batch.actions
    dynamics = fit_dynamics(states, actions)
    prior = linearize_policy(lambda S: policy_action(nets.actor, hyper, S), states, 0.64 * np.eye(2))
    cost_model = SmoothedInsertionCost(env)
    quad = cost_model.quadratize(states.mean(axis=0), actions.mean(axis=0))
    mu0, S0 = initial_state_distribution(env)
    return dynamics, prior, quad, mu0, S0


class TestUpdateTrajectory:
    def test_lqr_with_loose_trust_region_matches_riccati(self):
        rng = np.random.default_rng(10)
        n, m, horizon = 2, 1, 10
        A, B, Q, R, Qf, dynamics, cost = lqr_problem(rng, n, m, horizon)
        prior = constant_policy(horizon, n, m, K=rng.normal(scale=0.1, size=(m, n)), cov=np.eye(m))
        dual = DualState(eta=1.0, epsilon=1e8)
        result = update_trajectory(dynamics, prior, dual, cost, np.zeros(n), 0.05 * np.eye(n))
        oracle = riccati_oracle(A, B, Q, R, Qf, horizon)
        for t in range(horizon):
            assert np.max(np.abs(result.policy.K[t] + oracle[t])) < 1e-4

    def test_tight_trust_region_contract(self):
        dynamics, prior, quad, mu0, S0 = fitted_insertion_problem()
        for eps in (1e-3, 1e-2, 1e-1):
            dual = DualState(eta=1.0, epsilon=eps)
            result = update_trajectory(dynamics, prior, dual, quad, mu0, S0)
            assert result.achieved_kl <= 1.5 * eps
            assert result.new_cost <= result.prior_cost + 1e-6

    def test_optimal_prior_is_fixed_point(self):
        rng = np.random.default_rng(11)
        n, m, horizon = 2, 1, 8
        _, _, _, _, _, dynamics, cost = lqr_problem(rng, n, m, horizon)
        optimal = lqg_backward(dynamics, cost, prior_penalty(flat_prior(horizon, n, m)), eta=1.0)
        dual = DualState(eta=1.0, epsilon=1e-6)
        result = update_trajectory(dynamics, prior=optimal, dual=dual, cost=cost,
                                   init_mean=np.zeros(n), init_cov=0.1 * np.eye(n))
        assert result.achieved_kl <= 1.5e-6
        assert np.max(np.abs(result.policy.K - optimal.K)) < 1e-3
        assert result.new_cost <= result.prior_cost + 1e-6

    def test_monotone_kl_in_eta(self):
        dynamics, prior, quad, mu0, S0 = fitted_insertion_problem(seed=1)
        kls = []
        for eta in np.logspace(-2, 4, 7):
            policy = lqg_backward(dynamics, quad, prior_penalty(prior), eta)
            traj = lqg_forward(dynamics, policy, mu0, S0)
            kls.append(kl_divergence(traj, prior))
        assert all(a >= b for a, b in zip(kls, kls[1:]))

    @staticmethod
    def _backward_etas(monkeypatch):
        """The eta of each backward pass that ``update_trajectory`` makes, appended as it makes it."""
        etas = []

        def counting_backward(*args):
            etas.append(args[3])
            return lqg_backward(*args)

        monkeypatch.setattr(trajopt, "lqg_backward", counting_backward)
        return etas

    def test_non_finite_kl_walks_eta_up_and_stops_at_its_ceiling(self, monkeypatch):
        # an iterate with non-finite KL counts as outside the trust region: eta grows tenfold from 1
        # per backward pass, and the search gives up once it is clamped at 1e16, 17 passes in all
        dynamics, prior, quad, mu0, S0 = fitted_insertion_problem()
        etas = self._backward_etas(monkeypatch)
        monkeypatch.setattr(trajopt, "kl_divergence", lambda traj, prior: np.inf)
        with pytest.raises(NumericalError, match="dual search found no controller"):
            update_trajectory(dynamics, prior, DualState(eta=1.0, epsilon=1e-2), quad, mu0, S0)
        assert len(etas) == 17
        assert etas == [10.0**i for i in range(17)] and etas[-1] == trajopt.ETA_MAX

    def test_zero_kl_walks_eta_down_and_stops_at_its_floor(self, monkeypatch):
        # every iterate lies inside the trust region, far from its edge: eta falls tenfold from 1 per
        # backward pass until it is clamped at ETA_MIN, and the search returns the best iterate
        dynamics, prior, quad, mu0, S0 = fitted_insertion_problem()
        etas = self._backward_etas(monkeypatch)
        monkeypatch.setattr(trajopt, "kl_divergence", lambda traj, prior: 0.0)
        result = update_trajectory(dynamics, prior, DualState(eta=1.0, epsilon=1e-2), quad, mu0, S0)
        walk = [1.0]
        while walk[-1] > trajopt.ETA_MIN:
            walk.append(max(walk[-1] / trajopt.ETA_FACTOR, trajopt.ETA_MIN))
        assert etas == walk and etas[-1] == trajopt.ETA_MIN
        assert not result.converged
        assert result.iterations == len(etas) and result.achieved_kl == 0.0
        assert result.dual.eta in etas and result.new_cost <= result.prior_cost

    def test_prior_that_fails_to_factor_ends_the_search_before_any_backward_pass(self, monkeypatch):
        # the prior's penalty is built once per search, so no lm_reg retry can rescue it
        dynamics, prior, quad, mu0, S0 = fitted_insertion_problem()
        etas = self._backward_etas(monkeypatch)
        bad = replace(prior, C=prior.C.copy())
        bad.C[3] = -np.eye(2)
        with pytest.raises(NotPositiveDefiniteError, match="prior covariance is not positive definite"):
            update_trajectory(dynamics, bad, DualState(eta=1.0, epsilon=1e-2), quad, mu0, S0)
        assert etas == []

    def test_search_started_at_large_eta_keeps_a_nonnegative_kl(self):
        # near eta = 1e12-1e16 the optimized policy is the prior up to rounding, whose KL
        # used to read about -2e-15 and end the dual search with an InputError
        rng = np.random.default_rng(15)
        for _ in range(20):
            dynamics, cost, prior, _, mu0, S0 = random_stage_problem(rng)
            for eta in (1e12, 1e16):
                result = update_trajectory(dynamics, prior, DualState(eta=eta, epsilon=1.0), cost, mu0, S0)
                assert 0.0 <= result.achieved_kl <= 1.0 + trajopt.KL_RTOL

    def test_returned_covariances_positive_definite(self):
        dynamics, prior, quad, mu0, S0 = fitted_insertion_problem(seed=2)
        result = update_trajectory(dynamics, prior, DualState(eta=1.0, epsilon=1e-2), quad, mu0, S0)
        for t in range(result.policy.K.shape[0]):
            eigvals = np.linalg.eigvalsh(result.policy.C[t])
            assert np.min(eigvals) > 0.0


def _spd(rng, size, cond=1.0):
    """Random symmetric positive definite matrix with condition number ``cond``."""
    q, _ = np.linalg.qr(rng.normal(size=(size, size)))
    return (q * (np.geomspace(1.0, 1.0 / cond, size) * rng.uniform(0.1, 3.0))) @ q.T


def random_stage_problem(rng, cond=1.0):
    """Random dynamics, cost, two policies and initial moments; policy
    covariances have condition number ``cond``."""
    n, m, T = int(rng.integers(1, 7)), int(rng.integers(2, 4)), int(rng.integers(1, 30))
    F = np.concatenate([rng.normal(scale=0.5, size=(T, n, n)) + 0.5 * np.eye(n),
                        rng.normal(size=(T, n, m))], axis=2)
    dynamics = LinearDynamics(F, rng.normal(size=(T, n)), np.stack([0.01 * _spd(rng, n) for _ in range(T)]))
    cost = QuadraticCost(np.stack([_spd(rng, n + m) for _ in range(T)]), rng.normal(size=(T, n + m)),
                         rng.normal(size=T), _spd(rng, n), rng.normal(size=n), 0.3)

    def policy():
        return LinearGaussianPolicy(rng.normal(scale=0.3, size=(T, m, n)), rng.normal(size=(T, m)),
                                    np.stack([_spd(rng, m, cond) for _ in range(T)]))

    return dynamics, cost, policy(), policy(), rng.normal(size=n), 0.1 * _spd(rng, n)


def _exact_kl(traj, other, mpmath):
    """The closed-form trajectory KL evaluated in 40-digit arithmetic."""
    mpmath.mp.dps = 40
    pol = traj.policy
    total = mpmath.mpf(0)
    for t in range(pol.K.shape[0]):
        c1, c2 = mpmath.matrix(pol.C[t].tolist()), mpmath.matrix(other.C[t].tolist())
        dK = mpmath.matrix((pol.K[t] - other.K[t]).tolist())
        d = dK * mpmath.matrix(traj.mean[t].tolist()) + mpmath.matrix((pol.k[t] - other.k[t]).tolist())
        c2_inv = c2**-1
        quad = (d.T * c2_inv * d)[0, 0]
        quad += sum((c2_inv * dK * mpmath.matrix(traj.cov[t].tolist()) * dK.T)[i, i] for i in range(c1.rows))
        trace = sum((c2_inv * c1)[i, i] for i in range(c1.rows))
        total += 0.5 * (mpmath.log(mpmath.det(c2)) - mpmath.log(mpmath.det(c1)) - c1.rows + trace + quad)
    return float(total)


class TestStagesMatchOracles:
    # with_prior=False anchors the backward pass on a flat prior: the LQR limit
    @pytest.mark.parametrize("with_prior", [True, False])
    @pytest.mark.parametrize("lm_reg", [0.0, 1e-6])
    @pytest.mark.parametrize("cond", [1.0, 1e8])
    def test_backward_and_forward_bitwise(self, with_prior, lm_reg, cond):
        rng = np.random.default_rng([int(with_prior), int(lm_reg > 0), int(cond)])
        for _ in range(25):
            dynamics, cost, prior, _, mu0, S0 = random_stage_problem(rng, cond)
            T, m, n = prior.K.shape
            prior = prior if with_prior else flat_prior(T, n, m)
            eta = 10.0 ** rng.uniform(-2, 3)
            want = oracle_lqg_backward(dynamics, cost, prior, eta, lm_reg)
            got = lqg_backward(dynamics, cost, prior_penalty(prior), eta, lm_reg)
            for a, b in ((got.K, want.K), (got.k, want.k), (got.C, want.C)):
                assert np.array_equal(a, b)
            traj = lqg_forward(dynamics, want, mu0, S0)
            ref = oracle_lqg_forward(dynamics, want, mu0, S0)
            for name in ("mean", "cov", "joint_mean", "joint_cov"):
                assert np.array_equal(getattr(traj, name), getattr(ref, name))

    @pytest.mark.parametrize("with_prior", [True, False])
    @pytest.mark.parametrize("lm_reg", [0.0, 1e-6])
    def test_kl_and_cost_within_1e12(self, with_prior, lm_reg):
        rng = np.random.default_rng([7, int(with_prior), int(lm_reg > 0)])
        for _ in range(25):
            dynamics, cost, prior, other, mu0, S0 = random_stage_problem(rng)
            T, m, n = prior.K.shape
            anchor = prior if with_prior else flat_prior(T, n, m)
            policy = lqg_backward(dynamics, cost, prior_penalty(anchor), 10.0 ** rng.uniform(-2, 3), lm_reg)
            traj = lqg_forward(dynamics, policy, mu0, S0)
            reference = prior if with_prior else other
            assert kl_divergence(traj, reference) == pytest.approx(oracle_kl_divergence(traj, reference), rel=1e-12)
            assert expected_cost(cost, traj) == pytest.approx(oracle_expected_cost(cost, traj), rel=1e-12)

    def test_near_singular_covariances(self):
        # With condition number 1e8 the per-step solves of the oracle lose
        # up to ~1e-7 of the KL, so the KL is held to the exact value, and
        # must be at least as close to it as the oracle.
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(8)
        for _ in range(12):
            dynamics, cost, prior, _, mu0, S0 = random_stage_problem(rng, cond=1e8)
            policy = lqg_backward(dynamics, cost, prior_penalty(prior), 10.0 ** rng.uniform(-2, 3))
            traj = lqg_forward(dynamics, policy, mu0, S0)
            exact = _exact_kl(traj, prior, mpmath)
            error = abs(kl_divergence(traj, prior) - exact)
            assert error <= abs(oracle_kl_divergence(traj, prior) - exact) + 1e-12 * abs(exact)
            assert expected_cost(cost, traj) == pytest.approx(oracle_expected_cost(cost, traj), rel=1e-12)

    def test_non_finite_inputs_raise_numerical_error(self):
        rng = np.random.default_rng(9)
        dynamics, cost, prior, _, mu0, S0 = random_stage_problem(rng)
        f = dynamics.f.copy()
        f[-1, 0] = np.nan
        with pytest.raises(NumericalError) as exc:
            lqg_backward(LinearDynamics(dynamics.F, f, dynamics.Sigma), cost, prior_penalty(prior), 1.0)
        # not the factorization failure that update_trajectory retries
        assert not isinstance(exc.value, NotPositiveDefiniteError)
        traj = lqg_forward(dynamics, prior, mu0, S0)
        mean = traj.mean.copy()
        mean[0, 0] = np.inf
        with pytest.raises(NumericalError):
            kl_divergence(replace(traj, mean=mean), prior)

    @staticmethod
    def _supervise(env, policy_fn, monkeypatch):
        controllers = []
        solve = trajopt.update_trajectory

        def recording(*args, **kwargs):
            result = solve(*args, **kwargs)
            controllers.append(result.policy)
            return result

        with monkeypatch.context() as patch:
            patch.setattr(trajopt, "update_trajectory", recording)
            result, dual = run_supervisor(env, policy_fn, 3, DualState(eta=1.0, epsilon=20.0),
                                          SupervisorConfig(), np.random.default_rng(11))
        return result, dual, controllers[-1]

    def test_run_supervisor_bitwise_equal_to_oracle_stages(self, monkeypatch):
        env = InsertionEnvConfig(horizon=40)
        hyper = DdpgHyper.for_env(env)
        nets = make_agent(hyper, seed=5)
        policy_fn = lambda S: policy_action(nets.actor, hyper, S)
        got, got_dual, got_final = self._supervise(env, policy_fn, monkeypatch)
        for name in ("lqg_backward", "lqg_forward", "kl_divergence", "expected_cost"):
            monkeypatch.setattr(trajopt, name, globals()["oracle_" + name])
        monkeypatch.setattr(trajopt, "prior_penalty", lambda prior: prior)  # the oracle pass takes the prior
        want, want_dual, want_final = self._supervise(env, policy_fn, monkeypatch)

        for a, b in ((got_final.K, want_final.K), (got_final.k, want_final.k), (got_final.C, want_final.C)):
            assert np.array_equal(a, b)
        assert got.final_rollout.steps == want.final_rollout.steps == env.horizon
        for name in ("states", "actions", "rewards"):
            assert _bits(getattr(got.final_rollout, name)) == _bits(getattr(want.final_rollout, name))
        for a, b in zip(got.sample_rollouts, want.sample_rollouts):
            assert np.array_equal(a.states, b.states)
        assert (got_dual.eta, got_dual.epsilon) == (want_dual.eta, want_dual.epsilon)
        for a, b in zip(got.diagnostics, want.diagnostics):
            assert (a.eta, a.epsilon, a.status) == (b.eta, b.epsilon, b.status)
            assert a.achieved_kl == pytest.approx(b.achieved_kl, rel=1e-9)
            assert a.expected_improvement == pytest.approx(b.expected_improvement, rel=1e-9)

    def test_non_finite_model_degrades_the_epoch(self, monkeypatch):
        fit = trajopt.fit_dynamics

        def nan_fit(*args, **kwargs):
            dynamics = fit(*args, **kwargs)
            f = dynamics.f.copy()
            f[-1, 0] = np.nan
            return LinearDynamics(dynamics.F, f, dynamics.Sigma)

        monkeypatch.setattr(trajopt, "fit_dynamics", nan_fit)
        env = InsertionEnvConfig(horizon=20)
        hyper = DdpgHyper.for_env(env)
        nets = make_agent(hyper, seed=0)
        with pytest.raises(SupervisorError):
            run_supervisor(env, lambda S: policy_action(nets.actor, hyper, S), 1,
                           DualState(eta=1.0, epsilon=20.0), SupervisorConfig(), np.random.default_rng(0))

    def test_non_finite_prior_cost_degrades_the_epoch(self, monkeypatch):
        # the next sub-iteration adapts the trust region to a non-finite expected improvement
        solve = trajopt.update_trajectory

        def nan_prior_cost(*args, **kwargs):
            return replace(solve(*args, **kwargs), prior_cost=np.nan)

        monkeypatch.setattr(trajopt, "update_trajectory", nan_prior_cost)
        env = InsertionEnvConfig(horizon=20)
        hyper = DdpgHyper.for_env(env)
        nets = make_agent(hyper, seed=0)
        with pytest.raises(SupervisorError, match="expected improvement is non-finite"):
            run_supervisor(env, lambda S: policy_action(nets.actor, hyper, S), 2,
                           DualState(eta=1.0, epsilon=20.0), SupervisorConfig(), np.random.default_rng(0))


def _bits(a):
    """Shape, dtype and bytes: equal only for the same values with the same signs of zero."""
    a = np.asarray(a)
    return a.shape, a.dtype, a.tobytes()


def stage_inputs(case: str, horizon: int):
    """Rollout-like ``(N, T+1, 6)`` states and ``(N, T, 2)`` actions for the stage oracles."""
    rng = np.random.default_rng(horizon)
    n_roll = 5 if case == "five_rollouts" else 12  # 5 rollouts leave 9 regressors rank-deficient
    scale = np.array([0.01, 0.01, 0.1, 0.1, 50.0, 50.0])
    states = scale * rng.normal(size=(n_roll, horizon + 1, 6))
    actions = rng.normal(scale=2.0, size=(n_roll, horizon, 2))
    if case == "zero_actions":
        actions[:] = 0.0
    if case == "at_target":
        states[:, :, :2] = InsertionEnvConfig().target
    return states, actions


class PresetNormals:
    """A stand-in generator whose ``standard_normal`` hands out preset rows, one per call, in order."""

    def __init__(self, rows):
        self._rows = iter(rows)

    def standard_normal(self, size):
        row = next(self._rows)
        assert row.shape == (size,)
        return row.copy()


class TestStackedStagesMatchVerbatim:
    """The stacked stages give the bits of the per-step code they replaced
    (``tests/verbatim_oracles.py``), signs of zero included."""

    CASES = ["random", "zero_actions", "at_target", "five_rollouts"]

    @staticmethod
    def _policy_fn():
        hyper = DdpgHyper.for_env(InsertionEnvConfig())
        nets = make_agent(hyper, seed=2)
        return lambda S: policy_action(nets.actor, hyper, S)

    @pytest.mark.parametrize("horizon", [6, 100])
    @pytest.mark.parametrize("case", CASES)
    def test_fit_dynamics(self, case, horizon):
        states, actions = stage_inputs(case, horizon)
        got, want = fit_dynamics(states, actions), verbatim_oracles.fit_dynamics(states, actions)
        for name in ("F", "f", "Sigma"):
            assert _bits(getattr(got, name)) == _bits(getattr(want, name)), name

    @pytest.mark.parametrize("horizon", [6, 100])
    @pytest.mark.parametrize("case", CASES)
    def test_linearize_policy(self, case, horizon):
        states, _ = stage_inputs(case, horizon)
        policy_fn = self._policy_fn()
        got = linearize_policy(policy_fn, states, 0.64 * np.eye(2))
        want = verbatim_oracles.linearize_policy(policy_fn, states, 0.64 * np.eye(2))
        for name in ("K", "k", "C"):
            assert _bits(getattr(got, name)) == _bits(getattr(want, name)), name

    @pytest.mark.parametrize("horizon", [6, 100])
    @pytest.mark.parametrize("case", CASES)
    def test_quadratize(self, case, horizon):
        states, actions = stage_inputs(case, horizon)
        model = SmoothedInsertionCost(InsertionEnvConfig())
        for s, u in ((states.mean(axis=0), actions.mean(axis=0)), (states[0], actions[0])):
            got, want = model.quadratize(s, u), verbatim_oracles.quadratize(model, s, u)
            for name in ("Czz", "cz", "const", "Cxx_T", "cx_T"):
                assert _bits(getattr(got, name)) == _bits(getattr(want, name)), name
            assert type(got.const_T) is float and _bits(got.const_T) == _bits(want.const_T)

    def test_linear_gaussian_controller(self):
        # every step's stacked rows against the per-row controller, fed the same noise rows
        states, _ = stage_inputs("random", 100)
        rng = np.random.default_rng(5)
        a = rng.normal(size=(100, 2, 2))
        policy = replace(linearize_policy(self._policy_fn(), states, np.eye(2)),
                         C=a @ a.transpose(0, 2, 1) + 1e-3 * np.eye(2))
        noise = np.random.default_rng(6).standard_normal((policy.K.shape[0], len(states), 2))
        got = trajopt._linear_gaussian_controller(policy)
        want = [verbatim_oracles.linear_gaussian_controller(policy, PresetNormals(noise[:, i]))
                for i in range(len(states))]
        for t in range(policy.K.shape[0]):
            per_row = np.stack([controller(t, states[i, t]) for i, controller in enumerate(want)])
            for rows in (states[:, t], np.ascontiguousarray(states[:, t])):
                assert _bits(got(t, rows, noise[t])) == _bits(per_row), t

    @pytest.mark.parametrize("case", CASES)
    def test_later_stages_get_the_same_bits(self, case):
        # Equal values in another memory layout would pass the tests above but
        # send the backward and forward passes' products to other kernels.
        states, actions = stage_inputs(case, 100)
        policy_fn = self._policy_fn()
        model = SmoothedInsertionCost(InsertionEnvConfig())
        mu0, S0 = initial_state_distribution(InsertionEnvConfig())
        results = []
        for fit, linearize, quadratize in (
            (fit_dynamics, linearize_policy, model.quadratize),
            (verbatim_oracles.fit_dynamics, verbatim_oracles.linearize_policy,
             lambda s, u: verbatim_oracles.quadratize(model, s, u)),
        ):
            dynamics = fit(states, actions)
            prior = linearize(policy_fn, states, 0.64 * np.eye(2))
            cost = quadratize(states.mean(axis=0), actions.mean(axis=0))
            policy = lqg_backward(dynamics, cost, prior_penalty(prior), 1.0)
            traj = lqg_forward(dynamics, policy, mu0, S0)
            prior_traj = lqg_forward(dynamics, prior, mu0, S0)
            results.append([_bits(a) for a in (policy.K, policy.k, policy.C, traj.mean, traj.cov, prior_traj.cov)]
                           + [kl_divergence(traj, prior), expected_cost(cost, traj)])
        assert results[0] == results[1]

    def test_run_supervisor_equals_the_per_step_stages(self, monkeypatch):
        env = InsertionEnvConfig(horizon=40)
        policy_fn = self._policy_fn()

        def supervise():
            result, dual = run_supervisor(env, policy_fn, 3, DualState(eta=1.0, epsilon=20.0),
                                          SupervisorConfig(), np.random.default_rng(4))
            return ([_bits(getattr(result.final_rollout, name)) for name in ("states", "actions", "rewards")],
                    [(_bits(r.states), _bits(r.actions)) for r in result.sample_rollouts],
                    [vars(d) for d in result.diagnostics], (dual.eta, dual.epsilon))

        got = supervise()
        monkeypatch.setattr(trajopt, "fit_dynamics", verbatim_oracles.fit_dynamics)
        monkeypatch.setattr(trajopt, "linearize_policy", verbatim_oracles.linearize_policy)
        monkeypatch.setattr(SmoothedInsertionCost, "quadratize", verbatim_oracles.quadratize)
        want = supervise()
        assert got[0] == want[0] and got[1] == want[1] and got[3] == want[3]
        # NaN != NaN: the first sub-iteration has no measured improvement
        assert [{k: _bits(v) for k, v in d.items()} for d in got[2]] == \
            [{k: _bits(v) for k, v in d.items()} for d in want[2]]


def pd_gains(env: InsertionEnvConfig, gain: float) -> LinearGaussianPolicy:
    """``u = gain (target - p) - 0.5 sqrt(gain) v`` with a little noise: it drives the peg into the slot."""
    T = env.horizon
    K = np.zeros((T, 2, 6))
    K[:, :, 0:2] = -gain * np.eye(2)
    K[:, :, 2:4] = -0.5 * np.sqrt(gain) * np.eye(2)
    return LinearGaussianPolicy(K, np.tile(gain * env.target, (T, 1)), np.tile(1e-4 * np.eye(2), (T, 1, 1)))


class TestLockstepSamplerMatchesVerbatim:
    """One lockstep ``rollout`` of ``n`` episodes equals ``n`` episodes of the
    one-row sampler it replaced (``tests/verbatim_oracles.py``), run one after
    another on the same generator: the same bits in every array, and the
    generator left in the same state."""

    @staticmethod
    def _actor():
        hyper = DdpgHyper.for_env(InsertionEnvConfig())
        nets = make_agent(hyper, seed=2)
        return lambda S: policy_action(nets.actor, hyper, S)

    @staticmethod
    def _controllers(kind: str, env: InsertionEnvConfig):
        """The lockstep controller and a factory of its per-row oracle, which draws from the generator it is given."""
        if kind == "actor":
            policy_fn, chol = TestLockstepSamplerMatchesVerbatim._actor(), trajopt.EXPLORATION_STD * np.eye(2)
            return (trajopt._gaussian_controller(policy_fn, chol),
                    lambda rng: verbatim_oracles.gaussian_controller(policy_fn, chol, rng))
        if kind == "pd_actor":  # drives the peg into the slot through the actor controller, noise scaled down
            env_target, chol = env.target, 1e-2 * np.eye(2)
            policy_fn = lambda S: 200.0 * (env_target - S[..., 0:2]) - 0.5 * np.sqrt(200.0) * S[..., 2:4]  # noqa: E731
            return (trajopt._gaussian_controller(policy_fn, chol),
                    lambda rng: verbatim_oracles.gaussian_controller(policy_fn, chol, rng))
        if kind == "linear_gaussian":
            states, _ = stage_inputs("random", env.horizon)
            a = np.random.default_rng(5).normal(size=(env.horizon, 2, 2))
            policy = replace(linearize_policy(TestLockstepSamplerMatchesVerbatim._actor(), states, np.eye(2)),
                             C=a @ a.transpose(0, 2, 1) + 1e-3 * np.eye(2))
        else:
            policy = pd_gains(env, 200.0)
        return (trajopt._linear_gaussian_controller(policy),
                lambda rng: verbatim_oracles.linear_gaussian_controller(policy, rng))

    @staticmethod
    def assert_matches(env, kind, n, seed):
        """Run both samplers from ``seed``; return the lockstep batch once every check has passed."""
        controller, oracle_controller = TestLockstepSamplerMatchesVerbatim._controllers(kind, env)
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        batch = rollout(env, controller, rng, n)
        # the supervisor built one controller per sub-iteration and ran its episodes one after another
        per_row = oracle_controller(oracle_rng)
        want = [verbatim_oracles.rollout(env, per_row, oracle_rng) for _ in range(n)]
        for name in ("states", "actions", "rewards", "dones"):
            assert _bits(getattr(batch, name)) == _bits(np.stack([getattr(r, name) for r in want])), name
        assert batch.successes.dtype == bool
        assert batch.successes.tolist() == [r.success for r in want]
        assert [float(rewards.sum()) for rewards in batch.rewards] == [r.episode_return for r in want]
        assert batch.steps == sum(r.steps for r in want) == n * env.horizon
        assert _bits(rng.standard_normal(3)) == _bits(oracle_rng.standard_normal(3))
        return batch

    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("horizon", [6, 100])
    @pytest.mark.parametrize("kind", ["actor", "linear_gaussian"])
    def test_sampler(self, kind, horizon, n):
        self.assert_matches(InsertionEnvConfig(horizon=horizon), kind, n, seed=horizon + n)

    @pytest.mark.parametrize("kind", ["pd_actor", "pd_linear_gaussian"])
    def test_episodes_that_succeed_mid_horizon(self, kind):
        env = InsertionEnvConfig(horizon=100)
        batch = self.assert_matches(env, kind, 5, seed=8)
        # a success before the last step sets a done flag there, and the episode runs on to the horizon
        assert batch.dones[:, :-1].any(axis=1).all()
        assert batch.successes.all()


class TestCostModel:
    def test_quadratic_expansion_matches_cost_locally(self):
        env = InsertionEnvConfig()
        model = SmoothedInsertionCost(env)
        rng = np.random.default_rng(13)
        states = rng.normal(scale=0.01, size=(4, 6))
        actions = rng.normal(scale=0.5, size=(3, 2))
        quad = model.quadratize(states, actions)
        # at the expansion point, the quadratic reproduces the smoothed cost
        for t in range(3):
            z = np.concatenate([states[t], actions[t]])
            val = 0.5 * z @ quad.Czz[t] @ z + quad.cz[t] @ z + quad.const[t]
            pos = states[t][:2] - env.target
            smoothed = np.sqrt(pos @ pos + 1e-8) + env.action_cost_weight * np.sqrt(
                actions[t] @ actions[t] + 1e-8)
            assert val == pytest.approx(smoothed, rel=1e-9)

    def test_hessians_positive_semidefinite(self):
        env = InsertionEnvConfig()
        model = SmoothedInsertionCost(env)
        rng = np.random.default_rng(14)
        quad = model.quadratize(rng.normal(scale=0.01, size=(3, 6)), rng.normal(size=(2, 2)))
        for t in range(2):
            assert np.min(np.linalg.eigvalsh(quad.Czz[t])) >= -1e-12
        assert np.min(np.linalg.eigvalsh(quad.Cxx_T)) >= -1e-12

    def test_distance_whose_cube_overflows_expands(self):
        # the smoothed norm of a position 1e150 from the target is about 1e150; its cube passes the
        # float range, so the norm's Hessian I / h - x x' / h^3 must read I / h instead of raising
        env = InsertionEnvConfig()
        model = SmoothedInsertionCost(env)
        states = np.zeros((3, 6))
        states[:, 0] = 1e150
        quad = model.quadratize(states, np.zeros((2, 2)))
        for t in range(2):
            assert np.allclose(quad.Czz[t, :2, :2], np.eye(2) / 1e150, rtol=1e-12, atol=0.0)
        assert np.allclose(quad.Cxx_T[:2, :2], trajopt.TERMINAL_WEIGHT * np.eye(2) / 1e150, rtol=1e-12, atol=0.0)
        for part in (quad.Czz, quad.cz, quad.const, quad.Cxx_T, quad.cx_T, quad.const_T):
            assert np.all(np.isfinite(part))


class TestSupervisor:
    def test_a_run_starts_its_dual_search_from_the_module_constants(self):
        assert DualState() == DualState(eta=trajopt.ETA_INIT, epsilon=trajopt.KL_STEP)

    def test_fewer_than_two_rollouts_per_subiteration_rejected(self):
        # fit_dynamics needs two rollouts; the sub-iteration's sample count is checked where it is set
        with pytest.raises(InputError, match="need >= 2 rollouts"):
            SupervisorConfig(samples_per_subiter=1)
        assert SupervisorConfig(samples_per_subiter=2).samples_per_subiter == 2

    def test_epoch_produces_sample_batches_and_a_closing_episode(self):
        env = InsertionEnvConfig(horizon=30)
        hyper = DdpgHyper.for_env(env)
        nets = make_agent(hyper, seed=0)
        cfg = SupervisorConfig(samples_per_subiter=5)
        dual = DualState(eta=1.0, epsilon=20.0)
        rng = np.random.default_rng(0)
        result, dual_out = run_supervisor(
            env, lambda S: policy_action(nets.actor, hyper, S), 2, dual, cfg, rng,
        )
        # one lockstep batch of 5 episodes per sub-iteration, then the closing episode
        assert [b.states.shape for b in result.sample_rollouts] == [(5, env.horizon + 1, 6)] * 2
        assert sum(b.steps for b in result.sample_rollouts) == 10 * env.horizon
        assert result.final_rollout.states.shape == (1, env.horizon + 1, 6)
        assert result.final_rollout.steps == env.horizon
        assert result.final_rollout.rewards.shape == (1, env.horizon)
        assert len(result.diagnostics) == 2
        # the supervisor returns trajectories; the learner labels them (tests/test_guided.py)
        assert [f.name for f in fields(result)] == ["sample_rollouts", "final_rollout", "diagnostics"]

    def test_deterministic_under_seed(self):
        env = InsertionEnvConfig(horizon=20)
        hyper = DdpgHyper.for_env(env)
        nets = make_agent(hyper, seed=3)
        cfg = SupervisorConfig(samples_per_subiter=4)

        def run(seed):
            dual = DualState(eta=1.0, epsilon=20.0)
            rng = np.random.default_rng(seed)
            result, _ = run_supervisor(
                env, lambda S: policy_action(nets.actor, hyper, S), 1, dual, cfg, rng,
            )
            return result

        a, b = run(7), run(7)
        assert np.array_equal(a.final_rollout.states, b.final_rollout.states)
        for name in ("states", "actions", "rewards"):
            assert _bits(getattr(a.final_rollout, name)) == _bits(getattr(b.final_rollout, name))
