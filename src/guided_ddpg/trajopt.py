"""KL-trust-region trajectory optimization over fitted linear dynamics.

The optimizer fits time-varying linear-Gaussian dynamics to a handful of
rollouts, linearizes the current actor into a Gaussian prior, and solves a
KL-constrained linear-quadratic problem by a maximum-entropy Riccati
backward pass. The trust region is enforced through a dual variable that is
adapted until the achieved KL divergence matches the requested step size;
the step size itself adapts to how well model-predicted improvements match
real rollout improvements.

Conventions: a horizon-``T`` problem has ``T+1`` states and ``T`` actions;
dynamics are ``s' = F [s; u] + f + noise``; controllers are
``u = K s + k + N(0, C)``.

The method's numerical settings are the constants below, not config fields,
among them ``ETA_INIT``, ``KL_STEP``, ``DYNAMICS_REG``, ``EXPLORATION_STD``,
``COST_SMOOTHING``, ``TERMINAL_WEIGHT`` and ``MAX_DUAL_ITERATIONS``.
"""
from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .envs import ACTION_DIM, STATE_DIM, InsertionEnvConfig, Rollout, initial_state_distribution, rollout
from .exceptions import InputError, NotPositiveDefiniteError, NumericalError, SupervisorError

Array = np.ndarray

ETA_INIT = 1.0  # the dual variable eta that a run's first dual search starts from
KL_STEP = 100.0  # the trust region epsilon that a run's first dual search starts from
ETA_MIN = 1e-8  # floor of the dual variable eta: the weakest pull toward the prior
ETA_MAX = 1e16  # ceiling of eta: the strongest pull toward the prior
ETA_FACTOR = 10.0  # step of the dual search's walk until it brackets the trust region
EPSILON_MIN = 1e-9  # floor of the trust region (the KL step size epsilon)
EPSILON_MAX = 1e9  # ceiling of the trust region
EPSILON_SHRINK_RATIO = 0.25  # realized / predicted improvement below which the trust region halves
EPSILON_GROW_RATIO = 0.75  # realized / predicted improvement above which it grows by 1.5x
KL_RTOL = 0.1  # largest relative miss of the trust region by the achieved KL that counts as converged
MAX_DUAL_ITERATIONS = 20  # backward passes one dual search of a supervisor epoch may make
POLICY_FIT_REG = 1e-6  # ridge on the state Gram matrix of a policy fit; bounds its gains on collinear states
DYNAMICS_REG = 1e-6  # ridge on the [state; action; 1] Gram matrix of each step's dynamics fit
EXPLORATION_STD = 1.0  # std (N) of the white noise on each action axis of the actor's first samples
COST_SMOOTHING = 1e-4  # alpha of the optimizer's smoothed norms sqrt(|.|^2 + alpha^2) (m, N)
TERMINAL_WEIGHT = 1.0  # weight of the terminal distance term in the optimizer's cost


# ---------------------------------------------------------------------------
# Value types


@dataclass(frozen=True)
class LinearDynamics:
    """Per-step affine model ``s_{t+1} = F_t [s; u] + f_t + N(0, Sigma_t)``."""

    F: Array  # (T, n, n+m)
    f: Array  # (T, n)
    Sigma: Array  # (T, n, n)

    @property
    def horizon(self) -> int:
        return self.F.shape[0]

    @property
    def state_dim(self) -> int:
        return self.F.shape[1]


@dataclass(frozen=True)
class LinearGaussianPolicy:
    """Time-varying controller ``u_t = K_t s_t + k_t + N(0, C_t)``."""

    K: Array  # (T, m, n)
    k: Array  # (T, m)
    C: Array  # (T, m, m)

    @property
    def horizon(self) -> int:
        return self.K.shape[0]

    @property
    def state_dim(self) -> int:
        return self.K.shape[2]

    @property
    def action_dim(self) -> int:
        return self.K.shape[1]


@dataclass(frozen=True)
class TrajectoryDistribution:
    """Gaussian state marginals of a policy rolled through linear dynamics."""

    mean: Array  # (T+1, n)
    cov: Array  # (T+1, n, n)
    policy: LinearGaussianPolicy


@dataclass(frozen=True)
class DualState:
    """Dual variable and trust region of the KL-constrained optimization; a run starts from the defaults."""

    eta: float = ETA_INIT
    epsilon: float = KL_STEP


@dataclass(frozen=True)
class QuadraticCost:
    """Stage costs ``0.5 z' Czz z + cz' z + const`` with ``z = [s; u]``,
    plus a terminal state cost."""

    Czz: Array  # (T, n+m, n+m)
    cz: Array  # (T, n+m)
    const: Array  # (T,)
    Cxx_T: Array  # (n, n)
    cx_T: Array  # (n,)
    const_T: float
    state_dim: int
    action_dim: int

    @property
    def horizon(self) -> int:
        return self.Czz.shape[0]


# ---------------------------------------------------------------------------
# Model fitting


def _solve_pos(gram: Array, rhs: Array, what: str) -> Array:
    """``gram[t]^-1 rhs[t]`` for each slice of a ``(T, d, d)`` stack of symmetric
    positive definite matrices, by ``np.linalg.solve`` once a Cholesky
    factorization has checked them.

    Raises :class:`NumericalError` naming the first step whose input is not
    finite or whose Gram matrix fails to factor.
    """
    finite = np.isfinite(gram).all(axis=(1, 2)) & np.isfinite(rhs).all(axis=(1, 2))
    if finite.all():
        with suppress(np.linalg.LinAlgError):
            np.linalg.cholesky(gram)
            return np.linalg.solve(gram, rhs)
    # numpy names no failing slice; find the first step that fails to factor.
    for t, ok in enumerate(finite):
        if not ok:
            raise NumericalError(f"{what} at step {t} received non-finite values")
        try:
            np.linalg.cholesky(gram[t])
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"{what} at step {t} failed") from exc
    raise NumericalError(f"{what} failed")


def fit_dynamics(states: Array, actions: Array) -> LinearDynamics:
    """Per-step ridge regression of next state on [state; action], with ridge :data:`DYNAMICS_REG`.

    ``states`` has shape (N, T+1, n) and ``actions`` (N, T, m) over N
    rollouts of equal horizon. The residual covariance is symmetrized and
    eigenvalue-clipped to be positive semidefinite. Slice ``t`` of each stack
    is step ``t``'s fit, with a one-step fit's bits. ``F`` is a C-order copy: a
    transposed view would send ``F[t] @ z`` to another kernel, with other bits.
    """
    states = np.asarray(states, dtype=np.float64)
    actions = np.asarray(actions, dtype=np.float64)
    n_roll, horizon = actions.shape[0], actions.shape[1]
    n, m = states.shape[2], actions.shape[2]

    X = np.concatenate([states[:, :-1], actions, np.ones((n_roll, horizon, 1))], axis=2)
    X = np.ascontiguousarray(X.transpose(1, 0, 2))
    Y = states[:, 1:].transpose(1, 0, 2)
    XT = X.transpose(0, 2, 1)
    gram = XT @ X + DYNAMICS_REG * np.eye(n + m + 1)
    beta = _solve_pos(gram, XT @ Y, "dynamics fit")
    F = np.ascontiguousarray(beta[:, : n + m].transpose(0, 2, 1))
    f = beta[:, n + m]
    resid = Y - X @ beta
    cov = resid.transpose(0, 2, 1) @ resid / n_roll
    cov = 0.5 * (cov + cov.transpose(0, 2, 1))
    evals, evecs = np.linalg.eigh(cov)
    Sigma = (evecs * np.maximum(evals, 0.0)[:, None, :]) @ evecs.transpose(0, 2, 1)
    return LinearDynamics(F, f, Sigma)


def linearize_policy(policy_fn: Callable[[Array], Array], states: Array, noise_cov: Array) -> LinearGaussianPolicy:
    """Affine fit of a deterministic policy around sampled states, per step.

    ``policy_fn`` maps a ``(T, N, n)`` stack of each step's states to the
    ``(T, N, m)`` stack of actions; it is called once, on the stack, and must
    give each step's block the bits of a call on that block alone (one call
    on all ``T N`` rows as a flat batch would move the actions' last bits).
    The fitted covariance is set to ``noise_cov`` (the exploration-noise
    covariance), which keeps KL divergences against the prior finite. Slice
    ``t`` of each stack is step ``t``'s fit, with a one-step fit's bits. ``K`` is
    a C-order copy: a transposed view would send ``K[t] @ s`` to another kernel.
    """
    states = np.asarray(states, dtype=np.float64)
    horizon, n = states.shape[1] - 1, states.shape[2]
    noise_cov = np.asarray(noise_cov, dtype=np.float64)

    S = states[:, :-1].transpose(1, 0, 2)
    U = policy_fn(S)
    s_mean = S.mean(axis=1)
    u_mean = U.mean(axis=1)
    Sc = S - s_mean[:, None, :]
    Uc = U - u_mean[:, None, :]
    ScT = Sc.transpose(0, 2, 1)
    gram = ScT @ Sc + POLICY_FIT_REG * np.eye(n)
    K = np.ascontiguousarray(_solve_pos(gram, ScT @ Uc, "policy linearization").transpose(0, 2, 1))
    k = u_mean - (K @ s_mean[:, :, None])[:, :, 0]
    return LinearGaussianPolicy(K, k, np.tile(noise_cov, (horizon, 1, 1)))


# ---------------------------------------------------------------------------
# Gaussian trajectory machinery


def _chol_or_raise(mat: Array, what: str) -> Array:
    """Lower Cholesky factor of one matrix or of a stack of matrices."""
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"{what} is not positive definite") from exc


def _require_finite(what: str, *arrays: Array) -> None:
    # A NaN off the diagonal passes the Cholesky factorization unnoticed, and
    # numpy's solves propagate it silently; this is the guard for both.
    if not all(np.isfinite(a).all() for a in arrays):
        raise NumericalError(f"{what} received non-finite values")


def _log_det(chol: Array) -> Array:
    """Log-determinants from a stack of Cholesky factors."""
    return 2.0 * np.log(np.diagonal(chol, axis1=-2, axis2=-1)).sum(axis=-1)


def kl_divergence(p: TrajectoryDistribution, other: LinearGaussianPolicy) -> float:
    """Sum over steps of the expected Gaussian KL between action conditionals.

    The expectation over states uses ``p``'s own marginals, so the result is
    the KL divergence between the two closed-loop trajectory distributions
    (their shared dynamics terms cancel). Raises
    :class:`NotPositiveDefiniteError` when a covariance fails its Cholesky
    factorization and :class:`NumericalError` on non-finite solve inputs.
    """
    pol = p.policy
    T, m = pol.horizon, pol.action_dim
    l1 = _chol_or_raise(pol.C, "policy covariance")
    l2 = _chol_or_raise(other.C, "policy covariance")
    dK = pol.K - other.K
    d = np.einsum("tij,tj->ti", dK, p.mean[:T]) + (pol.k - other.k)
    _require_finite("KL divergence", l2, pol.C, d, dK)
    # With W = L2^-1: tr(C2^-1 C1) = |W L1|^2, d' C2^-1 d = |W d|^2 and
    # tr(C2^-1 dK S dK') = tr(W dK S (W dK)'), so one batched solve with L2
    # against the stacked right-hand side [L1 | d | dK] gives every term.
    w = np.linalg.solve(l2, np.concatenate([l1, d[:, :, None], dK], axis=2))
    w_l1, w_d, w_dK = w[:, :, :m], w[:, :, m], w[:, :, m + 1:]
    trace = np.einsum("tij,tij->t", w_l1, w_l1)
    quad = np.einsum("ti,ti->t", w_d, w_d) + np.einsum("tij,tjk,tik->t", w_dK, p.cov[:T], w_dK)
    kl = 0.5 * np.sum(_log_det(l2) - _log_det(l1) - m + trace + quad)
    # A KL divergence is never negative, but rounding makes a policy's KL
    # against itself about -2e-15; np.maximum keeps a NaN a NaN.
    return float(np.maximum(kl, 0.0))


def prior_penalty(prior: LinearGaussianPolicy) -> tuple[Array, Array]:
    """``-log prior(u | s)`` up to a constant, as ``0.5 z' P z - p' z`` with ``z = [s; u]``.

    Returns the ``(T, n+m, n+m)`` stack ``P`` and the ``(T, n+m)`` stack ``p``,
    from ``np.linalg.inv`` of the prior covariances. Raises
    :class:`NotPositiveDefiniteError` when one fails its Cholesky
    factorization and :class:`NumericalError` when its factor is not finite.
    """
    T, m, n = prior.K.shape
    _require_finite("prior covariance", _chol_or_raise(prior.C, "prior covariance"))
    prior_inv = np.linalg.inv(prior.C)
    M = np.empty((T, m, n + m))
    M[:, :, :n] = -prior.K
    M[:, :, n:] = np.eye(m)
    MT = M.transpose(0, 2, 1)
    return MT @ prior_inv @ M, (MT @ (prior_inv @ prior.k[:, :, None]))[:, :, 0]


def lqg_backward(
    dynamics: LinearDynamics,
    cost: QuadraticCost,
    penalty: tuple[Array, Array],
    eta: float,
    lm_reg: float = 0.0,
) -> LinearGaussianPolicy:
    """Maximum-entropy Riccati recursion on the dual surrogate cost.

    The surrogate at each step is ``cost / eta - log prior(u | s)``, whose
    second term is ``penalty``, the :func:`prior_penalty` of the prior; the
    returned covariance is the inverse action Hessian. A flat prior (zero
    gains, covariance ``c I``, ``c`` large) adds only ``I / c`` to that
    Hessian: the recursion tends to an LQR solve of ``cost / eta``. Raises
    :class:`NotPositiveDefiniteError` when the Hessian (plus ``lm_reg`` on its
    diagonal) fails its Cholesky factorization, and :class:`NumericalError`
    when a solve would receive non-finite values.
    """
    T = dynamics.horizon
    n, m = cost.state_dim, cost.action_dim
    P, p = penalty

    eye = np.eye(m)
    quad = cost.Czz / eta + P
    lin = cost.cz / eta - p

    K = np.zeros((T, m, n))
    k = np.zeros((T, m))
    C = np.zeros((T, m, m))
    Vxx = cost.Cxx_T / eta
    vx = cost.cx_T / eta
    # One solve per step against [Qux | qu | I] gives -K, -k and the covariance.
    rhs = np.empty((m, n + 1 + m))
    rhs[:, n + 1:] = eye
    reg = lm_reg * eye
    for t in range(T - 1, -1, -1):
        Ft = dynamics.F[t]
        ft = dynamics.f[t]
        Q = quad[t] + Ft.T @ Vxx @ Ft
        q = lin[t] + Ft.T @ (Vxx @ ft + vx)

        Quu = 0.5 * (Q[n:, n:] + Q[n:, n:].T) + reg
        Qux = Q[n:, :n]
        Qxx = Q[:n, :n]
        qx = q[:n]

        _chol_or_raise(Quu, "action Hessian")
        rhs[:, :n] = Qux
        rhs[:, n] = q[n:]
        _require_finite("Riccati solve", Quu, rhs)
        sol = np.linalg.solve(Quu, rhs)
        K[t] = -sol[:, :n]
        k[t] = -sol[:, n]
        Cuu = sol[:, n + 1:]
        C[t] = 0.5 * (Cuu + Cuu.T)

        Vxx = Qxx + Qux.T @ K[t]
        Vxx = 0.5 * (Vxx + Vxx.T)
        vx = qx + Qux.T @ k[t]
    return LinearGaussianPolicy(K, k, C)


def lqg_forward(
    dynamics: LinearDynamics,
    policy: LinearGaussianPolicy,
    init_mean: Array,
    init_cov: Array,
) -> TrajectoryDistribution:
    """Propagate Gaussian state marginals through the closed loop."""
    T = dynamics.horizon
    n = dynamics.state_dim
    m = policy.action_dim
    mean = np.zeros((T + 1, n))
    cov = np.zeros((T + 1, n, n))
    mean[0] = np.asarray(init_mean, dtype=np.float64)
    cov[0] = np.asarray(init_cov, dtype=np.float64)
    mu_z = np.empty(n + m)
    joint_cov = np.empty((n + m, n + m))
    for t in range(T):
        Kt, kt, Ct = policy.K[t], policy.k[t], policy.C[t]
        mu, S = mean[t], cov[t]
        SKt = S @ Kt.T
        mu_z[:n] = mu
        mu_z[n:] = Kt @ mu + kt
        joint_cov[:n, :n] = S
        joint_cov[:n, n:] = SKt
        joint_cov[n:, :n] = SKt.T
        joint_cov[n:, n:] = Kt @ SKt + Ct
        mean[t + 1] = dynamics.F[t] @ mu_z + dynamics.f[t]
        nxt = dynamics.F[t] @ joint_cov @ dynamics.F[t].T + dynamics.Sigma[t]
        cov[t + 1] = 0.5 * (nxt + nxt.T)
    return TrajectoryDistribution(mean, cov, policy)


def expected_cost(cost: QuadraticCost, traj: TrajectoryDistribution) -> float:
    """Exact Gaussian expectation of the quadratic cost under ``traj``."""
    pol = traj.policy
    T, n, m = cost.horizon, pol.state_dim, pol.action_dim
    mu, S = traj.mean[:T], traj.cov[:T]
    SKt = S @ pol.K.transpose(0, 2, 1)
    mu_z = np.empty((T, n + m))
    mu_z[:, :n] = mu
    mu_z[:, n:] = np.einsum("tij,tj->ti", pol.K, mu) + pol.k
    cov_z = np.empty((T, n + m, n + m))
    cov_z[:, :n, :n] = S
    cov_z[:, :n, n:] = SKt
    cov_z[:, n:, :n] = SKt.transpose(0, 2, 1)
    cov_z[:, n:, n:] = pol.K @ SKt + pol.C
    stage = 0.5 * (np.einsum("ti,tij,tj->t", mu_z, cost.Czz, mu_z) + np.einsum("tij,tji->t", cost.Czz, cov_z))
    stage += np.einsum("ti,ti->t", cost.cz, mu_z) + cost.const
    mu_T, S_T = traj.mean[-1], traj.cov[-1]
    terminal = 0.5 * float(mu_T @ cost.Cxx_T @ mu_T + np.trace(cost.Cxx_T @ S_T))
    terminal += float(cost.cx_T @ mu_T) + float(cost.const_T)
    return float(np.sum(stage)) + terminal


# ---------------------------------------------------------------------------
# Dual / trust-region adaptation


def update_epsilon(dual: DualState, expected_improvement: float, actual_improvement: float) -> DualState:
    """Adapt the trust region to the model's predictive quality.

    The region halves when the realized improvement falls far short of the
    model's prediction, grows by 1.5x when the prediction is nearly met, and
    is left alone otherwise (including when no improvement was predicted).
    A non-finite expected improvement raises :class:`NumericalError`.
    """
    if not np.isfinite(expected_improvement):
        raise NumericalError("expected improvement is non-finite")
    if expected_improvement <= 0.0:
        return dual
    ratio = actual_improvement / expected_improvement
    if ratio < EPSILON_SHRINK_RATIO:
        eps = dual.epsilon * 0.5
    elif ratio > EPSILON_GROW_RATIO:
        eps = dual.epsilon * 1.5
    else:
        return dual
    return replace(dual, epsilon=float(np.clip(eps, EPSILON_MIN, EPSILON_MAX)))


@dataclass(frozen=True)
class TrajOptResult:
    policy: LinearGaussianPolicy
    dual: DualState
    achieved_kl: float
    prior_cost: float
    new_cost: float
    converged: bool
    status: str
    iterations: int


def update_trajectory(
    dynamics: LinearDynamics,
    prior: LinearGaussianPolicy,
    dual: DualState,
    cost: QuadraticCost,
    init_mean: Array,
    init_cov: Array,
) -> TrajOptResult:
    """Solve the KL-constrained problem by adapting the dual variable.

    Alternates backward pass, forward marginal propagation, and KL
    measurement while searching eta: a fixed-factor walk until the target
    divergence is bracketed, then geometric bisection. An iterate whose KL or
    expected cost is not finite (an aggressive controller on a bad model)
    counts as infinite KL, so it pushes eta up like any iterate outside the
    trust region. On convergence the achieved KL lies within
    :data:`KL_RTOL` of the trust region. The search ends early when the walk
    is clamped at ``ETA_MIN`` or ``ETA_MAX``. If it ends without converging,
    the best strictly feasible controller is returned with a warning status,
    and the absence of any feasible iterate raises :class:`NumericalError`, as
    does a prior covariance that fails to factor.
    """
    eps = dual.epsilon
    penalty = prior_penalty(prior)
    prior_traj = lqg_forward(dynamics, prior, init_mean, init_cov)
    prior_cost = expected_cost(cost, prior_traj)

    eta = float(np.clip(dual.eta, ETA_MIN, ETA_MAX))
    eta_floor = None  # below this, divergence exceeds the trust region
    eta_ceil = None  # above this, divergence is inside the trust region
    lm_reg = 0.0
    best = None  # (new_cost, policy, kl, eta) among feasible iterates

    for iterations in range(1, MAX_DUAL_ITERATIONS + 1):
        try:
            policy = lqg_backward(dynamics, cost, penalty, eta, lm_reg)
        except NotPositiveDefiniteError:
            lm_reg = 2.0 * lm_reg if lm_reg > 0.0 else 1e-8
            continue
        traj = lqg_forward(dynamics, policy, init_mean, init_cov)
        kl = kl_divergence(traj, prior)
        new_cost = expected_cost(cost, traj)
        if not (np.isfinite(kl) and np.isfinite(new_cost)):
            kl = np.inf  # outside any trust region, so eta grows as for any too-large KL

        if kl <= eps and (best is None or new_cost < best[0]):
            best = (new_cost, policy, kl, eta)
        if abs(kl - eps) <= KL_RTOL * eps:
            return TrajOptResult(policy, replace(dual, eta=eta), kl, prior_cost, new_cost, True, "converged", iterations)

        if kl > eps:
            eta_floor = eta if eta_floor is None else max(eta_floor, eta)
        else:
            eta_ceil = eta if eta_ceil is None else min(eta_ceil, eta)

        if eta_floor is not None and eta_ceil is not None:
            eta = float(np.sqrt(eta_floor * eta_ceil))
        else:
            # no feasible iterate yet means every KL was too large, so eta grows; else it shrinks
            step = float(np.clip(eta * ETA_FACTOR if eta_ceil is None else eta / ETA_FACTOR, ETA_MIN, ETA_MAX))
            if step == eta:
                break  # clamped at a bound; no further progress possible
            eta = step

    if best is not None:
        new_cost, policy, kl, eta = best
        return TrajOptResult(policy, replace(dual, eta=eta), kl, prior_cost, new_cost, False, "max_iterations", iterations)
    raise NumericalError("dual search found no controller inside the trust region")


# ---------------------------------------------------------------------------
# Insertion-task cost model


def _cube(v: float) -> float:
    """``v**3`` by Python's float pow, whose bits numpy's array power can miss; ``inf`` past the float range."""
    try:
        return v**3
    except OverflowError:
        return np.inf


class SmoothedInsertionCost:
    """Quadratic expansions of the insertion stage cost for the backward pass.

    Both norms in the stage cost are smoothed as ``sqrt(|.|^2 + alpha^2)``,
    with ``alpha`` :data:`COST_SMOOTHING`, so gradients and (positive
    semidefinite) Hessians exist at the target and at zero action. The
    terminal state cost repeats the distance term, weighted by
    :data:`TERMINAL_WEIGHT`.
    """

    def __init__(self, env: InsertionEnvConfig):
        self.target = env.target
        self.action_weight = env.action_cost_weight

    def quadratize(self, states: Array, actions: Array) -> QuadraticCost:
        """Expand the smoothed cost around a nominal trajectory.

        Expansions are converted to absolute coordinates (valid jointly with
        the affine dynamics), so stage quadratics can be compared across
        candidate policies. The smoothed norm is expanded on all actions and
        positions at once; slice ``t`` of each stage stack is step ``t``'s.
        """
        states = np.asarray(states, dtype=np.float64)
        actions = np.asarray(actions, dtype=np.float64)
        T = actions.shape[0]
        n, m = STATE_DIM, ACTION_DIM
        P = np.eye(2, n)  # picks the position, columns 0:2, out of a state

        x = np.concatenate([actions, states @ P.T - self.target])  # T actions, then T+1 positions
        h = np.sqrt(np.vecdot(x, x) + COST_SMOOTHING**2)
        grad = x / h[:, None]
        h3 = np.array([_cube(v) for v in h.tolist()])  # a cube past the float range gives hess = I / h
        hess = np.eye(2) / h[:, None, None] - x[:, :, None] * x[:, None, :] / h3[:, None, None]
        u, p, w = slice(0, T), slice(T, 2 * T), self.action_weight

        Czz = np.zeros((T, n + m, n + m))
        Czz[:, :2, :2] = hess[p]
        Czz[:, n:, n:] = w * hess[u]
        g = np.concatenate([grad[p] @ P, w * grad[u]], axis=1)
        z = np.concatenate([states[:T], actions], axis=1)
        cz = g - (Czz @ z[:, :, None])[:, :, 0]
        const = h[p] + w * h[u] - np.vecdot(g, z) + 0.5 * (z[:, None, :] @ Czz @ z[:, :, None])[:, 0, 0]

        s_T = states[-1]
        Cxx_T = TERMINAL_WEIGHT * (P.T @ hess[-1] @ P)
        gx = TERMINAL_WEIGHT * (P.T @ grad[-1])
        cx_T = gx - Cxx_T @ s_T
        const_T = TERMINAL_WEIGHT * h[-1] - float(gx @ s_T) + 0.5 * float(s_T @ Cxx_T @ s_T)
        return QuadraticCost(Czz, cz, const, Cxx_T, cx_T, float(const_T), n, m)


# ---------------------------------------------------------------------------
# Semi-supervised epoch driver


@dataclass(frozen=True)
class SupervisorConfig:
    """Rollouts per sub-iteration, the one setting of a trajectory-optimization epoch.

    The rest are constants: ``DYNAMICS_REG``, ``EXPLORATION_STD``,
    ``COST_SMOOTHING``, ``TERMINAL_WEIGHT`` and ``MAX_DUAL_ITERATIONS``."""

    samples_per_subiter: int = 5

    def __post_init__(self):
        if self.samples_per_subiter < 2:
            raise InputError("need >= 2 rollouts per sub-iteration to fit dynamics")


@dataclass
class SubiterDiagnostics:
    subiter: int
    eta: float
    epsilon: float
    achieved_kl: float
    expected_improvement: float
    actual_improvement: float
    mean_sample_cost: float
    status: str


@dataclass
class SupervisorResult:
    sample_rollouts: list  # one Rollout batch per sub-iteration
    final_rollout: Rollout  # the closing episode, a batch of one
    diagnostics: list


def _gaussian_controller(policy_fn, chol: Array):
    """The actor plus noise ``chol z``; one forward pass on the ``(n, 1, 6)`` stack keeps one-row bits."""
    def controller(t: int, states: Array, noise: Array) -> Array:
        return policy_fn(states[:, None, :])[:, 0] + (chol @ noise[:, :, None])[:, :, 0]

    return controller


def _linear_gaussian_controller(policy: LinearGaussianPolicy):
    """``K_t s + k_t + chol(C_t) z`` by stacked one-row products, with the bits of per-row ones."""
    chols = np.linalg.cholesky(policy.C)

    def controller(t: int, states: Array, noise: Array) -> Array:
        return (policy.K[t] @ states[:, :, None])[:, :, 0] + policy.k[t] + (chols[t] @ noise[:, :, None])[:, :, 0]

    return controller


def _sample_costs(batch: Rollout, env: InsertionEnvConfig) -> list:
    """Total cost of each sampled episode: its stage costs, the negated rewards
    summed left to right, plus the terminal distance term of
    :class:`SmoothedInsertionCost`, unsmoothed."""
    return [sum(-r for r in rewards) + TERMINAL_WEIGHT * float(np.linalg.norm(final - env.target))
            for rewards, final in zip(batch.rewards.tolist(), batch.states[:, -1, 0:2])]


def run_supervisor(
    env: InsertionEnvConfig,
    policy_fn: Callable[[Array], Array],
    n_subiters: int,
    dual: DualState,
    cfg: SupervisorConfig,
    rng: np.random.Generator,
) -> tuple[SupervisorResult, DualState]:
    """One supervision epoch: fit, optimize, and roll out the optimized controller.

    Sub-iteration zero samples the current actor (plus white noise of std
    :data:`EXPLORATION_STD`) and uses its linearization as the trust-region anchor; later
    sub-iterations anchor on the previous optimized controller. Each
    sub-iteration samples its ``cfg.samples_per_subiter`` episodes as one
    lockstep :func:`envs.rollout` batch, and the fits read the batch's
    ``(n, T+1, 6)`` states and ``(n, T, 2)`` actions directly. The result
    holds one batch per sub-iteration and the closing episode of the final
    controller, a batch of one; the learner turns them into its own samples.

    Raises :class:`SupervisorError` when fitting, the trust-region update or
    the dual search fails.
    """
    cost_model = SmoothedInsertionCost(env)
    mu0, S0 = initial_state_distribution(env)

    sample_rollouts: list[Rollout] = []
    diagnostics: list[SubiterDiagnostics] = []
    controller = _gaussian_controller(policy_fn, EXPLORATION_STD * np.eye(ACTION_DIM))
    prior: LinearGaussianPolicy | None = None  # the actor's linearization, fit to the first batch, then each update's
    previous = None  # (expected improvement, mean sample cost) of the last sub-iteration

    try:
        for it in range(n_subiters):
            batch = rollout(env, controller, rng, cfg.samples_per_subiter)
            sample_rollouts.append(batch)
            states, actions = batch.states, batch.actions
            mean_cost = float(np.mean(_sample_costs(batch, env)))

            actual_improvement = np.nan
            if previous is not None:
                actual_improvement = previous[1] - mean_cost
                dual = update_epsilon(dual, previous[0], actual_improvement)

            dynamics = fit_dynamics(states, actions)
            if prior is None:
                prior = linearize_policy(policy_fn, states, EXPLORATION_STD**2 * np.eye(ACTION_DIM))
            quad_cost = cost_model.quadratize(states.mean(axis=0), actions.mean(axis=0))

            result = update_trajectory(dynamics, prior, dual, quad_cost, mu0, S0)
            dual, prior = result.dual, result.policy
            previous = (result.prior_cost - result.new_cost, mean_cost)
            controller = _linear_gaussian_controller(result.policy)
            diagnostics.append(
                SubiterDiagnostics(
                    subiter=it,
                    eta=result.dual.eta,
                    epsilon=dual.epsilon,
                    achieved_kl=result.achieved_kl,
                    expected_improvement=float(previous[0]),
                    actual_improvement=float(actual_improvement),
                    mean_sample_cost=mean_cost,
                    status=result.status,
                )
            )
    except NumericalError as exc:
        raise SupervisorError(f"trajectory optimization failed: {exc}") from exc

    final = rollout(env, controller, rng, 1)
    return SupervisorResult(sample_rollouts, final, diagnostics), dual
