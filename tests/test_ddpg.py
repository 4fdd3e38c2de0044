import json
from dataclasses import dataclass, fields, replace

import numpy as np
import pytest

import guided_ddpg.ddpg as ddpg_mod
from guided_ddpg.ddpg import (
    DISCOUNT,
    OU_DT,
    OU_SCALE,
    OU_THETA,
    SUPERVISION_DECAY,
    TARGET_RATE,
    AgentNets,
    DdpgHyper,
    actor_objective_grads,
    actor_update,
    cost_to_go,
    critic_loss_grads,
    critic_target,
    critic_update,
    make_agent,
    ou_noise_step,
    policy_action,
    supervision_weight,
    target_update,
)
from guided_ddpg.envs import InsertionEnvConfig
from guided_ddpg.exceptions import InputError, NumericalError
from guided_ddpg.harness import load_agent_checkpoint, save_agent_checkpoint
from guided_ddpg.nets import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
    ADAM_LEARNING_RATE,
    AdamState,
    MlpParams,
    layer_views,
    mlp_forward,
    mlp_init,
)
from guided_ddpg.replay import SupervisionBatch, TransitionBatch

import verbatim_oracles


def tiny_hyper(**overrides) -> DdpgHyper:
    defaults = dict(actor_hidden=(8,), critic_hidden=(8,))
    defaults.update(overrides)
    return DdpgHyper(**defaults)


def float64_agent(hyper: DdpgHyper, seed) -> AgentNets:
    """``make_agent``'s Glorot draws kept in float64: the learner's float64 path, bitwise against the oracles."""
    base = list(np.atleast_1d(np.asarray(seed)).ravel())
    return AgentNets(mlp_init([6, *hyper.actor_hidden, 2], "tanh", seed=base + [0]),
                     mlp_init([8, *hyper.critic_hidden, 1], "identity", seed=base + [1]))


def critic_value(critic: MlpParams, hyper: DdpgHyper, states, actions) -> np.ndarray:
    """Q estimates, one per row of the ``(N, 6)`` states and ``(N, 2)`` actions, as the learner's critic reads them."""
    x = np.concatenate([states * hyper.obs_scale_array, actions / hyper.action_bound], axis=1)
    return mlp_forward(critic, x)[0][:, 0]


def random_states(rng, n) -> np.ndarray:
    """States whose scaled net inputs are standard normal, so the nets see O(1) inputs."""
    return rng.normal(size=(n, 6)) / DdpgHyper.obs_scale_array


def random_batch(rng, n=4) -> TransitionBatch:
    return TransitionBatch(
        states=random_states(rng, n),
        actions=rng.uniform(-1, 1, size=(n, 2)),
        next_states=random_states(rng, n),
        rewards=rng.normal(size=n),
        dones=rng.uniform(size=n) < 0.3,
    )


def random_supervision(rng, n=3) -> SupervisionBatch:
    return SupervisionBatch(
        states=random_states(rng, n),
        actions=rng.uniform(-1, 1, size=(n, 2)),
        q_values=rng.normal(size=n),
    )


def recording_forward(monkeypatch) -> list:
    """The outputs of every ``mlp_forward`` that ``ddpg`` makes from now on, in order."""
    outputs, forward = [], ddpg_mod.mlp_forward

    def recorded(*args, **kwargs):
        out = forward(*args, **kwargs)
        outputs.append(out[0])
        return out

    monkeypatch.setattr(ddpg_mod, "mlp_forward", recorded)
    return outputs


AGENTS = pytest.mark.parametrize("agent", [make_agent, float64_agent], ids=["float32", "float64"])
NON_FINITE = pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])


class TestAgent:
    def test_targets_start_as_copies(self):
        nets = make_agent(tiny_hyper(), seed=0)
        assert np.array_equal(nets.actor.vector, nets.target_actor.vector)
        assert np.array_equal(nets.critic.vector, nets.target_critic.vector)

    def test_dimensions(self):
        nets = make_agent(tiny_hyper(), seed=1)
        assert nets.actor.input_dim == 6 and nets.actor.output_dim == 2
        assert nets.critic.input_dim == 8 and nets.critic.output_dim == 1

    def test_targets_never_alias_their_sources(self):
        nets = make_agent(tiny_hyper(), seed=0)
        assert not np.shares_memory(nets.target_actor.vector, nets.actor.vector)
        assert not np.shares_memory(nets.target_critic.vector, nets.critic.vector)
        assert not np.shares_memory(nets.params, nets.targets)
        assert not any(np.shares_memory(nets.targets_float64, a) for a in (nets.params, nets.targets))
        copied = AgentNets(nets.actor, nets.critic)
        for name in ("actor", "critic", "target_actor", "target_critic"):
            assert not np.shares_memory(getattr(copied, name).vector, getattr(nets, name).vector)

    def test_nets_are_read_only_views_of_the_joint_vectors(self):
        for build, itemsize in ((float64_agent, 8), (make_agent, 4)):
            self.check_read_only_views(build(tiny_hyper(), 0), itemsize)

    @staticmethod
    def check_read_only_views(nets, itemsize):
        n = nets.critic.vector.size
        assert np.array_equal(nets.params, np.concatenate([nets.critic.vector, nets.actor.vector]))
        assert np.array_equal(nets.targets, np.concatenate([nets.target_critic.vector, nets.target_actor.vector]))
        assert nets.params.itemsize == itemsize
        assert nets.critic.vector.ctypes.data == nets.params.ctypes.data
        assert nets.actor.vector.ctypes.data == nets.params.ctypes.data + itemsize * n
        assert nets.target_critic.vector.ctypes.data == nets.targets.ctypes.data
        assert nets.target_actor.vector.ctypes.data == nets.targets.ctypes.data + itemsize * n
        for name in ("actor", "critic", "target_actor", "target_critic"):
            with pytest.raises(ValueError):
                getattr(nets, name).vector[0] = 1.0
            with pytest.raises(ValueError):
                getattr(nets, name).weights[0][0, 0] = 1.0
        nets.params[n] = 7.0  # the owner writes; every view sees it
        assert nets.actor.vector[0] == 7.0 and nets.actor.weights[0][0, 0] == 7.0

    def test_actions_respect_bound(self):
        hyper = tiny_hyper()
        nets = make_agent(hyper, seed=2)
        states = random_states(np.random.default_rng(0), 50) * 10
        actions = policy_action(nets.actor, hyper, states)
        assert np.all(np.abs(actions) <= hyper.action_bound)


class TestCriticTarget:
    def test_terminal_not_bootstrapped(self):
        hyper = tiny_hyper()
        nets = make_agent(hyper, seed=0)
        batch = TransitionBatch(
            states=np.zeros((1, 6)), actions=np.zeros((1, 2)),
            next_states=np.ones((1, 6)), rewards=np.array([-0.3]), dones=np.array([True]),
        )
        assert critic_target(batch, nets, hyper) == pytest.approx([-0.3])

    def test_only_live_rows_bootstrap_at_discount(self):
        hyper = tiny_hyper()
        nets = make_agent(hyper, seed=0)
        batch = random_batch(np.random.default_rng(0), n=12)
        assert batch.dones.any() and not batch.dones.all()
        y = critic_target(batch, nets, hyper)
        # terminal rows are their rewards, bit for bit, however large the target critic's estimate
        assert np.array_equal(y[batch.dones], batch.rewards[batch.dones])
        next_q = critic_value(nets.target_critic, hyper, batch.next_states,
                              policy_action(nets.target_actor, hyper, batch.next_states))
        live = ~batch.dones
        assert np.array_equal(y[live], batch.rewards[live] + DISCOUNT * next_q[live])
        assert not np.allclose(y[live], batch.rewards[live])

    def test_constant_critic_arithmetic(self):
        hyper = tiny_hyper()
        nets = make_agent(hyper, seed=0)
        # zero out the critic weights, set output bias to b: Q == b everywhere
        b = 0.37
        vec = np.zeros(nets.critic.vector.size)
        vec[-1] = b  # the output bias closes the parameter vector
        critic = MlpParams(nets.critic.layer_sizes, vec, nets.critic.output_activation)
        assert np.array_equal(critic.biases[-1], [b])
        nets = AgentNets(nets.actor, critic)
        batch = TransitionBatch(
            states=np.zeros((1, 6)), actions=np.zeros((1, 2)),
            next_states=np.zeros((1, 6)), rewards=np.array([1.0]), dones=np.array([False]),
        )
        assert critic_target(batch, nets, hyper) == pytest.approx([1.0 + 0.99 * b])  # DDPG's own discount


class TestCriticUpdate:
    def test_gradient_matches_finite_difference_of_stated_loss(self):
        """Oracle: numerically differentiate the loss built from forward passes only."""
        rng = np.random.default_rng(4)
        hyper = tiny_hyper()
        nets = float64_agent(hyper, seed=5)
        batch = random_batch(rng, n=3)
        sup = random_supervision(rng, n=2)
        w_to = 0.7

        _, analytic = critic_loss_grads(nets, hyper, batch, sup, w_to)

        y = critic_target(batch, nets, hyper)

        def loss_of(vec):
            critic = MlpParams(nets.critic.layer_sizes, vec, nets.critic.output_activation)
            q = critic_value(critic, hyper, batch.states, batch.actions)
            value = np.mean((q - y) ** 2)
            qs = critic_value(critic, hyper, sup.states, sup.actions)
            value += w_to * np.mean((qs - sup.q_values) ** 2)
            return float(value)

        theta = nets.critic.vector
        numeric = np.zeros_like(theta)
        h = 1e-6
        for i in range(theta.size):
            plus, minus = theta.copy(), theta.copy()
            plus[i] += h
            minus[i] -= h
            numeric[i] = (loss_of(plus) - loss_of(minus)) / (2 * h)
        assert np.max(np.abs(analytic - numeric)) < 1e-6

    def test_zero_weight_reduces_to_bellman_loss(self):
        rng = np.random.default_rng(1)
        hyper = tiny_hyper()
        nets = make_agent(hyper, seed=3)
        batch = random_batch(rng)
        sup = random_supervision(rng)
        _, with_sup_zero = critic_loss_grads(nets, hyper, batch, sup, 0.0)
        _, without_sup = critic_loss_grads(nets, hyper, batch, None, 0.0)
        assert np.array_equal(with_sup_zero, without_sup)

    def test_satisfied_critic_has_zero_gradient(self):
        # build a batch whose targets equal the critic's own outputs
        hyper = tiny_hyper()
        nets = make_agent(hyper, seed=7)
        rng = np.random.default_rng(2)
        states = random_states(rng, 4)
        actions = rng.uniform(-1, 1, size=(4, 2))
        q = critic_value(nets.critic, hyper, states, actions)
        batch = TransitionBatch(states, actions, states.copy(), q.copy(), np.ones(4, dtype=bool))
        sup = SupervisionBatch(states, actions, q.copy())
        _, grads = critic_loss_grads(nets, hyper, batch, sup, 0.5)
        assert np.max(np.abs(grads)) < 1e-12
        before = nets.critic.vector.copy()  # the update writes the very memory nets.critic views
        critic_update(nets, hyper, batch, sup, 0.5)
        assert nets.critic_opt.step_count == 1
        assert np.allclose(nets.critic.vector, before, atol=1e-12)


    @AGENTS
    @pytest.mark.parametrize("supervised", [False, True], ids=["pure", "supervised"])
    def test_loss_is_the_mean_of_its_squared_errors(self, monkeypatch, agent, supervised):
        rng = np.random.default_rng(12)
        hyper = DdpgHyper()
        nets = agent(hyper, 3)
        batch, sup, w = random_batch(rng, n=64), random_supervision(rng, n=48), 0.3
        y = critic_target(batch, nets, hyper)
        outputs = recording_forward(monkeypatch)
        loss, _ = critic_loss_grads(nets, hyper, batch, sup if supervised else None, w)
        err = outputs[-1][:, 0] - (np.concatenate([y, sup.q_values]) if supervised else y)  # the critic's pass
        want = np.mean(err[:64] ** 2) + (w * np.mean(err[64:] ** 2) if supervised else 0.0)
        assert abs(loss - want) <= 1e-12 * want

    @NON_FINITE
    @pytest.mark.parametrize("term", ["bellman", "supervision"])
    def test_a_nonfinite_term_trips_the_loss_check(self, term, value):
        rng = np.random.default_rng(6)
        hyper = tiny_hyper()
        nets = make_agent(hyper, seed=2)
        batch, sup = random_batch(rng), random_supervision(rng)
        if term == "bellman":
            batch = replace(batch, rewards=np.where(np.arange(batch.rewards.size) == 1, value, batch.rewards))
        else:
            sup = replace(sup, q_values=np.where(np.arange(sup.q_values.size) == 2, value, sup.q_values))
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match="critic loss"):
            critic_update(nets, hyper, batch, sup, 0.5)

    def test_nonfinite_loss_leaves_nets_unchanged(self):
        rng = np.random.default_rng(6)
        hyper = tiny_hyper()
        nets = make_agent(hyper, seed=2)
        critic_update(nets, hyper, random_batch(rng), None, 0.0)
        batch = random_batch(rng)
        batch = replace(batch, rewards=np.where(np.arange(batch.rewards.size) == 1, np.inf, batch.rewards))
        before = [a.copy() for a in (nets.params, nets.targets, nets.critic_opt.m, nets.critic_opt.v)]
        with pytest.raises(NumericalError, match="critic loss"):
            critic_update(nets, hyper, batch, None, 0.0)
        for a, b in zip(before, (nets.params, nets.targets, nets.critic_opt.m, nets.critic_opt.v)):
            assert np.array_equal(a, b)
        assert nets.critic_opt.step_count == 1

    def test_overflowing_target_critic_leaves_nets_unchanged(self):
        rng = np.random.default_rng(8)
        hyper = tiny_hyper()
        nets = make_agent(hyper, seed=4)
        critic_update(nets, hyper, random_batch(rng), None, 0.0)
        actor_update(nets, hyper, random_batch(rng), None, 0.0)
        # the last hidden layer saturates at tanh(100) = 1, so the output sums eight of the largest finite weights
        n = nets.critic.vector.size
        weights, biases = layer_views(nets.critic.layer_sizes, nets.targets[:n])
        weights[-2][...] = 0.0
        biases[-2][...] = 100.0
        weights[-1][...] = np.finfo(nets.targets.dtype).max
        opts = (nets.critic_opt, nets.actor_opt)
        state = (nets.params, nets.targets, *(x for o in opts for x in (o.m, o.v)))  # all written in place
        before = [a.copy() for a in state]
        with np.errstate(over="ignore"), pytest.raises(NumericalError, match="target critic"):
            critic_update(nets, hyper, random_batch(rng), None, 0.0)
        for a, b in zip(before, state):
            assert np.array_equal(a, b)
        assert [o.step_count for o in opts] == [1, 1]


class TestActorUpdate:
    def test_gradient_matches_finite_difference_of_stated_objective(self):
        rng = np.random.default_rng(8)
        hyper = tiny_hyper()
        nets = float64_agent(hyper, seed=9)
        batch = random_batch(rng, n=3)
        sup = random_supervision(rng, n=2)
        w_to = 0.4

        _, analytic = actor_objective_grads(nets, hyper, batch, sup, w_to)

        def objective_of(vec):
            actor = MlpParams(nets.actor.layer_sizes, vec, nets.actor.output_activation)
            acts = policy_action(actor, hyper, batch.states)
            value = -np.mean(critic_value(nets.target_critic, hyper, batch.states, acts))
            sup_acts = policy_action(actor, hyper, sup.states)
            value += w_to * np.mean(np.sum((sup_acts - sup.actions) ** 2, axis=1))
            return float(value)

        theta = nets.actor.vector
        numeric = np.zeros_like(theta)
        h = 1e-6
        for i in range(theta.size):
            plus, minus = theta.copy(), theta.copy()
            plus[i] += h
            minus[i] -= h
            numeric[i] = (objective_of(plus) - objective_of(minus)) / (2 * h)
        assert np.max(np.abs(analytic - numeric)) < 1e-6

    def test_gradient_uses_target_critic_not_critic(self):
        rng = np.random.default_rng(3)
        hyper = tiny_hyper()
        nets = make_agent(hyper, seed=11)
        batch = random_batch(rng)
        _, grads_same_target = actor_objective_grads(nets, hyper, batch, None, 0.0)
        # make live critic different from target critic; the targets keep the old values
        nets.params[:nets.critic.vector.size] += 0.5
        _, grads_now = actor_objective_grads(nets, hyper, batch, None, 0.0)
        # changing the live critic must not change the actor gradient
        assert np.array_equal(grads_now, grads_same_target)

    def test_large_weight_drives_actor_to_supervision(self):
        hyper = tiny_hyper()
        nets = make_agent(hyper, seed=13)
        state = np.zeros((1, 6))
        target_action = np.array([[0.8, -0.4]])
        sup = SupervisionBatch(state, target_action, np.zeros(1))
        batch = TransitionBatch(state, np.zeros((1, 2)), state.copy(), np.zeros(1), np.ones(1, dtype=bool))
        for _ in range(500):
            actor_update(nets, hyper, batch, sup, 1e4)
        result = policy_action(nets.actor, hyper, state)
        assert np.allclose(result, target_action, atol=5e-3)


    @AGENTS
    @pytest.mark.parametrize("supervised", [False, True], ids=["pure", "supervised"])
    def test_objective_is_the_mean_of_its_terms(self, monkeypatch, agent, supervised):
        rng = np.random.default_rng(13)
        hyper = DdpgHyper()
        nets = agent(hyper, 5)
        batch, sup, w = random_batch(rng, n=64), random_supervision(rng, n=48), 0.3
        outputs = recording_forward(monkeypatch)
        objective, _ = actor_objective_grads(nets, hyper, batch, sup if supervised else None, w)
        out, q = outputs  # the actor's pass, then the target critic's
        want = -np.mean(q, dtype=np.float64)
        if supervised:
            want += w * np.mean(np.sum((hyper.action_bound * out[64:] - sup.actions) ** 2, axis=1))
        assert abs(objective - want) <= 1e-12 * abs(want)

    @NON_FINITE
    @pytest.mark.parametrize("term", ["target_critic", "supervision"])
    def test_a_nonfinite_term_trips_the_objective_check(self, term, value):
        rng = np.random.default_rng(7)
        hyper = tiny_hyper()
        nets = make_agent(hyper, seed=4)
        sup = random_supervision(rng)
        if term == "target_critic":
            nets.targets[nets.critic.vector.size - 1] = value  # the target critic's output bias: every row's Q
        else:
            sup = replace(sup, actions=np.where(np.arange(sup.actions.size).reshape(sup.actions.shape) == 3,
                                                value, sup.actions))
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match="actor objective"):
            actor_update(nets, hyper, random_batch(rng), sup, 0.5)

    def test_nonfinite_objective_leaves_nets_unchanged(self):
        rng = np.random.default_rng(7)
        hyper = tiny_hyper()
        nets = make_agent(hyper, seed=4)
        sup = random_supervision(rng)
        sup = replace(sup, actions=np.where(np.arange(sup.actions.size).reshape(sup.actions.shape) == 3,
                                            np.inf, sup.actions))
        before = [a.copy() for a in (nets.params, nets.targets, nets.actor_opt.m, nets.actor_opt.v)]
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match="actor objective"):
            actor_update(nets, hyper, random_batch(rng), sup, 0.5)
        for a, b in zip(before, (nets.params, nets.targets, nets.actor_opt.m, nets.actor_opt.v)):
            assert np.array_equal(a, b)
        assert nets.actor_opt.step_count == 0


class TestTargetUpdate:
    def test_targets_move_toward_sources(self):
        hyper = tiny_hyper()
        nets = make_agent(hyper, seed=1)
        rng = np.random.default_rng(0)
        batch = random_batch(rng)
        critic_update(nets, hyper, batch, None, 0.0)
        actor_update(nets, hyper, batch, None, 0.0)
        # snapshots: the update writes the memory that nets.target_critic views
        before_t = nets.target_critic.vector.copy()
        before_ta = nets.target_actor.vector.copy()
        source = nets.critic.vector.copy()
        assert not np.array_equal(before_t, source)
        target_update(nets)
        after_t = nets.target_critic.vector
        assert not np.array_equal(after_t, before_t)
        # each coordinate stays between its old value and the source value
        low = np.minimum(before_t, source) - 1e-15
        high = np.maximum(before_t, source) + 1e-15
        assert np.all(after_t >= low) and np.all(after_t <= high)
        # the blend at DDPG's own rate, in soft_update's order of operations, run in float64 and
        # rounded to the nets' float32, so bit for bit
        assert TARGET_RATE == 0.001

        def blend(old, new):
            return (old.astype(np.float64) * (1.0 - TARGET_RATE) + TARGET_RATE * new).astype(np.float32)

        assert np.array_equal(after_t, blend(before_t, source))
        assert np.array_equal(nets.target_actor.vector, blend(before_ta, nets.actor.vector))
        assert np.array_equal(nets.targets, nets.targets_float64.astype(np.float32))
        assert np.array_equal(nets.critic.vector, source)  # the sources are only read


# -- oracle: the functional learner that returned new nets on every update ----------
# Kept verbatim from before the learner updated its joint vectors in place; its
# losses are the verbatim ones of tests/verbatim_oracles.py, not the live ones.


@dataclass(frozen=True)
class OracleNets:
    actor: MlpParams
    critic: MlpParams
    target_actor: MlpParams
    target_critic: MlpParams
    actor_opt: AdamState
    critic_opt: AdamState


def oracle_make_agent(hyper, seed) -> OracleNets:
    base = list(np.atleast_1d(np.asarray(seed)).ravel())
    actor = mlp_init([6, *hyper.actor_hidden, 2], "tanh", seed=base + [0])
    critic = mlp_init([8, *hyper.critic_hidden, 1], "identity", seed=base + [1])
    size_a, size_c = actor.vector.size, critic.vector.size
    return OracleNets(actor, critic, actor, critic,
                      AdamState(np.zeros(size_a), np.zeros(size_a), 0),
                      AdamState(np.zeros(size_c), np.zeros(size_c), 0))


def oracle_adam_step(state, params, grads):
    if grads.shape != params.vector.shape:
        raise ValueError(f"gradient of shape {grads.shape} for {params.vector.size} parameters")
    # a non-finite entry anywhere poisons the sum
    if not np.isfinite(grads.sum()):
        raise NumericalError("non-finite gradient passed to adam_step")

    t = state.step_count + 1
    b1, b2, eps, lr = ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON, ADAM_LEARNING_RATE
    scale1 = lr / (1.0 - b1**t)
    inv_sqrt_corr2 = 1.0 / np.sqrt(1.0 - b2**t)

    m = b1 * state.m + (1.0 - b1) * grads
    v = b2 * state.v + (1.0 - b2) * (grads * grads)
    new_params = MlpParams(params.layer_sizes, params.vector - scale1 * m / (np.sqrt(v) * inv_sqrt_corr2 + eps),
                           params.output_activation)
    return new_params, AdamState(m, v, t)


def oracle_soft_update(target, source, rate):
    if not (0.0 < rate <= 1.0):
        raise ValueError(f"soft-update rate must lie in (0, 1], got {rate}")
    if target.layer_sizes != source.layer_sizes:
        raise ValueError("target and source networks have different layer sizes")
    return MlpParams(target.layer_sizes, rate * source.vector + (1.0 - rate) * target.vector,
                     target.output_activation)


def oracle_critic_update(nets, hyper, batch, sup_batch, supervision_weight):
    loss, grads = verbatim_oracles.critic_loss_grads(nets, hyper, batch, sup_batch, supervision_weight)
    if not np.isfinite(loss):
        raise NumericalError("critic loss is non-finite; parameters unchanged")
    critic, critic_opt = oracle_adam_step(nets.critic_opt, nets.critic, grads)
    return replace(nets, critic=critic, critic_opt=critic_opt)


def oracle_actor_update(nets, hyper, batch, sup_batch, supervision_weight):
    objective, grads = verbatim_oracles.actor_objective_grads(nets, hyper, batch, sup_batch, supervision_weight)
    if not np.isfinite(objective):
        raise NumericalError("actor objective is non-finite; parameters unchanged")
    actor, actor_opt = oracle_adam_step(nets.actor_opt, nets.actor, grads)
    return replace(nets, actor=actor, actor_opt=actor_opt)


def oracle_target_update(nets, rate):
    return replace(
        nets,
        target_actor=oracle_soft_update(nets.target_actor, nets.actor, rate),
        target_critic=oracle_soft_update(nets.target_critic, nets.critic, rate),
    )


class TestInPlaceLearnerMatchesFunctionalOracle:
    SUPERVISED_TOLERANCE = 1e-14  # absolute; about 45 float64 ulps at 1.0

    @pytest.mark.parametrize("hidden", [(8,), (64, 64)], ids=["tiny", "64x64"])
    @pytest.mark.parametrize("supervised", [False, True], ids=["pure", "supervised"])
    def test_300_update_triples_bitwise(self, hidden, supervised):
        """Pure updates keep the oracle's bits. Supervised ones stack the supervision rows under the batch
        in one pass where the oracle runs two and adds their gradients, which reorders the sums: they stay
        within ``SUPERVISED_TOLERANCE`` of it (2.2e-16 measured, on nets and moments of order 0.01-1)."""
        hyper = tiny_hyper(actor_hidden=hidden, critic_hidden=hidden)
        seed = [5, 0]
        nets = float64_agent(hyper, seed)
        oracle = oracle_make_agent(hyper, seed)
        rng = np.random.default_rng(21)
        for k in range(300):
            batch = random_batch(rng, n=16)
            sup, w = (random_supervision(rng, n=8), supervision_weight(k)) if supervised else (None, 0.0)
            critic_update(nets, hyper, batch, sup, w)
            actor_update(nets, hyper, batch, sup, w)
            target_update(nets)
            oracle = oracle_critic_update(oracle, hyper, batch, sup, w)
            oracle = oracle_actor_update(oracle, hyper, batch, sup, w)
            oracle = oracle_target_update(oracle, TARGET_RATE)

        def same(mine, theirs):
            if supervised:
                return np.abs(mine - theirs).max() <= self.SUPERVISED_TOLERANCE
            return np.array_equal(mine, theirs)

        for name in ("actor", "critic", "target_actor", "target_critic"):
            assert same(getattr(nets, name).vector, getattr(oracle, name).vector), name
        for name in ("actor_opt", "critic_opt"):
            mine, theirs = getattr(nets, name), getattr(oracle, name)
            assert same(mine.m, theirs.m) and same(mine.v, theirs.v), name
            assert mine.step_count == theirs.step_count == 300
        assert not np.array_equal(nets.target_actor.vector, nets.actor.vector)


class TestOnePassPerLoss:
    @pytest.mark.parametrize("supervised", [False, True], ids=["pure", "supervised"])
    def test_an_update_triple_makes_5_forward_and_3_backward_passes(self, monkeypatch, supervised):
        # the critic loss: target actor, target critic, critic forward and one critic backward; the actor
        # objective: actor and target critic forward, target critic and actor backward. Supervision rows
        # ride in the critic's and the actor's passes, so they add none.
        calls = {"mlp_forward": 0, "mlp_backward": 0}

        def counting(name):
            original = getattr(ddpg_mod, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(ddpg_mod, name, counted)

        for name in calls:
            counting(name)
        hyper = tiny_hyper()
        nets = make_agent(hyper, 0)
        rng = np.random.default_rng(4)
        sup, w = (random_supervision(rng), 0.5) if supervised else (None, 0.0)
        batch = random_batch(rng)
        critic_update(nets, hyper, batch, sup, w)
        actor_update(nets, hyper, batch, sup, w)
        target_update(nets)
        assert calls == {"mlp_forward": 5, "mlp_backward": 3}


class TestFloat32Learner:
    """``make_agent``'s learner runs in float32; the same code runs float64 nets in float64."""

    @staticmethod
    def learner_arrays(nets):
        return {"params": nets.params, "targets": nets.targets, "critic_opt.m": nets.critic_opt.m,
                "critic_opt.v": nets.critic_opt.v, "actor_opt.m": nets.actor_opt.m, "actor_opt.v": nets.actor_opt.v}

    def test_nets_and_moments_are_float32_and_stay_so_across_an_update_triple(self):
        hyper = tiny_hyper()
        nets = make_agent(hyper, seed=3)
        assert np.array_equal(nets.params, float64_agent(hyper, 3).params.astype(np.float32))  # the same draws
        rng = np.random.default_rng(0)
        for _ in range(2):
            for name, array in self.learner_arrays(nets).items():
                assert array.dtype == np.float32, name
            for name in ("actor", "critic", "target_actor", "target_critic"):
                assert getattr(nets, name).vector.dtype == np.float32, name
            assert policy_action(nets.actor, hyper, random_states(rng, 3)).dtype == np.float32
            batch, sup = random_batch(rng), random_supervision(rng)
            critic_update(nets, hyper, batch, sup, 0.5)
            actor_update(nets, hyper, batch, sup, 0.5)
            target_update(nets)
        assert nets.critic_opt.step_count == nets.actor_opt.step_count == 2
        assert nets.targets_float64.dtype == np.float64

    def test_a_target_reaches_a_fixed_source_to_float32_rounding(self):
        # a float32 blend stalls once TARGET_RATE times the gap is below half an ulp: 3e-5 short of 1.0
        nets = make_agent(tiny_hyper(actor_hidden=(4,), critic_hidden=(4,)), seed=0)
        nets.params[...] = 1.0
        for _ in range(20_000):
            target_update(nets)
        assert np.abs(nets.targets - 1.0).max() <= np.finfo(np.float32).eps

    @pytest.mark.parametrize("hidden", [(8,), (64, 64)], ids=["tiny", "64x64"])
    @pytest.mark.parametrize("supervised", [False, True], ids=["pure", "supervised"])
    def test_first_20_triples_track_the_float64_learner(self, hidden, supervised):
        hyper = tiny_hyper(actor_hidden=hidden, critic_hidden=hidden)
        single, double = make_agent(hyper, [5, 0]), float64_agent(hyper, [5, 0])
        start = double.params.copy()
        rng = np.random.default_rng(21)
        for k in range(20):
            batch = random_batch(rng, n=16)
            sup, w = (random_supervision(rng, n=8), supervision_weight(k)) if supervised else (None, 0.0)
            for nets in (single, double):
                critic_update(nets, hyper, batch, sup, w)
                actor_update(nets, hyper, batch, sup, w)
                target_update(nets)
            # about a hundred float32 roundings of a unit weight, a thousandth of what 20 triples move it
            for name, array in self.learner_arrays(single).items():
                want = self.learner_arrays(double)[name]
                scale = 1.0 if name in ("params", "targets") else np.abs(want).max()
                assert np.abs(array - want).max() <= 1e-5 * scale, (k, name)
        assert np.abs(double.params - start).max() > 1e-2

    @pytest.mark.parametrize("supervised", [False, True], ids=["pure", "supervised"])
    def test_300_triples_keep_the_bits_of_the_layer_view_backward_and_the_mean_losses(self, monkeypatch,
                                                                                      supervised):
        # the paper's sizes: 64x64 nets, batches of 64
        hyper = DdpgHyper()
        rng = np.random.default_rng(21)
        data = [(random_batch(rng, n=64), random_supervision(rng, n=64) if supervised else None)
                for _ in range(300)]

        def trained():
            nets = make_agent(hyper, [5, 0])
            for k, (batch, sup) in enumerate(data):
                w = supervision_weight(k) if supervised else 0.0
                critic_update(nets, hyper, batch, sup, w)
                actor_update(nets, hyper, batch, sup, w)
                target_update(nets)
            return nets

        mine = trained()
        with monkeypatch.context() as patch:
            patch.setattr(ddpg_mod, "critic_loss_grads", verbatim_oracles.critic_loss_grads_by_mean)
            patch.setattr(ddpg_mod, "actor_objective_grads", verbatim_oracles.actor_objective_grads_by_mean)
            theirs = trained()
        for name in ("params", "targets_float64"):
            assert getattr(mine, name).tobytes() == getattr(theirs, name).tobytes(), name
        for name in ("critic_opt", "actor_opt"):
            for moment in ("m", "v"):
                assert getattr(getattr(mine, name), moment).tobytes() == \
                    getattr(getattr(theirs, name), moment).tobytes(), (name, moment)
        assert mine.params.dtype == np.float32 and mine.critic_opt.step_count == 300


class TestCostToGo:
    def test_geometric_sum(self):
        r = -np.ones(3)
        out = cost_to_go(r)
        assert out[0] == pytest.approx(-(1.0 + DISCOUNT + DISCOUNT**2))
        assert out[1] == pytest.approx(-(1.0 + DISCOUNT))
        assert out[2] == pytest.approx(-1.0)

    def test_suffix_sum_oracle(self):
        rng = np.random.default_rng(12)
        r = rng.normal(size=50)
        # brute force: for each t, sum DISCOUNT^(k-t) r_k
        expected = np.array([sum(DISCOUNT ** (k - t) * r[k] for k in range(t, 50)) for t in range(50)])
        assert np.allclose(cost_to_go(r), expected, rtol=1e-12)

    def test_one_step_recursion(self):
        # each label is its reward plus DISCOUNT times the next label, bit for bit; integer rewards come back float64
        r = np.array([3, -1, 0, 2, -5])
        out = cost_to_go(r)
        assert out.shape == r.shape and out.dtype == np.float64
        assert out[-1] == r[-1]
        assert np.array_equal(out[:-1], r[:-1] + DISCOUNT * out[1:])
        assert cost_to_go(np.zeros(0)).shape == (0,)


class TestSupervisionWeight:
    def test_starts_at_one(self):
        assert supervision_weight(0) == 1.0

    def test_paper_values(self):
        # c / (n_roll + c) with c = 10
        assert SUPERVISION_DECAY == 10.0
        assert supervision_weight(10) == 0.5
        assert supervision_weight(90) == pytest.approx(0.1, abs=1e-12)
        assert supervision_weight(990) == pytest.approx(0.01, abs=1e-12)

    def test_strictly_decreasing(self):
        values = [supervision_weight(n) for n in range(200)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] > 0.0

    def test_invalid_inputs(self):
        # the decay is a constant, not a setting; a run without supervision samples is what applies none
        with pytest.raises(TypeError, match="supervision_decay"):
            tiny_hyper(supervision_decay=0.0)


def ou_sequence(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """``n`` successive noise values on ``dim`` axes, from zeros, as an episode draws them."""
    x, values = np.zeros(dim), []
    for _ in range(n):
        x = ou_noise_step(x, rng)
        values.append(x)
    return np.array(values)


class TestNoise:
    def test_fixed_seed_repeats_sequence(self):
        seq1 = ou_sequence(np.random.default_rng(5), 50, 2)
        seq2 = ou_sequence(np.random.default_rng(5), 50, 2)
        assert np.array_equal(seq1, seq2)

    def test_empirical_mean_near_zero(self):
        # CLT bound: |mean| < 3 * stationary std / sqrt(n)
        n = 100_000
        samples = ou_sequence(np.random.default_rng(17), n, 1)[:, 0]
        # correlated draws: effective sample size is n * (theta / (2 - theta)) approximately;
        # use a conservative inflation of the CLT bound instead
        # stationary std of x' = (1 - theta dt) x + scale sqrt(dt) N(0, 1)
        sigma = OU_SCALE / np.sqrt(2.0 * OU_THETA - OU_THETA**2 * OU_DT)
        assert abs(samples.mean()) < 3 * sigma / np.sqrt(n) * np.sqrt(2 / OU_THETA)

    def test_one_step_from_zeros_is_the_scaled_draw(self):
        first = ou_noise_step(np.zeros(2), np.random.default_rng(3))
        assert np.array_equal(first, OU_SCALE * np.sqrt(OU_DT) * np.random.default_rng(3).standard_normal(2))


class TestHyper:
    @pytest.mark.parametrize("key", ["actor_hidden", "critic_hidden"])
    @pytest.mark.parametrize("widths", [(0,), (8, 0), (-1, 8)])
    def test_rejects_hidden_width_below_one(self, key, widths):
        with pytest.raises(InputError, match=key):
            tiny_hyper(**{key: widths})
        assert getattr(tiny_hyper(**{key: (1,)}), key) == (1,)

    @staticmethod
    def _checkpoint_with(tmp_path, key, value):
        """A checkpoint of a tiny agent whose ``key`` entry holds ``value``."""
        path = tmp_path / "ckpt.json"
        save_agent_checkpoint(path, make_agent(tiny_hyper(), 0), tiny_hyper())
        payload = json.loads(path.read_text())
        payload[key] = value
        path.write_text(json.dumps(payload))
        return path

    # The scaling is no setting, so neither a caller nor a checkpoint can make it anything else
    @pytest.mark.parametrize("obs_scale", [(1.0,) * 5, (1.0,) * 7, (1.0, 1.0, float("nan"), 1.0, 1.0, 1.0),
                                           (float("inf"),) * 6, ()])
    def test_rejects_obs_scale_without_six_finite_entries(self, tmp_path, obs_scale):
        with pytest.raises(TypeError, match="obs_scale"):
            tiny_hyper(obs_scale=obs_scale)
        with pytest.raises(InputError, match="obs_scale"):
            load_agent_checkpoint(self._checkpoint_with(tmp_path, "obs_scale", list(obs_scale)))

    @pytest.mark.parametrize("bound", [0.0, -5.0, float("inf"), float("nan")])
    def test_rejects_action_bound_not_positive_and_finite(self, tmp_path, bound):
        # a negative bound flipped every action's sign and the critic's action scaling
        with pytest.raises(TypeError, match="action_bound"):
            tiny_hyper(action_bound=bound)
        with pytest.raises(InputError, match="action_bound"):
            load_agent_checkpoint(self._checkpoint_with(tmp_path, "action_bound", bound))

    def test_scaling_constants_are_the_task_geometry_and_read_only(self):
        # the expression that derived the scaling from each task, bit for bit
        env = InsertionEnvConfig()
        length = env.hole_depth + env.start_height
        force = 10.0 * env.action_bound
        derived = np.asarray((1.0 / length, 1.0 / length, 1.0, 1.0, 1.0 / force, 1.0 / force), dtype=np.float64)
        assert DdpgHyper.obs_scale_array.dtype == np.float64
        assert DdpgHyper.obs_scale_array.tobytes() == derived.tobytes()
        assert DdpgHyper.action_bound == env.action_bound == 5.0
        assert not DdpgHyper.obs_scale_array.flags.writeable
        with pytest.raises(ValueError):
            DdpgHyper.obs_scale_array[0] = 1.0
        hyper = tiny_hyper()
        assert hyper.obs_scale_array is DdpgHyper.obs_scale_array  # one array, shared by every learner
        assert replace(hyper, batch_size=3).obs_scale_array is DdpgHyper.obs_scale_array

    def test_scaling_is_not_a_field(self):
        assert [f.name for f in fields(DdpgHyper)] == [
            "batch_size", "supervision_batch_size", "actor_hidden", "critic_hidden"]
        assert DdpgHyper.for_env(InsertionEnvConfig(), batch_size=8) == DdpgHyper(batch_size=8)
        with pytest.raises(TypeError, match="action_bound"):
            DdpgHyper.for_env(InsertionEnvConfig(), action_bound=2.0)
