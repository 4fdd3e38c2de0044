import json
from dataclasses import dataclass, fields, replace

import numpy as np
import pytest

from guided_ddpg.ddpg import (
    DISCOUNT,
    OU_DT,
    OU_SCALE,
    OU_THETA,
    TARGET_RATE,
    AgentNets,
    DdpgHyper,
    OrnsteinUhlenbeckNoise,
    actor_objective_grads,
    actor_update,
    critic_loss_grads,
    critic_target,
    critic_update,
    critic_value,
    make_agent,
    policy_action,
    supervision_weight,
    target_update,
)
from guided_ddpg.envs import InsertionEnvConfig
from guided_ddpg.exceptions import ConfigurationError, NumericalError, ShapeError, SpecError
from guided_ddpg.harness import load_agent_checkpoint, save_agent_checkpoint
from guided_ddpg.nets import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
    ADAM_LEARNING_RATE,
    AdamState,
    MlpParams,
    layer_views,
    mlp_init,
)
from guided_ddpg.replay import SupervisionBatch, TransitionBatch

import verbatim_oracles


def tiny_hyper(**overrides) -> DdpgHyper:
    defaults = dict(actor_hidden=(8,), critic_hidden=(8,))
    defaults.update(overrides)
    return DdpgHyper(**defaults)


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
        copied = AgentNets(nets.actor, nets.critic)
        for name in ("actor", "critic", "target_actor", "target_critic"):
            assert not np.shares_memory(getattr(copied, name).vector, getattr(nets, name).vector)

    def test_nets_are_read_only_views_of_the_joint_vectors(self):
        nets = make_agent(tiny_hyper(), seed=0)
        n = nets.critic.vector.size
        assert np.array_equal(nets.params, np.concatenate([nets.critic.vector, nets.actor.vector]))
        assert np.array_equal(nets.targets, np.concatenate([nets.target_critic.vector, nets.target_actor.vector]))
        assert nets.critic.vector.ctypes.data == nets.params.ctypes.data
        assert nets.actor.vector.ctypes.data == nets.params.ctypes.data + 8 * n
        assert nets.target_critic.vector.ctypes.data == nets.targets.ctypes.data
        assert nets.target_actor.vector.ctypes.data == nets.targets.ctypes.data + 8 * n
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
        nets = make_agent(hyper, seed=5)
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
        # the last hidden layer saturates at tanh(100) = 1, so the output sums eight 1e308 terms
        n = nets.critic.vector.size
        weights, biases = layer_views(nets.critic.layer_sizes, nets.targets[:n])
        weights[-2][...] = 0.0
        biases[-2][...] = 100.0
        weights[-1][...] = 1e308
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
        nets = make_agent(hyper, seed=9)
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
        # the blend at DDPG's own rate, in soft_update's order of operations, so bit for bit
        assert TARGET_RATE == 0.001
        assert np.array_equal(after_t, before_t * (1.0 - TARGET_RATE) + TARGET_RATE * source)
        assert np.array_equal(nets.target_actor.vector,
                              before_ta * (1.0 - TARGET_RATE) + TARGET_RATE * nets.actor.vector)
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
        raise ShapeError(f"gradient of shape {grads.shape} for {params.vector.size} parameters")
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
        raise ConfigurationError(f"soft-update rate must lie in (0, 1], got {rate}")
    if target.layer_sizes != source.layer_sizes:
        raise ShapeError("target and source networks have different layer sizes")
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
    @pytest.mark.parametrize("hidden", [(8,), (64, 64)], ids=["tiny", "64x64"])
    @pytest.mark.parametrize("supervised", [False, True], ids=["pure", "supervised"])
    def test_300_update_triples_bitwise(self, hidden, supervised):
        hyper = tiny_hyper(actor_hidden=hidden, critic_hidden=hidden)
        seed = [5, 0]
        nets = make_agent(hyper, seed)
        oracle = oracle_make_agent(hyper, seed)
        rng = np.random.default_rng(21)
        for k in range(300):
            batch = random_batch(rng, n=16)
            sup, w = (random_supervision(rng, n=8), supervision_weight(k, 10.0)) if supervised else (None, 0.0)
            critic_update(nets, hyper, batch, sup, w)
            actor_update(nets, hyper, batch, sup, w)
            target_update(nets)
            oracle = oracle_critic_update(oracle, hyper, batch, sup, w)
            oracle = oracle_actor_update(oracle, hyper, batch, sup, w)
            oracle = oracle_target_update(oracle, TARGET_RATE)
        for name in ("actor", "critic", "target_actor", "target_critic"):
            assert np.array_equal(getattr(nets, name).vector, getattr(oracle, name).vector), name
        for name in ("actor_opt", "critic_opt"):
            mine, theirs = getattr(nets, name), getattr(oracle, name)
            assert np.array_equal(mine.m, theirs.m) and np.array_equal(mine.v, theirs.v), name
            assert mine.step_count == theirs.step_count == 300
        assert not np.array_equal(nets.target_actor.vector, nets.actor.vector)


class TestSupervisionWeight:
    def test_starts_at_one(self):
        assert supervision_weight(0, 3.7) == 1.0

    def test_paper_values(self):
        assert supervision_weight(999, 1.0) == pytest.approx(0.001, abs=1e-12)
        assert supervision_weight(900, 100.0) == pytest.approx(0.1, abs=1e-12)

    def test_strictly_decreasing(self):
        values = [supervision_weight(n, 5.0) for n in range(200)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] > 0.0

    def test_invalid_inputs(self):
        # the decay constant is range-checked where it is set; n_roll is a count the trainer keeps
        with pytest.raises(ConfigurationError, match="supervision_decay"):
            tiny_hyper(supervision_decay=-1e-3)
        # a decay constant of 0 is valid and disables supervision
        assert supervision_weight(5, 0.0) == 0.0
        assert supervision_weight(0, 0.0) == 0.0


class TestNoise:
    def test_fixed_seed_repeats_sequence(self):
        a = OrnsteinUhlenbeckNoise(2)
        b = OrnsteinUhlenbeckNoise(2)
        seq_a = [a.sample(np.random.default_rng(42)) for _ in range(1)]
        a2 = OrnsteinUhlenbeckNoise(2)
        rng1, rng2 = np.random.default_rng(5), np.random.default_rng(5)
        seq1 = np.array([a2.sample(rng1) for _ in range(50)])
        seq2 = np.array([b.sample(rng2) for _ in range(50)])
        assert np.array_equal(seq1, seq2)

    def test_empirical_mean_near_zero(self):
        # CLT bound: |mean| < 3 * stationary std / sqrt(n)
        noise = OrnsteinUhlenbeckNoise(1)
        rng = np.random.default_rng(17)
        n = 100_000
        samples = np.array([noise.sample(rng)[0] for _ in range(n)])
        # correlated draws: effective sample size is n * (theta / (2 - theta)) approximately;
        # use a conservative inflation of the CLT bound instead
        # stationary std of x' = (1 - theta dt) x + scale sqrt(dt) N(0, 1)
        sigma = OU_SCALE / np.sqrt(2.0 * OU_THETA - OU_THETA**2 * OU_DT)
        assert abs(samples.mean()) < 3 * sigma / np.sqrt(n) * np.sqrt(2 / OU_THETA)

    def test_reset_restarts_from_zero(self):
        noise = OrnsteinUhlenbeckNoise(2)
        rng = np.random.default_rng(3)
        first = noise.sample(rng)
        noise.reset()
        rng2 = np.random.default_rng(3)
        again = noise.sample(rng2)
        assert np.array_equal(first, again)


class TestHyper:
    @pytest.mark.parametrize("key", ["actor_hidden", "critic_hidden"])
    @pytest.mark.parametrize("widths", [(0,), (8, 0), (-1, 8)])
    def test_rejects_hidden_width_below_one(self, key, widths):
        with pytest.raises(ConfigurationError, match=key):
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
        with pytest.raises(SpecError, match="obs_scale"):
            load_agent_checkpoint(self._checkpoint_with(tmp_path, "obs_scale", list(obs_scale)))

    @pytest.mark.parametrize("bound", [0.0, -5.0, float("inf"), float("nan")])
    def test_rejects_action_bound_not_positive_and_finite(self, tmp_path, bound):
        # a negative bound flipped every action's sign and the critic's action scaling
        with pytest.raises(TypeError, match="action_bound"):
            tiny_hyper(action_bound=bound)
        with pytest.raises(SpecError, match="action_bound"):
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
            "batch_size", "supervision_batch_size", "supervision_decay", "actor_hidden", "critic_hidden"]
        assert DdpgHyper.for_env(InsertionEnvConfig(), batch_size=8) == DdpgHyper(batch_size=8)
        with pytest.raises(TypeError, match="action_bound"):
            DdpgHyper.for_env(InsertionEnvConfig(), action_bound=2.0)
