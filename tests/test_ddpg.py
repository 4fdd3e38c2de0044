import numpy as np
import pytest

from guided_ddpg.ddpg import (
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
from guided_ddpg.exceptions import ConfigurationError, InputError
from guided_ddpg.replay import SupervisionBatch, TransitionBatch


def tiny_hyper(**overrides) -> DdpgHyper:
    defaults = dict(actor_hidden=(8,), critic_hidden=(8,), action_bound=2.0,
                    obs_scale=(1.0,) * 6, discount=0.9)
    defaults.update(overrides)
    return DdpgHyper(**defaults)


def random_batch(rng, n=4) -> TransitionBatch:
    return TransitionBatch(
        states=rng.normal(size=(n, 6)),
        actions=rng.uniform(-1, 1, size=(n, 2)),
        next_states=rng.normal(size=(n, 6)),
        rewards=rng.normal(size=n),
        dones=rng.uniform(size=n) < 0.3,
    )


def random_supervision(rng, n=3) -> SupervisionBatch:
    return SupervisionBatch(
        states=rng.normal(size=(n, 6)),
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

    def test_actions_respect_bound(self):
        hyper = tiny_hyper()
        nets = make_agent(hyper, seed=2)
        states = np.random.default_rng(0).normal(size=(50, 6)) * 10
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

    def test_zero_discount_returns_rewards(self):
        hyper = tiny_hyper(discount=0.0)
        nets = make_agent(hyper, seed=0)
        batch = random_batch(np.random.default_rng(0))
        assert np.allclose(critic_target(batch, nets, hyper), batch.rewards)

    def test_constant_critic_arithmetic(self):
        hyper = tiny_hyper(discount=0.9)
        nets = make_agent(hyper, seed=0)
        # zero out the critic weights, set output bias to b: Q == b everywhere
        b = 0.37
        vec = np.zeros(nets.critic.vector.size)
        vec[-1] = b  # the output bias closes the parameter vector
        critic = nets.critic.with_vector(vec)
        assert np.array_equal(critic.biases[-1], [b])
        nets = AgentNets(nets.actor, critic, nets.target_actor, critic, nets.actor_opt, nets.critic_opt)
        batch = TransitionBatch(
            states=np.zeros((1, 6)), actions=np.zeros((1, 2)),
            next_states=np.zeros((1, 6)), rewards=np.array([1.0]), dones=np.array([False]),
        )
        assert critic_target(batch, nets, hyper) == pytest.approx([1.0 + 0.9 * b])


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
            critic = nets.critic.with_vector(vec)
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
        hyper = tiny_hyper(discount=0.0)
        nets = make_agent(hyper, seed=7)
        rng = np.random.default_rng(2)
        states = rng.normal(size=(4, 6))
        actions = rng.uniform(-1, 1, size=(4, 2))
        q = critic_value(nets.critic, hyper, states, actions)
        batch = TransitionBatch(states, actions, states.copy(), q.copy(), np.ones(4, dtype=bool))
        sup = SupervisionBatch(states, actions, q.copy())
        _, grads = critic_loss_grads(nets, hyper, batch, sup, 0.5)
        assert np.max(np.abs(grads)) < 1e-12
        updated = critic_update(nets, hyper, batch, sup, 0.5)
        assert np.allclose(updated.critic.vector, nets.critic.vector, atol=1e-12)


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
            actor = nets.actor.with_vector(vec)
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
        # make live critic different from target critic
        bumped = nets.critic.with_vector(nets.critic.vector + 0.5)
        nets = AgentNets(nets.actor, bumped, nets.target_actor, nets.target_critic,
                         nets.actor_opt, nets.critic_opt)
        batch = random_batch(rng)
        _, grads_now = actor_objective_grads(nets, hyper, batch, None, 0.0)
        # swapping the live critic must not change the actor gradient
        nets2 = AgentNets(nets.actor, nets.target_critic, nets.target_actor, nets.target_critic,
                          nets.actor_opt, nets.critic_opt)
        _, grads_same_target = actor_objective_grads(nets2, hyper, batch, None, 0.0)
        assert np.array_equal(grads_now, grads_same_target)

    def test_large_weight_drives_actor_to_supervision(self):
        hyper = tiny_hyper(actor_lr=5e-2)
        nets = make_agent(hyper, seed=13)
        state = np.zeros((1, 6))
        target_action = np.array([[0.8, -0.4]])
        sup = SupervisionBatch(state, target_action, np.zeros(1))
        batch = TransitionBatch(state, np.zeros((1, 2)), state.copy(), np.zeros(1), np.ones(1, dtype=bool))
        for _ in range(500):
            nets = actor_update(nets, hyper, batch, sup, 1e4)
        result = policy_action(nets.actor, hyper, state)
        assert np.allclose(result, target_action, atol=5e-3)


class TestTargetUpdate:
    def test_targets_move_toward_sources(self):
        hyper = tiny_hyper()
        nets = make_agent(hyper, seed=1)
        rng = np.random.default_rng(0)
        batch = random_batch(rng)
        nets = critic_update(nets, hyper, batch, None, 0.0)
        nets = actor_update(nets, hyper, batch, None, 0.0)
        before_t = nets.target_critic.vector
        source = nets.critic.vector
        updated = target_update(nets, 0.25)
        after_t = updated.target_critic.vector
        # each coordinate stays between its old value and the source value
        low = np.minimum(before_t, source) - 1e-15
        high = np.maximum(before_t, source) + 1e-15
        assert np.all(after_t >= low) and np.all(after_t <= high)
        assert np.allclose(after_t, 0.25 * source + 0.75 * before_t)


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
        with pytest.raises(InputError):
            supervision_weight(-1, 1.0)
        with pytest.raises(InputError):
            supervision_weight(0, 0.0)


class TestNoise:
    def test_zero_scale_is_zero_forever(self):
        noise = OrnsteinUhlenbeckNoise(2, 0.0, 0.15, 1.0)
        rng = np.random.default_rng(0)
        for _ in range(10):
            assert np.all(noise.sample(rng) == 0.0)

    def test_fixed_seed_repeats_sequence(self):
        a = OrnsteinUhlenbeckNoise(2, 0.5, 0.15, 1.0)
        b = OrnsteinUhlenbeckNoise(2, 0.5, 0.15, 1.0)
        seq_a = [a.sample(np.random.default_rng(42)) for _ in range(1)]
        a2 = OrnsteinUhlenbeckNoise(2, 0.5, 0.15, 1.0)
        rng1, rng2 = np.random.default_rng(5), np.random.default_rng(5)
        seq1 = np.array([a2.sample(rng1) for _ in range(50)])
        seq2 = np.array([b.sample(rng2) for _ in range(50)])
        assert np.array_equal(seq1, seq2)

    def test_empirical_mean_near_zero(self):
        # CLT bound: |mean| < 3 * stationary std / sqrt(n)
        noise = OrnsteinUhlenbeckNoise(1, 1.0, theta=0.15, dt=1.0)
        rng = np.random.default_rng(17)
        n = 100_000
        samples = np.array([noise.sample(rng)[0] for _ in range(n)])
        # correlated draws: effective sample size is n * (theta / (2 - theta)) approximately;
        # use a conservative inflation of the CLT bound instead
        # stationary std of x' = (1 - theta dt) x + scale sqrt(dt) N(0, 1) at scale 1
        sigma = 1.0 / np.sqrt(2.0 * noise.theta - noise.theta**2 * noise.dt)
        assert abs(samples.mean()) < 3 * sigma / np.sqrt(n) * np.sqrt(2 / noise.theta)

    def test_reset_restarts_from_zero(self):
        noise = OrnsteinUhlenbeckNoise(2, 1.0, 0.15, 1.0)
        rng = np.random.default_rng(3)
        first = noise.sample(rng)
        noise.reset()
        rng2 = np.random.default_rng(3)
        again = noise.sample(rng2)
        assert np.array_equal(first, again)

    def test_negative_scale_rejected(self):
        with pytest.raises(ConfigurationError):
            OrnsteinUhlenbeckNoise(2, -1.0, 0.15, 1.0)

    @pytest.mark.parametrize("theta,dt", [(0.0, 1.0), (-0.1, 1.0), (0.15, 0.0), (0.15, -1.0), (3.0, 1.0),
                                          (1.0, 2.0), (-3.0, -1.0)])
    def test_hyper_rejects_diverging_or_degenerate_noise(self, theta, dt):
        # the noise state is scaled by 1 - theta * dt each step; built without DdpgHyper,
        # theta = 3 used to reach |x| = 1.8e17 after 60 samples
        with pytest.raises(ConfigurationError, match="noise_theta"):
            tiny_hyper(noise_theta=theta, noise_dt=dt)
        with pytest.raises(ConfigurationError, match="noise_theta"):
            OrnsteinUhlenbeckNoise(1, 1.0, theta=theta, dt=dt)
        assert tiny_hyper(noise_theta=1.99, noise_dt=1.0).noise_theta == 1.99
        assert OrnsteinUhlenbeckNoise(1, 1.0, theta=1.99, dt=1.0).theta == 1.99


class TestHyper:
    @pytest.mark.parametrize("key", ["actor_lr", "critic_lr"])
    @pytest.mark.parametrize("value", [0.0, -1e-3, float("inf"), float("nan")])
    def test_rejects_bad_learning_rate(self, key, value):
        with pytest.raises(ConfigurationError, match=key):
            tiny_hyper(**{key: value})

    @pytest.mark.parametrize("key", ["actor_hidden", "critic_hidden"])
    @pytest.mark.parametrize("widths", [(0,), (8, 0), (-1, 8)])
    def test_rejects_hidden_width_below_one(self, key, widths):
        with pytest.raises(ConfigurationError, match=key):
            tiny_hyper(**{key: widths})
        assert getattr(tiny_hyper(**{key: (1,)}), key) == (1,)

    def test_scaling_has_no_default(self):
        # DdpgHyper.for_env derives the scaling from the task; a literal default disagreed with it
        with pytest.raises(TypeError, match="action_bound"):
            DdpgHyper()
        with pytest.raises(TypeError, match="obs_scale"):
            DdpgHyper(action_bound=5.0)
