import time

import numpy as np
import pytest

import guided_ddpg.guided as guided_mod
from guided_ddpg.ddpg import (
    OU_DT,
    OU_SCALE,
    OU_THETA,
    SUPERVISION_DECAY,
    DdpgHyper,
    actor_update,
    cost_to_go,
    critic_update,
    make_agent,
    policy_action,
    target_update,
)
from guided_ddpg.envs import InsertionEnvConfig, Transition, env_reset, env_step
from guided_ddpg.exceptions import InputError, SupervisorError
from guided_ddpg.guided import (
    EvalMetrics,
    EvalRecord,
    TrainConfig,
    TrainingLog,
    evaluate_policy,
    rng_streams,
    train,
)
from guided_ddpg.harness import pure_ddpg_config
from guided_ddpg.nets import MlpParams, as_float64
from guided_ddpg.replay import (
    SUPERVISION_ROW_WIDTH,
    TRANSITION_ROW_WIDTH,
    ReplayBuffer,
    pack_supervision,
    pack_transition,
    transition_batch_from_rows,
    transition_buffer,
)
from guided_ddpg.trajopt import KL_STEP, SupervisorConfig


def _bits(a):
    """Shape, dtype and bytes: equal only for the same values with the same signs of zero."""
    a = np.asarray(a)
    return a.shape, a.dtype, a.tobytes()


def tiny_config(**overrides) -> TrainConfig:
    env = overrides.pop("env", InsertionEnvConfig(horizon=6))
    hyper = overrides.pop("hyper", DdpgHyper.for_env(
        env, actor_hidden=(8,), critic_hidden=(8,), batch_size=8, supervision_batch_size=8,
    ))
    defaults = dict(
        env=env, hyper=hyper, supervisor=SupervisorConfig(samples_per_subiter=3),
        epochs=2, n_ddpg=2, n_inc=1, n_trajopt=2, r2_capacity=500,
        seed=0, eval_every=0, eval_episodes=2,
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


class TestDegenerateRuns:
    def test_zero_epochs_returns_untrained_nets(self):
        config = tiny_config(epochs=0)
        nets, log = train(config)
        fresh = make_agent(config.hyper, rng_streams(config.seed).net_seed)
        assert np.array_equal(nets.actor.vector, fresh.actor.vector)
        assert log.episodes == [] and log.evals == [] and log.epochs == []

    def test_zero_ddpg_episodes(self):
        config = tiny_config(epochs=1, n_ddpg=0, n_trajopt=1)
        nets, log = train(config)
        assert log.episodes_by_phase("ddpg") == []
        assert len(log.episodes_by_phase("supervised")) == 1


class TestAccounting:
    def test_episode_counts_follow_schedule(self):
        config = tiny_config(epochs=3, n_ddpg=2, n_inc=2, n_trajopt=2)
        _, log = train(config)
        samples = config.supervisor.samples_per_subiter
        expected_per_epoch = [config.n_trajopt * samples + 1 + (config.n_ddpg + e * config.n_inc)
                              for e in range(config.epochs)]
        assert len(log.episodes) == sum(expected_per_epoch)
        for e in range(config.epochs):
            in_epoch = [r for r in log.episodes if r.epoch == e]
            assert len(in_epoch) == expected_per_epoch[e]
            ddpg = [r for r in in_epoch if r.phase == "ddpg"]
            assert len(ddpg) == config.n_ddpg + e * config.n_inc

    @pytest.mark.parametrize("n_ddpg, n_inc", [(2, 1), (0, 3), (5, 0), (21, 15)])
    def test_episodes_before_is_the_running_sum_of_block_lengths(self, n_ddpg, n_inc):
        config = tiny_config(n_ddpg=n_ddpg, n_inc=n_inc)
        running = 0
        for epoch in range(12):
            assert config.episodes_before(epoch) == running
            running += n_ddpg + epoch * n_inc

    def test_each_epochs_exploratory_episodes_are_numbered_from_episodes_before(self):
        config = tiny_config(epochs=3, n_ddpg=2, n_inc=2, n_trajopt=1)
        _, log = train(config)
        for e in range(config.epochs):
            n_rolls = [r.n_roll for r in log.episodes if r.epoch == e and r.phase == "ddpg"]
            assert n_rolls == list(range(config.episodes_before(e), config.episodes_before(e + 1)))

    def test_episode_stamps_count_from_the_logs_clock(self):
        before = time.perf_counter()
        _, log = train(tiny_config(epochs=2, n_trajopt=1))
        elapsed = time.perf_counter() - log.t_start
        stamps = [e.wall_clock for e in log.episodes]
        assert before <= log.t_start
        assert 0.0 <= stamps[0] and stamps == sorted(stamps) and stamps[-1] <= elapsed

    def test_buffer_provenance(self):
        config = tiny_config(epochs=2, n_ddpg=2, n_trajopt=1)
        _, log = train(config)
        # R1 receives only the supervised (final) rollouts' per-step samples
        supervised_steps = sum(r.steps for r in log.episodes_by_phase("supervised"))
        assert log.r1_pushed == supervised_steps
        # R2 receives every transition from every phase
        all_steps = sum(r.steps for r in log.episodes)
        assert log.r2_pushed == all_steps

    def test_w_to_matches_schedule_at_logging_time(self):
        config = tiny_config(epochs=2, n_ddpg=3, n_trajopt=1)
        _, log = train(config)
        c = SUPERVISION_DECAY
        ddpg_rows = log.episodes_by_phase("ddpg")
        assert [r.n_roll for r in ddpg_rows] == list(range(len(ddpg_rows)))
        for row in ddpg_rows:
            assert row.w_to == pytest.approx(c / (row.n_roll + c))
        weights = [r.w_to for r in ddpg_rows]
        assert all(a >= b for a, b in zip(weights, weights[1:]))


class TestDeterminism:
    def test_identical_runs_identical_csv(self, tmp_path):
        config = tiny_config(epochs=2, eval_every=2, eval_episodes=2)
        _, log_a = train(config)
        _, log_b = train(config)
        path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
        log_a.write_csv(path_a)
        log_b.write_csv(path_b)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_different_seeds_differ(self):
        nets_a, _ = train(tiny_config(seed=0, epochs=1, n_trajopt=0))
        nets_b, _ = train(tiny_config(seed=1, epochs=1, n_trajopt=0))
        assert not np.array_equal(nets_a.actor.vector, nets_b.actor.vector)


def reference_loop(config: TrainConfig, act):
    """The textbook off-policy DDPG loop on ``config``'s rng streams, with ``act(actor, hyper, states)`` as the
    policy. Returns its nets and each episode's ``(steps, success, return)``, counted as the loop runs."""
    env, hyper = config.env, config.hyper
    streams = rng_streams(config.seed)
    nets = make_agent(hyper, streams.net_seed)
    r2 = transition_buffer(config.r2_capacity)
    episodes = []
    n_ddpg = config.n_ddpg
    for _epoch in range(config.epochs):
        for _ep in range(n_ddpg):
            noise = np.zeros(2)
            state = env_reset(env, streams.env, 1)[0]
            steps, success, episode_return = 0, False, 0.0
            for t in range(env.horizon):
                draw = streams.noise.standard_normal(2)
                noise = noise + OU_THETA * (-noise) * OU_DT + OU_SCALE * np.sqrt(OU_DT) * draw
                action = act(nets.actor, hyper, state[None])[0]
                action = np.clip(action + noise, -env.action_bound, env.action_bound)
                next_states, rewards, successes = env_step(env, state[None], action[None])
                next_state, done = next_states[0], bool(successes[0]) or t == env.horizon - 1
                r2.push(Transition(state, action, next_state, float(rewards[0]), done))
                steps, success = steps + 1, success or bool(successes[0])
                episode_return += float(rewards[0])
                batch = transition_batch_from_rows(r2.sample_rows(hyper.batch_size, streams.replay))
                critic_update(nets, hyper, batch, None, 0.0)
                actor_update(nets, hyper, batch, None, 0.0)
                target_update(nets)
                state = next_state
                if done:
                    break
            episodes.append((steps, success, episode_return))
        n_ddpg += config.n_inc
    return nets, episodes


def pd_controller(env: InsertionEnvConfig):
    """``u = 200 (target - p) - 0.5 sqrt(200) v`` in the form of ``policy_action``: it drives the peg into the slot."""
    def act(actor, hyper, states):
        return 200.0 * (env.target - states[:, 0:2]) - 0.5 * np.sqrt(200.0) * states[:, 2:4]
    return act


class TestPureDdpgReduction:
    """With zero supervision weight and no optimizer epochs, the orchestrator must be byte for byte the
    textbook off-policy loop on shared rng streams (:func:`reference_loop`), in its nets and in its
    exploratory episodes' records."""

    @staticmethod
    def _assert_matches_reference(config, act):
        nets_guided, log = train(config)
        assert all(r.w_to == 0.0 for r in log.episodes_by_phase("ddpg"))
        nets, episodes = reference_loop(config, act)
        for name in ("actor", "critic", "target_actor", "target_critic"):
            assert np.array_equal(
                getattr(nets_guided, name).vector,
                getattr(nets, name).vector,
            ), f"{name} parameters diverged from the reference loop"
        assert [(e.steps, e.success, e.episode_return) for e in log.episodes_by_phase("ddpg")] == episodes
        return episodes

    def test_bitwise_identical_to_reference_loop(self):
        env = InsertionEnvConfig(horizon=5)
        hyper = DdpgHyper.for_env(env, actor_hidden=(8,), critic_hidden=(8,), batch_size=4)
        config = tiny_config(env=env, hyper=hyper, epochs=2, n_ddpg=2, n_inc=1,
                             n_trajopt=0, eval_every=0, seed=11)
        self._assert_matches_reference(config, policy_action)

    def test_episodes_that_succeed_before_the_horizon_match_the_reference(self, monkeypatch):
        # a PD controller in place of the actor succeeds mid-horizon, where an episode's steps and success
        # are the step it stopped at, not the horizon's
        env = InsertionEnvConfig(horizon=60, hole_half_width=0.009, success_tolerance=0.006)
        hyper = DdpgHyper.for_env(env, actor_hidden=(8,), critic_hidden=(8,), batch_size=4)
        config = tiny_config(env=env, hyper=hyper, epochs=2, n_ddpg=2, n_inc=1,
                             n_trajopt=0, eval_every=0, seed=3)
        monkeypatch.setattr(guided_mod, "policy_action", pd_controller(env))
        episodes = self._assert_matches_reference(config, pd_controller(env))
        assert len(episodes) == 5 and all(success and steps < env.horizon for steps, success, _ in episodes)


class TestDegradation:
    def test_supervisor_failure_degrades_to_pure_ddpg(self, monkeypatch):
        def boom(*args, **kwargs):
            raise SupervisorError("synthetic failure")

        monkeypatch.setattr(guided_mod, "run_supervisor", boom)
        config = tiny_config(epochs=2, n_ddpg=2, n_trajopt=2)
        nets, log = train(config)
        assert all(rec.status == "degraded" for rec in log.epochs)
        # training continued: exploratory episodes still ran
        assert len(log.episodes_by_phase("ddpg")) == 2 + 3
        assert log.r1_pushed == 0

    def test_a_run_whose_epochs_all_degrade_applies_and_logs_zero_weight(self, monkeypatch):
        # with an empty supervision buffer no weight applies, and the log records the one that did
        def boom(*args, **kwargs):
            raise SupervisorError("synthetic failure")

        monkeypatch.setattr(guided_mod, "run_supervisor", boom)
        config = tiny_config(epochs=2, n_ddpg=2, n_trajopt=2)
        nets, log = train(config)
        assert [row.w_to for row in log.episodes_by_phase("ddpg")] == [0.0] * (2 + 3)
        pure_nets, pure_log = train(pure_ddpg_config(config))
        assert np.array_equal(nets.params, pure_nets.params)
        assert ([(e.n_roll, e.steps, e.episode_return, e.w_to) for e in log.episodes]
                == [(e.n_roll, e.steps, e.episode_return, e.w_to) for e in pure_log.episodes])


class TestTheLearnerStoresTheSupervisorsEpisodes:
    def test_r1_holds_each_closing_step_with_its_cost_to_go_label_and_r2_every_step(self, monkeypatch):
        # the supervisor returns trajectories; train labels the closing episode's steps with their cost_to_go
        results, stored = [], {"r1": [], "r2": []}
        supervise = guided_mod.run_supervisor

        def keep_result(*args, **kwargs):
            results.append(supervise(*args, **kwargs))
            return results[-1]

        def recording_ring(name, packer, width):
            def pack(item):
                stored[name].append(packer(item))
                return stored[name][-1]

            return lambda capacity: ReplayBuffer(capacity, pack, width)

        monkeypatch.setattr(guided_mod, "run_supervisor", keep_result)
        monkeypatch.setattr(guided_mod, "supervision_buffer",
                            recording_ring("r1", pack_supervision, SUPERVISION_ROW_WIDTH))
        monkeypatch.setattr(guided_mod, "transition_buffer",
                            recording_ring("r2", pack_transition, TRANSITION_ROW_WIDTH))
        config = tiny_config(epochs=1, n_ddpg=0, n_trajopt=2)
        _, log = train(config)
        assert [rec.status for rec in log.epochs] == ["ok"]
        ((result, _),) = results

        final = result.final_rollout
        labels = cost_to_go(final.rewards[0])
        want_r1 = np.concatenate([final.states[0, :-1], final.actions[0], labels[:, None]], axis=1)
        assert _bits(np.stack(stored["r1"])) == _bits(want_r1)
        assert len(stored["r1"]) == config.env.horizon == log.r1_pushed

        # every episode of the epoch, sub-iteration batches first and the closing one last, step by step
        episodes = [(b.states[i], b.actions[i], b.rewards[i], b.dones[i])
                    for b in result.sample_rollouts + [final] for i in range(b.rewards.shape[0])]
        want_r2 = np.concatenate([np.concatenate([s[:-1], a, s[1:], r[:, None], d[:, None]], axis=1)
                                  for s, a, r, d in episodes])
        assert _bits(np.stack(stored["r2"])) == _bits(want_r2)
        assert len(episodes) == 2 * config.supervisor.samples_per_subiter + 1


class TestSupervisorSeesTheActor:
    def test_actor_fn_returns_the_float32_actors_actions_in_float64(self, monkeypatch):
        # the supervisor's fits stay float64 while the learner runs in float32
        seen = []
        real = guided_mod.run_supervisor

        def spy(env, actor_fn, *args, **kwargs):
            seen.append(actor_fn)
            return real(env, actor_fn, *args, **kwargs)

        monkeypatch.setattr(guided_mod, "run_supervisor", spy)
        config = tiny_config(epochs=1)
        nets, _ = train(config)
        assert len(seen) == 1 and nets.actor.vector.dtype == np.float32
        states = env_reset(config.env, np.random.default_rng(0), 4)
        actions = seen[0](states)
        assert actions.dtype == np.float64
        assert np.array_equal(actions, policy_action(nets.actor, config.hyper, states))


class TestEvaluation:
    def test_eval_records_written(self):
        config = tiny_config(epochs=1, n_ddpg=4, n_trajopt=0, eval_every=2, eval_episodes=2)
        _, log = train(config)
        assert [ev.n_roll for ev in log.evals] == [2, 4]

    def test_evaluate_policy_deterministic_and_pure(self):
        config = tiny_config()
        nets = make_agent(config.hyper, 0)
        a = evaluate_policy(nets.actor, config.hyper, config.env, 3, seed=5)
        b = evaluate_policy(nets.actor, config.hyper, config.env, 3, seed=5)
        assert a == b

    def test_zero_policy_fails_far_start(self):
        env = InsertionEnvConfig(horizon=10)
        config = tiny_config(env=env)
        nets = make_agent(config.hyper, 0)
        # zero out the actor: outputs 0 force, peg never reaches the target
        actor = MlpParams(nets.actor.layer_sizes, np.zeros(nets.actor.vector.size), nets.actor.output_activation)
        metrics = evaluate_policy(actor, config.hyper, env, 5, seed=1)
        assert metrics.success_rate == 0.0

    def test_empty_evaluation_rejected(self):
        # the episode count is checked where it is set: TrainConfig here; the CLI and the spec in test_harness.py
        with pytest.raises(InputError):
            tiny_config(eval_every=2, eval_episodes=0)
        assert tiny_config(eval_every=0, eval_episodes=0).eval_episodes == 0  # never evaluates

    def test_reset_out_of_memory_is_an_input_error(self, monkeypatch):
        def no_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(guided_mod, "env_reset", no_memory)
        config = tiny_config()
        actor = make_agent(config.hyper, 0).actor
        with pytest.raises(InputError, match="7 evaluation episodes do not fit in memory"):
            evaluate_policy(actor, config.hyper, config.env, 7, seed=0)

    @pytest.mark.parametrize("overrides", [dict(eval_every=-1)])
    def test_out_of_range_evaluation_settings_rejected(self, overrides):
        with pytest.raises(InputError, match=next(iter(overrides))):
            tiny_config(**overrides)

    # the trust region's start is the positive constant trajopt.KL_STEP, so no config sets it, in range or not
    @pytest.mark.parametrize("overrides", [dict(kl_step=0.0), dict(kl_step=-1.0)])
    def test_non_positive_trust_region_settings_rejected(self, overrides):
        assert KL_STEP > 0.0
        with pytest.raises(TypeError, match=next(iter(overrides))):
            tiny_config(**overrides)

    def test_hyper_defaults_to_the_default_learner_at_the_env_bound(self):
        # the bound is a constant of both classes, so no config can pair an actor scaled to 2 N
        # with the environment's 5 N, whose noisy actions the critic would read as 2.5 times the bound
        config = TrainConfig()
        assert config.hyper == DdpgHyper()
        assert config.hyper.action_bound == config.env.action_bound == 5.0


def per_episode_results(actor, hyper, env, n_episodes, seed) -> list:
    """``(success, return, steps)`` of each episode, run one after another.

    Each episode is one row, stepped until its first success or the horizon;
    its return is the numpy sum of its rewards. The policy draws nothing from
    ``rng``, so each reset is the generator's next draw.
    """
    rng = np.random.default_rng(seed)
    results = []
    for _ in range(n_episodes):
        state, rewards = env_reset(env, rng, 1), []
        for _ in range(env.horizon):
            state, reward, success = env_step(env, state, policy_action(actor, hyper, state))
            rewards.append(reward[0])
            if success[0]:
                break
        results.append((bool(success[0]), float(np.sum(rewards)), len(rewards)))
    return results


def per_episode_evaluate_policy(actor, hyper, env, n_episodes, seed) -> EvalMetrics:
    """The per-episode loop ``evaluate_policy`` ran before lockstep; the oracle below."""
    succeeded, returns, steps = zip(*per_episode_results(actor, hyper, env, n_episodes, seed))
    return EvalMetrics(float(np.mean(succeeded)), float(np.mean(returns)), float(np.mean(steps)))


def constant_push_actor(hyper, push):
    """An actor with zero weights whose output bias makes it always push with ``push`` newtons."""
    actor = make_agent(hyper, 0).actor
    vector = np.zeros(actor.vector.size)
    vector[-2:] = np.arctanh(np.asarray(push) / hyper.action_bound)
    return MlpParams(actor.layer_sizes, vector, actor.output_activation)


def log_with_success_rates(*rates) -> TrainingLog:
    """A log whose evaluations, 25 exploratory episodes apart, read ``rates`` in order."""
    return TrainingLog(evals=[EvalRecord(epoch=k, n_roll=25 * (k + 1), success_rate=rate,
                                         mean_return=-1.0, mean_steps=10.0) for k, rate in enumerate(rates)])


class TestRolloutsToThreshold:
    def test_first_evaluation_at_or_above_the_threshold_counts(self):
        assert log_with_success_rates(0.2, 0.95, 1.0).rollouts_to_threshold(0.9) == 50
        assert log_with_success_rates(0.2, 0.85, 0.9, 1.0).rollouts_to_threshold(0.9) == 75  # equal meets it
        assert log_with_success_rates(0.9).rollouts_to_threshold(0.9) == 25

    def test_later_evaluations_do_not_change_it(self):
        log = log_with_success_rates(0.0, 0.9)
        for rate in (0.0, 1.0, 0.95):
            log.evals.append(EvalRecord(epoch=9, n_roll=25 * (len(log.evals) + 1), success_rate=rate,
                                        mean_return=-1.0, mean_steps=10.0))
            assert log.rollouts_to_threshold(0.9) == 50

    def test_no_evaluation_at_the_threshold_gives_none(self):
        assert log_with_success_rates(0.0, 0.85, 0.8999999999999999).rollouts_to_threshold(0.9) is None
        assert TrainingLog().rollouts_to_threshold(0.9) is None


# Geometries: the default slot, a wide slot with a lenient tolerance (episodes
# succeed at different steps), negative and positive hole offsets, a snug slot
# with a lenient tolerance, and a slot against the right workspace wall, away
# from every start.
ORACLE_ENVS = [
    InsertionEnvConfig(horizon=40),
    InsertionEnvConfig(horizon=60, hole_half_width=0.009, success_tolerance=0.006),
    InsertionEnvConfig(horizon=60, hole_half_width=0.009, hole_center_offset=-0.002, success_tolerance=0.006),
    InsertionEnvConfig(horizon=50, hole_center_offset=0.0015, hole_half_width=0.0065),
    InsertionEnvConfig(horizon=60, hole_half_width=0.006, success_tolerance=0.005),
    InsertionEnvConfig(horizon=30, hole_center_offset=0.014),
]


class TestLockstepMatchesPerEpisodeLoop:
    @staticmethod
    def assert_same_metrics(actor, hyper, env, n_episodes, seed) -> EvalMetrics:
        got = evaluate_policy(actor, hyper, env, n_episodes, seed)
        want = per_episode_evaluate_policy(actor, hyper, env, n_episodes, seed)
        assert got.success_rate == want.success_rate
        assert got.mean_steps == want.mean_steps
        assert got.mean_return == pytest.approx(want.mean_return, rel=1e-12, abs=0.0)
        return want

    @pytest.mark.parametrize("env", ORACLE_ENVS)
    def test_agent_actor(self, env):
        # the learner's float32 actor as a checkpoint loads it, in float64
        hyper = DdpgHyper.for_env(env, actor_hidden=(16, 16))
        for seed in range(3):
            actor = as_float64(make_agent(hyper, [seed, 9]).actor)
            self.assert_same_metrics(actor, hyper, env, 7, seed)

    @pytest.mark.parametrize("env", ORACLE_ENVS)
    def test_float32_agent_actor(self, env):
        # float32 passes over a batch and over one row differ in float32's last bits, not beyond
        hyper = DdpgHyper.for_env(env, actor_hidden=(16, 16))
        for seed in range(3):
            actor = make_agent(hyper, [seed, 9]).actor
            got = evaluate_policy(actor, hyper, env, 7, seed)
            want = per_episode_evaluate_policy(actor, hyper, env, 7, seed)
            assert (got.success_rate, got.mean_steps) == (want.success_rate, want.mean_steps)
            assert got.mean_return == pytest.approx(want.mean_return, rel=1e-6, abs=0.0)

    @pytest.mark.parametrize("env", ORACLE_ENVS)
    def test_constant_push_actor(self, env):
        hyper = DdpgHyper.for_env(env, actor_hidden=(8,))
        actor = constant_push_actor(hyper, (0.4, -2.0))
        self.assert_same_metrics(actor, hyper, env, 12, 3)

    def test_active_set_shrinks_mid_run(self):
        env = ORACLE_ENVS[2]
        hyper = DdpgHyper.for_env(env, actor_hidden=(8,))
        actor = constant_push_actor(hyper, (0.4, -2.0))
        steps = [steps for _, _, steps in per_episode_results(actor, hyper, env, 12, 3)]
        assert len(set(steps)) >= 3 and env.horizon in steps  # several exits, and some never succeed
        metrics = self.assert_same_metrics(actor, hyper, env, 12, 3)
        assert 0.0 < metrics.success_rate < 1.0

    def test_single_episode(self):
        env = ORACLE_ENVS[1]
        hyper = DdpgHyper.for_env(env, actor_hidden=(8,))
        self.assert_same_metrics(constant_push_actor(hyper, (0.0, -1.0)), hyper, env, 1, 0)

    def test_nan_actor_raises_input_error(self):
        env = InsertionEnvConfig(horizon=10)
        hyper = DdpgHyper.for_env(env, actor_hidden=(8,))
        actor = make_agent(hyper, 0).actor
        actor = MlpParams(actor.layer_sizes, np.full(actor.vector.size, np.nan), actor.output_activation)
        with pytest.raises(InputError):
            evaluate_policy(actor, hyper, env, 4, seed=0)
