from dataclasses import replace

import numpy as np
import pytest

from guided_ddpg.envs import (
    InsertionEnvConfig,
    clip_actions,
    contact_forces,
    env_reset,
    env_step,
    initial_state_distribution,
    rollout,
    successes,
)
from guided_ddpg.exceptions import InputError
from guided_ddpg.harness import load_env_config

from verbatim_oracles import contact_force as verbatim_contact_force


@pytest.fixture
def config():
    return InsertionEnvConfig()


def contact_force(config, position, velocity):
    """:func:`contact_forces` of one configuration, as one ``(2,)`` force."""
    return contact_forces(config, np.asarray(position, dtype=float)[None], np.asarray(velocity, dtype=float)[None])[0]


def free_space_state(x=0.0, y=0.01, vx=0.0, vy=0.0):
    """One state row away from every body, so the contact force it carries is zero."""
    return np.array([[x, y, vx, vy, 0.0, 0.0]])


def step_one(config, state, action):
    """Step one state row under one action; the next row, its reward and its success."""
    next_states, rewards, succeeded = env_step(config, state, np.asarray(action, dtype=float)[None])
    return next_states, rewards[0], succeeded[0]


class TestConfig:
    def test_defaults_valid(self, config):
        assert config.clearance >= 0.0
        assert (config.success_tolerance, config.target_point) == (None, None)
        assert config.tolerance == pytest.approx(0.05 * config.hole_depth)
        assert tuple(config.target) == (config.hole_center_offset, -config.hole_depth)

    def test_clearance_invariant(self):
        with pytest.raises(InputError):
            InsertionEnvConfig(hole_half_width=0.0049)

    def test_target_follows_offset(self):
        cfg = InsertionEnvConfig(hole_center_offset=0.0011)
        assert cfg.target[0] == pytest.approx(0.0011)

    def test_replace_moves_the_default_target_and_tolerance(self):
        # the resolved values used to be written back into the override fields, so replace kept them
        cfg = replace(InsertionEnvConfig(), hole_center_offset=0.001)
        assert tuple(cfg.target) == (0.001, -0.02)
        assert not cfg.target.flags.writeable
        assert cfg == InsertionEnvConfig(hole_center_offset=0.001)
        # an override holds through replace, and clearing it restores the default
        pinned = replace(InsertionEnvConfig(target_point=(0.0, -0.01), success_tolerance=0.002), hole_center_offset=0.001)
        assert (tuple(pinned.target), pinned.tolerance) == ((0.0, -0.01), 0.002)
        cleared = replace(pinned, target_point=None, success_tolerance=None)
        assert (tuple(cleared.target), cleared.tolerance) == ((0.001, -0.02), 0.05 * 0.02)

    @pytest.mark.parametrize("kwargs", [dict(horizon=0), dict(horizon=-1), dict(success_tolerance=0.0),
                                        dict(success_tolerance=-0.001), dict(success_tolerance=np.nan)])
    def test_bad_numbers_rejected(self, kwargs):
        with pytest.raises(InputError):
            InsertionEnvConfig(**kwargs)

    def test_constants_satisfy_the_physics_preconditions(self):
        c = InsertionEnvConfig
        # Jury's test on the semi-implicit Euler step of a wall's spring-damper
        assert c.dt**2 * c.wall_stiffness / c.mass + 2.0 * c.dt * c.wall_damping / c.mass < 4.0
        assert 0.0 <= c.start_height < c.workspace_height
        # a wider reset could start the peg inside a side wall
        assert 0.0 <= c.reset_range <= c.workspace_half_width - c.peg_half_width
        assert c.hole_depth > 0.0
        assert c.peg_half_width > 0.0 and c.mass > 0.0 and c.action_bound > 0.0 and c.action_cost_weight >= 0.0

    @pytest.mark.parametrize("kwargs", [dict(hole_center_offset=0.03), dict(hole_center_offset=-0.03),
                                        dict(hole_center_offset=1e300), dict(hole_center_offset=0.0145),
                                        dict(hole_center_offset=-0.0145), dict(hole_half_width=0.02),
                                        dict(hole_center_offset=np.nan)])
    def test_slot_or_start_outside_the_workspace_rejected(self, kwargs):
        # |hole_center_offset| + hole_half_width < workspace_half_width; +-0.0145 + 0.0055 is exactly 0.02.
        # The start pose is a constant, below the ceiling.
        with pytest.raises(InputError, match="workspace box must contain the slot"):
            InsertionEnvConfig(**kwargs)

    @pytest.mark.parametrize("offset", [0.0144, -0.0144])
    def test_slot_just_inside_the_workspace_accepted(self, offset):
        assert InsertionEnvConfig(hole_center_offset=offset).target[0] == offset


    @pytest.mark.parametrize("kwargs", [dict(target_point=(-1e300, 0.0)), dict(target_point=(1e300, 0.0)),
                                        dict(target_point=(0.0, -1e155)), dict(target_point=(0.0, np.nan)),
                                        dict(target_point=(0.0, 1e155)), dict(target_point=(0.0, -4.3e9)),
                                        dict(target_point=(-4.3e9, 0.0))])
    def test_target_too_far_from_the_start_rejected(self, kwargs):
        # just past the float32 bound, where the float32 learner's gradients could overflow, and far past it,
        # where the squared distance overflows even in float64 and every stage cost would be inf
        with pytest.raises(InputError, match="too far from the start pose"):
            InsertionEnvConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [dict(target_point=(0.0, -4.29e9)), dict(target_point=(3e9, -3e9)),
                                        dict(target_point=(0.0, 4.29e9))])
    def test_target_far_but_squarable_accepted(self, kwargs):
        # the squared distance from the farthest start pose squares again in float32: d**4 is below its
        # largest value, whose fourth root lies between 4.29e9 and 4.3e9
        assert 4.29e9 < float(np.finfo(np.float32).max) ** 0.25 < 4.3e9
        config = InsertionEnvConfig(**kwargs)
        start = np.array([config.reset_range, config.start_height])
        squared = np.sum((np.abs(start) + np.abs(config.target)) ** 2)
        assert np.isfinite(np.float32(squared) * np.float32(squared))


class TestReset:
    def test_fixed_seed_repeats(self, config):
        a = env_reset(config, 42, 5)
        b = env_reset(config, 42, 5)
        assert a.shape == (5, 6)
        assert np.array_equal(a, b)

    def test_no_rows(self, config):
        assert env_reset(config, 0, 0).shape == (0, 6)
        next_states, rewards, succeeded = env_step(config, env_reset(config, 0, 0), np.zeros((0, 2)))
        assert next_states.shape == (0, 6) and rewards.shape == (0,) and succeeded.shape == (0,)

    def test_lateral_offset_within_bound(self, config):
        for seed in range(1, 200):
            states = env_reset(config, seed, 2)
            assert np.all(np.abs(states[:, 0]) <= config.reset_range)
            assert np.all(states[:, 1] == config.start_height)
            assert np.all(states[:, 2:4] == 0.0)
            # the reset force is +0.0: no valid reset starts inside a body
            assert np.all(states[:, 4:6] == 0.0) and not np.signbit(states[:, 4:6]).any()

    def test_distribution_moments_match_resets(self, config):
        mean, cov = initial_state_distribution(config)
        assert mean.shape == (6,) and cov.shape == (6, 6)
        states = env_reset(config, 0, 20_000)
        # the sample mean of the lateral offset is within 4 standard errors
        assert abs(states[:, 0].mean() - mean[0]) < 4.0 * np.sqrt(cov[0, 0] / len(states))
        assert np.cov(states[:, 0]) == pytest.approx(cov[0, 0], rel=0.05)
        assert np.array_equal(states[0, 1:], mean[1:])
        off_lateral = cov.copy()
        off_lateral[0, 0] = 0.0
        assert not off_lateral.any()


class TestContact:
    def test_free_space_no_force(self, config):
        assert np.all(contact_force(config, np.array([0.0, 0.01]), np.zeros(2)) == 0.0)
        assert np.all(contact_force(config, np.array([0.0, -0.01]), np.zeros(2)) == 0.0)

    def test_right_wall_spring(self, config):
        # peg deep in the hole, overlapping the right wall by delta, at rest
        delta = 2e-4
        x = config.hole_half_width - config.peg_half_width + delta
        pos = np.array([x, -0.01])
        force = contact_force(config, pos, np.zeros(2))
        assert force[0] == pytest.approx(-config.wall_stiffness * delta)
        assert force[1] == 0.0

    def test_left_wall_spring(self, config):
        delta = 2e-4
        x = -(config.hole_half_width - config.peg_half_width + delta)
        force = contact_force(config, np.array([x, -0.01]), np.zeros(2))
        assert force[0] == pytest.approx(config.wall_stiffness * delta)

    def test_table_supports_misaligned_peg(self, config):
        # peg resting on the table beside the hole: pushed up, not sideways
        pen = 3e-4
        force = contact_force(config, np.array([0.012, -pen]), np.zeros(2))
        assert force[0] == 0.0
        assert force[1] == pytest.approx(config.wall_stiffness * pen)

    def test_hole_floor(self, config):
        pen = 1e-4
        force = contact_force(config, np.array([0.0, -config.hole_depth - pen]), np.zeros(2))
        assert force[1] == pytest.approx(config.wall_stiffness * pen)

    def test_force_continuous_in_penetration(self, config):
        # magnitude grows linearly from zero with penetration depth (at rest)
        inside = config.hole_half_width - config.peg_half_width
        depths = np.linspace(0.0, 3e-4, 7)
        forces = [contact_force(config, np.array([inside + d, -0.01]), np.zeros(2))[0] for d in depths]
        assert forces[0] == 0.0
        diffs = np.diff(forces)
        assert np.allclose(diffs, diffs[0])

    def test_no_adhesion(self, config):
        # peg separating fast: damping cannot turn contact into suction
        inside = config.hole_half_width - config.peg_half_width
        force = contact_force(config, np.array([inside + 1e-5, -0.01]), np.array([-10.0, 0.0]))
        assert force[0] >= 0.0


class TestContactMatchesVerbatimOracle:
    """The per-call loop computes the one-row model's bits, signs of zero included."""

    @pytest.mark.parametrize("geometry", [
        {},
        {"hole_center_offset": 0.002},
        {"hole_center_offset": -0.002},
        {"hole_half_width": 0.00501},
    ], ids=["default", "shift+", "shift-", "tight"])
    def test_random_rows_bitwise(self, geometry):
        config = InsertionEnvConfig(**geometry)
        rng = np.random.default_rng(31)
        n = 4000
        positions = np.column_stack([rng.uniform(-0.026, 0.026, n), rng.uniform(-0.03, 0.026, n)])
        velocities = rng.normal(scale=0.5, size=(n, 2)) * rng.choice([1e-3, 1.0, 30.0], size=(n, 1))
        # exact signed zeros in every column, and rows on the slot's edges and floor
        for column in (positions, velocities):
            column[rng.uniform(size=(n, 2)) < 0.1] = 0.0
            column[rng.uniform(size=(n, 2)) < 0.1] = -0.0
        c, wp, wh = config.hole_center_offset, config.peg_half_width, config.hole_half_width
        positions[:8, 0] = [c - wh + wp, c + wh - wp, c - wh + wp, c + wh - wp, c, c, c - wh, c + wh]
        positions[:8, 1] = [-0.01, -0.01, -0.0, 0.0, -config.hole_depth, -0.0, -wp, -wp]
        forces = contact_forces(config, positions, velocities)
        want = np.array([verbatim_contact_force(config, p, v) for p, v in zip(positions, velocities)])
        assert forces.shape == (n, 2) and forces.dtype == np.float64
        assert np.array_equal(forces, want)
        assert np.array_equal(np.signbit(forces), np.signbit(want))
        assert (forces != 0.0).any(axis=1).sum() > n // 4  # the draw does reach the bodies
        for i in range(0, n, 97):  # a row alone gets its bits in the batch
            alone = contact_forces(config, positions[i:i + 1], velocities[i:i + 1])
            assert np.array_equal(alone, want[i:i + 1]) and np.array_equal(np.signbit(alone), np.signbit(want[i:i + 1]))

    def test_no_rows(self, config):
        assert contact_forces(config, np.zeros((0, 2)), np.zeros((0, 2))).shape == (0, 2)


class TestStep:
    def test_free_space_zero_action_is_static(self, config):
        state = free_space_state()
        next_state, _, _ = step_one(config, state, np.zeros(2))
        assert np.array_equal(next_state[0, 0:2], state[0, 0:2])
        assert np.all(next_state[0, 4:6] == 0.0)

    def test_constant_force_integration_oracle(self, config):
        # semi-implicit Euler: after n steps, v = n*dt*F/m exactly
        state = free_space_state(y=0.015)
        force = np.array([0.0, -0.5])
        n = 17
        for _ in range(n):
            state, _, _ = step_one(config, state, force)
        expected_v = n * config.dt * force[1] / config.mass
        assert state[0, 3] == pytest.approx(expected_v, rel=1e-12)

    def test_kinetic_energy_constant_without_contact(self, config):
        state = free_space_state(x=0.0, y=0.012, vx=0.01, vy=0.005)
        e0 = 0.5 * config.mass * np.sum(state[0, 2:4] ** 2)
        for _ in range(25):
            state, _, _ = step_one(config, state, np.zeros(2))
            assert 0.5 * config.mass * np.sum(state[0, 2:4] ** 2) == pytest.approx(e0, rel=1e-12)

    def test_action_clipped(self, config):
        # an action beyond the bound steps exactly as the bound itself
        bound = config.action_bound
        over = step_one(config, free_space_state(), np.array([100.0, -100.0]))
        at = step_one(config, free_space_state(), np.array([bound, -bound]))
        assert np.array_equal(over[0], at[0]) and over[1] == at[1]
        inside = step_one(config, free_space_state(), np.array([0.5 * bound, -bound]))
        assert not np.array_equal(over[0], inside[0])

    def test_clip_actions_is_np_clip_bitwise(self, config):
        bound = config.action_bound
        rng = np.random.default_rng(5)
        actions = rng.normal(scale=2.0 * bound, size=(500, 2))
        actions[:6] = [[0.0, -0.0], [bound, -bound], [-bound, bound], [np.nan, np.inf], [-np.inf, -0.0], [2e-300, -2e-300]]
        clipped = clip_actions(config, actions)
        want = np.clip(actions, -bound, bound)
        assert np.array_equal(clipped, want, equal_nan=True)
        assert np.array_equal(np.signbit(clipped), np.signbit(want))

    def test_nonfinite_action_rejected(self, config):
        for bad in (np.array([np.nan, 0.0]), np.array([0.0, np.inf])):
            with pytest.raises(InputError):
                step_one(config, free_space_state(), bad)

    @pytest.mark.parametrize("column,value", [(2, np.inf), (4, np.nan), (0, 1e308)])
    def test_diverged_state_raises_input_error(self, config, column, value):
        # a valid config keeps the step stable, so a hand-built row is what diverges
        state = free_space_state()
        state[0, column] = value
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(InputError, match="diverged"):
            step_one(config, state, np.zeros(2))

    def test_reward_is_negative_cost(self, config):
        state = free_space_state(x=0.001)
        action = np.array([0.5, -0.5])
        _, reward, _ = step_one(config, state, action)
        stage_cost = config.action_cost_weight * np.linalg.norm(action) + np.linalg.norm(state[0, 0:2] - config.target)
        assert reward == -stage_cost
        assert reward <= 0.0

    def test_force_is_read_from_the_state(self, config):
        # a state row carrying a force steps as if that force were part of the action
        carried = free_space_state(y=0.015)
        carried[0, 4:6] = [1.5, -0.25]
        next_carried, _, _ = step_one(config, carried, np.array([0.5, 0.5]))
        next_plain, _, _ = step_one(config, free_space_state(y=0.015), np.array([2.0, 0.25]))
        assert np.array_equal(next_carried, next_plain)

    def test_trajectory_deterministic(self, config):
        actions = np.random.default_rng(0).uniform(-1, 1, size=(30, 2))

        def run():
            states = env_reset(config, 9, 3)
            trace = []
            for a in actions:
                states, _, _ = env_step(config, states, np.tile(a, (3, 1)))
                trace.append(states)
            return np.array(trace)

        assert np.array_equal(run(), run())


def rewards_at_rest(config, positions, actions):
    """``env_step``'s rewards for rows at rest at ``positions`` carrying zero force: minus their stage costs."""
    states = np.zeros((len(positions), 6))
    states[:, 0:2] = positions
    return env_step(config, states, np.asarray(actions, dtype=float))[1]


class TestCost:
    def test_zero_at_target_with_zero_action(self, config):
        assert rewards_at_rest(config, [config.target], np.zeros((1, 2))) == 0.0

    def test_unit_distance(self, config):
        assert rewards_at_rest(config, [config.target + [0.0, 1.0]], np.zeros((1, 2))) == pytest.approx(-1.0)

    def test_action_norm_weighting(self, config):
        rows = np.array([config.target, config.target])
        assert rewards_at_rest(config, rows, [[3.0, 4.0], [0.0, 0.0]]) == pytest.approx([-5e-4, 0.0])


class TestSuccess:
    def test_true_at_target(self, config):
        assert successes(config.target, config)

    def test_false_above_plane(self, config):
        assert not successes(np.array([0.0, 0.001]), config)

    def test_true_within_tolerance_inside_hole(self, config):
        assert successes(config.target + np.array([0.0, 0.04 * config.hole_depth]), config)

    def test_false_when_laterally_outside(self):
        cfg = InsertionEnvConfig(success_tolerance=0.05)
        assert not successes(cfg.target + np.array([0.004, 0.001]), cfg)

    @pytest.mark.parametrize("cfg,base,step,clause", [
        # distance to the target, with the slot wide enough not to decide
        (InsertionEnvConfig(hole_half_width=0.0145), (0.0, -0.02), (0.0, 0.001), "tolerance"),
        # lateral offset: clearance plus the static penetration the contact admits
        (InsertionEnvConfig(hole_center_offset=-0.002, success_tolerance=0.05), (-0.002, -0.01), (0.001, 0.0), "lateral"),
        # the table surface, with the target just above it
        (InsertionEnvConfig(target_point=(0.0, 0.0005), success_tolerance=0.002), (0.0, 0.0), (0.0, 1.0), "surface"),
    ])
    def test_each_clause_at_its_boundary(self, cfg, base, step, clause):
        """Rows just inside and just outside one clause's edge, ``step`` pointing out; the other clauses hold."""
        edge = {"tolerance": cfg.tolerance, "lateral": cfg.clearance + cfg.action_bound / cfg.wall_stiffness,
                "surface": 0.0}[clause]
        base, step = np.array(base), np.array(step) / np.linalg.norm(step)
        rows = np.array([base + (edge + d) * step for d in (-1e-7, 1e-7)])
        assert successes(rows, cfg).tolist() == [True, False]
        assert [bool(successes(r, cfg)) for r in rows] == [True, False]


class TestRollout:
    def test_full_horizon_when_not_stopping(self, config):
        for n in (1, 3):
            roll = rollout(config, lambda t, s, z: np.tile([100.0, -100.0], (len(s), 1)), 1, n)
            assert roll.steps == n * config.horizon
            assert roll.states.shape == (n, config.horizon + 1, 6)
            assert roll.rewards.shape == roll.dones.shape == (n, config.horizon)
            assert roll.successes.shape == (n,)
            assert roll.dones[:, -1].all()
            # the stored actions are the executed ones, clipped to the bound
            bound = config.action_bound
            assert np.array_equal(roll.actions, np.tile([bound, -bound], (n, config.horizon, 1)))

    def test_success_matches_per_state_oracle(self, config):
        def controller(gain, leave_after):
            # drive toward the slot floor, then pull out at full force
            def act(t, s, z):
                if t >= leave_after:
                    return np.tile([0.0, config.action_bound], (len(s), 1))
                return gain * (config.target - s[:, :2]) - 0.5 * np.sqrt(gain) * s[:, 2:4]
            return act

        outcomes = set()
        for gain, leave_after in [(0.0, 100), (50.0, 100), (50.0, 40), (200.0, 100), (200.0, 40)]:
            for seed in range(3):
                roll = rollout(config, controller(gain, leave_after), seed, 2)
                assert roll.steps == 2 * config.horizon
                for states, dones, success in zip(roll.states, roll.dones, roll.successes):
                    oracle = bool(successes(states[1:, 0:2], config).any())
                    assert success == oracle
                    assert dones[:-1].tolist() == successes(states[1:-1, 0:2], config).tolist()
                    outcomes.add((oracle, bool(successes(states[-1, 0:2], config))))
        # inserted and still in; inserted, then pulled out before the horizon; never inserted
        assert {(True, True), (True, False), (False, False)} <= outcomes


class TestConfigFile:
    def test_load_roundtrip(self, tmp_path):
        path = tmp_path / "env.cfg"
        path.write_text(
            "# insertion geometry (SI units)\n"
            "hole_half_width = 0.0065\n"
            "horizon = 80\n"
        )
        cfg = load_env_config(path)
        assert cfg.hole_half_width == 0.0065
        assert cfg.horizon == 80

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "env.cfg"
        path.write_text("gravity = 9.81\n")
        with pytest.raises(InputError):
            load_env_config(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "env.cfg"
        path.write_text("hole_half_width = wide\n")
        with pytest.raises(InputError):
            load_env_config(path)

    def test_target_point_is_a_pair(self, tmp_path):
        path = tmp_path / "env.cfg"
        path.write_text("target_point = 0.001, -0.015\n")
        assert load_env_config(path).target_point == (0.001, -0.015)

    @pytest.mark.parametrize("value", ["0.1", "0.1, 0.2, 0.3", "0.1, deep", ""])
    def test_malformed_target_point_rejected(self, tmp_path, value):
        path = tmp_path / "env.cfg"
        path.write_text(f"target_point = {value}\n")
        with pytest.raises(InputError, match="target_point"):
            load_env_config(path)
