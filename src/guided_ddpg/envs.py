"""Deterministic 2D insertion simulator with stiff penalty contact.

A point-mass peg (tracked at its bottom-center) must descend into a slot cut
into a rigid table. Contact with the table, the slot walls, and the slot
floor is modeled with a stiff spring-damper penalty, so the local dynamics
change sharply between free flight, edge contact, and in-hole sliding. The
observation is the full state: position, velocity, and the contact force
currently acting on the peg.

Geometry (world frame, SI units): the table surface is the plane y = 0; the
slot spans ``|x - hole_center_offset| <= hole_half_width`` down to
``y = -hole_depth``. The peg starts above the surface, and its controller
never observes ``hole_center_offset``. A penalty-walled workspace box
(side walls and ceiling) bounds excursions, as a fixtured robot cell would.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .exceptions import ConfigurationError, InputError

Array = np.ndarray

STATE_DIM = 6
ACTION_DIM = 2


@dataclass(frozen=True)
class InsertionEnvConfig:
    """Geometry, contact, and episode parameters. Units are SI throughout."""

    peg_half_width: float = 0.005
    hole_half_width: float = 0.0055
    hole_depth: float = 0.02
    hole_center_offset: float = 0.0
    wall_stiffness: float = 1.0e4
    wall_damping: float = 100.0
    mass: float = 2.0
    dt: float = 0.01
    horizon: int = 100
    action_bound: float = 5.0
    start_height: float = 0.005
    reset_range: float = 0.003
    action_cost_weight: float = 1e-4
    workspace_half_width: float = 0.02
    workspace_height: float = 0.02
    success_tolerance: float | None = None
    target_point: tuple[float, float] | None = None

    def __post_init__(self):
        if self.peg_half_width <= 0.0 or self.hole_half_width < self.peg_half_width:
            raise ConfigurationError("peg_half_width > 0 and hole_half_width >= peg_half_width required")
        if self.hole_depth <= 0.0 or self.start_height < 0.0:
            # either would reset the peg inside the table, under a force the reset state does not record
            raise ConfigurationError(
                f"hole_depth > 0 and start_height >= 0 required, got {self.hole_depth} and {self.start_height}"
            )
        if self.dt <= 0.0 or self.horizon < 1 or self.wall_stiffness <= 0.0 or self.wall_damping < 0.0:
            raise ConfigurationError("dt > 0, horizon >= 1, wall_stiffness > 0, wall_damping >= 0 required")
        if self.action_cost_weight < 0.0:
            raise ConfigurationError(f"action_cost_weight must be >= 0, got {self.action_cost_weight}")
        if self.mass <= 0.0 or self.action_bound <= 0.0:
            raise ConfigurationError("mass and action_bound must be positive")
        if self.workspace_half_width <= self.hole_half_width or self.workspace_height <= self.start_height:
            raise ConfigurationError("workspace box must contain the slot and the start pose")
        if not 0.0 <= self.reset_range <= self.workspace_half_width - self.peg_half_width:
            # a wider reset could start the peg inside a side wall, under a force the reset state does not record
            raise ConfigurationError(
                f"reset_range must be in [0, workspace_half_width - peg_half_width], got {self.reset_range}"
            )
        if self.success_tolerance is None:
            object.__setattr__(self, "success_tolerance", 0.05 * self.hole_depth)
        if self.success_tolerance <= 0.0:
            raise ConfigurationError(f"success_tolerance must be > 0, got {self.success_tolerance}")
        if self.target_point is None:
            object.__setattr__(self, "target_point", (self.hole_center_offset, -self.hole_depth))
        object.__setattr__(self, "target_point", (float(self.target_point[0]), float(self.target_point[1])))

    @property
    def clearance(self) -> float:
        return self.hole_half_width - self.peg_half_width

    @property
    def target(self) -> Array:
        return np.array(self.target_point)


@dataclass(frozen=True)
class EnvState:
    position: Array
    velocity: Array
    contact_force: Array

    def as_vector(self) -> Array:
        return np.concatenate([self.position, self.velocity, self.contact_force])

    @staticmethod
    def from_vector(vec: Array) -> "EnvState":
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (STATE_DIM,):
            raise InputError(f"state vector must have shape ({STATE_DIM},), got {vec.shape}")
        return EnvState(vec[0:2].copy(), vec[2:4].copy(), vec[4:6].copy())


@dataclass(frozen=True)
class Transition:
    state: Array
    action: Array
    next_state: Array
    reward: float
    done: bool


def contact_force(config: InsertionEnvConfig, position: Array, velocity: Array) -> Array:
    """Penalty contact force on the peg at the given configuration.

    The table body is the union of three axis-aligned blocks (left of the
    slot, right of the slot, below the slot floor). Each block that overlaps
    the peg pushes it out along the axis of least penetration with a
    spring-damper force, clamped at zero so contacts never pull.
    """
    x, y = float(position[0]), float(position[1])
    vx, vy = float(velocity[0]), float(velocity[1])
    c = config.hole_center_offset
    wp, wh = config.peg_half_width, config.hole_half_width
    k, cd = config.wall_stiffness, config.wall_damping

    fx = 0.0
    fy = 0.0
    if y < 0.0:
        depth_y = -y
        # Left block: x <= c - wh, y <= 0. Penetration from the right.
        pen = (c - wh) - (x - wp)
        if pen > 0.0:
            ax = min(pen, 2.0 * wp)
            if ax < depth_y:
                fx += max(0.0, k * ax - cd * vx)
            else:
                fy += max(0.0, k * depth_y - cd * vy)
        # Right block: x >= c + wh, y <= 0. Penetration from the left.
        pen = (x + wp) - (c + wh)
        if pen > 0.0:
            ax = min(pen, 2.0 * wp)
            if ax < depth_y:
                fx -= max(0.0, k * ax + cd * vx)
            else:
                fy += max(0.0, k * depth_y - cd * vy)
    # Bottom block: y <= -hole_depth, laterally unbounded.
    pen = -config.hole_depth - y
    if pen > 0.0:
        fy += max(0.0, k * pen - cd * vy)
    # Workspace box: side walls against the peg's sides, ceiling above.
    half = config.workspace_half_width
    pen = -half - (x - wp)
    if pen > 0.0:
        fx += max(0.0, k * pen - cd * vx)
    pen = (x + wp) - half
    if pen > 0.0:
        fx -= max(0.0, k * pen + cd * vx)
    pen = y - config.workspace_height
    if pen > 0.0:
        fy -= max(0.0, k * pen + cd * vy)
    return np.array([fx, fy])


def contact_forces(config: InsertionEnvConfig, positions: Array, velocities: Array) -> Array:
    """:func:`contact_force` of each row of ``(N, 2)`` positions and velocities, as ``(N, 2)``."""
    return np.array([contact_force(config, p, v) for p, v in zip(positions.tolist(), velocities.tolist())])


def env_reset(config: InsertionEnvConfig, seed) -> EnvState:
    """Place the peg above the slot with a uniform lateral perturbation.

    ``seed`` may be an integer (or sequence of integers) or an existing
    ``numpy.random.Generator``; a fixed seed reproduces the state exactly.
    """
    return EnvState.from_vector(env_reset_rows(config, seed, 1)[0])


def env_reset_rows(config: InsertionEnvConfig, seed, n: int) -> Array:
    """``n`` reset states as ``(n, 6)`` rows, with one lateral draw for all of them.

    ``Generator.uniform(size=n)`` yields the same values as ``n`` scalar
    draws, so the rows equal ``n`` successive :func:`env_reset` calls on one
    generator. No draw is made when ``reset_range`` is zero.
    """
    rng = np.random.default_rng(seed)
    states = np.zeros((n, STATE_DIM))
    if config.reset_range > 0.0:
        states[:, 0] = rng.uniform(-config.reset_range, config.reset_range, size=n)
    states[:, 1] = config.start_height
    return states


def _norms(rows: Array) -> Array:
    # vecdot runs the dot kernel np.linalg.norm uses on one vector, so each
    # entry equals the norm of that row alone, to the last bit.
    return np.sqrt(np.vecdot(rows, rows))


def costs(positions: Array, actions: Array, config: InsertionEnvConfig) -> Array:
    """Stage cost of each ``(..., 2)`` position and action: a small
    action-magnitude penalty plus the distance to the slot floor."""
    return config.action_cost_weight * _norms(actions) + _norms(positions - config.target)


def cost(state_vec: Array, action: Array, config: InsertionEnvConfig) -> float:
    """:func:`costs` of one state vector and action."""
    state_vec = np.asarray(state_vec, dtype=np.float64)
    action = np.asarray(action, dtype=np.float64)
    return float(costs(state_vec[0:2], action, config))


def successes(positions: Array, config: InsertionEnvConfig) -> Array:
    """Inserted, for each ``(..., 2)`` position: near the slot floor, below
    the surface, and laterally inside the slot."""
    # Allow for the static penetration the penalty contact admits.
    allow = config.action_bound / config.wall_stiffness
    return (
        (positions[..., 1] < 0.0)
        & (_norms(positions - config.target) < config.success_tolerance)
        & (np.abs(positions[..., 0] - config.hole_center_offset) <= config.clearance + allow)
    )


def success(state: EnvState, config: InsertionEnvConfig) -> bool:
    """:func:`successes` of one state."""
    return bool(successes(state.position, config))


def env_step(config: InsertionEnvConfig, state: EnvState, action: Array) -> Transition:
    """Advance one step with semi-implicit Euler integration.

    The action is clipped to the bound; the stored transition carries the
    clipped (executed) action. ``done`` reflects task success only — horizon
    truncation is the rollout loop's responsibility.
    """
    action = np.asarray(action, dtype=np.float64)
    if action.shape != (ACTION_DIM,) or not np.all(np.isfinite(action)):
        raise InputError(f"action must be a finite 2-vector, got {action!r}")
    a = np.clip(action, -config.action_bound, config.action_bound)

    f_contact = contact_force(config, state.position, state.velocity)
    accel = (a + f_contact) / config.mass
    new_velocity = state.velocity + config.dt * accel
    new_position = state.position + config.dt * new_velocity
    next_state = EnvState(new_position, new_velocity, contact_force(config, new_position, new_velocity))
    if not np.all(np.isfinite(next_state.as_vector())):
        raise InputError("environment state diverged to non-finite values")

    reward = -cost(state.as_vector(), a, config)
    return Transition(state.as_vector(), a, next_state.as_vector(), reward, success(next_state, config))


def env_step_rows(
    config: InsertionEnvConfig, states: Array, actions: Array, forces: Array
) -> tuple[Array, Array, Array]:
    """:func:`env_step` for ``N`` rows at once: ``(next_states, rewards, successes)``.

    ``states`` is ``(N, 6)`` and ``actions`` is ``(N, 2)``. ``forces`` is the
    ``(N, 2)`` contact force acting at the start of the step, that is
    :func:`contact_forces` of the rows' positions and velocities; after a
    step it equals the last two columns of ``next_states``, so a caller
    stepping on carries it instead of recomputing it. The arithmetic is the
    scalar step's, elementwise, the contact model is :func:`contact_force`
    row by row, and rewards and successes come from :func:`costs` and
    :func:`successes`, which :func:`cost` and :func:`success` call on one
    row, so all three outputs are bitwise those of ``N`` scalar steps. The
    same checks raise :class:`InputError`: a non-finite action or a diverged
    state.
    """
    actions = np.asarray(actions, dtype=np.float64)
    if actions.shape != (len(states), ACTION_DIM) or not np.all(np.isfinite(actions)):
        raise InputError(f"actions must be finite ({len(states)}, {ACTION_DIM}) rows, got {actions!r}")
    a = np.clip(actions, -config.action_bound, config.action_bound)

    position, velocity = states[:, 0:2], states[:, 2:4]
    accel = (a + forces) / config.mass
    new_velocity = velocity + config.dt * accel
    new_position = position + config.dt * new_velocity
    next_states = np.concatenate(
        [new_position, new_velocity, contact_forces(config, new_position, new_velocity)], axis=1
    )
    if not np.all(np.isfinite(next_states)):
        raise InputError("environment state diverged to non-finite values")

    return next_states, -costs(position, a, config), successes(new_position, config)


@dataclass
class Rollout:
    """One episode: ``states`` has one more row than ``actions``/``rewards``."""

    states: Array
    actions: Array
    rewards: Array
    dones: Array
    success: bool
    steps: int

    @property
    def episode_return(self) -> float:
        return float(self.rewards.sum())


def rollout(config: InsertionEnvConfig, controller, rng, stop_on_success: bool = True) -> Rollout:
    """Run one episode under ``controller(t, state_vec) -> action``.

    With ``stop_on_success=False`` the episode always runs the full horizon
    (used when fixed-length trajectories are required); the ``dones`` flags
    still mark success states and the final step.
    """
    state = env_reset(config, rng)
    states = [state.as_vector()]
    actions, rewards, dones = [], [], []
    succeeded = False
    for t in range(config.horizon):
        tr = env_step(config, state, controller(t, state.as_vector()))
        succeeded = succeeded or tr.done
        done = bool(tr.done) or t == config.horizon - 1
        actions.append(tr.action)
        rewards.append(tr.reward)
        dones.append(done)
        states.append(tr.next_state)
        state = EnvState.from_vector(tr.next_state)
        if done and stop_on_success:
            break
    return Rollout(
        states=np.asarray(states),
        actions=np.asarray(actions),
        rewards=np.asarray(rewards),
        dones=np.asarray(dones, dtype=bool),
        success=bool(succeeded),
        steps=len(actions),
    )
