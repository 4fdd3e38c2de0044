"""Deterministic 2D insertion simulator with stiff penalty contact.

A point-mass peg (tracked at its bottom-center) must descend into a slot cut
into a rigid table. Contact with the table, the slot walls, and the slot
floor is modeled with a stiff spring-damper penalty, so the local dynamics
change sharply between free flight, edge contact, and in-hole sliding. That
penalty model lives in :func:`contact_forces` alone, one Python-float loop
over rows; :func:`env_reset` and :func:`env_step` both call it. The
observation is the full state, one ``(6,)`` row: position (columns 0:2),
velocity (2:4) and the contact force acting on the peg (4:6).

State-row invariant: columns 4:6 of a state hold :func:`contact_forces` of
that row's position and velocity. :func:`env_step` reads the force acting at
the start of a step from those columns instead of recomputing it, so a
hand-built state must carry its force there; :func:`env_reset` and
:func:`env_step` produce only rows that do.

Sampling: :func:`rollout` runs ``n`` noisy full-horizon episodes in lockstep,
one :func:`env_step` on ``(n, 6)`` rows per time step, and returns them as
one :class:`Rollout` batch whose ``.steps`` counts all ``n * T`` steps. It
draws, episode by episode, the reset and then that episode's ``(T, 2)``
standard-normal noise, so a batch of ``n`` draws what ``n`` one-episode
batches in a row would.

Geometry (world frame, SI units): the table surface is the plane y = 0; the
slot spans ``|x - hole_center_offset| <= hole_half_width`` down to
``y = -hole_depth``. The peg starts above the surface, and its controller
never observes ``hole_center_offset``. A penalty-walled workspace box
(side walls and ceiling) bounds excursions, as a fixtured robot cell would.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .exceptions import InputError

Array = np.ndarray

STATE_DIM = 6
ACTION_DIM = 2


@dataclass(frozen=True)
class InsertionEnvConfig:
    """The settings a caller varies, and the simulator's physics as class constants. Units are SI.

    The fields are the horizon, the slot's half-width and offset (the
    paper's adaptability tests) and the success test: ``success_tolerance``
    and ``target_point`` are overrides, ``None`` when unset; ``tolerance``
    (by default 5 % of ``hole_depth``) and ``target`` (by default the slot
    floor's center, a read-only ``(2,)`` array) resolve them. The constants'
    values keep the wall's semi-implicit Euler step stable (Jury's test,
    ``dt**2 * wall_stiffness / mass + 2 * dt * wall_damping / mass < 4``),
    the start pose below the ceiling and every reset clear of the walls.
    """

    peg_half_width: ClassVar[float] = 0.005
    hole_depth: ClassVar[float] = 0.02
    wall_stiffness: ClassVar[float] = 1.0e4
    wall_damping: ClassVar[float] = 100.0
    mass: ClassVar[float] = 2.0
    dt: ClassVar[float] = 0.01
    action_bound: ClassVar[float] = 5.0
    start_height: ClassVar[float] = 0.005
    reset_range: ClassVar[float] = 0.003
    action_cost_weight: ClassVar[float] = 1e-4
    workspace_half_width: ClassVar[float] = 0.02
    workspace_height: ClassVar[float] = 0.02

    hole_half_width: float = 0.0055
    hole_center_offset: float = 0.0
    horizon: int = 100
    success_tolerance: float | None = None
    target_point: tuple[float, float] | None = None
    tolerance: float = field(init=False, repr=False, compare=False)
    target: Array = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.hole_half_width < self.peg_half_width or self.horizon < 1:
            raise InputError(f"hole_half_width >= peg_half_width and horizon >= 1 required, got"
                             f" {self.hole_half_width} and {self.horizon}")
        slot_edge = abs(self.hole_center_offset) + self.hole_half_width
        if not slot_edge < self.workspace_half_width:
            raise InputError("workspace box must contain the slot: |hole_center_offset| + hole_half_width"
                             f" = {slot_edge:.6g} must be < workspace_half_width")
        tolerance = 0.05 * self.hole_depth if self.success_tolerance is None else self.success_tolerance
        if not tolerance > 0.0:  # NaN too: no row would ever succeed
            raise InputError(f"success_tolerance must be > 0, got {tolerance}")
        point = (self.hole_center_offset, -self.hole_depth) if self.target_point is None else self.target_point
        # The stage cost is the distance d to the target, and the learner's gradients grow as d times
        # factors no setting bounds exactly: the critic's targets reach 1 / (1 - 0.99) = 100 stage costs,
        # and each layer multiplies by its weights. Adam squares each gradient in float32, whose largest
        # value F is about 3.4e38. Requiring d**4 < F (d below about 4.3e9 m from the farthest start pose)
        # leaves those factors room up to d itself; a tiny-spec run overflowed at d = 5e18 m, not at 1e17 m.
        lateral = abs(float(point[0])) + self.reset_range
        vertical = self.start_height - float(point[1])
        squared = lateral * lateral + vertical * vertical
        if not squared * squared < float(np.finfo(np.float32).max):
            raise InputError(f"the target is too far from the start pose: {lateral:.6g} m across and"
                             f" {vertical:.6g} m down, a distance whose fourth power overflows float32")
        target = np.array([float(point[0]), float(point[1])])
        target.flags.writeable = False
        object.__setattr__(self, "tolerance", tolerance)
        object.__setattr__(self, "target", target)

    @property
    def clearance(self) -> float:
        return self.hole_half_width - self.peg_half_width


@dataclass(frozen=True)
class Transition:
    state: Array
    action: Array
    next_state: Array
    reward: float
    done: bool


def contact_forces(config: InsertionEnvConfig, positions: Array, velocities: Array) -> Array:
    """Penalty contact force on the peg for each row of ``(N, 2)`` positions
    and velocities, as ``(N, 2)`` rows.

    This is the simulator's one contact model; a single configuration is a
    one-row call. The table body is the union of three axis-aligned blocks
    (left of the slot, right of the slot, below the slot floor). Each block
    that overlaps the peg pushes it out along the axis of least penetration
    with a spring-damper force, clamped at zero so contacts never pull. The
    workspace box walls push the same way.

    The config is read once per call; each row's force is then computed from
    that row alone in Python floats, so it does not depend on the other rows.
    It stays a loop because training steps one row at a time, where a
    vectorized form of the same model is more than ten times slower.
    """
    c = config.hole_center_offset
    wp, wh = config.peg_half_width, config.hole_half_width
    k, cd = config.wall_stiffness, config.wall_damping
    left_edge, right_edge, peg_width = c - wh, c + wh, 2.0 * wp
    depth, half, height = config.hole_depth, config.workspace_half_width, config.workspace_height

    forces = []  # fx, fy of each row in turn; one flat list converts about 3x faster than a list of pairs
    for (x, y), (vx, vy) in zip(positions.tolist(), velocities.tolist()):
        fx = 0.0
        fy = 0.0
        if y < 0.0:
            depth_y = -y
            # Left block: x <= c - wh, y <= 0. Penetration from the right.
            pen = left_edge - (x - wp)
            if pen > 0.0:
                ax = min(pen, peg_width)
                if ax < depth_y:
                    fx += max(0.0, k * ax - cd * vx)
                else:
                    fy += max(0.0, k * depth_y - cd * vy)
            # Right block: x >= c + wh, y <= 0. Penetration from the left.
            pen = (x + wp) - right_edge
            if pen > 0.0:
                ax = min(pen, peg_width)
                if ax < depth_y:
                    fx -= max(0.0, k * ax + cd * vx)
                else:
                    fy += max(0.0, k * depth_y - cd * vy)
        # Bottom block: y <= -hole_depth, laterally unbounded.
        pen = -depth - y
        if pen > 0.0:
            fy += max(0.0, k * pen - cd * vy)
        # Workspace box: side walls against the peg's sides, ceiling above.
        pen = -half - (x - wp)
        if pen > 0.0:
            fx += max(0.0, k * pen - cd * vx)
        pen = (x + wp) - half
        if pen > 0.0:
            fx -= max(0.0, k * pen + cd * vx)
        pen = y - height
        if pen > 0.0:
            fy -= max(0.0, k * pen + cd * vy)
        forces += (fx, fy)
    return np.array(forces).reshape(-1, 2)  # (0, 2) for no rows, not (0,)


def env_reset(config: InsertionEnvConfig, seed, n: int) -> Array:
    """``n`` reset states as ``(n, 6)`` rows: the peg above the slot, at rest,
    with a uniform lateral perturbation.

    ``seed`` may be an integer (or sequence of integers) or an existing
    ``numpy.random.Generator``; a fixed seed reproduces the rows exactly.
    ``Generator.uniform(size=n)`` yields the same values as ``n`` one-row
    draws, so the rows equal ``n`` successive one-row resets on one
    generator. Columns 4:6 are :func:`contact_forces` of the reset pose, which
    is zero for every reset.
    """
    rng = np.random.default_rng(seed)
    states = np.zeros((n, STATE_DIM))
    states[:, 0] = rng.uniform(-config.reset_range, config.reset_range, size=n)
    states[:, 1] = config.start_height
    states[:, 4:6] = contact_forces(config, states[:, 0:2], states[:, 2:4])
    return states


def initial_state_distribution(config: InsertionEnvConfig) -> tuple[Array, Array]:
    """Exact mean and covariance of an :func:`env_reset` row; only the lateral offset varies."""
    mean = np.zeros(STATE_DIM)
    mean[1] = config.start_height
    cov = np.zeros((STATE_DIM, STATE_DIM))
    cov[0, 0] = config.reset_range**2 / 3.0
    return mean, cov


def _norms(rows: Array) -> Array:
    # vecdot runs the dot kernel np.linalg.norm uses on one vector, so each
    # entry equals the norm of that row alone, to the last bit.
    return np.sqrt(np.vecdot(rows, rows))


def successes(positions: Array, config: InsertionEnvConfig) -> Array:
    """Inserted, for each ``(..., 2)`` position: near the slot floor, below
    the surface, and laterally inside the slot."""
    # Allow for the static penetration the penalty contact admits.
    allow = config.action_bound / config.wall_stiffness
    return (
        (positions[..., 1] < 0.0)
        & (_norms(positions - config.target) < config.tolerance)
        & (np.abs(positions[..., 0] - config.hole_center_offset) <= config.clearance + allow)
    )


def clip_actions(config: InsertionEnvConfig, actions: Array) -> Array:
    """``actions`` clipped elementwise to ``[-action_bound, action_bound]``.

    The bits of ``np.clip(actions, -b, b)`` without its Python wrapper: the
    bound is a positive constant, so it is no zero whose sign a tie could
    pick, and a NaN passes through both forms.
    """
    bound = config.action_bound
    return np.minimum(np.maximum(actions, -bound), bound)


def env_step(config: InsertionEnvConfig, states: Array, actions: Array) -> tuple[Array, Array, Array]:
    """Advance ``N`` rows one step with semi-implicit Euler integration.

    ``states`` is ``(N, 6)`` and ``actions`` is ``(N, 2)``; the result is
    ``(next_states, rewards, successes)``, each with one entry per row. The
    force acting at the start of the step is read from the state's own
    columns 4:6, so a hand-built state must carry :func:`contact_forces` of
    its position and velocity there; :func:`env_reset` and this step keep
    that invariant. Actions are clipped to the bound; the reward is minus the
    stage cost ``w * |a| + |p - target|`` of the clipped action ``a`` and the
    start position ``p``, ``w`` being ``action_cost_weight``. A success
    comes from :func:`successes` of the new position; horizon truncation is
    the caller's. Every operation is elementwise over rows, so a row stepped
    with others equals that row stepped alone, bitwise. A non-finite action
    or a diverged state raises :class:`InputError`.
    """
    states = np.asarray(states, dtype=np.float64)
    actions = np.asarray(actions, dtype=np.float64)
    if not np.isfinite(actions).all():
        raise InputError(f"actions must be finite, got {actions!r}")
    a = clip_actions(config, actions)

    position, velocity, force = states[:, 0:2], states[:, 2:4], states[:, 4:6]
    new_velocity = velocity + config.dt * ((a + force) / config.mass)
    new_position = position + config.dt * new_velocity
    next_states = np.concatenate(
        [new_position, new_velocity, contact_forces(config, new_position, new_velocity)], axis=1
    )
    if not np.isfinite(next_states).all():
        raise InputError("environment state diverged to non-finite values")

    # Each row's |a|, then its distance d, in one norm pass; (-w) * |a| - d is -(w * |a| + d) to the bit.
    norms = _norms(np.concatenate([a, position - config.target]))
    n = len(a)
    return next_states, (-config.action_cost_weight) * norms[:n] - norms[n:], successes(new_position, config)


@dataclass
class Rollout:
    """``n`` episodes of ``T`` steps, sampled together by :func:`rollout`.

    Row ``i`` of each array is episode ``i``: ``states`` is ``(n, T+1, 6)``,
    ``actions`` ``(n, T, 2)``, ``rewards`` and ``dones`` ``(n, T)``, and
    ``successes`` ``(n,)``, whether the episode reached a success state.
    """

    states: Array
    actions: Array
    rewards: Array
    dones: Array
    successes: Array

    @property
    def steps(self) -> int:
        """Every environment step the batch ran, ``n * T``: each episode runs the full horizon."""
        return self.rewards.size


def rollout(config: InsertionEnvConfig, controller, rng, n: int) -> Rollout:
    """Run ``n`` episodes of exactly ``config.horizon`` steps in lockstep under
    ``controller(t, states, noise) -> actions``.

    Draw order: episode by episode, the reset (:func:`env_reset` of one row)
    and then the episode's noise, one ``standard_normal((T, 2))``. So the
    episodes and the generator's final state are those of ``n`` one-episode
    calls in a row. At step ``t`` the controller gets the ``(n, 6)`` states and
    the ``(n, 2)`` noise rows of that step, and returns ``(n, 2)`` actions; one
    :func:`env_step` then advances every row, as it would advance each alone.
    ``actions`` holds the clipped (executed) actions. Episodes never stop
    early, so ``.steps`` counts ``n * T`` steps; ``dones`` marks success
    states and each episode's final step. ``rng`` is a generator or a seed.
    """
    rng = np.random.default_rng(rng)
    horizon = config.horizon
    row = np.empty((n, STATE_DIM))
    noise = np.empty((horizon, n, ACTION_DIM))  # noise[t] is step t's rows, contiguous
    for i in range(n):
        row[i] = env_reset(config, rng, 1)[0]
        noise[:, i] = rng.standard_normal((horizon, ACTION_DIM))
    states = np.empty((n, horizon + 1, STATE_DIM))
    actions = np.empty((n, horizon, ACTION_DIM))
    rewards = np.empty((n, horizon))
    dones = np.empty((n, horizon), dtype=bool)
    states[:, 0] = row
    for t in range(horizon):
        action = clip_actions(config, np.asarray(controller(t, row, noise[t]), dtype=np.float64))
        row, rewards[:, t], dones[:, t] = env_step(config, row, action)
        actions[:, t] = action
        states[:, t + 1] = row
    successes = dones.any(axis=1)
    dones[:, -1] = True
    return Rollout(states, actions, rewards, dones, successes)
