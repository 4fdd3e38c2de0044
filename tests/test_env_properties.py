"""Property tests for the environment: the row step, the reset, and the contact model."""
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from guided_ddpg.envs import (  # noqa: E402
    InsertionEnvConfig,
    contact_forces,
    env_reset,
    env_step,
)

CONFIGS = [
    InsertionEnvConfig(),
    InsertionEnvConfig(hole_center_offset=-0.002, hole_half_width=0.006),
    InsertionEnvConfig(hole_center_offset=0.0015, hole_half_width=0.009, success_tolerance=0.006),
    # A target at the table surface: the success test's "below the surface" clause decides.
    InsertionEnvConfig(target_point=(0.0, 0.0005), success_tolerance=0.002),
]

# Positions in and around the slot, reaching into the floor and the workspace
# walls and ceiling; velocities of either sign, fast enough for damping to matter.
coords = st.tuples(
    st.floats(-0.025, 0.025), st.floats(-0.03, 0.025),
    st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
)
# Actions beyond the bound too, so the clip is exercised.
actions = st.tuples(st.floats(-12.0, 12.0), st.floats(-12.0, 12.0))


@st.composite
def near_target(draw, config: InsertionEnvConfig):
    """A slow peg close to the slot floor, where a step may cross the success boundary."""
    tx, ty = config.target
    reach = 1.5 * config.tolerance
    return (tx + draw(st.floats(-reach, reach)), ty + draw(st.floats(-reach, reach)),
            draw(st.floats(-0.1, 0.1)), draw(st.floats(-0.1, 0.1)))


@st.composite
def configs_and_rows(draw):
    config = draw(st.sampled_from(CONFIGS))
    state = st.one_of(coords, near_target(config))
    return config, draw(st.lists(st.tuples(state, actions), min_size=1, max_size=8))


def rows_of(states) -> np.ndarray:
    return np.array([[x, y, vx, vy, 0.0, 0.0] for x, y, vx, vy in states]).reshape(-1, 6)


@settings(max_examples=200, deadline=None)
@given(case=configs_and_rows())
def test_batched_step_matches_scalar_steps(case):
    """``N`` rows stepped at once equal, bitwise, each row stepped alone."""
    config, rows = case
    states = rows_of([s for s, _ in rows])
    acts = np.array([a for _, a in rows])
    states[:, 4:6] = contact_forces(config, states[:, 0:2], states[:, 2:4])
    next_states, rewards, successes = env_step(config, states, acts)
    for i in range(len(states)):
        alone = env_step(config, states[i:i + 1], acts[i:i + 1])
        assert np.array_equal(next_states[i], alone[0][0])
        assert rewards[i] == alone[1][0]
        assert successes[i] == alone[2][0]


@settings(max_examples=50, deadline=None)
@given(config=st.sampled_from(CONFIGS), n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_batched_reset_matches_successive_scalar_draws(config, n, seed):
    """``n`` rows at once equal ``n`` successive one-row resets on one generator."""
    rng = np.random.default_rng(seed)
    r = config.reset_range
    offsets = [rng.uniform(-r, r) for _ in range(n)]
    want = np.array([[x, config.start_height, 0.0, 0.0, 0.0, 0.0] for x in offsets])
    assert np.array_equal(env_reset(config, seed, n), want)
    rng = np.random.default_rng(seed)
    assert np.array_equal(np.concatenate([env_reset(config, rng, 1) for _ in range(n)]), want)


@settings(max_examples=100, deadline=None)
@given(config=st.sampled_from(CONFIGS), seed=st.integers(0, 2**32 - 1), starts=st.lists(coords, max_size=3),
       pushes=st.lists(st.lists(actions, min_size=6, max_size=6), min_size=1, max_size=40))
def test_rows_carry_their_contact_force(config, seed, starts, pushes):
    """After :func:`env_reset` and after every :func:`env_step`, columns 4:6 of
    each row equal :func:`contact_forces` of that row's position and velocity."""
    states = env_reset(config, seed, 3)
    assert np.array_equal(states[:, 4:6], contact_forces(config, states[:, 0:2], states[:, 2:4]))
    # hand-built rows that satisfy the invariant, some of them in contact
    built = rows_of(starts)
    built[:, 4:6] = contact_forces(config, built[:, 0:2], built[:, 2:4])
    states = np.concatenate([states, built])
    for push in pushes:
        states, _, _ = env_step(config, states, np.array(push[:len(states)]))
        assert np.array_equal(states[:, 4:6], contact_forces(config, states[:, 0:2], states[:, 2:4]))


def overlaps(config: InsertionEnvConfig, x: float, y: float) -> dict:
    """Which bodies the peg (bottom-center at x, y) penetrates."""
    c, wp, wh = config.hole_center_offset, config.peg_half_width, config.hole_half_width
    half = config.workspace_half_width
    return {
        "left_block": y < 0.0 and x - wp < c - wh,
        "right_block": y < 0.0 and x + wp > c + wh,
        "floor": y < -config.hole_depth,
        "left_wall": x - wp < -half,
        "right_wall": x + wp > half,
        "ceiling": y > config.workspace_height,
    }


@settings(max_examples=300, deadline=None)
@given(config=st.sampled_from(CONFIGS), state=coords)
def test_contact_is_never_adhesive(config, state):
    """Each body pushes the peg out of itself, never pulls: a force component
    points toward a body only if another body on the far side is penetrated."""
    x, y, vx, vy = state
    ((fx, fy),) = contact_forces(config, np.array([[x, y]]), np.array([[vx, vy]]))
    hit = overlaps(config, x, y)
    if not (hit["right_block"] or hit["right_wall"]):
        assert fx >= 0.0  # only the right bodies push toward -x
    if not (hit["left_block"] or hit["left_wall"]):
        assert fx <= 0.0  # only the left bodies push toward +x
    if not hit["ceiling"]:
        assert fy >= 0.0  # only the ceiling pushes down
    if not (hit["left_block"] or hit["right_block"] or hit["floor"]):
        assert fy <= 0.0  # only the table pushes up
    if not any(hit.values()):
        assert fx == 0.0 and fy == 0.0
