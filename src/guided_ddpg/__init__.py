"""Trajectory-optimization-guided DDPG for stiff 2D insertion tasks."""

from .ddpg import AgentNets, DdpgHyper, OrnsteinUhlenbeckNoise, supervision_weight
from .envs import InsertionEnvConfig, Transition, env_reset, env_step
from .guided import TrainConfig, TrainingLog, evaluate_policy, train
from .harness import ExperimentSpec, parse_spec, run_experiment
from .nets import MlpParams, mlp_backward, mlp_forward, mlp_init, soft_update
from .replay import ReplayBuffer, SupervisionSample
from .trajopt import (
    DualState,
    LinearDynamics,
    LinearGaussianPolicy,
    SupervisorConfig,
    cost_to_go,
    fit_dynamics,
    kl_divergence,
    linearize_policy,
    lqg_backward,
    lqg_forward,
    update_epsilon,
    update_eta,
    update_trajectory,
)

__version__ = "0.1.0"
