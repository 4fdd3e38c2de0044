"""Command-line entry point: train, eval, compare, sweep.

Exit codes: 0 success; 2 invalid input (InputError: a bad spec, config,
checkpoint or result file, a setting out of range, a size that does not
fit); 3 numerical failure (NumericalError); 1 anything else. Inputs are
validated before ``--out`` is made, so an invalid spec, checkpoint or result
file leaves no ``--out``; a ``train`` whose seed failed numerically exits 3
after writing the others. A ``train`` sent SIGTERM or SIGINT ends its workers
and exits 1.
"""
from __future__ import annotations

import argparse
import json
import signal
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .envs import InsertionEnvConfig
from .exceptions import InputError, NumericalError
from .guided import evaluate_policy
from .harness import (
    adaptability_sweep,
    compare_runs,
    load_agent_checkpoint,
    load_env_config,
    parse_spec,
    run_experiment,
)

EXIT_OK = 0
EXIT_OTHER = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


class Interrupted(Exception):
    """``train`` received SIGTERM or SIGINT."""


def _raise_interrupted(signum, frame):
    raise Interrupted(f"{signal.Signals(signum).name} received")


def _cmd_train(args) -> int:
    handled = (signal.SIGTERM, signal.SIGINT)
    previous = [signal.signal(signum, _raise_interrupted) for signum in handled]
    try:
        out = run_experiment(args.spec, args.out)
    finally:
        for signum, handler in zip(handled, previous):
            signal.signal(signum, handler)
    print(f"artifacts written to {out}")
    return EXIT_OK


@contextmanager
def _overflow_is_invalid_input():
    """Turn a float overflow during a checkpoint's evaluation into :class:`InputError`.

    A checkpoint's weights and biases can each be finite and still overflow
    the actor's matmuls; the saturated actions that follow would give a
    result that looks valid.
    """
    try:
        with np.errstate(over="raise"):
            yield
    except FloatingPointError as exc:
        raise InputError(f"evaluation overflowed ({exc}): the checkpoint's weights, "
                         "or the environment's settings, are too large") from exc


def _cmd_eval(args) -> int:
    actor, hyper = load_agent_checkpoint(args.checkpoint)
    env = load_env_config(args.env_config) if args.env_config else InsertionEnvConfig()
    with _overflow_is_invalid_input():
        metrics = evaluate_policy(actor, hyper, env, args.episodes, args.seed)
    print(json.dumps(vars(metrics), indent=2))
    return EXIT_OK


def _cmd_compare(args) -> int:
    out_path = Path(args.out) / "comparison.csv"
    figures = compare_runs(args.run_a, args.run_b, out_path)
    print(json.dumps({"comparison_csv": str(out_path),
                      "difference_ci": {name: figure["difference_ci"] for name, figure in figures.items()}}, indent=2))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    spec = parse_spec(args.spec)
    out_path = Path(args.out) / "sweep.csv"
    with _overflow_is_invalid_input():
        rows = adaptability_sweep(
            args.checkpoint, spec.train.env, spec.sweep_clearances, spec.sweep_hole_offsets,
            spec.eval_episodes, args.seed, out_path,
        )
    print(json.dumps({"sweep_csv": str(out_path), "cells": len(rows)}, indent=2))
    return EXIT_OK


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def _episodes(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"episodes must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="guided-ddpg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run a training experiment from a spec file")
    p_train.add_argument("--spec", required=True, help="path to the experiment spec")
    p_train.add_argument("--out", required=True, help="output artifact directory")
    p_train.set_defaults(func=_cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpointed policy")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--env-config", default=None,
                        help="environment config file, in the key = value format of guided_ddpg.harness.read_config")
    p_eval.add_argument("--episodes", type=_episodes, default=50)
    p_eval.add_argument("--seed", type=_seed, default=0)
    p_eval.set_defaults(func=_cmd_eval)

    p_cmp = sub.add_parser("compare", help="interval of the IQM difference of two runs' seeds, per figure")
    p_cmp.add_argument("--run-a", required=True)
    p_cmp.add_argument("--run-b", required=True)
    p_cmp.add_argument("--out", required=True)
    p_cmp.set_defaults(func=_cmd_compare)

    p_sweep = sub.add_parser("sweep", help="adaptability sweep of a checkpoint over clearances/offsets")
    p_sweep.add_argument("--checkpoint", required=True)
    p_sweep.add_argument("--spec", required=True, help="spec providing base env and sweep grids")
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--seed", type=_seed, default=0)
    p_sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OTHER
    except Interrupted as exc:
        print(f"interrupted: {exc}", file=sys.stderr)
        return EXIT_OTHER


if __name__ == "__main__":
    sys.exit(main())
