"""In-memory spans around the package's layer boundaries.

The package imports its collaborators with ``from .x import y``, so a caller
resolves each collaborator through its own module's globals at call time.
Replacing those importer-side attributes (and two class attributes) with
recording wrappers traces every layer boundary without editing the package.
The wrappers only time and count: arguments and results pass through
untouched, so a traced run computes exactly what an untraced one does.
"""
from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

ROOT_SPAN = "bench.repeat"


def _with_sup_suffix(base: str):
    """Split an update span by whether a supervision batch was passed."""

    def name(args, kwargs) -> str:
        sup_batch = kwargs["sup_batch"] if "sup_batch" in kwargs else args[3]
        return base if sup_batch is None else base + "_sup"

    return name


def _count_dual_search(tracer: "Tracer", result) -> None:
    tracer.count("trajopt.update_trajectory.dual_iters", result.iterations)
    tracer.count("trajopt.update_trajectory.converged", int(result.converged))


def wrap_targets() -> list:
    """``(owner, attribute, span name or namer, result hook)`` for each boundary."""
    from guided_ddpg import ddpg, envs, guided, replay, trajopt

    targets = [
        (guided, "ddpg_block", "guided.ddpg_block", None),
        (guided, "evaluate_policy", "guided.evaluate_policy", None),
        (guided, "run_supervisor", "trajopt.run_supervisor", None),
        (guided, "critic_update", _with_sup_suffix("ddpg.critic_update"), None),
        (guided, "actor_update", _with_sup_suffix("ddpg.actor_update"), None),
        (guided, "target_update", "ddpg.target_update", None),
        (guided, "policy_action", "ddpg.policy_action", None),
        (guided, "env_step", "envs.env_step", None),
        (envs, "env_step", "envs.env_step", None),
        (guided, "rollout", "envs.rollout", None),
        (trajopt, "rollout", "envs.rollout", None),
        (ddpg, "adam_step", "nets.adam_step", None),
        (ddpg, "soft_update", "nets.soft_update", None),
        (ddpg, "mlp_backward", "nets.mlp_backward", None),
        (replay.ReplayBuffer, "push", "replay.push", None),
        (replay.ReplayBuffer, "sample_rows", "replay.sample_rows", None),
        (trajopt.SmoothedInsertionCost, "quadratize", "trajopt.quadratize", None),
        (trajopt, "update_trajectory", "trajopt.update_trajectory", _count_dual_search),
    ]
    for fn in ("fit_dynamics", "linearize_policy", "lqg_backward", "lqg_forward",
               "kl_divergence", "expected_cost"):
        targets.append((trajopt, fn, f"trajopt.{fn}", None))
    return targets


class Tracer:
    """Spans (name, start, end, parent, error) and counters, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []  # (name_id, start_ns, end_ns, parent_index, error_name or None)
        self.counts: dict[str, int] = {}
        self._stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, name: str, value: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def _enter(self) -> tuple[int, int]:
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(index)
        return index, parent

    def _exit(self, index: int, parent: int, name_id: int, start: int, error) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        self.spans[index] = (name_id, start, end, parent, error)

    @contextmanager
    def span(self, name: str):
        name_id = self._id(name)
        index, parent = self._enter()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._exit(index, parent, name_id, start, None)

    def wrap(self, fn, name, on_result=None):
        fixed_id = self._id(name) if isinstance(name, str) else None

        def traced(*args, **kwargs):
            name_id = fixed_id if fixed_id is not None else self._id(name(args, kwargs))
            index, parent = self._enter()
            error = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                self._exit(index, parent, name_id, start, error)
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every layer boundary for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, on_result in wrap_targets():
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, on_result))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------

    def arrays(self) -> dict:
        rows = self.spans
        return {
            "name_id": np.array([r[0] for r in rows], dtype=np.int32),
            "start_ns": np.array([r[1] for r in rows], dtype=np.int64),
            "end_ns": np.array([r[2] for r in rows], dtype=np.int64),
            "parent": np.array([r[3] for r in rows], dtype=np.int64),
            "error": np.array(["" if r[4] is None else r[4] for r in rows]),
            "names": np.array(self.names),
        }

    def write(self, path) -> None:
        np.savez(path, **self.arrays())


class SpanTable:
    """Durations and self times by span name, derived from a tracer's spans."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self._ids = {name: i for i, name in enumerate(tracer.names)}
        self._name_id = a["name_id"]
        self._error = a["error"]
        self.duration_ns = a["end_ns"] - a["start_ns"]
        child_ns = np.zeros(len(self.duration_ns), dtype=np.int64)
        has_parent = a["parent"] >= 0
        np.add.at(child_ns, a["parent"][has_parent], self.duration_ns[has_parent])
        self.self_ns = self.duration_ns - child_ns

    def _mask(self, name: str) -> np.ndarray:
        if name not in self._ids:
            return np.zeros(len(self._name_id), dtype=bool)
        return self._name_id == self._ids[name]

    def calls(self, name: str) -> int:
        return int(self._mask(name).sum())

    def errors(self, name: str, error: str) -> int:
        return int((self._mask(name) & (self._error == error)).sum())

    def durations_s(self, name: str) -> np.ndarray:
        return self.duration_ns[self._mask(name)] * 1e-9

    def total_s(self, name: str) -> float:
        return float(self.durations_s(name).sum())

    def self_total_s(self, name: str) -> float:
        return float(self.self_ns[self._mask(name)].sum() * 1e-9)

    def percentile_s(self, name: str, q: float) -> float:
        d = self.durations_s(name)
        return float(np.percentile(d, q)) if d.size else 0.0
