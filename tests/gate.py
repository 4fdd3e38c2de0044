"""The learning gate: guided and pure DDPG at a fixed budget, judged against a stored reference.

The paper's own metrics must not regress, and a change that moves the
learner's bits moves every learning curve, so such a change is judged here.
The gate takes the one experiment path, ``guided-ddpg train`` and
``compare``. Each arm of a schedule is a committed spec,
``tests/gate_specs/<schedule>_<arm>.spec``; the pure arm's differs from the
guided arm's only by ``n_trajopt = 0``. At the default schedule each arm
trains ``TrainConfig(epochs=8)`` on seeds 0-9 and closes each seed with 50
noise-free episodes. ``harness.run_experiment`` trains each arm into a
temporary directory, and its ``aggregate.json`` holds each seed's figures
(``harness.seed_figures``: ``auc``, ``final``, ``to_0.5``, ``to_0.9``,
``degraded`` and the supervisor's own successes) with their interquartile
means (IQM) and 95 % bootstrap intervals (Agarwal et al., arXiv:2108.13264).

``tests/gate.json`` holds the reference: the schedule, the margin, each
arm's per-seed figures and aggregates, and ``golden.platform_fingerprint()``.
The verdict checks the AUC and the final success of both arms. For each,
``harness.compare_per_seed`` (``compare``'s figures) of the tree's seeds
against the reference's gives the 95 % interval of the difference of their
IQMs, each side's seeds resampled; the check fails when that whole interval
lies below minus the reference's margin. A seed that fails numerically has
no figures, so it fails the gate, and ``--write`` then writes no reference.
Before the verdict, the gate says for each arm on how many seeds every
figure but ``wall_s`` equals the reference's, naming the seeds that differ:
a change meant to keep the learner's bits should read all of them equal.
The learning curves are bimodal over seeds (a seed mostly learns or mostly
does not), so ten seeds resolve only large drops: see ROADMAP item 12 for
what the gate can and cannot tell apart. From the repository root::

    PYTHONPATH=src python tests/gate.py           # judge this tree; exit 0 on pass, 1 on fail
    PYTHONPATH=src python tests/gate.py --write   # regenerate tests/gate.json

At the default schedule a seed takes 25-40 s. ``run_experiment`` trains a
seed per CPU at a time, each worker running BLAS on one thread, so a run of
both arms takes about 5-7 minutes on two CPUs (one arm took 145-171 s).
"""
from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
for path in (ROOT / "src", ROOT / "tests"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from golden import platform_fingerprint  # noqa: E402
from guided_ddpg.exceptions import NumericalError  # noqa: E402
from guided_ddpg.harness import FIGURES, compare_per_seed, parse_spec, run_experiment  # noqa: E402

REFERENCE = Path(__file__).with_name("gate.json")
SPECS = Path(__file__).with_name("gate_specs")
SCHEDULES = ("default", "tiny")
MARGIN = 0.0  # a check fails when its whole difference interval lies below -margin; --write stores it
ARMS = ("guided", "pure")
JUDGED = ("auc", "final")  # the figures the verdict checks, in each arm
ROW = ("seed", *FIGURES, "budget", "degraded", "supervised_successes",
       "supervised_episodes", "wall_s")  # a seed's entries in the reference


def spec_path(schedule: str, arm: str) -> Path:
    return SPECS / f"{schedule}_{arm}.spec"


def run_gate(schedule: str, workdir: Path) -> dict:
    """Both arms' specs trained into ``workdir``: each arm's per-seed figures and aggregates."""
    arms = {}
    for arm in ARMS:
        run_experiment(spec_path(schedule, arm), workdir / arm)
        run = json.loads((workdir / arm / "aggregate.json").read_text(encoding="utf-8"))
        rows = [{key: round(row[key], 1) if key == "wall_s" else row[key] for key in ROW} for row in run["per_seed"]]
        arms[arm] = {"per_seed": rows, "aggregate": run["aggregate"]}
    return {"schedule": schedule, "seeds": run["seeds"], "margin": MARGIN, "platform": platform_fingerprint(),
            "arms": arms}


def verdict(result: dict, reference: dict) -> tuple[bool, list]:
    """Pass or fail of ``result`` against ``reference``, with a line per check that says why.

    Each arm's AUC and final success is a check. A check fails when the whole
    95 % interval of its IQM difference from the reference lies below minus
    the reference's margin: the two sets of seeds then show a drop past it.
    """
    margin = reference["margin"]
    passed, lines = True, []
    for arm in ARMS:
        figures = compare_per_seed(result["arms"][arm]["per_seed"], reference["arms"][arm]["per_seed"])
        for figure in JUDGED:
            got = figures[figure]
            low, high = got["difference_ci"]
            holds = high >= -margin
            passed = passed and holds
            lines.append(f"{arm} {figure}: IQM {got['iqm_a']:.3f} against the reference's "
                         f"{got['iqm_b']:.3f}, difference 95 % CI {low:+.3f} to {high:+.3f}: "
                         + ("holds" if holds else f"lower by more than the margin {margin}"))
    return passed, lines


def equal_figures(result: dict, reference: dict) -> list:
    """A line per arm: on how many seeds every ``ROW`` entry but ``wall_s`` equals the reference's, and which differ."""
    lines = []
    for arm in ARMS:
        got, want = ({row["seed"]: [row[key] for key in ROW if key != "wall_s"] for row in run["arms"][arm]["per_seed"]}
                     for run in (result, reference))
        differ = [seed for seed in got if got[seed] != want.get(seed)]
        lines.append(f"{arm}: every figure but wall_s equals the reference's on {len(got) - len(differ)} of "
                     f"{len(got)} seeds" + (f"; seeds {', '.join(map(str, differ))} differ" if differ else ""))
    return lines


def separation(result: dict) -> str:
    """Guided against pure by ``compare``'s 95 % interval of ``IQM(guided AUC) - IQM(pure AUC)``."""
    low, high = compare_per_seed(*(result["arms"][arm]["per_seed"] for arm in ARMS))["auc"]["difference_ci"]
    if low > 0:
        return "guided above pure"
    if high < 0:
        return "pure above guided"
    return "the interval of the difference contains 0"


def report(result: dict) -> str:
    lines = []
    for arm in ARMS:
        data = result["arms"][arm]
        agg = data["aggregate"]
        lines.append(f"{arm}:")
        for row in data["per_seed"]:
            thresholds = "  ".join(f"{key} {row[key]}" for key in FIGURES if key.startswith("to_"))
            lines.append(f"  seed {row['seed']}: auc {row['auc']:.3f}  final {row['final']:.2f}  "
                         f"{thresholds}  degraded {row['degraded']}  "
                         f"supervised {row['supervised_successes']}/{row['supervised_episodes']}  "
                         f"{row['wall_s']} s")
        for figure in FIGURES:
            reached = f"  reached on {agg[figure]['reached']} of {len(data['per_seed'])}" \
                if "reached" in agg[figure] else ""
            lines.append(f"  {figure}: IQM {agg[figure]['iqm']:.3f}, 95 % CI "
                         f"{agg[figure]['ci'][0]:.3f}-{agg[figure]['ci'][1]:.3f}{reached}")
        lines.append(f"  degraded epochs {agg['degraded']}, supervisor's own success "
                     f"{agg['supervised']['successes']} of {agg['supervised']['episodes']}")
    lines.append(f"AUC: {separation(result)}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="store this tree's figures as the reference")
    parser.add_argument("--schedule", choices=SCHEDULES, default="default")
    args = parser.parse_args(argv)
    reference = None
    if not args.write:
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
        seeds = list(parse_spec(spec_path(args.schedule, "guided")).seeds)
        if reference["schedule"] != args.schedule or reference["seeds"] != seeds:
            print(f"{REFERENCE} holds schedule {reference['schedule']!r} on seeds {reference['seeds']}, "
                  f"not {args.schedule!r}")
            return 2
    try:
        with tempfile.TemporaryDirectory() as tmp:
            result = run_gate(args.schedule, Path(tmp))
    except NumericalError as exc:  # a seed that fails has no figures to judge, so the gate fails
        print(exc)
        print("the reference is not written" if args.write else "FAIL")
        return 1
    print(report(result))
    if args.write:
        REFERENCE.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
        print(f"wrote the reference to {REFERENCE}")
        return 0
    if reference["platform"] != result["platform"]:
        print(f"note: the reference was made on another platform: {reference['platform']}")
    print("\n".join(equal_figures(result, reference)))
    passed, lines = verdict(result, reference)
    print("\n".join(lines))
    print("PASS" if passed else "FAIL")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
