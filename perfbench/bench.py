"""Workloads, metrics and the round loop of the qroute benchmark.

Both workloads share one set-up: generate the seed's held-out prompts,
train the reference policy (``RunConfig(seed=1)``, writing its run
directory) and warm up a greedy evaluation. The set-up runs three times;
``setup_s`` is the import time plus the first, cold set-up, which pays every
one-time cost of the process. The three reference runs must agree bit for
bit.

A round is the workload's unit of repeated work, always run whole:

* ``train``: one default training run (1000 steps, difficulty-6 prompts)
  with a fresh seed, writing the full run directory;
* ``sweep``: ``run_learning_experiment`` over two fresh seeds: per seed a
  training run and greedy rollouts of 15 policies, then the pooled
  signed-rank test.

Timings are medians over the completed rounds of a run; a round whose
program call raises is counted as failed and leaves no timing. The
program's public functions are called through their modules
(``TRAIN.train``, not a name imported here) so that the tracer's patches
apply to them.
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from qroute.config import RunConfig
from qroute.environment import Environment
from qroute.policies import GreedyPolicy
from qroute.simworld import generate_prompt

import checks
import provenance
from tracer import Tracer, metric_units

# modules, not the package attributes of the same names (those are functions)
TRAIN = importlib.import_module("qroute.train")
EVALUATE = importlib.import_module("qroute.evaluate")
EXPERIMENT = importlib.import_module("qroute.experiment")

OUT = Path(__file__).resolve().parent / "out"

REFERENCE_SEED = 1
SETUP_REPEATS = 3
HELDOUT_PROMPTS = 1920
WARMUP_PROMPTS = 24
SWEEP_SEEDS = 2
# heldout_return averages the first four policies trained in the run: four
# training rounds, or two sweep rounds of two seeds
SCORED_ROUNDS = {"train": 4, "sweep": 2}

CHECKS = {
    "train": ("reward_shaping", "raw_is_mean", "return_is_sum", "action_legal",
              "checkpoint_crc", "checkpoint_reload", "replay"),
    "sweep": ("pooled_w", "same_inputs", "oracle_routing", "beats_random"),
}
SETUP_CHECKS = CHECKS["train"] + ("setup_determinism",)

END_TO_END_UNITS = {
    "setup_s": "s",
    "steps_per_s": "1/s",
    "cpu_ms_per_step": "ms",
    "peak_rss_mb": "MB",
    "heldout_return": "return",
}


# -- inputs -----------------------------------------------------------------

def derived(seed: int, *tags: int) -> int:
    """A 32-bit integer drawn from the workload seed for one purpose."""
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


def heldout_prompts(seed: int) -> list:
    """Difficulty cycles 1..6 and every fourth block of six starts on an
    existing image, so every slice of 24 prompts has the full make-up."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    return [
        generate_prompt(rng, 1 + i % 6, 100_000 + i, editing_prob=float((i // 6) % 4 == 0))
        for i in range(HELDOUT_PROMPTS)
    ]


def make_env() -> Environment:
    config = RunConfig()
    return Environment(config.build_registry(), t_max=config.t_max, step_penalty=config.step_penalty)


# -- measurement --------------------------------------------------------------

def cpu_seconds() -> float:
    """CPU time of this process (all its threads) and its children."""
    t = os.times()
    return time.process_time() + t.children_user + t.children_system


@dataclass
class Meter:
    """Wall and CPU time of the program calls only, one entry per round
    whose calls completed; checks run outside. A tracer attached to the
    meter is installed for exactly the measured calls."""

    tracer: Tracer | None = None
    walls: list[float] = field(default_factory=list)
    cpus: list[float] = field(default_factory=list)
    steps: list[int] = field(default_factory=list)

    @contextmanager
    def measure(self):
        if self.tracer is not None:
            self.tracer.install()
        w0, c0 = time.perf_counter(), cpu_seconds()
        try:
            yield
            wall, cpu = time.perf_counter() - w0, cpu_seconds() - c0
        finally:
            if self.tracer is not None:
                self.tracer.uninstall()
        self.walls.append(wall)
        self.cpus.append(cpu)
        self.steps.append(0)

    def count_steps(self, n: int) -> None:
        self.steps[-1] += n

    def rounds(self) -> list[tuple[int, float, float]]:
        """(steps, wall, cpu) of each round that counted its steps; a round
        whose checks raised before counting is left out."""
        return [r for r in zip(self.steps, self.walls, self.cpus) if r[0]]

    def steps_per_s(self) -> float:
        return median_or_zero([s / w for s, w, _ in self.rounds()])

    def cpu_ms_per_step(self) -> float:
        return median_or_zero([1e3 * c / s for s, _, c in self.rounds()])


def median_or_zero(values: list[float]) -> float:
    """The median, or 0 when no round completed (the run is then not correct)."""
    return statistics.median(values) if values else 0.0


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def add(self, attempted: int, failed: int, failures: list[str]) -> None:
        self.attempted += attempted
        self.failed += failed
        self.failures += failures


# -- set-up -------------------------------------------------------------------

@dataclass
class Setup:
    heldout: list
    eval_seed: int
    env: Environment
    reference: object  # the TrainResult of the reference seed
    parameter_hash: str
    artifacts: dict[str, str]


def set_up(seed: int, run_dir: Path, repeats: int, tally: Tally) -> tuple[list[float], Setup]:
    times: list[float] = []
    fingerprints = set()
    ref_dir = run_dir / "reference"
    eval_seed = derived(seed, 2)
    for _ in range(repeats):
        shutil.rmtree(ref_dir, ignore_errors=True)
        t0 = time.perf_counter()
        heldout = heldout_prompts(seed)
        reference = TRAIN.train(RunConfig(seed=REFERENCE_SEED), out_dir=ref_dir)
        env = make_env()
        EVALUATE.evaluate(env, GreedyPolicy(reference.net), heldout[:WARMUP_PROMPTS], 1, eval_seed)
        times.append(time.perf_counter() - t0)
        setup = Setup(
            heldout=heldout,
            eval_seed=eval_seed,
            env=env,
            reference=reference,
            parameter_hash=provenance.parameter_hash(reference.net.parameters()),
            artifacts=provenance.artifact_hashes(ref_dir),
        )
        fingerprints.add((setup.parameter_hash, tuple(setup.artifacts.values())))
    failures = checks.check_run_dir(ref_dir, setup.reference.net.parameters(), make_env)
    if len(fingerprints) != 1:
        failures.append("setup_determinism: reference runs differ")
    tally.add(0, 0, failures)
    return times, setup


# -- workloads ----------------------------------------------------------------

class Train:
    ops_per_round = 1

    def __init__(self, seed: int, run_dir: Path):
        self.seed, self.run_dir = seed, run_dir
        self.trained: list = []  # the nets of the scored rounds

    def round(self, k: int, meter: Meter, tag: str) -> tuple[int, int, list[str]]:
        out = self.run_dir / f"train-{k}{tag}"
        with meter.measure():
            result = TRAIN.train(RunConfig(seed=derived(self.seed, 3, k)), out_dir=out)
        meter.count_steps(len(result.metrics))
        failures = checks.check_run_dir(out, result.net.parameters(), make_env)
        shutil.rmtree(out, ignore_errors=True)
        if k < SCORED_ROUNDS["train"] and not tag:
            self.trained.append(result.net)
        return 1, int(bool(failures)), failures


class Sweep:
    ops_per_round = SWEEP_SEEDS

    def __init__(self, seed: int, run_dir: Path):
        self.seed = seed
        self.trained: list = []  # the nets of the scored rounds

    def round(self, k: int, meter: Meter, tag: str) -> tuple[int, int, list[str]]:
        seeds = [derived(self.seed, 4, k, j) for j in range(SWEEP_SEEDS)]
        with meter.measure():
            result = EXPERIMENT.run_learning_experiment(RunConfig(), seeds=seeds)
        pooled = checks.check_pooled_w(result)
        failures = list(pooled)
        failed = 0
        for oc in result.outcomes:
            policies = [oc.trained, *oc.baselines, oc.random, oc.oracle]
            meter.count_steps(len(oc.train_result.metrics) + sum(ep.length for pe in policies for ep in pe.episodes))
            registry = oc.train_result.config.build_registry()
            own = (
                checks.check_same_inputs({pe.name: pe.episodes for pe in policies},
                                         [ep.prompt.id for ep in oc.trained.episodes])
                + checks.check_oracle(oc.oracle.episodes, registry, oc.oracle.routing_accuracy)
                + checks.check_beats_random(checks.mean_return(oc.trained.episodes),
                                            checks.mean_return(oc.random.episodes), f"seed {oc.seed}")
            )
            failed += bool(own or pooled)
            failures += own
        if k < SCORED_ROUNDS["sweep"] and not tag:
            self.trained += [oc.train_result.net for oc in result.outcomes]
        return len(seeds), failed, failures


WORKLOAD_CLASSES = {"train": Train, "sweep": Sweep}


def heldout_return(setup: Setup, nets: list) -> float:
    """Mean greedy return of the nets on the held-out prompts, scored after
    the timed phase; 0 when every scored round failed (the run is then not
    correct)."""
    returns = [
        checks.mean_return(EVALUATE.evaluate(setup.env, GreedyPolicy(net), setup.heldout, 1,
                                             setup.eval_seed).episodes)
        for net in nets
    ]
    return float(np.mean(returns)) if returns else 0.0


# -- one run ------------------------------------------------------------------

def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def run(args, import_s: float) -> int:
    run_dir = OUT / f"run-{os.getpid()}"
    try:
        return _run(args, import_s, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _run(args, import_s: float, run_dir: Path) -> int:
    tally = Tally()
    traced = bool(args.trace)
    setup_times, setup = set_up(args.seed, run_dir, 1 if traced else SETUP_REPEATS, tally)
    workload = WORKLOAD_CLASSES[args.workload](args.seed, run_dir)
    meter = Meter()
    tracer = Tracer()

    def attempt(k: int, m: Meter, tag: str) -> None:
        try:
            tally.add(*workload.round(k, m, tag))
        except Exception:  # a crashing round is counted as failed, reported and survived
            traceback.print_exc()
            tally.add(workload.ops_per_round, workload.ops_per_round, [f"exception: round {k}"])

    start = time.perf_counter()
    k = 0
    min_rounds = 1 if traced else SCORED_ROUNDS[args.workload]
    while k < min_rounds or time.perf_counter() - start < args.seconds:
        if traced:
            plain, traced_meter = Meter(), Meter(tracer=tracer)
            order = [(plain, ""), (traced_meter, "-traced")]
            for m, tag in order if k % 2 == 0 else order[::-1]:  # alternate which runs first
                attempt(k, m, tag)
            tracer.end_round(int(sum(traced_meter.walls) * 1e9), int(sum(plain.walls) * 1e9))
        else:
            attempt(k, meter, "")
        k += 1

    info: dict = {"rounds": k}
    if traced:
        units = metric_units()
        metrics = {name: {"value": value, "unit": units[name]} for name, value in tracer.report().items()}
        OUT.mkdir(parents=True, exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({"rounds": tracer.rounds, "metrics": metrics}, indent=2) + "\n")
    else:
        values = {
            "setup_s": import_s + setup_times[0],
            "steps_per_s": meter.steps_per_s(),
            "cpu_ms_per_step": meter.cpu_ms_per_step(),
            "peak_rss_mb": peak_rss_mb(),
            "heldout_return": heldout_return(setup, workload.trained),
        }
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in values.items()}
        info.update(steps=sum(meter.steps), import_s=import_s, setup_runs_s=setup_times)

    print("provenance " + json.dumps({
        **provenance.machine(),
        "reference_seed": REFERENCE_SEED,
        "parameter_hash": setup.parameter_hash,
        "artifacts": setup.artifacts,
    }, sort_keys=True))
    print("info " + json.dumps(info, sort_keys=True))
    fired = Counter(f.split(":", 1)[0] for f in tally.failures)
    names = dict.fromkeys([*CHECKS[args.workload], *SETUP_CHECKS, *fired])
    print("checks " + json.dumps({name: fired.get(name, 0) for name in names}))
    for failure in tally.failures[:20]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0
