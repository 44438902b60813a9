"""Per-layer tracing from outside the program.

Each span wraps one public function or method of a ``qroute`` module. The
wrapper replaces the function wherever its name is looked up: on its class
for methods, and in every ``qroute`` module namespace that imported it by
name (``environment`` imports ``critic_score``, ``train`` imports
``select_action``, the package re-exports ``train`` and ``evaluate``).
Modules are taken from ``sys.modules`` because the package attributes
``qroute.train`` and ``qroute.evaluate`` are the functions, not the modules.

Spans nest on one stack. A span's self time is its duration minus the time
covered by the spans it called, so the self times of all spans plus the
time spent outside any span add up to the traced wall time. Statistics are
aggregated in memory; nothing is recorded per call.
"""

from __future__ import annotations

import importlib
import os
import statistics
import sys
import time
from dataclasses import dataclass

# (metric name, module, attribute path). The rollout policies share one
# name, ``policies.policy``.
SPANS: tuple[tuple[str, str, str], ...] = (
    ("network.forward", "qroute.network", "QNetwork.forward_cached"),
    ("network.backward", "qroute.network", "QNetwork.backward"),
    ("network.adam_step", "qroute.network", "AdamState.step"),
    ("network.check_finite", "qroute.network", "QNetwork.check_finite"),
    ("network.copy", "qroute.network", "QNetwork.copy"),
    ("agent.select_action", "qroute.agent", "select_action"),
    ("agent.td_targets", "qroute.agent", "td_targets"),
    ("agent.train_batch", "qroute.agent", "train_batch"),
    ("agent.replay_push", "qroute.agent", "ReplayBuffer.push"),
    ("agent.replay_sample", "qroute.agent", "ReplayBuffer.sample"),
    ("embedder", "qroute.embedder", "HashingEmbedder.__call__"),
    ("environment.reset", "qroute.environment", "Environment.reset"),
    ("environment.step", "qroute.environment", "Environment.step"),
    ("environment.legal_actions", "qroute.environment", "Environment.legal_actions"),
    ("experts.invoke", "qroute.experts", "ExpertRegistry.invoke"),
    ("reflection.critic_score", "qroute.reflection", "critic_score"),
    ("reflection.decompose", "qroute.reflection", "_decompose"),
    ("reflection.apply_attempt_policy", "qroute.reflection", "apply_attempt_policy"),
    ("reflection.extract_command", "qroute.reflection", "extract_command"),
    ("reflection.classify_task", "qroute.reflection", "classify_task"),
    ("policies.run_episode", "qroute.policies", "run_episode"),
    ("policies.policy", "qroute.policies", "GreedyPolicy.__call__"),
    ("policies.policy", "qroute.policies", "RandomPolicy.__call__"),
    ("policies.policy", "qroute.policies", "OraclePolicy.__call__"),
    ("policies.policy", "qroute.policies", "SingleExpertPolicy.__call__"),
    ("simworld.generate_corpus", "qroute.simworld", "generate_corpus"),
    ("simworld.oracle_fraction", "qroute.simworld", "oracle_fraction"),
    ("simworld.best_legal_expert", "qroute.simworld", "best_legal_expert"),
    ("checkpoint.save", "qroute.checkpoint", "save_checkpoint"),
    ("logs.write_episode_log", "qroute.logs", "write_episode_log"),
    ("train.train", "qroute.train", "train"),
    ("train.write_artifacts", "qroute.train", "write_artifacts"),
    ("evaluate.evaluate", "qroute.evaluate", "evaluate"),
    ("evaluate.baseline_single_expert", "qroute.evaluate", "baseline_single_expert"),
    ("evaluate.summarize_policy", "qroute.evaluate", "summarize_policy"),
    ("evaluate.routing_stats", "qroute.evaluate", "routing_stats"),
    ("stats.wilcoxon_signed_rank", "qroute.stats", "wilcoxon_signed_rank"),
    ("experiment.run_learning_experiment", "qroute.experiment", "run_learning_experiment"),
    ("experiment.run_seed", "qroute.experiment", "run_seed"),
)

SPAN_NAMES: tuple[str, ...] = tuple(dict.fromkeys(name for name, _, _ in SPANS))

# Counters recorded at span boundaries, besides calls and self time.
COUNTERS: dict[str, str] = {
    "network.forward.rows": "count",
    "embedder.distinct_texts": "count",
    "agent.replay_state_bytes": "B",
    "checkpoint.bytes": "B",
    "logs.bytes": "B",
    "experiment.run_seed.ms": "ms",
    "trace.wall_ms": "ms",
    "trace.unattributed_ms": "ms",
    "trace.overhead_ms": "ms",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units: dict[str, str] = {}
    for name in SPAN_NAMES:
        units[f"{name}.self_ms"] = "ms"
        units[f"{name}.calls"] = "count"
    units.update(COUNTERS)
    return units


@dataclass
class SpanStat:
    calls: int = 0
    self_ns: int = 0
    total_ns: int = 0


def _distinct_state_bytes(buffer) -> int:
    """Bytes of the distinct state arrays a replay buffer holds (a state is
    shared by the transition that leaves it and the one that enters it)."""
    seen: dict[int, int] = {}
    for tr in buffer.snapshot():
        seen[id(tr.s)] = tr.s.nbytes
        seen[id(tr.s2)] = tr.s2.nbytes
    return sum(seen.values())


class Tracer:
    """Patches the program on ``install`` and restores it on ``uninstall``.

    Statistics accumulate over every traced round; ``end_round`` closes a
    round so per-round values can be reported.
    """

    def __init__(self) -> None:
        self.stats = {name: SpanStat() for name in SPAN_NAMES}
        self.rounds = 0
        self.rows = 0
        self.distinct_texts = 0
        self.replay_state_bytes = 0
        self.checkpoint_bytes = 0
        self.log_bytes = 0
        self.wall_ns = 0
        self.overhead_ns: list[int] = []
        self._texts: set[str] = set()
        self._buffer = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- hooks -----------------------------------------------------------
    def _count_rows(self, args, kwargs) -> None:
        x = args[1] if len(args) > 1 else kwargs["x"]
        self.rows += 1 if getattr(x, "ndim", 1) == 1 else len(x)

    def _record_text(self, args, kwargs) -> None:
        self._texts.add(args[1] if len(args) > 1 else kwargs["text"])

    def _record_buffer(self, args, kwargs) -> None:
        self._buffer = args[0]

    def _measure_buffer(self, args, kwargs, result) -> None:
        if self._buffer is not None:
            nbytes = _distinct_state_bytes(self._buffer)
            self.replay_state_bytes = max(self.replay_state_bytes, nbytes)
            self._buffer = None

    def _checkpoint_size(self, args, kwargs, result) -> None:
        self.checkpoint_bytes += os.path.getsize(args[0] if args else kwargs["path"])

    def _log_size(self, args, kwargs, result) -> None:
        self.log_bytes += os.path.getsize(args[0] if args else kwargs["path"])

    # -- patching --------------------------------------------------------
    def _wrap(self, stat: SpanStat, fn, before=None, after=None):
        stack = self._stack
        clock = time.perf_counter_ns

        def span(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            stack.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat.self_ns += dt - stack.pop()
                stat.total_ns += dt
                stat.calls += 1
                if stack:
                    stack[-1] += dt
            if after is not None:
                after(args, kwargs, result)
            return result

        span.__wrapped__ = fn
        return span

    def install(self) -> None:
        before = {
            "network.forward": self._count_rows,
            "embedder": self._record_text,
            "agent.replay_push": self._record_buffer,
        }
        after = {
            "train.train": self._measure_buffer,
            "checkpoint.save": self._checkpoint_size,
            "logs.write_episode_log": self._log_size,
        }
        program = [m for n, m in sys.modules.items() if n == "qroute" or n.startswith("qroute.")]
        for name, module, attr in SPANS:
            mod = importlib.import_module(module)
            stat = self.stats[name]
            if "." in attr:
                owner_name, method = attr.split(".")
                owner = getattr(mod, owner_name)
                original = owner.__dict__[method]
                self._patch(owner, method, self._wrap(stat, original, before.get(name), after.get(name)))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(stat, original, before.get(name), after.get(name))
            for m in program:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapper)

    def _patch(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    # -- rounds ----------------------------------------------------------
    def end_round(self, traced_ns: int, untraced_ns: int) -> None:
        """Close one traced round, given its wall time and the wall time of
        the same inputs run untraced."""
        self.rounds += 1
        self.wall_ns += traced_ns
        self.overhead_ns.append(traced_ns - untraced_ns)
        self.distinct_texts += len(self._texts)
        self._texts = set()

    def report(self) -> dict[str, float]:
        """Per-round values of every per-layer metric."""
        n = max(self.rounds, 1)
        out: dict[str, float] = {}
        attributed = 0
        for name in SPAN_NAMES:
            stat = self.stats[name]
            attributed += stat.self_ns
            out[f"{name}.self_ms"] = stat.self_ns / 1e6 / n
            out[f"{name}.calls"] = stat.calls / n
        seed_stat = self.stats["experiment.run_seed"]
        out.update(
            {
                "network.forward.rows": self.rows / n,
                "embedder.distinct_texts": self.distinct_texts / n,
                "agent.replay_state_bytes": float(self.replay_state_bytes),
                "checkpoint.bytes": self.checkpoint_bytes / n,
                "logs.bytes": self.log_bytes / n,
                "experiment.run_seed.ms": seed_stat.total_ns / 1e6 / max(seed_stat.calls, 1),
                "trace.wall_ms": self.wall_ns / 1e6 / n,
                "trace.unattributed_ms": (self.wall_ns - attributed) / 1e6 / n,
                "trace.overhead_ms": statistics.median(self.overhead_ns) / 1e6 if self.overhead_ns else 0.0,
            }
        )
        return out
