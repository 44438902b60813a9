"""Correctness checks on the program's outputs.

Each check recomputes a value apart from the program, or tests a property
the method must have. A check returns the list of its failures; an empty
list means it passed. Failure strings start with the check's name, so a
caller (and the benchmark's own test) can tell which check fired.
"""

from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path
from typing import Sequence

import numpy as np

STEP_PENALTY = 0.05  # the shaped reward is raw/10 - 0.05 t
TOL = 1e-9


# -- train: the run directory -----------------------------------------------

def read_log(path: Path) -> list[dict]:
    """Episodes of an ``episodes.jsonl`` file, each a summary dict with its
    step dicts under ``"steps"``, parsed without the program's reader."""
    episodes: list[dict] = []
    steps: list[dict] = []
    for line in path.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if record["kind"] == "step":
            steps.append(record)
        else:
            record["steps"] = steps
            episodes.append(record)
            steps = []
    return episodes


def check_log(episodes: Sequence[dict]) -> list[str]:
    """Reward shaping, the rubric mean, episode returns and mask legality."""
    failures: list[str] = []
    for ep in episodes:
        where = f"episode {ep['episode']}"
        for s in ep["steps"]:
            if abs(s["reward"] - (s["raw"] / 10.0 - STEP_PENALTY * s["t"])) > TOL:
                failures.append(f"reward_shaping: {where} t={s['t']}")
            if abs(s["raw"] - sum(s["subscores"]) / 4.0) > TOL:
                failures.append(f"raw_is_mean: {where} t={s['t']}")
            if not s["mask"][s["expert"]]:
                failures.append(f"action_legal: {where} t={s['t']} expert {s['expert']}")
        if abs(ep["return"] - sum(s["reward"] for s in ep["steps"])) > TOL:
            failures.append(f"return_is_sum: {where}")
    return failures


def check_checkpoint(path: Path, parameters: Sequence[np.ndarray]) -> list[str]:
    """The stored CRC32 matches the body, and the program's loader gives
    back exactly the in-memory parameters."""
    from qroute.checkpoint import load_checkpoint

    data = path.read_bytes()
    if zlib.crc32(data[:-4]) & 0xFFFFFFFF != struct.unpack("<I", data[-4:])[0]:
        return ["checkpoint_crc: stored CRC32 does not match the body"]
    net, _, _ = load_checkpoint(path)
    loaded = net.parameters()
    if len(loaded) != len(parameters) or any(
        a.shape != b.shape or a.tobytes() != np.asarray(b, dtype=a.dtype).tobytes()
        for a, b in zip(loaded, parameters)
    ):
        return ["checkpoint_reload: reloaded parameters differ from the trained ones"]
    return []


def prompt_from_log(payload: dict):
    from qroute.core import Atom, CanvasState, Prompt, TaskCategory

    return Prompt(
        id=payload["id"],
        text=payload["text"],
        atoms=frozenset(Atom(TaskCategory(c), k, v) for c, k, v in payload["atoms"]),
        style_tag=payload["style"],
        initial_canvas=CanvasState.symbolic() if payload["editing"] else None,
    )


def check_replay(episodes: Sequence[dict], make_env) -> list[str]:
    """Each logged episode, re-simulated from its seed and its logged
    actions in a fresh environment, gives the logged rewards."""
    from qroute.policies import episode_streams

    failures: list[str] = []
    env = make_env()
    for ep in episodes:
        _, world = episode_streams(ep["seed"])
        state = env.reset(prompt_from_log(ep["prompt"]))
        for s in ep["steps"]:
            state, reward, _, _ = env.step(state, s["expert"], world)
            if reward != s["reward"]:
                failures.append(f"replay: episode {ep['episode']} t={s['t']}")
                break
    return failures


def check_run_dir(out_dir: Path, parameters: Sequence[np.ndarray], make_env) -> list[str]:
    episodes = read_log(out_dir / "episodes.jsonl")
    return (
        check_log(episodes)
        + check_checkpoint(out_dir / "checkpoint.ckpt", parameters)
        + check_replay(episodes, make_env)
    )


# -- rollout: one pass of every policy over the held-out set ----------------

def check_same_inputs(evals: dict, prompt_ids: Sequence[int]) -> list[str]:
    """Every policy ran the held-out prompts in order, with the same
    per-prompt episode seeds as every other policy."""
    reference = None
    failures: list[str] = []
    for name, episodes in evals.items():
        inputs = [(ep.prompt.id, ep.seed) for ep in episodes]
        if reference is None:
            reference = inputs
        if [pid for pid, _ in inputs] != list(prompt_ids) or inputs != reference:
            failures.append(f"same_inputs: {name}")
    return failures


def best_editing_expert(registry, category) -> int:
    """Argmax of the configured skill mean over the editing experts, lowest
    index on ties."""
    from qroute.experts import Modality

    editors = [s for s in registry.list() if s.modality is Modality.I2I]
    return max(editors, key=lambda s: (s.profile.mean_for(category), -s.index)).index


def routing_accuracy(episodes, registry) -> tuple[int, int]:
    """(hits, editing steps): a hit routes to the category's best editor."""
    from qroute.core import TaskCategory
    from qroute.experts import Modality

    editors = {s.index for s in registry.list() if s.modality is Modality.I2I}
    hits = total = 0
    for ep in episodes:
        for s in ep.steps:
            if {i for i, legal in enumerate(s.mask) if legal} != editors:
                continue
            total += 1
            hits += s.expert == best_editing_expert(registry, TaskCategory(s.category))
    return hits, total


def check_oracle(episodes, registry, reported_accuracy) -> list[str]:
    """The oracle routes to the best editor by construction: accuracy 1.0,
    both recomputed here and as the program reports it."""
    hits, total = routing_accuracy(episodes, registry)
    if total == 0 or hits != total or reported_accuracy != 1.0:
        return [f"oracle_routing: {hits}/{total} recomputed, {reported_accuracy} reported"]
    return []


def mean_return(episodes) -> float:
    return float(np.mean([ep.episode_return for ep in episodes]))


def check_beats_random(trained: float, random: float, label: str = "") -> list[str]:
    if not trained > random:
        return [f"beats_random: {label} trained {trained:.4f} <= random {random:.4f}"]
    return []


# -- sweep: the pooled signed-rank statistic --------------------------------

def paired_returns(a, b) -> list[tuple[float, float]]:
    """Pair two episode lists by (prompt id, repeat)."""

    def keyed(episodes):
        out: dict[tuple[int, int], float] = {}
        seen: dict[int, int] = {}
        for ep in episodes:
            rep = seen.get(ep.prompt.id, 0)
            seen[ep.prompt.id] = rep + 1
            out[(ep.prompt.id, rep)] = ep.episode_return
        return out

    ka, kb = keyed(a), keyed(b)
    return [(ka[k], kb[k]) for k in sorted(set(ka) & set(kb))]


def signed_rank_w(pairs: Sequence[tuple[float, float]]) -> float:
    """min(W+, W-) over nonzero differences, tied magnitudes sharing the
    mean of their ranks."""
    d = sorted((x - y for x, y in pairs if x != y), key=abs)
    w_plus = w_minus = 0.0
    i = 0
    while i < len(d):
        j = i
        while j + 1 < len(d) and abs(d[j + 1]) == abs(d[i]):
            j += 1
        rank = (i + j) / 2 + 1
        for k in range(i, j + 1):
            if d[k] > 0:
                w_plus += rank
            else:
                w_minus += rank
        i = j + 1
    return min(w_plus, w_minus)


def check_pooled_w(result) -> list[str]:
    pairs: list[tuple[float, float]] = []
    for oc in result.outcomes:
        baseline = next(b for b in oc.baselines if b.name == result.pooled_baseline_name)
        pairs += paired_returns(oc.trained.episodes, baseline.episodes)
    w = signed_rank_w(pairs)
    if abs(w - result.pooled_wilcoxon_w) > TOL:
        return [f"pooled_w: recomputed {w}, program {result.pooled_wilcoxon_w}"]
    return []
