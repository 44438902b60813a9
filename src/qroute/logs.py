"""Episode logs and prompt files: newline-delimited JSON. An episode log
holds one step per line, followed by an episode summary line; a prompt
file holds one prompt per line. Writing is canonical (sorted keys, no
whitespace) so identical runs produce identical bytes. Reading refuses an
episode line whose return or length contradicts its step lines: the return
must be ``reward_sum`` of the step rewards, the length their count."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

from .core import Atom, CanvasState, Prompt, TaskCategory
from .errors import LogParseError


@dataclass(frozen=True)
class StepRecord:
    t: int
    expert: int
    category: str
    raw: float
    subscores: tuple[float, float, float, float]
    reward: float
    completed: bool
    mask: tuple[bool, ...]
    command_id: int
    attempts: int
    abandoned_command: Optional[int] = None
    terminal_reason: Optional[str] = None


@dataclass(frozen=True)
class EpisodeRecord:
    episode_id: int
    seed: int
    prompt: Prompt
    steps: tuple[StepRecord, ...]
    episode_return: float
    length: int
    final_oracle_fraction: float
    truncated_by: Optional[str] = None  # None | "budget" | "policy"


def reward_sum(steps: Iterable[StepRecord]) -> float:
    """An episode's return: its step rewards added left to right from 0.0
    (``sum`` would not do: from Python 3.12 it compensates rounding)."""
    total = 0.0
    for s in steps:
        total += s.reward
    return total


def _prompt_payload(p: Prompt) -> dict:
    return {
        "id": p.id,
        "text": p.text,
        "style": p.style_tag,
        "editing": p.initial_canvas is not None,
        "atoms": [[a.category.value, a.key, a.value] for a in sorted(p.atoms)],
    }


def _prompt_from_payload(data: dict) -> Prompt:
    atoms = frozenset(
        Atom(category=TaskCategory(c), key=k, value=v) for c, k, v in data["atoms"]
    )
    return Prompt(
        id=int(data["id"]),
        text=str(data["text"]),
        atoms=atoms,
        style_tag=data.get("style"),
        initial_canvas=CanvasState.symbolic() if data.get("editing") else None,
    )


def canonical_json(obj: dict) -> str:
    """One record as a log line: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_lines(path: str | Path, lines: list[str]) -> None:
    """One line each, newline-terminated; an empty list writes an empty file."""
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def write_prompts(path: str | Path, prompts: Iterable[Prompt]) -> None:
    write_lines(path, [canonical_json(_prompt_payload(p)) for p in prompts])


def read_prompts(path: str | Path) -> list[Prompt]:
    """The prompts of a prompt file. A repeated prompt id is refused: its
    prompts would run under one episode seed and share a pairing key."""
    prompts = []
    ids: set[int] = set()
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            prompt = _prompt_from_payload(json.loads(line))
        except (KeyError, TypeError, ValueError) as exc:
            raise LogParseError(lineno, f"bad prompt record: {exc}") from exc
        if prompt.id in ids:
            raise LogParseError(lineno, f"repeated prompt id {prompt.id}")
        ids.add(prompt.id)
        prompts.append(prompt)
    return prompts


def episode_lines(episode: EpisodeRecord) -> list[str]:
    lines = [
        canonical_json({"kind": "step", "episode": episode.episode_id, **vars(s)}) for s in episode.steps
    ]
    lines.append(
        canonical_json(
            {
                "kind": "episode",
                "episode": episode.episode_id,
                "seed": episode.seed,
                "prompt": _prompt_payload(episode.prompt),
                "return": episode.episode_return,
                "length": episode.length,
                "oracle": episode.final_oracle_fraction,
                "truncated_by": episode.truncated_by,
            }
        )
    )
    return lines


def write_episode_log(path: str | Path, episodes: list[EpisodeRecord]) -> None:
    lines: list[str] = []
    for ep in episodes:
        lines.extend(episode_lines(ep))
    write_lines(path, lines)


def read_episode_log(path: str | Path) -> list[EpisodeRecord]:
    episodes: list[EpisodeRecord] = []
    pending: list[StepRecord] = []
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise LogParseError(lineno, f"invalid JSON: {exc}") from exc
        try:
            kind = data["kind"]
            if kind == "step":
                pending.append(
                    StepRecord(
                        t=int(data["t"]),
                        expert=int(data["expert"]),
                        category=str(data["category"]),
                        raw=float(data["raw"]),
                        subscores=tuple(float(x) for x in data["subscores"]),
                        reward=float(data["reward"]),
                        completed=bool(data["completed"]),
                        mask=tuple(bool(b) for b in data["mask"]),
                        command_id=int(data["command_id"]),
                        attempts=int(data["attempts"]),
                        abandoned_command=data.get("abandoned_command"),
                        terminal_reason=data.get("terminal_reason"),
                    )
                )
            elif kind == "episode":
                episode = EpisodeRecord(
                    episode_id=int(data["episode"]),
                    seed=int(data["seed"]),
                    prompt=_prompt_from_payload(data["prompt"]),
                    steps=tuple(pending),
                    episode_return=float(data["return"]),
                    length=int(data["length"]),
                    final_oracle_fraction=float(data["oracle"]),
                    truncated_by=data.get("truncated_by"),
                )
                if episode.length != len(pending):
                    raise LogParseError(lineno, f"length {episode.length} but {len(pending)} step lines")
                if episode.episode_return != (total := reward_sum(pending)):
                    raise LogParseError(lineno, f"return {episode.episode_return!r} but steps sum to {total!r}")
                episodes.append(episode)
                pending = []
            else:
                raise LogParseError(lineno, f"unknown record kind {kind!r}")
        except LogParseError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise LogParseError(lineno, f"bad record: {exc}") from exc
    if pending:
        raise LogParseError(lineno, "dangling step records without an episode summary")
    return episodes
