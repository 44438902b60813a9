"""Episode logs and prompt files: newline-delimited JSON. An episode log
holds one step per line, followed by an episode summary line; a prompt
file holds one prompt per line. Writing is canonical (sorted keys, no
whitespace) so identical runs produce identical bytes.

Reading is strict: each field must have its JSON type (an integer, a
number, a boolean, a string, or null where the field is optional), so a
``"false"`` string or a fractional id is refused rather than coerced, and
a bad line raises ``LogParseError`` with its line number. Reading also
refuses an episode line whose return or length contradicts its step lines:
the return must be ``reward_sum`` of the step rewards, the length their
count.

A ``StepRecord`` is a named tuple, the cheapest record a rollout step can
build; an ``EpisodeRecord``, one per episode, is a frozen dataclass."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, NamedTuple, Optional

from .core import Atom, CanvasState, Prompt, TaskCategory
from .errors import LogParseError


class StepRecord(NamedTuple):
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


@dataclass(frozen=True, slots=True)
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


_JSON_TYPE_NAMES = {
    int: "an integer", float: "a number", bool: "a boolean", str: "a string", list: "a list", dict: "an object"
}


def _typed(value: Any, kind: type, name: str) -> Any:
    """``value`` if it has the JSON type ``kind`` (a number for ``float``,
    returned as a float; a boolean is no number), else ValueError."""
    if kind is float:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    else:
        ok = isinstance(value, kind) and (kind is bool or not isinstance(value, bool))
    if not ok:
        raise ValueError(f"{name} must be {_JSON_TYPE_NAMES[kind]}, got {value!r}")
    return float(value) if kind is float else value


def _field(data: dict, key: str, kind: type) -> Any:
    return _typed(data[key], kind, repr(key))


def _optional(data: dict, key: str, kind: type) -> Any:
    """``data[key]`` of type ``kind``, or None when it is null or absent."""
    value = data.get(key)
    return None if value is None else _typed(value, kind, repr(key))


def _typed_list(data: dict, key: str, kind: type) -> tuple:
    return tuple(_typed(x, kind, f"an entry of {key!r}") for x in _field(data, key, list))


def _prompt_from_payload(data: dict) -> Prompt:
    atoms = []
    for entry in _field(data, "atoms", list):
        category, key, value = (_typed(x, str, "an atom field") for x in _typed(entry, list, "an atom"))
        atoms.append(Atom(category=TaskCategory(category), key=key, value=value))
    return Prompt(
        id=_field(data, "id", int),
        text=_field(data, "text", str),
        atoms=frozenset(atoms),
        style_tag=_optional(data, "style", str),
        initial_canvas=CanvasState.symbolic() if _optional(data, "editing", bool) else None,
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
        canonical_json({"kind": "step", "episode": episode.episode_id, **s._asdict()}) for s in episode.steps
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
                subscores = _typed_list(data, "subscores", float)
                if len(subscores) != 4:
                    raise ValueError(f"'subscores' must hold 4 numbers, got {len(subscores)}")
                pending.append(
                    StepRecord(
                        t=_field(data, "t", int),
                        expert=_field(data, "expert", int),
                        category=_field(data, "category", str),
                        raw=_field(data, "raw", float),
                        subscores=subscores,
                        reward=_field(data, "reward", float),
                        completed=_field(data, "completed", bool),
                        mask=_typed_list(data, "mask", bool),
                        command_id=_field(data, "command_id", int),
                        attempts=_field(data, "attempts", int),
                        abandoned_command=_optional(data, "abandoned_command", int),
                        terminal_reason=_optional(data, "terminal_reason", str),
                    )
                )
            elif kind == "episode":
                episode = EpisodeRecord(
                    episode_id=_field(data, "episode", int),
                    seed=_field(data, "seed", int),
                    prompt=_prompt_from_payload(_field(data, "prompt", dict)),
                    steps=tuple(pending),
                    episode_return=_field(data, "return", float),
                    length=_field(data, "length", int),
                    final_oracle_fraction=_field(data, "oracle", float),
                    truncated_by=_optional(data, "truncated_by", str),
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
