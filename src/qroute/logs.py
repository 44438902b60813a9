"""Episode logs and prompt files: newline-delimited JSON. An episode log
holds one step per line, followed by an episode summary line; a prompt
file holds one prompt per line. Writing is canonical (sorted keys, no
whitespace) so identical runs produce identical bytes.

Reading is strict: each field must have its JSON type (an integer, a
finite number, a boolean, a string, or null where the field is optional),
so a ``"false"`` string, a fractional id or an infinite reward is refused
rather than coerced, and a bad line raises ``LogParseError`` with its line
number. ``typed``, ``field``, ``optional`` and ``typed_list`` are the
program's one rule set for JSON values: configs and their expert profiles
(``qroute.config``) are read through them too. Reading also
refuses an episode line whose return or length contradicts its step lines:
the return must be ``reward_sum`` of the step rewards, the length their
count.

A ``StepRecord`` is a named tuple, the cheapest record a rollout step can
build; an ``EpisodeRecord``, one per episode, is a frozen dataclass."""

from __future__ import annotations

import json
import sys
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
    int: "an integer", float: "a finite number", bool: "a boolean", str: "a string", list: "a list", dict: "an object"
}


def typed(value: Any, kind: type, name: str) -> Any:
    """``value`` if it has the JSON type ``kind``, else ValueError. A
    number (``kind`` float) is finite: an integer or float that a float
    holds, not ``NaN`` or ``Infinity`` (which Python's JSON reader accepts);
    it is returned as a float. A boolean is no number."""
    if kind is float:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max
    else:
        ok = isinstance(value, kind) and (kind is bool or not isinstance(value, bool))
    if not ok:
        raise ValueError(f"{name} must be {_JSON_TYPE_NAMES[kind]}, got {value!r}")
    return float(value) if kind is float else value


def field(data: dict, key: str, kind: type) -> Any:
    """``data[key]``, which must be there and have the JSON type ``kind``."""
    if key not in data:
        raise ValueError(f"missing field {key!r}")
    return typed(data[key], kind, repr(key))


def optional(data: dict, key: str, kind: type) -> Any:
    """``data[key]`` of type ``kind``, or None when it is null or absent."""
    value = data.get(key)
    return None if value is None else typed(value, kind, repr(key))


def typed_list(data: dict, key: str, kind: type) -> tuple:
    """``data[key]``, a list whose every entry has the JSON type ``kind``."""
    return tuple(typed(x, kind, f"an entry of {key!r}") for x in field(data, key, list))


def _prompt_from_payload(data: dict) -> Prompt:
    """A prompt record: an object of exactly ``id``, ``text`` and
    ``atoms``, with optional ``style`` and ``editing``."""
    if unknown := data.keys() - {"id", "text", "atoms", "style", "editing"}:
        raise ValueError(f"unknown prompt keys {sorted(unknown)}")
    atoms = []
    for entry in field(data, "atoms", list):
        category, key, value = (typed(x, str, "an atom field") for x in typed(entry, list, "an atom"))
        atoms.append(Atom(category=TaskCategory(category), key=key, value=value))
    return Prompt(
        id=field(data, "id", int),
        text=field(data, "text", str),
        atoms=frozenset(atoms),
        style_tag=optional(data, "style", str),
        initial_canvas=CanvasState.symbolic() if optional(data, "editing", bool) else None,
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
            prompt = _prompt_from_payload(typed(json.loads(line), dict, "the line"))
        except (TypeError, ValueError) as exc:
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
            data = typed(json.loads(line), dict, "the line")
            kind = field(data, "kind", str)
            if kind == "step":
                subscores = typed_list(data, "subscores", float)
                if len(subscores) != 4:
                    raise ValueError(f"'subscores' must hold 4 numbers, got {len(subscores)}")
                pending.append(
                    StepRecord(
                        t=field(data, "t", int),
                        expert=field(data, "expert", int),
                        category=field(data, "category", str),
                        raw=field(data, "raw", float),
                        subscores=subscores,
                        reward=field(data, "reward", float),
                        completed=field(data, "completed", bool),
                        mask=typed_list(data, "mask", bool),
                        command_id=field(data, "command_id", int),
                        attempts=field(data, "attempts", int),
                        abandoned_command=optional(data, "abandoned_command", int),
                        terminal_reason=optional(data, "terminal_reason", str),
                    )
                )
            elif kind == "episode":
                episode = EpisodeRecord(
                    episode_id=field(data, "episode", int),
                    seed=field(data, "seed", int),
                    prompt=_prompt_from_payload(field(data, "prompt", dict)),
                    steps=tuple(pending),
                    episode_return=field(data, "return", float),
                    length=field(data, "length", int),
                    final_oracle_fraction=field(data, "oracle", float),
                    truncated_by=optional(data, "truncated_by", str),
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
        except (TypeError, ValueError) as exc:
            raise LogParseError(lineno, f"bad record: {exc}") from exc
    if pending:
        raise LogParseError(lineno, "dangling step records without an episode summary")
    return episodes
