"""Episode logs and prompt files: newline-delimited JSON. An episode log
holds one step per line, followed by an episode summary line; a prompt
file holds one prompt per line. Writing is canonical (sorted keys, no
whitespace) so identical runs produce identical bytes.

This module owns what each JSON object qroute reads may hold (a config
root, an expert profile entry, a prompt record, a step or episode line):
``known_keys`` refuses an unknown key, and ``typed``, ``field``, ``optional``
and ``field_readers`` (which reads a step line by ``StepRecord``'s own
annotations) refuse a value without its JSON type rather than coerce it.
A bad log line, a step line under another episode's id, a repeated episode
id, or an episode line whose return or length its steps contradict raises
``LogParseError`` with the line number; a fault inside an episode line's
prompt object is named ``prompt:``."""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path
from typing import Any, Callable, Iterable, NamedTuple, Optional, Union, get_args, get_origin, get_type_hints

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


@dataclasses.dataclass(frozen=True, slots=True)
class EpisodeRecord:
    episode_id: int
    seed: int
    prompt: Prompt
    steps: tuple[StepRecord, ...]
    episode_return: float = dataclasses.field(init=False)  # reward_sum(steps)
    length: int = dataclasses.field(init=False)  # len(steps)
    final_oracle_fraction: float
    truncated_by: Optional[str] = None  # None | "budget" | "policy"

    def __post_init__(self) -> None:
        object.__setattr__(self, "episode_return", reward_sum(self.steps))
        object.__setattr__(self, "length", len(self.steps))


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


def known_keys(data: dict, allowed: Iterable[str]) -> None:
    """ValueError if ``data`` holds a key outside ``allowed``."""
    if unknown := data.keys() - allowed:
        raise ValueError(f"unknown keys {sorted(unknown)}")


def _hinted(hint: Any) -> Callable[[dict, str], Any]:
    """The reader of a field annotated ``hint``: a JSON type, ``list[...]``,
    ``Optional[X]`` (null or absent reads as None), or ``tuple[X, ...]`` or
    ``tuple[X, X]`` (exactly two) of a scalar X; else TypeError."""
    origin, args = get_origin(hint), get_args(hint)
    if (kind := origin or hint) in _JSON_TYPE_NAMES:
        return lambda data, key: field(data, key, kind)
    if origin is Union and len(args) == 2 and args[1] is type(None):  # Optional[X]
        inner = _hinted(args[0])
        return lambda data, key: None if data.get(key) is None else inner(data, key)
    if origin is tuple and args and args[0] in (int, float, bool, str) and set(args) <= {args[0], ...}:
        size = None if ... in args else len(args)

        def entries(data: dict, key: str) -> tuple:
            values = tuple(typed(x, args[0], f"an entry of {key!r}") for x in field(data, key, list))
            if size not in (None, len(values)):
                raise ValueError(f"{key!r} must hold {size} entries, got {len(values)}")
            return values

        return entries
    raise TypeError(f"no JSON reader for a field of type {hint!r}")


def field_readers(cls: type) -> dict[str, Callable[[dict, str], Any]]:
    """A reader per annotated field of ``cls``: a table built at import, so
    a field of a type ``_hinted`` cannot read fails every run at once."""
    return {name: _hinted(hint) for name, hint in get_type_hints(cls).items()}


def _prompt_from_payload(data: dict) -> Prompt:
    """A prompt record: an object of exactly ``id``, ``text`` and
    ``atoms``, with optional ``style`` and ``editing``."""
    known_keys(data, ("id", "text", "atoms", "style", "editing"))
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
    write_lines(path, [line for ep in episodes for line in episode_lines(ep)])


_STEP_FIELDS = field_readers(StepRecord)
_LINE_KEYS = {
    "step": {"kind", "episode", *_STEP_FIELDS},
    "episode": {"kind", "episode", "seed", "prompt", "return", "length", "oracle", "truncated_by"},
}


def read_episode_log(path: str | Path) -> list[EpisodeRecord]:
    """The episodes of a log; a step line carries its episode line's id."""
    episodes: dict[int, EpisodeRecord] = {}
    pending: list[StepRecord] = []
    pending_id = None
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            data = typed(json.loads(line), dict, "the line")
            kind = field(data, "kind", str)
            if kind not in _LINE_KEYS:
                raise ValueError(f"unknown record kind {kind!r}")
            known_keys(data, _LINE_KEYS[kind])
            episode_id = field(data, "episode", int)
            if pending and episode_id != pending_id:
                raise ValueError(f"a line of episode {episode_id} after steps of episode {pending_id}")
            if kind == "step":
                pending.append(StepRecord(**{key: read(data, key) for key, read in _STEP_FIELDS.items()}))
                pending_id = episode_id
                continue
            if episode_id in episodes:
                raise ValueError(f"repeated episode id {episode_id}")
            payload = field(data, "prompt", dict)
            try:
                prompt = _prompt_from_payload(payload)
            except ValueError as exc:
                raise ValueError(f"prompt: {exc}") from exc
            episode = EpisodeRecord(
                episode_id=episode_id,
                seed=field(data, "seed", int),
                prompt=prompt,
                steps=tuple(pending),
                final_oracle_fraction=field(data, "oracle", float),
                truncated_by=optional(data, "truncated_by", str),
            )
            if (length := field(data, "length", int)) != episode.length:
                raise ValueError(f"length {length} but {episode.length} step lines")
            if (logged := field(data, "return", float)) != episode.episode_return:
                raise ValueError(f"return {logged!r} but steps sum to {episode.episode_return!r}")
            episodes[episode_id] = episode
            pending = []
        except (TypeError, ValueError) as exc:
            raise LogParseError(lineno, f"bad record: {exc}") from exc
    if pending:
        raise LogParseError(lineno, "dangling step records without an episode summary")
    return list(episodes.values())
