"""Run configuration: one frozen dataclass, JSON round-trip, checked when made.

``RunConfig`` is the one place a run's settings and their defaults are
written. Making one checks it, from Python or JSON alike: each setting's
JSON type, then its range, then its world. Its expert profiles (its own, or
the stock ``DEFAULT_EXPERT_PROFILES`` when it gives none) are parsed into a
registry, whose refusal of a lineup, like the ``Environment``'s refusal of a
step budget or penalty, is re-raised as a ``ConfigError``. The world is built
once: ``build_registry`` and ``environment`` return it, so every run of a
config shares it. The config keeps its own copy of the profiles, so a
caller's later change to its list reaches neither the world nor
``to_json``. A changed copy (``dataclasses.replace``) is checked again.

Every value is read by the helpers of ``qroute.logs``, the one rule set
for the JSON objects qroute reads: a setting by its type annotation, with
nothing coerced (a float setting or a profile number is a finite number),
and an unknown key refused, at the top level and in a profile entry alike.
"""

from __future__ import annotations

import copy
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Optional

from .core import TAXONOMY, TaskCategory
from .environment import Environment
from .errors import ConfigError, DomainError
from .experts import DEFAULT_EXPERT_PROFILES, ExpertRegistry, ExpertSpec, Modality, SkillProfile
from .logs import field, field_readers, known_keys, optional, typed
from .simworld import MAX_DIFFICULTY


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    total_steps: int = 1000
    gamma: float = 0.99
    lr: float = 5e-4
    batch_size: int = 16
    buffer_capacity: int = 500
    learning_starts: int = 50
    target_sync_interval: int = 50
    exploration_fraction: float = 0.5
    epsilon_initial: float = 1.0
    epsilon_final: float = 0.1
    t_max: int = 6
    step_penalty: float = 0.05
    expert_profiles: Optional[list[dict[str, Any]]] = None
    train_prompt_count: int = 450
    difficulty_min: int = 6
    difficulty_max: int = 6

    def __post_init__(self) -> None:
        settings = vars(self)  # a float setting given an integer is stored as a float
        try:
            for name, read in _SETTINGS.items():
                settings[name] = read(settings, name)
        except ValueError as exc:
            raise ConfigError(f"config key {exc}") from exc
        settings["expert_profiles"] = copy.deepcopy(self.expert_profiles)  # the caller's list may change
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.total_steps < 0:
            raise ConfigError("total_steps must be >= 0")
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigError("gamma must be in [0, 1]")
        if not 0.0 < self.lr <= 1.0:
            raise ConfigError("lr must be in (0, 1]")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.buffer_capacity < 1:
            raise ConfigError("buffer_capacity must be >= 1")
        if not 1 <= self.learning_starts <= self.buffer_capacity:
            raise ConfigError("learning_starts must be in [1, buffer_capacity]")
        if self.target_sync_interval < 1:
            raise ConfigError("target_sync_interval must be >= 1")
        if not 0.0 < self.exploration_fraction <= 1.0:
            raise ConfigError("exploration_fraction must be in (0, 1]")
        for name in ("epsilon_initial", "epsilon_final"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1]")
        if not 1 <= self.difficulty_min <= self.difficulty_max <= MAX_DIFFICULTY:
            raise ConfigError(f"difficulty bounds must satisfy 1 <= min <= max <= {MAX_DIFFICULTY}")
        if self.train_prompt_count < 1:
            raise ConfigError("train_prompt_count must be >= 1")
        entries = DEFAULT_EXPERT_PROFILES if self.expert_profiles is None else self.expert_profiles
        specs = []
        for i, entry in enumerate(entries):
            try:
                specs.append(_profile_spec(typed(entry, dict, "the entry")))
            except ValueError as exc:
                raise ConfigError(f"bad expert profile entry {i} of 'expert_profiles': {exc}") from exc
        try:  # the registry judges the lineup, the environment the budget and the penalty
            settings["_world"] = Environment(ExpertRegistry(specs), self.t_max, self.step_penalty)
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc

    def build_registry(self) -> ExpertRegistry:
        """The registry of ``expert_profiles``, or of the stock lineup
        ``DEFAULT_EXPERT_PROFILES`` when it is ``None``; built once, when
        the config was made."""
        return self._world.registry

    def environment(self) -> Environment:
        """The world this config describes: its registry, step budget and
        step penalty; built once, when the config was made."""
        return self._world

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


_SETTINGS = field_readers(RunConfig)


#: The ``taxonomy`` value every config written while it was a setting holds
#: by default; a run directory that records it still loads.
_LEGACY_TAXONOMY = [c.value for c in TAXONOMY]


def _profile_spec(entry: dict[str, Any]) -> ExpertSpec:
    """One ``expert_profiles`` entry as an expert; ``sigma`` and ``failure``
    may be absent, and ``means`` and ``failure`` hold a number per category."""
    known_keys(entry, ("index", "name", "modality", "means", "sigma", "failure"))
    failure = optional(entry, "failure", dict)
    sigma = optional(entry, "sigma", float)
    return ExpertSpec(
        index=field(entry, "index", int),
        name=field(entry, "name", str),
        modality=Modality(field(entry, "modality", str)),
        profile=SkillProfile(
            means=_per_category(field(entry, "means", dict), "means"),
            sigma=SkillProfile.sigma if sigma is None else sigma,
            failure=None if failure is None else _per_category(failure, "failure"),
        ),
    )


def _per_category(numbers: dict[str, Any], key: str) -> dict[TaskCategory, float]:
    return {TaskCategory(k): typed(v, float, f"entry {k!r} of {key!r}") for k, v in numbers.items()}


def config_from_dict(data: dict[str, Any]) -> RunConfig:
    kwargs = dict(data)
    if "taxonomy" in kwargs and kwargs.pop("taxonomy") != _LEGACY_TAXONOMY:
        raise ConfigError(
            f"taxonomy is not a setting: expert profiles cover all {len(TAXONOMY)} categories, "
            "and a recorded taxonomy must list them all in order"
        )
    try:
        known_keys(kwargs, _SETTINGS)
    except ValueError as exc:
        raise ConfigError(f"bad config: {exc}") from exc
    return RunConfig(**kwargs)


def load_config(path: str | Path) -> RunConfig:
    try:
        data = typed(json.loads(Path(path).read_text(encoding="utf-8")), dict, "the config root")
    except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config_from_dict(data)
