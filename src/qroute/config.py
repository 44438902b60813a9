"""Run configuration: one dataclass, JSON round-trip, strict validation.

``RunConfig`` is the one place a run's settings and their defaults are
written, ``RunConfig.build_registry`` the one place expert profiles become
a registry (a config's own, or the stock ``DEFAULT_EXPERT_PROFILES`` when
it gives none), and ``RunConfig.environment`` the one place a config
becomes a world. ``config_from_dict`` is the JSON boundary: it checks each
value's JSON type before the config validates its range.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Optional, get_type_hints

from .core import TAXONOMY, TaskCategory
from .environment import Environment
from .errors import ConfigError
from .experts import DEFAULT_EXPERT_PROFILES, ExpertRegistry, ExpertSpec, Modality, SkillProfile


@dataclass
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

    def validate(self) -> "RunConfig":
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
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1]")
        if self.t_max < 1:
            raise ConfigError("t_max must be >= 1")
        if self.step_penalty < 0:
            raise ConfigError("step_penalty must be >= 0")
        if not 1 <= self.difficulty_min <= self.difficulty_max <= 6:
            raise ConfigError("difficulty bounds must satisfy 1 <= min <= max <= 6")
        if self.train_prompt_count < 1:
            raise ConfigError("train_prompt_count must be >= 1")
        self.build_registry()  # profiles must parse and cover every category
        return self

    def build_registry(self) -> ExpertRegistry:
        """The registry of ``expert_profiles``, or of the stock lineup
        ``DEFAULT_EXPERT_PROFILES`` when it is ``None``: every entry goes
        through one parser and the same checks."""
        entries = DEFAULT_EXPERT_PROFILES if self.expert_profiles is None else self.expert_profiles
        specs = []
        for entry in entries:
            try:
                means = {TaskCategory(k): float(v) for k, v in entry["means"].items()}
                failure = entry.get("failure")
                if failure is not None:
                    failure = {TaskCategory(k): float(v) for k, v in failure.items()}
                sigma = float(entry.get("sigma", SkillProfile.sigma))
                specs.append(
                    ExpertSpec(
                        index=int(entry["index"]),
                        name=str(entry["name"]),
                        modality=Modality(entry["modality"]),
                        profile=SkillProfile(means=means, sigma=sigma, failure=failure),
                    )
                )
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"bad expert profile entry: {exc}") from exc
        indices = sorted(spec.index for spec in specs)
        if indices != list(range(len(specs))):
            raise ConfigError(f"expert indices must be 0..{len(specs) - 1}, each once: {indices}")
        if {spec.modality for spec in specs} != set(Modality):
            raise ConfigError("expert profiles need at least one t2i and one i2i expert")
        for spec in specs:
            if not spec.profile.covers():
                raise ConfigError(f"expert {spec.index} profile does not cover the taxonomy")
        return ExpertRegistry(specs)

    def environment(self) -> Environment:
        """The world this config describes: its registry, step budget and
        step penalty."""
        return Environment(self.build_registry(), self.t_max, self.step_penalty)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


#: The ``taxonomy`` value every config written while it was a setting holds
#: by default; a run directory that records it still loads.
_LEGACY_TAXONOMY = [c.value for c in TAXONOMY]


def _check_json_type(name: str, hint: Any, value: Any) -> None:
    """An int field takes an integer, a float field a finite number (not
    ``NaN`` or ``Infinity``, which Python's JSON reader accepts), and
    ``expert_profiles`` a list or null; a boolean is none of these."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if hint is int:
        ok, want = number and isinstance(value, int), "an integer"
    elif hint is float:
        ok, want = number and (isinstance(value, int) or math.isfinite(value)), "a finite number"
    else:
        ok, want = value is None or isinstance(value, list), "a list or null"
    if not ok:
        raise ConfigError(f"config key {name!r} must be {want}, got {value!r}")


def config_from_dict(data: dict[str, Any]) -> RunConfig:
    kwargs = dict(data)
    if "taxonomy" in kwargs and kwargs.pop("taxonomy") != _LEGACY_TAXONOMY:
        raise ConfigError(
            f"taxonomy is not a setting: expert profiles cover all {len(TAXONOMY)} categories, "
            "and a recorded taxonomy must list them all in order"
        )
    hints = get_type_hints(RunConfig)
    unknown = set(kwargs) - set(hints)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for name, value in kwargs.items():
        _check_json_type(name, hints[name], value)
    return RunConfig(**kwargs).validate()


def load_config(path: str | Path) -> RunConfig:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    return config_from_dict(data)
