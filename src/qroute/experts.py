"""Registry of generation (T2I) and editing (I2I) experts.

The registry is fully synthetic: each expert carries a per-category
skill profile (mean quality, noise, failure probability) and mutates the
symbolic canvas accordingly.

The stock lineup, ``DEFAULT_EXPERT_PROFILES``, is data in the format of a
config's ``expert_profiles``: ``RunConfig.build_registry`` is the one place
a registry is built, from a config's entries or from these. Its indices
0..6 are text-to-image, 7..11 image-to-image. Eligibility is purely
modal: T2I experts act on a blank canvas, I2I experts on anything that
already has an image. A call's quality is clamped to the rubric's [0, 10]
scale by ``core.clamp_score``, the clamp the critic applies too.

A lineup is valid by construction. A ``SkillProfile`` gives a mean for
every category, and an ``ExpertRegistry`` holds indices 0..n-1, each once,
with at least one T2I and one I2I expert; each refuses anything else when
it is made, whoever builds it.

A registry lays its profiles out once, when it is made: for a blank canvas
and for an existing image, the experts eligible on it, each with its
(mean, failure probability, sigma) per category, and their legal mask
(read-only, with the same mask as a tuple); and the read-only all-false
mask of a finished episode. ``ExpertRegistry.odds`` owns a call's outcome
model: it looks up its expert's table, refused when there is none, so
eligibility costs no check of its own. ``invoke`` draws nothing: it
applies the outcome of one ``draw`` pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Any, NamedTuple, Optional, Sequence

import numpy as np

from .core import REMOVAL_CATEGORIES, TAXONOMY, AtomicCommand, CanvasState, TaskCategory, clamp_score
from .errors import DomainError


class Modality(str, Enum):
    T2I = "t2i"
    I2I = "i2i"


@dataclass(frozen=True)
class SkillProfile:
    """Synthetic competence of one expert across the task taxonomy.

    It gives a mean for every category. Failure probability defaults to
    (10 - mean) / 20 per category, so weaker categories fail more often and
    the retry machinery gets real exercise.
    """

    means: dict[TaskCategory, float]
    sigma: float = 0.5
    failure: Optional[dict[TaskCategory, float]] = None

    def __post_init__(self) -> None:
        if missing := [cat.value for cat in TAXONOMY if cat not in self.means]:
            raise ValueError(f"profile does not cover the taxonomy: no mean for {missing}")
        if not 0.0 <= self.sigma < math.inf:
            raise ValueError(f"sigma must be a finite number >= 0, got {self.sigma!r}")
        for cat, m in self.means.items():
            if not 0.0 <= m <= 10.0:
                raise ValueError(f"mean score for {cat} out of [0, 10]: {m}")
        if self.failure is not None:
            for cat, p in self.failure.items():
                if not 0.0 <= p <= 1.0:
                    raise ValueError(f"failure probability for {cat} out of [0, 1]: {p}")

    def mean_for(self, category: TaskCategory) -> float:
        return self.means[category]

    def failure_for(self, category: TaskCategory) -> float:
        if self.failure is not None and category in self.failure:
            return self.failure[category]
        return (10.0 - self.means[category]) / 20.0

    def table(self) -> dict[TaskCategory, tuple[float, float, float]]:
        """(mean, failure probability, sigma) of each category."""
        return {cat: (self.mean_for(cat), self.failure_for(cat), self.sigma) for cat in self.means}


@dataclass(frozen=True)
class ExpertSpec:
    index: int
    name: str
    modality: Modality
    profile: SkillProfile


class Odds(NamedTuple):
    """One expert call's outcome model (``ExpertRegistry.odds``)."""

    failure: float
    success_mean: float
    failure_mean: float
    sigma: float


def draw(rng: np.random.Generator) -> tuple[float, float]:
    """One expert call's world draws in their fixed order, which keeps replays
    bit-exact: the uniform its success is drawn against, then the normal of
    its quality noise: the pair ``invoke`` takes."""
    return rng.random(), rng.normal()


class ExpertRegistry:
    """Ordered, read-only expert table of a valid lineup: indices 0..n-1,
    each once, and at least one T2I and one I2I expert."""

    def __init__(self, specs: Sequence[ExpertSpec]):
        indices = sorted(spec.index for spec in specs)
        if indices != list(range(len(specs))):
            raise DomainError(f"expert indices must be 0..{len(specs) - 1}, each once: {indices}")
        if {spec.modality for spec in specs} != set(Modality):
            raise DomainError("expert profiles need at least one t2i and one i2i expert")
        ordered = sorted(specs, key=lambda spec: spec.index)
        self._specs = {spec.index: spec for spec in ordered}
        self._by_modality = {m: frozenset(s.index for s in ordered if s.modality is m) for m in Modality}
        # each expert's first same-name expert of the other modality
        self._counterparts = {
            s.index: next((o.index for o in ordered if o.name == s.name and o.modality is not s.modality), None)
            for s in ordered
        }
        # by whether the canvas is blank: the eligible experts' skill tables,
        # and their read-only legal mask with the same mask as a tuple
        self._skills: dict[bool, dict[int, dict[TaskCategory, tuple[float, float, float]]]] = {}
        self._masks: dict[bool, tuple[np.ndarray, tuple[bool, ...]]] = {}
        for canvas in (CanvasState.blank(), CanvasState.symbolic()):
            eligible = self.eligible(canvas)
            self._skills[canvas.is_blank] = {i: self._specs[i].profile.table() for i in eligible}
            legal = tuple(i in eligible for i in self._specs)
            mask = np.array(legal)
            mask.setflags(write=False)
            self._masks[canvas.is_blank] = mask, legal
        # a finished episode's mask: no expert is legal
        self.no_legal_mask = np.zeros(len(self._specs), dtype=bool)
        self.no_legal_mask.setflags(write=False)

    def list(self) -> list[ExpertSpec]:
        return list(self._specs.values())

    def spec(self, index: int) -> ExpertSpec:
        return self._specs[index]

    def __len__(self) -> int:
        return len(self._specs)

    def counterpart(self, index: int) -> Optional[int]:
        """Same-name expert in the other modality block, if registered."""
        return self._counterparts[index]

    def eligible(self, canvas: CanvasState) -> frozenset[int]:
        if canvas.is_blank:
            return self._by_modality[Modality.T2I]
        return self._by_modality[Modality.I2I]

    def legal_mask(self, canvas: CanvasState) -> tuple[np.ndarray, tuple[bool, ...]]:
        """The experts eligible on ``canvas`` as a read-only boolean mask over
        the indices, and the same mask as a tuple (a step record's)."""
        return self._masks[canvas.is_blank]

    def odds(self, index: int, command: AtomicCommand, canvas: CanvasState) -> Odds:
        """The call's failure probability, its mean quality on success and
        on failure (half the mean), and sigma. It gives the failure
        probability, not the success one: a call succeeds when its uniform
        is at least ``failure``, and ``1 - (1 - f)`` need not round to ``f``."""
        skills = self._skills[canvas.is_blank].get(index)
        if skills is None:
            raise DomainError(f"expert {index} not eligible on {canvas.kind.value} canvas")
        mean, failure, sigma = skills[command.category]
        if command.category in REMOVAL_CATEGORIES and not (command.payload & canvas.atoms):
            failure = 1.0  # removing something that is not there is a no-op
        return Odds(failure, mean, mean / 2.0, sigma)

    def invoke(
        self, index: int, command: AtomicCommand, canvas: CanvasState, draws: tuple[float, float]
    ) -> tuple[CanvasState, float]:
        """Run one expert call on its ``draw`` pair; returns the new canvas
        and a quality in [0, 10].

        The call succeeds when the pair's uniform is at least the ``odds``'
        failure probability. Success applies the whole payload (removal
        categories delete their payload atoms instead of adding them);
        failure leaves content unchanged but still consumes the step. A
        style is one more atom, applied like the others. A T2I call always
        turns a blank canvas into a symbolic one, even when it fails to
        satisfy anything.
        """
        failure, success_mean, failure_mean, sigma = self.odds(index, command, canvas)
        uniform, noise = draws
        if uniform >= failure:
            quality = clamp_score(success_mean + sigma * noise)
            if command.category in REMOVAL_CATEGORIES:
                atoms = canvas.atoms - command.payload
            else:
                atoms = canvas.atoms | command.payload
            return CanvasState.symbolic(atoms), quality
        quality = clamp_score(failure_mean + sigma * noise)
        if canvas.is_blank:
            return CanvasState.symbolic(), quality
        return canvas, quality


# The stock lineup, as a config's ``expert_profiles`` value. Names mirror a
# 7 + 5 production lineup; the skill layout makes every editing expert the
# front-runner for at least one category, so no single expert dominates the
# taxonomy. The paired frontier experts share a display name across
# modalities, which is how ``counterpart`` pairs them.

def _flat(score: float) -> dict[str, float]:
    return {c.value: score for c in TaskCategory}


def _peaked(base: float, **peaks: float) -> dict[str, float]:
    return {**_flat(base), **peaks}


DEFAULT_EXPERT_PROFILES: tuple[dict[str, Any], ...] = (
    # text-to-image block (indices 0..6): single-shot openers. Long
    # compositional prompts overwhelm every one of them about equally,
    # which hands the interesting decisions to the editing block and keeps
    # paired policy comparisons tight (identical opener draws cancel
    # exactly when the means agree).
    {"index": 0, "name": "sdxl", "modality": "t2i", "means": _flat(3.3)},
    {"index": 1, "name": "pixart-alpha", "modality": "t2i", "means": _flat(3.3)},
    {"index": 2, "name": "sd35-large", "modality": "t2i", "means": _flat(3.3)},
    {"index": 3, "name": "dalle3", "modality": "t2i", "means": _flat(3.3)},
    {"index": 4, "name": "gpt-image-1", "modality": "t2i", "means": _flat(3.3)},
    {"index": 5, "name": "flux1-dev", "modality": "t2i", "means": _flat(3.3)},
    {"index": 6, "name": "gemini-flash", "modality": "t2i", "means": _flat(3.3)},
    # image-to-image block (indices 7..11): pronounced per-category peaks;
    # off-specialty work is poor, which is what makes routing matter
    {"index": 7, "name": "instruct-pix2pix", "modality": "i2i", "means": _peaked(2.0, style_transfer=7.8)},
    {"index": 8, "name": "magicbrush", "modality": "i2i", "means": _peaked(2.2, remove_object=7.9, color_change=7.7)},
    {"index": 9, "name": "flux-kontext", "modality": "i2i", "means": _peaked(2.2, object_resizing=7.67, lighting_change=7.67)},
    {"index": 10, "name": "gpt-image-1", "modality": "i2i", "means": _peaked(2.4, add_object=8.0, add_text=8.25)},
    {"index": 11, "name": "gemini-flash", "modality": "i2i", "means": _peaked(2.4, background_replacement=7.67, spatial_rearrange=7.6)},
)
