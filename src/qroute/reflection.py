"""The reflective loop: critic scoring, residual decomposition, attempt
policy, and next-command extraction.

After every expert call the critic scores the step on a four-dimension
rubric (content accuracy, spatial configuration, visual quality, style
consistency); it only scores. The attempt policy owns the residual ledger
(a plain tuple of commands, ``Ledger``): a completed command disappears, a
failed one goes to the back of the ledger with one more attempt, and one
failing its third attempt is abandoned for good. Then the prompt's open
atoms are grouped into one command per category; a command keeps its id
while its category stays open, so in a rollout only the split of the first
whole-prompt command creates new ones. The next command taken from the
ledger is the one with the fewest attempts, then the lowest id.

The critic finds the prompt's met atoms once per call (``satisfied_atoms``)
and hands them on in its verdict: the subscores, the completion flag and the
decomposition all read that set, and the decomposition intersects the open
atoms with the prompt's per-category atom sets (``Prompt.by_category``).
What the critic reads of the prompt itself (its spatial, style and removal
atoms) is computed once per prompt.
"""

from __future__ import annotations

from operator import attrgetter
from typing import NamedTuple, Optional

from .core import (
    MAX_ATTEMPTS,
    TAXONOMY,
    Atom,
    AtomicCommand,
    CanvasState,
    Ledger,
    Prompt,
    TaskCategory,
    clamp_score,
    command_text,
    satisfied_atoms,
)
from .errors import DomainError


class CriticVerdict(NamedTuple):
    """One step's score: ``raw`` is the mean of the four subscores and
    ``met`` the prompt atoms the canvas meets."""

    raw: float
    subscores: tuple[float, float, float, float]
    completed: bool
    met: frozenset[Atom]


def critic_score(curr: CanvasState, c_curr: AtomicCommand, prompt: Prompt, quality: float) -> CriticVerdict:
    """Score one step.

    Subscores: content accuracy is the satisfied fraction of all prompt
    atoms; spatial configuration the satisfied fraction of spatial-category
    atoms (a prompt without spatial atoms scores 10); visual quality passes
    the expert's own quality through; style consistency is all-or-nothing:
    10 when the prompt's style atom is met or it has none, else 0.

    The prompt's met atoms are found once; the completion flag and every
    subscore but visual quality read them. A payload atom outside the
    prompt (only a hand-built command has one) is checked on its own.
    """
    met = satisfied_atoms(prompt.atoms, curr, prompt.removals)
    content = 10.0 * len(met) / len(prompt.atoms)

    spatial_atoms = prompt.spatial_atoms
    spatial = 10.0 * len(spatial_atoms & met) / len(spatial_atoms) if spatial_atoms else 10.0

    visual = clamp_score(float(quality))

    style = 10.0 if prompt.style_atoms <= met else 0.0

    # content and spatial are fractions of 10 and style is 0 or 10, so only
    # the expert's quality needs clamping
    subscores = (content, spatial, visual, style)
    raw = sum(subscores) / 4.0

    completed = c_curr.payload <= met
    if not completed and not c_curr.payload <= prompt.atoms:
        outside = c_curr.payload - prompt.atoms
        completed = c_curr.payload <= met | satisfied_atoms(outside, curr)
    return CriticVerdict(raw=raw, subscores=subscores, completed=completed, met=met)


def _decompose(
    met: frozenset[Atom],
    ledger: Ledger,
    prompt: Prompt,
    abandoned: frozenset[Atom],
    top_id: int,
) -> Ledger:
    """Group the prompt atoms that are neither met nor abandoned per
    category into residual commands.

    A command of ``ledger`` whose category is still open keeps its id,
    attempt counter and position, with its payload refreshed; one whose
    category closed is gone, as is a second command of a category. Each
    open category without a command becomes a new one, in taxonomy order,
    numbered after ``top_id``, the highest live id. Payloads are sets, so
    atom iteration order never reaches the output.
    """
    unmet = prompt.atoms - met - abandoned
    open_atoms = {cat: part & unmet for cat, part in prompt.by_category.items() if not part.isdisjoint(unmet)}

    # an entry whose text and payload are already current is kept as it is
    commands: list[AtomicCommand] = []
    for cmd in ledger:
        payload = open_atoms.pop(cmd.category, None)
        if payload is not None:
            text = command_text(cmd.category)
            if cmd.text != text or cmd.payload != payload:
                cmd = AtomicCommand(
                    id=cmd.id, text=text, category=cmd.category, payload=payload, attempts=cmd.attempts
                )
            commands.append(cmd)

    # the categories left over are in taxonomy order (that of ``by_category``)
    for new_id, (cat, payload) in enumerate(open_atoms.items(), start=top_id + 1):
        commands.append(AtomicCommand(id=new_id, text=command_text(cat), category=cat, payload=payload))
    return tuple(commands)


def apply_attempt_policy(
    verdict: CriticVerdict,
    c_curr: AtomicCommand,
    c_rem: Ledger,
    prompt: Prompt,
    abandoned: frozenset[Atom],
) -> tuple[Ledger, Optional[AtomicCommand]]:
    """Settle the executed command's fate and rebuild the residual ledger.

    Returns the new ledger, and the executed command when it was abandoned
    (else ``None``), with the atoms given up as its payload.

    A completed command is simply gone. An incomplete single-category
    command goes to the back of the ledger with one more attempt, unless
    this was its third: then it is dropped, and the open atoms of its
    category are abandoned. An incomplete multi-category command (only the
    initial whole-prompt command qualifies) gives way to its split.
    """
    top_id = max(c.id for c in (c_curr, *c_rem))
    categories = {a.category for a in c_curr.payload}
    if verdict.completed or len(categories) != 1:
        return _decompose(verdict.met, c_rem, prompt, abandoned, top_id), None

    attempts = c_curr.attempts + 1
    if attempts < MAX_ATTEMPTS:
        requeued = AtomicCommand(c_curr.id, c_curr.text, c_curr.category, c_curr.payload, attempts)
        return _decompose(verdict.met, (*c_rem, requeued), prompt, abandoned, top_id), None

    (category,) = categories
    lost = prompt.by_category.get(category, frozenset()) - verdict.met - abandoned
    dropped = AtomicCommand(c_curr.id, c_curr.text, c_curr.category, lost, attempts)
    return _decompose(verdict.met, c_rem, prompt, abandoned | lost, top_id), dropped


#: The order ``extract_command`` takes commands in.
_NEXT_FIRST = attrgetter("attempts", "id")


def extract_command(c_rem: Ledger) -> tuple[Optional[AtomicCommand], Ledger]:
    """Pick the next command: fewest attempts first, then lowest id."""
    if not c_rem:
        return None, c_rem
    chosen = min(c_rem, key=_NEXT_FIRST)
    return chosen, tuple([c for c in c_rem if c.id != chosen.id])


def classify_task(payload: frozenset[Atom]) -> TaskCategory:
    """Deterministic category of a payload: the category holding the most
    atoms, ties broken by taxonomy order."""
    if not payload:
        raise DomainError("cannot classify an empty payload")
    counts: dict[TaskCategory, int] = {}
    for a in payload:
        counts[a.category] = counts.get(a.category, 0) + 1
    best = max(counts.values())
    return next(cat for cat in TAXONOMY if counts.get(cat, 0) == best)
