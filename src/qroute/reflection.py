"""The reflective loop: critic scoring, residual decomposition, attempt
policy, and next-command extraction.

After every expert call the critic scores the step on a four-dimension
rubric (content accuracy, spatial configuration, visual quality, style
consistency) and rebuilds the residual ledger by grouping the prompt's
still-unsatisfied atoms into one command per category. The attempt policy
then decides the fate of the command that was just executed: completed
commands disappear, failed ones requeue with an incremented attempt
counter, and a command failing its third attempt is abandoned for good.

The residual ledger is a plain tuple of commands (``Ledger``). The next
command taken from it is the one with the fewest attempts, then the lowest
id.

The critic finds the prompt's met atoms once per call (``satisfied_atoms``);
the subscores, the completion flag and the decomposition all read that set,
and the decomposition groups the unmet atoms by intersecting them with the
prompt's per-category atom sets (``Prompt.by_category``).
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .core import (
    MAX_ATTEMPTS,
    SPATIAL_CATEGORIES,
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
    """One step's score: ``raw`` is the mean of the four subscores."""

    raw: float
    subscores: tuple[float, float, float, float]
    completed: bool
    residual: Ledger


def critic_score(
    curr: CanvasState,
    c_curr: AtomicCommand,
    c_rem: Ledger,
    prompt: Prompt,
    quality: float,
    id_start: int,
    abandoned: frozenset[Atom] = frozenset(),
) -> CriticVerdict:
    """Score one step and rebuild the residual ledger.

    Subscores: content accuracy is the satisfied fraction of all prompt
    atoms; spatial configuration the satisfied fraction of spatial-category
    atoms (a prompt without spatial atoms scores 10); visual quality passes
    the expert's own quality through; style consistency is all-or-nothing
    against the prompt's style tag.

    The residual ledger covers every unsatisfied, non-abandoned prompt
    atom, one command per category. Commands already present in ``c_rem``
    keep their id and attempt counter (payload refreshed); new categories
    get fresh ids starting at ``id_start`` in taxonomy order.

    The prompt's met atoms are found once, and every subscore, the
    completion flag and the decomposition read them. A payload atom outside
    the prompt (only a hand-built command has one) is checked on its own.
    """
    met = satisfied_atoms(prompt.atoms, curr)
    n_total = len(prompt.atoms)
    content = 10.0 * len(met) / n_total if n_total else 10.0

    spatial_parts = [part for cat, part in prompt.by_category.items() if cat in SPATIAL_CATEGORIES]
    if spatial_parts:
        n_spatial = sum(len(part & met) for part in spatial_parts)
        spatial = 10.0 * n_spatial / sum(len(part) for part in spatial_parts)
    else:
        spatial = 10.0

    visual = clamp_score(float(quality))

    if prompt.style_tag is None or curr.style == prompt.style_tag:
        style = 10.0
    else:
        style = 0.0

    # content and spatial are fractions of 10 and style is 0 or 10, so only
    # the expert's quality needs clamping
    subscores = (content, spatial, visual, style)
    raw = sum(subscores) / 4.0

    outside = c_curr.payload - prompt.atoms
    completed = c_curr.payload <= (met | satisfied_atoms(outside, curr) if outside else met)

    residual = _decompose(met, c_rem, prompt, abandoned, id_start)
    return CriticVerdict(raw=raw, subscores=subscores, completed=completed, residual=residual)


def _decompose(
    met: frozenset[Atom],
    c_rem: Ledger,
    prompt: Prompt,
    abandoned: frozenset[Atom],
    id_start: int,
) -> Ledger:
    """Group the prompt atoms that are neither met nor abandoned per
    category into residual commands.

    Atom iteration order never reaches the output: payloads are sets and
    new commands are created in taxonomy order.
    """
    unmet = prompt.atoms - met - abandoned
    open_atoms: dict[TaskCategory, frozenset[Atom]] = {}
    if unmet:
        for cat, part in prompt.by_category.items():
            group = part & unmet
            if group:
                open_atoms[cat] = group

    next_id = id_start
    commands: list[AtomicCommand] = []
    claimed: set[TaskCategory] = set()

    # existing ledger entries keep identity and position; an entry whose
    # text and payload are already current is kept as it is
    for cmd in c_rem:
        if cmd.category in open_atoms and cmd.category not in claimed:
            text, payload = command_text(cmd.category), open_atoms[cmd.category]
            if cmd.text != text or cmd.payload != payload:
                cmd = AtomicCommand(
                    id=cmd.id, text=text, category=cmd.category, payload=payload, attempts=cmd.attempts
                )
            commands.append(cmd)
            claimed.add(cmd.category)

    # leftover categories become new commands, in taxonomy order (the
    # order of ``by_category``)
    for cat, payload in open_atoms.items():
        if cat not in claimed:
            commands.append(
                AtomicCommand(
                    id=next_id,
                    text=command_text(cat),
                    category=cat,
                    payload=payload,
                    attempts=0,
                )
            )
            next_id += 1

    return tuple(commands)


def apply_attempt_policy(verdict: CriticVerdict, c_curr: AtomicCommand) -> tuple[Ledger, Optional[AtomicCommand]]:
    """Decide the executed command's fate inside the fresh residual ledger.

    Returns the updated ledger, and the executed command when it was
    permanently abandoned (else ``None``).

    A completed command is simply gone (its atoms are satisfied, so the
    decomposition no longer lists them). An incomplete single-category
    command reclaims its slot in the ledger with an incremented attempt
    counter, unless this was its third attempt, in which case it is
    dropped and its atoms are abandoned. An incomplete multi-category
    command (only the initial whole-prompt command qualifies) is
    superseded by its per-category decomposition and never requeued.
    """
    residual = verdict.residual
    if verdict.completed:
        return residual, None

    categories = {a.category for a in c_curr.payload}
    if len(categories) != 1:
        return residual, None
    category = next(iter(categories))

    slot = next((c for c in residual if c.category is category), None)
    # an unmet atom of the command is a prompt atom not yet abandoned, so
    # the decomposition always gives its category a slot
    assert slot is not None
    attempts = min(c_curr.attempts + 1, MAX_ATTEMPTS)
    retried = AtomicCommand(
        id=c_curr.id,
        text=slot.text,
        category=category,
        payload=slot.payload,
        attempts=attempts,
    )
    if attempts < MAX_ATTEMPTS:
        return tuple(retried if c.id == slot.id else c for c in residual), None
    return tuple(c for c in residual if c.id != slot.id), retried


def extract_command(c_rem: Ledger) -> tuple[Optional[AtomicCommand], Ledger]:
    """Pick the next command: fewest attempts first, then lowest id."""
    if not c_rem:
        return None, c_rem
    chosen = min(c_rem, key=lambda c: (c.attempts, c.id))
    return chosen, tuple(c for c in c_rem if c.id != chosen.id)


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
