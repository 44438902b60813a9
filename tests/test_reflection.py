import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qroute.core import (
    MAX_ATTEMPTS,
    SPATIAL_CATEGORIES,
    TAXONOMY,
    AtomicCommand,
    CanvasState,
    TaskCategory,
    command_text,
)
from qroute.errors import DomainError
from qroute.reflection import (
    apply_attempt_policy,
    classify_task,
    critic_score,
    extract_command,
)

from conftest import atom, make_prompt

_C = TaskCategory


def cmd(category, atoms=(), attempts=0, cid=1, text=None):
    category = _C(category)
    payload = frozenset(atoms)
    return AtomicCommand(
        id=cid,
        text=text if text is not None else command_text(category),
        category=category,
        payload=payload,
        attempts=attempts,
    )


def canvas_with(*atoms_):
    return CanvasState.symbolic(frozenset(atoms_))


def by_id(ledger, command_id):
    """The ledger's command with ``command_id``, or ``None``."""
    return next((c for c in ledger if c.id == command_id), None)


def rubric_oracle(prompt, canvas, quality):
    """Independent rubric scorer used to cross-check critic_score."""
    sat = [a for a in prompt.atoms if a in canvas.atoms]
    content = 10 * len(sat) / len(prompt.atoms)
    spatial_atoms = [a for a in prompt.atoms if a.category in SPATIAL_CATEGORIES]
    if spatial_atoms:
        spatial = 10 * sum(1 for a in spatial_atoms if a in canvas.atoms) / len(spatial_atoms)
    else:
        spatial = 10.0
    style_atoms = [a for a in prompt.atoms if a.category is _C.STYLE_TRANSFER]
    style = 10.0 if all(a in canvas.atoms for a in style_atoms) else 0.0
    return (content + spatial + min(10, max(0, quality)) + style) / 4


def test_full_satisfaction_scores_ten():
    a1, a2 = atom("add_object", "dog"), atom("add_text", "sign")
    prompt = make_prompt([a1, a2])
    c = cmd("add_object", [a1, a2])
    verdict = critic_score(canvas_with(a1, a2), c, prompt, 10.0)
    assert verdict.raw == pytest.approx(10.0)
    assert verdict.completed
    assert verdict.met == prompt.atoms


def test_half_content_rubric_case():
    atoms = [atom("add_object", f"k{i}") for i in range(4)]
    prompt = make_prompt(atoms)
    c = cmd("add_object", atoms)
    verdict = critic_score(canvas_with(atoms[0], atoms[1]), c, prompt, 8.0)
    assert verdict.subscores == pytest.approx((5.0, 10.0, 8.0, 10.0))
    assert verdict.raw == pytest.approx(8.25)
    assert not verdict.completed


def satisfied_one_by_one(a, canvas):
    """The satisfaction rule per atom: a removal atom is met by its absence,
    any other by its presence; a blank canvas meets nothing."""
    if canvas.is_blank:
        return False
    if a.category is _C.REMOVE_OBJECT:
        return a not in canvas.atoms
    return a in canvas.atoms


def reference_verdict(curr, c_curr, prompt, quality):
    """The critic as it was first written: every atom checked on its own,
    for each subscore and for completion."""
    content = 10.0 * sum(1 for a in prompt.atoms if satisfied_one_by_one(a, curr)) / len(prompt.atoms)
    spatial_atoms = [a for a in prompt.atoms if a.category in SPATIAL_CATEGORIES]
    if spatial_atoms:
        spatial = 10.0 * sum(1 for a in spatial_atoms if satisfied_one_by_one(a, curr)) / len(spatial_atoms)
    else:
        spatial = 10.0
    style_atoms = [a for a in prompt.atoms if a.category is _C.STYLE_TRANSFER]
    style = 10.0 if all(satisfied_one_by_one(a, curr) for a in style_atoms) else 0.0
    subscores = (content, spatial, min(10.0, max(0.0, float(quality))), style)
    return (
        sum(subscores) / 4.0,
        subscores,
        all(satisfied_one_by_one(a, curr) for a in c_curr.payload),
        frozenset(a for a in prompt.atoms if satisfied_one_by_one(a, curr)),
    )


def reference_ledger(curr, c_curr, c_rem, prompt, abandoned, completed):
    """The attempt policy as specified, every atom checked on its own: an
    incomplete single-category command goes to the back of the ledger with
    one more attempt, or is dropped on its last attempt with its category's
    open atoms; then the open atoms are grouped per category, existing
    commands first, new categories numbered after the highest live id."""
    def is_open(a, given_up):
        return a not in given_up and not satisfied_one_by_one(a, curr)

    top_id = max([c_curr.id] + [c.id for c in c_rem])
    dropped = None
    categories = {a.category for a in c_curr.payload}
    if not completed and len(categories) == 1:
        if c_curr.attempts + 1 < MAX_ATTEMPTS:
            c_rem = (*c_rem, c_curr._replace(attempts=c_curr.attempts + 1))
        else:
            lost = frozenset(a for a in prompt.atoms if a.category in categories and is_open(a, abandoned))
            dropped = c_curr._replace(payload=lost, attempts=MAX_ATTEMPTS)
            abandoned = abandoned | lost

    open_atoms = {}
    for a in prompt.atoms:
        if is_open(a, abandoned):
            open_atoms.setdefault(a.category, set()).add(a)
    commands, claimed = [], set()
    for c in c_rem:
        if c.category in open_atoms and c.category not in claimed:
            commands.append(c._replace(text=command_text(c.category), payload=frozenset(open_atoms[c.category])))
            claimed.add(c.category)
    for cat in TAXONOMY:
        if cat in open_atoms and cat not in claimed:
            top_id += 1
            commands.append(
                AtomicCommand(id=top_id, text=command_text(cat), category=cat, payload=frozenset(open_atoms[cat]))
            )
    return tuple(commands), dropped


def test_rubric_matches_independent_scorer_over_enumerated_canvases():
    atoms = [
        atom("add_object", "a"),
        atom("spatial_rearrange", "b"),
        atom("add_text", "c"),
    ]
    noir, popart = atom("style_transfer", "style", "noir"), atom("style_transfer", "style", "popart")
    prompt = make_prompt([*atoms, noir])
    c = cmd("add_object", [atoms[0]])
    for mask in range(8):
        sat = frozenset(a for i, a in enumerate(atoms) if mask & (1 << i))
        for style in ((), (noir,), (popart,), (noir, popart)):
            canvas = CanvasState.symbolic(sat | set(style))
            for quality in (0.0, 4.5, 10.0):
                verdict = critic_score(canvas, c, prompt, quality)
                assert verdict.raw == pytest.approx(rubric_oracle(prompt, canvas, quality))
                assert verdict == reference_verdict(canvas, c, prompt, quality)

    # the whole verdict and the whole ledger, exactly, with a removal atom,
    # two atoms of one category, blank canvases, abandoned atoms, stale
    # ledger entries, commands on their last attempt and payload atoms
    # outside the prompt
    atoms = [
        *atoms,
        atom("remove_object", "d"),
        atom("object_resizing", "e"),
        atom("add_text", "f"),
    ]
    outside = atom("color_change", "not-in-prompt")
    prompt = make_prompt(atoms)
    commands = [
        cmd("add_object", [atoms[0]]),
        cmd("add_text", [atoms[2], atoms[5]]),
        cmd("remove_object", [atoms[3]], attempts=1),
        cmd("object_resizing", [atoms[4]], attempts=2, cid=8),
        cmd("add_object", [atoms[0], outside]),
        cmd("color_change", [outside]),
        cmd("color_change", [outside], attempts=2),
        AtomicCommand(id=0, text=prompt.text, category=_C.ADD_OBJECT, payload=prompt.atoms),
        cmd("add_object", []),
    ]
    ledgers = [
        (),
        (
            cmd("add_text", [atoms[2]], attempts=2, cid=4),
            cmd("spatial_rearrange", [atoms[1]], cid=6, text="old wording"),
        ),
    ]
    abandons = [frozenset(), frozenset({atoms[2], atoms[4]})]
    canvases = [CanvasState.blank()]
    for mask in range(1 << len(atoms)):
        sat = frozenset(a for i, a in enumerate(atoms) if mask & (1 << i))
        canvases += [CanvasState.symbolic(sat), CanvasState.symbolic(sat | {outside})]
    for canvas in canvases:
        for c in commands:
            for quality in (-1.0, 4.5, 12.5):
                verdict = critic_score(canvas, c, prompt, quality)
                assert verdict == reference_verdict(canvas, c, prompt, quality)
            for ledger in ledgers:
                for abandoned in abandons:
                    expected = reference_ledger(canvas, c, ledger, prompt, abandoned, verdict.completed)
                    assert apply_attempt_policy(verdict, c, ledger, prompt, abandoned) == expected


def test_style_mismatch_zeroes_style_dimension():
    a = atom("add_object", "dog")
    prompt = make_prompt([a, atom("style_transfer", "style", "noir")])
    canvas = canvas_with(a, atom("style_transfer", "style", "popart"))
    verdict = critic_score(canvas, cmd("add_object", [a]), prompt, 10.0)
    assert verdict.subscores[3] == 0.0


def test_raw_is_ten_only_at_perfect_subscores():
    a = atom("add_object", "dog")
    noir = atom("style_transfer", "style", "noir")
    prompt = make_prompt([a, noir])
    c = cmd("add_object", [a])
    perfect = critic_score(canvas_with(a, noir), c, prompt, 10.0)
    assert perfect.raw == 10.0 and all(s == 10.0 for s in perfect.subscores)
    near = critic_score(canvas_with(a, noir), c, prompt, 9.999)
    assert near.raw < 10.0


def settle(canvas, c_curr, c_rem, prompt, abandoned=frozenset()):
    """One step's attempt policy after ``c_curr`` left ``canvas``."""
    verdict = critic_score(canvas, c_curr, prompt, 5.0)
    return apply_attempt_policy(verdict, c_curr, c_rem, prompt, abandoned)


def test_decomposition_groups_per_category_with_fresh_ids():
    a1, a2, a3 = atom("add_text", "t1"), atom("add_text", "t2"), atom("color_change", "c1")
    prompt = make_prompt([a1, a2, a3])
    c = cmd("add_object", [], cid=6)
    ledger, _ = settle(CanvasState.symbolic(), c, (), prompt)
    cats = {r.category: r for r in ledger}
    assert set(cats) == {_C.ADD_TEXT, _C.COLOR_CHANGE}
    assert cats[_C.ADD_TEXT].payload == frozenset({a1, a2})
    assert [r.id for r in ledger] == [7, 8]


def test_decomposition_preserves_existing_ids_and_attempts():
    a1, a2 = atom("add_text", "t1"), atom("color_change", "c1")
    prompt = make_prompt([a1, a2])
    existing = (cmd("add_text", [a1], attempts=2, cid=5),)
    ledger, _ = settle(CanvasState.symbolic(), cmd("add_object", [], cid=0), existing, prompt)
    by_cat = {r.category: r for r in ledger}
    assert by_cat[_C.ADD_TEXT].id == 5
    assert by_cat[_C.ADD_TEXT].attempts == 2
    assert by_cat[_C.COLOR_CHANGE].id == 6


def test_decomposition_excludes_abandoned_atoms():
    a1, a2 = atom("add_text", "t1"), atom("color_change", "c1")
    prompt = make_prompt([a1, a2])
    ledger, _ = settle(CanvasState.symbolic(), cmd("add_object", [], cid=0), (), prompt, frozenset({a1}))
    assert {r.category for r in ledger} == {_C.COLOR_CHANGE}


def drain_ids(commands):
    ledger = tuple(commands)
    order = []
    while True:
        chosen, ledger = extract_command(ledger)
        if chosen is None:
            return order
        order.append(chosen.id)


def test_extract_priority_and_tiebreak():
    a = cmd("add_text", cid=1, attempts=0)
    b = cmd("color_change", cid=2, attempts=1)
    chosen, rest = extract_command((b, a))
    assert chosen.id == 1
    assert [c.id for c in rest] == [2]
    chosen, _ = extract_command((cmd("add_text", cid=4, attempts=1), cmd("color_change", cid=3, attempts=1)))
    assert chosen.id == 3


def test_extract_empty():
    chosen, rest = extract_command(())
    assert chosen is None
    assert rest == ()


@given(st.permutations(list(range(6))))
@settings(max_examples=40, deadline=None)
def test_extract_drain_is_permutation_stable(order):
    cats = list(_C)
    commands = [cmd(cats[i], cid=i, attempts=i % 2) for i in range(6)]
    shuffled = [commands[i] for i in order]
    assert drain_ids(commands) == drain_ids(shuffled)


def test_attempt_policy_completed_command_gone():
    a, b = atom("add_text", "x"), atom("color_change", "y")
    prompt = make_prompt([a, b])
    c = cmd("add_text", [a], attempts=1, cid=3)
    ledger, abandoned = settle(canvas_with(a), c, (cmd("color_change", [b], cid=4),), prompt)
    assert by_id(ledger, 3) is None
    assert [r.id for r in ledger] == [4]
    assert abandoned is None


def test_attempt_policy_requeues_with_increment():
    a, b = atom("add_text", "x"), atom("color_change", "y")
    prompt = make_prompt([a, b])
    c = cmd("add_text", [a], attempts=1, cid=3)
    ledger, abandoned = settle(CanvasState.symbolic(), c, (cmd("color_change", [b], cid=4),), prompt)
    # requeued at the back, keeping its id
    assert [r.id for r in ledger] == [4, 3]
    assert by_id(ledger, 3).attempts == 2
    assert by_id(ledger, 3).payload == frozenset({a})
    assert abandoned is None


def test_attempt_policy_drops_after_third_attempt():
    a = atom("add_text", "x")
    prompt = make_prompt([a])
    c = cmd("add_text", [a], attempts=2, cid=3)
    ledger, abandoned = settle(CanvasState.symbolic(), c, (), prompt)
    assert ledger == ()
    assert abandoned is not None
    assert abandoned.id == 3
    assert abandoned.attempts == 3
    assert a in abandoned.payload


def test_attempt_policy_multi_category_monolith_superseded():
    a1, a2 = atom("add_text", "x"), atom("color_change", "y")
    prompt = make_prompt([a1, a2])
    monolith = AtomicCommand(id=0, text="whole prompt", category=_C.ADD_TEXT, payload=frozenset({a1, a2}))
    ledger, abandoned = settle(CanvasState.symbolic(), monolith, (), prompt)
    assert by_id(ledger, 0) is None
    assert [(c.id, c.category) for c in ledger] == [(1, _C.ADD_TEXT), (2, _C.COLOR_CHANGE)]
    assert abandoned is None


@pytest.mark.parametrize(
    "payload,expected",
    [
        pytest.param(
            [atom("remove_object", "a"), atom("remove_object", "b"), atom("add_text", "c")],
            _C.REMOVE_OBJECT,
            id="majority",
        ),
        pytest.param([atom("lighting_change", "sky")], _C.LIGHTING_CHANGE, id="single-atom"),
        # color_change sorts first by name; lighting_change comes first in the taxonomy
        pytest.param(
            [atom("color_change", "a"), atom("lighting_change", "b")],
            _C.LIGHTING_CHANGE,
            id="tie-taxonomy-order",
        ),
        pytest.param([], DomainError, id="empty"),
    ],
)
def test_classify_by_payload_majority(payload, expected):
    if expected is DomainError:
        with pytest.raises(DomainError):
            classify_task(frozenset(payload))
    else:
        assert classify_task(frozenset(payload)) is expected
