import numpy as np
import pytest

from qroute.core import REMOVAL_CATEGORIES, AtomicCommand, CanvasState, TaskCategory
from qroute.errors import DomainError
from qroute.experts import (
    ExpertRegistry,
    ExpertSpec,
    Modality,
    Odds,
    SkillProfile,
    draw,
)
from qroute.policies import episode_streams

from conftest import atom

_C = TaskCategory


def command(category, atoms=(), attempts=0, cid=1):
    return AtomicCommand(
        id=cid, text="t", category=_C(category), payload=frozenset(atoms), attempts=attempts
    )


def flat_profile(mean, sigma=0.0, failure=None):
    return SkillProfile(
        means={c: mean for c in TaskCategory},
        sigma=sigma,
        failure={c: failure for c in TaskCategory} if failure is not None else None,
    )


def two_expert_registry(fail=0.0):
    return ExpertRegistry(
        [
            ExpertSpec(0, "gen", Modality.T2I, profile=flat_profile(8.0, failure=fail)),
            ExpertSpec(1, "edit", Modality.I2I, profile=flat_profile(8.0, failure=fail)),
        ]
    )


def test_eligibility_blocks(registry):
    assert registry.eligible(CanvasState.blank()) == {0, 1, 2, 3, 4, 5, 6}
    assert registry.eligible(CanvasState.symbolic()) == {7, 8, 9, 10, 11}


def test_eligibility_partition(registry):
    t2i = registry.eligible(CanvasState.blank())
    i2i = registry.eligible(CanvasState.symbolic())
    assert t2i | i2i == set(range(12))
    assert t2i & i2i == set()


def test_invoke_success_adds_payload():
    reg = two_expert_registry(fail=0.0)
    dog = atom("add_object", "dog", "1")
    canvas, quality = reg.invoke(0, command("add_object", [dog]), CanvasState.blank(), draw(np.random.default_rng(0)))
    assert canvas.kind.value == "symbolic"
    assert dog in canvas.atoms
    assert quality == pytest.approx(8.0)


def test_invoke_certain_failure_keeps_canvas():
    reg = two_expert_registry(fail=1.0)
    start = CanvasState.symbolic(frozenset({atom("add_object", "cat")}))
    dog = atom("add_object", "dog")
    canvas, quality = reg.invoke(1, command("add_object", [dog]), start, draw(np.random.default_rng(0)))
    assert canvas == start
    assert quality == pytest.approx(4.0)  # half mean on failure


def test_t2i_always_leaves_an_image_even_on_failure():
    reg = two_expert_registry(fail=1.0)
    dog = atom("add_object", "dog")
    canvas, _ = reg.invoke(0, command("add_object", [dog]), CanvasState.blank(), draw(np.random.default_rng(0)))
    assert canvas.kind.value == "symbolic"
    assert canvas.atoms == frozenset()


def test_removal_deletes_payload():
    reg = two_expert_registry(fail=0.0)
    junk = atom("remove_object", "junk")
    keep = atom("add_object", "keep")
    start = CanvasState.symbolic(frozenset({junk, keep}))
    canvas, _ = reg.invoke(1, command("remove_object", [junk]), start, draw(np.random.default_rng(0)))
    assert junk not in canvas.atoms
    assert keep in canvas.atoms


def test_removing_absent_atom_is_noop_failure():
    reg = two_expert_registry(fail=0.0)
    start = CanvasState.symbolic(frozenset({atom("add_object", "keep")}))
    canvas, quality = reg.invoke(
        1, command("remove_object", [atom("remove_object", "ghost")]), start, draw(np.random.default_rng(0))
    )
    assert canvas == start
    assert quality == pytest.approx(4.0)


def test_style_payload_sets_canvas_style():
    reg = two_expert_registry(fail=0.0)
    tag = atom("style_transfer", "style", "noir")
    canvas, _ = reg.invoke(1, command("style_transfer", [tag]), CanvasState.symbolic(), draw(np.random.default_rng(0)))
    assert canvas.atoms == {tag}


def test_invoke_requires_eligibility():
    reg = two_expert_registry()
    # ``odds`` refuses the same calls, and ``invoke`` refuses them through it
    for call, draws in ((reg.invoke, (draw(np.random.default_rng(0)),)), (reg.odds, ())):
        with pytest.raises(DomainError, match="expert 1 not eligible on blank canvas"):
            call(1, command("add_object"), CanvasState.blank(), *draws)
        with pytest.raises(DomainError, match="expert 0 not eligible on symbolic canvas"):
            call(0, command("add_object"), CanvasState.symbolic(), *draws)


def test_odds_are_each_eligible_experts_profile(registry):
    checked = 0
    for spec in registry.list():
        for cat in TaskCategory:
            payload = frozenset({atom(cat.value, "present")})
            if spec.modality is Modality.T2I:
                if cat in REMOVAL_CATEGORIES:
                    continue  # nothing to remove from a blank canvas
                canvas = CanvasState.blank()
            else:
                canvas = CanvasState.symbolic(payload)  # what a removal removes is there
            mean = spec.profile.mean_for(cat)
            expected = Odds(spec.profile.failure_for(cat), mean, mean / 2, spec.profile.sigma)
            assert registry.odds(spec.index, command(cat.value, payload), canvas) == expected
            checked += 1
    assert checked == 12 * len(TaskCategory) - 7 * len(REMOVAL_CATEGORIES)


def test_removing_an_absent_atom_always_fails(registry):
    start = CanvasState.symbolic(frozenset({atom("add_object", "keep")}))
    ghost = command("remove_object", [atom("remove_object", "ghost")])
    assert registry.spec(8).profile.failure_for(_C.REMOVE_OBJECT) < 1.0
    assert registry.odds(8, ghost, start).failure == 1.0


def test_invoke_succeeds_at_the_odds_rate_over_one_world_stream(registry):
    dog = atom("add_object", "dog")
    cmd, canvas = command("add_object", [dog]), CanvasState.symbolic()
    failure = registry.odds(9, cmd, canvas).failure
    _, world = episode_streams(3)
    n = 20_000
    successes = sum(dog in registry.invoke(9, cmd, canvas, next(world))[0].atoms for _ in range(n))
    p = 1.0 - failure
    assert abs(successes / n - p) <= 4 * (p * (1 - p) / n) ** 0.5


def test_invoke_reproducible(registry):
    cmd = command("add_text", [atom("add_text", "sign")])
    canvas = CanvasState.symbolic()
    a = registry.invoke(10, cmd, canvas, draw(np.random.default_rng(123)))
    b = registry.invoke(10, cmd, canvas, draw(np.random.default_rng(123)))
    assert a[0] == b[0]
    assert a[1] == b[1]


def test_stock_registry_shape(registry):
    specs = registry.list()
    assert len(specs) == 12
    assert [s.modality for s in specs[:7]] == [Modality.T2I] * 7
    assert [s.modality for s in specs[7:]] == [Modality.I2I] * 5
    for s in specs:
        assert set(s.profile.means) == set(TaskCategory)


def test_register_duplicate_index():
    gen = ExpertSpec(0, "gen", Modality.T2I, profile=flat_profile(8.0))
    with pytest.raises(DomainError, match=r"expert indices must be 0\.\.1, each once: \[0, 0\]"):
        ExpertRegistry([gen, ExpertSpec(0, "again", Modality.T2I, profile=flat_profile(5.0))])


def test_empty_registry():
    with pytest.raises(DomainError, match="at least one t2i and one i2i expert"):
        ExpertRegistry([])


@pytest.mark.parametrize(
    "lineup, message",
    [
        ([(0, Modality.T2I), (2, Modality.I2I)], r"0\.\.1, each once: \[0, 2\]"),
        ([(1, Modality.T2I), (2, Modality.I2I)], r"0\.\.1, each once: \[1, 2\]"),
        ([(0, Modality.T2I), (1, Modality.T2I)], "at least one t2i and one i2i expert"),
        ([(0, Modality.I2I)], "at least one t2i and one i2i expert"),
    ],
    ids=["index-gap", "not-from-zero", "generation-only", "editing-only"],
)
def test_registry_refuses_an_invalid_lineup(lineup, message):
    with pytest.raises(DomainError, match=message):
        ExpertRegistry([ExpertSpec(i, f"e{i}", m, profile=flat_profile(5.0)) for i, m in lineup])


def test_profile_refuses_means_that_miss_a_category():
    means = {c: 5.0 for c in TaskCategory if c is not _C.COLOR_CHANGE}
    with pytest.raises(ValueError, match=r"does not cover the taxonomy: no mean for \['color_change'\]"):
        SkillProfile(means=means)


def test_legal_masks_are_the_eligible_blocks_read_only(registry):
    for canvas in (CanvasState.blank(), CanvasState.symbolic()):
        mask, flags = registry.legal_mask(canvas)
        assert set(np.flatnonzero(mask)) == registry.eligible(canvas)
        assert flags == tuple(mask.tolist())
        assert not mask.flags.writeable


def test_anchor_scores(registry):
    add_text_means = {s.index: s.profile.mean_for(_C.ADD_TEXT) for s in registry.list()[7:]}
    assert add_text_means[10] == pytest.approx(8.25)
    assert all(add_text_means[10] > v for i, v in add_text_means.items() if i != 10)
    kontext = registry.spec(9).profile
    assert kontext.mean_for(_C.LIGHTING_CHANGE) == pytest.approx(7.67)
    assert kontext.mean_for(_C.OBJECT_RESIZING) == pytest.approx(7.67)
    gemini = registry.spec(11).profile
    assert gemini.mean_for(_C.BACKGROUND_REPLACEMENT) == pytest.approx(7.67)


def test_failure_probability_default_formula():
    profile = SkillProfile(means={c: 8.25 for c in TaskCategory})
    assert profile.failure_for(_C.ADD_TEXT) == pytest.approx((10 - 8.25) / 20)


def test_no_single_expert_dominates(registry):
    # per category, argmax over editing experts; at least two distinct winners
    winners = set()
    for cat in TaskCategory:
        best = max(range(7, 12), key=lambda i: registry.spec(i).profile.mean_for(cat))
        winners.add(best)
    assert len(winners) >= 2


def test_counterpart_by_name(registry):
    assert registry.counterpart(4) == 10
    assert registry.counterpart(10) == 4
    assert registry.counterpart(6) == 11
    assert registry.counterpart(0) is None
