import copy
import pickle

import numpy as np
import pytest

from qroute import policies
from qroute.core import AtomicCommand, CanvasKind, CanvasState, TaskCategory, child_stream, command_text
from qroute.environment import Environment, EnvState, shape_reward
from qroute.errors import DomainError
from qroute.experts import draw
from qroute.policies import RandomPolicy, episode_seed, episode_streams, run_episode
from qroute.simworld import generate_corpus

from conftest import DEFAULTS, atom, make_prompt, world_of


def test_shape_reward_examples():
    penalty, t_max = DEFAULTS.step_penalty, DEFAULTS.t_max
    assert shape_reward(10, 1, penalty, t_max) == pytest.approx(0.95)
    assert shape_reward(5, 2, penalty, t_max) == pytest.approx(0.40)
    assert shape_reward(0, 6, penalty, t_max) == pytest.approx(-0.30)


@pytest.mark.parametrize("raw,t", [(-0.1, 1), (10.1, 1), (5, 0), (5, 7)])
def test_shape_reward_domain(raw, t):
    with pytest.raises(DomainError):
        shape_reward(raw, t, DEFAULTS.step_penalty, DEFAULTS.t_max)


@pytest.mark.parametrize("penalty", [-0.05, float("nan"), float("inf")])
def test_environment_refuses_a_negative_or_non_finite_step_penalty(registry, penalty):
    with pytest.raises(DomainError, match="^step_penalty must be a finite number >= 0$"):
        Environment(registry, 6, penalty)


@pytest.mark.parametrize(
    "t_max,penalty,says",
    [
        (2.5, 0.05, "^t_max must be an integer, got 2.5$"),
        (True, 0.05, "^t_max must be an integer, got True$"),
        (6, "0.05", "^step_penalty must be a finite number >= 0$"),
    ],
    ids=["float_budget", "bool_budget", "str_penalty"],
)
def test_environment_refuses_a_budget_or_penalty_of_another_type(registry, t_max, penalty, says):
    with pytest.raises(DomainError, match=says):
        Environment(registry, t_max, penalty)


def test_reset_text_prompt_starts_blank(env):
    prompt = make_prompt([atom("add_object", "dog")])
    state = env.reset(prompt)
    assert state.canvas.is_blank
    assert state.c_curr is not None and state.c_curr.payload == prompt.atoms
    assert state.c_rem == ()
    assert state.t == 0 and not state.done
    mask = env.legal_actions(state)
    assert set(np.flatnonzero(mask)) == {0, 1, 2, 3, 4, 5, 6}


def test_reset_editing_prompt_starts_with_image(env):
    prompt = make_prompt([atom("add_object", "dog")], editing=True)
    state = env.reset(prompt)
    assert not state.canvas.is_blank
    mask = env.legal_actions(state)
    assert set(np.flatnonzero(mask)) == {7, 8, 9, 10, 11}


def test_value_types_check_their_fields_on_every_path():
    """A command's attempt counter and a blank canvas's emptiness are
    checked however the value is made: built, replaced, made from an
    iterable, copied or unpickled."""
    cat = TaskCategory.ADD_TEXT
    cmd = AtomicCommand(1, command_text(cat), cat, frozenset({atom("add_text", "sign")}), 2)
    canvas = CanvasState.symbolic(frozenset({atom("add_text", "sign"), atom("style_transfer", "style", "noir")}))
    for value in (cmd, canvas, CanvasState.blank()):
        assert copy.deepcopy(value) == value and pickle.loads(pickle.dumps(value)) == value
        assert type(pickle.loads(pickle.dumps(value))) is type(value)
    assert cmd._replace(attempts=3).attempts == 3
    for bad in (
        lambda: AtomicCommand(1, "x", cat, attempts=4),
        lambda: cmd._replace(attempts=-1),
        lambda: AtomicCommand._make([1, "x", cat, frozenset(), 4]),
        lambda: CanvasState(CanvasKind.BLANK, frozenset({atom("style_transfer", "style", "noir")})),
        lambda: CanvasState.blank()._replace(atoms=canvas.atoms),
        lambda: CanvasState._make([CanvasKind.BLANK, canvas.atoms]),
    ):
        with pytest.raises(ValueError):
            bad()


def test_reset_is_deterministic(env):
    prompt = make_prompt([atom("add_object", "dog"), atom("add_text", "sign")])
    a, b = env.reset(prompt), env.reset(prompt)
    assert a.serialized == b.serialized
    assert a.canvas == b.canvas
    assert a.c_curr == b.c_curr


def test_two_resets_of_one_prompt_are_one_value(env):
    prompt = make_prompt([atom("add_object", "dog"), atom("add_text", "sign")])
    a, b = env.reset(prompt), env.reset(prompt)
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a: 1, b: 2}) == 1
    state2, _, _, _ = env.step(a, 4, world_of(0))
    assert state2 != a
    for name in EnvState._fields:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    assert a == b


def test_legal_actions_returns_the_registrys_read_only_mask(env):
    prompt = make_prompt([atom("add_object", "dog"), atom("add_text", "sign")])
    state = env.reset(prompt)
    masks = [env.registry.legal_mask(canvas)[0] for canvas in (CanvasState.blank(), CanvasState.symbolic())]
    before = [m.copy() for m in (*masks, env.registry.no_legal_mask)]
    mask = env.legal_actions(state)
    assert mask is masks[0] and set(np.flatnonzero(mask)) == {0, 1, 2, 3, 4, 5, 6}
    state2, _, _, record = env.step(state, 4, world_of(0))
    assert record.mask == tuple(bool(b) for b in mask)
    while not state2.done:
        assert env.legal_actions(state2) is masks[1]
        state2, _, _, _ = env.step(state2, 9, world_of(1))
    done_mask = env.legal_actions(state2)
    assert done_mask is env.registry.no_legal_mask and not done_mask.any()
    for m in (mask, masks[1], done_mask):
        with pytest.raises(ValueError):
            m[:] = True
        with pytest.raises(ValueError):
            m[0] = not m[0]
    after = [m.copy() for m in (*masks, env.registry.no_legal_mask)]
    assert all(np.array_equal(x, y) for x, y in zip(before, after))


def test_episode_streams_draw_what_spawned_children_draw(monkeypatch):
    made = []
    monkeypatch.setattr(policies, "child_stream", lambda *key: made.append(key) or child_stream(*key))
    for seed in (0, 1, 12345, 2**63 - 1):
        made.clear()
        policy, world = episode_streams(seed)
        ref_policy, ref_world = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2))
        # the world stream first: the policy stream is made on its first call
        assert [next(world) for _ in range(5)] == [draw(ref_world) for _ in range(5)]
        assert made == [(seed, *policies.WORLD_STREAM)]
        assert np.array_equal(policy().integers(0, 12, size=7), ref_policy.integers(0, 12, size=7))
        assert policy().random() == ref_policy.random()
        assert policy() is policy()
        assert [next(world) for _ in range(3)] == [draw(ref_world) for _ in range(3)]
        assert made == [(seed, *policies.WORLD_STREAM), (seed, *policies.POLICY_STREAM)]


def test_memoized_episode_seed_equals_the_direct_computation():
    for _ in range(2):  # the second pass is served from the memo
        for base in (0, 2, 971):
            for prompt_id in (0, 7, 10_099):
                for repeat in (0, 3):
                    ss = np.random.SeedSequence(entropy=base, spawn_key=(prompt_id, repeat))
                    assert episode_seed(base, prompt_id, repeat) == int(ss.generate_state(1, dtype=np.uint64)[0])
        with pytest.raises(DomainError):
            episode_seed(0, 0, -1)
        with pytest.raises(DomainError, match="seed must be >= 0: -1"):
            episode_seed(-1, 0, 0)
        with pytest.raises(DomainError, match="prompt id must be >= 0: -5"):
            episode_seed(0, -5, 0)


def test_negative_seed_makes_no_stream():
    with pytest.raises(DomainError, match="seed must be >= 0: -2"):
        child_stream(-2, 1)


def test_illegal_action_rejected(env):
    state = env.reset(make_prompt([atom("add_object", "dog")]))
    with pytest.raises(DomainError, match="action 7 illegal on blank canvas"):
        env.step(state, 7, world_of(0))
    with pytest.raises(DomainError, match="action 99 illegal on blank canvas"):
        env.step(state, 99, world_of(0))


def test_step_after_done_rejected(env):
    state = env.reset(make_prompt([atom("add_object", "dog")]))
    rng = world_of(0)
    while not state.done:
        mask = env.legal_actions(state)
        state, _, _, _ = env.step(state, int(np.flatnonzero(mask)[0]), rng)
    assert not env.legal_actions(state).any()
    with pytest.raises(DomainError, match="episode already finished"):
        env.step(state, 7, world_of(0))


def test_full_satisfaction_step_reward(env):
    # find a seed where the opening call satisfies the whole prompt
    prompt = make_prompt([atom("add_object", "dog")])
    for seed in range(40):
        state = env.reset(prompt)
        state2, reward, done, info = env.step(state, 4, world_of(seed))
        if info.completed:
            assert done
            assert info.terminal_reason == "drained"
            assert reward == pytest.approx(info.raw / 10 - 0.05)
            return
    pytest.fail("no satisfying opener found in 40 seeds")


def test_reward_bounds_and_length_over_rollouts(env):
    prompts = generate_corpus(5, 40, 1, 6)
    for i, p in enumerate(prompts):
        rec = run_episode(env, RandomPolicy(), p, seed=i)
        assert 1 <= rec.length <= 6
        for s in rec.steps:
            assert -0.30 - 1e-12 <= s.reward <= 0.95 + 1e-12
        assert rec.episode_return == pytest.approx(sum(s.reward for s in rec.steps))


def test_budget_truncation_is_terminal(env):
    # failure-heavy prompt to push the episode to the step cap
    prompts = generate_corpus(11, 60, 6, 6)
    seen_budget = False
    for i, p in enumerate(prompts):
        rec = run_episode(env, RandomPolicy(), p, seed=1000 + i)
        if rec.length == 6 and rec.steps[-1].terminal_reason == "budget":
            seen_budget = True
            break
    assert seen_budget


def test_replay_reproduces_bits(env):
    prompts = generate_corpus(7, 10, 3, 6)
    for i, p in enumerate(prompts):
        first = run_episode(env, RandomPolicy(), p, seed=42 + i)
        _, rng = episode_streams(first.seed)
        state = env.reset(p)
        for logged in first.steps:
            state, reward, done, info = env.step(state, logged.expert, rng)
            assert reward == logged.reward
            assert info.raw == logged.raw
            assert info.subscores == logged.subscores


def test_modal_soundness_over_rollouts(env):
    prompts = generate_corpus(3, 80, 1, 6)
    steps = 0
    for i, p in enumerate(prompts):
        rec = run_episode(env, RandomPolicy(), p, seed=i)
        blank_start = p.initial_canvas is None
        for s in rec.steps:
            legal = set(np.flatnonzero(np.array(s.mask)))
            if s.t == 1 and blank_start:
                assert legal == {0, 1, 2, 3, 4, 5, 6}
                assert s.expert <= 6
            else:
                assert legal == {7, 8, 9, 10, 11}
                assert s.expert >= 7
            steps += 1
    assert steps >= 150


def test_attempt_counter_never_exceeds_cap(env):
    prompts = generate_corpus(13, 120, 1, 6)
    abandoned = 0
    for i, p in enumerate(prompts):
        rec = run_episode(env, RandomPolicy(), p, seed=i * 7 + 1)
        per_cmd = {}
        for s in rec.steps:
            per_cmd[s.command_id] = per_cmd.get(s.command_id, 0) + 1
            assert s.attempts <= 2  # a command is executed with at most 3 total tries
            if s.abandoned_command is not None:
                abandoned += 1
                assert per_cmd[s.abandoned_command] == 3
        assert all(v <= 3 for v in per_cmd.values())
    assert abandoned > 0
