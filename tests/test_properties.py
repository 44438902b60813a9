"""Cross-module system properties that do not fit a single unit scope."""

from hypothesis import given, settings
from hypothesis import strategies as st

from qroute.config import RunConfig
from qroute.core import TaskCategory, satisfied_atoms
from qroute.environment import Environment
from qroute.errors import DomainError
from qroute.evaluate import evaluate
from qroute.experts import ExpertRegistry, ExpertSpec, Modality, SkillProfile
from qroute.policies import GreedyPolicy, OraclePolicy, RandomPolicy, SingleExpertPolicy, episode_streams, run_episode
from qroute.simworld import generate_corpus
from qroute.train import train

from test_rollout_pin import pinned_prompts


def test_step_penalty_shortens_trained_episodes():
    # the hardest prompts pin episode length for every policy (the budget
    # binds), so this tendency is visible on the generator's full range
    cfg = RunConfig(seed=1, difficulty_min=1, difficulty_max=6)
    res = train(cfg)
    env = cfg.environment()
    heldout = generate_corpus(cfg.seed + 971, 150, 1, 6, id_start=10_000)
    greedy = evaluate(env, GreedyPolicy(res.net), heldout, 1, cfg.seed + 1, name="greedy")
    random_ = evaluate(env, RandomPolicy(), heldout, 1, cfg.seed + 1, name="random")
    assert greedy.mean_length < random_.mean_length


def test_decomposition_soundness_along_episodes(env):
    # at every step, each prompt atom is satisfied, pending in exactly one
    # ledger entry (or the current command), or permanently abandoned; the
    # live command ids are distinct, and after the first step (which splits
    # the whole-prompt command) no id appears that was not live before, so
    # the ledger never needs a counter for fresh ids. The pinned prompts
    # add editing prompts whose input image already holds an atom to remove.
    prompts = generate_corpus(55, 60, 1, 6) + pinned_prompts()
    for i, p in enumerate(prompts):
        rec = run_episode(env, RandomPolicy(), p, seed=900 + i)
        _, rng = episode_streams(rec.seed)
        state = env.reset(p)
        live = {state.c_curr.id}
        for logged in rec.steps:
            state, _, _, _ = env.step(state, logged.expert, rng)
            pending = [c.payload for c in state.c_rem]
            ids = [c.id for c in state.c_rem]
            if state.c_curr is not None:
                pending.append(state.c_curr.payload)
                ids.append(state.c_curr.id)
            assert len(set(ids)) == len(ids), f"duplicate command ids {ids}"
            if state.t > 1:
                assert set(ids) <= live, f"new ids {set(ids) - live} at t={state.t}"
            live = set(ids)
            met = satisfied_atoms(p.atoms, state.canvas)
            for atom_ in p.atoms:
                holders = sum(1 for payload in pending if atom_ in payload)
                if atom_ in met or atom_ in state.abandoned_atoms:
                    assert holders == 0
                else:
                    assert holders == 1, f"atom {atom_} held by {holders} commands"


def test_episode_return_equals_sum_of_step_rewards(env):
    prompts = generate_corpus(77, 50, 1, 6)
    for i, p in enumerate(prompts):
        rec = run_episode(env, RandomPolicy(), p, seed=i)
        assert rec.episode_return == sum(s.reward for s in rec.steps)
        assert rec.final_oracle_fraction <= 1.0
        assert 1 <= rec.length <= 6


def test_done_is_absorbing_and_time_capped(env):
    prompts = generate_corpus(88, 60, 1, 6)
    for i, p in enumerate(prompts):
        rec = run_episode(env, RandomPolicy(), p, seed=i)
        assert rec.steps[-1].terminal_reason in ("drained", "budget")
        for s in rec.steps[:-1]:
            assert s.terminal_reason is None


@st.composite
def lineups(draw):
    """Up to six expert entries, as (index, name, modality, means), in a
    drawn order. Each flaw is drawn apart, so many lineups have none: an
    index replaced (a gap or a repeat), a lineup of one modality, and
    categories dropped from the last profile (an editor's, when there is
    one)."""
    n = draw(st.integers(0, 6))
    indices = list(range(n))
    if n and draw(st.booleans()):
        indices[draw(st.integers(0, n - 1))] = draw(st.integers(0, n))
    t2i = draw(st.sampled_from([0, n])) if n < 2 or draw(st.booleans()) else draw(st.integers(1, n - 1))
    dropped = draw(st.sets(st.sampled_from(TaskCategory), min_size=1)) if draw(st.booleans()) else set()
    entries = []
    for k, index in enumerate(indices):
        means = {c: draw(st.floats(0.0, 10.0)) for c in TaskCategory if k < n - 1 or c not in dropped}
        modality = Modality.T2I if k < t2i else Modality.I2I
        entries.append((index, draw(st.sampled_from(["a", "b"])), modality, means))
    return draw(st.permutations(entries))


#: Generation and editing prompts, and two that start on an image holding
#: an object to remove.
LINEUP_PROMPTS = generate_corpus(31, 12, 1, 6, id_start=700, editing_prob=0.5) + pinned_prompts()[-2:]


@given(lineups())
@settings(max_examples=200, deadline=None)
def test_a_lineup_is_refused_when_made_or_runs_every_policy(entries):
    # a lineup either fails at construction, or every policy's episode runs
    try:
        registry = ExpertRegistry(
            [ExpertSpec(i, name, m, profile=SkillProfile(means=means)) for i, name, m, means in entries]
        )
    except (DomainError, ValueError):
        return
    env = Environment(registry, t_max=4, step_penalty=0.05)
    policies = [RandomPolicy(), OraclePolicy(registry)]
    policies += [SingleExpertPolicy(index=spec.index, registry=registry) for spec in registry.list()]
    for policy in policies:
        for seed, prompt in enumerate(LINEUP_PROMPTS):
            rec = run_episode(env, policy, prompt, seed=seed)
            assert all(step.mask[step.expert] for step in rec.steps)
            # every baseline acts on a blank canvas: an editing-only one opens it with a generator
            if isinstance(policy, SingleExpertPolicy) and prompt.initial_canvas is None:
                assert rec.length >= 1
