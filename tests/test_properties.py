"""Cross-module system properties that do not fit a single unit scope."""

from qroute.config import RunConfig
from qroute.core import satisfied_atoms
from qroute.evaluate import evaluate
from qroute.policies import GreedyPolicy, RandomPolicy, episode_streams, run_episode
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
