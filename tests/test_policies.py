"""The episode runner's shared world draws and the greedy policy's action
memo, each against the unmemoized path it replaces."""

import gc
import weakref

import numpy as np
import pytest

from qroute.agent import select_action
from qroute.config import RunConfig
from qroute.core import child_stream
from qroute.embedder import embed
from qroute.evaluate import evaluate
from qroute.experiment import HELDOUT_SEED_OFFSET
from qroute.network import QNetwork
from qroute.policies import (
    WORLD_DRAWS_MEMO,
    WORLD_STREAM,
    GreedyPolicy,
    OraclePolicy,
    RandomPolicy,
    SingleExpertPolicy,
    episode_streams,
    world_draws,
)
from qroute.simworld import generate_corpus
from qroute.train import train

from test_rollout_pin import pinned_prompts


@pytest.fixture(scope="module")
def net():
    """The network of a 200-step seed-1 training run."""
    return train(RunConfig(seed=1, total_steps=200)).net


def heldout():
    """The 100 held-out prompts ``experiment.run_seed`` evaluates seed 1 on."""
    return generate_corpus(1 + HELDOUT_SEED_OFFSET, 100, 6, 6, id_start=10_000)


def unmemoized_greedy(net):
    """The greedy action by a forward pass at every step."""

    def policy(state, mask, rng):
        x, cols = embed.compact(state.serialized)
        return select_action(net, x, mask, 0.0, rng, cols)

    return policy


def test_a_draw_table_is_the_world_stream_read_in_pairs():
    for seed in (0, 5, 2**63 - 1):
        _, world = episode_streams(seed)
        expected = [next(world) for _ in range(6)]
        assert world_draws(seed, 6) == tuple(expected)
        rng = child_stream(seed, *WORLD_STREAM)
        assert expected == [(rng.random(), rng.normal()) for _ in range(6)]


def test_every_policy_reads_from_its_table_what_the_world_generator_gives(env, net):
    """Each episode of the 15 policies of a paired comparison, re-simulated
    through ``env.step`` from the world stream of ``episode_streams``, gives the
    same step records."""
    registry = env.registry
    policies = [
        GreedyPolicy(net),
        *(SingleExpertPolicy(spec.index, registry) for spec in registry.list()),
        RandomPolicy(),
        OraclePolicy(registry),
    ]
    steps = 0
    for policy in policies:
        for ep in evaluate(env, policy, pinned_prompts(), 1, 5).episodes:
            _, world = episode_streams(ep.seed)
            state = env.reset(ep.prompt)
            replayed = []
            for logged in ep.steps:
                state, _, _, record = env.step(state, logged.expert, world)
                replayed.append(record)
            assert tuple(replayed) == ep.steps
            steps += len(replayed)
    assert len(policies) == 15 and steps > 15 * 50


def test_the_draw_memo_stays_in_its_bound_and_holds_no_generator_or_prompt(env):
    def generators() -> int:
        gc.collect()
        return sum(isinstance(o, np.random.Generator) for o in gc.get_objects())

    before = generators()
    prompts = generate_corpus(31, WORLD_DRAWS_MEMO + 44, 1, 6, editing_prob=0.25)
    alive = [weakref.ref(p) for p in prompts]
    evaluate(env, RandomPolicy(), prompts, 1, 9)  # the random policy makes a stream per episode too
    del prompts
    assert world_draws.cache_info().currsize == WORLD_DRAWS_MEMO
    assert generators() == before
    assert not any(ref() is not None for ref in alive)


def test_greedy_memo_gives_the_episodes_of_the_unmemoized_policy(env, net, monkeypatch):
    forward = QNetwork.forward
    calls = 0

    def counted(self, *args):
        nonlocal calls
        calls += 1
        return forward(self, *args)

    monkeypatch.setattr(QNetwork, "forward", counted)
    memoized = evaluate(env, GreedyPolicy(net), heldout(), 1, 2)
    memoized_calls, calls = calls, 0
    plain = evaluate(env, unmemoized_greedy(net), heldout(), 1, 2)
    assert memoized.episodes == plain.episodes
    # a state seen before costs no forward pass
    assert calls == sum(ep.length for ep in plain.episodes) > memoized_calls


def test_greedy_policy_acts_with_the_network_it_was_built_with(env, net):
    net = net.copy()
    built_before = GreedyPolicy(net)
    expected = evaluate(env, built_before, heldout(), 1, 2).episodes

    net.flat *= -1.0  # the change reaches neither the policy's copy nor its memo
    assert evaluate(env, built_before, heldout(), 1, 2).episodes == expected
    with pytest.raises(ValueError, match="read-only"):
        built_before.net.flat[0] = 1.0

    # a policy built after the change acts with the changed network
    changed = evaluate(env, GreedyPolicy(net), heldout(), 1, 2).episodes
    assert changed == evaluate(env, unmemoized_greedy(net), heldout(), 1, 2).episodes
    assert changed != expected
