"""A pin on the world layer: the episode logs of every network-free policy
over a fixed prompt set hash to a recorded value.

The rollouts use no network, so no BLAS product enters them and the hash
depends only on the environment, the critic, the experts, the policies and
the episode streams. A change to any of those that is meant to be bit-exact
must leave the hash as it is; a change that means to alter rollouts must
record the new value here and say why.

A third pin hashes the greedy rollouts of a briefly trained network over
the same prompts. It covers the greedy policy's path (embedding, forward
pass, masked argmax), so, like the reference hashes of the training runs,
it also rests on how this host's BLAS rounds.
"""

import hashlib

from qroute.config import RunConfig
from qroute.core import CanvasState, Prompt
from qroute.evaluate import baseline_single_expert, evaluate
from qroute.logs import episode_lines
from qroute.policies import GreedyPolicy, OraclePolicy, RandomPolicy, SingleExpertPolicy, episode_seed, run_episode
from qroute.simworld import generate_corpus
from qroute.train import train

from conftest import atom

#: sha256 of the joined episode lines. Re-recorded when the canvas's atoms
#: became the only record of its style: prompt 901's whole-prompt command is
#: filed under remove_object, so its success deletes the style atom, where
#: the canvas's separate style tag used to stay set. 9 of the 750 episodes
#: moved, all on prompt 901 (those of experts 4 and 6-11, of the random
#: policy and of the oracle), and only in the style subscore of one step and
#: the raw score, reward and return that follow from it; the state pin held
PINNED_SHA256 = "fa931854eb95bd0c024b24b9df4e137c559c0655e07c0fbb9b3790f6cb760eed"


def pinned_prompts():
    """48 generated prompts of difficulty 1-6, each starting on an (empty)
    input image with probability 0.25, plus two editing prompts whose input
    image holds an object to remove."""
    prompts = generate_corpus(23, 48, 1, 6, id_start=500, editing_prob=0.25)
    boats = atom("remove_object", "boats", "all")
    walls = atom("color_change", "walls", "teal")
    style = atom("style_transfer", "style", "noir")
    for pid, atoms, tag in ((900, {boats, walls}, None), (901, {boats, walls, style}, "noir")):
        prompts.append(
            Prompt(
                id=pid,
                text="erase unwanted | recolor regions",
                atoms=frozenset(atoms),
                style_tag=tag,
                initial_canvas=CanvasState.symbolic(frozenset({boats})),
            )
        )
    return prompts


def test_network_free_rollouts_match_the_pinned_hash(env):
    prompts = pinned_prompts()
    evals = [baseline_single_expert(env, spec.index, prompts, 1, 5) for spec in env.registry.list()]
    evals.append(evaluate(env, RandomPolicy(), prompts, 2, 5, name="random"))
    evals.append(evaluate(env, OraclePolicy(env.registry), prompts, 1, 5, name="oracle"))
    digest = hashlib.sha256()
    for ev in evals:
        for ep in ev.episodes:
            digest.update(("\n".join(episode_lines(ep)) + "\n").encode("utf-8"))
    assert sum(len(ev.episodes) for ev in evals) == (12 + 2 + 1) * 50
    assert digest.hexdigest() == PINNED_SHA256


#: sha256 of the serialized state before every step of the same rollouts,
#: and after the last one; it sees what the episode logs do not, such as
#: the order of the residual ledger
PINNED_STATES_SHA256 = "5975ec56f7d2e53f2bea2e08b7b827aa1f9c4238a83dab6261994c6953b2c691"


def test_network_free_rollout_states_match_the_pinned_hash(env):
    digest = hashlib.sha256()
    steps = 0

    def record(state, action, reward, state2, next_mask):
        nonlocal steps
        steps += 1
        digest.update((state.serialized + "\n").encode("utf-8"))
        if state2.done:
            digest.update((state2.serialized + "\n").encode("utf-8"))
        return True

    experts = [SingleExpertPolicy(spec.index, env.registry) for spec in env.registry.list()]
    runs = [(policy, 1) for policy in experts] + [(RandomPolicy(), 2), (OraclePolicy(env.registry), 1)]
    for policy, seed in runs:
        for prompt in pinned_prompts():
            for rep in range(5):
                run_episode(env, policy, prompt, episode_seed(seed, prompt.id, rep), on_step=record)
    assert steps > (12 + 2 + 1) * 50 * 5
    assert digest.hexdigest() == PINNED_STATES_SHA256


#: sha256 of the episode logs of the greedy policy of a 200-step seed-1
#: training run over the same prompts, two episodes each. Re-recorded for the
#: same reason as the first pin: one of the two episodes on prompt 901 moved
#: (1 of 100), only in its style subscore, raw score, reward and return
PINNED_GREEDY_SHA256 = "73f096b492ea0a83562377397a4d043fad2102bfef30b2825bda734ed65ce2c8"


def test_greedy_rollouts_match_the_pinned_hash(env):
    net = train(RunConfig(seed=1, total_steps=200)).net
    greedy = evaluate(env, GreedyPolicy(net), pinned_prompts(), 2, 5, name="greedy")
    digest = hashlib.sha256()
    for ep in greedy.episodes:
        digest.update(("\n".join(episode_lines(ep)) + "\n").encode("utf-8"))
    assert len(greedy.episodes) == 2 * 50
    assert digest.hexdigest() == PINNED_GREEDY_SHA256
