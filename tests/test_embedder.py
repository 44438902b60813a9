import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qroute.agent import select_action
from qroute.embedder import EMBED_DIM, HashingEmbedder, serialize_reflection_state
from qroute.network import QNetwork
from qroute.policies import GreedyPolicy, RandomPolicy, run_episode
from qroute.simworld import generate_corpus

embed = HashingEmbedder()


def test_serialize_basic():
    assert serialize_reflection_state("add a dog", [("fix sky", 1)]) == "CUR:add a dog|REM:fix sky@1"


def test_serialize_empty():
    assert serialize_reflection_state(None, []) == "CUR:|REM:"


def test_serialize_ordering():
    assert serialize_reflection_state("a", [("b", 0), ("c", 2)]) == "CUR:a|REM:b@0;c@2"


def test_serialize_permutation_changes_text():
    a = serialize_reflection_state("x", [("b", 0), ("c", 0)])
    b = serialize_reflection_state("x", [("c", 0), ("b", 0)])
    assert a != b


def test_embedding_dimension_and_norm():
    v = embed("CUR:add a dog|REM:fix sky@1")
    assert v.shape == (EMBED_DIM,)
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-6


def test_embedding_deterministic():
    text = "CUR:recolor regions|REM:rearrange layout@0"
    a, b = embed(text), embed(text)
    assert np.array_equal(a, b)


def test_empty_text_maps_to_basis_sentinel():
    v = embed("")
    expected = np.zeros(EMBED_DIM)
    expected[0] = 1.0
    assert np.array_equal(v, expected)


@given(st.text(max_size=120))
@settings(max_examples=60, deadline=None)
def test_norm_always_unit(text):
    v = embed(text)
    assert v.shape == (EMBED_DIM,)
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-6


def test_one_command_difference_never_parallel():
    # corpus of 1000 states; flipping one remaining command must move the vector
    words = ["boats", "lantern", "sky", "caption", "tint", "layout", "glow", "marble"]
    base_cmds = [(f"{words[i % 8]} {words[(i * 3 + 1) % 8]}", i % 3) for i in range(4)]
    embed = HashingEmbedder()  # its own memo, freed with the test
    collisions = 0
    for i in range(1000):
        cur = f"{words[i % 8]} {words[(i + 5) % 8]} {i}"
        a = embed(serialize_reflection_state(cur, base_cmds))
        changed = list(base_cmds)
        changed[i % 4] = (f"altered {words[(i + 2) % 8]} {i}", 0)
        b = embed(serialize_reflection_state(cur, changed))
        cos = float(a @ b)
        assert cos < 1.0 - 1e-9
        if np.array_equal(a, b):
            collisions += 1
    assert collisions == 0


def test_injectivity_over_10k_states():
    texts = set()
    vectors = set()
    embed = HashingEmbedder()  # its own memo, freed with the test
    n = 10_000
    for i in range(n):
        text = serialize_reflection_state(
            f"cmd {i} token{i % 13}",
            [(f"rem {j} item{(i * 7 + j) % 31}", (i + j) % 3) for j in range(i % 4)],
        )
        texts.add(text)
        vectors.add(embed(text).tobytes())
    assert len(texts) == n  # the probe states themselves are distinct
    collisions = n - len(vectors)
    rate = collisions / n
    if collisions:
        print(f"embedding collisions: {collisions}/{n} = {rate:.4%}")
    assert rate < 0.001


def test_repeated_text_returns_the_same_read_only_array():
    text = "CUR:add a lantern|REM:tint sky@0"
    v = embed(text)
    assert embed(text) is v
    with pytest.raises(ValueError):
        v[0] = 1.0


def test_memoized_vectors_equal_fresh_encodings():
    memo = HashingEmbedder()
    words = ["boats", "lantern", "sky", "caption", "tint", "layout", "glow", "marble"]
    texts = [
        serialize_reflection_state(
            f"{words[i % 8]} {words[i // 8]}" if i % 7 else None,
            [(f"{words[(i + j) % 8]} {words[j]}", (i + j) % 3) for j in range(i % 5)],
        )
        for i in range(64)
    ]
    assert len(set(texts)) >= 50
    for text in texts + texts:  # the second pass is served from the memo
        assert np.array_equal(memo(text), HashingEmbedder()(text))


def test_compact_and_dense_forwards_agree_bit_for_bit(env):
    texts = {""}  # the empty text's basis vector e0 too
    for i, prompt in enumerate(generate_corpus(3, 30, 1, 6, editing_prob=0.25)):
        state = env.reset(prompt)
        texts.add(state.serialized)

        def visit(state, action, reward, state2, next_mask):
            texts.add(state2.serialized)
            return True

        run_episode(env, RandomPolicy(), prompt, seed=i, on_step=visit)
    assert len(texts) >= 40
    memo = HashingEmbedder()
    nets = [QNetwork((EMBED_DIM, 64, 64, 12), seed=4), QNetwork((EMBED_DIM, 64, 64, 12), seed=4, dtype=np.float64)]
    mask = np.ones(12, dtype=bool)
    mask[:7] = False
    for text in sorted(texts) * 2:  # the second pass is served from the memo
        dense = memo(text)
        x, cols = memo.compact(text)
        assert memo.compact(text)[1] is cols
        assert np.array_equal(cols, np.flatnonzero(dense)) and np.array_equal(x, dense[cols])
        assert not x.flags.writeable and not cols.flags.writeable
        for net in nets:
            assert net.forward(x, cols).tobytes() == net.forward(dense).tobytes()
            rng = np.random.default_rng(0)
            assert select_action(net, x, mask, 0.0, rng, cols) == select_action(net, dense, mask, 0.0, rng)


@pytest.mark.parametrize("width", [EMBED_DIM - 1, EMBED_DIM + 1])
def test_network_policies_reject_a_net_of_another_input_width(width):
    net = QNetwork((width, 8, 12), seed=0)
    with pytest.raises(ValueError, match="input width"):
        GreedyPolicy(net)
