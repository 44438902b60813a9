import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qroute.embedder import EMBED_DIM, HashingEmbedder, serialize_reflection_state

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
