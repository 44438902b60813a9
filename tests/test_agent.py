import numpy as np
import pytest

from qroute.agent import (
    ReplayBuffer,
    Transition,
    select_action,
    td_targets,
    train_batch,
)
from qroute.errors import DomainError
from qroute.embedder import EMBED_DIM
from qroute.network import HIDDEN_WIDTHS, AdamState, QNetwork

from conftest import DEFAULTS, batch_of, default_epsilon


def tr(i, done=False, r=0.1, mask=(True,) * 3, n=8):
    rng = np.random.default_rng(i)
    s = rng.normal(size=n)
    s2 = rng.normal(size=n)
    return Transition(s=s / np.linalg.norm(s), a=i % 3, r=r, s2=s2 / np.linalg.norm(s2), done=done, next_mask=mask)


def test_epsilon_schedule_anchors():
    assert default_epsilon(0, 1000) == pytest.approx(1.0)
    assert default_epsilon(500, 1000) == pytest.approx(0.1)
    assert default_epsilon(250, 1000) == pytest.approx(0.55)
    assert default_epsilon(999, 1000) == pytest.approx(0.1)


def test_epsilon_closed_form_grid():
    horizon = 2000
    for step in range(0, horizon, 2):
        expected = 0.1 if step >= 1000 else 1.0 - 0.9 * step / 1000
        assert default_epsilon(step, horizon) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("step,horizon", [(-1, 100), (0, 0), (5, -2)])
def test_epsilon_domain(step, horizon):
    with pytest.raises(DomainError):
        default_epsilon(step, horizon)


def test_select_greedy_argmax():
    net = QNetwork((4, 3, 3, 4), seed=0, dtype=np.float64)
    net.weights[-1][:] = 0
    net.biases[-1][:] = np.array([0.1, 0.9, 0.3, 0.2])
    rng = np.random.default_rng(0)
    assert select_action(net, np.zeros(4), np.array([True] * 4), 0.0, rng) == 1


def test_select_respects_mask():
    net = QNetwork((4, 3, 3, 4), seed=0, dtype=np.float64)
    net.weights[-1][:] = 0
    net.biases[-1][:] = np.array([0.1, 0.9, 0.3, 0.2])
    rng = np.random.default_rng(0)
    mask = np.array([True, False, True, True])
    assert select_action(net, np.zeros(4), mask, 0.0, rng) == 2


def test_select_empty_mask():
    net = QNetwork((4, 3, 3, 2), seed=0)
    with pytest.raises(DomainError, match="no legal action to select from"):
        select_action(net, np.zeros(4), np.zeros(2, dtype=bool), 0.5, np.random.default_rng(0))


def test_select_exploration_uniform_chi_square():
    net = QNetwork((4, 3, 3, 6), seed=0)
    mask = np.array([True, False, True, True, False, True])
    legal = np.flatnonzero(mask)
    rng = np.random.default_rng(7)
    counts = np.zeros(6)
    n = 10_000
    for _ in range(n):
        counts[select_action(net, np.zeros(4), mask, 1.0, rng)] += 1
    assert counts[~mask].sum() == 0
    expected = n / legal.size
    chi2 = float(((counts[legal] - expected) ** 2 / expected).sum())
    # chi-square with 3 dof: mean 3, sd sqrt(6); 3 sigma above the mean
    assert chi2 < 3 + 3 * np.sqrt(6)


def test_td_targets_bellman_cases():
    net = QNetwork((8, 4, 4, 3), seed=0, dtype=np.float64)
    for w in net.weights:
        w[:] = 0
    net.biases[-1][:] = np.array([0.2, 1.0, 0.7])
    batch = batch_of([tr(1, done=False, r=0.5), tr(2, done=True, r=0.95)], net)
    y = td_targets(batch, gamma=0.99)
    assert y[0] == pytest.approx(0.5 + 0.99 * 1.0)  # 1.49
    assert y[1] == pytest.approx(0.95)
    y0 = td_targets(batch, gamma=0.0)
    assert y0 == pytest.approx([0.5, 0.95])


def test_td_targets_respect_successor_mask():
    net = QNetwork((8, 4, 4, 3), seed=0, dtype=np.float64)
    for w in net.weights:
        w[:] = 0
    net.biases[-1][:] = np.array([0.2, 1.0, 0.7])
    batch = batch_of([tr(3, done=False, r=0.0, mask=(True, False, True))], net)
    y = td_targets(batch, gamma=1.0)
    assert y[0] == pytest.approx(0.7)  # the global max (1.0) is masked out


def reference_td_targets(batch, target_net, gamma):
    """The Bellman targets one transition at a time, over one batched
    forward pass (a one-row pass may round differently)."""
    q2 = np.asarray(target_net.forward(np.stack([t.s2 for t in batch])), dtype=np.float64)
    y = []
    for t, row in zip(batch, q2):
        if t.done:
            y.append(t.r)
            continue
        legal = np.flatnonzero(t.next_mask)
        y.append(t.r + gamma * (float(row[legal].max()) if legal.size else 0.0))
    return np.array(y, dtype=np.float64)


@pytest.mark.parametrize("gamma", [0.0, 0.99])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_td_targets_match_per_transition_reference_bit_for_bit(gamma, dtype):
    net = QNetwork((8, 6, 6, 5), seed=4, dtype=dtype)
    rng = np.random.default_rng(21)
    for trial in range(40):
        batch = []
        for i in range(int(rng.integers(1, 17))):
            # every third successor mask is all false; some rows are terminal
            mask = rng.random(5) < 0.5 if i % 3 else np.zeros(5, dtype=bool)
            batch.append(
                Transition(
                    s=rng.normal(size=8),
                    a=int(rng.integers(0, 5)),
                    r=float(rng.normal()),
                    s2=rng.normal(size=8) * 10,
                    done=bool(rng.random() < 0.3),
                    next_mask=mask,
                )
            )
        got = td_targets(batch_of(batch, net), gamma)
        want = reference_td_targets(batch, net, gamma)
        assert got.dtype == np.float64 and got.shape == (len(batch),)
        assert got.tobytes() == want.tobytes(), trial


def test_buffer_fifo_eviction():
    buf = ReplayBuffer(capacity=500, min_size=50)
    for i in range(501):
        buf.push(tr(i, r=float(i)))
    assert len(buf) == 500
    rewards = {t.r for t in buf.snapshot()}
    assert 0.0 not in rewards
    assert 500.0 in rewards


def test_buffer_refuses_below_learning_starts():
    buf = ReplayBuffer(capacity=500, min_size=50)
    buf.set_target(QNetwork((8, 4, 4, 3), seed=0))
    for i in range(49):
        buf.push(tr(i))
    with pytest.raises(DomainError, match="buffer holds 49 transitions, learning starts at 50"):
        buf.sample(16, np.random.default_rng(0))
    buf.push(tr(49))
    assert len(buf.sample(16, np.random.default_rng(0))) == 16


def test_buffer_sampling_uniform_chi_square():
    buf = ReplayBuffer(capacity=10, min_size=1)
    buf.set_target(QNetwork((8, 4, 4, 3), seed=0))
    for i in range(10):
        buf.push(tr(i, r=float(i)))
    rng = np.random.default_rng(3)
    counts = np.zeros(10)
    draws = 10_000
    for r in buf.sample(draws, rng).r:
        counts[int(r)] += 1
    expected = draws / 10
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < 9 + 3 * np.sqrt(18)


def test_sync_copies_and_freezes():
    net = QNetwork((8, 4, 4, 3), seed=1, dtype=np.float64)
    target = net.copy()
    for p, q in zip(net.parameters(), target.parameters()):
        assert np.array_equal(p, q)
    adam = AdamState(net)
    transitions = [tr(i, done=True, r=0.5) for i in range(4)]
    batch = batch_of(transitions, target)
    before = [p.copy() for p in target.parameters()]
    y1 = td_targets(batch, 0.99)
    for _ in range(10):
        train_batch(net, batch, adam, lr=1e-3, gamma=DEFAULTS.gamma)
    y2 = td_targets(batch_of(transitions, target), 0.99)
    for p, b in zip(target.parameters(), before):
        assert np.array_equal(p, b)
    assert np.array_equal(y1, y2)  # targets are a pure function of the batch between syncs


def test_training_loop_determinism():
    def run():
        net = QNetwork((8, 4, 4, 3), seed=9, dtype=np.float64)
        target = net.copy()
        adam = AdamState(net)
        buf = ReplayBuffer(capacity=64, min_size=4)
        buf.set_target(target)
        rng = np.random.default_rng(11)
        losses = []
        for i in range(120):
            buf.push(tr(i, done=(i % 3 == 0), r=float(i % 5) / 5))
            if len(buf) >= 4:
                losses.append(train_batch(net, buf.sample(8, rng), adam, lr=5e-4, gamma=DEFAULTS.gamma))
            if i % 25 == 0:
                buf.set_target(net.copy())
        return losses

    assert run() == run()


def test_train_batch_returns_pre_step_loss():
    net = QNetwork((8, 4, 4, 3), seed=3, dtype=np.float64)
    target = net.copy()
    adam = AdamState(net)
    transitions = [tr(i, done=True, r=0.9) for i in range(8)]
    q = net.forward(np.stack([t.s for t in transitions]))
    expected = float(np.mean((q[np.arange(8), [t.a for t in transitions]] - 0.9) ** 2))
    batch = batch_of(transitions, target)
    loss = train_batch(net, batch, adam, lr=5e-4, gamma=DEFAULTS.gamma)
    assert loss == pytest.approx(expected)


def sparse_tr(rng, n=40, k=4):
    """A transition whose states have a few nonzeros, some of them in
    columns no other state uses, and now and then none at all."""

    def state():
        v = np.zeros(n)
        cols = rng.choice(n, size=int(rng.integers(0, 6)), replace=False)
        v[cols] = rng.normal(size=cols.size)
        return v

    return Transition(
        s=state(),
        a=int(rng.integers(0, k)),
        r=float(rng.normal()),
        s2=state(),
        done=bool(rng.random() < 0.3),
        next_mask=rng.random(k) < 0.5,
    )


def test_sample_equals_stacking_the_same_draws_bit_for_bit():
    rng = np.random.default_rng(17)
    buf = ReplayBuffer(capacity=30, min_size=1)
    target = QNetwork((40, *HIDDEN_WIDTHS, 4), seed=2)
    buf.set_target(target)
    pushed = [sparse_tr(rng) for _ in range(75)]  # wraps the ring twice
    for i, t in enumerate(pushed):
        buf.push(t)
        # a state pushed again, as an episode's next state is its next step's state
        if i % 4 == 0:
            buf.push(Transition(t.s2, t.a, t.r, t.s, t.done, t.next_mask))
    held = buf.snapshot()
    for trial in range(20):
        size = int(rng.integers(1, 20))
        batch = buf.sample(size, np.random.default_rng(trial))
        drawn = [held[int(i)] for i in np.random.default_rng(trial).integers(0, len(buf), size=size)]
        want = batch_of(drawn, target)
        assert batch.s.cols.tobytes() == want.s.cols.tobytes()
        assert batch.s.x.tobytes() == np.ascontiguousarray(want.s.x).tobytes()
        for field in ("a", "r", "q2", "done", "next_mask"):
            got, expected = getattr(batch, field), getattr(want, field)
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes(), field


def test_state_table_holds_at_most_two_rows_per_slot():
    rng = np.random.default_rng(5)
    buf = ReplayBuffer(capacity=10, min_size=1)
    buf.set_target(QNetwork((8, 4, 4, 1), seed=0))
    most = 0
    for i in range(10_000):
        buf.push(Transition(rng.normal(size=8), 0, 0.0, rng.normal(size=8), False, (True,)))
        most = max(most, len(buf._states))
    assert most == 20
    assert len(buf.sample(4, rng)) == 4


def test_snapshot_returns_the_pushed_vectors_in_slot_order():
    buf = ReplayBuffer(capacity=4, min_size=1)
    pushed = [tr(i, r=float(i), done=i % 2 == 0) for i in range(6)]
    for t in pushed:
        buf.push(t)
    held = buf.snapshot()
    # slots 0 and 1 were overwritten by the fifth and sixth pushes
    for got, want in zip(held, [pushed[4], pushed[5], pushed[2], pushed[3]]):
        assert got.s is want.s and got.s2 is want.s2
        assert (got.a, got.r, got.done) == (want.a, want.r, want.done)
        assert tuple(got.next_mask) == want.next_mask


@pytest.mark.parametrize("sizes", [(1,), (16,), (16, 1, 5, 1), (2,)])
def test_sampled_targets_equal_a_fresh_batched_forward_bit_for_bit(sizes, monkeypatch):
    # episodes over a pool of 60 states through a ring of 12 slots, so the
    # state table (24 rows) frees rows and reuses them; the target changes
    # every 40 steps, and most steps push a successor the table does not
    # hold, so rows are computed alone when stored and all together at each
    # sync. The batch size cycles through ``sizes``, one-row samples among
    # batched ones in the third case.
    rng = np.random.default_rng(29)
    pool = []
    for _ in range(60):
        v = np.zeros(EMBED_DIM)
        cols = rng.choice(EMBED_DIM, size=int(rng.integers(3, 12)), replace=False)
        v[cols] = rng.normal(size=cols.size)
        v.flags.writeable = False
        pool.append(v)
    net = QNetwork((EMBED_DIM, *HIDDEN_WIDTHS, 12), seed=8)  # the production shape
    adam = AdamState(net)
    buf = ReplayBuffer(capacity=12, min_size=6)
    target = net.copy()
    buf.set_target(target)
    forward = QNetwork.forward

    def no_forward(self, x, cols=None):
        raise AssertionError("a sample ran a forward pass")

    s = pool[0]
    for step in range(400):
        s2 = pool[int(rng.integers(0, len(pool)))]
        done = bool(rng.random() < 0.2)
        buf.push(Transition(s, int(rng.integers(0, 12)), float(rng.normal()), s2, done, rng.random(12) < 0.6))
        s = pool[int(rng.integers(0, len(pool)))] if done else s2
        if buf.ready:
            size = sizes[step % len(sizes)]
            held = buf.snapshot()
            monkeypatch.setattr(QNetwork, "forward", no_forward)
            batch = buf.sample(size, np.random.default_rng(step))
            monkeypatch.setattr(QNetwork, "forward", forward)
            # q2 is the target's pass over the stacked sampled successors,
            # a lone successor stacked twice
            drawn = [held[int(i)] for i in np.random.default_rng(step).integers(0, len(buf), size=size)]
            want = batch_of(drawn, target)
            assert batch.q2.tobytes() == want.q2.tobytes(), step
            assert td_targets(batch, 0.99).tobytes() == td_targets(want, 0.99).tobytes(), step
            train_batch(net, batch, adam, lr=1e-2, gamma=0.99)
        if step % 40 == 38:
            target = net.copy()
            buf.set_target(target)
