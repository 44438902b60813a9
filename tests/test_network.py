import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qroute.agent import Transition, select_action, td_targets, train_batch
from qroute.errors import NumericalError
from qroute.network import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, AdamState, QNetwork, RowGrad

from conftest import DEFAULTS, all_rows, batch_of, scatter


def naive_forward(net, x):
    """Independent per-neuron re-implementation of the forward pass."""
    h = [float(v) for v in x]
    for layer, (w, b) in enumerate(zip(net.weights, net.biases)):
        out = []
        for j in range(w.shape[1]):
            z = float(b[j])
            for i in range(w.shape[0]):
                z += h[i] * float(w[i, j])
            if layer < len(net.weights) - 1:
                z = max(z, 0.0)
            out.append(z)
        h = out
    return np.array(h)


def rand_state(rng, n):
    v = rng.normal(size=n)
    return v / np.linalg.norm(v)


def make_transition(rng, net, done=None):
    n = net.n_inputs
    k = net.n_actions
    mask = tuple(bool(b) for b in rng.random(k) < 0.7)
    if not any(mask):
        mask = (True,) + (False,) * (k - 1)
    return Transition(
        s=rand_state(rng, n),
        a=int(rng.integers(0, k)),
        r=float(rng.uniform(-0.3, 0.95)),
        s2=rand_state(rng, n),
        done=bool(rng.random() < 0.3) if done is None else done,
        next_mask=mask,
    )


def test_zero_weights_give_zero_q():
    net = QNetwork((16, 4, 4, 3), seed=0)
    for w in net.weights:
        w[:] = 0
    q = net.forward(np.ones(16))
    assert np.array_equal(q, np.zeros(3))


def test_forward_deterministic_across_instances():
    a = QNetwork((32, 8, 8, 5), seed=7)
    b = QNetwork((32, 8, 8, 5), seed=7)
    x = rand_state(np.random.default_rng(1), 32)
    assert np.array_equal(a.forward(x), b.forward(x))


def test_forward_matches_naive_oracle():
    rng = np.random.default_rng(3)
    net = QNetwork((12, 6, 6, 4), seed=11, dtype=np.float64)
    for _ in range(20):
        x = rng.normal(size=12)
        assert net.forward(x) == pytest.approx(naive_forward(net, x), abs=1e-10)


def test_sparse_first_layer_matches_naive_oracle():
    # the first layer multiplies only the columns some row uses; a row
    # with no nonzero, and a batch with none, still get the dense result
    rng = np.random.default_rng(8)
    net = QNetwork((40, 6, 6, 4), seed=12, dtype=np.float64)
    randomize_biases(net, rng)
    x = np.zeros((4, 40))
    x[0, [3, 17]] = rng.normal(size=2)
    x[1, [3, 25, 39]] = rng.normal(size=3)
    x[3, 0] = rng.normal()  # row 2 stays all zero
    for batch in (x, np.zeros((3, 40))):
        q = net.forward(batch)
        for row, q_row in zip(batch, q):
            assert q_row == pytest.approx(naive_forward(net, row), abs=1e-10)
    assert net.forward(x[1]) == pytest.approx(naive_forward(net, x[1]), abs=1e-10)


def test_rows_no_input_reaches_stay_out_of_every_product():
    # NaN in the first-layer rows of the columns no input touches: a dense
    # product would spread them (0 * NaN = NaN) into q, the gradients and
    # the Adam step
    net = QNetwork((32, 8, 8, 4), seed=2)
    adam = AdamState(net)
    rng = np.random.default_rng(6)
    s = np.zeros((5, 32), dtype=np.float32)
    for row in s:
        row[rng.choice(16, size=3, replace=False)] = rng.normal(size=3)
    untouched = ~s.any(axis=0)
    net.weights[0][untouched] = np.nan
    before = [a[untouched].copy() for a in (net.weights[0], adam.m[0], adam.v[0])]
    q, cache = net.forward_cached(s)
    assert np.isfinite(q).all()
    grads = net.backward(cache, rng.normal(size=q.shape))
    assert all(np.isfinite(g.values if isinstance(g, RowGrad) else g).all() for g in grads)
    written = adam.step(net, grads, lr=1e-2)
    net.check_finite(written)
    for a, b in zip((net.weights[0], adam.m[0], adam.v[0]), before):
        assert_bits_equal(a[untouched], b)
    assert adam.v[0][~untouched].any(axis=1).all()
    with pytest.raises(NumericalError):
        net.check_finite()  # the sentinels are still there


def test_glorot_initialization_bounds():
    net = QNetwork((50, 10, 10, 3), seed=0)
    for w, (fan_in, fan_out) in zip(net.weights, zip(net.layer_sizes[:-1], net.layer_sizes[1:])):
        limit = np.sqrt(6 / (fan_in + fan_out))
        assert np.abs(w).max() <= limit
    for b in net.biases:
        assert np.array_equal(b, np.zeros_like(b))


def randomize_biases(net, rng):
    # gradient checks need generic points: zero biases put dead rows
    # exactly on the rectifier kink where finite differences measure a
    # subgradient average instead of the one-sided derivative
    for b in net.biases:
        b[:] = rng.uniform(-0.5, 0.5, size=b.shape)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(5)
    failures = 0
    for case in range(15):
        net = QNetwork((8, 4, 4, 3), seed=case, dtype=np.float64)
        randomize_biases(net, rng)
        target = QNetwork((8, 4, 4, 3), seed=case + 99, dtype=np.float64)
        randomize_biases(target, rng)
        batch = [make_transition(rng, net) for _ in range(5)]
        y = td_targets(batch_of(batch, target), 0.99)
        s = np.stack([t.s for t in batch])
        a = np.array([t.a for t in batch])
        q, cache = net.forward_cached(s)
        err = q[np.arange(len(batch)), a] - y
        dq = np.zeros_like(q)
        dq[np.arange(len(batch)), a] = 2 * err / len(batch)
        grads = scatter(net.parameters(), net.backward(cache, dq))

        def loss():
            qq = net.forward(s)
            e = qq[np.arange(len(batch)), a] - y
            return float(np.mean(e**2))

        h = 1e-5
        for p, g in zip(net.parameters(), grads):
            flat_p = p.reshape(-1)
            flat_g = g.reshape(-1)
            for idx in rng.choice(flat_p.size, size=min(4, flat_p.size), replace=False):
                old = flat_p[idx]
                flat_p[idx] = old + h
                lp = loss()
                flat_p[idx] = old - h
                lm = loss()
                flat_p[idx] = old
                fd = (lp - lm) / (2 * h)
                an = flat_g[idx]
                rel = abs(fd - an) / max(1e-8, abs(fd) + abs(an))
                if rel > 1e-4:
                    failures += 1
    assert failures == 0


def test_zero_gradient_fixed_point_up_to_adam_epsilon_drift():
    net = QNetwork((8, 4, 4, 3), seed=2, dtype=np.float64)
    adam = AdamState(net)
    rng = np.random.default_rng(0)
    tr = make_transition(rng, net, done=True)
    q = net.forward(tr.s)
    tr = Transition(tr.s, tr.a, float(q[tr.a]), tr.s2, True, tr.next_mask)  # target == prediction
    before = [p.copy() for p in net.parameters()]
    loss = train_batch(net, batch_of([tr] * 4, net.copy()), adam, lr=5e-4, gamma=0.99)
    assert loss == pytest.approx(0.0, abs=1e-18)
    for p, b in zip(net.parameters(), before):
        assert np.max(np.abs(p - b)) < 1e-8


def test_single_transition_training_converges_monotonically():
    net = QNetwork((8, 4, 4, 3), seed=4, dtype=np.float64)
    target = net.copy()
    adam = AdamState(net)
    rng = np.random.default_rng(9)
    tr = make_transition(rng, net, done=True)
    tr = Transition(tr.s, tr.a, 0.5, tr.s2, True, tr.next_mask)
    batch = batch_of([tr] * 4, target)
    losses = [train_batch(net, batch, adam, lr=5e-4, gamma=0.99) for _ in range(500)]
    floor = 1e-6  # below this Adam's momentum wiggles around exact zero
    settled = next(i for i, v in enumerate(losses) if v < floor)
    assert all(losses[i + 1] <= losses[i] for i in range(settled))
    assert losses[-1] < 1e-6
    assert losses[-1] < 1e-4 * losses[0]


def test_adam_single_step_matches_hand_computation():
    net = QNetwork((2, 2, 2, 1), seed=0, dtype=np.float64)
    adam = AdamState(net)
    params = net.parameters()
    grads = [np.full_like(p, 0.5) for p in params]
    before = [p.copy() for p in params]
    adam.step(net, all_rows(grads), lr=1e-3)
    m_hat = (0.5 * (1 - ADAM_BETA1)) / (1 - ADAM_BETA1)
    v_hat = (0.25 * (1 - ADAM_BETA2)) / (1 - ADAM_BETA2)
    expected_delta = 1e-3 * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    for p, b in zip(params, before):
        assert p == pytest.approx(b - expected_delta, rel=1e-12)


def test_non_finite_parameters_abort():
    net = QNetwork((8, 4, 4, 3), seed=1)
    net.weights[0][0, 0] = np.nan
    with pytest.raises(NumericalError):
        net.check_finite()


def test_non_finite_loss_aborts():
    net = QNetwork((8, 4, 4, 3), seed=1, dtype=np.float64)
    net.weights[-1][:] = np.inf
    rng = np.random.default_rng(0)
    tr = make_transition(rng, net, done=True)
    with pytest.raises(NumericalError):
        train_batch(net, batch_of([tr], net.copy()), AdamState(net), lr=5e-4, gamma=DEFAULTS.gamma)


@given(
    st.lists(st.integers(min_value=-10_000, max_value=10_000), min_size=5, max_size=5),
    st.integers(min_value=-1000, max_value=1000),
    st.lists(st.booleans(), min_size=5, max_size=5),
)
@settings(max_examples=80, deadline=None)
def test_masked_argmax_shift_invariance(qs, shift, mask):
    if not any(mask):
        mask[2] = True
    q = np.array(qs, dtype=np.float64) / 1000.0

    class Fixed:
        n_inputs = 4

        def forward(self, s, cols=None):
            return q + s[0]

    net = Fixed()
    rng = np.random.default_rng(0)
    base = select_action(net, np.zeros(4), np.array(mask), 0.0, rng)
    shifted = select_action(net, np.full(4, float(shift)), np.array(mask), 0.0, rng)
    assert base == shifted


def dense_adam_step(params, grads, ms, vs, t, lr):
    """Reference Adam over every element, as the optimizer ran before it
    skipped untouched rows."""
    b1t = 1.0 - ADAM_BETA1**t
    b2t = 1.0 - ADAM_BETA2**t
    for p, g, m, v in zip(params, grads, ms, vs):
        g = g.astype(p.dtype, copy=False)
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * np.square(g)
        m_hat = m / b1t
        v_hat = v / b2t
        p -= (lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)).astype(p.dtype, copy=False)


def row_sparse_grads(rng, params, rows_by_param):
    """float32 gradients with random values on the given rows of each matrix
    and on every vector. The first matrix's is a ``RowGrad``; each later
    matrix's is an array whose other rows hold +0.0 or -0.0, a random sign
    per row, as a dense matmul can leave them."""
    grads = []
    for p, rows in zip(params, rows_by_param):
        if p.ndim == 1:
            grads.append(rng.normal(size=p.shape).astype(np.float32))
            continue
        values = rng.normal(size=(len(rows), p.shape[1])).astype(np.float32)
        if not grads:
            grads.append(RowGrad(np.asarray(rows), values))
            continue
        g = np.zeros(p.shape, dtype=np.float32)
        g[rng.random(p.shape[0]) < 0.5] = -0.0
        g[rows] = values
        grads.append(g)
    return grads


def zeroed(grads):
    """The same rows given, every value +0.0 or -0.0 with the sign of the
    value it replaces."""
    return [RowGrad(g.rows, g.values * 0) if isinstance(g, RowGrad) else g * 0 for g in grads]


def reference_grads(rng, params, grads):
    """The row-sparse gradients scattered over -0.0 or +0.0, as a dense
    matmul can leave the rows no input reaches."""
    return scatter(params, grads, fill=-0.0 if rng.random() < 0.5 else 0.0)


def sparse_schedule(rng, params, step):
    """Rows touched at ``step``: two of the first half of each matrix before
    step 10, two of the second half from then on."""
    out = []
    for p in params:
        half = p.shape[0] // 2
        lo, hi = (0, half) if step < 10 else (half, p.shape[0])
        out.append(rng.choice(np.arange(lo, hi), size=2, replace=False) if p.ndim == 2 else None)
    return out


def assert_bits_equal(a, b):
    assert np.array_equal(a.view(np.uint32), b.view(np.uint32))


def test_row_sparse_adam_matches_dense_reference_bit_for_bit():
    # the first matrix row-sparse, the tail after it in one dense update:
    # both must equal a dense per-parameter Adam, bit for bit, through zero
    # and -0.0 gradient rows and rows going quiet
    net = QNetwork((32, 8, 8, 4), seed=3)
    ref = net.copy()
    adam = AdamState(net)
    ref_m = [np.zeros_like(p) for p in ref.parameters()]
    ref_v = [np.zeros_like(p) for p in ref.parameters()]
    rng = np.random.default_rng(11)
    saw_negative_zero = False
    for step in range(1, 25):
        grads = row_sparse_grads(rng, net.parameters(), sparse_schedule(rng, net.parameters(), step))
        if step == 12:  # a step where every gradient is zero
            grads = zeroed(grads)
        saw_negative_zero |= any(np.signbit(g[g == 0]).any() for g in grads[1:])
        adam.step(net, grads, lr=1e-2)
        dense_adam_step(ref.parameters(), reference_grads(rng, ref.parameters(), grads), ref_m, ref_v, step, lr=1e-2)
        for a, b in zip(net.parameters() + adam.m + adam.v, ref.parameters() + ref_m + ref_v):
            assert_bits_equal(a, b)
    assert saw_negative_zero
    # the first matrix kept untouched rows, and rows that went quiet at step 10
    touched = adam.v[0].any(axis=1)
    assert not touched.all()
    assert touched[:16].any()


def test_nan_gradient_on_untouched_row_poisons_like_dense():
    net = QNetwork((16, 4, 4, 3), seed=1)
    ref = net.copy()
    adam = AdamState(net)
    ref_m = [np.zeros_like(p) for p in ref.parameters()]
    ref_v = [np.zeros_like(p) for p in ref.parameters()]
    rng = np.random.default_rng(2)
    for step in range(1, 4):
        rows = [[0, 1] if p.ndim == 2 else None for p in net.parameters()]
        grads = row_sparse_grads(rng, net.parameters(), rows)
        adam.step(net, grads, lr=1e-2)
        dense_adam_step(ref.parameters(), scatter(ref.parameters(), grads), ref_m, ref_v, step, lr=1e-2)
    assert not adam.m[0][9].any()  # row 9 never had a gradient
    # the step gives row 9 of the first matrix, with a NaN in it
    grads = zeroed(grads)
    nan_row = np.zeros((1, 4), dtype=np.float32)
    nan_row[0, 2] = np.nan
    grads[0] = RowGrad(np.array([9]), nan_row)
    written = adam.step(net, grads, lr=1e-2)
    dense_adam_step(ref.parameters(), scatter(ref.parameters(), grads), ref_m, ref_v, 4, lr=1e-2)
    for a, b in zip(net.parameters() + adam.m + adam.v, ref.parameters() + ref_m + ref_v):
        assert np.array_equal(a, b, equal_nan=True)
    assert np.isnan(net.weights[0][9]).any()
    assert 9 in written
    with pytest.raises(NumericalError):
        net.check_finite(written)


def test_check_finite_reads_the_written_rows_and_the_tail():
    # a NaN gradient in the last bias reaches the parameters through the
    # tail update; a NaN in a first-layer row no input reaches is not a
    # row the step wrote
    net = QNetwork((16, 4, 4, 3), seed=5)
    adam = AdamState(net)
    rng = np.random.default_rng(3)
    net.weights[0][15] = np.nan
    grads = row_sparse_grads(rng, net.parameters(), [[0, 1], None, [0, 1], None, [0, 1], None])
    net.check_finite(adam.step(net, grads, lr=1e-2))
    grads[-1][1] = np.nan
    written = adam.step(net, grads, lr=1e-2)
    assert np.isnan(net.biases[-1][1])
    with pytest.raises(NumericalError):
        net.check_finite(written)
    net.biases[-1][1] = 0.0
    net.check_finite(written)
    with pytest.raises(NumericalError):
        net.check_finite()  # the whole buffer holds the unreached NaN row


def test_parameters_are_views_of_one_buffer():
    net = QNetwork((6, 4, 3, 2), seed=1)
    params = net.parameters()
    assert [p.shape for p in params] == [(6, 4), (4,), (4, 3), (3,), (3, 2), (2,)]
    assert all(a is b for a, b in zip(params, [x for pair in zip(net.weights, net.biases) for x in pair]))
    assert all(p.base is net.flat for p in params)
    assert np.array_equal(np.concatenate([p.reshape(-1) for p in params]), net.flat)
    copy = net.copy()
    assert not np.shares_memory(copy.flat, net.flat)
    assert all(np.array_equal(a, b) for a, b in zip(copy.parameters(), params))
    built = QNetwork.from_flat(net.layer_sizes, copy.flat)
    assert built.flat is copy.flat and built.layer_sizes == net.layer_sizes
    with pytest.raises(ValueError):
        QNetwork.from_flat(net.layer_sizes, net.flat[1:])
    # the moments share the layout, and only a step writes them
    adam = AdamState(net)
    assert [m.shape for m in adam.m] == [v.shape for v in adam.v] == [p.shape for p in params]
    with pytest.raises(AttributeError):
        setattr(adam, "m", [np.zeros_like(p) for p in params])
    with pytest.raises(AttributeError):
        setattr(adam, "v", [np.zeros_like(p) for p in params])


def test_compact_adam_with_rows_going_live_late_and_out_of_order():
    # rows 30, 2 and 17 of the first matrix go live at steps 1, 7 and 20;
    # row 17 is given with zeros before that, and row 30 goes quiet. The
    # moments hold exactly the tail and the live rows, in the order they
    # went live, and equal dense Adam's bit for bit
    net = QNetwork((32, 8, 8, 4), seed=6)
    ref = net.copy()
    adam = AdamState(net)
    ref_m = [np.zeros_like(p) for p in ref.parameters()]
    ref_v = [np.zeros_like(p) for p in ref.parameters()]
    rng = np.random.default_rng(13)
    tail = net.flat.size - net.weights[0].size
    joins = {1: 30, 7: 2, 20: 17}
    live: list[int] = []
    for step in range(1, 31):
        if step in joins:
            live.append(joins[step])
        given = sorted(r for r in live if not (r == 30 and 10 <= step < 15))
        grads = row_sparse_grads(rng, net.parameters(), [given, None, [1, 5], None, [0, 6], None])
        if 4 <= step < 20:  # row 17 given, but only zeros
            rows = np.append(grads[0].rows, 17)
            grads[0] = RowGrad(rows, np.vstack([grads[0].values, -np.zeros((1, 8), dtype=np.float32)]))
        written = adam.step(net, grads, lr=1e-2)
        net.check_finite(written)
        dense_adam_step(ref.parameters(), reference_grads(rng, ref.parameters(), grads), ref_m, ref_v, step, lr=1e-2)
        for a, b in zip(net.parameters() + adam.m + adam.v, ref.parameters() + ref_m + ref_v):
            assert_bits_equal(a, b)
        assert adam.live_rows.tolist() == live and sorted(written) == sorted(live)
        for block, dense in ((adam._m, ref_m), (adam._v, ref_v)):
            want = np.concatenate([np.concatenate([d.reshape(-1) for d in dense[1:]]), dense[0][live].reshape(-1)])
            assert block.size == tail + 8 * len(live)
            assert_bits_equal(block, want)
    # a NaN in a row no step wrote stays out of the check of a step's rows
    net.weights[0][25] = np.nan
    net.check_finite(adam.step(net, zeroed(grads), lr=1e-2))
    with pytest.raises(NumericalError):
        net.check_finite()
    net.weights[0][25] = ref.weights[0][25]
    dense_adam_step(ref.parameters(), scatter(ref.parameters(), zeroed(grads)), ref_m, ref_v, 31, lr=1e-2)
    # a NaN gradient on a row never written before poisons it as dense Adam does
    grads = zeroed(grads)
    grads[0] = RowGrad(np.array([9, 30]), np.array([[np.nan] + [0.0] * 7, [0.5] * 8], dtype=np.float32))
    written = adam.step(net, grads, lr=1e-2)
    dense_adam_step(ref.parameters(), scatter(ref.parameters(), grads), ref_m, ref_v, 32, lr=1e-2)
    for a, b in zip(net.parameters() + adam.m + adam.v, ref.parameters() + ref_m + ref_v):
        assert np.array_equal(a, b, equal_nan=True)
    assert adam.live_rows.tolist() == live + [9] and np.isnan(net.weights[0][9, 0])
    with pytest.raises(NumericalError):
        net.check_finite(written)
