"""Acceptance gate: one test per shipping criterion, each printing a
PASS/FAIL line with its elapsed time. Run with `pytest tests/test_acceptance.py -s`.

Criterion 9's loss-shape clause is implemented exactly as stated and is
expected to fail on the default configuration; see the analysis in the
repository notes. Everything else must be green.
"""

import itertools
import time

import numpy as np
import pytest

from qroute.agent import ReplayBuffer, Transition, select_action
from qroute.config import RunConfig
from qroute.embedder import EMBED_DIM, embed
from qroute.environment import shape_reward
from qroute.errors import DomainError
from qroute.network import HIDDEN_WIDTHS, QNetwork
from qroute.policies import GreedyPolicy, RandomPolicy, run_episode
from qroute.simworld import generate_corpus
from qroute.stats import win_rate, wilcoxon_signed_rank
from qroute.train import train

from conftest import DEFAULTS, batch_of, default_epsilon, scatter


class Criterion:
    def __init__(self, number, title):
        self.number = number
        self.title = title
        self.t0 = time.perf_counter()

    def finish(self, passed, detail=""):
        elapsed = time.perf_counter() - self.t0
        verdict = "PASS" if passed else "FAIL"
        print(f"CRITERION {self.number} {verdict} ({elapsed:.2f}s) {self.title} {detail}".rstrip())
        return elapsed


@pytest.fixture(scope="module")
def default_experiment():
    from qroute.experiment import run_learning_experiment

    t0 = time.perf_counter()
    result = run_learning_experiment()
    result.elapsed = time.perf_counter() - t0
    return result


@pytest.fixture(scope="module")
def default_run():
    return train(RunConfig(seed=1))


@pytest.fixture(scope="module")
def random_trace():
    """One shared random-policy trace: at least 10,000 steps spanning at
    least 1,000 episodes on the default world across every difficulty."""
    cfg = RunConfig()
    world = cfg.environment()
    prompts = generate_corpus(101, 400, 1, 6)
    episodes = []
    steps = 0
    i = 0
    while steps < 10_000 or len(episodes) < 1000:
        rec = run_episode(world, RandomPolicy(), prompts[i % len(prompts)], seed=i, episode_id=i)
        episodes.append(rec)
        steps += rec.length
        i += 1
    return episodes


def test_criterion_1_reward_shaping_exactness(random_trace):
    c = Criterion(1, "reward shaping exactness and bounds")
    t0 = time.perf_counter()
    for raw in range(11):
        for t in range(1, 7):
            assert abs(shape_reward(float(raw), t, DEFAULTS.step_penalty, DEFAULTS.t_max) - (raw / 10 - 0.05 * t)) <= 1e-12
    steps = 0
    for rec in random_trace:
        for s in rec.steps:
            assert -0.30 - 1e-12 <= s.reward <= 0.95 + 1e-12
        steps += rec.length
    assert steps >= 10_000
    elapsed = time.perf_counter() - t0
    c.finish(True, f"[{steps} steps]")
    assert elapsed < 1.0


def epsilon_greedy(net, epsilon):
    """A policy that explores with probability ``epsilon`` from the policy stream."""

    def policy(state, mask, rng):
        x, cols = embed.compact(state.serialized)
        return select_action(net, x, mask, epsilon, rng, cols)

    return policy


def test_criterion_2_masking_soundness(env):
    c = Criterion(2, "zero illegal actions across 10,000 steps")
    prompts = generate_corpus(103, 300, 1, 6)
    net = QNetwork((EMBED_DIM, *HIDDEN_WIDTHS, env.n_actions), seed=0)
    policies = [RandomPolicy(), GreedyPolicy(net), epsilon_greedy(net, 0.3)]
    steps = 0
    i = 0
    t0 = time.perf_counter()
    while steps < 10_000:
        policy = policies[i % 3]
        rec = run_episode(env, policy, prompts[i % len(prompts)], seed=i, episode_id=i)
        blank_start = prompts[i % len(prompts)].initial_canvas is None
        for s in rec.steps:
            legal = {j for j, m in enumerate(s.mask) if m}
            assert s.expert in legal
            if s.t == 1 and blank_start:
                assert legal == {0, 1, 2, 3, 4, 5, 6}
            else:
                assert legal == {7, 8, 9, 10, 11}
        steps += rec.length
        i += 1
    elapsed = time.perf_counter() - t0
    c.finish(True, f"[{steps} steps]")
    assert elapsed < 10.0


def test_criterion_3_attempt_policy(random_trace):
    c = Criterion(3, "attempt cap over 1,000 episodes")
    t0 = time.perf_counter()
    abandoned_total = 0
    episodes = random_trace[:1000] if len(random_trace) >= 1000 else random_trace
    assert len(episodes) >= 1000
    for rec in episodes:
        executions = {}
        abandoned = []
        for s in rec.steps:
            executions[s.command_id] = executions.get(s.command_id, 0) + 1
            assert s.attempts <= 2  # third try carries counter 2; no fourth try exists
            if s.abandoned_command is not None:
                abandoned.append(s.abandoned_command)
        for cid, n in executions.items():
            assert n <= 3
        for cid in abandoned:
            assert executions[cid] == 3
        abandoned_total += len(abandoned)
    elapsed = time.perf_counter() - t0
    assert abandoned_total > 0  # the cap path is actually exercised
    c.finish(True, f"[{abandoned_total} abandoned commands]")
    assert elapsed < 30.0


def test_criterion_4_gradient_correctness():
    c = Criterion(4, "analytic gradients vs central differences")
    rng = np.random.default_rng(404)
    t0 = time.perf_counter()
    worst = 0.0
    for case in range(100):
        net = QNetwork((8, 4, 4, 3), seed=case, dtype=np.float64)
        target = QNetwork((8, 4, 4, 3), seed=1000 + case, dtype=np.float64)
        for b in itertools.chain(net.biases, target.biases):
            b[:] = rng.uniform(-0.5, 0.5, size=b.shape)
        batch = []
        for _ in range(4):
            s = rng.normal(size=8)
            s2 = rng.normal(size=8)
            mask = tuple(bool(x) for x in rng.random(3) < 0.7)
            if not any(mask):
                mask = (True, False, False)
            batch.append(
                Transition(
                    s=s / np.linalg.norm(s), a=int(rng.integers(0, 3)),
                    r=float(rng.uniform(-0.3, 0.95)), s2=s2 / np.linalg.norm(s2),
                    done=bool(rng.random() < 0.4), next_mask=mask,
                )
            )
        from qroute.agent import td_targets

        y = td_targets(batch_of(batch, target), 0.99)
        s = np.stack([t.s for t in batch])
        a = np.array([t.a for t in batch])
        q, cache = net.forward_cached(s)
        err = q[np.arange(len(batch)), a] - y
        dq = np.zeros_like(q)
        dq[np.arange(len(batch)), a] = 2 * err / len(batch)
        grads = scatter(net.parameters(), net.backward(cache, dq))

        def loss():
            e = net.forward(s)[np.arange(len(batch)), a] - y
            return float(np.mean(e**2))

        h = 1e-5
        for p, g in zip(net.parameters(), grads):
            fp, fg = p.reshape(-1), g.reshape(-1)
            for idx in range(fp.size):
                old = fp[idx]
                fp[idx] = old + h
                lp = loss()
                fp[idx] = old - h
                lm = loss()
                fp[idx] = old
                fd = (lp - lm) / (2 * h)
                rel = abs(fd - fg[idx]) / max(1e-8, abs(fd) + abs(fg[idx]))
                worst = max(worst, rel)
        assert worst <= 1e-4, f"case {case}: relative error {worst}"
    elapsed = time.perf_counter() - t0
    c.finish(True, f"[max rel err {worst:.2e}]")
    assert elapsed < 30.0


def test_criterion_5_schedule_and_buffer():
    c = Criterion(5, "exploration schedule and replay buffer exactness")
    t0 = time.perf_counter()
    horizon = 1000
    for step in range(0, horizon):
        expected = 0.1 if step >= 500 else 1.0 + (0.1 - 1.0) * step / 500
        assert default_epsilon(step, horizon) == pytest.approx(expected, abs=1e-12)
    buf = ReplayBuffer(capacity=500, min_size=50)
    for i in range(49):
        buf.push(_tr(i))
    with pytest.raises(DomainError, match="buffer holds 49 transitions, learning starts at 50"):
        buf.sample(16, np.random.default_rng(0))
    for i in range(49, 700):
        buf.push(_tr(i))
    assert len(buf) == 500
    kept = sorted(int(t.r) for t in buf.snapshot())
    assert kept == list(range(200, 700))  # strict FIFO eviction
    elapsed = time.perf_counter() - t0
    c.finish(True)
    assert elapsed < 5.0


def _tr(i):
    v = np.zeros(4)
    return Transition(s=v, a=0, r=float(i), s2=v, done=True, next_mask=(True,))


def brute_force_signed_rank(pairs):
    diffs = [x - y for x, y in pairs if x != y]
    n = len(diffs)
    mags = sorted((abs(d), i) for i, d in enumerate(diffs))
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and mags[j + 1][0] == mags[i][0]:
            j += 1
        avg = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[mags[k][1]] = avg
        i = j + 1
    w_plus = sum(r for r, d in zip(ranks, diffs) if d > 0)
    w_minus = sum(r for r, d in zip(ranks, diffs) if d < 0)
    observed = min(w_plus, w_minus)
    count = sum(
        1
        for signs in itertools.product((1, -1), repeat=n)
        if min(
            sum(r for r, s in zip(ranks, signs) if s > 0),
            sum(r for r, s in zip(ranks, signs) if s < 0),
        )
        <= observed + 1e-12
    )
    return observed, count / 2**n


def test_criterion_6_wilcoxon_oracle_equivalence():
    c = Criterion(6, "exact signed-rank p matches enumeration oracle")
    rng = np.random.default_rng(606)
    t0 = time.perf_counter()
    checked = 0
    for _ in range(200):
        n = int(rng.integers(1, 13))
        x = rng.normal(size=n)
        y = x + rng.choice([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0], size=n)
        pairs = list(zip(x.tolist(), y.tolist()))
        if all(a == b for a, b in pairs):
            continue
        res = wilcoxon_signed_rank(pairs)
        w_oracle, p_oracle = brute_force_signed_rank(pairs)
        assert res.exact
        assert res.statistic == pytest.approx(w_oracle)
        assert res.pvalue == pytest.approx(p_oracle)
        checked += 1
    res = wilcoxon_signed_rank([(float(i + 2), 1.0) for i in range(5)])
    assert res.pvalue == pytest.approx(0.0625)
    elapsed = time.perf_counter() - t0
    c.finish(True, f"[{checked} pair lists]")
    assert elapsed < 60.0


def test_criterion_7_win_rate_anchors():
    c = Criterion(7, "win-rate anchor values")
    rate, se = win_rate([True] * 20 + [False] * 10)
    ok = (f"{rate:.2f}", f"{se:.2f}") == ("0.67", "0.09")
    rate, se = win_rate([True] * 29 + [False])
    ok = ok and (f"{rate:.2f}", f"{se:.2f}") == ("0.97", "0.03")
    c.finish(ok)
    assert ok


def test_criterion_8_learning_thesis(default_experiment):
    r = default_experiment
    beats = r.seeds_beating_best
    routing = r.routing_accuracy
    ok = beats >= 4 and r.pooled_wilcoxon_p < 0.05 and routing is not None and routing >= 0.80
    detail = (
        f"[beats {beats}/5, pooled p {r.pooled_wilcoxon_p:.2e}, "
        f"routing {100 * routing:.1f}%, {r.elapsed:.0f}s]"
    )
    Criterion(8, "trained policy beats every single-expert baseline").finish(ok, detail)
    assert r.elapsed < 600.0
    assert beats >= 4
    assert r.pooled_wilcoxon_p < 0.05
    assert routing >= 0.80


def test_criterion_9_convergence_shape(default_run):
    c = Criterion(9, "loss decile ratio and reward-curve band")
    res = default_run
    n = res.config.total_steps
    tenth = n // 10
    first = [m.loss for m in res.metrics if m.step <= tenth and m.loss is not None]
    last = [m.loss for m in res.metrics if m.step > n - tenth and m.loss is not None]
    ratio = float(np.mean(last) / np.mean(first))
    cum = res.cumulative_average_reward()
    quarter = cum[-(n // 4):]
    max_drop = float(np.max(np.maximum.accumulate(quarter) - quarter))
    ok = ratio < 0.20 and max_drop <= 0.02
    c.finish(ok, f"[final/first decile {ratio:.3f}, band drop {max_drop:.4f}]")
    assert max_drop <= 0.02
    # Honest red, bounded by target noise. Expert calls succeed or fail at
    # random, so one (state, action) yields different one-sample TD targets.
    # At the end of this run their within-(state, action) variance over the
    # replay buffer is 0.231, a loss no value function of (state, action)
    # can beat; the last-decile loss is 0.270 and the first decile's 0.180,
    # so the ratio would need a last-decile loss below 0.036. At 3000 steps
    # the targets have levelled off and the ratio is 2.86 (floor 0.201,
    # last-decile loss 0.214). The README gives the full account.
    assert ratio < 0.20


def test_criterion_10_determinism(tmp_path):
    c = Criterion(10, "byte-identical logs and checkpoints across runs")
    cfg = RunConfig(seed=12)
    train(cfg, out_dir=tmp_path / "a")
    train(cfg, out_dir=tmp_path / "b")
    same = True
    for name in ("checkpoint.ckpt", "episodes.jsonl", "metrics.jsonl", "summary.json"):
        same = same and (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    c.finish(same)
    assert same
