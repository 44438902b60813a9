"""The benchmark's own test: every correctness check passes on genuine
output and fires on a deliberately corrupted copy of it; a round whose
program call raises is counted as failed and the run still reports; the
tracer restores the program and its self times add up.

    python3 -m pytest perfbench/test_checks.py -q
"""

import dataclasses
import json
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import bench  # noqa: E402
import checks  # noqa: E402
from tracer import SPAN_NAMES, Tracer  # noqa: E402

from qroute.config import RunConfig  # noqa: E402
from qroute.policies import OraclePolicy, RandomPolicy  # noqa: E402
from qroute.stats import wilcoxon_signed_rank  # noqa: E402


def fired(failures):
    return {f.split(":", 1)[0] for f in failures}


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    result = bench.TRAIN.train(RunConfig(seed=5, total_steps=120), out_dir=out)
    return out, result.net.parameters()


def rewrite_log(src: Path, dst: Path, edit) -> None:
    """Copy a run directory, passing every log record through ``edit``."""
    dst.mkdir()
    for name in ("checkpoint.ckpt", "metrics.jsonl", "summary.json"):
        (dst / name).write_bytes((src / name).read_bytes())
    records = [json.loads(line) for line in (src / "episodes.jsonl").read_text().splitlines()]
    edit(records)
    (dst / "episodes.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))


def first(records, kind):
    return next(r for r in records if r["kind"] == kind)


def add_to_reward(records):
    step = first(records, "step")
    step["reward"] += 0.01
    first(records, "episode")["return"] += 0.01  # keep the return consistent


def add_to_subscore(records):
    first(records, "step")["subscores"][0] += 0.4


def add_to_return(records):
    first(records, "episode")["return"] += 0.01


def mask_out_action(records):
    step = first(records, "step")
    step["mask"][step["expert"]] = False


def change_seed(records):
    first(records, "episode")["seed"] += 1


@pytest.mark.parametrize(
    "edit, check",
    [
        (add_to_reward, "reward_shaping"),
        (add_to_subscore, "raw_is_mean"),
        (add_to_return, "return_is_sum"),
        (mask_out_action, "action_legal"),
        (change_seed, "replay"),
    ],
)
def test_log_checks_fire(run, tmp_path, edit, check):
    src, params = run
    assert checks.check_run_dir(src, params, bench.make_env) == []
    rewrite_log(src, tmp_path / "bad", edit)
    assert check in fired(checks.check_run_dir(tmp_path / "bad", params, bench.make_env))


def test_checkpoint_checks_fire(run, tmp_path):
    src, params = run
    data = bytearray((src / "checkpoint.ckpt").read_bytes())
    data[100] ^= 0xFF
    (tmp_path / "flipped.ckpt").write_bytes(bytes(data))
    assert fired(checks.check_checkpoint(tmp_path / "flipped.ckpt", params)) == {"checkpoint_crc"}

    other = [p.copy() for p in params]
    other[-1][0] += 1.0
    assert fired(checks.check_checkpoint(src / "checkpoint.ckpt", other)) == {"checkpoint_reload"}


@pytest.fixture(scope="module")
def evals():
    env = bench.make_env()
    prompts = bench.heldout_prompts(7)[:48]
    run_policy = lambda policy, name: bench.EVALUATE.evaluate(env, policy, prompts, 1, 11, name=name)  # noqa: E731
    return env, prompts, {
        "random": run_policy(RandomPolicy(), "random"),
        "oracle": run_policy(OraclePolicy(env.registry), "oracle"),
        "expert_9": bench.EVALUATE.baseline_single_expert(env, 9, prompts, 1, 11),
    }


def test_same_inputs_fires(evals):
    _, prompts, pe = evals
    ids = [p.id for p in prompts]
    episodes = {name: e.episodes for name, e in pe.items()}
    assert checks.check_same_inputs(episodes, ids) == []

    reseeded = list(episodes["oracle"])
    reseeded[3] = dataclasses.replace(reseeded[3], seed=reseeded[3].seed + 1)
    assert checks.check_same_inputs({**episodes, "oracle": reseeded}, ids) == ["same_inputs: oracle"]
    assert fired(checks.check_same_inputs(episodes, ids[::-1])) == {"same_inputs"}


def test_oracle_routing_fires(evals):
    env, _, pe = evals
    oracle = pe["oracle"]
    assert checks.check_oracle(oracle.episodes, env.registry, oracle.routing_accuracy) == []
    assert fired(checks.check_oracle(pe["random"].episodes, env.registry, 1.0)) == {"oracle_routing"}
    assert fired(checks.check_oracle(oracle.episodes, env.registry, 0.9)) == {"oracle_routing"}


def test_beats_random_fires():
    assert checks.check_beats_random(1.1, 1.0) == []
    assert fired(checks.check_beats_random(1.0, 1.0)) == {"beats_random"}


@pytest.mark.parametrize(
    "pairs",
    [
        [(1.0, 0.5), (0.2, 0.4), (0.3, 0.3), (0.9, 0.4), (0.1, 0.6)],  # a zero and tied magnitudes
        [(float(i % 7), float(i % 5)) for i in range(60)],  # many ties, normal-approximation size
    ],
)
def test_signed_rank_matches_program(pairs):
    assert checks.signed_rank_w(pairs) == wilcoxon_signed_rank(pairs).statistic


def test_pooled_w_fires(evals):
    _, _, pe = evals
    pairs = checks.paired_returns(pe["oracle"].episodes, pe["expert_9"].episodes)
    w = wilcoxon_signed_rank(pairs).statistic
    outcome = SimpleNamespace(trained=pe["oracle"], baselines=[pe["expert_9"]])
    result = SimpleNamespace(outcomes=[outcome], pooled_baseline_name=pe["expert_9"].name, pooled_wilcoxon_w=w)
    assert checks.check_pooled_w(result) == []
    result.pooled_wilcoxon_w = w + 1
    assert fired(checks.check_pooled_w(result)) == {"pooled_w"}


def test_crashing_round_is_counted_and_survived(monkeypatch, capsys):
    original = bench.TRAIN.train

    def train(config, out_dir):
        if out_dir.name == "train-1":
            raise RuntimeError("injected fault")
        return original(dataclasses.replace(config, total_steps=120), out_dir=out_dir)

    monkeypatch.setattr(bench.TRAIN, "train", train)
    args = SimpleNamespace(workload="train", seed=3, seconds=1e-3, trace=0)
    assert bench.run(args, import_s=0.0) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 4, 1)
    assert result["metrics"]["steps_per_s"]["value"] > 0
    assert result["metrics"]["cpu_ms_per_step"]["value"] > 0


def test_tracer_restores_program_and_adds_up(tmp_path):
    original = bench.TRAIN.train
    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter_ns()
        bench.TRAIN.train(RunConfig(seed=2, total_steps=120), out_dir=tmp_path)
        wall = time.perf_counter_ns() - t0
    finally:
        tracer.uninstall()
    assert bench.TRAIN.train is original
    tracer.end_round(wall, wall)
    report = tracer.report()
    assert report["network.adam_step.calls"] > 0
    assert report["reflection.critic_score.calls"] == report["environment.step.calls"] == 120
    attributed = sum(report[f"{name}.self_ms"] for name in SPAN_NAMES)
    assert attributed + report["trace.unattributed_ms"] == pytest.approx(report["trace.wall_ms"])
    assert 0 <= report["trace.unattributed_ms"] < 0.05 * report["trace.wall_ms"]
