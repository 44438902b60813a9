import json
import struct
import zlib
from dataclasses import replace

import numpy as np
import pytest

from qroute.checkpoint import MAGIC, save_checkpoint
from qroute.cli import main as cli_main
from qroute.config import RunConfig, config_from_dict, load_config
from qroute.core import TaskCategory
from qroute.errors import ConfigError, DomainError, LogParseError
from qroute.evaluate import baseline_single_expert, build_report, evaluate, paired_returns, render_report
from qroute.logs import read_episode_log, write_episode_log, write_prompts
from qroute.network import QNetwork
from qroute.policies import OraclePolicy, RandomPolicy, SingleExpertPolicy, episode_streams, run_episode
from qroute.simworld import generate_corpus
from qroute.stats import wilcoxon_signed_rank, win_rate
from qroute.train import train

from conftest import atom, make_prompt

_C = TaskCategory


def uniform_profiles(mean=8.0, sigma=0.0, failure=0.0):
    profiles = []
    for i in range(12):
        profiles.append(
            {
                "index": i,
                "name": f"e{i}",
                "modality": "t2i" if i < 7 else "i2i",
                "means": {c.value: mean for c in TaskCategory},
                "sigma": sigma,
                "failure": {c.value: failure for c in TaskCategory},
            }
        )
    return profiles


# ---------------------------------------------------------------- config


def test_config_round_trip(tmp_path):
    cfg = RunConfig(seed=3, total_steps=10)
    path = tmp_path / "config.json"
    path.write_text(cfg.to_json())
    loaded = load_config(path)
    assert loaded == cfg


def test_config_unknown_key():
    with pytest.raises(ConfigError):
        config_from_dict({"learning_rate": 1e-3})


@pytest.mark.parametrize(
    "patch",
    [
        {"gamma": 1.4},
        {"total_steps": -1},
        {"batch_size": 0},
        {"learning_starts": 900},
        {"exploration_fraction": 0.0},
        {"taxonomy": ["add_object", "add_object"]},
        {"taxonomy": ["not_a_category"]},
        {"difficulty_min": 5, "difficulty_max": 2},
        {"target_sync_interval": 0},
    ],
)
def test_config_validation_errors(patch):
    data = {**patch}
    with pytest.raises(ConfigError):
        config_from_dict(data)


def test_config_profiles_must_cover_taxonomy():
    profiles = uniform_profiles()
    del profiles[0]["means"]["add_text"]
    with pytest.raises(ConfigError):
        config_from_dict({"expert_profiles": profiles})


def test_config_profile_means_must_be_an_object():
    profiles = uniform_profiles()
    profiles[0]["means"] = [8.0]
    with pytest.raises(ConfigError, match="bad expert profile entry"):
        config_from_dict({"expert_profiles": profiles})


def profile(index, modality):
    return {"index": index, "name": f"e{index}", "modality": modality, "means": {c.value: 5.0 for c in TaskCategory}}


@pytest.mark.parametrize(
    "experts",
    [
        pytest.param([(0, "i2i"), (1, "i2i"), (2, "i2i")], id="editing-only"),
        pytest.param([(0, "t2i"), (1, "t2i"), (2, "t2i")], id="generation-only"),
        pytest.param([(0, "t2i"), (5, "i2i")], id="index-gap"),
        pytest.param([(1, "t2i"), (2, "i2i")], id="not-from-zero"),
        pytest.param([(0, "t2i"), (0, "i2i")], id="repeated-index"),
        pytest.param([], id="empty"),
    ],
)
def test_config_expert_indices_and_modalities(experts):
    with pytest.raises(ConfigError):
        config_from_dict({"expert_profiles": [profile(i, m) for i, m in experts]})


# ---------------------------------------------------------------- logs


def test_episode_log_round_trip(tmp_path, env):
    prompts = generate_corpus(2, 6, 1, 6)
    episodes = [run_episode(env, RandomPolicy(), p, seed=i, episode_id=i) for i, p in enumerate(prompts)]
    path = tmp_path / "episodes.jsonl"
    write_episode_log(path, episodes)
    loaded = read_episode_log(path)
    assert loaded == episodes
    # writing what was read reproduces the bytes
    again = tmp_path / "again.jsonl"
    write_episode_log(again, loaded)
    assert again.read_bytes() == path.read_bytes()


def test_episode_log_parse_error_reports_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"kind": "bogus"}\n')
    with pytest.raises(LogParseError) as err:
        read_episode_log(path)
    assert err.value.line_number == 1


def test_empty_log_round_trip(tmp_path):
    path = tmp_path / "empty.jsonl"
    write_episode_log(path, [])
    assert read_episode_log(path) == []


# ---------------------------------------------------------------- policies


def test_single_expert_policy_t2i_stops_after_opening(env):
    prompt = make_prompt([atom("add_object", "dog"), atom("add_text", "sign")])
    rec = run_episode(env, SingleExpertPolicy(index=0, registry=env.registry), prompt, seed=3)
    if not rec.steps[0].completed:
        assert rec.truncated_by == "policy"
        assert rec.length == 1


def test_single_expert_policy_i2i_uses_default_opener(env):
    prompt = make_prompt([atom("add_object", "dog")])
    rec = run_episode(env, SingleExpertPolicy(index=8, registry=env.registry), prompt, seed=5)
    assert rec.steps[0].expert == 4
    for s in rec.steps[1:]:
        assert s.expert == 8


def test_single_expert_policy_uses_counterpart(env):
    prompt = make_prompt([atom("add_object", "dog"), atom("color_change", "wall")])
    rec = run_episode(env, SingleExpertPolicy(index=4, registry=env.registry), prompt, seed=11)
    assert rec.steps[0].expert == 4
    for s in rec.steps[1:]:
        assert s.expert == 10  # same-name editing counterpart


def test_oracle_policy_routes_by_category(env):
    prompt = make_prompt([atom("add_text", "sign"), atom("spatial_rearrange", "row")], editing=True)
    rec = run_episode(env, OraclePolicy(env.registry), prompt, seed=2)
    from qroute.simworld import best_expert

    for s in rec.steps[1:]:
        assert s.expert == best_expert(env.registry, _C(s.category))


# ---------------------------------------------------------------- evaluate


def test_evaluate_empty_prompt_set(env):
    result = evaluate(env, RandomPolicy(), [], episodes_per_prompt=1, seed=0, name="empty")
    assert result.episodes == []
    assert result.mean_return == 0.0
    assert result.routing_accuracy is None


def test_hand_computable_report_with_deterministic_profiles():
    cfg = config_from_dict({"expert_profiles": uniform_profiles(mean=8.0, sigma=0.0, failure=0.0)})
    env = cfg.environment()
    prompt = make_prompt([atom("add_object", "dog")])
    result = evaluate(env, SingleExpertPolicy(index=0, registry=env.registry), [prompt], 1, seed=0, name="det")
    # one step: everything satisfied, quality exactly 8 -> raw (10+10+8+10)/4 = 9.5
    expected_return = 9.5 / 10 - 0.05
    assert result.mean_return == pytest.approx(expected_return, abs=1e-12)
    assert result.stderr_return == 0.0
    assert result.mean_oracle == pytest.approx(1.0)
    assert result.mean_length == 1.0


def test_always_failing_expert_scores_zero_oracle():
    cfg = config_from_dict({"expert_profiles": uniform_profiles(mean=8.0, sigma=0.0, failure=1.0)})
    env = cfg.environment()
    prompts = generate_corpus(9, 10, 1, 6)
    result = baseline_single_expert(env, 7, prompts, 1, seed=0)
    assert result.mean_oracle == 0.0


def test_oracle_policy_dominates_single_expert_baselines(env):
    prompts = generate_corpus(41, 120, 1, 6)
    oracle = evaluate(env, OraclePolicy(env.registry), prompts, 1, seed=77, name="oracle")
    for spec in env.registry.list():
        base = baseline_single_expert(env, spec.index, prompts, 1, seed=77)
        assert oracle.mean_oracle >= base.mean_oracle - 1e-12


def test_report_rendering_and_payload(env):
    prompts = generate_corpus(1, 8, 1, 6)
    main_eval = evaluate(env, RandomPolicy(), prompts, 1, seed=1, name="main")
    base = baseline_single_expert(env, 4, prompts, 1, seed=1)
    report = build_report(main_eval, [base])
    text = render_report(report)
    assert "main" in text and base.name in text
    payload = json.loads(report.to_json())
    assert {p["name"] for p in payload["policies"]} == {"main", base.name}
    assert base.name in payload["wilcoxon_vs_baselines"]


def test_report_statistics_do_not_hide_errors(env):
    prompts = generate_corpus(1, 8, 1, 6)
    main_eval = evaluate(env, RandomPolicy(), prompts, 1, seed=1, name="main")
    # identical returns: no nonzero difference, reported as W = nan, p = 1
    same = replace(main_eval, name="same")
    w, p = build_report(main_eval, [same]).wilcoxon["same"]
    assert np.isnan(w) and p == 1.0
    nan_episode = replace(main_eval.episodes[0], episode_return=float("nan"))
    broken = replace(main_eval, name="broken", episodes=[nan_episode, *main_eval.episodes[1:]])
    with pytest.raises(DomainError):
        build_report(main_eval, [broken])


def test_paired_returns_keys_by_prompt_and_seed(env):
    prompts = generate_corpus(3, 6, 1, 6)
    a = evaluate(env, OraclePolicy(env.registry), prompts, 2, seed=5).episodes
    b = evaluate(env, RandomPolicy(), prompts, 2, seed=5).episodes
    pairs = paired_returns(a, b)
    assert len(pairs) == 12
    assert paired_returns(a[::-1], b) == pairs == paired_returns(a, b[::-1])
    with pytest.raises(DomainError):
        paired_returns([*a, a[0]], b)
    with pytest.raises(DomainError):
        paired_returns(a, [*b[1:], replace(b[0], seed=b[0].seed + 1)])


def test_report_pairs_repeated_rollouts_as_by_repeat(env):
    prompts = generate_corpus(4, 7, 1, 6)
    main_eval = evaluate(env, RandomPolicy(), prompts, 3, seed=2, name="main")
    base = baseline_single_expert(env, 9, prompts, 3, seed=2)
    report = build_report(main_eval, [base])

    def by_repeat(episodes):
        returns, reps = {}, {}
        for ep in episodes:
            reps[ep.prompt.id] = rep = reps.get(ep.prompt.id, -1) + 1
            returns[(ep.prompt.id, rep)] = ep.episode_return
        return returns

    m, b = by_repeat(main_eval.episodes), by_repeat(base.episodes)
    pairs = [(m[k], b[k]) for k in sorted(m)]
    res = wilcoxon_signed_rank(pairs)
    assert report.wilcoxon[base.name] == (res.statistic, res.pvalue)
    assert report.win_rates[base.name] == win_rate([x > y for x, y in pairs])


# ---------------------------------------------------------------- train


def test_train_zero_budget(tmp_path):
    cfg = RunConfig(seed=0, total_steps=0)
    result = train(cfg, out_dir=tmp_path / "run")
    assert result.episodes == []
    assert result.metrics == []
    assert (tmp_path / "run/checkpoint.ckpt").exists()
    assert (tmp_path / "run/episodes.jsonl").read_text() == ""
    from qroute.checkpoint import load_checkpoint

    net, step, _ = load_checkpoint(tmp_path / "run/checkpoint.ckpt")
    assert step == 0
    fresh = RunConfig(seed=0).build_registry()
    assert net.layer_sizes == (1536, 64, 64, len(fresh))


def test_train_consumes_exact_budget():
    cfg = RunConfig(seed=2, total_steps=57)
    result = train(cfg)
    assert len(result.metrics) == 57
    assert sum(e.length for e in result.episodes) == 57


def test_train_budget_stop_and_episode_replay():
    cfg = RunConfig(seed=1, total_steps=101, learning_starts=5)
    result = train(cfg)
    # the learner hook ends the last episode mid-way when the budget runs out
    assert result.episodes[-1].truncated_by == "budget"
    assert sum(e.length for e in result.episodes) == len(result.metrics) == 101
    # the target network refreshes after exactly the multiples of the 50-step interval
    assert cfg.target_sync_interval == 50
    assert [m.step for m in result.metrics if m.synced] == [50, 100]
    env = cfg.environment()
    for episode in result.episodes:
        _, world = episode_streams(episode.seed)
        state = env.reset(episode.prompt)
        replayed = []
        for logged in episode.steps:
            state, _, _, record = env.step(state, logged.expert, world)
            replayed.append(record)
        assert tuple(replayed) == episode.steps


def test_train_deterministic_reward_trace():
    cfg = RunConfig(seed=5, total_steps=120)
    a = train(cfg)
    b = train(cfg)
    assert a.rewards == b.rewards
    assert a.losses == b.losses


def test_train_artifacts_byte_identical(tmp_path):
    cfg = RunConfig(seed=8, total_steps=150)
    train(cfg, out_dir=tmp_path / "a")
    train(cfg, out_dir=tmp_path / "b")
    for name in ("checkpoint.ckpt", "episodes.jsonl", "metrics.jsonl", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


# ---------------------------------------------------------------- cli


def test_cli_prompts_and_eval_round_trip(tmp_path, capsys):
    assert cli_main(["prompts", "--count", "6", "--seed", "2", "--out", str(tmp_path / "p.jsonl")]) == 0
    run_dir = tmp_path / "run"
    cfg = RunConfig(seed=1, total_steps=60)
    (tmp_path / "cfg.json").write_text(cfg.to_json())
    assert cli_main(["train", "--config", str(tmp_path / "cfg.json"), "--out", str(run_dir)]) == 0
    assert cli_main([
        "eval", "--checkpoint", str(run_dir / "checkpoint.ckpt"),
        "--prompts", str(tmp_path / "p.jsonl"), "--episodes", "1",
        "--out", str(tmp_path / "report.json"),
    ]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["policies"][0]["episodes"] == 6
    capsys.readouterr()


def test_cli_invalid_config_is_validation_error(tmp_path, capsys):
    index_gap = {"total_steps": 20, "expert_profiles": [profile(0, "t2i"), profile(5, "i2i")]}
    for config in ({"gamma": 2.0}, index_gap):
        (tmp_path / "bad.json").write_text(json.dumps(config))
        assert cli_main(["train", "--config", str(tmp_path / "bad.json"), "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("lr", [1e3, 1e300])
def test_cli_learning_rate_above_one_exits_2(tmp_path, capsys, lr):
    # without the bound, 1e3 overflows Adam's float32 second moments and
    # still exits 0, and 1e300 makes the parameters non-finite (exit 3)
    (tmp_path / "bad.json").write_text(json.dumps({"lr": lr, "total_steps": 200}))
    assert cli_main(["train", "--config", str(tmp_path / "bad.json"), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "lr must be in (0, 1]" in err
    assert not (tmp_path / "x").exists()
    assert config_from_dict({"lr": 1.0}).lr == 1.0


@pytest.mark.parametrize(
    "config",
    [
        {"total_steps": "10"},
        {"seed": 1.5},
        {"batch_size": 2.5},
        {"difficulty_min": "1"},
        {"gamma": None},
        {"t_max": True},
        {"lr": float("nan")},
        {"step_penalty": float("inf")},
    ],
    ids=lambda config: next(iter(config)),
)
def test_cli_config_value_of_the_wrong_json_type_exits_2(tmp_path, capsys, config):
    (tmp_path / "bad.json").write_text(json.dumps(config))
    assert cli_main(["train", "--config", str(tmp_path / "bad.json"), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and repr(next(iter(config))) in err
    assert not (tmp_path / "x").exists()


def test_cli_narrowed_taxonomy_exits_2(tmp_path, capsys):
    # profiles without lighting_change, behind a taxonomy that leaves it out
    profiles = uniform_profiles()
    for entry in profiles:
        del entry["means"]["lighting_change"], entry["failure"]["lighting_change"]
    taxonomy = [c.value for c in TaskCategory if c is not _C.LIGHTING_CHANGE]
    config = {"total_steps": 60, "taxonomy": taxonomy, "expert_profiles": profiles}
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    assert cli_main(["train", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_run_dir_with_the_legacy_taxonomy_key_evaluates(tmp_path, capsys):
    # a summary written while taxonomy was a setting records the full list
    run_dir = tmp_path / "run"
    (tmp_path / "cfg.json").write_text(RunConfig(seed=4, total_steps=60).to_json())
    assert cli_main(["train", "--config", str(tmp_path / "cfg.json"), "--out", str(run_dir)]) == 0
    summary = json.loads((run_dir / "summary.json").read_text())
    summary["config"]["taxonomy"] = [c.value for c in TaskCategory]
    (run_dir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    write_prompts(tmp_path / "p.jsonl", generate_corpus(0, 3, 1, 6))
    assert cli_main(["eval", "--checkpoint", str(run_dir / "checkpoint.ckpt"), "--prompts", str(tmp_path / "p.jsonl")]) == 0
    assert cli_main(["replay", "--episode", str(run_dir / "episodes.jsonl"), "--index", "0"]) == 0
    assert "replay OK" in capsys.readouterr().out


def test_cli_missing_checkpoint_is_validation_error(tmp_path, capsys):
    write_prompts(tmp_path / "p.jsonl", generate_corpus(0, 2, 1, 2))
    rc = cli_main(["eval", "--checkpoint", str(tmp_path / "none.ckpt"), "--prompts", str(tmp_path / "p.jsonl")])
    assert rc == 2
    capsys.readouterr()


def test_cli_replay_verifies_episode(tmp_path, capsys):
    run_dir = tmp_path / "run"
    cfg = RunConfig(seed=3, total_steps=40)
    (tmp_path / "cfg.json").write_text(cfg.to_json())
    assert cli_main(["train", "--config", str(tmp_path / "cfg.json"), "--out", str(run_dir)]) == 0
    assert cli_main(["replay", "--episode", str(run_dir / "episodes.jsonl"), "--index", "0"]) == 0
    out = capsys.readouterr().out
    assert "replay OK" in out


def test_cli_replay_compares_whole_step_records(tmp_path, capsys):
    run_dir = tmp_path / "run"
    (tmp_path / "cfg.json").write_text(RunConfig(seed=3, total_steps=40).to_json())
    assert cli_main(["train", "--config", str(tmp_path / "cfg.json"), "--out", str(run_dir)]) == 0
    log = run_dir / "episodes.jsonl"
    lines = log.read_text().splitlines()
    step = json.loads(lines[0])
    assert step["kind"] == "step" and step["episode"] == 0
    # a field other than reward and raw, then a raw score one ulp off
    for field, value in (("command_id", step["command_id"] + 1), ("raw", float(np.nextafter(step["raw"], 11.0)))):
        log.write_text("\n".join([json.dumps({**step, field: value}), *lines[1:]]) + "\n")
        assert cli_main(["replay", "--episode", str(log), "--index", "0"]) == 3
        assert "replay mismatch at t=1" in capsys.readouterr().out


def test_cli_bad_input_files_exit_2(tmp_path, capsys):
    run_dir = tmp_path / "run"
    (tmp_path / "cfg.json").write_text(RunConfig(seed=1, total_steps=20).to_json())
    assert cli_main(["train", "--config", str(tmp_path / "cfg.json"), "--out", str(run_dir)]) == 0
    write_prompts(tmp_path / "p.jsonl", generate_corpus(0, 2, 1, 2))
    capsys.readouterr()

    truncated = tmp_path / "truncated.ckpt"
    truncated.write_bytes((run_dir / "checkpoint.ckpt").read_bytes()[:1000])
    assert cli_main(["eval", "--checkpoint", str(truncated), "--prompts", str(tmp_path / "p.jsonl")]) == 2
    assert capsys.readouterr().err.startswith("error: ")

    # a directory where a prompt file belongs: one line, no traceback
    assert cli_main(["eval", "--checkpoint", str(run_dir / "checkpoint.ckpt"), "--prompts", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1

    eval_args = ["eval", "--checkpoint", str(run_dir / "checkpoint.ckpt"), "--prompts"]
    assert cli_main([*eval_args, str(tmp_path / "p.jsonl"), "--episodes", "0"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    # a repeated prompt id would give two prompts one pairing key
    lines = (tmp_path / "p.jsonl").read_text().splitlines()
    (tmp_path / "twice.jsonl").write_text("\n".join([*lines, lines[0]]) + "\n")
    assert cli_main([*eval_args, str(tmp_path / "twice.jsonl")]) == 2
    assert "line 3" in capsys.readouterr().err


def crc_sealed(body):
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def test_cli_crafted_checkpoints_exit_2(tmp_path, capsys):
    write_prompts(tmp_path / "p.jsonl", generate_corpus(0, 2, 1, 2))
    cases = []
    for version in (1, 2):
        header = MAGIC + struct.pack("<HQ", version, 0)
        # CRC-valid, one layer size: no network to build
        (tmp_path / f"one_layer_v{version}.ckpt").write_bytes(crc_sealed(header + struct.pack("<HI", 1, 12)))
        # a 4000x4000 header with no body: refused before any array is built
        (tmp_path / f"no_body_v{version}.ckpt").write_bytes(crc_sealed(header + struct.pack("<HII", 2, 4000, 4000)))
        cases += [(f"one_layer_v{version}", "layer sizes"), (f"no_body_v{version}", "layer sizes")]
    # well formed, but reads 8-wide states
    net = QNetwork((8, 12), seed=0)
    save_checkpoint(tmp_path / "narrow.ckpt", net, step=0)
    # CRC-valid and of the production shape, but every parameter is NaN
    net = QNetwork((1536, 64, 64, 12), seed=0)
    net.flat[:] = np.nan
    save_checkpoint(tmp_path / "nan.ckpt", net, step=0)
    cases += [("narrow", "8-wide"), ("nan", "non-finite")]
    for name, says in cases:
        rc = cli_main(["eval", "--checkpoint", str(tmp_path / f"{name}.ckpt"), "--prompts", str(tmp_path / "p.jsonl")])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("error: ") and says in err, (name, err)


def test_cli_eval_and_replay_read_the_run_config(tmp_path, capsys):
    run_dir = tmp_path / "run"
    cfg = RunConfig(seed=2, total_steps=300, expert_profiles=seven_expert_profiles())
    (tmp_path / "cfg.json").write_text(cfg.to_json())
    assert cli_main(["train", "--config", str(tmp_path / "cfg.json"), "--out", str(run_dir)]) == 0
    last = read_episode_log(run_dir / "episodes.jsonl")[-1].episode_id
    for index in (0, last):
        assert cli_main(["replay", "--episode", str(run_dir / "episodes.jsonl"), "--index", str(index)]) == 0
        assert "replay OK" in capsys.readouterr().out

    write_prompts(tmp_path / "p.jsonl", generate_corpus(0, 6, 1, 6))
    checkpoint = run_dir / "checkpoint.ckpt"
    eval_args = ["--prompts", str(tmp_path / "p.jsonl"), "--baselines", "--out", str(tmp_path / "report.json")]
    assert cli_main(["eval", "--checkpoint", str(checkpoint), *eval_args]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert len(report["policies"]) == 1 + 7
    for policy in report["policies"]:
        assert all(len(row) == 7 for row in policy["choice_matrix"]["counts"])

    # the same checkpoint beside a summary of the default 12-expert world
    other = tmp_path / "other"
    other.mkdir()
    (other / "checkpoint.ckpt").write_bytes(checkpoint.read_bytes())
    (other / "summary.json").write_text(json.dumps({"config": json.loads(RunConfig().to_json())}))
    assert cli_main(["eval", "--checkpoint", str(other / "checkpoint.ckpt"), *eval_args]) == 2
    assert "7 experts" in capsys.readouterr().err
    (other / "summary.json").write_text("{}")
    assert cli_main(["eval", "--checkpoint", str(other / "checkpoint.ckpt"), *eval_args]) == 2
    capsys.readouterr()


def test_cli_eval_baselines_on_a_three_expert_run(tmp_path, capsys):
    # no generator 4 to open the canvas: the editing-only baselines stop at once
    profiles = [
        {
            "index": i,
            "name": f"e{i}",
            "modality": "t2i" if i == 0 else "i2i",
            "means": {c.value: 5.0 for c in TaskCategory},
        }
        for i in range(3)
    ]
    run_dir = tmp_path / "run"
    (tmp_path / "cfg.json").write_text(RunConfig(seed=3, total_steps=60, expert_profiles=profiles).to_json())
    assert cli_main(["train", "--config", str(tmp_path / "cfg.json"), "--out", str(run_dir)]) == 0
    write_prompts(tmp_path / "p.jsonl", generate_corpus(0, 4, 1, 6))
    eval_args = ["--prompts", str(tmp_path / "p.jsonl"), "--baselines", "--out", str(tmp_path / "report.json")]
    assert cli_main(["eval", "--checkpoint", str(run_dir / "checkpoint.ckpt"), *eval_args]) == 0
    capsys.readouterr()
    lengths = {p["name"]: p["mean_length"] for p in json.loads((tmp_path / "report.json").read_text())["policies"]}
    assert lengths["expert_1_e1_i2i"] == lengths["expert_2_e2_i2i"] == 0.0
    assert lengths["expert_0_e0_t2i"] == 1.0


def test_cli_wilcoxon_between_logs(tmp_path, capsys, env):
    prompts = generate_corpus(6, 10, 1, 6)
    oracle = [run_episode(env, OraclePolicy(env.registry), p, seed=i, episode_id=i) for i, p in enumerate(prompts)]
    rand = [run_episode(env, RandomPolicy(), p, seed=i, episode_id=i) for i, p in enumerate(prompts)]
    logs = {name: tmp_path / f"{name}.jsonl" for name in ("a", "b", "shuffled", "unmatched", "twice", "nan")}
    write_episode_log(logs["a"], oracle)
    write_episode_log(logs["b"], rand)
    write_episode_log(logs["shuffled"], rand[::-1])
    write_episode_log(logs["unmatched"], [replace(rand[0], seed=99), *rand[1:]])
    write_episode_log(logs["twice"], [*rand, rand[0]])
    write_episode_log(logs["nan"], [replace(rand[0], episode_return=float("nan")), *rand[1:]])

    def wilcoxon(b):
        code = cli_main(["stats", "wilcoxon", "--a", str(logs["a"]), "--b", str(logs[b])])
        return code, capsys.readouterr()

    code, out = wilcoxon("b")
    assert code == 0 and "W=" in out.out and "p=" in out.out
    # episodes pair by (prompt id, seed), not by position in the log
    assert wilcoxon("shuffled") == (0, out)
    for bad in ("unmatched", "twice", "nan"):
        code, out = wilcoxon(bad)
        assert code == 2 and out.err.startswith("error: ")


def test_cli_eval_logs_of_two_checkpoints_pair_under_wilcoxon(tmp_path, capsys):
    (tmp_path / "cfg.json").write_text(RunConfig(total_steps=30).to_json())
    write_prompts(tmp_path / "p.jsonl", generate_corpus(4, 20, 1, 6))
    logs = []
    for seed in ("1", "2"):
        run_dir = tmp_path / f"run{seed}"
        assert cli_main(["train", "--config", str(tmp_path / "cfg.json"), "--seed", seed, "--out", str(run_dir)]) == 0
        logs.append(tmp_path / f"eval{seed}.jsonl")
        assert cli_main([
            "eval", "--checkpoint", str(run_dir / "checkpoint.ckpt"), "--prompts", str(tmp_path / "p.jsonl"),
            "--seed", "7", "--log", str(logs[-1]),
        ]) == 0
    assert [len(read_episode_log(log)) for log in logs] == [20, 20]
    capsys.readouterr()
    assert cli_main(["stats", "wilcoxon", "--a", str(logs[0]), "--b", str(logs[1])]) == 0
    assert "n=" in capsys.readouterr().out
    # a baseline's log of the same prompts and seed pairs with them too
    base_log = tmp_path / "expert9.jsonl"
    assert cli_main([
        "baseline", "--expert", "9", "--prompts", str(tmp_path / "p.jsonl"), "--seed", "7", "--log", str(base_log),
    ]) == 0
    capsys.readouterr()
    assert cli_main(["stats", "wilcoxon", "--a", str(logs[0]), "--b", str(base_log)]) == 0
    assert "n=" in capsys.readouterr().out


def test_cli_baseline_command(tmp_path, capsys):
    write_prompts(tmp_path / "p.jsonl", generate_corpus(0, 4, 1, 6))
    assert cli_main(["baseline", "--expert", "9", "--prompts", str(tmp_path / "p.jsonl")]) == 0
    assert cli_main(["baseline", "--expert", "44", "--prompts", str(tmp_path / "p.jsonl")]) == 2
    assert cli_main(["baseline", "--expert", "9", "--prompts", str(tmp_path / "p.jsonl"), "--episodes", "0"]) == 2
    capsys.readouterr()


def seven_expert_profiles():
    """A 7-expert world: 3 generators, 4 editors with distinct skills."""
    return [
        {
            "index": i,
            "name": f"e{i}",
            "modality": "t2i" if i < 3 else "i2i",
            "means": {c.value: 2.0 + i for c in TaskCategory},
        }
        for i in range(7)
    ]


def test_cli_baseline_scores_the_configured_world(tmp_path, capsys):
    (tmp_path / "cfg.json").write_text(RunConfig(expert_profiles=seven_expert_profiles()).to_json())
    write_prompts(tmp_path / "p.jsonl", generate_corpus(0, 4, 1, 6))
    args = ["baseline", "--config", str(tmp_path / "cfg.json"), "--prompts", str(tmp_path / "p.jsonl")]
    assert cli_main([*args, "--expert", "6", "--out", str(tmp_path / "r.json")]) == 0
    (policy,) = json.loads((tmp_path / "r.json").read_text())["policies"]
    assert policy["name"] == "expert_6_e6_i2i"
    assert all(len(row) == 7 for row in policy["choice_matrix"]["counts"])
    assert cli_main([*args, "--expert", "7"]) == 2
    assert "out of range" in capsys.readouterr().err


def test_cli_oracle_fraction_meets_a_removal_atom_by_absence(tmp_path, capsys):
    # an editing prompt that asks to remove one object and recolor another:
    # the removal is met when the object is absent, as the critic scores it
    prompt = make_prompt(
        [atom("remove_object", "boats", "all"), atom("color_change", "walls", "teal")], editing=True
    )
    write_prompts(tmp_path / "p.jsonl", [prompt])
    out = tmp_path / "r.json"
    args = ["baseline", "--expert", "8", "--prompts", str(tmp_path / "p.jsonl"), "--episodes", "3"]
    assert cli_main([*args, "--out", str(out)]) == 0
    capsys.readouterr()
    (policy,) = json.loads(out.read_text())["policies"]
    # every episode sends both commands through the strong remover and recolorer once
    assert policy["mean_length"] == 2.0
    assert policy["mean_oracle_fraction"] == 1.0
