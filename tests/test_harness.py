import json
import struct
import zlib
from dataclasses import replace

import numpy as np
import pytest

from qroute import cli, errors
from qroute.checkpoint import MAGIC, save_checkpoint
from qroute.cli import main as cli_main
from qroute.config import RunConfig, config_from_dict, load_config
from qroute.core import TaskCategory
from qroute.errors import ConfigError, DomainError, LogParseError
from qroute.evaluate import baseline_single_expert, build_report, evaluate, paired_returns, render_report
from qroute.experts import DEFAULT_EXPERT_PROFILES, SkillProfile
from qroute.logs import read_episode_log, write_episode_log, write_prompts
from qroute.network import QNetwork
from qroute.policies import OraclePolicy, RandomPolicy, SingleExpertPolicy, episode_streams, run_episode
from qroute.simworld import generate_corpus
from qroute.stats import wilcoxon_signed_rank, win_rate
from qroute.train import train

from conftest import atom, make_prompt, rewrite_line

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


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_python_api_refuses_a_non_finite_sigma_or_step_penalty(bad):
    with pytest.raises(ValueError, match="sigma must be a finite number"):
        SkillProfile(means={c: 5.0 for c in TaskCategory}, sigma=bad)
    # the config's own type check, the one a JSON config passes too
    with pytest.raises(ConfigError, match="config key 'step_penalty' must be a finite number"):
        RunConfig(step_penalty=bad).validate()


@pytest.mark.parametrize(
    "setting", [{"batch_size": 2.5}, {"t_max": 2.5}, {"total_steps": 1.5}, {"seed": True}], ids=lambda s: next(iter(s))
)
def test_python_api_refuses_an_int_setting_of_another_type(setting):
    # the Python API and a JSON config pass the same type check
    ((name, value),) = setting.items()
    with pytest.raises(ConfigError, match=f"config key '{name}' must be an integer, got {value!r}"):
        RunConfig(**setting).validate()
    with pytest.raises(ConfigError, match=f"config key '{name}' must be an integer, got {value!r}"):
        config_from_dict(setting)


def test_a_float_setting_given_an_int_is_stored_as_a_float():
    for cfg in (RunConfig(gamma=1, step_penalty=0).validate(), config_from_dict({"gamma": 1, "step_penalty": 0})):
        assert (cfg.gamma, cfg.step_penalty) == (1.0, 0.0)
        assert type(cfg.gamma) is float and type(cfg.step_penalty) is float


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


def test_stock_lineup_is_a_config_value():
    # a config that spells out the stock lineup builds the default world and trains like it
    spelled_out = config_from_dict({"expert_profiles": json.loads(json.dumps(list(DEFAULT_EXPERT_PROFILES)))})
    stock = RunConfig().build_registry().list()
    assert len(stock) == 12
    # spec by spec: index, name, modality and the profile's means, sigma and failure
    assert spelled_out.build_registry().list() == stock
    steps = {"seed": 3, "total_steps": 120}
    a = train(RunConfig(**steps)).net.flat.tobytes()
    b = train(replace(spelled_out, **steps)).net.flat.tobytes()
    assert a == b


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
    with pytest.raises(DomainError, match="no prompts to evaluate"):
        evaluate(env, RandomPolicy(), [], episodes_per_prompt=1, seed=0, name="empty")


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
    # a NaN step reward makes a NaN return
    first = main_eval.episodes[0]
    nan_episode = replace(first, steps=(first.steps[0]._replace(reward=float("nan")), *first.steps[1:]))
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


def with_bad_profile(entry=None, **change):
    """A config of uniform profiles whose entry 3 is ``entry``, or takes ``change``."""
    profiles = uniform_profiles()
    profiles[3] = {**profiles[3], **change} if entry is None else entry
    return {"expert_profiles": profiles}


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
        pytest.param(with_bad_profile(sigma=float("nan")), id="profile_sigma_nan"),
        pytest.param(with_bad_profile(sigma=float("inf")), id="profile_sigma_inf"),
        pytest.param(with_bad_profile(index=1.9), id="profile_index_fraction"),
        pytest.param(with_bad_profile(index=True), id="profile_index_bool"),
        pytest.param(with_bad_profile(name=7), id="profile_name_number"),
        pytest.param(
            with_bad_profile(means={**uniform_profiles()[3]["means"], "add_object": "3.3"}), id="profile_mean_string"
        ),
        pytest.param(with_bad_profile(failure={"add_object": True}), id="profile_failure_bool"),
        pytest.param(with_bad_profile(sigmma=0.1), id="profile_unknown_key"),
        pytest.param(with_bad_profile(entry=5), id="profile_entry_not_an_object"),
    ],
    ids=lambda config: next(iter(config)),
)
def test_cli_config_value_of_the_wrong_json_type_exits_2(tmp_path, capsys, config):
    # json.dumps writes a NaN or an infinity as Python's JSON reader reads it
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
    # a negative prompt id makes no episode seed: one line, no traceback
    negative = json.loads(lines[0]) | {"id": -5}
    (tmp_path / "negative.jsonl").write_text("\n".join([json.dumps(negative), *lines[1:]]) + "\n")
    for args in ([*eval_args, str(tmp_path / "negative.jsonl")],
                 ["baseline", "--expert", "9", "--prompts", str(tmp_path / "negative.jsonl")]):
        assert cli_main(args) == 2, args
        err = capsys.readouterr().err
        assert err == "error: prompt id must be >= 0: -5\n", args
    # a misspelt key would run an editing prompt from a blank canvas
    misspelt = json.loads(lines[1]) | {"editting": True}
    (tmp_path / "misspelt.jsonl").write_text("\n".join([lines[0], json.dumps(misspelt)]) + "\n")
    for args in ([*eval_args, str(tmp_path / "misspelt.jsonl")],
                 ["baseline", "--expert", "9", "--prompts", str(tmp_path / "misspelt.jsonl")]):
        assert cli_main(args) == 2, args
        err = capsys.readouterr().err
        assert err == "error: line 2: bad prompt record: unknown keys ['editting']\n", args


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


ERROR_CLASSES = [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, errors.QRouteError)]


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda c: c.__name__)
def test_cli_exit_code_follows_the_error_type(tmp_path, capsys, monkeypatch, cls):
    def fail(*_):
        raise cls(4, "boom") if cls is LogParseError else cls("boom")

    monkeypatch.setattr(cli, "generate_corpus", fail)
    rc = cli_main(["prompts", "--count", "3", "--out", str(tmp_path / "p.jsonl")])
    err = capsys.readouterr().err
    assert rc == (2 if issubclass(cls, DomainError) else 3)
    assert err.startswith("error: " if rc == 2 else "runtime abort: ") and err.count("\n") == 1


def assert_refused(rc, capsys, says):
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("error: ") and err.count("\n") == 1 and says in err, (rc, err)


@pytest.mark.parametrize("expert", [9, 99])
def test_cli_replay_of_an_illegal_logged_expert_exits_2(tmp_path, capsys, env, expert):
    log = tmp_path / "episodes.jsonl"
    write_episode_log(log, [run_episode(env, RandomPolicy(), make_prompt([atom("add_object", "dog")]), seed=5)])
    lines = log.read_text().splitlines()
    step = json.loads(lines[0])
    # the first step of a text-to-image prompt: expert 9 edits, 99 does not exist
    assert step["t"] == 1 and not step["mask"][9]
    log.write_text("\n".join([json.dumps({**step, "expert": expert}), *lines[1:]]) + "\n")
    assert_refused(cli_main(["replay", "--episode", str(log), "--index", "0"]), capsys, f"action {expert} illegal")


def test_cli_negative_seed_exits_2(tmp_path, capsys):
    write_prompts(tmp_path / "p.jsonl", generate_corpus(0, 2, 1, 6))
    save_checkpoint(tmp_path / "net.ckpt", QNetwork((1536, 64, 64, 12), seed=0), step=0)
    prompts = ["--prompts", str(tmp_path / "p.jsonl")]
    for args in (
        ["prompts", "--count", "3", "--out", str(tmp_path / "q.jsonl")],
        ["eval", "--checkpoint", str(tmp_path / "net.ckpt"), *prompts],
        ["baseline", "--expert", "0", *prompts],
    ):
        assert_refused(cli_main([*args, "--seed", "-1"]), capsys, "seed must be >= 0: -1")
    assert not (tmp_path / "q.jsonl").exists()


def test_a_commands_config_is_its_flag_else_the_recorded_one_else_the_default(tmp_path, capsys):
    two = [
        {"index": i, "name": f"e{i}", "modality": modality, "means": {c.value: 5.0 for c in TaskCategory}}
        for i, modality in enumerate(("t2i", "i2i"))
    ]
    (tmp_path / "two.json").write_text(RunConfig(total_steps=30, expert_profiles=two).to_json())
    (tmp_path / "stock.json").write_text(RunConfig(total_steps=30).to_json())
    run_dir = tmp_path / "run"
    assert cli_main(["train", "--config", str(tmp_path / "two.json"), "--seed", "-1", "--out", str(run_dir)]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err and not run_dir.exists()
    assert cli_main(["train", "--config", str(tmp_path / "two.json"), "--seed", "4", "--out", str(run_dir)]) == 0
    assert json.loads((run_dir / "summary.json").read_text())["config"]["seed"] == 4
    log = run_dir / "episodes.jsonl"
    # an episode that opens on a blank canvas, with expert 0: legal in both worlds
    index = next(e.episode_id for e in read_episode_log(log) if e.prompt.initial_canvas is None)
    alone = tmp_path / "alone" / "episodes.jsonl"  # no summary.json beside it
    alone.parent.mkdir()
    alone.write_bytes(log.read_bytes())
    replays = [
        ([], log, "replay OK"),  # the recorded two-expert world
        (["--config", str(tmp_path / "stock.json")], log, "replay mismatch at t=1"),
        (["--config", str(tmp_path / "two.json")], alone, "replay OK"),
        ([], alone, "replay mismatch at t=1"),  # the default world
    ]
    capsys.readouterr()
    for flags, path, says in replays:
        rc = cli_main(["replay", "--episode", str(path), "--index", str(index), *flags])
        assert (rc, says in capsys.readouterr().out) == (0 if says == "replay OK" else 3, True), (flags, path)


def test_cli_empty_prompt_file_exits_2(tmp_path, capsys):
    (tmp_path / "empty.jsonl").write_text("")
    save_checkpoint(tmp_path / "net.ckpt", QNetwork((1536, 64, 64, 12), seed=0), step=0)
    prompts = ["--prompts", str(tmp_path / "empty.jsonl")]
    for args in (
        ["eval", "--checkpoint", str(tmp_path / "net.ckpt"), *prompts, "--baselines"],
        ["baseline", "--expert", "0", *prompts],
    ):
        assert_refused(cli_main(args), capsys, "no prompts to evaluate")


def test_cli_prompts_out_of_bounds_exit_2(tmp_path, capsys):
    out = tmp_path / "p.jsonl"
    for bounds, says in (
        (["--count", "0"], "prompt count must be >= 1: 0"),
        (["--count", "-3"], "prompt count must be >= 1: -3"),
        (["--count", "3", "--difficulty-min", "0"], "1 <= min <= max <= 6"),
    ):
        assert_refused(cli_main(["prompts", *bounds, "--out", str(out)]), capsys, says)
    assert not out.exists()


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
    assert "missing field 'config'" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "recorded",
    ["abc", [["seed", 3]], with_bad_profile(sigma=float("nan"))],
    ids=["string", "list_of_pairs", "bad_profile"],
)
def test_cli_eval_refuses_a_recorded_config_that_is_no_config(tmp_path, capsys, recorded):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    save_checkpoint(run_dir / "checkpoint.ckpt", QNetwork((1536, 64, 64, 12), seed=0), step=0)
    (run_dir / "summary.json").write_text(json.dumps({"config": recorded}))
    write_prompts(tmp_path / "p.jsonl", generate_corpus(0, 2, 1, 6))
    rc = cli_main(["eval", "--checkpoint", str(run_dir / "checkpoint.ckpt"), "--prompts", str(tmp_path / "p.jsonl")])
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("error: ") and err.count("\n") == 1
    assert ("'expert_profiles'" if isinstance(recorded, dict) else "'config' must be an object") in err


def test_cli_eval_report_is_strict_json_when_a_baseline_ties_every_episode(tmp_path, capsys, env):
    # a baseline that ties every episode has no signed-rank statistic
    oracle = evaluate(env, OraclePolicy(env.registry), generate_corpus(2, 5, 1, 6), 1, 0)
    assert np.isnan(build_report(oracle, [replace(oracle, name="b")]).wilcoxon["b"][0])
    # one expert per modality under one name: every policy makes the same calls
    profiles = [
        {"index": i, "name": "e", "modality": modality, "means": {c.value: 5.0 for c in TaskCategory}}
        for i, modality in enumerate(("t2i", "i2i"))
    ]
    run_dir = tmp_path / "run"
    (tmp_path / "cfg.json").write_text(RunConfig(seed=3, total_steps=60, expert_profiles=profiles).to_json())
    assert cli_main(["train", "--config", str(tmp_path / "cfg.json"), "--out", str(run_dir)]) == 0
    write_prompts(tmp_path / "p.jsonl", generate_corpus(0, 4, 1, 6))
    eval_args = ["--prompts", str(tmp_path / "p.jsonl"), "--baselines", "--out", str(tmp_path / "report.json")]
    assert cli_main(["eval", "--checkpoint", str(run_dir / "checkpoint.ckpt"), *eval_args]) == 0
    capsys.readouterr()

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    report = json.loads((tmp_path / "report.json").read_text(), parse_constant=refuse)
    assert [test["W"] for test in report["wilcoxon_vs_baselines"].values()] == [None, None]


def test_cli_wilcoxon_between_logs(tmp_path, capsys, env):
    prompts = generate_corpus(6, 10, 1, 6)
    oracle = [run_episode(env, OraclePolicy(env.registry), p, seed=i, episode_id=i) for i, p in enumerate(prompts)]
    rand = [run_episode(env, RandomPolicy(), p, seed=i, episode_id=i) for i, p in enumerate(prompts)]
    names = ("a", "b", "shuffled", "unmatched", "twice", "nan", "return", "length", "inf")
    logs = {name: tmp_path / f"{name}.jsonl" for name in names}
    write_episode_log(logs["a"], oracle)
    write_episode_log(logs["b"], rand)
    write_episode_log(logs["shuffled"], rand[::-1])
    write_episode_log(logs["unmatched"], [replace(rand[0], seed=99), *rand[1:]])
    write_episode_log(logs["twice"], [*rand, rand[0]])
    # the first episode line, edited: a NaN return, and two that contradict its step lines
    edits = {"nan": {"return": float("nan")}, "return": {"return": rand[0].episode_return + 5.0},
             "length": {"length": rand[0].length + 1}}
    for name, fields in edits.items():
        write_episode_log(logs[name], rand)
        rewrite_line(logs[name], rand[0].length + 1, **fields)
    with pytest.raises(LogParseError, match="but steps sum to"):
        read_episode_log(logs["return"])
    with pytest.raises(LogParseError, match="step lines"):
        read_episode_log(logs["length"])
    # one that agrees with an infinite step reward is refused at that step's line
    inf_steps = (rand[0].steps[0]._replace(reward=float("inf")), *rand[0].steps[1:])
    write_episode_log(logs["inf"], [replace(rand[0], steps=inf_steps), *rand[1:]])
    with pytest.raises(LogParseError, match="line 1: .*'reward' must be a finite number, got inf"):
        read_episode_log(logs["inf"])

    def wilcoxon(b):
        code = cli_main(["stats", "wilcoxon", "--a", str(logs["a"]), "--b", str(logs[b])])
        return code, capsys.readouterr()

    code, out = wilcoxon("b")
    assert code == 0 and "W=" in out.out and "p=" in out.out
    # episodes pair by (prompt id, seed), not by position in the log
    assert wilcoxon("shuffled") == (0, out)
    for bad in ("unmatched", "twice", "nan", "return", "length", "inf"):
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
