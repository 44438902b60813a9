"""Smoke runs of the two experiment scripts, each in a fresh interpreter,
on budgets small enough to finish in about a second, and their refusals of
bad input."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qroute import experiment
from qroute.config import RunConfig
from qroute.errors import DomainError

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_inspect_world_prints_its_three_tables():
    proc = run_script("inspect_world.py", "--steps", "60")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "configured skill means (rows: category, columns: expert index)"
    assert "observed mean critic score by (category, expert) over one training run" in lines
    assert "average critic score per expert across all steps" in lines
    assert lines[-1].split()[:3] == ["11", "gemini-flash", "i2i"]


def refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_learning_experiment_writes_its_summary(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"total_steps": 60}))
    out = tmp_path / "summary.json"
    proc = run_script(
        "run_learning_experiment.py", "--config", config, "--seeds", 1, 2, "--prompts", 5, "--out", out
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("seeds beating best single expert: ")
    assert f"summary written to {out}" in proc.stdout
    summary = json.loads(out.read_text(), parse_constant=refuse_constant)
    assert set(summary) == {
        "seeds", "seeds_beating_best_baseline", "pooled_wilcoxon", "pooled_baseline",
        "routing_accuracy", "loss_decile_ratios", "per_seed",
    }
    assert summary["seeds"] == [1, 2]
    assert set(summary["pooled_wilcoxon"]) == {"W", "p"}
    assert [s["seed"] for s in summary["per_seed"]] == [1, 2]
    assert set(summary["per_seed"][0]) == {
        "seed", "trained_return", "best_baseline", "best_baseline_return", "oracle_return", "random_return",
    }


@pytest.mark.parametrize(
    "name,args,message",
    [
        ("run_learning_experiment.py", ["--seeds", "-1"], "seed must be >= 0"),
        ("run_learning_experiment.py", ["--seeds", "1", "-1"], "seed must be >= 0"),
        ("run_learning_experiment.py", ["--prompts", "0"], "prompt count must be >= 1: 0"),
        ("inspect_world.py", ["--steps", "-5"], "total_steps must be >= 0"),
    ],
)
def test_scripts_refuse_bad_input_with_exit_2(name, args, message):
    # the CLI's exit rule: one error line, exit 2, no traceback
    proc = run_script(name, *args)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [f"error: {message}"]
    assert proc.stdout == ""


def test_bad_experiment_input_is_refused_before_any_training(monkeypatch):
    def no_training(config, out_dir=None):
        raise AssertionError(f"trained seed {config.seed} before refusing the input")

    monkeypatch.setattr(experiment, "train", no_training)
    with pytest.raises(DomainError, match="prompt count must be >= 1"):
        experiment.run_seed(RunConfig(seed=1), eval_prompt_count=0)
    with pytest.raises(DomainError, match="seed must be >= 0"):
        experiment.run_learning_experiment(RunConfig(), seeds=[1, -1])
