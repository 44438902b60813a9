"""Smoke runs of the two experiment scripts, each in a fresh interpreter,
on budgets small enough to finish in about a second."""

import json
import os
import subprocess
import sys
from pathlib import Path

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
