"""Command line entry points.

Exit codes: 0 success, 2 bad input, 3 runtime abort. The error's type
decides: a ``DomainError`` (arguments, config, a damaged file, a logged
action that is illegal, episodes that do not pair) or an ``OSError`` (a
missing or unreadable file) exits 2; any other ``QRouteError`` (numerical
failure) and a replay mismatch exit 3. ``run_guarded`` applies that rule,
for the CLI and for the scripts alike.

A command's run config comes from one rule: ``--config`` if given, else
the config ``train`` recorded in the ``summary.json`` beside the run file
the command reads (``eval``'s checkpoint, ``replay``'s episode log), else
the default. So ``eval`` and ``replay`` score and re-simulate in the world
the run was trained in. ``train --seed`` overrides the config's seed.

``eval --log`` and ``baseline --log`` write the evaluated policy's
rollouts as an episode log. Two such logs of the same prompt file and
``--seed`` share their (prompt id, seed) keys, so ``stats wilcoxon`` pairs
them.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import zip_longest
from pathlib import Path
from typing import Callable

from .checkpoint import load_checkpoint
from .config import RunConfig, config_from_dict, load_config
from .errors import ConfigError, DomainError, QRouteError
from .evaluate import (
    EvalReport,
    baseline_single_expert,
    build_report,
    evaluate,
    paired_returns,
    render_report,
)
from .logs import field, read_episode_log, read_prompts, typed, write_episode_log, write_prompts
from .policies import GreedyPolicy, run_episode
from .simworld import MAX_DIFFICULTY, generate_corpus
from .stats import wilcoxon_signed_rank
from .train import SUMMARY_NAME, train

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qroute")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train the routing policy")
    p_train.add_argument("--config", type=Path, default=None)
    p_train.add_argument("--seed", type=int, default=None)
    p_train.add_argument("--out", type=Path, required=True)
    p_train.set_defaults(run=_cmd_train)

    p_eval = sub.add_parser("eval", help="greedy evaluation of a checkpoint")
    p_eval.add_argument("--checkpoint", type=Path, required=True)
    p_eval.add_argument("--prompts", type=Path, required=True)
    p_eval.add_argument("--episodes", type=int, default=1)
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--baselines", action="store_true", help="also run every single-expert baseline")
    p_eval.add_argument("--out", type=Path, default=None, help="write the JSON report here")
    p_eval.add_argument("--log", type=Path, default=None, help="write the trained policy's episode log here")
    p_eval.set_defaults(run=_cmd_eval)

    p_base = sub.add_parser("baseline", help="forced single-expert rollouts")
    p_base.add_argument("--config", type=Path, default=None)
    p_base.add_argument("--expert", type=int, required=True)
    p_base.add_argument("--prompts", type=Path, required=True)
    p_base.add_argument("--episodes", type=int, default=1)
    p_base.add_argument("--seed", type=int, default=0)
    p_base.add_argument("--out", type=Path, default=None)
    p_base.add_argument("--log", type=Path, default=None, help="write the baseline's episode log here")
    p_base.set_defaults(run=_cmd_baseline)

    p_stats = sub.add_parser("stats", help="statistics over episode logs")
    stats_sub = p_stats.add_subparsers(dest="stat", required=True)
    p_wil = stats_sub.add_parser("wilcoxon", help="paired signed-rank test over per-episode returns")
    p_wil.add_argument("--a", type=Path, required=True)
    p_wil.add_argument("--b", type=Path, required=True)
    p_wil.set_defaults(run=_cmd_wilcoxon)

    p_replay = sub.add_parser("replay", help="re-simulate a logged episode and verify it")
    p_replay.add_argument("--episode", type=Path, required=True, help="episode log file")
    p_replay.add_argument("--index", type=int, required=True, help="episode id inside the log")
    p_replay.add_argument("--config", type=Path, default=None)
    p_replay.set_defaults(run=_cmd_replay)

    p_prompts = sub.add_parser("prompts", help="generate a prompt corpus file")
    p_prompts.add_argument("--count", type=int, required=True)
    p_prompts.add_argument("--seed", type=int, default=0)
    p_prompts.add_argument("--difficulty-min", type=int, default=1)
    p_prompts.add_argument("--difficulty-max", type=int, default=MAX_DIFFICULTY)
    p_prompts.add_argument("--out", type=Path, required=True)
    p_prompts.set_defaults(run=_cmd_prompts)
    return parser


def _run_config(config: Path | None, run_file: Path | None = None) -> RunConfig:
    """A command's run config: ``--config`` if given, else the config
    ``train`` recorded in the ``summary.json`` beside ``run_file``, else the
    default."""
    if config is not None:
        return load_config(config)
    summary = None if run_file is None else run_file.parent / SUMMARY_NAME
    if summary is None or not summary.is_file():
        return RunConfig()
    try:
        recorded = field(typed(json.loads(summary.read_text(encoding="utf-8")), dict, "the summary"), "config", dict)
    except ValueError as exc:  # JSONDecodeError is a ValueError
        raise ConfigError(f"no run config in {summary}: {exc}") from exc
    return config_from_dict(recorded)


def _cmd_train(args) -> int:
    cfg = _run_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed  # ``train`` validates it
    result = train(cfg, out_dir=args.out)
    print(f"trained {cfg.total_steps} steps over {len(result.episodes)} episodes")
    print(f"artifacts in {result.out_dir}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    net, _, _ = load_checkpoint(args.checkpoint)
    prompts = read_prompts(args.prompts)
    env = _run_config(None, args.checkpoint).environment()
    if net.n_actions != len(env.registry):
        raise ConfigError(
            f"checkpoint scores {net.n_actions} experts, its run config registers {len(env.registry)}"
        )
    trained = evaluate(env, GreedyPolicy(net), prompts, args.episodes, args.seed, name="trained_greedy")
    baselines = []
    if args.baselines:
        baselines = [
            baseline_single_expert(env, spec.index, prompts, args.episodes, args.seed)
            for spec in env.registry.list()
        ]
    _write_outputs(args, build_report(trained, baselines))
    return EXIT_OK


def _cmd_baseline(args) -> int:
    env = _run_config(args.config).environment()
    if not 0 <= args.expert < len(env.registry):
        raise ConfigError(f"expert index out of range: {args.expert}")
    prompts = read_prompts(args.prompts)
    result = baseline_single_expert(env, args.expert, prompts, args.episodes, args.seed)
    _write_outputs(args, build_report(result, []))
    return EXIT_OK


def _write_outputs(args, report: EvalReport) -> None:
    """Print the report, write it to ``--out``, and write the main policy's
    rollouts to ``--log``: an episode log that ``stats wilcoxon`` pairs with
    any other log of the same prompts and ``--seed``."""
    print(render_report(report))
    if args.out is not None:
        args.out.write_text(report.to_json() + "\n", encoding="utf-8")
    if args.log is not None:
        write_episode_log(args.log, report.policies[0].episodes)


def _cmd_wilcoxon(args) -> int:
    res = wilcoxon_signed_rank(paired_returns(read_episode_log(args.a), read_episode_log(args.b)))
    mode = "exact" if res.exact else "normal-approx"
    print(f"n={res.n_used} W={res.statistic:.1f} p={res.pvalue:.6g} ({mode})")
    return EXIT_OK


def _cmd_replay(args) -> int:
    episode = next((e for e in read_episode_log(args.episode) if e.episode_id == args.index), None)
    if episode is None:
        raise ConfigError(f"no episode with id {args.index} in {args.episode}")
    env = _run_config(args.config, args.episode).environment()
    # feed the runner the logged experts in order, then stop
    experts = iter([logged.expert for logged in episode.steps])
    replayed = run_episode(env, lambda *_: next(experts, None), episode.prompt, episode.seed)

    print(f"{'t':>2} {'expert':>6} {'category':<24} {'raw':>7} {'reward':>8} {'done':>5}")
    for t, (got, logged) in enumerate(zip_longest(replayed.steps, episode.steps), start=1):
        if got is not None:
            done = got.terminal_reason is not None
            print(
                f"{got.t:>2} {got.expert:>6} {got.category:<24} {got.raw:>7.3f} "
                f"{got.reward:>8.4f} {str(done):>5}"
            )
        if got != logged:
            print(f"replay mismatch at t={t}: logged {logged}, replayed {got}")
            return EXIT_RUNTIME
    print("replay OK")
    return EXIT_OK


def _cmd_prompts(args) -> int:
    prompts = generate_corpus(args.seed, args.count, args.difficulty_min, args.difficulty_max)
    write_prompts(args.out, prompts)
    print(f"wrote {len(prompts)} prompts to {args.out}")
    return EXIT_OK


def run_guarded(run: Callable[[], int]) -> int:
    """``run()``'s exit code, or the one its error decides: a
    ``DomainError`` or ``OSError`` prints one ``error:`` line and gives 2,
    any other ``QRouteError`` one ``runtime abort:`` line and gives 3."""
    try:
        return run()
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except QRouteError as exc:
        print(f"runtime abort: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else EXIT_OK
    return run_guarded(lambda: args.run(args))


if __name__ == "__main__":
    sys.exit(main())
