"""Prompt files and episode logs are read strictly: a field of the wrong
JSON type, an unknown key, a style the prompt's atoms do not state, a step
under another episode's id or a repeated episode id is refused with its
line number, never coerced. An episode's return and length are taken from
its steps. What a log holds does not depend on the interpreter's string
hash seed."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple, Optional, Union

import pytest

from qroute.checkpoint import save_checkpoint
from qroute.cli import main as cli_main
from qroute.core import Prompt
from qroute.embedder import EMBED_DIM
from qroute.errors import LogParseError
from qroute.experts import DEFAULT_EXPERT_PROFILES
from qroute.logs import (
    EpisodeRecord,
    field_readers,
    read_episode_log,
    read_prompts,
    reward_sum,
    write_episode_log,
    write_prompts,
)
from qroute.network import HIDDEN_WIDTHS, QNetwork
from qroute.policies import RandomPolicy, run_episode
from qroute.simworld import generate_corpus

from conftest import atom, rewrite_line

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "fields",
    [
        {"editing": "false"},  # a non-empty string would start the prompt on an image
        {"id": 7.9},  # would be read as prompt 7
        {"id": True},
        {"style": 3},
        {"atoms": [["add_text", "sign", 1]]},
    ],
    ids=["editing-string", "fractional-id", "boolean-id", "numeric-style", "numeric-atom-value"],
)
def test_a_prompt_field_of_the_wrong_type_is_refused(tmp_path, capsys, fields):
    path = tmp_path / "prompts.jsonl"
    write_prompts(path, generate_corpus(0, 3, 1, 6))
    assert len(read_prompts(path)) == 3
    rewrite_line(path, 2, **fields)
    with pytest.raises(LogParseError) as err:
        read_prompts(path)
    assert err.value.line_number == 2
    assert cli_main(["baseline", "--expert", "9", "--prompts", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: line 2: ")


@pytest.mark.parametrize(
    "fields",
    [
        {"completed": "false"},  # a non-empty string would read as true
        {"mask": ["false"] * 12},  # so would every entry of the mask
        {"t": 1.7},  # would be read as step 1
        {"expert": "4"},
        {"raw": True},
        {"subscores": [5.0, 5.0, 5.0]},
        {"terminal_reason": 0},
    ],
    ids=["completed-string", "mask-strings", "fractional-t", "expert-string", "boolean-raw", "three-subscores",
         "numeric-reason"],
)
def test_a_step_field_of_the_wrong_type_is_refused(tmp_path, capsys, env, fields):
    path = tmp_path / "episodes.jsonl"
    prompts = generate_corpus(1, 2, 6, 6)
    write_episode_log(path, [run_episode(env, RandomPolicy(), p, seed=i, episode_id=i) for i, p in enumerate(prompts)])
    assert len(read_episode_log(path)) == 2
    rewrite_line(path, 1, **fields)
    with pytest.raises(LogParseError) as err:
        read_episode_log(path)
    assert err.value.line_number == 1
    assert cli_main(["stats", "wilcoxon", "--a", str(path), "--b", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: line 1: ")


@pytest.mark.parametrize("key,on_step_line", [("reward", True), ("kind", True), ("seed", False)])
def test_a_missing_field_is_named(tmp_path, env, key, on_step_line):
    path = tmp_path / "episodes.jsonl"
    episode = run_episode(env, RandomPolicy(), generate_corpus(1, 1, 6, 6)[0], seed=3)
    write_episode_log(path, [episode])
    lineno = 1 if on_step_line else episode.length + 1
    lines = path.read_text().splitlines()
    record = json.loads(lines[lineno - 1])
    del record[key]
    lines[lineno - 1] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(LogParseError, match=f"line {lineno}: bad record: missing field '{key}'"):
        read_episode_log(path)


@pytest.mark.parametrize(
    "fields",
    [{"seed": "5"}, {"return": None}, {"prompt": []}, {"truncated_by": False}],
    ids=["seed-string", "null-return", "prompt-list", "boolean-truncation"],
)
def test_an_episode_field_of_the_wrong_type_is_refused(tmp_path, env, fields):
    path = tmp_path / "episodes.jsonl"
    episode = run_episode(env, RandomPolicy(), generate_corpus(1, 1, 6, 6)[0], seed=3)
    write_episode_log(path, [episode])
    rewrite_line(path, episode.length + 1, **fields)
    with pytest.raises(LogParseError) as err:
        read_episode_log(path)
    assert err.value.line_number == episode.length + 1


def unknown_key_in_config_root(tmp_path, env):
    (tmp_path / "cfg.json").write_text(json.dumps({"total_steps": 10, "extra_key": 1}))
    return ["train", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "run")]


def unknown_key_in_profile_entry(tmp_path, env):
    profiles = json.loads(json.dumps(list(DEFAULT_EXPERT_PROFILES)))
    profiles[3]["extra_key"] = 0.1
    (tmp_path / "cfg.json").write_text(json.dumps({"total_steps": 10, "expert_profiles": profiles}))
    return ["train", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "run")]


def unknown_key_in_prompt_record(tmp_path, env):
    write_prompts(tmp_path / "prompts.jsonl", generate_corpus(0, 3, 1, 6))
    rewrite_line(tmp_path / "prompts.jsonl", 2, extra_key=True)
    return ["baseline", "--expert", "4", "--prompts", str(tmp_path / "prompts.jsonl")]


def unknown_key_in_log_line(on_step_line):
    def case(tmp_path, env):
        path = tmp_path / "episodes.jsonl"
        episode = run_episode(env, RandomPolicy(), generate_corpus(1, 1, 6, 6)[0], seed=3)
        write_episode_log(path, [episode])
        rewrite_line(path, 1 if on_step_line else episode.length + 1, extra_key=None)
        if on_step_line:
            return ["stats", "wilcoxon", "--a", str(path), "--b", str(path)]
        return ["replay", "--episode", str(path), "--index", "0"]

    return case


@pytest.mark.parametrize(
    "case",
    [unknown_key_in_config_root, unknown_key_in_profile_entry, unknown_key_in_prompt_record,
     unknown_key_in_log_line(on_step_line=True), unknown_key_in_log_line(on_step_line=False)],
    ids=["config-root", "profile-entry", "prompt-record", "step-line", "episode-line"],
)
def test_an_unknown_key_is_refused_in_every_object_qroute_reads(tmp_path, capsys, env, case):
    """One rule, one message: each object names the key it does not hold."""
    args = case(tmp_path, env)
    capsys.readouterr()
    assert cli_main(args) == 2, args
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert err.endswith(": unknown keys ['extra_key']\n"), err
    assert not (tmp_path / "run").exists()


def two_episode_log(path, env, episode_ids=(0, 1)):
    """Two six-step episodes of two prompts, under ``episode_ids``."""
    prompts = generate_corpus(1, 2, 6, 6)
    episodes = [
        run_episode(env, RandomPolicy(), p, seed=s, episode_id=e) for p, s, e in zip(prompts, (3, 5), episode_ids)
    ]
    write_episode_log(path, episodes)
    return episodes


def test_a_fault_in_an_episode_lines_prompt_names_the_prompt(tmp_path, env):
    """An unknown key inside the prompt object and one on the line itself
    give two messages."""
    path = tmp_path / "episodes.jsonl"
    first, _ = two_episode_log(path, env)
    line = first.length + 1
    prompt = json.loads(path.read_text().splitlines()[line - 1])["prompt"]
    rewrite_line(path, line, prompt={**prompt, "extra": 1})
    with pytest.raises(LogParseError, match=rf"^line {line}: bad record: prompt: unknown keys \['extra'\]$"):
        read_episode_log(path)
    rewrite_line(path, line, prompt=prompt, extra=1)
    with pytest.raises(LogParseError, match=rf"^line {line}: bad record: unknown keys \['extra'\]$"):
        read_episode_log(path)


def test_a_step_line_under_another_episodes_id_is_refused(tmp_path, capsys, env):
    path = tmp_path / "episodes.jsonl"
    first, _ = two_episode_log(path, env)
    assert first.length >= 2
    rewrite_line(path, 2, episode=1)  # the second step of episode 0
    with pytest.raises(LogParseError, match="line 2: bad record: a line of episode 1 after steps of episode 0"):
        read_episode_log(path)
    assert cli_main(["stats", "wilcoxon", "--a", str(path), "--b", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: line 2: ")
    # an episode line under another id than its steps
    two_episode_log(path, env)
    rewrite_line(path, first.length + 1, episode=1)
    with pytest.raises(LogParseError) as err:
        read_episode_log(path)
    assert err.value.line_number == first.length + 1


def test_a_repeated_episode_id_is_refused_by_replay(tmp_path, capsys, env):
    """Two episodes under id 0: the second could never be replayed, so the
    log does not read, rather than ``replay`` checking only the first."""
    path = tmp_path / "episodes.jsonl"
    first, second = two_episode_log(path, env, episode_ids=(0, 0))
    last = first.length + second.length + 2
    assert cli_main(["replay", "--episode", str(path), "--index", "0"]) == 2
    out = capsys.readouterr()
    assert "replay OK" not in out.out
    assert out.err == f"error: line {last}: bad record: repeated episode id 0\n"


def test_an_episode_takes_its_return_and_length_from_its_steps(env):
    episode = run_episode(env, RandomPolicy(), generate_corpus(1, 1, 6, 6)[0], seed=3)
    # three rewards whose left-to-right sum is 0.0 and exact sum 1.0
    steps = tuple(episode.steps[0]._replace(t=t, reward=r) for t, r in enumerate((1e16, 1.0, -1e16), start=1))
    record = EpisodeRecord(episode_id=0, seed=3, prompt=episode.prompt, steps=steps, final_oracle_fraction=0.5)
    assert (record.episode_return, record.length) == (reward_sum(steps), 3) == (0.0, 3)
    shorter = dataclasses.replace(record, steps=steps[:2])
    assert (shorter.episode_return, shorter.length) == (1e16 + 1.0, 2)
    with pytest.raises(ValueError):
        dataclasses.replace(record, episode_return=1.0)


def test_field_readers_read_by_annotation_and_refuse_what_they_cannot_read():
    fields = [("n", Optional[int]), ("pair", tuple[float, float]), ("flags", tuple[bool, ...])]
    read = field_readers(NamedTuple("Readable", fields))
    assert read["n"]({}, "n") is None and read["pair"]({"pair": [1, 2.5]}, "pair") == (1.0, 2.5)
    assert read["flags"]({"flags": []}, "flags") == ()
    with pytest.raises(ValueError, match="'pair' must hold 2 entries, got 3"):
        read["pair"]({"pair": [1, 2, 3]}, "pair")
    for hint in (Union[int, str], tuple[dict, ...]):
        with pytest.raises(TypeError, match="no JSON reader"):
            field_readers(NamedTuple("Unreadable", [("n", int), ("bad", hint)]))


def test_integers_read_as_numbers_and_optional_fields_may_be_absent(tmp_path, env):
    """A number may be written without a fraction; a prompt without its
    optional style and editing keys is a text prompt without a style."""
    path = tmp_path / "episodes.jsonl"
    episode = run_episode(env, RandomPolicy(), generate_corpus(1, 1, 6, 6)[0], seed=3)
    write_episode_log(path, [episode])
    rewrite_line(path, 1, subscores=[10, 0, 5, 10])
    step = read_episode_log(path)[0].steps[0]
    assert step.subscores == (10.0, 0.0, 5.0, 10.0) and all(type(x) is float for x in step.subscores)

    prompts = tmp_path / "prompts.jsonl"
    prompts.write_text(json.dumps({"id": 4, "text": "write lettering", "atoms": [["add_text", "sign", "open"]]}) + "\n")
    (prompt,) = read_prompts(prompts)
    assert prompt.style_tag is None and prompt.initial_canvas is None


#: a styled prompt record whose atoms are not listed in sorted order
STYLED = {
    "id": 1,
    "text": "restyle rendering | insert objects",
    "atoms": [["style_transfer", "style", "noir"], ["add_object", "boats", "6"]],
    "style": "noir",
}


def test_a_prompt_states_its_style_once():
    """At most one style atom, and the style tag is its value."""
    boats, noir = atom("add_object", "boats", "6"), atom("style_transfer", "style", "noir")
    pastel = atom("style_transfer", "look", "pastel")
    for atoms, tag in (({boats, noir, pastel}, "noir"), ({boats}, "noir"), ({boats, noir}, None)):
        with pytest.raises(ValueError, match="style_transfer atom"):
            Prompt(id=1, text="t", atoms=frozenset(atoms), style_tag=tag)
    assert Prompt(id=1, text="t", atoms=frozenset({boats, noir}), style_tag="noir").style_atoms == {noir}


@pytest.fixture(scope="module")
def untrained_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "net.ckpt"
    save_checkpoint(path, QNetwork((EMBED_DIM, *HIDDEN_WIDTHS, 12), seed=0), step=0)
    return path


@pytest.mark.parametrize(
    "fields",
    [
        {"atoms": [*STYLED["atoms"], ["style_transfer", "look", "pastel"]]},
        {"atoms": STYLED["atoms"][1:]},
        {"style": None},
        {"editting": True},  # a misspelt key would run an editing prompt from a blank canvas
    ],
    ids=["two-style-atoms", "style-no-atom-carries", "null-style-beside-a-style-atom", "unknown-key"],
)
def test_a_bad_prompt_record_exits_2_naming_its_line(tmp_path, capsys, env, untrained_checkpoint, fields):
    """Through a prompt file (``baseline`` and ``eval``) and through the
    prompt object of an episode line (``replay``)."""
    prompts, log = tmp_path / "prompts.jsonl", tmp_path / "episodes.jsonl"
    prompts.write_text(json.dumps(STYLED) + "\n")
    write_episode_log(log, [run_episode(env, RandomPolicy(), read_prompts(prompts)[0], seed=3)])
    bad = {**STYLED, "id": 2, **fields}
    prompts.write_text(json.dumps(STYLED) + "\n" + json.dumps(bad) + "\n")
    lines = log.read_text().splitlines()
    lines[-1] = json.dumps({**json.loads(lines[-1]), "prompt": bad})
    log.write_text("\n".join(lines) + "\n")
    runs = [
        (["baseline", "--expert", "4", "--prompts", str(prompts)], "line 2: bad prompt record: "),
        (["eval", "--checkpoint", str(untrained_checkpoint), "--prompts", str(prompts)], "line 2: bad prompt record: "),
        (["replay", "--episode", str(log), "--index", "0"], f"line {len(lines)}: bad record: "),
    ]
    for args, says in runs:
        assert cli_main(args) == 2, args
        err = capsys.readouterr().err
        assert err.startswith("error: " + says) and err.count("\n") == 1, (args, err)


def test_baseline_logs_are_byte_identical_across_hash_seeds(tmp_path):
    """A styled prompt with unsorted atoms and an editing prompt: the episode
    log of a fresh interpreter does not depend on its string hash seed, and
    replays under a third one."""
    prompts = tmp_path / "prompts.jsonl"
    editing = {"id": 2, "text": "write lettering | recolor regions", "editing": True,
               "atoms": [["color_change", "walls", "teal"], ["add_text", "sign", "open"]]}
    prompts.write_text(json.dumps(STYLED) + "\n" + json.dumps(editing) + "\n")

    def qroute(hash_seed, *args):
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "qroute", *map(str, args)], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    for hash_seed in (0, 1):
        qroute(hash_seed, "baseline", "--expert", "4", "--prompts", prompts, "--episodes", "2",
               "--log", tmp_path / f"log{hash_seed}.jsonl")
    assert (tmp_path / "log0.jsonl").read_bytes() == (tmp_path / "log1.jsonl").read_bytes()
    assert "replay OK" in qroute(2, "replay", "--episode", tmp_path / "log0.jsonl", "--index", "0")
