"""Prompt files and episode logs are read strictly: a field of the wrong
JSON type is refused with its line number, never coerced."""

import json

import pytest

from qroute.cli import main as cli_main
from qroute.errors import LogParseError
from qroute.logs import read_episode_log, read_prompts, write_episode_log, write_prompts
from qroute.policies import RandomPolicy, run_episode
from qroute.simworld import generate_corpus


def rewrite_line(path, lineno, **fields):
    """Set ``fields`` of the JSON record on line ``lineno`` (1-based)."""
    lines = path.read_text().splitlines()
    lines[lineno - 1] = json.dumps({**json.loads(lines[lineno - 1]), **fields})
    path.write_text("\n".join(lines) + "\n")


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
