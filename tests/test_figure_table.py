"""The figure table drives the CLI, its shard guards, the docs and the baselines.

``repro.bench.experiments.FIGURES`` is the one place a figure is declared;
these tests pin every copy of the figure list that lives elsewhere to it.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.bench import runner
from repro.bench.experiments import FIGURES

REPO_ROOT = Path(__file__).resolve().parent.parent
KEYS = sorted(FIGURES)


def figure_choices():
    [action] = [a for a in runner.build_parser()._actions if a.dest == "figures"]
    return action.choices


def runner_section():
    text = (REPO_ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    return text.split("## The runner CLI", 1)[1].split("\n## ", 1)[0]


def flag_row(flag):
    [row] = [line for line in runner_section().splitlines() if line.startswith(f"| `{flag}")]
    return set(re.findall(r"`([^`]+)`", row.split("|")[2]))


# -------------------------------------------------------------------- docs
def test_parser_figure_choices_are_the_table():
    choices = figure_choices()
    assert sorted(set(choices) - {"all"}) == KEYS
    assert "all" in choices


def test_experiments_figure_row_lists_every_key():
    assert sorted(flag_row("--figure") - {"all"}) == KEYS


def test_experiments_shards_row_names_every_scenario():
    assert {key for key in KEYS if FIGURES[key].sharded} <= flag_row("--shards")


def test_experiments_artifact_list_covers_every_key():
    listed = set()
    for line in runner_section().splitlines():
        if line.startswith("- `--figure"):
            head = line.split("→")[0].replace("--figure ", "")
            listed.update(re.findall(r"`([^`]+)`", head))
    assert sorted(listed) == KEYS


def test_every_key_has_a_committed_smoke_baseline():
    smoke = REPO_ROOT / "bench-baselines" / "smoke"
    assert sorted(p.name for p in smoke.glob("BENCH_*.json")) == sorted(
        runner.artifact_name(key) for key in KEYS
    )


# --------------------------------------------------------------- guards
#: Pinned here so that a table entry losing its constraint fails the
#: parametrization below instead of silently shrinking it.
NEEDS_TWO_SHARDS = ["migrate", "flashcrowd"]
COUPLED_ONLY = ["9", "migrate", "flashcrowd", "openloop"]


def test_guard_sets_come_from_the_table():
    assert [k for k, f in FIGURES.items() if f.min_shards > 1] == NEEDS_TWO_SHARDS
    assert [k for k, f in FIGURES.items() if not f.parallel] == COUPLED_ONLY


@pytest.fixture
def no_runs(monkeypatch):
    """Fail the test if the CLI gets as far as running any figure."""

    def refuse(*args, **kwargs):
        raise AssertionError("a figure ran before the CLI rejected its arguments")

    monkeypatch.setattr(runner, "_run_figures", refuse)


def reject(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        runner.main([*argv, "--no-artifacts", "--quiet"])
    assert exit_info.value.code == 2  # argparse error, not a traceback
    return capsys.readouterr().err


@pytest.mark.parametrize("figure", NEEDS_TWO_SHARDS)
def test_cli_rejects_one_shard_for_multi_shard_scenarios(figure, no_runs, capsys):
    err = reject(["--figure", figure, "--shards", "1"], capsys)
    assert f"--figure {figure} needs at least two shards" in err


@pytest.mark.parametrize("figure", COUPLED_ONLY)
def test_cli_rejects_parallel_shards_for_coupled_only_figures(figure, no_runs, capsys):
    err = reject(["--figure", figure, "--shards", "2", "--shard-mode", "parallel"], capsys)
    assert "--shard-mode parallel" in err
