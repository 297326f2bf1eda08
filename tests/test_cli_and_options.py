"""Tests for the CLI runner and miscellaneous API details."""

from __future__ import annotations

import pytest

from repro.core.proposal import Proposal
from repro.experiments.__main__ import main as cli_main
from repro.qos.catalog import COLOR_DEPTH, FRAME_RATE
from repro.services import workload


# -- CLI ------------------------------------------------------------------


def test_cli_list(capsys):
    assert cli_main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "E1" in out and "E13" in out


def test_cli_unknown_suite(capsys):
    assert cli_main(["E99"]) == 2
    assert "unknown suite" in capsys.readouterr().err


def test_cli_runs_selected_suite(capsys, tmp_path):
    assert cli_main(["--quick", "--seeds", "2", "--out", str(tmp_path), "E2"]) == 0
    out = capsys.readouterr().out
    assert "E2 — evaluator selection quality" in out
    assert (tmp_path / "BENCH_E2.json").exists()


# -- proposal immutability -----------------------------------------------------


def test_proposal_values_frozen():
    p = Proposal(task_id="t", node_id="n", values={FRAME_RATE: 10})
    with pytest.raises(TypeError):
        p.values[FRAME_RATE] = 5  # type: ignore[index]


def test_proposal_covers_and_value():
    p = Proposal(task_id="t", node_id="n", values={FRAME_RATE: 10})
    assert p.covers((FRAME_RATE,))
    assert not p.covers((FRAME_RATE, COLOR_DEPTH))
    assert p.value(FRAME_RATE) == 10
    with pytest.raises(KeyError):
        p.value(COLOR_DEPTH)


# -- task/ladder misc -----------------------------------------------------------


def test_task_transfer_and_ladder_helpers():
    service = workload.movie_playback_service(requester="r")
    task = service.tasks[0]
    assert task.transfer_kb() == task.input_kb + task.output_kb
    ladder = task.ladder()
    assert ladder.top().at_top
    assert task.ladder() is ladder  # memoized on the task
