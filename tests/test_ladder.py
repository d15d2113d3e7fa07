import importlib.util
import sys
from pathlib import Path

import pytest

from cyclohecke.cli import build_parser

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ladder.py"
_spec = importlib.util.spec_from_file_location("ladder", _PATH)
ladder = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ladder)


@pytest.mark.parametrize("name", sorted(ladder.RUNGS))
def test_every_rung_is_a_valid_command(name):
    build_parser().parse_args(ladder.RUNGS[name])


def test_child_cpu_and_memory_are_its_own():
    # 40 MB held by the child, CPU spent by the child alone
    code = "b = bytearray(40 << 20); sum(range(3_000_000))"
    record = ladder.run_child([sys.executable, "-c", code], None, 60)
    assert record["exit_code"] == 0 and not record["timed_out"]
    assert record["peak_rss_mb"] >= 40
    assert 0 < record["cpu_s"] <= record["wall_s"] + 0.5


def test_timeout_is_recorded_not_raised():
    code = "import time; time.sleep(30)"
    record = ladder.run_child([sys.executable, "-c", code], None, 0.3)
    assert record["timed_out"]
    assert record["exit_code"] is None
    assert record["wall_s"] < 10


def test_failing_child_keeps_its_exit_code():
    record = ladder.run_child([sys.executable, "-c", "raise SystemExit(1)"],
                              None, 60)
    assert record == {**record, "exit_code": 1, "timed_out": False}
