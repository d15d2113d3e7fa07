import hashlib
import importlib.util
import json
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


def test_rung_reports_the_median_of_its_runs(monkeypatch):
    outputs = iter([(3.0, 30.0), (1.0, 50.0), (2.0, 40.0)])

    def fake_child(cmd, env, timeout):
        cpu, rss = next(outputs)
        return {"exit_code": 0, "timed_out": False, "wall_s": cpu + 0.5,
                "cpu_s": cpu, "peak_rss_mb": rss, "stdout_sha256": "h"}

    monkeypatch.setattr(ladder, "run_child", fake_child)
    monkeypatch.setattr(ladder, "REPEATS", 3)
    (record,) = ladder.run_rung(["cmd"], [None], 60)
    assert [run["cpu_s"] for run in record["runs"]] == [3.0, 1.0, 2.0]
    assert [run["peak_rss_mb"] for run in record["runs"]] == [30.0, 50.0,
                                                              40.0]
    assert (record["cpu_s"], record["wall_s"], record["peak_rss_mb"]) == \
        (2.0, 2.5, 40.0)
    assert record["stdout_sha256"] == "h"


def test_rung_stops_after_a_timeout(monkeypatch):
    monkeypatch.setattr(ladder, "REPEATS", 3)
    code = "import time; time.sleep(30)"
    (record,) = ladder.run_rung([sys.executable, "-c", code], [None], 0.3)
    assert len(record["runs"]) == 1
    assert record["timed_out"] and record["exit_code"] is None


def test_stdout_hash_of_each_run(monkeypatch):
    monkeypatch.setattr(ladder, "REPEATS", 2)
    (record,) = ladder.run_rung([sys.executable, "-c", "print('x')"], [None],
                                60)
    assert len(record["runs"]) == 2
    assert record["stdout_sha256"] == hashlib.sha256(b"x\n").hexdigest()


def _fake_children(monkeypatch, failing=()):
    """Record the env of each run_child call in order; the runs numbered in
    failing (per env, from 1) exit 1."""
    order = []

    def fake_child(cmd, env, timeout):
        order.append(env)
        failed = (env, order.count(env)) in failing
        return {"exit_code": int(failed), "timed_out": False, "wall_s": 1.0,
                "cpu_s": 1.0, "peak_rss_mb": 1.0, "stdout_sha256": env}

    monkeypatch.setattr(ladder, "run_child", fake_child)
    monkeypatch.setattr(ladder, "REPEATS", 3)
    return order


def test_two_roots_alternate_inside_a_rung(monkeypatch):
    order = _fake_children(monkeypatch)
    records = ladder.run_rung(["cmd"], ["old", "new"], 60)
    assert order == ["old", "new", "old", "new", "old", "new"]
    assert [r["stdout_sha256"] for r in records] == ["old", "new"]
    assert [len(r["runs"]) for r in records] == [3, 3]


def test_a_failing_root_stops_alone(monkeypatch):
    order = _fake_children(monkeypatch, failing={("old", 2)})
    old, new = ladder.run_rung(["cmd"], ["old", "new"], 60)
    assert order == ["old", "new", "old", "new", "new"]
    assert (old["exit_code"], len(old["runs"])) == (1, 2)
    assert (new["exit_code"], len(new["runs"])) == (0, 3)


def test_two_roots_resolve_a_rung_only_past_the_spread(monkeypatch):
    # the cpu_s of the old and new runs of two rungs, as they alternate
    cpu = iter([1.0, 2.0, 1.1, 2.1, 1.05, 2.05,
                1.0, 1.3, 1.5, 1.1, 1.2, 1.6])

    def fake_child(cmd, env, timeout):
        return {"exit_code": 0, "timed_out": False, "wall_s": 1.0,
                "cpu_s": next(cpu), "peak_rss_mb": 1.0, "stdout_sha256": "h"}

    monkeypatch.setattr(ladder, "run_child", fake_child)
    monkeypatch.setattr(ladder, "REPEATS", 3)
    apart, overlapping = (
        ladder.compare(*ladder.run_rung(["cmd"], ["old", "new"], 60))
        for _ in range(2))
    # medians 1.05 -> 2.05, spreads 0.1 each: resolved, +95.2%
    assert apart == {"resolved": True, "cpu_change": 0.952}
    # medians 1.2 -> 1.3 differ by less than the new runs' spread 0.5
    assert overlapping == {"resolved": False, "cpu_change": None}


def test_one_label_per_root():
    with pytest.raises(SystemExit) as exc:
        ladder.main(["--label", "a", "--root", ".", "--root", "."])
    assert exc.value.code == 2


def test_rung_option_runs_only_the_named_rungs(monkeypatch, tmp_path):
    argvs = []

    def fake_child(cmd, env, timeout):
        argvs.append(cmd[3:])
        return {"exit_code": 0, "timed_out": False, "wall_s": 1.0,
                "cpu_s": 1.0, "peak_rss_mb": 1.0, "stdout_sha256": "h"}

    class Calibration:
        calibrate = staticmethod(lambda probes: 0.001)

    monkeypatch.setattr(ladder, "run_child", fake_child)
    monkeypatch.setattr(ladder, "trace_phases", lambda argv, env, timeout:
                        {"argv": argv})
    monkeypatch.setattr(ladder, "load_calibration", Calibration)
    monkeypatch.setattr(ladder, "HERE", tmp_path)
    monkeypatch.setattr(ladder, "REPEATS", 2)
    ladder.main(["--label", "x", "--rung", "verify-main-1e6",
                 "--rung", "hilb-n7"])
    # in the order of RUNGS, REPEATS runs each
    assert argvs == [ladder.RUNGS["hilb-n7"]] * 2 \
        + [ladder.RUNGS["verify-main-1e6"]] * 2
    written = json.loads((tmp_path / "BENCH_x.json").read_text())
    assert [rung["name"] for rung in written["rungs"]] == \
        ["hilb-n7", "verify-main-1e6"]


_TRACE_STUB = """import json, os, sys
print("stdout is dropped")
sys.stderr.write("the command's stderr\\n")
sys.stderr.write(json.dumps({"argv": sys.argv[1:],
                             "src": os.environ["PYTHONPATH"]}) + "\\n")
"""


def test_phases_hold_one_traced_run_per_root(monkeypatch, tmp_path):
    # the trace child is a stub that writes its argv and PYTHONPATH as the
    # record; the timed runs are faked, and old's last run times out
    stub = tmp_path / "trace.py"
    stub.write_text(_TRACE_STUB)
    old, new = tmp_path / "old", tmp_path / "new"

    def fake_child(cmd, env, timeout):
        timed_out = env["PYTHONPATH"] == str(old / "src")
        return {"exit_code": None if timed_out else 0,
                "timed_out": timed_out, "wall_s": 1.0, "cpu_s": 1.0,
                "peak_rss_mb": 1.0, "stdout_sha256": "h"}

    class Calibration:
        calibrate = staticmethod(lambda probes: 0.001)

    monkeypatch.setattr(ladder, "run_child", fake_child)
    monkeypatch.setattr(ladder, "TRACE", stub)
    monkeypatch.setattr(ladder, "load_calibration", Calibration)
    monkeypatch.setattr(ladder, "HERE", tmp_path)
    monkeypatch.setattr(ladder, "REPEATS", 1)
    ladder.main(["--label", "old", "--root", str(old), "--label", "new",
                 "--root", str(new), "--rung", "q1-gap-n5-r2"])
    (old_rung,), (new_rung,) = (
        json.loads((tmp_path / f"BENCH_{label}.json").read_text())["rungs"]
        for label in ("old", "new"))
    assert old_rung["phases"] is None
    assert new_rung["phases"] == {
        "argv": ["--", *ladder.RUNGS["q1-gap-n5-r2"]],
        "src": str(new / "src")}


def test_phases_are_null_without_a_record(monkeypatch, tmp_path):
    stub = tmp_path / "trace.py"
    stub.write_text("raise SystemExit('no record')")
    monkeypatch.setattr(ladder, "TRACE", stub)
    assert ladder.trace_phases(["dims"], None, 60) is None


def test_unknown_rung_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        ladder.main(["--label", "x", "--rung", "no-such-rung"])
    assert exc.value.code == 2
    assert "no-such-rung" in capsys.readouterr().err
