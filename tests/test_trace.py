import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ARGS = ["verify-main", "--n", "3", "--r", "2"]


def _run(cmd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    return subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=120)


def test_traced_stdout_is_the_commands_and_stderr_ends_in_the_record():
    # in child processes: the hooks rebind the package's functions for good
    plain = _run([sys.executable, "-m", "cyclohecke", *ARGS])
    traced = _run([sys.executable, str(ROOT / "tools" / "trace.py"), "--",
                   *ARGS])
    assert plain.returncode == traced.returncode == 0
    assert traced.stdout == plain.stdout
    record = json.loads(traced.stderr.splitlines()[-1])
    assert record["ktheory.main_identity_s"] > 0
    # one fixed-point character per row of (3,2)
    assert record["ktheory.fixed_points"] == 10
    # building the parsers and parsing, outside every bench span
    assert record["cli.parse_s"] > 0


def test_exit_code_is_the_commands():
    traced = _run([sys.executable, str(ROOT / "tools" / "trace.py"), "--",
                   "verify-main", "--r", "2"])
    assert traced.returncode == 2
    assert "--r needs --n" in traced.stderr


def test_parse_error_exits_as_argparse_does():
    # the parse span re-raises argparse's SystemExit(2) unchanged
    plain = _run([sys.executable, "-m", "cyclohecke", "dims", "--n", "x"])
    traced = _run([sys.executable, str(ROOT / "tools" / "trace.py"), "--",
                   "dims", "--n", "x"])
    assert plain.returncode == traced.returncode == 2
    assert traced.stderr == plain.stderr
