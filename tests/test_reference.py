"""Every benchmark workload's seed-0 invocations, run through the CLI in one
process, print exactly the stored reference output in bench/reference/:
the byte-stability test of stdout, without a benchmark run. The same holds
for a traced benchmark worker, whose tracer wraps package functions by
name, so a renamed function fails here rather than in a traced bench run."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cyclohecke import cli

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def _load_workloads():
    """bench/workloads.py as a module, imported without writing bytecode."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations here
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_stdout_equals_reference(name, capsys):
    stdout = ""
    for argv in workloads.WORKLOADS[name].invocations(workloads.DEFAULT_SEED):
        assert cli.main(argv) == 0, argv
        stdout += capsys.readouterr().out
    reference = (BENCH / "reference" / f"{name}.out").read_bytes()
    assert stdout.encode() == reference


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_worker_prints_reference(name):
    invocations = workloads.WORKLOADS[name].invocations(workloads.DEFAULT_SEED)
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--trace", "1",
         json.dumps(invocations)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    record = json.loads(proc.stdout.splitlines()[-1])
    assert "layers" in record
    for result in record["invocations"]:
        assert result["traceback"] is None, result["traceback"]
        assert result["exit_code"] == 0, result["argv"]
    stdout = "".join(result["stdout"] for result in record["invocations"])
    reference = (BENCH / "reference" / f"{name}.out").read_bytes()
    assert stdout.encode() == reference
    if name == "blocks":
        # the block idempotents, and the minimal polynomials they are built
        # from, run through the functions the tracer wraps
        assert record["layers"]["center.idempotents_s"] > 0
        assert record["layers"]["center.min_poly_s"] > 0
