"""Every benchmark workload's seed-0 invocations, run through the CLI in one
process, print exactly the stored reference output in bench/reference/:
the byte-stability test of stdout, without a benchmark run."""

import importlib.util
import sys
from pathlib import Path

import pytest

from cyclohecke import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


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
