"""Shows that the benchmark's correctness gate can fail.

    python3 bench/selftest.py

1. Runs the center-r4 workload with a fault injected from outside the
   package: every center basis loses one vector. The CLI's ``center``
   command still reports ``pass`` and exits 0, so only the benchmark's own
   invariants and the stored reference can catch it; the run must report
   a failed check and ``checks_passed_frac`` below 1.
2. Compares the stored main-identity reference against a copy with one
   byte changed; the reference check must fail.

Exits 0 when both faults are caught, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import run
from workloads import DEFAULT_SEED, WORKLOADS

BENCH = Path(__file__).resolve().parent


def injected_fault_is_caught():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "center-r4",
         "--seed", str(DEFAULT_SEED), "--seconds", "1", "--trace", "0",
         "--fault", "drop-center-vector"],
        capture_output=True, text=True, timeout=170)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print(f"fault run did not produce a result:\n{proc.stderr}")
        return False
    result = json.loads(lines[-1])
    passed_frac = result["metrics"]["checks_passed_frac"]["value"]
    print("\n".join(line for line in lines if line.startswith("FAILED")))
    return (not result["correct"] and result["failed"] > 0
            and passed_frac < 1)


def corrupted_reference_is_caught():
    workload = WORKLOADS["main-identity"]
    reference = run.load_reference(workload.name, DEFAULT_SEED)
    record = {"invocations": [{
        "argv": workload.invocations(DEFAULT_SEED)[0], "exit_code": 0,
        "stdout": reference, "stderr": "", "traceback": None}]}
    corrupted = reference.replace('"rows":1', '"rows":2', 1)
    assert corrupted != reference

    def failures(ref):
        return [label for label, ok in run.iteration_checks(
            workload, DEFAULT_SEED, record, ref, None) if not ok]

    return (failures(reference) == []
            and failures(corrupted) == ["stdout equals stored reference"])


def main():
    outcomes = {
        "injected center fault caught": injected_fault_is_caught(),
        "corrupted reference caught": corrupted_reference_is_caught(),
    }
    for label, ok in outcomes.items():
        print(f"{'PASS' if ok else 'FAIL'} {label}")
    return 0 if all(outcomes.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
