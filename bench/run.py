"""cyclohecke benchmark: runs one workload through the real CLI entry point
for a fixed time and checks every output.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Each iteration is a fresh process (bench/worker.py) that imports the
package from ./src and runs the workload's CLI invocations one after
another (a closed loop of one client). Iterations repeat while the next
one is expected to finish within ``--seconds``; at least one always runs.

With ``--trace 0`` the result holds the end-to-end metrics: ``verify_s``
(median over the run's iterations of the seconds of the workload's
invocations), ``setup_s`` (median seconds of a fresh interpreter importing
the package and validating its straightening table, measured several times
per run), ``peak_rss_mb`` (median peak resident memory of an
iteration process) and ``checks_passed_frac``. With ``--trace 1`` untraced
and traced iterations alternate and the result holds the per-layer metrics
of bench/tracing.py, taken from the traced iteration of median time.

Every timing is CPU time rescaled to one reference speed of the host
(bench/calibration.py): on a shared host the speed of a process changes by
up to 1.8x over minutes, so raw seconds of the same code spread more
between runs than a change should be judged by. Raw wall and CPU seconds
are printed beside the rescaled ones. The run and every process it starts
stay on one CPU, so that the speed probes taken here for the set-up
processes see the CPU those processes run on.

Every iteration passes the correctness gate: exit code 0, no traceback,
every report ``pass``, the workload's invariants recomputed by
bench/workloads.py, stdout identical across iterations (and between traced
and untraced runs) and, at the default seed, identical to the stored
reference in bench/reference/. The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from calibration import calibrate, rescale
from workloads import DEFAULT_SEED, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPEATS = 20
SETUP_PROBES = 20  # speed probes before and after each set-up process
RUN_LIMIT_S = 170  # every run, whatever --seconds says, ends before this
SETUP_CODE = "import cyclohecke; cyclohecke.validate_straightening()"


def worker_env():
    """Environment of every measured process: the checkout's sources, a
    fixed hash seed, and no disk cache of generator matrices."""
    env = dict(os.environ)
    env.pop("CYCLOHECKE_CACHE", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def pin_to_one_cpu():
    """Keep this process and every process it starts on one CPU: each CPU
    of a shared host changes speed on its own, and the speed probes taken
    here must see the CPU the measured child runs on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def children_cpu_s():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(env):
    """CPU seconds of SETUP_REPEATS fresh interpreters doing the set-up,
    the same rescaled to the reference speed, and whether every one of
    them exited cleanly."""
    times, scaled, ok = [], [], True
    before = calibrate(SETUP_PROBES)
    for _ in range(SETUP_REPEATS):
        start = children_cpu_s()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                              cwd=ROOT, capture_output=True)
        times.append(children_cpu_s() - start)
        after = calibrate(SETUP_PROBES)
        scaled.append(rescale(times[-1], (before + after) / 2))
        before = after
        ok = ok and proc.returncode == 0
    return times, scaled, ok


def run_worker(invocations, trace, fault, env, timeout):
    """One iteration; the worker's JSON record, or None if it failed."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--trace", str(trace)]
    if fault:
        cmd += ["--fault", fault]
    cmd.append(json.dumps(invocations))
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.stderr.write("worker timed out\n")
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    try:
        return json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write("worker printed no record\n")
        return None


def record_stdout(record):
    return "".join(inv["stdout"] for inv in record["invocations"])


def iteration_checks(workload, seed, record, reference, expected_stdout):
    """(label, ok) for every check of one iteration."""
    if record is None:
        return [("worker completed", False)]
    checks = []
    per_invocation = []
    for inv in record["invocations"]:
        cmd = " ".join(inv["argv"])
        checks.append((f"exit 0: {cmd}", inv["exit_code"] == 0))
        checks.append((f"no traceback: {cmd}", inv["traceback"] is None
                       and "Traceback" not in inv["stderr"]))
        try:
            reports = [json.loads(line)
                       for line in inv["stdout"].splitlines() if line]
        except json.JSONDecodeError:
            reports = []
        checks.append((f"reports present: {cmd}", bool(reports)))
        checks += [(f"status pass: {rep.get('check')}",
                    rep.get("status") == "pass") for rep in reports]
        per_invocation.append(reports)
    try:
        checks += workload.invariants(per_invocation, seed)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        checks.append((f"invariants readable: {exc!r}", False))
    stdout = record_stdout(record)
    if reference is not None:
        checks.append(("stdout equals stored reference", stdout == reference))
    if expected_stdout is not None:
        checks.append(("stdout equals first iteration", stdout == expected_stdout))
    return checks


def source_digest():
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def load_reference(name, seed):
    path = BENCH / "reference" / f"{name}.out"
    if seed != DEFAULT_SEED or not path.is_file():
        return None
    return path.read_text()


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--fault", default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "cyclohecke" / "__init__.py").is_file():
        sys.stderr.write(f"error: no package sources under {SRC}\n")
        return 2
    pin_to_one_cpu()
    started = perf_counter()
    deadline = started + args.seconds
    workload = WORKLOADS[args.workload]
    invocations = workload.invocations(args.seed)
    reference = load_reference(workload.name, args.seed)
    env = worker_env()

    checks = []
    setup_times = setup_scaled = []
    if not args.trace:
        setup_times, setup_scaled, setup_ok = measure_setup(env)
        checks.append(("set-up processes exit 0", setup_ok))

    plain, traced = [], []
    first_stdout = None
    modes = [0, 1] if args.trace else [0]
    while True:
        iteration_start = perf_counter()
        completed = True
        for mode in modes:
            timeout = max(1.0, RUN_LIMIT_S - (perf_counter() - started))
            record = run_worker(invocations, mode, args.fault, env, timeout)
            checks += iteration_checks(workload, args.seed, record, reference,
                                       first_stdout)
            if record is None:
                completed = False
                break
            if first_stdout is None:
                first_stdout = record_stdout(record)
            (traced if mode else plain).append(record)
        now = perf_counter()
        if not completed or now + (now - iteration_start) > deadline:
            break

    if not plain or (args.trace and not traced):
        sys.stderr.write("error: no iteration completed\n")
        return 1

    failed = sum(1 for _, ok in checks if not ok)
    for label, ok in checks:
        if not ok:
            print(f"FAILED check: {label}")
    verify_s = statistics.median(r["scaled_seconds"] for r in plain)
    if args.trace:
        metrics = trace_metrics(traced, verify_s)
    else:
        metrics = {
            "verify_s": (verify_s, "s"),
            "setup_s": (statistics.median(setup_scaled), "s"),
            "peak_rss_mb": (statistics.median(
                r["peak_rss_mb"] for r in plain), "MB"),
            "checks_passed_frac": ((len(checks) - failed) / len(checks),
                                   "frac"),
        }
    print(f"workload {workload.name}, seed {args.seed}, "
          f"{len(plain)} untraced and {len(traced)} traced iterations")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:.6g} {unit}")
    print(f"  checks attempted {len(checks)}, failed {failed}, "
          f"checks_failed_frac {failed / len(checks):.6g}")
    print(f"  not rescaled: verify median "
          f"{statistics.median(r['wall_seconds'] for r in plain):.6g} s wall, "
          f"{statistics.median(r['cpu_seconds'] for r in plain):.6g} s CPU"
          + (f"; setup median {statistics.median(setup_times):.6g} s CPU"
             if setup_times else ""))
    print(json.dumps({"provenance": {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "workload": workload.name,
        "seed": args.seed,
        "argv": invocations,
        "verify_wall_s_samples": [r["wall_seconds"] for r in plain],
        "verify_cpu_s_samples": [r["cpu_seconds"] for r in plain],
        "verify_s_samples": [r["scaled_seconds"] for r in plain],
        "traced_s_samples": [r["scaled_seconds"] for r in traced],
        "setup_cpu_s_samples": setup_times,
        "setup_s_samples": setup_scaled,
        "probes": [r["probes"] for r in plain],
    }}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def trace_metrics(traced, verify_s):
    """Per-layer metrics of the traced iteration of median time, its spans
    rescaled to the reference speed like the iteration's total, and the
    median traced time over the untraced ``verify_s``."""
    ordered = sorted(traced, key=lambda r: r["scaled_seconds"])
    middle = ordered[(len(ordered) - 1) // 2]
    # spans are wall time and also hold the probes that ran inside them
    speed = middle["scaled_seconds"] / (middle["wall_seconds"]
                                        + middle["probe_seconds"])
    metrics = {}
    for name, value in middle["layers"].items():
        if name.endswith("_s"):
            metrics[name] = (value * speed, "s")
        else:
            metrics[name] = (value, "ratio" if name.endswith("_ratio") else
                             "bits" if name.endswith("_bits_max") else "count")
    traced_s = statistics.median(r["scaled_seconds"] for r in traced)
    metrics["trace.overhead_ratio"] = (traced_s / verify_s, "ratio")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
