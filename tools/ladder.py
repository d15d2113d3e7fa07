"""The reach ladder: whole CLI commands at the sizes the project aims to
verify routinely, each timed REPEATS times in fresh processes.

    python3 tools/ladder.py --label NAME [--root DIR] [--rung NAME ...]
    python3 tools/ladder.py --label OLD --root OLD_DIR --label NEW --root DIR

Each rung runs ``python -m cyclohecke ...`` with the package imported from
``DIR/src`` (default: this checkout) and a timeout of 600 s per run. Given
several roots, each with its own label, a rung alternates their runs (run i
of every root before run i + 1 of any), so the drift of the host's speed
hits both trees of a before/after comparison alike. A run that times out
is killed and recorded with ``timed_out``, not failed, and its root's runs
of that rung stop there, as they do after a run that exits nonzero. The
child's own CPU seconds (user + system) and peak resident memory come from
``os.wait4``; the ``ru_maxrss`` of RUSAGE_CHILDREN would be a maximum over
every child so far. A child's peak is at least the ladder's own small
resident size at the fork that starts it. A rung keeps every run under
``runs`` and reports the median of its runs as ``cpu_s``, ``wall_s`` and
``peak_rss_mb``: single runs of unchanged code differ by far more than the
changes the ladder is meant to show. ``stdout_sha256`` hashes the child's
stdout, so two ladder files show whether a change kept every rung's output
byte-identical; it is null when the runs of a rung disagree. The result of
each root is written to ``BENCH_<label>.json`` at the root of this
checkout, with the Python version, the CPU count, the commit and a hash of
``src/`` of the measured tree. Each rung also records ``probe_s``, the mean
of the median CPU seconds of the ``bench/calibration.py`` probe just before
and just after its runs (of all roots): the host's speed drifts by up to
1.8x, so rungs of two files made apart compare best as
``cpu_s / probe_s``.

Given two roots, the first the old tree and the second the new, each rung
of both files also records ``resolved``: whether the two ``cpu_s`` medians
differ by more than the larger max - min spread of either root's runs,
both roots having run to the end. Only a resolved rung reports
``cpu_change``, new over old minus one; an unresolved one reports null,
and the comparison line printed for it says ``unresolved``.

After its timed runs, each rung runs ``tools/trace.py -- ARGV`` once per
root, untimed, under that root's environment, and stores the per-layer
record the tracer writes as the last line of stderr under ``phases``: the
spans and counters of ``bench/tracing.py``, whose hooks add their own time
to every span. ``phases`` is null for a root whose last run timed out, and
when the traced run writes no record.

``--rung NAME`` (repeatable) runs only the named rungs, in the order of
``RUNGS``; an unknown name exits 2. So a change to one layer can give a
resolved before/after of its own rung without running the whole ladder.

The four workloads of ``bench/run.py`` remain the gate of a change; the
ladder records how far the verifier reaches.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
TRACE = Path(__file__).resolve().parent / "trace.py"
TIMEOUT_S = 600.0
REPEATS = 3  # runs per rung; the record reports their median
PROBES = 11  # calibration probes of about 1 ms each, before and after a rung

RUNGS = {
    # start-up cost: interpreter, import and parser, next to no algebra
    "cli-start": ["dims", "--n", "2", "--r", "2"],
    "hilb-n7": ["hilb", "--n", "7", "--q-values", "2"],
    "hilb-n8": ["hilb", "--n", "8", "--q-values", "2"],
    "hilb-n5-zeta": ["hilb", "--n", "5", "--q-values", "zeta_3,zeta_4,zeta_5"],
    "center-n4-r3": ["--samples", "3", "center", "--n", "4", "--r", "3",
                     "--q", "generic", "--Q", "generic,generic,generic"],
    "center-n5-r3": ["center", "--n", "5", "--r", "3", "--q", "3",
                     "--Q", "2,5,7"],
    # the center claim at parameters where the algebra is not semisimple
    "center-n5-r2-zeta3": ["center", "--n", "5", "--r", "2",
                           "--q", "zeta_3", "--Q", "1,1"],
    "center-n4-r3-minus1": ["center", "--n", "4", "--r", "3",
                            "--q", "-1", "--Q", "1,-1,1"],
    "blocks-n5-r1-ell3": ["blocks", "--n", "5", "--r", "1", "--ell", "3",
                          "--charge", "0"],
    "blocks-n4-r2-ell2": ["blocks", "--n", "4", "--r", "2", "--ell", "2",
                          "--charge", "0,1"],
    "blocks-n4-r2-ell3": ["blocks", "--n", "4", "--r", "2", "--ell", "3",
                          "--charge", "0,1"],
    "blocks-n4-r3-ell3": ["blocks", "--n", "4", "--r", "3", "--ell", "3",
                          "--charge", "0,1,2"],
    "blocks-n5-r2-ell3": ["blocks", "--n", "5", "--r", "2", "--ell", "3",
                          "--charge", "0,1"],
    "pairing-n3-r3": ["--samples", "3", "pairing", "--n", "3", "--r", "3"],
    "pairing-n4-r2": ["--samples", "1", "pairing", "--n", "4", "--r", "2"],
    "pairing-n4-r3": ["--samples", "1", "pairing", "--n", "4", "--r", "3"],
    "q1-gap-n5-r2": ["q1-gap", "--n", "5", "--r", "2", "--Q", "2,5"],
    "verify-main-1e6": ["verify-main", "--budget", "1000000"],
    "table-n8-r4": ["table", "--n", "8", "--r", "4"],
}


def run_child(cmd, env, timeout):
    """Run cmd once; its exit code (None when killed at the timeout), wall
    seconds, CPU seconds and peak RSS in MB of that child alone, and the
    SHA-256 of its stdout (its stderr goes to the ladder's)."""
    with tempfile.TemporaryFile() as sink:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=sink)
        reaped = threading.Event()
        expired = threading.Event()

        def kill():
            if not reaped.is_set():
                expired.set()
                os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            reaped.set()
            timer.cancel()
        wall = time.perf_counter() - start
        sink.seek(0)
        stdout_sha256 = hashlib.sha256(sink.read()).hexdigest()
    # reaped here, so Popen must not wait for the child again
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "exit_code": None if expired.is_set() else proc.returncode,
        "timed_out": expired.is_set(),
        "wall_s": round(wall, 3),
        "cpu_s": round(usage.ru_utime + usage.ru_stime, 3),
        "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
        "stdout_sha256": stdout_sha256,
    }


def run_rung(cmd, envs, timeout):
    """Run cmd up to REPEATS times under each of envs, alternating: run i
    under every env comes before run i + 1 under any. An env stops after a
    run that times out or exits nonzero. One record per env: every run
    under "runs", the median of their wall and CPU seconds and peak RSS,
    the last run's exit code, and the stdout hash the runs share (None
    when they differ)."""
    runs = [[] for _ in envs]
    for _ in range(REPEATS):
        for env, done in zip(envs, runs):
            if not done or done[-1]["exit_code"] == 0:
                done.append(run_child(cmd, env, timeout))
    return [summarize(done) for done in runs]


def trace_phases(argv, env, timeout):
    """The per-layer record of one untimed ``TRACE -- argv`` run under env:
    the JSON on the last line of its stderr, or None when it times out or
    that line is not JSON."""
    try:
        proc = subprocess.run([sys.executable, str(TRACE), "--", *argv],
                              env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None
    try:
        return json.loads(proc.stderr.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return None


def summarize(runs):
    """The record of one env's runs of a rung (see run_rung)."""
    hashes = {run["stdout_sha256"] for run in runs}
    return {
        "exit_code": runs[-1]["exit_code"],
        "timed_out": runs[-1]["timed_out"],
        **{key: round(statistics.median(run[key] for run in runs), 3)
           for key in ("wall_s", "cpu_s", "peak_rss_mb")},
        "stdout_sha256": hashes.pop() if len(hashes) == 1 else None,
        "runs": runs,
    }


def compare(old, new):
    """Whether the cpu_s medians of two roots' records of one rung resolve
    a change (see the module docstring), and the change if they do."""
    spread = max(max(run["cpu_s"] for run in record["runs"])
                 - min(run["cpu_s"] for run in record["runs"])
                 for record in (old, new))
    resolved = (old["exit_code"] == new["exit_code"] == 0
                and abs(new["cpu_s"] - old["cpu_s"]) > spread)
    change = round(new["cpu_s"] / old["cpu_s"] - 1, 3) if resolved else None
    return {"resolved": resolved, "cpu_change": change}


def src_hash(root):
    """SHA-256 over the relative paths and bytes of every file in src/."""
    digest = hashlib.sha256()
    src = root / "src"
    for path in sorted(p for p in src.rglob("*") if p.is_file()
                       and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(src)).encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def git(root, *args):
    proc = subprocess.run(["git", "-C", str(root), *args],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def load_calibration():
    spec = importlib.util.spec_from_file_location(
        "calibration", HERE / "bench" / "calibration.py")
    calibration = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(calibration)
    return calibration


def child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", action="append", required=True,
                        help="name of the result file, one per --root")
    parser.add_argument("--root", type=Path, action="append",
                        help="checkout whose src/ is measured (default: "
                             "this checkout); repeat to alternate trees")
    parser.add_argument("--rung", action="append", choices=list(RUNGS),
                        metavar="NAME",
                        help="run only this rung; repeat for more "
                             "(default: every rung)")
    args = parser.parse_args(argv)
    roots = [root.resolve() for root in args.root or [HERE]]
    if len(args.label) != len(roots):
        parser.error("give one --label per --root")
    results = [{
        "label": label,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git(root, "rev-parse", "HEAD"),
        "src_modified": bool(git(root, "status", "--porcelain", "src")),
        "src_sha256": src_hash(root),
        "timeout_s": TIMEOUT_S,
        "repeats": REPEATS,
        "rungs": [],
    } for label, root in zip(args.label, roots)]
    envs = [child_env(root) for root in roots]
    calibration = load_calibration()
    for name in [name for name in RUNGS if name in (args.rung or RUNGS)]:
        cmd = [sys.executable, "-m", "cyclohecke", *RUNGS[name]]
        before = calibration.calibrate(PROBES)
        records = run_rung(cmd, envs, TIMEOUT_S)
        probe_s = round((before + calibration.calibrate(PROBES)) / 2, 6)
        comparison = compare(*records) if len(records) == 2 else {}
        for env, record in zip(envs, records):
            record["phases"] = (None if record["timed_out"] else
                                trace_phases(RUNGS[name], env, TIMEOUT_S))
        for result, record in zip(results, records):
            record = {"name": name, "argv": RUNGS[name], **record,
                      "probe_s": probe_s, **comparison}
            result["rungs"].append(record)
            print(json.dumps({"label": result["label"], **record}),
                  flush=True)
        if comparison:
            verdict = (f"{comparison['cpu_change']:+.1%}"
                       if comparison["resolved"] else "unresolved")
            print(f"{name}: cpu_s {records[0]['cpu_s']} -> "
                  f"{records[1]['cpu_s']}, {verdict}", flush=True)
    for result in results:
        out = HERE / f"BENCH_{result['label']}.json"
        out.write_text(json.dumps(result, indent=1) + "\n")
        print(f"wrote {out}")


if __name__ == "__main__":
    main()
