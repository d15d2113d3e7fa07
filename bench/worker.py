"""One workload iteration in a fresh process.

Imports the package and validates its straightening table (both set-up,
outside the clock), then calls ``cyclohecke.cli.main`` once per
invocation, in order, capturing stdout and stderr, with the speed meter of
bench/calibration.py running. Prints one JSON line: wall and CPU seconds,
the CPU seconds rescaled to the reference speed, peak
resident memory, each invocation's exit code, output and traceback, and
with ``--trace 1`` the per-layer metrics.

Usage: python3 bench/worker.py --trace 0|1 [--fault NAME] INVOCATIONS_JSON
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import traceback
from time import perf_counter

import tracing
from calibration import SpeedMeter


def drop_center_vector():
    """Fault: every center basis comes back one vector short."""
    from cyclohecke import center

    original = center.center_basis

    def short_basis(ctx, **kwargs):
        return original(ctx, **kwargs)[:-1]

    tracing.rebind(original, short_basis)


FAULTS = {"drop-center-vector": drop_center_vector}


def run_invocation(cli, argv, meter):
    out, err = io.StringIO(), io.StringIO()
    trace = None
    try:
        with meter, contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # reported to the gate as a traceback
        code = None
        trace = traceback.format_exc()
    return {"argv": argv, "exit_code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue(), "traceback": trace}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--fault", choices=sorted(FAULTS), default=None)
    parser.add_argument("invocations")
    args = parser.parse_args()

    import cyclohecke
    from cyclohecke import cli

    cyclohecke.validate_straightening()
    if args.fault:
        FAULTS[args.fault]()
    tracer = tracing.install() if args.trace else None

    meter = SpeedMeter()
    start = perf_counter()
    results = [run_invocation(cli, argv, meter)
               for argv in json.loads(args.invocations)]
    record = {
        "wall_seconds": perf_counter() - start - meter.probe_s,
        "cpu_seconds": meter.cpu_s,
        "scaled_seconds": meter.scaled_s,
        "probes": meter.probes,
        "probe_seconds": meter.probe_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "invocations": results,
    }
    if tracer is not None:
        record["layers"] = tracing.layer_metrics(tracer)
    sys.stdout.write(json.dumps(record) + "\n")


if __name__ == "__main__":
    main()
