"""Per-layer record of one CLI command: the spans and counters of
bench/tracing.py, which is imported and left unchanged.

    python3 tools/trace.py -- verify-main --n 3 --r 2

Installs the hooks of ``bench/tracing.py``, runs ``cyclohecke.cli.main``
on the arguments after ``--`` and writes ``tracing.layer_metrics`` as one
JSON line to stderr, after whatever the command wrote there. Stdout and
the exit code are the command's own. The package is imported from
PYTHONPATH when that names one, else from this checkout's ``src/``.

The record also holds ``cli.parse_s``, the seconds of ``cli.parse_args``:
building the parsers and parsing the arguments, which no span of
``bench/tracing.py`` covers. The hooks add their own time to every span,
so compare a traced record with other traced records, not with untraced
timings. Arguments that do not parse exit 2 from argparse, before any
record is written.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "tracing", HERE / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["--"]:
        argv = argv[1:]
    sys.path.append(str(HERE / "src"))
    from cyclohecke import cli

    tracing = load_tracing()
    tracer = tracing.install()
    # a span of its own, outside bench/tracing.py's SPANS; SystemExit from
    # argparse passes through it unchanged
    cli.parse_args = tracer.span("cli.parse", cli.parse_args)
    code = cli.main(argv)
    record = {**tracing.layer_metrics(tracer),
              "cli.parse_s": tracer.inclusive["cli.parse"]}
    sys.stderr.write(json.dumps(record, sort_keys=True) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
