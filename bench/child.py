"""Program-side half of the benchmark: runs the package, never checks it.

Two modes, both started by ``run.py`` with ``src`` on ``PYTHONPATH``:

``traced-cli SPANS_DIR OP_ID ARGV...``
    One traced ``twoway-qkd`` process: installs the span wrappers, calls
    ``twoway_qkd.cli.main(ARGV)`` and exits with its code.

``sweep SPEC_JSON``
    Imports the package once and runs the spec's operations, each a
    ``cli.main(argv)`` call, over and over until the spec's time budget is
    spent.  With ``"trace": true`` the iterations alternate untraced and
    traced.  After each iteration it prints one JSON line with the wall time,
    exit code and output digest of every operation and the peak RSS so far.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time

import tracer as tracing


def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _peak_rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, children_kb) / 1024.0


def traced_cli(spans_dir: str, op_id: str, argv: list[str]) -> int:
    from twoway_qkd import cli

    tracer = tracing.Tracer(spans_dir)
    tracer.op = int(op_id)
    tracing.install(tracer)
    try:
        return cli.main(argv)
    finally:
        tracer.flush()


def sweep(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    from twoway_qkd import cli

    tracer = tracing.Tracer(spec["spans_dir"]) if spec["trace"] else None
    min_iterations = 2 if tracer else 1
    started = time.perf_counter()
    iteration = 0
    while True:
        traced = tracer is not None and iteration % 2 == 1
        restore = tracing.install(tracer) if traced else None
        ops = []
        try:
            for index, op in enumerate(spec["ops"]):
                if traced:
                    tracer.op = index
                t0 = time.perf_counter()
                try:
                    code = cli.main(op["argv"])
                except SystemExit as exc:  # argparse rejected the argv
                    code = exc.code
                seconds = time.perf_counter() - t0
                ops.append([seconds, code, _digest(op["output"]) if code == 0 else None])
        finally:
            if restore:
                restore()
        print(json.dumps({"traced": traced, "ops": ops, "peak_rss_mb": _peak_rss_mb()}),
              flush=True)
        iteration += 1
        elapsed = time.perf_counter() - started
        last = elapsed / iteration
        if iteration >= min_iterations and elapsed + last > spec["seconds"]:
            break
    if tracer:
        tracer.flush()
    return 0


def main() -> int:
    mode, *rest = sys.argv[1:]
    if mode == "traced-cli":
        return traced_cli(rest[0], rest[1], rest[2:])
    if mode == "sweep":
        return sweep(rest[0])
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
