"""Check that the working tree's CLI output is byte-identical to a git ref's.

Usage: python tools/compare_outputs.py REF

REF is unpacked with ``git archive`` into a temporary directory.  Both trees
then run the same ``python -m twoway_qkd`` commands, each in its own
process, two at a time:

* ``simulate`` for the six protocol/attack pairings, q in {0, 0.4, 1} and
  four channels (lossless; lossy; lossy with dark counts; very lossy with
  frequent dark counts), as JSON and as CSV, at 9000 rounds;
* ``analyze --d-grid 0:0.5:0.00001``, ``analyze --d-grid=-0.0:0.5:0.125`` (a
  signed zero) and ``table --p-segment 0.37`` in both formats;
* ``analyze`` grids of 1, ``cli._BLOCK_ROWS`` and ``cli._BLOCK_ROWS + 1``
  rows (``0.25:0.25:0.1``, ``0:0.4095:0.0001`` and ``0:0.4096:0.0001``; the
  rows are filled that many at a time) in both formats;
* ``simulate`` at ``--workers 1``, ``2`` and ``3`` for 1, 4097, 16383, 16385,
  2e5 and 1e6 rounds on the three attacked pairings, lossy with dark counts,
  and for ``lm05``/``lucamarini`` at ``2 * POOL_MIN_CHUNKS * CHUNK_ROUNDS``
  rounds, the fewest that ``harness`` plays in a pool;
* ``--version``, and commands that end in each documented non-zero exit
  code: 2 (``--workers 0``), 3 (an attack foreign to the protocol, ``--q 2``,
  a non-finite ``--d-grid``, ``table --p-segment 0``) and 4 (``--output``
  into a directory that does not exist).

Each command's exit code, stdout and stderr must match between the trees,
in the working tree the three worker counts must also match each other, and
each error-path command must end in its documented exit code.  Then each
tree runs every command above through one interpreter's ``cli.main``, one
after another, with a ``SystemExit`` read as its exit code:
``--version`` and each error-path command, each ahead of one of the first
runs, so that the runs parse with a parser that has been through every exit
path; each ``simulate`` command at ``--workers 2``, so that pooled runs
start and shut down their pools between runs played in-process; and every
``analyze`` and ``table`` command.  Each exit code, stdout and stderr must
match that tree's per-process output, and the interpreter must exit 0 with
nothing else on stderr.  Exits 0 if everything matches, 1 naming the first
command that differs, and 2 if REF cannot be unpacked.

A change that alters the engine's random stream on purpose changes every
``simulate`` command's statistics (the JSON ``stats`` object, the CSV data
row) and nothing else.  So a ``simulate`` command that succeeds in both
trees and differs only there does not stop the comparison: every other
check still runs, and the tool then exits 1 with the number of such
commands.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from twoway_qkd.cli import _BLOCK_ROWS
from twoway_qkd.harness import CHUNK_ROUNDS, POOL_MIN_CHUNKS

PAIRINGS = [
    ("bb84", "none"),
    ("bb84", "intercept-resend"),
    ("pp", "none"),
    ("pp", "nguyen"),
    ("lm05", "none"),
    ("lm05", "lucamarini"),
]
ATTACKED = [pairing for pairing in PAIRINGS if pairing[1] != "none"]
# (p_segment, dark_count_prob)
CHANNELS = [("1", "0"), ("0.8", "0"), ("0.7", "0.05"), ("0.3", "0.6")]
WORKERS = ("1", "2", "3")
JOBS = 2


def simulate(protocol, attack, *options):
    cm_prob = "0" if protocol == "bb84" else "0.3"
    return ["simulate", "--protocol", protocol, "--attack", attack,
            "--cm-prob", cm_prob, *options]


def sweep() -> list[list[str]]:
    commands = [
        simulate(protocol, attack, "--q", q, "--rounds", "9000", "--seed", "11",
                 "--p-segment", p, "--dark-count-prob", dark, "--format", fmt)
        for protocol, attack in PAIRINGS
        for q in ("0", "0.4", "1")
        for p, dark in CHANNELS
        for fmt in ("json", "csv")
    ]
    for fmt in ("json", "csv"):
        commands.append(["analyze", "--d-grid", "0:0.5:0.00001", "--format", fmt])
        commands.append(["analyze", "--d-grid=-0.0:0.5:0.125", "--format", fmt])
        commands.append(["table", "--p-segment", "0.37", "--format", fmt])
        for grid in ["0.25:0.25:0.1", *(f"0:{(rows - 1) / 10_000!r}:0.0001"
                                         for rows in (_BLOCK_ROWS, _BLOCK_ROWS + 1))]:
            commands.append(["analyze", "--d-grid", grid, "--format", fmt])
    return commands


def worker_cases() -> list[list[list[str]]]:
    """Groups of commands that differ only in ``--workers``."""
    sizes = [(pairing, rounds) for pairing in ATTACKED
             for rounds in ("1", "4097", "16383", "16385", "200000", "1000000")]
    sizes.append((("lm05", "lucamarini"), str(2 * POOL_MIN_CHUNKS * CHUNK_ROUNDS)))
    return [
        [simulate(protocol, attack, "--q", "0.5", "--rounds", rounds, "--seed", "5",
                  "--p-segment", "0.9", "--dark-count-prob", "0.01",
                  "--format", "csv", "--workers", workers)
         for workers in WORKERS]
        for (protocol, attack), rounds in sizes
    ]


def error_paths() -> list[tuple[list[str], int]]:
    """``--version`` and each documented non-zero exit, with its exit code."""
    return [
        (["--version"], 0),
        (simulate("pp", "nguyen", "--rounds", "10", "--workers", "0"), 2),
        (simulate("bb84", "nguyen", "--rounds", "10"), 3),
        (simulate("pp", "nguyen", "--rounds", "10", "--q", "2"), 3),
        (["analyze", "--d-grid", "0:inf:0.1"], 3),
        (["table", "--p-segment", "0"], 3),
        (simulate("pp", "nguyen", "--rounds", "10", "--output", "no-such-dir/out"), 4),
    ]


def outputs(tree: Path, commands) -> list[tuple[int, str, str]]:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}

    def one(argv):
        result = subprocess.run([sys.executable, "-m", "twoway_qkd", *argv],
                                cwd=tree, env=env, capture_output=True, text=True)
        return result.returncode, result.stdout, result.stderr

    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        return list(pool.map(one, commands))


IN_PROCESS = """
import contextlib, io, json, sys
from twoway_qkd.cli import main

results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # usage errors, --help and --version
            code = exc.code
    results.append([code, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""


def in_process_cases(commands, groups, errors) -> list[tuple[list[str], list[str]]]:
    """(command run in-process, per-process command whose output it must
    equal): each ``simulate`` command at ``--workers 2``, every other command
    as it is, and each exit path ahead of one of the first runs."""
    cases = [(command + ["--workers", "2"] if command[0] == "simulate" else command,
              command) for command in commands]
    cases += [(group[1], group[1]) for group in groups]
    exits = [(command, command) for command, _ in errors]
    return [case for pair in zip(exits, cases) for case in pair] + cases[len(exits):]


def in_process(tree: Path, commands) -> list | str:
    """The outputs of ``commands`` run in turn through one interpreter's
    ``cli.main`` in ``tree``, or what went wrong with that interpreter."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    result = subprocess.run([sys.executable, "-c", IN_PROCESS], cwd=tree, env=env,
                            input=json.dumps(commands), capture_output=True, text=True)
    if result.returncode != 0 or result.stderr:
        return f"exit {result.returncode}, stderr {result.stderr[-2000:]!r}"
    return json.loads(result.stdout)


def without_stats(command: list[str], output: tuple) -> tuple:
    """A successful ``simulate`` output with its statistics left out."""
    code, out, err = output
    if command[0] != "simulate" or code != 0:
        return output
    if "csv" in command:  # metadata lines, the header, then one data row
        return code, out.rsplit("\n", 2)[0], err
    payload = json.loads(out)
    del payload["stats"]
    return code, json.dumps(payload), err


def unpack(ref: str, into: Path) -> None:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", ref],
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", help="git ref to compare against, e.g. HEAD~1")
    args = parser.parse_args(argv)

    groups = worker_cases()
    errors = error_paths()
    simple = sweep()
    commands = (simple + [command for group in groups for command in group]
                + [command for command, _ in errors])
    inline = in_process_cases(simple, groups, errors)
    inline_commands = [command for command, _ in inline]
    with tempfile.TemporaryDirectory() as tmp:
        try:
            unpack(args.ref, Path(tmp))
        except subprocess.CalledProcessError as exc:
            reason = (exc.stderr or b"").decode().strip() or exc
            print(f"error: cannot unpack {args.ref!r}: {reason}", file=sys.stderr)
            return 2
        ref_out = outputs(Path(tmp), commands)
        ref_inline = in_process(Path(tmp), inline_commands)
    new_out = outputs(ROOT, commands)
    new_inline = in_process(ROOT, inline_commands)

    stats_differ = 0
    for command, old, new in zip(commands, ref_out, new_out):
        if old != new and without_stats(command, old) == without_stats(command, new):
            stats_differ += 1
        elif old != new:
            print(f"differs from {args.ref}: twoway-qkd {' '.join(command)}")
            return 1
    per_process = {tuple(command): output for command, output in zip(commands, new_out)}
    for group in groups:
        first = per_process[tuple(group[0])]
        for command in group[1:]:
            if per_process[tuple(command)] != first:
                print(f"differs from --workers 1: twoway-qkd {' '.join(command)}")
                return 1
    for command, code in errors:
        if per_process[tuple(command)][0] != code:
            print(f"exit code is not {code}: twoway-qkd {' '.join(command)}")
            return 1
    for tree, out, inline_out in ((args.ref, ref_out, ref_inline),
                                  ("the working tree", new_out, new_inline)):
        if isinstance(inline_out, str):
            print(f"in-process pass failed in {tree}: {inline_out}")
            return 1
        per_process = {tuple(command): output for command, output in zip(commands, out)}
        for (command, expected), output in zip(inline, inline_out):
            if tuple(output) != per_process[tuple(expected)]:
                print(f"in-process run differs from its own process in {tree}: "
                      f"twoway-qkd {' '.join(command)}")
                return 1
    size = sum(len(out) + len(err) for _, out, err in new_out)
    failed = sum(code != 0 for code, _, _ in new_out)
    identical = (f"{len(commands)} commands byte-identical to {args.ref}"
                 if not stats_differ else
                 f"{len(commands)} commands identical to {args.ref} except for the "
                 f"statistics of {stats_differ} simulate commands")
    print(f"{identical} ({size:,} bytes of output, {failed} nonzero exits); "
          f"{len(inline)} commands in one interpreter byte-identical to their "
          f"own processes in both trees")
    return 1 if stats_differ else 0


if __name__ == "__main__":
    sys.exit(main())
