"""Seeded command-line output pinned across commits, against ``tests/golden/``.

This module is the one definition of the record: the commands, the cases of
the reference model and the text of each file (:func:`render`).  Each
command runs through ``cli.main`` in this process, with a ``SystemExit``
read as its exit code.

* ``simulate.txt``: the full text of ``simulate`` for the six
  protocol/attack pairings, lossless at q 1 and at ``--p-segment 0.9``,
  dark counts 1e-3 and q 0.4, as CSV and as JSON, at 9000 rounds (one
  chunk), and for each attacked pairing one lossy JSON run of two chunks
  and a remainder.  Each output follows a ``$ twoway-qkd ...`` line.
* ``documents.txt``: the SHA-256 and length in bytes of the default
  ``analyze``, the 50,001-row ``analyze --d-grid 0:0.5:0.00001`` and
  ``table --p-segment 0.37``, in both formats, one command per line.
* ``digests.txt``: the same for ``simulate`` over the six pairings, q 0,
  0.4 and 1 and the four channels below, in both formats, at 9000 rounds;
  for 1 to 1,000,000 rounds on the attacked pairings at ``--workers 1``;
  and for ``analyze`` on a signed-zero grid and grids of 1, 4096 and 4097
  rows (four whole blocks of ``cli._BLOCK_ROWS`` and one row more), in both
  formats.
* ``exits.txt``: ``--version`` and a command for each documented non-zero
  exit code, run from an empty working directory.  Each ``$ twoway-qkd``
  line is followed by its stdout, an ``exit N`` line and its stderr; for
  exit 2 only the last stderr line, as argparse's usage lines vary between
  Python versions.
* ``reference.txt``: the counters of the reference model,
  ``protocols.ROUND_FUNCTIONS``, replayed round by round on 48 cases (the
  six pairings, four channels and q 0.4 and 1, at 2000 rounds, seed 11 and
  ``cm_prob`` 0.3 on the two-way protocols), one case per line.

A mismatch names the first differing line and the command or case it
belongs to.  ``python tools/golden.py`` rewrites the files from the
working tree and ``git diff tests/golden/`` shows what changed; a change
that alters them says why in CHANGES.md.

The module needs only the standard library and the package, so any
supported Python can check the record without pytest:
``PYTHONPATH=src python tests/test_golden.py`` compares every file, names
the first mismatch in each and exits 1 if there is one.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import shlex
import sys
import tempfile
from pathlib import Path

from twoway_qkd.channel import ChannelConfig, Protocol, Strategy
from twoway_qkd.cli import main
from twoway_qkd.harness import CHUNK_ROUNDS, Tally
from twoway_qkd.protocols import ROUND_FUNCTIONS

GOLDEN = Path(__file__).resolve().parent / "golden"
PROMPT = "$ twoway-qkd "
PAIRINGS = [
    ("bb84", "none"),
    ("bb84", "intercept-resend"),
    ("pp", "none"),
    ("pp", "nguyen"),
    ("lm05", "none"),
    ("lm05", "lucamarini"),
]
ATTACKED = [pairing for pairing in PAIRINGS if pairing[1] != "none"]
LOSSLESS = ["--q", "1"]
LOSSY = ["--q", "0.4", "--p-segment", "0.9", "--dark-count-prob", "1e-3"]
FORMATS = ("csv", "json")
# (p_segment, dark_count_prob): lossless; lossy; with dark counts; very lossy
CHANNELS = [("1", "0"), ("0.8", "0"), ("0.7", "0.05"), ("0.3", "0.6")]


def simulate(protocol: str, attack: str, *options: str, cm_prob: str = "0.25") -> list[str]:
    return ["simulate", "--protocol", protocol, "--attack", attack,
            "--cm-prob", "0" if protocol == "bb84" else cm_prob, *options]


def full_text_commands() -> list[list[str]]:
    commands = [simulate(protocol, attack, "--rounds", "9000", "--seed", "11", *channel,
                         "--format", fmt)
                for protocol, attack in PAIRINGS
                for channel in (LOSSLESS, LOSSY)
                for fmt in FORMATS]
    return commands + [simulate(protocol, attack, "--rounds", str(2 * CHUNK_ROUNDS + 1000),
                                "--seed", "11", *LOSSY, "--format", "json")
                       for protocol, attack in ATTACKED]


def document_commands() -> list[list[str]]:
    return [[*command, "--format", fmt]
            for command in (["analyze"], ["analyze", "--d-grid", "0:0.5:0.00001"],
                            ["table", "--p-segment", "0.37"])
            for fmt in FORMATS]


def digest_commands() -> list[list[str]]:
    sweep = [simulate(protocol, attack, "--q", q, "--rounds", "9000", "--seed", "11",
                      "--p-segment", p, "--dark-count-prob", dark, "--format", fmt,
                      cm_prob="0.3")
             for protocol, attack in PAIRINGS
             for q in ("0", "0.4", "1")
             for p, dark in CHANNELS
             for fmt in FORMATS]
    # one round; around CHUNK_ROUNDS (16384) and its quarter; 13 and 62 chunks
    sizes = [simulate(protocol, attack, "--q", "0.5", "--rounds", rounds, "--seed", "5",
                      "--p-segment", "0.9", "--dark-count-prob", "0.01", "--format", "csv",
                      "--workers", "1", cm_prob="0.3")
             for protocol, attack in ATTACKED
             for rounds in ("1", "4097", "16383", "16385", "200000", "1000000")]
    # a signed zero; 1, 4096 (4 * cli._BLOCK_ROWS) and 4097 rows
    grids = [["analyze", grid, "--format", fmt]
             for grid in ("--d-grid=-0.0:0.5:0.125", "--d-grid=0.25:0.25:0.1",
                          "--d-grid=0:0.4095:0.0001", "--d-grid=0:0.4096:0.0001")
             for fmt in FORMATS]
    return sweep + sizes + grids


def exit_commands() -> list[list[str]]:
    pp = simulate("pp", "nguyen", "--rounds", "10", cm_prob="0.3")
    return [["--version"], [*pp, "--workers", "0"], simulate("bb84", "nguyen", "--rounds", "10"),
            [*pp, "--q", "2"], ["analyze", "--d-grid", "0:inf:0.1"],
            ["table", "--p-segment", "0"], [*pp, "--output", "no-such-dir/out"]]


def reference_cases() -> list[dict[str, str]]:
    return [{"protocol": protocol, "attack": attack, "q": q, "p_segment": p,
             "dark_count_prob": dark, "cm_prob": "0" if protocol == "bb84" else "0.3",
             "rounds": "2000", "seed": "11"}
            for protocol, attack in PAIRINGS
            for q in ("0.4", "1")
            for p, dark in CHANNELS]


def reference_counters(case: dict[str, str]) -> dict[str, int]:
    """The reference model's counters for one case, played round by round."""
    protocol = Protocol(case["protocol"])
    channel = ChannelConfig(p_segment=float(case["p_segment"]),
                            dark_count_prob=float(case["dark_count_prob"]))
    args = (Strategy(case["attack"]), float(case["q"]), float(case["cm_prob"]),
            channel.transmittance(protocol), channel.dark_count_prob)
    tally, rng, round_fn = Tally(), random.Random(int(case["seed"])), ROUND_FUNCTIONS[protocol]
    for _ in range(int(case["rounds"])):
        round_fn(tally, rng, *args)
    return {name: getattr(tally, name) for name in Tally.__slots__}


def fields(values: dict) -> str:
    return " ".join(f"{name}={value}" for name, value in values.items())


def run(argv: list[str]) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of ``twoway-qkd argv``, in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage errors and --version
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def stdout(argv: list[str]) -> str:
    """What ``twoway-qkd argv`` prints; it must exit 0 with nothing on stderr."""
    code, out, err = run(argv)
    if (code, err) != (0, ""):
        raise RuntimeError(f"twoway-qkd {shlex.join(argv)}: exit {code}, {err!r}")
    return out


def digest(data: bytes) -> str:
    return f"{hashlib.sha256(data).hexdigest()} {len(data)}"


def digests(commands: list[list[str]]) -> str:
    return "".join(f"{digest(stdout(argv).encode('utf-8'))} {shlex.join(argv)}\n"
                   for argv in commands)


def exits() -> str:
    sections, home = [], os.getcwd()
    with tempfile.TemporaryDirectory() as empty:
        os.chdir(empty)  # exit 4's message names a path relative to it
        try:
            for argv in exit_commands():
                code, out, err = run(argv)
                err = err.splitlines(keepends=True)[-1] if code == 2 else err
                sections.append(f"{PROMPT}{shlex.join(argv)}\n{out}exit {code}\n{err}")
        finally:
            os.chdir(home)
    return "".join(sections)


RECORD = {
    "simulate.txt": lambda: "".join(PROMPT + shlex.join(argv) + "\n" + stdout(argv)
                                    for argv in full_text_commands()),
    "documents.txt": lambda: digests(document_commands()),
    "digests.txt": lambda: digests(digest_commands()),
    "exits.txt": exits,
    "reference.txt": lambda: "".join(f"{fields(case)} -> {fields(reference_counters(case))}\n"
                                     for case in reference_cases()),
}


def render(name: str) -> str:
    """The text of ``tests/golden/<name>``, from the working tree."""
    return RECORD[name]()


def first_difference(name: str, expected: str, actual: str) -> str:
    want, got = expected.splitlines(keepends=True), actual.splitlines(keepends=True)
    n = next((n for n, (old, new) in enumerate(zip(want, got)) if old != new),
             min(len(want), len(got)))
    old, new = (repr(lines[n]) if n < len(lines) else "end of file" for lines in (want, got))
    # a line of a full-text section belongs to the command above it
    headers = [k for k, line in enumerate(want[:n + 1]) if line.startswith(PROMPT)]
    command = want[headers[-1]].rstrip() if headers and headers[-1] < n else ""
    where = f", in the output of {command!r}" if command else ""
    return f"tests/golden/{name} line {n + 1}{where}: expected {old}, got {new}"


def check(name: str) -> None:
    __tracebackhide__ = True  # pytest shows the message, not this frame
    expected, actual = (GOLDEN / name).read_bytes().decode("utf-8"), render(name)
    if actual != expected:
        raise AssertionError(first_difference(name, expected, actual))


def test_simulate_full_text():
    check("simulate.txt")


def test_documents_length_and_digest():
    check("documents.txt")


def test_command_sweep_length_and_digest():
    check("digests.txt")


def test_exit_paths():
    check("exits.txt")


def test_reference_model_counters():
    check("reference.txt")


def check_all() -> int:
    """Check every file of the record; 1 if any differs, else 0."""
    failed = False
    for name in RECORD:
        try:
            check(name)
        except AssertionError as exc:
            failed = True
            print(exc, file=sys.stderr)
        else:
            print(f"tests/golden/{name} matches")
    return int(failed)


if __name__ == "__main__":
    sys.exit(check_all())
