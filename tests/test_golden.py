"""Seeded command-line output pinned across commits, against ``tests/golden/``.

Each recorded command runs through ``cli.main`` in this process and must
exit 0 with nothing on stderr.  ``simulate.txt`` holds each ``simulate``
command's full text after its ``$ twoway-qkd ...`` line; ``documents.txt``
holds the SHA-256 and length of the larger ``analyze`` and ``table``
documents.  ``reference.txt`` holds the counters of the reference model,
``protocols.ROUND_FUNCTIONS``, each case replayed here round by round.  A
mismatch names the first differing command or case, and for full text the
first differing line.  ``python tools/golden.py --write`` regenerates the
files; a change that does so says why in CHANGES.md.
"""

import contextlib
import hashlib
import io
import random
import shlex
from pathlib import Path

from twoway_qkd.channel import ChannelConfig, Protocol, Strategy
from twoway_qkd.cli import main
from twoway_qkd.harness import Tally
from twoway_qkd.protocols import ROUND_FUNCTIONS

GOLDEN = Path(__file__).resolve().parent / "golden"
PROMPT = "$ twoway-qkd "


def golden_lines(name: str) -> list[str]:
    return (GOLDEN / name).read_bytes().decode("utf-8").splitlines(keepends=True)


def run(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert (code, err.getvalue()) == (0, ""), f"twoway-qkd {shlex.join(argv)}"
    return out.getvalue()


def recorded_outputs() -> list[tuple[list[str], str]]:
    """(argv, expected stdout) for each ``$ twoway-qkd`` section of simulate.txt."""
    sections = []
    for line in golden_lines("simulate.txt"):
        if line.startswith(PROMPT):
            sections.append((shlex.split(line[len(PROMPT):]), []))
        else:
            sections[-1][1].append(line)
    return [(argv, "".join(lines)) for argv, lines in sections]


def first_difference(expected: str, actual: str) -> str:
    want, got = expected.splitlines(keepends=True), actual.splitlines(keepends=True)
    for number, (old, new) in enumerate(zip(want, got), 1):
        if old != new:
            return f"line {number}: expected {old!r}, got {new!r}"
    return f"expected {len(want)} lines, got {len(got)}"


def test_simulate_full_text():
    recorded = recorded_outputs()
    assert len(recorded) == 27
    for argv, expected in recorded:
        actual = run(argv)
        assert actual == expected, (
            f"twoway-qkd {shlex.join(argv)}: {first_difference(expected, actual)}"
        )


def test_documents_length_and_digest():
    lines = golden_lines("documents.txt")
    assert len(lines) == 6
    for line in lines:
        sha256, size, command = line.rstrip("\n").split(" ", 2)
        data = run(shlex.split(command)).encode("utf-8")
        assert (hashlib.sha256(data).hexdigest(), len(data)) == (sha256, int(size)), (
            f"twoway-qkd {command}: {len(data)} bytes, expected {size} "
            "with the recorded digest"
        )


def reference_counters(case: dict[str, str]) -> dict[str, str]:
    protocol = Protocol(case["protocol"])
    channel = ChannelConfig(p_segment=float(case["p_segment"]),
                            dark_count_prob=float(case["dark_count_prob"]))
    args = (Strategy(case["attack"]), float(case["q"]), float(case["cm_prob"]),
            channel.transmittance(protocol), channel.dark_count_prob)
    tally, rng, round_fn = Tally(), random.Random(int(case["seed"])), ROUND_FUNCTIONS[protocol]
    for _ in range(int(case["rounds"])):
        round_fn(tally, rng, *args)
    return {name: str(getattr(tally, name)) for name in Tally.__slots__}


def test_reference_model_counters():
    lines = golden_lines("reference.txt")
    assert len(lines) == 48
    for line in lines:
        case, counters = (dict(field.split("=") for field in side.split())
                          for side in line.split(" -> "))
        actual = reference_counters(case)
        assert actual == counters, f"reference model, {line.split(' -> ')[0]}: got {actual}"
