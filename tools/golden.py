"""Write the golden files that pin the command line's seeded output.

Usage: python tools/golden.py [--write]

``tests/test_golden.py`` runs every command recorded here through
``cli.main`` in-process and compares what it prints with two files under
``tests/golden/``, and replays the reference model against a third:

* ``simulate.txt`` holds the full text of ``simulate`` for the six
  protocol/attack pairings, lossless at q 1 and at ``--p-segment 0.9``,
  dark counts 1e-3 and q 0.4, as CSV and as JSON, at 9000 rounds (one
  chunk), and for each attacked pairing one lossy JSON run of two chunks
  and a remainder.  Each command's output follows a ``$ twoway-qkd ...``
  line.
* ``documents.txt`` holds the SHA-256 and length in bytes of the default
  ``analyze``, the 50,001-row ``analyze --d-grid 0:0.5:0.00001`` and
  ``table --p-segment 0.37``, in both formats, one command per line.
* ``reference.txt`` holds the counters of the reference model,
  ``protocols.ROUND_FUNCTIONS``, over 48 cases: the six pairings, four
  channels and q 0.4 and 1, at 2000 rounds, seed 11 and ``cm_prob`` 0.3
  on the two-way protocols, one case and its counters per line.

With ``--write`` the files are regenerated from the working tree; without
it, the tool names each file that would change and exits 1 if any would.
A change that regenerates them says why in CHANGES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import random
import shlex
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
sys.path.insert(0, str(ROOT / "src"))

from twoway_qkd.channel import ChannelConfig, Protocol, Strategy
from twoway_qkd.cli import main as cli_main
from twoway_qkd.harness import CHUNK_ROUNDS, Tally
from twoway_qkd.protocols import ROUND_FUNCTIONS

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
# (p_segment, dark_count_prob) of the reference cases
CHANNELS = [("1", "0"), ("0.8", "0"), ("0.7", "0.05"), ("0.3", "0.6")]


def simulate(protocol: str, attack: str, rounds: int, *options: str) -> list[str]:
    cm_prob = "0" if protocol == "bb84" else "0.25"
    return ["simulate", "--protocol", protocol, "--attack", attack, "--cm-prob", cm_prob,
            "--rounds", str(rounds), "--seed", "11", *options]


def full_text_commands() -> list[list[str]]:
    commands = [simulate(protocol, attack, 9000, *channel, "--format", fmt)
                for protocol, attack in PAIRINGS
                for channel in (LOSSLESS, LOSSY)
                for fmt in FORMATS]
    return commands + [simulate(protocol, attack, 2 * CHUNK_ROUNDS + 1000, *LOSSY,
                                "--format", "json")
                       for protocol, attack in ATTACKED]


def digest_commands() -> list[list[str]]:
    return [[*command, "--format", fmt]
            for command in (["analyze"], ["analyze", "--d-grid", "0:0.5:0.00001"],
                            ["table", "--p-segment", "0.37"])
            for fmt in FORMATS]


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


def run(argv: list[str]) -> str:
    """What ``twoway-qkd argv`` prints, run in this process; it must succeed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    if code != 0 or err.getvalue():
        raise SystemExit(f"twoway-qkd {shlex.join(argv)}: exit {code}, {err.getvalue()!r}")
    return out.getvalue()


def digest(text: str) -> str:
    data = text.encode("utf-8")
    return f"{hashlib.sha256(data).hexdigest()} {len(data)}"


def render() -> dict[str, str]:
    """Each golden file's name and contents, from the working tree."""
    return {
        "simulate.txt": "".join(PROMPT + shlex.join(argv) + "\n" + run(argv)
                                for argv in full_text_commands()),
        "documents.txt": "".join(f"{digest(run(argv))} {shlex.join(argv)}\n"
                                 for argv in digest_commands()),
        "reference.txt": "".join(
            f"{fields(case)} -> {fields(reference_counters(case))}\n"
            for case in reference_cases()),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="regenerate the files instead of naming those that differ")
    args = parser.parse_args(argv)
    stale = []
    for name, text in render().items():
        path = GOLDEN / name
        if args.write:
            GOLDEN.mkdir(exist_ok=True)
            path.write_bytes(text.encode("utf-8"))
        elif not path.is_file() or path.read_bytes() != text.encode("utf-8"):
            stale.append(name)
    for name in stale:
        print(f"would change: tests/golden/{name}")
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main())
