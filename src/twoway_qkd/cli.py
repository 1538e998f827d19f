"""Command-line frontend.

Three subcommands: ``simulate`` runs the round-level simulator and reports
run statistics, ``analyze`` tabulates the closed-form information curves
over a disturbance grid, and ``table`` prints the protocol comparison.
Every subcommand writes CSV (with ``#``-prefixed metadata lines) or JSON to
stdout or to ``--output``.  Only ``simulate`` imports the engine.

Exit codes: 0 on success, 2 for command-line usage errors, 3 for
configurations the model rejects, 4 for output I/O failures.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Callable, Collection, Iterable, Iterator
from functools import cache
from itertools import chain, repeat

from . import __version__
from .analysis import (
    INFORMATION_COLUMNS,
    critical_disturbance,
    grid_blocks,
    information_rows,
    protocol_comparison,
)
from .channel import ChannelConfig, ConfigError, Protocol, Strategy

EXIT_CONFIG = 3
EXIT_IO = 4


def _grid_arg(text: str) -> str:
    parts = [part.strip() for part in text.split(":")]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"expected START:END:STEP, got {text!r}"
        )
    try:
        for part in parts:
            float(part)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected numeric START:END:STEP, got {text!r}"
        ) from None
    return ":".join(parts)


def _workers_arg(text: str) -> int:
    try:
        workers = int(text)
        if workers >= 1:
            return workers
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twoway-qkd",
        description="Simulator and analysis tools for two-way and "
        "prepare-and-measure QKD protocols.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the round-level simulator")
    sim.add_argument(
        "--protocol",
        required=True,
        choices=[p.value for p in Protocol],
    )
    sim.add_argument(
        "--attack",
        default=Strategy.NONE.value,
        choices=[s.value for s in Strategy],
    )
    sim.add_argument("--q", type=float, default=1.0,
                     help="attacker presence probability per round")
    sim.add_argument("--rounds", type=int, required=True)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--p-segment", type=float, default=1.0,
                     help="single-pass channel transmission probability")
    sim.add_argument("--cm-prob", type=float, default=0.0,
                     help="control-mode probability (two-way protocols)")
    sim.add_argument("--detector-efficiency", type=float, default=1.0)
    sim.add_argument("--dark-count-prob", type=float, default=0.0)
    sim.add_argument("--workers", type=_workers_arg, default=1,
                     help="processes to spread chunks over (result-neutral; at "
                     "most one per CPU and per 2048 chunks, so runs of fewer "
                     "than 4096 chunks play in-process)")
    _output_args(sim, default_format="json")
    sim.set_defaults(func=_cmd_simulate)

    ana = sub.add_parser(
        "analyze", help="closed-form information curves over a disturbance grid"
    )
    ana.add_argument("--d-grid", type=_grid_arg, default="0:0.5:0.01",
                     metavar="START:END:STEP")
    _output_args(ana, default_format="csv")
    ana.set_defaults(func=_cmd_analyze)

    tab = sub.add_parser("table", help="protocol comparison table")
    tab.add_argument("--p-segment", type=float, default=1.0)
    _output_args(tab, default_format="csv")
    tab.set_defaults(func=_cmd_table)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses: built on its first call, then shared, since
    parsing keeps no state between calls (``TestParserReuse``)."""
    return build_parser()


def _output_args(sub: argparse.ArgumentParser, default_format: str) -> None:
    sub.add_argument("--format", choices=["csv", "json"], default=default_format)
    sub.add_argument("--output", default=None, metavar="PATH")


# Rows per block: analyze holds one block of its grid, rows and text at a time,
# never the whole grid.  Blocks of 1024 rows write as fast as blocks of 4096.
_BLOCK_ROWS = 1024


def _csv_cells(values: Iterable[object]) -> list[object]:
    """Each value as CSV prints it: a missing value (None) is ``indeterminable``."""
    return ["indeterminable" if v is None else v for v in values]


def _csv_document(
    meta: dict[str, object], keys: Collection[str], blocks: Iterable[list]
) -> Iterator[str]:
    lines = [f"# {key}={value}" for key, value in zip(meta, _csv_cells(meta.values()))]
    header = "\n" * bool(lines) + ",".join(keys).replace("%", "%%") + "\n"
    yield "\n".join(lines)
    yield from _fill(blocks, ",".join(["%s"] * len(keys)), "\n", _csv_cells, header)
    yield "\n"


def _fill(
    blocks: Iterable[list], row: str, sep: str, texts: Callable, lead: str = ""
) -> Iterator[str]:
    """Each block of rows as ``sep.join([row] * len(block))`` with the block's
    values, as ``texts`` turns them, in its ``%s`` slots, after ``lead`` (a
    template too) for the first block and ``sep`` for each later one.  A block
    is let go as soon as it is filled."""

    def fill(block: list, lead: str) -> str:
        template = lead + sep.join([row] * len(block))
        return template % tuple(texts(chain.from_iterable(block)))

    return map(fill, blocks, chain([lead], repeat(sep)))


def _json_block(brackets: str, items: list[str], depth: int) -> str:
    """``items`` as ``json.dumps(indent=2)`` lays out a container ``depth`` deep."""
    if not items:
        return brackets
    pad = "\n" + "  " * depth
    return brackets[0] + pad + "  " + f",{pad}  ".join(items) + pad + brackets[1]


def _emit(
    fmt: str, config: dict[str, object], key: str, keys: Collection[str],
    blocks: Iterable[list], /, **extra: object,
) -> Iterator[str]:
    """One output document, in pieces made as they are read.

    The body goes under ``key``: one object under ``stats``, a list of
    objects under ``rows``.  Its fields are ``keys``, and ``blocks`` holds its
    rows, at most ``_BLOCK_ROWS`` per block, each row the values of ``keys``
    in order; a ``stats`` body is one block of one row.  ``config`` is flat
    and ``extra`` holds scalars.  JSON is ``json.dumps(payload, indent=2)``'s
    bytes: ``%s`` templates filled from C-encoder calls, one for the config,
    extras and version and one per block; the encoder leaves no raw newline
    inside an encoded scalar.
    """
    if fmt == "csv":
        yield from _csv_document({**config, **extra, "version": __version__}, keys, blocks)
        return
    import json  # only here: CSV output and --version never load it
    quote = json.encoder.encode_basestring_ascii  # what json.dumps does to a str

    def obj(fields: dict[str, str], depth: int) -> str:
        items = [quote(k).replace("%", "%%") + ": " + v for k, v in fields.items()]
        return _json_block("{}", items, depth)

    def encode(values: Iterable[object]) -> list[str]:
        text = json.dumps(list(values), separators=("\n", ":"))[1:-1]
        return text.split("\n") if text else []

    listed = key == "rows"
    rows = _fill(blocks, obj(dict.fromkeys(keys, "%s"), 1 + listed), ",\n    ", encode)
    first = next(rows, None)
    slot = "\0"  # marks where the rows go: every key and string escapes a NUL
    fields = {"config": obj(dict.fromkeys(config, "%s"), 1), **dict.fromkeys(extra, "%s")}
    fields[key] = _json_block("[]", [slot] * (first is not None), 1) if listed else slot
    template = obj({**fields, "version": "%s"}, 0) + "\n"
    filled = template % tuple(encode([*config.values(), *extra.values(), __version__]))
    head, _, tail = filled.partition(slot)
    yield head
    if first is not None:
        yield first
        del first
        yield from rows
    yield tail


def _cmd_simulate(args: argparse.Namespace) -> Iterator[str]:
    # Imported here so that --version, table and analyze skip it (2.4 ms on 2 CPUs).
    from . import harness
    from .adversaries import AttackConfig

    config = harness.SimConfig(
        protocol=Protocol(args.protocol),
        rounds=args.rounds,
        seed=args.seed,
        attack=AttackConfig(strategy=Strategy(args.attack), q=args.q),
        cm_prob=args.cm_prob,
        channel=ChannelConfig(
            p_segment=args.p_segment,
            detector_efficiency=args.detector_efficiency,
            dark_count_prob=args.dark_count_prob,
        ),
    )
    stats = harness.run(config, workers=args.workers).as_dict()
    return _emit(args.format, config.as_dict(), "stats", stats.keys(), [[stats.values()]])


def _cmd_analyze(args: argparse.Namespace) -> Iterator[str]:
    start, end, step = (float(part) for part in args.d_grid.split(":"))
    blocks = grid_blocks(start, end, step, _BLOCK_ROWS)
    return _emit(
        args.format,
        {"d_grid": args.d_grid},
        "rows",
        INFORMATION_COLUMNS,
        map(information_rows, blocks),
        critical_disturbance=critical_disturbance(),
    )


def _cmd_table(args: argparse.Namespace) -> Iterator[str]:
    rows = protocol_comparison(args.p_segment)
    blocks = [[row.values() for row in rows]]
    return _emit(args.format, {"p_segment": args.p_segment}, "rows", rows[0].keys(), blocks)


def _discard(stream: object) -> None:
    """Point a failed standard stream's descriptor at the null device, so
    that what it still buffers cannot fail again when the interpreter exits."""
    try:
        fd = stream.fileno()
    except (AttributeError, ValueError):  # None, a stand-in without a descriptor, closed
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


def _fail(exc: Exception, code: int) -> int:
    """Print ``exc`` as one ``error:`` line and return ``code``, even when
    standard error is closed."""
    try:
        print(f"error: {exc}", file=sys.stderr, flush=True)
    except OSError:
        _discard(sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        pieces = args.func(args)
    except ConfigError as exc:
        return _fail(exc, EXIT_CONFIG)
    try:
        if args.output is None:
            if sys.stdout is None:  # started with file descriptor 1 closed
                raise OSError("standard output is closed")
            sys.stdout.writelines(pieces)
            sys.stdout.flush()  # here, not at exit, so that a closed pipe is exit 4
        else:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.writelines(pieces)
    except OSError as exc:
        if args.output is None:
            _discard(sys.stdout)
        return _fail(exc, EXIT_IO)
    return 0


def entrypoint() -> None:
    sys.exit(main())
