"""Run orchestration: seeding, chunking, parallelism and aggregate statistics.

Reproducibility contract: a run is fully determined by its
:class:`SimConfig`.  Rounds are processed in fixed-size chunks and every
chunk owns an independent generator substream derived from the master seed
and the chunk index alone, so the schedule (sequential or any worker count)
cannot change a single outcome.  Chunk tallies are plain integer counters
merged by addition, which is order-insensitive; derived statistics are
computed once from the merged integers.  Two runs of the same config
therefore serialize byte-identically at any parallelism.

Each chunk is played by one bit-sliced kernel from
:data:`twoway_qkd.protocols.CHUNK_KERNELS`, which holds one bit per round
in a Python int.  It draws its fair and threshold rows as ``getrandbits``
words (the layout is in :mod:`twoway_qkd.protocols`) from the chunk's own
:class:`random.Random`, seeded with the string ``"<seed>:<chunk index>"``.
A string seed is hashed with SHA-512, so the substream is the same on
every process, platform and ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import atexit
import numbers
import os
import random
import threading
from dataclasses import dataclass, field
from itertools import repeat

from .adversaries import AttackConfig, validate_attack
from .channel import ChannelConfig, ConfigError, Protocol
from .protocols import CHUNK_KERNELS, Tally

# Rounds per chunk, one bit each in the kernel's ints.  Larger chunks spread
# each chunk's seeding and threshold walks over more rounds; at this size a
# 2e4-round run still has two chunks for a pool to split.
CHUNK_ROUNDS = 16384


@dataclass(frozen=True, slots=True)
class SimConfig:
    """Everything that determines a run's outcome."""

    protocol: Protocol
    rounds: int
    seed: int = 0
    attack: AttackConfig = field(default_factory=AttackConfig)
    cm_prob: float = 0.0
    channel: ChannelConfig = field(default_factory=ChannelConfig)

    def __post_init__(self) -> None:
        for name in ("rounds", "seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))  # numpy ints -> JSON-safe
        if self.rounds < 1:
            raise ConfigError(f"rounds must be positive, got {self.rounds}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if not 0.0 <= self.cm_prob <= 1.0:
            raise ConfigError(f"cm_prob must be in [0, 1], got {self.cm_prob}")
        if self.protocol is Protocol.BB84 and self.cm_prob != 0.0:
            raise ConfigError(
                "the prepare-and-measure protocol has no control mode; "
                "cm_prob must be 0 for bb84"
            )
        validate_attack(self.protocol, self.attack)

    def as_dict(self) -> dict[str, object]:
        """Flat mapping used for output metadata."""
        return {
            "protocol": self.protocol.value,
            "attack": self.attack.strategy.value,
            "q": self.attack.q,
            "rounds": self.rounds,
            "seed": self.seed,
            "cm_prob": self.cm_prob,
            "p_segment": self.channel.p_segment,
            "detector_efficiency": self.channel.detector_efficiency,
            "dark_count_prob": self.channel.dark_count_prob,
        }


# A finished run's statistics are its merged counters: the same class.
RunStats = Tally


def _chunk_rng(seed: int, index: int) -> random.Random:
    """Independent substream for one chunk, from (seed, chunk index) only."""
    return random.Random(f"{seed}:{index}")


def _run_chunk(config: SimConfig, index: int, n_rounds: int) -> Tally:
    return CHUNK_KERNELS[config.protocol](
        _chunk_rng(config.seed, index),
        n_rounds,
        config.attack.strategy,
        config.attack.q,
        config.cm_prob,
        config.channel.transmittance(config.protocol),
        config.channel.dark_count_prob,
    )


def _pool_size(workers: int, n_chunks: int) -> int:
    """Processes worth starting: never more than there are chunks or CPUs."""
    return min(workers, n_chunks, os.cpu_count() or 1)


def _merged(tallies) -> Tally:
    total = Tally()
    for tally in tallies:
        total.merge(tally)
    return total


def _run_chunks(config: SimConfig, first: int, last: int) -> Tally:
    """Merged tally of chunks ``first`` to ``last - 1``, played in index order."""
    rounds = config.rounds
    return _merged(
        _run_chunk(config, i, min(CHUNK_ROUNDS, rounds - i * CHUNK_ROUNDS))
        for i in range(first, last)
    )


# The pool kept between runs, as (key, executor), or None before the first.
# Pooled runs hold the lock, so no thread replaces a pool another is using.
_pool = None
_pool_lock = threading.Lock()


def _close_pool() -> None:
    """Shut the kept pool down and forget it; also run at interpreter exit,
    while the modules its shutdown needs are still loaded."""
    global _pool
    if _pool is not None:
        pool, _pool = _pool[1], None
        pool.shutdown(cancel_futures=True)


atexit.register(_close_pool)


def _process_pool(workers: int):
    """The kept pool of ``workers`` processes, started on first use."""
    global _pool
    # Forked workers are a snapshot of this module as it was at the fork.
    # Whoever replaces _run_chunk or _chunk_rng (a tracer, a test) needs
    # workers that play the replacement, so the pool is keyed on them.
    key = (workers, _run_chunk, _chunk_rng)
    if _pool is not None and (_pool[0] != key or _pool[1]._broken):
        _close_pool()  # before the new pool forks, with no manager thread alive
    if _pool is None:
        from concurrent.futures import ProcessPoolExecutor

        _pool = (key, ProcessPoolExecutor(max_workers=workers))
    return _pool[1]


def run(config: SimConfig, workers: int = 1) -> RunStats:
    """Execute a run and return its merged statistics.

    ``workers`` only distributes chunks over processes; it is not part of
    the configuration and has no effect on the result.  The pool is capped
    by :func:`_pool_size`; a run capped to one process plays every chunk
    in-process, starts no pool and imports no :mod:`multiprocessing`.  A
    pool gets about four contiguous ranges of chunk indices per worker.
    Neither schedule builds a per-chunk plan, so memory does not grow with
    ``config.rounds``.  The pool is kept for the next run of this process
    and shut down at exit; a pool that a run saw fail is not reused.
    """
    if not isinstance(workers, numbers.Integral) or isinstance(workers, bool) or workers < 1:
        raise ValueError(f"workers must be a positive integer, got {workers!r}")
    n = -(-config.rounds // CHUNK_ROUNDS)
    workers = _pool_size(int(workers), n)
    if workers == 1:
        return _run_chunks(config, 0, n)
    firsts = range(0, n, max(1, n // (workers * 4)))
    with _pool_lock:
        pool = _process_pool(workers)
        try:
            return _merged(pool.map(_run_chunks, repeat(config), firsts, [*firsts[1:], n]))
        except BaseException:
            _close_pool()
            raise
