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

import numbers
import os
import random
from dataclasses import dataclass, field
from itertools import repeat

from .adversaries import AttackConfig, validate_attack
from .channel import ChannelConfig, ConfigError, Protocol
from .protocols import CHUNK_KERNELS, Tally

# Rounds per chunk, one bit each in the kernel's ints.  Larger chunks spread
# each chunk's seeding and threshold walks over more rounds.
CHUNK_ROUNDS = 16384

# Chunks per pool process: on 2 CPUs --workers 2 lost at 2048 chunks, won at 4096.
POOL_MIN_CHUNKS = 2048


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
    """Processes worth starting: no more than the CPUs, and few enough that
    each gets :data:`POOL_MIN_CHUNKS` chunks; 1 means play in-process."""
    return max(1, min(workers, n_chunks // POOL_MIN_CHUNKS, os.cpu_count() or 1))


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


def run(config: SimConfig, workers: int = 1) -> RunStats:
    """Execute a run and return its merged statistics.

    ``workers`` only distributes chunks over processes; it is not part of
    the configuration and has no effect on the result.  The pool is capped
    by :func:`_pool_size`; a run capped to one process, as every run of
    fewer than ``2 * POOL_MIN_CHUNKS`` chunks is, plays every chunk
    in-process, starts no pool and imports no :mod:`multiprocessing`.
    Otherwise the run starts its own pool, gives it about four contiguous
    ranges of chunk indices per worker and shuts it down before returning.
    Neither schedule builds a per-chunk plan, so memory does not grow with
    ``config.rounds``.
    """
    if not isinstance(workers, numbers.Integral) or isinstance(workers, bool) or workers < 1:
        raise ValueError(f"workers must be a positive integer, got {workers!r}")
    n = -(-config.rounds // CHUNK_ROUNDS)
    workers = _pool_size(int(workers), n)
    if workers == 1:
        return _run_chunks(config, 0, n)
    from concurrent.futures import ProcessPoolExecutor

    firsts = range(0, n, max(1, n // (workers * 4)))
    # Forked for this run, so workers play the current _run_chunk and
    # _chunk_rng, including a tracer's or a test's replacement.
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return _merged(pool.map(_run_chunks, repeat(config), firsts, [*firsts[1:], n]))
