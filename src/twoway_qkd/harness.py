"""The engine: seeding, chunking, the bit-sliced chunk kernels, the round
counters, parallelism and aggregate statistics.

Reproducibility contract: a run is fully determined by its
:class:`SimConfig`.  Rounds are processed in fixed-size chunks and every
chunk owns an independent generator substream derived from the master seed
and the chunk index alone, so the schedule (sequential or any worker count)
cannot change a single outcome.  Chunk tallies are plain integer counters
merged by addition, which is order-insensitive; derived statistics are
computed once from the merged integers.  Two runs of the same config
therefore serialize byte-identically at any parallelism.  A chunk's
:class:`random.Random` is seeded with the string ``"<seed>:<chunk index>"``;
a string seed is hashed with SHA-512, so the substream is the same on every
process, platform and ``PYTHONHASHSEED``.

Chunk kernels
-------------
:data:`CHUNK_KERNELS` holds one kernel per protocol.  A kernel plays ``n``
rounds at once: each row holds one bit per round, lane i in bit i of a
Python int, and a counter is the popcount of a row masked by the rounds it
covers.  One skeleton spends the presence, mode and loss draws and books
the outcome into a :class:`Tally` with :func:`_book`, around a per-protocol
body that plays only the physics.  Control mode is decided by the encoding
party after the forward leg, so an interposed attacker has already
committed her substitution by the time the round is declared a check round.
Control rounds have no return leg.  Dark counts are modeled crudely: a lost
round that fires the detector anyway gives the measuring side uniformly
random outcomes and contributes no eavesdropper knowledge.

The states are Z and X eigenstates and the psi-/psi+ pair, and the
HWP(0 deg) sign flip and the ZX flip map each to another, so every Born
probability is 0, 1/2 or 1:

* an eigenstate measured in its own basis gives its bit, and the beam
  splitter reads psi- as split and psi+ as bunch, with certainty;
* an eigenstate in the other basis, either photon of a psi- pair in Z (its
  partner then reads the complement) and a dark firing give a fair coin.

A measurement is therefore ``(bit & exact) | (coin & ~exact)``, and the
copy attacks leave message mode error-free by construction, not to within
rounding.  Each round is worked out for both modes; the mode row picks
what is booked.

Per-chunk draw layout.  A fair row, a bit or a coin, is one word,
``rng.getrandbits(n)``, spent for all rounds whether or not a round uses
it.  A threshold row, ``u < p`` for a real p, is :func:`_below`: each
round's uniform u is drawn one binary digit per word until it differs
from p's, about log2(n) + 2 words, and none at p <= 0 or p >= 1.  A row
that is never read, such as Eve's certain reads under the copy attacks,
is still spent, so that every row keeps its place in the stream whatever
the attack.  The skeleton spends, in order:

1. Eve's presence row, ``u < q``.  It spends no word at q = 0, and
   :func:`_run_chunk` passes q = 0 without an attack, so that q = 0 with
   any strategy, and no strategy at any q, play the attack-free stream.
2. The control-mode row, ``u < cm_prob``.  It too spends no word at 0,
   and :class:`SimConfig` fixes ``cm_prob`` at 0 for ``bb84``.
3. Photon survival, ``u < T`` against the compounded transmittance, then
   the dark-count row, which counts on lost rounds only.

Then the body, one word per fair row, attack rows included whether or not
Eve is present:

* ``bb84``: Alice's bit, Alice's basis, Eve's basis, Eve's measurement,
  Bob's basis, Bob's measurement.
* ``pp``: Alice's draw (her message bit, or her photon-2 measurement in
  control mode), Eve's Bell measurement, Bob's measurement.
* ``lm05``: Bob's prepared bit and basis, the decoy bit and basis, Alice's
  choice (her message bit, or her control basis), Alice's control
  measurement, Eve's decoy measurement, Bob's measurement.
"""

from __future__ import annotations

import os
import random
import sys
from itertools import repeat

from .adversaries import AttackConfig
from .analysis import binary_entropy
from .channel import (ChannelConfig, ConfigError, Protocol, Strategy, _check_type, _Frozen,
                      _integer, _probability, _Value)

# Rounds per chunk, one bit each in the kernel's ints.  Larger chunks spread
# each chunk's seeding and threshold walks over more rounds.
CHUNK_ROUNDS = 16384

# Chunks per pool process: on 2 CPUs --workers 2 lost at 2048 chunks, won at 4096.
POOL_MIN_CHUNKS = 2048

class Tally(_Value):
    """Integer round counters of a chunk or a whole run, and the statistics
    derived from them.

    Addition is associative and commutative, which is what makes chunked
    and parallel runs merge into byte-identical results regardless of
    schedule; derived statistics are computed from the merged integers.

    Counter semantics, booked by :func:`_book` alone: of the ``rounds``
    played, ``lost`` fired no detector, ``dark`` fired one with no photon,
    and the attacker was present in ``eve_rounds``.  Of the detected rounds,
    ``cm_rounds`` were control rounds, ``cm_errors`` of them showing an
    error, and ``mm_rounds`` message rounds, from which the receiver decoded
    ``raw_key`` key bits (for the sifted scheme, the basis-matched subset),
    ``mm_errors`` of them wrong.  ``eve_cm_rounds``, ``eve_cm_errors`` and
    ``eve_mm_rounds`` count the control rounds, their errors and the raw key
    bits the attacker touched (never a dark firing), and ``eve_mm_correct``
    those bits where her copy is right.  ``l_final`` is what is left of the
    raw key after discarding every bit the attacker holds.
    """

    __slots__ = ("rounds", "lost", "dark", "mm_rounds", "cm_rounds", "raw_key",
                 "mm_errors", "cm_errors", "eve_rounds", "eve_mm_rounds",
                 "eve_mm_correct", "eve_cm_rounds", "eve_cm_errors")

    def __init__(self, rounds=0, lost=0, dark=0, mm_rounds=0, cm_rounds=0, raw_key=0,
                 mm_errors=0, cm_errors=0, eve_rounds=0, eve_mm_rounds=0,
                 eve_mm_correct=0, eve_cm_rounds=0, eve_cm_errors=0) -> None:
        self.rounds, self.lost, self.dark = rounds, lost, dark
        self.mm_rounds, self.cm_rounds, self.raw_key = mm_rounds, cm_rounds, raw_key
        self.mm_errors, self.cm_errors, self.eve_rounds = mm_errors, cm_errors, eve_rounds
        self.eve_mm_rounds, self.eve_mm_correct = eve_mm_rounds, eve_mm_correct
        self.eve_cm_rounds, self.eve_cm_errors = eve_cm_rounds, eve_cm_errors

    def merge(self, other: "Tally") -> None:
        for name in _COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    @property
    def yield_fraction(self) -> float:
        """Detected rounds (including dark firings) over all rounds."""
        return (self.rounds - self.lost) / self.rounds if self.rounds else 0.0

    @property
    def d_mm(self) -> float:
        """Message-mode error rate over the raw key."""
        return self.mm_errors / self.raw_key if self.raw_key else 0.0

    @property
    def d_cm(self) -> float:
        """Control-mode error rate over all detected control rounds."""
        return self.cm_errors / self.cm_rounds if self.cm_rounds else 0.0

    @property
    def d_cm_intercepted(self) -> float:
        """Control-mode error rate over the attacker-present control rounds."""
        return self.eve_cm_errors / self.eve_cm_rounds if self.eve_cm_rounds else 0.0

    @property
    def eve_known_fraction(self) -> float:
        """Fraction of the raw key the attacker holds correctly."""
        return self.eve_mm_correct / self.raw_key if self.raw_key else 0.0

    @property
    def l_final(self) -> int:
        return self.raw_key - self.eve_mm_correct

    @property
    def i_ab_emp(self) -> float:
        """1 - h(d_mm): what the parties share per raw key bit."""
        return 1.0 - binary_entropy(min(self.d_mm, 1.0))

    @property
    def i_ae_emp(self) -> float:
        """Attacker's information per raw key bit, from her coverage and
        her conditional error rate on the rounds she touched."""
        if not self.raw_key or not self.eve_mm_rounds:
            return 0.0
        coverage = self.eve_mm_rounds / self.raw_key
        err = 1.0 - self.eve_mm_correct / self.eve_mm_rounds
        return coverage * (1.0 - binary_entropy(err))

    @property
    def r_emp(self) -> float:
        return self.i_ab_emp - self.i_ae_emp

    def as_dict(self) -> dict[str, object]:
        """Counters first, then the derived properties, each in definition order."""
        return {name: getattr(self, name) for name in _COUNTERS + _DERIVED}


_COUNTERS = Tally.__slots__
_DERIVED = tuple(name for name, v in vars(Tally).items() if isinstance(v, property))


# -- chunk kernels -----------------------------------------------------------


def _below(rng: random.Random, n: int, p: float) -> int:
    """A threshold row: lane i is set iff its own uniform u_i < p, exactly
    for the float p.

    The digits of each u_i are drawn one word per binary digit and compared
    with the digits of p's exact ratio; a lane is decided at the first
    digit where they differ.  The walk stops once no lane is undecided, or
    after p's last 1-digit, past which an undecided u_i >= p.
    """
    if p <= 0.0:
        return 0
    lanes = (1 << n) - 1
    if p >= 1.0:
        return lanes
    num, den = p.as_integer_ratio()
    below, undecided = 0, lanes
    for digit in range(den.bit_length() - 2, -1, -1):
        word = rng.getrandbits(n)
        if num >> digit & 1:
            below |= undecided & ~word
            undecided &= word
        else:
            undecided &= ~word
        if not undecided:
            break
    return below


def _where(mask: int, yes: int, no: int) -> int:
    """Lane-wise select: ``yes`` where ``mask`` is set, ``no`` elsewhere.

    A measurement of basis eigenstates is ``_where(exact, bit, coin)``: the
    state's bit where the outcome is certain, a fair coin elsewhere."""
    return (yes & mask) | (no & ~mask)


def _book(tally, n, eve, cm, live, dark, error, eve_correct, keep) -> None:
    """Add ``n`` played rounds to ``tally``.

    ``eve``, ``cm`` and ``live`` mark the attacker's presence, control mode
    and the surviving photons, ``dark`` the lost rounds whose detector fired
    anyway.  ``error``, ``eve_correct`` and ``keep`` are the body's outcome;
    ``keep`` marks the message rounds that sifting keeps (-1 keeps all).
    Masks are ints with one lane per round, or bools for a single round; a
    negative outcome mask (``~x``) is counted only after an and with a
    non-negative one.
    """
    tally.rounds += n
    tally.eve_rounds += eve.bit_count()
    tally.dark += dark.bit_count()
    eve &= ~dark  # a dark firing carries no eavesdropper knowledge
    live |= dark
    tally.lost += n - live.bit_count()

    rows = cm & live
    tally.cm_rounds += rows.bit_count()
    tally.cm_errors += (rows & error).bit_count()
    rows &= eve
    tally.eve_cm_rounds += rows.bit_count()
    tally.eve_cm_errors += (rows & error).bit_count()

    rows = live & ~cm
    tally.mm_rounds += rows.bit_count()
    rows &= keep
    tally.raw_key += rows.bit_count()
    tally.mm_errors += (rows & error).bit_count()
    rows &= eve
    tally.eve_mm_rounds += rows.bit_count()
    tally.eve_mm_correct += (rows & eve_correct).bit_count()


def _chunk_kernel(body):
    """The shared chunk skeleton around one protocol body.

    The skeleton draws the threshold rows at the probabilities it is given,
    Eve's presence ``q`` included: the caller passes 0 for a row that must
    not be drawn.  The body is called as ``body(rng, n, cm, dark, eve)``
    with lane masks, ``eve`` already cleared on dark firings, and returns
    the masks ``(error, eve_correct, keep)`` that :func:`_book` counts.
    """

    def kernel(
        rng: random.Random,
        n: int,
        q: float,
        cm_prob: float,
        transmittance: float,
        dark_prob: float,
    ) -> Tally:
        eve = _below(rng, n, q)
        cm = _below(rng, n, cm_prob)
        live = _below(rng, n, transmittance)
        dark = _below(rng, n, dark_prob) & ~live
        tally = Tally()
        _book(tally, n, eve, cm, live, dark, *body(rng, n, cm, dark, eve & ~dark))
        return tally

    kernel.__doc__ = body.__doc__
    return kernel


def _bb84_chunk(rng, n, cm, dark, eve):
    """Prepare-and-measure rounds with optional intercept-resend."""
    bits = rng.getrandbits
    a_bit, a_x, e_x = bits(n), bits(n), bits(n)
    e_bit = _where(~(e_x ^ a_x), a_bit, bits(n))
    # Bob receives Alice's state, or Eve's resent eigenstate where she is present.
    s_bit = _where(eve, e_bit, a_bit)
    s_x = _where(eve, e_x, a_x)
    b_x = bits(n)
    b_bit = _where(~((b_x ^ s_x) | dark), s_bit, bits(n))
    return b_bit ^ a_bit, ~(e_bit ^ a_bit), ~(a_x ^ b_x)


def _pp_chunk(rng, n, cm, dark, eve):
    """Rounds of the Bell-pair protocol; see :func:`twoway_qkd.protocols._pp`."""
    # Alice's message bit; in control mode the same row is her Z reading of
    # photon 2, its complement.  Either way an error is a_bit != b_bit.
    bits = rng.getrandbits
    a_bit = bits(n)
    bits(n)  # Eve's Bell analysis of her encoded probe: certain, unread
    # Bob reads a_bit exactly (the decoded pair, or the partner photon) unless
    # his detector fired dark or Eve's probe went to Alice in control mode.
    b_bit = _where(~(dark | (cm & eve)), a_bit, bits(n))
    return a_bit ^ b_bit, eve, -1  # Eve reads every bit she covers


def _lm05_chunk(rng, n, cm, dark, eve):
    """Rounds of the single-photon two-way protocol; see
    :func:`twoway_qkd.protocols._lm05`."""
    bits = rng.getrandbits
    prep_bit, prep_x = bits(n), bits(n)
    decoy_bit, decoy_x = bits(n), bits(n)
    choice = bits(n)  # message bit, or control basis (1 = X)
    # Alice receives Bob's qubit, or under attack Eve's decoy.
    held_bit = _where(eve, decoy_bit, prep_bit)
    held_x = _where(eve, decoy_x, prep_x)
    a_cm = _where(~((choice ^ held_x) | dark), held_bit, bits(n))
    bits(n)  # Eve's measurement of the returned decoy: certain, unread
    # Bob's qubit comes back flipped by Alice's choice, or by Eve's replay of it.
    m = _where(~dark, prep_bit ^ choice, bits(n))
    error = _where(cm, ~(choice ^ prep_x) & (a_cm ^ prep_bit), m ^ prep_bit ^ choice)
    return error, eve, -1


CHUNK_KERNELS = {
    Protocol.BB84: _chunk_kernel(_bb84_chunk),
    Protocol.PP: _chunk_kernel(_pp_chunk),
    Protocol.LM05: _chunk_kernel(_lm05_chunk),
}

# The attack each body plays where Eve is present; a run may use it or none.
_ATTACKS = {Protocol.BB84: Strategy.INTERCEPT_RESEND, Protocol.PP: Strategy.NGUYEN,
            Protocol.LM05: Strategy.LUCAMARINI}


# -- runs --------------------------------------------------------------------


class SimConfig(_Frozen):
    """Everything that determines a run's outcome."""

    __slots__ = ("protocol", "rounds", "seed", "attack", "cm_prob", "channel")

    def __init__(self, protocol: Protocol, rounds: int, seed: int = 0,
                 attack: AttackConfig = AttackConfig(), cm_prob: float = 0.0,
                 channel: ChannelConfig = ChannelConfig()) -> None:
        _check_type("protocol", protocol, Protocol)
        _check_type("attack", attack, AttackConfig)
        _check_type("channel", channel, ChannelConfig)
        self._set(protocol, _integer("rounds", rounds, 1), _integer("seed", seed, 0), attack,
                  _probability("cm_prob", cm_prob), channel)
        if self.protocol is Protocol.BB84 and self.cm_prob != 0.0:
            raise ConfigError(
                "the prepare-and-measure protocol has no control mode; "
                "cm_prob must be 0 for bb84"
            )
        if attack.strategy not in (Strategy.NONE, _ATTACKS[protocol]):
            raise ConfigError(f"attack {attack.strategy.value!r} is not defined against "
                              f"protocol {protocol.value!r}")

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
    attack = config.attack
    return CHUNK_KERNELS[config.protocol](
        _chunk_rng(config.seed, index),
        n_rounds,
        attack.q if attack.strategy is not Strategy.NONE else 0.0,
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
    _check_type("config", config, SimConfig)
    n = -(-config.rounds // CHUNK_ROUNDS)
    workers = _pool_size(_integer("workers", workers, 1), n)
    if workers == 1:
        return _run_chunks(config, 0, n)
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    firsts = range(0, n, max(1, n // (workers * 4)))
    # Forked for this run, so workers play the current _run_chunk and
    # _chunk_rng, including a tracer's or a test's replacement.  Fork is
    # pinned on Linux, which CPython 3.14 moves to forkserver.
    context = get_context("fork") if sys.platform == "linux" else None
    with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
        return _merged(pool.map(_run_chunks, repeat(config), firsts, [*firsts[1:], n]))
