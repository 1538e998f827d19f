"""Round-by-round protocol machines.

Each round function simulates one complete round (source to final
announcement) and records what happened in a :class:`Tally`.  All three
share one skeleton, which spends the presence, mode and loss draws and
books the outcome into the counters; a per-protocol body plays only the
physics of a detected round.  All randomness comes from the single ``rng``
argument, and the draw order is part of the contract: reordering draws
changes every downstream outcome for a given seed, so the sequence below is
frozen.

Per-round draw sequence
-----------------------
Steps 1-3 are spent by the skeleton, step 4 by the protocol body.

1. ``u`` for Eve's presence coin.  Always spent, even when the strategy is
   NONE, so that ``q = 0`` with any strategy reproduces the attack-free
   stream byte for byte.
2. (two-way only) ``u`` for the control-mode coin.
3. ``u`` for photon survival, judged against the compounded transmittance;
   a lost round spends one more ``u`` on the dark-count coin when dark
   counts are enabled.
4. Protocol draws in channel order: sender preparation, Eve's forward-leg
   choices, the encoding bit or control measurements, Eve's return-leg
   measurement, receiver measurement.  Born-rule draws are spent even when
   the outcome is certain.

Control mode is decided by the encoding party after the forward leg, so an
interposed attacker has already committed her substitution by the time the
round is declared a check round.  Control rounds have no return leg.

Dark counts are modeled crudely: a lost round that fires the detector
anyway proceeds with uniformly random outcome bits on the measuring side
and contributes no eavesdropper knowledge.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields

from .adversaries import InterceptResend, LucamariniAttack, NguyenAttack, Strategy
from .analysis import binary_entropy
from .channel import Protocol
from .quantum import (
    Basis,
    BellOutcome,
    BellState,
    PauliOp,
    apply_pauli,
    bell_measure,
    half_wave_plate,
    measure,
    measure_photon,
    prepare_bell,
)

_Z = Basis.Z
_X = Basis.X
_NONE = Strategy.NONE


@dataclass(slots=True)
class Tally:
    """Integer round counters of a chunk or a whole run, and the statistics
    derived from them.

    Addition is associative and commutative, which is what makes chunked
    and parallel runs merge into byte-identical results regardless of
    schedule; derived statistics are computed from the merged integers.

    Counter semantics: ``raw_key`` is the number of message-mode key bits
    the receiver decoded (for the sifted scheme, the basis-matched subset);
    ``eve_mm_rounds`` of those had the attacker present and ``eve_mm_correct``
    are the ones where her copy of the bit is right.  ``l_final`` is what is
    left of the raw key after discarding every bit the attacker holds.
    """

    rounds: int = 0
    lost: int = 0
    dark: int = 0
    mm_rounds: int = 0
    cm_rounds: int = 0
    raw_key: int = 0
    mm_errors: int = 0
    cm_errors: int = 0
    eve_rounds: int = 0
    eve_mm_rounds: int = 0
    eve_mm_correct: int = 0
    eve_cm_rounds: int = 0
    eve_cm_errors: int = 0

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
        """Counters first, derived values after, in a fixed order."""
        return {name: getattr(self, name) for name in _COUNTERS + _DERIVED}


_COUNTERS = tuple(f.name for f in fields(Tally))
_DERIVED = (
    "yield_fraction",
    "d_mm",
    "d_cm",
    "d_cm_intercepted",
    "eve_known_fraction",
    "l_final",
    "i_ab_emp",
    "i_ae_emp",
    "r_emp",
)


def _round_function(body, two_way: bool):
    """The shared round skeleton around one protocol body.

    The body is called as ``body(rng, cm, dark, eve)`` for a detected round
    and returns ``(error, eve_correct)``, or None for a message round that
    sifting discards.
    """

    def round_fn(
        tally: Tally,
        rng: random.Random,
        strategy: Strategy,
        q: float,
        cm_prob: float,
        transmittance: float,
        dark_prob: float,
    ) -> None:
        tally.rounds += 1
        eve = rng.random() < q and strategy is not _NONE
        if eve:
            tally.eve_rounds += 1
        cm = two_way and rng.random() < cm_prob
        if rng.random() < transmittance:
            dark = False
        elif dark_prob > 0.0 and rng.random() < dark_prob:
            tally.dark += 1
            dark = True
            eve = False  # a dark firing carries no eavesdropper knowledge
        else:
            tally.lost += 1
            return

        result = body(rng, cm, dark, eve)
        if cm:
            tally.cm_rounds += 1
            error = result[0]
            if error:
                tally.cm_errors += 1
            if eve:
                tally.eve_cm_rounds += 1
                if error:
                    tally.eve_cm_errors += 1
            return
        tally.mm_rounds += 1
        if result is None:
            return
        error, eve_correct = result
        tally.raw_key += 1
        if error:
            tally.mm_errors += 1
        if eve:
            tally.eve_mm_rounds += 1
            if eve_correct:
                tally.eve_mm_correct += 1

    round_fn.__doc__ = body.__doc__
    return round_fn


def _bb84(rng: random.Random, cm: bool, dark: bool, eve: bool):
    """One prepare-and-measure round with optional intercept-resend."""
    a_bit = rng.getrandbits(1)
    a_basis = _Z if rng.getrandbits(1) == 0 else _X

    if dark:
        b_basis = _Z if rng.getrandbits(1) == 0 else _X
        if a_basis is not b_basis:
            return None
        return rng.getrandbits(1) != a_bit, False

    state = a_basis.eigenstate(a_bit)
    if eve:
        attack = InterceptResend()
        state = attack.intercept(state, rng)

    b_basis = _Z if rng.getrandbits(1) == 0 else _X
    b_bit, _ = measure(state, b_basis, rng.random())

    if a_basis is not b_basis:
        return None
    return b_bit != a_bit, eve and attack.bit == a_bit


def _pp(rng: random.Random, cm: bool, dark: bool, eve: bool):
    """One round of the Bell-pair protocol.

    Bob keeps photon 1 of a psi- pair and sends photon 2.  In message mode
    Alice encodes bit 1 with a zero-degree half-wave plate (toggling the
    pair between psi- and psi+) and returns the photon for Bob's
    beam-splitter Bell analysis: split decodes 0, bunch decodes 1.  In
    control mode both parties measure in the computational basis and check
    anticorrelation; equal outcomes are errors.
    """
    if dark:
        if cm:
            return rng.getrandbits(1) == rng.getrandbits(1), False
        return rng.getrandbits(1) != rng.getrandbits(1), False

    pair = prepare_bell(BellState.PSI_MINUS)
    if eve:
        attack = NguyenAttack()
        alice_pair = attack.seize(pair)
    else:
        alice_pair = pair

    if cm:
        a_bit, remainder = measure_photon(alice_pair, 2, _Z, rng.random())
        if eve:
            b_bit, _ = measure_photon(pair, 1, _Z, rng.random())
        else:
            b_bit, _ = measure(remainder, _Z, rng.random())
        return a_bit == b_bit, False

    a_bit = rng.getrandbits(1)
    encoded = half_wave_plate(alice_pair, 2) if a_bit else alice_pair

    if eve:
        attack.read_return(encoded, rng)
        encoded = attack.replay()

    outcome = bell_measure(encoded, rng.random())
    b_bit = 0 if outcome is BellOutcome.SPLIT else 1
    return b_bit != a_bit, eve and attack.bit == a_bit


def _lm05(rng: random.Random, cm: bool, dark: bool, eve: bool):
    """One round of the single-photon two-way protocol.

    Bob prepares one of the four basis states and sends it.  In message
    mode Alice applies the identity for 0 or the flip Z X for 1 and returns
    the photon; Bob measures in his preparation basis and decodes by
    comparing with the prepared bit.  In control mode Alice measures in a
    random basis and announces basis and outcome; the announcement is an
    error when her basis matches Bob's preparation and the outcome does not.
    """
    prep_bit = rng.getrandbits(1)
    prep_basis = _Z if rng.getrandbits(1) == 0 else _X

    if dark:
        if cm:
            a_basis = _Z if rng.getrandbits(1) == 0 else _X
            return a_basis is prep_basis and rng.getrandbits(1) != prep_bit, False
        return rng.getrandbits(1) != rng.getrandbits(1), False

    state = prep_basis.eigenstate(prep_bit)
    if eve:
        attack = LucamariniAttack()
        alice_state = attack.seize(state, rng)
    else:
        alice_state = state

    if cm:
        a_basis = _Z if rng.getrandbits(1) == 0 else _X
        a_bit, _ = measure(alice_state, a_basis, rng.random())
        return a_basis is prep_basis and a_bit != prep_bit, False

    a_bit = rng.getrandbits(1)
    encoded = apply_pauli(PauliOp.IY, alice_state) if a_bit else alice_state

    if eve:
        attack.read_return(encoded, rng)
        encoded = attack.replay()

    m, _ = measure(encoded, prep_basis, rng.random())
    return (m ^ prep_bit) != a_bit, eve and attack.bit == a_bit


bb84_round = _round_function(_bb84, two_way=False)
pp_round = _round_function(_pp, two_way=True)
lm05_round = _round_function(_lm05, two_way=True)

ROUND_FUNCTIONS = {
    Protocol.BB84: bb84_round,
    Protocol.PP: pp_round,
    Protocol.LM05: lm05_round,
}
