"""Protocol machines: one bit-sliced chunk kernel per protocol, and the
round-by-round reference model the kernels are tested against.

Both engines record what happened in a :class:`Tally`.  Each has one
skeleton, which spends the presence, mode and loss draws and books the
outcome into the counters, around a per-protocol body that plays only the
physics.  Control mode is decided by the encoding party after the
forward leg, so an interposed attacker has already committed her
substitution by the time the round is declared a check round.  Control
rounds have no return leg.  Dark counts are modeled crudely: a lost round
that fires the detector anyway gives the measuring side uniformly random
outcomes and contributes no eavesdropper knowledge.

Chunk kernels
-------------
:data:`CHUNK_KERNELS` is the engine :func:`twoway_qkd.harness.run` uses.
A kernel plays ``n`` rounds at once from a :class:`random.Random`: each
row holds one bit per round, lane i in bit i of a Python int, and a
counter is the popcount of a row masked by the rounds it covers.  The
states are Z and X eigenstates and the psi-/psi+ pair, and the HWP(0 deg)
sign flip and the ZX flip map each to another, so every Born probability
is 0, 1/2 or 1:

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

1. Eve's presence row, ``u < q``, only under an attack, so that q = 0
   with any strategy, and no strategy at any q, play the attack-free
   stream.
2. (two-way only) the control-mode row, ``u < cm_prob``.
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

Reference model
---------------
:data:`ROUND_FUNCTIONS` plays one round at a time with the :mod:`quantum`
state objects, drawing from a :class:`random.Random`: steps 1-3 above as
single ``random()`` draws (the presence draw in every round, the
dark-count coin only on a lost round), then the
protocol's draws in channel order, Eve's included, each spent only when the
round reaches it.  Each round body plays its attack inline.  It is the
readable statement of the physics; nothing on the run path calls it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields

from .analysis import binary_entropy
from .channel import Protocol, Strategy
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
    num, den = float(p).as_integer_ratio()
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


def _chunk_kernel(body, two_way: bool):
    """The shared chunk skeleton around one protocol body.

    The body is called as ``body(rng, n, cm, dark, eve)`` with lane masks
    and returns three masks ``(error, eve_correct, keep)``; ``keep`` marks
    the message rounds that sifting keeps, or is None when every message
    round yields a key bit.  Returned masks may be negative (``~x``); each
    is counted only after an and with a non-negative lane mask.
    """

    def kernel(
        rng: random.Random,
        n: int,
        strategy: Strategy,
        q: float,
        cm_prob: float,
        transmittance: float,
        dark_prob: float,
    ) -> Tally:
        eve = _below(rng, n, q) if strategy is not _NONE else 0
        cm = _below(rng, n, cm_prob) if two_way else 0
        live = _below(rng, n, transmittance)
        dark = _below(rng, n, dark_prob) & ~live
        tally = Tally(rounds=n, eve_rounds=eve.bit_count(), dark=dark.bit_count())
        eve &= ~dark  # a dark firing carries no eavesdropper knowledge
        live |= dark
        tally.lost = n - live.bit_count()

        error, eve_correct, keep = body(rng, n, cm, dark, eve)
        rows = cm & live
        tally.cm_rounds = rows.bit_count()
        tally.cm_errors = (rows & error).bit_count()
        rows &= eve
        tally.eve_cm_rounds = rows.bit_count()
        tally.eve_cm_errors = (rows & error).bit_count()

        rows = live & ~cm
        tally.mm_rounds = rows.bit_count()
        if keep is not None:
            rows &= keep
        tally.raw_key = rows.bit_count()
        tally.mm_errors = (rows & error).bit_count()
        rows &= eve
        tally.eve_mm_rounds = rows.bit_count()
        tally.eve_mm_correct = (rows & eve_correct).bit_count()
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
    """Rounds of the Bell-pair protocol; see :func:`_pp`."""
    # Alice's message bit; in control mode the same row is her Z reading of
    # photon 2, its complement.  Either way an error is a_bit != b_bit.
    bits = rng.getrandbits
    a_bit = bits(n)
    bits(n)  # Eve's Bell analysis of her encoded probe: certain, unread
    # Bob reads a_bit exactly (the decoded pair, or the partner photon) unless
    # his detector fired dark or Eve's probe went to Alice in control mode.
    b_bit = _where(~(dark | (cm & eve)), a_bit, bits(n))
    return a_bit ^ b_bit, eve, None  # Eve reads every bit she covers


def _lm05_chunk(rng, n, cm, dark, eve):
    """Rounds of the single-photon two-way protocol; see :func:`_lm05`."""
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
    return error, eve, None


CHUNK_KERNELS = {
    Protocol.BB84: _chunk_kernel(_bb84_chunk, two_way=False),
    Protocol.PP: _chunk_kernel(_pp_chunk, two_way=True),
    Protocol.LM05: _chunk_kernel(_lm05_chunk, two_way=True),
}


# -- reference model ---------------------------------------------------------


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
        # Eve measures in a random basis and resends the eigenstate she read.
        e_basis = _Z if rng.getrandbits(1) == 0 else _X
        e_bit, state = measure(state, e_basis, rng.random())

    b_basis = _Z if rng.getrandbits(1) == 0 else _X
    b_bit, _ = measure(state, b_basis, rng.random())

    if a_basis is not b_basis:
        return None
    return b_bit != a_bit, eve and e_bit == a_bit


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
    # Under attack Eve withholds Bob's pair, intact, and sends Alice the
    # travel photon of a fresh psi- probe pair instead.
    alice_pair = prepare_bell(BellState.PSI_MINUS) if eve else pair

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
        # She holds both probe photons, so a Bell analysis reads the encoding
        # with certainty; she replays it on the withheld pair and releases it.
        outcome = bell_measure(encoded, rng.random())
        e_bit = 0 if outcome is BellOutcome.SPLIT else 1
        encoded = half_wave_plate(pair, 2) if e_bit else pair

    outcome = bell_measure(encoded, rng.random())
    b_bit = 0 if outcome is BellOutcome.SPLIT else 1
    return b_bit != a_bit, eve and e_bit == a_bit


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
        # Eve stores Bob's qubit and sends Alice a decoy in a random basis
        # and bit of her own choosing.
        decoy_bit = rng.getrandbits(1)
        decoy_basis = _Z if rng.getrandbits(1) == 0 else _X
        alice_state = decoy_basis.eigenstate(decoy_bit)
    else:
        alice_state = state

    if cm:
        a_basis = _Z if rng.getrandbits(1) == 0 else _X
        a_bit, _ = measure(alice_state, a_basis, rng.random())
        return a_basis is prep_basis and a_bit != prep_bit, False

    a_bit = rng.getrandbits(1)
    encoded = apply_pauli(PauliOp.IY, alice_state) if a_bit else alice_state

    if eve:
        # The flip preserves the basis of all four states, so the returned
        # decoy, measured in its own basis, reads the encoding with
        # certainty; she replays it on the stored qubit.
        e_bit = measure(encoded, decoy_basis, rng.random())[0] ^ decoy_bit
        encoded = apply_pauli(PauliOp.IY, state) if e_bit else state

    m, _ = measure(encoded, prep_basis, rng.random())
    return (m ^ prep_bit) != a_bit, eve and e_bit == a_bit


bb84_round = _round_function(_bb84, two_way=False)
pp_round = _round_function(_pp, two_way=True)
lm05_round = _round_function(_lm05, two_way=True)

ROUND_FUNCTIONS = {
    Protocol.BB84: bb84_round,
    Protocol.PP: pp_round,
    Protocol.LM05: lm05_round,
}
