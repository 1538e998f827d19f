"""The round-by-round reference model the chunk kernels of
:mod:`twoway_qkd.harness` are tested against.

:data:`ROUND_FUNCTIONS` plays one round at a time with the :mod:`quantum`
state objects, drawing from a :class:`random.Random`: the kernels'
presence, mode and loss rows as single ``random()`` draws (the presence
draw in every round, the mode draw only at ``cm_prob`` > 0 and the
dark-count coin only on a lost round at ``dark_prob`` > 0), then the
protocol's draws in channel order, Eve's included, each spent only when the
round reaches it.  Each round body plays its attack inline and the skeleton
books the round with the kernels' own :func:`twoway_qkd.harness._book`, one
lane wide, so both engines share one definition of the counters.  It is
the readable statement of the physics; no run imports it.
"""

from __future__ import annotations

import random

from .channel import Protocol, Strategy
from .harness import Tally, _book
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


def _round_function(body):
    """The shared round skeleton around one protocol body.

    The body is called as ``body(rng, cm, dark, eve)`` for a detected round
    and returns ``(error, eve_correct)``, or None for a message round that
    sifting discards.  The round is booked with bools as one-lane masks.
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
        eve = rng.random() < q and strategy is not _NONE
        cm = cm_prob > 0.0 and rng.random() < cm_prob
        live = rng.random() < transmittance
        dark = not live and dark_prob > 0.0 and rng.random() < dark_prob
        result = body(rng, cm, dark, eve and not dark) if live or dark else None
        _book(tally, 1, eve, cm, live, dark, *(result or (False, False)), result is not None)

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


bb84_round = _round_function(_bb84)
pp_round = _round_function(_pp)
lm05_round = _round_function(_lm05)

ROUND_FUNCTIONS = {
    Protocol.BB84: bb84_round,
    Protocol.PP: pp_round,
    Protocol.LM05: lm05_round,
}
