"""Eavesdropping strategies.

Each attack is a small round-local state machine: a reference round of
:mod:`twoway_qkd.protocols` creates one instance when Eve is present, feeds
it the states she touches in channel order, and reads back her inferred
bit.  Nothing survives between rounds; Eve's presence itself is an i.i.d.
coin with probability ``q`` spent before the round starts.  The chunk
kernels play the same attacks as masked array operations.

Two of the strategies are the known transparent attacks on two-way schemes:
the attacker detaches the information carrier on the forward leg, hands the
sender a fresh decoy she can read deterministically after the encoding, and
replays the learned operation onto the withheld carrier.  In message mode
this copies the bit without creating any disturbance; only control-mode
rounds, which the attacker cannot distinguish in time, can reveal her.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .channel import ConfigError, Protocol, Strategy
from .quantum import (
    Basis,
    BellOutcome,
    BellState,
    PairState,
    PauliOp,
    QubitState,
    apply_pauli,
    bell_measure,
    half_wave_plate,
    measure,
    prepare_bell,
)


# Which attacks make sense against which protocol.  The transparent attacks
# are built around one specific round structure each, so pairing them with
# the wrong protocol is a configuration error, not a physics result.
_COMPATIBLE = {
    Protocol.BB84: frozenset({Strategy.NONE, Strategy.INTERCEPT_RESEND}),
    Protocol.PP: frozenset({Strategy.NONE, Strategy.NGUYEN}),
    Protocol.LM05: frozenset({Strategy.NONE, Strategy.LUCAMARINI}),
}


@dataclass(frozen=True, slots=True)
class AttackConfig:
    """Eve's strategy and her per-round presence probability."""

    strategy: Strategy = Strategy.NONE
    q: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.q <= 1.0:
            raise ConfigError(f"q must be in [0, 1], got {self.q}")


def validate_attack(protocol: Protocol, attack: AttackConfig) -> None:
    """Reject strategy/protocol pairings the attack mechanics do not cover."""
    if attack.strategy not in _COMPATIBLE[protocol]:
        raise ConfigError(
            f"attack {attack.strategy.value!r} is not defined against "
            f"protocol {protocol.value!r}"
        )


class InterceptResend:
    """Measure the flying qubit in a random basis and resend the outcome."""

    __slots__ = ("basis", "bit")

    def intercept(self, state: QubitState, rng: random.Random) -> QubitState:
        self.basis = Basis.Z if rng.getrandbits(1) == 0 else Basis.X
        self.bit, post = measure(state, self.basis, rng.random())
        return post


class NguyenAttack:
    """Entangled-probe substitution against the Bell-pair protocol.

    Forward leg: withhold the travel photon (leaving the legitimate pair
    intact but separated) and send the sender the travel photon of a fresh
    psi- probe pair.  Return leg: the encoding acted on the probe, whose two
    photons Eve both holds, so a Bell measurement reads the message bit with
    certainty.  She then applies the same wave-plate operation to the
    withheld pair and releases it, which reproduces the legitimate encoded
    state exactly.
    """

    __slots__ = ("stored", "probe", "bit")

    def seize(self, pair: PairState) -> PairState:
        """Take custody of the legitimate pair; return the probe for Alice."""
        self.stored = pair
        self.probe = prepare_bell(BellState.PSI_MINUS)
        return self.probe

    def read_return(self, encoded_probe: PairState, rng: random.Random) -> int:
        outcome = bell_measure(encoded_probe, rng.random())
        self.bit = 0 if outcome is BellOutcome.SPLIT else 1
        return self.bit

    def replay(self) -> PairState:
        """Re-encode the withheld pair with the learned operation."""
        return half_wave_plate(self.stored, 2) if self.bit else self.stored


class LucamariniAttack:
    """Delay-and-decoy substitution against the single-photon scheme.

    Forward leg: store the prepared qubit and send the sender a decoy in a
    random basis and bit of Eve's own choosing.  The encoding operation is
    either the identity or a flip that is basis-preserving on all four
    protocol states, so measuring the returned decoy in the decoy's own
    basis reveals which operation was applied, with certainty.  Eve replays
    it on the stored qubit and forwards that to the measuring party.
    """

    __slots__ = ("stored", "decoy_basis", "decoy_bit", "bit")

    def seize(self, state: QubitState, rng: random.Random) -> QubitState:
        self.stored = state
        self.decoy_bit = rng.getrandbits(1)
        self.decoy_basis = Basis.Z if rng.getrandbits(1) == 0 else Basis.X
        return self.decoy_basis.eigenstate(self.decoy_bit)

    def read_return(self, encoded_decoy: QubitState, rng: random.Random) -> int:
        outcome, _ = measure(encoded_decoy, self.decoy_basis, rng.random())
        self.bit = outcome ^ self.decoy_bit
        return self.bit

    def replay(self) -> QubitState:
        return apply_pauli(PauliOp.IY, self.stored) if self.bit else self.stored


__all__ = [
    "AttackConfig",
    "InterceptResend",
    "LucamariniAttack",
    "NguyenAttack",
    "Strategy",
    "validate_attack",
]
