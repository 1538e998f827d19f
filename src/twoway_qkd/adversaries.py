"""Eavesdropping strategies and the protocols each one fits.

Eve is present in a round with probability ``q``, an i.i.d. coin; the round
bodies of both engines, :mod:`.harness` and :mod:`.protocols`, play the attacks.

Two of the strategies are the known transparent attacks on two-way schemes:
the attacker detaches the information carrier on the forward leg, hands the
sender a fresh decoy she can read deterministically after the encoding, and
replays the learned operation onto the withheld carrier.  In message mode
this copies the bit without creating any disturbance; only control-mode
rounds, which the attacker cannot distinguish in time, can reveal her.
"""

from __future__ import annotations

from dataclasses import dataclass

from .channel import ConfigError, Protocol, Strategy


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


__all__ = ["AttackConfig", "Strategy", "validate_attack"]
