"""Eavesdropping strategies.

Eve is present in a round with probability ``q``, an i.i.d. coin; the round
bodies of both engines, :mod:`.harness` and :mod:`.protocols`, play the attacks.
``harness._ATTACKS`` pairs each protocol with its one attack; ``SimConfig`` enforces it.

Two of the strategies are the known transparent attacks on two-way schemes:
the attacker detaches the information carrier on the forward leg, hands the
sender a fresh decoy she can read deterministically after the encoding, and
replays the learned operation onto the withheld carrier.  In message mode
this copies the bit without creating any disturbance; only control-mode
rounds, which the attacker cannot distinguish in time, can reveal her.
"""

from __future__ import annotations

from .channel import Strategy, _check_type, _Frozen, _probability


class AttackConfig(_Frozen):
    """Eve's strategy and her per-round presence probability."""

    __slots__ = ("strategy", "q")

    def __init__(self, strategy: Strategy = Strategy.NONE, q: float = 1.0) -> None:
        _check_type("strategy", strategy, Strategy)
        self._set(strategy, _probability("q", q))


__all__ = ["AttackConfig", "Strategy"]
