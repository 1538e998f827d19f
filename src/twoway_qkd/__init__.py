"""Seedable simulator and information analysis for two-way QKD protocols.

The package models a prepare-and-measure baseline (bb84) and two
deterministic two-way schemes: a Bell-pair protocol (pp) and a single-photon
four-state protocol (lm05), together with the eavesdropping strategy that
reads each two-way scheme's message mode without disturbing it.  A
closed-form layer supplies the mutual-information curves and the critical
disturbance the baseline is judged against.

The round-by-round reference model the chunk kernels are tested against
(:mod:`.quantum`, ``protocols.ROUND_FUNCTIONS`` and the attack machines in
:mod:`.adversaries`) is importable from those modules, not from here.
"""

__version__ = "0.1.0"

from .adversaries import AttackConfig, Strategy
from .analysis import (
    bb84_mutual_information,
    bb84_secret_fraction,
    binary_entropy,
    critical_disturbance,
    disturbance_grid,
    information_table,
    protocol_comparison,
    twoway_mutual_information,
    twoway_secret_fraction,
)
from .channel import ChannelConfig, ConfigError, Protocol
from .harness import RunStats, SimConfig, run

__all__ = [
    "AttackConfig",
    "ChannelConfig",
    "ConfigError",
    "Protocol",
    "RunStats",
    "SimConfig",
    "Strategy",
    "bb84_mutual_information",
    "bb84_secret_fraction",
    "binary_entropy",
    "critical_disturbance",
    "disturbance_grid",
    "information_table",
    "protocol_comparison",
    "run",
    "twoway_mutual_information",
    "twoway_secret_fraction",
    "__version__",
]
