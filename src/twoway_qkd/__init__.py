"""Seedable simulator and information analysis for two-way QKD protocols.

The package models a prepare-and-measure baseline (bb84) and two
deterministic two-way schemes: a Bell-pair protocol (pp) and a single-photon
four-state protocol (lm05), together with the eavesdropping strategy that
reads each two-way scheme's message mode without disturbing it.  A
closed-form layer supplies the mutual-information curves and the critical
disturbance the baseline is judged against.

The engine, :mod:`.harness`, holds the chunk kernels and the counters.
The round-by-round reference model they are tested against (:mod:`.quantum`
and :mod:`.protocols`) is importable from those modules, not from here, and
no run imports it.
"""

__version__ = "0.1.0"

import importlib

# Public name -> the module that defines it.  Each is imported on first
# access, so ``import twoway_qkd`` imports none of the modules behind them.
_HOMES = {
    "AttackConfig": "adversaries",
    "ChannelConfig": "channel",
    "ConfigError": "channel",
    "Protocol": "channel",
    "RunStats": "harness",
    "SimConfig": "harness",
    "Strategy": "channel",
    "bb84_mutual_information": "analysis",
    "bb84_secret_fraction": "analysis",
    "binary_entropy": "analysis",
    "critical_disturbance": "analysis",
    "disturbance_grid": "analysis",
    "information_table": "analysis",
    "protocol_comparison": "analysis",
    "run": "harness",
    "twoway_mutual_information": "analysis",
    "twoway_secret_fraction": "analysis",
}

__all__ = [*_HOMES, "__version__"]


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
