"""Closed-form information quantities for the protocols.

For a prepare-and-measure scheme with symmetric disturbance D the legitimate
parties share I_AB(D) = 1 - h(D) bits per sifted bit while an optimal
individual attack gives the eavesdropper I_AE(D) = h(D); the secret fraction
is their difference and vanishes at the disturbance where the two curves
cross.  For the deterministic two-way schemes under the transparent attacks
the message mode is error free, so I_AB = 1 regardless of the attack rate q,
and the attacker simply owns a q-fraction of the key: I_AE = q.
"""

from __future__ import annotations

import math

from .channel import ChannelConfig, ConfigError, Protocol, _probability, _shown

MAX_GRID_POINTS = 1_000_000


def binary_entropy(x: float) -> float:
    """Shannon entropy h(x) of a Bernoulli(x) variable, in bits."""
    if not 0.0 <= x <= 1.0:
        raise ConfigError(f"binary_entropy argument must be in [0, 1], got {_shown(x, str)}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def bb84_mutual_information(d: float) -> tuple[float, float]:
    """(I_AB, I_AE) per sifted bit at disturbance d, for d in [0, 1/2]."""
    if not 0.0 <= d <= 0.5:
        raise ConfigError(f"disturbance must be in [0, 0.5], got {_shown(d, str)}")
    h = binary_entropy(d)
    return 1.0 - h, h


def bb84_secret_fraction(d: float) -> float:
    """I_AB - I_AE = 1 - 2 h(d).  Negative past the critical disturbance."""
    i_ab, i_ae = bb84_mutual_information(d)
    return i_ab - i_ae


def twoway_mutual_information(q: float) -> tuple[float, float]:
    """(I_AB, I_AE) for a deterministic scheme under a transparent attack
    mounted on a fraction q of the rounds."""
    return 1.0, _probability("q", q)


def twoway_secret_fraction(q: float) -> float:
    """Secret fraction 1 - q left after removing the attacker's share."""
    i_ab, i_ae = twoway_mutual_information(q)
    return i_ab - i_ae


def critical_disturbance() -> float:
    """Disturbance where I_AB(d) and I_AE(d) cross, by bisection.

    The crossing solves 1 - 2 h(d) = 0 on (0, 1/2), where the secret
    fraction is strictly decreasing, so plain bisection converges; no
    root-finding dependency is worth pulling in for one monotone equation.
    """
    lo, hi = 1e-15, 0.5
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if bb84_secret_fraction(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def disturbance_grid(start: float, end: float, step: float) -> list[float]:
    """Inclusive arithmetic grid ``start + k * step`` with end snapping.

    The first point is ``start`` exactly.  The point count rounds the span
    in steps, less one if that last point would lie more than 1e-9 past
    ``end``.  Float error in start + n*step can push the nominal end just
    outside the curves' domain (0.5 + 5e-17, say), so a last point after the
    first that lies within 1e-9 of ``end`` is snapped onto it; no other point
    moves, so the grid stays strictly increasing at any step and never
    leaves [start, end].  Non-finite arguments and grids of more than
    ``MAX_GRID_POINTS`` points are rejected.
    """
    if not all(math.isfinite(v) for v in (start, end, step)):
        raise ConfigError(f"grid values must be finite, got {start}:{end}:{step}")
    if step <= 0.0:
        raise ConfigError(f"grid step must be positive, got {step}")
    if end < start:
        raise ConfigError(f"grid end {end} precedes start {start}")
    span = (end - start) / step
    if not span <= MAX_GRID_POINTS - 1:  # also catches overflow to inf
        raise ConfigError(f"grid has more than {MAX_GRID_POINTS} points")
    n = int(round(span))
    if start + step * n - end > 1e-9:
        n -= 1
    # Point 0 is ``start`` itself: start + 0.0 would turn -0.0 into 0.0.
    grid = [start, *(start + step * k for k in range(1, n + 1))]
    if n and abs(grid[-1] - end) <= 1e-9:
        grid[-1] = end
    return grid


def information_table(grid: list[float]) -> list[dict[str, float]]:
    """Rows of closed-form quantities over a disturbance grid."""
    rows = []
    for d in grid:
        i_ab, i_ae = bb84_mutual_information(d)
        rows.append(
            {
                "d": d,
                "i_ab": i_ab,
                "i_ae": i_ae,
                "secret_fraction": i_ab - i_ae,
            }
        )
    return rows


def protocol_comparison(p_segment: float = 1.0) -> list[dict[str, object]]:
    """Side-by-side security properties of the three protocols.

    ``critical_disturbance`` is None for the deterministic schemes: under a
    transparent attack their message mode shows no disturbance at any attack
    rate, so no error threshold separates secure from broken; security rests
    on the control-mode rate instead.
    """
    channel = ChannelConfig(p_segment=p_segment)
    d_star = critical_disturbance()
    rows: list[dict[str, object]] = []
    for protocol in Protocol:
        deterministic = protocol.deterministic
        rows.append(
            {
                "protocol": protocol.value,
                "keying": "deterministic" if deterministic else "probabilistic",
                "modes": "mm+cm" if deterministic else "mm",
                "attack_shows_in": "cm" if deterministic else "mm",
                "critical_disturbance": None if deterministic else d_star,
                "passes": protocol.passes,
                "transmittance": channel.transmittance(protocol),
            }
        )
    return rows
