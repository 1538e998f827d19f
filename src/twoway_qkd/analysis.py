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
import sys
from collections.abc import Iterator

from .channel import ChannelConfig, ConfigError, Protocol, _probability, _real, _shown

MAX_GRID_POINTS = 1_000_000


def binary_entropy(x: float) -> float:
    """Shannon entropy h(x) of a Bernoulli(x) variable, in bits."""
    return _information(_probability("binary_entropy argument", x))[2]  # I_AE = h(x)


def bb84_mutual_information(d: float) -> tuple[float, float]:
    """(I_AB, I_AE) per sifted bit at disturbance d, for d in [0, 1/2]."""
    _, i_ab, i_ae, _ = _information(_disturbance(d))
    return i_ab, i_ae


def bb84_secret_fraction(d: float) -> float:
    """I_AB - I_AE = 1 - 2 h(d).  Negative past the critical disturbance."""
    return _information(_disturbance(d))[3]


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
    Every midpoint lies inside (0, 1/2), so none needs a domain check.
    """
    lo, hi = 1e-15, 0.5
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if _information(mid)[3] > 0.0:
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
    leaves [start, end]: it lies in an interval exactly when its first and
    last points do.  The arguments are checked and stored as floats by the
    one realness check of :mod:`.channel`; non-finite ones and grids of more
    than ``MAX_GRID_POINTS`` points are rejected.  The grid is the one block of
    :func:`grid_blocks` with room for every point.
    """
    return next(grid_blocks(start, end, step, MAX_GRID_POINTS, checked=False))


def grid_blocks(
    start: float, end: float, step: float, rows: int, *, checked: bool = True
) -> Iterator[list[float]]:
    """``disturbance_grid(start, end, step)``, ``rows`` points to a block (fewer
    in the last), each block made as it is read.  The call raises what
    ``disturbance_grid`` and, if ``checked``, the disturbance check of each
    point would, so reading raises nothing; as the grid never decreases, only
    a grid with an end out of [0, 1/2] is scanned, for the first point that is."""
    start, end, step = map(_real, ("grid start", "grid end", "grid step"), (start, end, step))
    # Finite as floats: NaN, +-inf and a real past the float range fail.
    if not all(abs(v) <= sys.float_info.max for v in (start, end, step)):
        shown = ":".join(_shown(v, str) for v in (start, end, step))
        raise ConfigError(f"grid values must be finite, got {shown}")
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
    last = end if n and abs(start + step * n - end) <= 1e-9 else start + step * n

    def block(i: int) -> list[float]:
        points = [start + step * k for k in range(i, min(i + rows, n + 1))]
        if i + rows > n:
            points[-1] = last
        if not i:
            points[0] = start  # start + 0.0 would turn -0.0 into 0.0
        return points

    blocks = map(block, range(0, n + 1, rows))
    if checked and not 0.0 <= start <= last <= 0.5:
        for points in blocks:  # an end is out, so some point raises
            list(map(_disturbance, points))
    return blocks


INFORMATION_COLUMNS = ("d", "i_ab", "i_ae", "secret_fraction")


def _disturbance(d: object) -> float:
    """``d`` as a float disturbance in [0, 1/2], the curves' domain."""
    return _probability("disturbance", d, top=0.5)


def information_rows(grid: list[float]) -> list[tuple[float, float, float, float]]:
    """The values of ``INFORMATION_COLUMNS`` at each point of a grid of
    disturbances, as ``grid_blocks`` checks them."""
    return list(map(_information, grid))


def _information(d: float) -> tuple[float, float, float, float]:
    """d, I_AB = 1 - h(d), I_AE = h(d) and the secret fraction I_AB - I_AE,
    for a d already known to lie in [0, 1]: the one formula for h."""
    h = 0.0 if d == 0.0 or d == 1.0 else -d * math.log2(d) - (1.0 - d) * math.log2(1.0 - d)
    return d, 1.0 - h, h, 1.0 - h - h


def information_table(grid: list[float]) -> list[dict[str, float]]:
    """Rows of closed-form quantities over a disturbance grid."""
    rows = information_rows(list(map(_disturbance, grid)))
    return [dict(zip(INFORMATION_COLUMNS, row)) for row in rows]


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
