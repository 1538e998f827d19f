"""Exact state-vector mechanics for the tiny Hilbert spaces the protocols need.

Single qubits are two-component complex vectors; two-photon registers are
four-component vectors over |00>, |01>, |10>, |11>.  Global phases are kept in
the stored amplitudes (so identities like iY|0> = -|1> hold literally), but
physical comparison is always modulo phase via :func:`QubitState.same_state`.

Every operation here is a pure function over value types.  Randomness enters
only as an explicit uniform draw in [0, 1), never as hidden generator state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

ATOL = 1e-9

_R = 1.0 / math.sqrt(2.0)


class BellSpanError(ValueError):
    """Register fed to the Bell analyzer has support outside span{psi-, psi+}.

    The beam-splitter discrimination is only defined on the two-state Bell
    basis; anything else reaching it indicates a protocol-logic bug, so this
    is raised rather than guessing at the physics.
    """


@dataclass(frozen=True, slots=True)
class QubitState:
    """Pure single-qubit state with amplitudes on |0> and |1>."""

    amp0: complex
    amp1: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "amp0", complex(self.amp0))
        object.__setattr__(self, "amp1", complex(self.amp1))
        norm2 = abs(self.amp0) ** 2 + abs(self.amp1) ** 2
        if abs(norm2 - 1.0) > ATOL:
            raise ValueError(f"qubit state not normalized: |amp|^2 = {norm2!r}")

    def inner(self, other: "QubitState") -> complex:
        """<self|other>."""
        return (
            self.amp0.conjugate() * other.amp0
            + self.amp1.conjugate() * other.amp1
        )

    def same_state(self, other: "QubitState") -> bool:
        """Physical equality: |<self|other>| = 1 up to tolerance."""
        return abs(abs(self.inner(other)) - 1.0) <= ATOL


ZERO = QubitState(1.0, 0.0)
ONE = QubitState(0.0, 1.0)
PLUS = QubitState(_R, _R)
MINUS = QubitState(_R, -_R)


class Basis(Enum):
    """Measurement basis: Z eigenstates |0>,|1>; X eigenstates |+>,|->."""

    Z = "Z"
    X = "X"

    @property
    def eigenstates(self) -> tuple[QubitState, QubitState]:
        return _EIGENSTATES[self]

    def eigenstate(self, bit: int) -> QubitState:
        return _EIGENSTATES[self][bit]


_EIGENSTATES = {Basis.Z: (ZERO, ONE), Basis.X: (PLUS, MINUS)}


class PauliOp(Enum):
    """Single-qubit message operations: I, X, Z and the flip iY = Z X."""

    I = "I"  # noqa: E741 - standard operator name
    X = "X"
    Z = "Z"
    IY = "iY"


# Row-major 2x2 entries; iY is exactly the matrix product Z X.
_PAULI_ROWS = {
    PauliOp.I: ((1, 0), (0, 1)),
    PauliOp.X: ((0, 1), (1, 0)),
    PauliOp.Z: ((1, 0), (0, -1)),
    PauliOp.IY: ((0, 1), (-1, 0)),
}


def apply_pauli(op: PauliOp, state: QubitState) -> QubitState:
    """Apply a Pauli operation, keeping the exact (global-phase) amplitudes."""
    (m00, m01), (m10, m11) = _PAULI_ROWS[op]
    return QubitState(
        m00 * state.amp0 + m01 * state.amp1,
        m10 * state.amp0 + m11 * state.amp1,
    )


def _selects(draw: float, p: float) -> bool:
    """Born-rule selection: draw < p.  Squared amplitudes of 1/sqrt(2) land
    a few ulps off 1/2 and 1, so p within ATOL of 1/2 counts as exactly 1/2
    (a fair coin on the draw's grid) and p within ATOL of 1 always selects."""
    if abs(p - 0.5) <= ATOL:
        p = 0.5
    return draw < p or p > 1.0 - ATOL


def measure(state: QubitState, basis: Basis, draw: float) -> tuple[int, QubitState]:
    """Projective measurement; outcome 0 selected iff draw < |<e0|state>|^2.

    Returns the outcome bit and the post-measurement state, which is the
    corresponding basis eigenstate.
    """
    e0, e1 = _EIGENSTATES[basis]
    p0 = abs(e0.inner(state)) ** 2
    return (0, e0) if _selects(draw, p0) else (1, e1)


class BellState(Enum):
    """The two Bell states the entangled protocol uses."""

    PSI_MINUS = "psi-"
    PSI_PLUS = "psi+"


class BellOutcome(Enum):
    """Beam-splitter result: psi- photons split, psi+ photons bunch."""

    SPLIT = "split"
    BUNCH = "bunch"


@dataclass(frozen=True, slots=True)
class PairState:
    """Two-photon register as amplitudes over |00>, |01>, |10>, |11>."""

    amps: tuple[complex, complex, complex, complex]

    def __post_init__(self) -> None:
        object.__setattr__(self, "amps", tuple(complex(a) for a in self.amps))
        norm2 = sum(abs(a) ** 2 for a in self.amps)
        if abs(norm2 - 1.0) > ATOL:
            raise ValueError(f"pair state not normalized: |amp|^2 = {norm2!r}")


_PSI_MINUS_PAIR = PairState((0.0, _R, -_R, 0.0))
_PSI_PLUS_PAIR = PairState((0.0, _R, _R, 0.0))


def prepare_bell(tag: BellState) -> PairState:
    """Down-conversion source output: the requested Bell state, exactly."""
    return _PSI_MINUS_PAIR if tag is BellState.PSI_MINUS else _PSI_PLUS_PAIR


def half_wave_plate(pair: PairState, photon: int) -> PairState:
    """HWP(0 deg) in the path of one photon: sign flip on that photon's |V>."""
    a0, a1, a2, a3 = pair.amps
    if photon == 1:
        return PairState((a0, a1, -a2, -a3))
    if photon == 2:
        return PairState((a0, -a1, a2, -a3))
    raise ValueError(f"photon index must be 1 or 2, got {photon}")


def bell_measure(pair: PairState, draw: float) -> BellOutcome:
    """Beam-splitter discrimination of the two Bell states.

    Projects onto psi- (Split) and psi+ (Bunch) with Born-rule selection.
    Raises :class:`BellSpanError` if the register has weight outside the
    psi-/psi+ span beyond tolerance.
    """
    _, a1, a2, _ = pair.amps
    p_minus = abs(_R * (a1 - a2)) ** 2
    p_plus = abs(_R * (a1 + a2)) ** 2
    if p_minus + p_plus < 1.0 - ATOL:
        raise BellSpanError(
            f"register outside the psi-/psi+ span (in-span weight "
            f"{p_minus + p_plus:.6f})"
        )
    return BellOutcome.SPLIT if _selects(draw, p_minus) else BellOutcome.BUNCH


def measure_photon(
    pair: PairState, photon: int, basis: Basis, draw: float
) -> tuple[int, QubitState]:
    """Local projective measurement of one photon of a register.

    Returns the outcome bit and the conditional (collapsed) state of the
    other photon, normalized but with its relative phase kept.
    """
    if photon not in (1, 2):
        raise ValueError(f"photon index must be 1 or 2, got {photon}")
    a = pair.amps
    e0, e1 = _EIGENSTATES[basis]
    if photon == 1:
        cond = lambda e: (  # noqa: E731 - local two-term contraction
            e.amp0.conjugate() * a[0] + e.amp1.conjugate() * a[2],
            e.amp0.conjugate() * a[1] + e.amp1.conjugate() * a[3],
        )
    else:
        cond = lambda e: (  # noqa: E731
            e.amp0.conjugate() * a[0] + e.amp1.conjugate() * a[1],
            e.amp0.conjugate() * a[2] + e.amp1.conjugate() * a[3],
        )
    c0 = cond(e0)
    p0 = abs(c0[0]) ** 2 + abs(c0[1]) ** 2
    if _selects(draw, p0):
        outcome, c, p = 0, c0, p0
    else:
        c1 = cond(e1)
        outcome, c, p = 1, c1, abs(c1[0]) ** 2 + abs(c1[1]) ** 2
    scale = 1.0 / math.sqrt(p)
    return outcome, QubitState(c[0] * scale, c[1] * scale)
