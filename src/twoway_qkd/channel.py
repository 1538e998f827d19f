"""Lossy-channel model shared by all three protocols.

The only physics here is photon survival.  A protocol run compounds the
per-segment transmission probability once per channel pass (one pass for a
prepare-and-measure scheme, two for a single-photon round trip, four when an
entangled pair makes the trip), and the harness spends a single uniform draw
per round against that compounded probability.

The :class:`Protocol` and :class:`Strategy` enumerations live here too, so
that the command line can name its choices without importing the engine, and
so do plain ``__slots__`` value bases: :mod:`dataclasses` costs 10 ms to import.
"""

from __future__ import annotations

import numbers
from enum import Enum


class ConfigError(ValueError):
    """A configuration value is outside its allowed range or of the wrong kind."""


def _shown(value: object, form=repr) -> str:
    """``form(value)`` for a message, or the value's type and size if it is too long to print."""
    try:
        return form(value)
    except ValueError:  # an int, or a Fraction of one, past sys.get_int_max_str_digits()
        size = f"of {value.bit_length()} bits" if isinstance(value, int) else "too long to print"
        return f"<{type(value).__name__} {size}>"


def _check_type(name: str, value: object, kind: type) -> None:
    """Reject a field of the wrong class when the config is built, not when it is read."""
    if not isinstance(value, kind):
        raise ConfigError(f"{name} must be of type {kind.__name__}, got {_shown(value)}")


def _real(name: str, value: object) -> float:
    """``value`` as a float, or as given if it is a real past the float range,
    so that a range check can name it; bools and non-reals are rejected."""
    # float first: a float skips the ABC check, which costs about 0.5 us
    if isinstance(value, bool) or not isinstance(value, (float, numbers.Real)):
        raise ConfigError(f"{name} must be a real number, got {_shown(value)}")
    try:
        return float(value)
    except OverflowError:  # a huge int or Fraction: kept as given
        return value


def _probability(name: str, value: object, ends: str = "[]", top: float = 1) -> float:
    """``value`` as a float in 0 to ``top`` with closed ``[]`` or open ``()``
    ``ends``, checked on the float stored by :func:`_real`."""
    p = _real(name, value)
    if not (0.0 < p < top or (p == 0.0 and ends[0] == "[") or (p == top and ends[1] == "]")):
        raise ConfigError(f"{name} must be in {ends[0]}0, {top:g}{ends[1]}, got {_shown(p, str)}")
    return p


def _integer(name: str, value: object, least: int) -> int:
    """``value`` as an int that prints, no less than ``least`` (1 or 0);
    bools and non-integers are rejected."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {_shown(value)}")
    value = int(value)  # numpy ints -> JSON-safe
    try:
        str(value)  # as the chunk seeds and the output metadata print it
    except ValueError:
        raise ConfigError(f"{name} is too long to print, got {_shown(value)}") from None
    if value < least:
        raise ConfigError(f"{name} must be {'positive' if least else 'non-negative'}, got {value}")
    return value


class _Value:
    """Fields: ``__slots__``, in ``__init__``'s order; ==, repr and pickle go by them."""

    __slots__ = ()

    def __reduce__(self):  # through __init__, as a frozen class takes no slot state
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        same = other.__class__ is self.__class__
        return self.__reduce__() == other.__reduce__() if same else NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class _Frozen(_Value):
    """A hashable :class:`_Value` whose fields ``__init__`` sets once, by :meth:`_set`."""

    __slots__ = ()

    def _set(self, *values: object) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __hash__(self) -> int:
        return hash(self.__reduce__())


class Protocol(Enum):
    BB84 = "bb84"
    PP = "pp"
    LM05 = "lm05"

    @property
    def passes(self) -> int:
        """Number of channel traversals a detected round requires."""
        return _PASSES[self]

    @property
    def deterministic(self) -> bool:
        """True when every detected message-mode round yields a key bit."""
        return self is not Protocol.BB84


_PASSES = {Protocol.BB84: 1, Protocol.PP: 4, Protocol.LM05: 2}


class Strategy(Enum):
    """Eve's attack; ``harness._ATTACKS`` says which protocol each fits."""

    NONE = "none"
    INTERCEPT_RESEND = "intercept-resend"
    NGUYEN = "nguyen"
    LUCAMARINI = "lucamarini"


class ChannelConfig(_Frozen):
    """Per-segment channel parameters.

    p_segment is the single-pass transmission probability.  Detector
    efficiency is folded into each pass (a photon that survives the fiber
    but misses the detector is indistinguishable from a lost one here).
    Dark counts promote a lost round to a spurious detection whose outcome
    bits are uniformly random.
    """

    __slots__ = ("p_segment", "detector_efficiency", "dark_count_prob")

    def __init__(self, p_segment: float = 1.0, detector_efficiency: float = 1.0,
                 dark_count_prob: float = 0.0) -> None:
        self._set(_probability("p_segment", p_segment, "(]"),
                  _probability("detector_efficiency", detector_efficiency, "(]"),
                  _probability("dark_count_prob", dark_count_prob, "[)"))

    def transmittance(self, protocol: Protocol) -> float:
        """Probability that a round of the given protocol is detected."""
        return (self.p_segment * self.detector_efficiency) ** protocol.passes
