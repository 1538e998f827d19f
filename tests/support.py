"""Small rigs shared by the test modules."""

from __future__ import annotations

import json
from fractions import Fraction

import oracles
from twoway_qkd import __version__
from twoway_qkd.channel import Protocol, Strategy

HALF = Fraction(1, 2)


class ScriptedRandom:
    """Stands in for random.Random with predetermined draws.

    ``bits`` feeds getrandbits(1) calls, ``uniforms`` feeds random() calls;
    when a queue runs dry the fallback is used, so tests can script only
    the draws they care about.
    """

    def __init__(self, bits=(), uniforms=(), fallback: float = 0.5):
        self._bits = list(bits)
        self._uniforms = list(uniforms)
        self._fallback = fallback

    def getrandbits(self, n: int) -> int:
        assert n == 1, "protocol code only draws single bits"
        if self._bits:
            return self._bits.pop(0)
        return 0

    def random(self) -> float:
        if self._uniforms:
            return self._uniforms.pop(0)
        return self._fallback


class ScriptedRows:
    """Stands in for a chunk kernel's random.Random with predetermined rows.

    A row is a list of per-lane uniforms.  It is served through
    ``getrandbits(n)`` as the words a kernel draws for it, lane i in bit i:

    * a fair or Born row is one word, bit i set iff lane i reads at least
      0.5 (its first binary digit), so 0.25 serves 0 and 0.75 serves 1;
    * a threshold row, given as a pair ``(p, row)``, serves the lanes'
      binary digits, one word per digit, for as long as some lane's
      uniform agrees with p so far and p has a 1-digit left.  So an all
      "yes" row (0.0) serves all-zero words up to p's first 1-digit, an
      all "no" row (1 - 2**-53) all-one words up to p's first 0-digit, and
      p of 0 or 1 serves none.

    Each call must ask for the scripted number of lanes; drawing more
    words than scripted fails, and so does :meth:`assert_spent` when the
    kernel drew fewer.
    """

    def __init__(self, rows):
        self._words = []
        for row in rows:
            if isinstance(row, tuple):
                self._words += threshold_words(*row)
            else:
                self._words.append((len(row), _word(u >= 0.5 for u in row)))
        self._spent = 0

    def getrandbits(self, n: int) -> int:
        assert self._spent < len(self._words), "kernel drew more words than scripted"
        lanes, word = self._words[self._spent]
        assert lanes == n, f"word {self._spent} has {lanes} lanes, kernel asked for {n}"
        self._spent += 1
        return word

    def assert_spent(self) -> None:
        assert self._spent == len(self._words), (
            f"kernel drew {self._spent} of {len(self._words)} scripted words"
        )


def _word(bits) -> int:
    return sum(1 << lane for lane, bit in enumerate(bits) if bit)


def threshold_words(p, row):
    """The ``(lanes, word)`` draws that decide ``u < p`` for each lane's
    uniform u in ``row``, walking the exact binary digits of both."""
    p = Fraction(p)
    if not 0 < p < 1:
        return []
    lanes = [Fraction(u) for u in row]
    undecided = set(range(len(lanes)))
    words = []
    while undecided and p:
        p *= 2
        p_digit = p >= 1
        p -= p_digit
        digits = [u * 2 >= 1 for u in lanes]
        lanes = [2 * u - d for u, d in zip(lanes, digits)]
        undecided = {i for i in undecided if digits[i] == p_digit}
        words.append((len(lanes), _word(digits)))
    return words


def played_chunks(config, play=None):
    """Run ``config`` in-process through ``harness.run`` and return the
    ``(index, n_rounds, tally)`` of every chunk in the order played, and the
    run's statistics.  ``play`` stands in for the chunk kernel if given."""
    import pytest

    from twoway_qkd import harness

    real = play or harness._run_chunk
    played = []

    def spy(config, index, n_rounds):
        tally = real(config, index, n_rounds)
        played.append((index, n_rounds, tally))
        return tally

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "_run_chunk", spy)
        stats = harness.run(config)
    return played, stats


# Error rate of an attacker-present, non-dark control round.
CM_INTERCEPTED = {
    Strategy.NGUYEN: oracles.pp_cm_intercepted(),
    Strategy.LUCAMARINI: oracles.lm05_cm_intercepted(),
}
# A dark control round: pp compares a random bit with Alice's; lm05 errs
# when the random basis matches (1/2) and the random outcome differs (1/2).
DARK_CM_ERROR = {Protocol.PP: HALF, Protocol.LM05: Fraction(1, 4)}


def closed_forms(protocol, strategy, q, cm_prob, t, dark_prob):
    """Each counter's exact expectation per round, from the oracles and the
    channel model."""
    q = Fraction(q) if strategy is not Strategy.NONE else Fraction(0)
    cm, t, dark = Fraction(cm_prob), Fraction(t), Fraction(dark_prob)
    lost_dark = (1 - t) * dark
    detected = t + lost_dark
    if strategy is Strategy.INTERCEPT_RESEND:
        mm_error, eve_correct = oracles.bb84_intercept_resend()
    else:
        mm_error, eve_correct = Fraction(0), Fraction(1)
    keyed = (1 - cm) * (HALF if protocol is Protocol.BB84 else 1)
    eve_mm = keyed * t * q
    eve_cm = cm * t * q
    eve_cm_errors = eve_cm * CM_INTERCEPTED.get(strategy, 0)
    return {
        "rounds": Fraction(1),
        "lost": (1 - t) * (1 - dark),
        "dark": lost_dark,
        "mm_rounds": (1 - cm) * detected,
        "cm_rounds": cm * detected,
        "raw_key": keyed * detected,
        "mm_errors": keyed * (t * q * mm_error + lost_dark * HALF),
        "cm_errors": eve_cm_errors + cm * lost_dark * DARK_CM_ERROR.get(protocol, 0),
        "eve_rounds": q,
        "eve_mm_rounds": eve_mm,
        "eve_mm_correct": eve_mm * eve_correct,
        "eve_cm_rounds": eve_cm,
        "eve_cm_errors": eve_cm_errors,
    }


def reference_document(fmt, config, key, body, **extra):
    """The output document as ``json.dumps(payload, indent=2)`` lays out the
    JSON, and as a row-by-row CSV writer lays out the CSV: the bytes
    ``cli._emit`` must print, joined."""
    if fmt == "json":
        payload = {"config": config, **extra, key: body, "version": __version__}
        return json.dumps(payload, indent=2) + "\n"
    meta = {**config, **extra, "version": __version__}
    return reference_csv(meta, [body] if isinstance(body, dict) else body)


def reference_csv(meta, rows):
    """``cli._csv_document``'s bytes, joined: ``# key=value`` lines, then the
    first row's keys as the header and each row's fields in that order, with
    ``indeterminable`` for a missing (None) value."""
    lines = [f"# {key}={_csv_field(value)}" for key, value in meta.items()]
    if rows:
        header = list(rows[0])
        lines.append(",".join(header))
        lines += [",".join(_csv_field(row[key]) for key in header) for row in rows]
    return "\n".join(lines) + "\n"


def _csv_field(value):
    return "indeterminable" if value is None else str(value)


def assert_same_text(actual, expected):
    """``actual == expected``, reporting the first line that differs: pytest's
    own diff of two long documents can run for minutes."""
    if actual != expected:
        got, want = actual.split("\n"), expected.split("\n")
        line = next((i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]),
                    min(len(got), len(want)))
        raise AssertionError(
            f"line {line + 1} differs: {got[line:line + 1]!r} != {want[line:line + 1]!r}"
            f" ({len(got)} and {len(want)} lines)"
        )
