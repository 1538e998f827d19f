"""The chunk kernels checked exactly: every expected counter, as a Fraction.

Every Born probability these protocols produce is 0, 1/2 or 1, and the
only arbitrary reals are the thresholds q, cm_prob, T and the dark-count
probability.  So a kernel's expected tally is a finite sum.  Its rows are
scripted with :class:`support.ScriptedRows`: one kernel call for each
setting of the threshold rows, each row all "yes" (0.0) or all "no"
(1 - 2**-53) and weighted by that setting's probability, and within the
call one lane for each combination of the fair and Born rows, each
reading 0.25 or 0.75.  The weighted lane tallies must equal, with ``==``,
the expectations built from ``tests/oracles.py`` and the closed forms of
the acceptance criteria.  The script serves each row as the
``getrandbits`` words the kernel must draw for it, so a kernel that skips,
adds or resizes a draw fails too.  Last, the reference model's amplitudes
must give the same table of certain outcomes and fair coins that the
kernels encode.
"""

import math
from dataclasses import fields
from fractions import Fraction
from itertools import product

import pytest

import oracles
from support import ScriptedRows
from twoway_qkd.channel import Protocol, Strategy
from twoway_qkd.harness import CHUNK_KERNELS, Tally
from twoway_qkd.quantum import (
    Basis,
    BellOutcome,
    BellState,
    PauliOp,
    apply_pauli,
    bell_measure,
    half_wave_plate,
    measure,
    measure_photon,
    prepare_bell,
)

TOP = 1.0 - 2.0**-53  # the largest uniform a generator returns
YES, NO = 0.0, TOP
HALF = Fraction(1, 2)
COUNTERS = [f.name for f in fields(Tally)]

# Fair and Born rows each body spends, in the documented draw order, and
# the indices of those that hold a measurement.
BODY_ROWS = {Protocol.BB84: 6, Protocol.PP: 3, Protocol.LM05: 8}
BORN_ROWS = {Protocol.BB84: (3, 5), Protocol.PP: (1, 2), Protocol.LM05: (5, 6, 7)}
PAIRINGS = [
    (Protocol.BB84, Strategy.NONE),
    (Protocol.BB84, Strategy.INTERCEPT_RESEND),
    (Protocol.PP, Strategy.NONE),
    (Protocol.PP, Strategy.NGUYEN),
    (Protocol.LM05, Strategy.NONE),
    (Protocol.LM05, Strategy.LUCAMARINI),
]
PAIRING_IDS = [f"{p.value}-{s.value}" for p, s in PAIRINGS]

CM_INTERCEPTED = {
    Strategy.NGUYEN: oracles.pp_cm_intercepted(),
    Strategy.LUCAMARINI: oracles.lm05_cm_intercepted(),
}
# A dark control round: pp compares a random bit with Alice's; lm05 errs
# when the random basis matches (1/2) and the random outcome differs (1/2).
DARK_CM_ERROR = {Protocol.PP: HALF, Protocol.LM05: Fraction(1, 4)}


def enumerated(k):
    """k rows whose 2**k lanes hold every combination of 0.25 and 0.75."""
    return [[0.75 if lane >> row & 1 else 0.25 for lane in range(2**k)] for row in range(k)]


def play(protocol, strategy, rows, q, cm_prob, t, dark_prob):
    """One kernel call on exactly the scripted rows."""
    rng = ScriptedRows(rows)
    tally = CHUNK_KERNELS[protocol](rng, len(rows[-1]), strategy, q, cm_prob, t, dark_prob)
    rng.assert_spent()
    return tally


def expected_counters(protocol, strategy, q, cm_prob, t, dark_prob):
    """Each counter's expectation per round, from the weighted lane tallies."""
    body = enumerated(BODY_ROWS[protocol])
    n = len(body[0])
    # Eve's presence row is drawn only under an attack.
    thresholds = [q, t] if strategy is not Strategy.NONE else [t]
    if protocol is not Protocol.BB84:
        thresholds.insert(-1, cm_prob)
    if dark_prob > 0.0:
        thresholds.append(dark_prob)
    total = dict.fromkeys(COUNTERS, Fraction(0))
    for setting in product((True, False), repeat=len(thresholds)):
        weight = Fraction(1)
        for yes, p in zip(setting, thresholds):
            weight *= Fraction(p) if yes else 1 - Fraction(p)
        if not weight:
            continue
        rows = [(p, [YES if yes else NO] * n) for yes, p in zip(setting, thresholds)] + body
        tally = play(protocol, strategy, rows, q, cm_prob, t, dark_prob)
        for name in COUNTERS:
            total[name] += weight * Fraction(getattr(tally, name), n)
    return total


def closed_forms(protocol, strategy, q, cm_prob, t, dark_prob):
    """The same expectations, from the oracles and the channel model."""
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


@pytest.mark.parametrize("t, dark_prob", [(1.0, 0.0), (0.7, 0.05)], ids=["lossless", "lossy-dark"])
@pytest.mark.parametrize("q", [0.6, 1.0])
@pytest.mark.parametrize("protocol, strategy", PAIRINGS, ids=PAIRING_IDS)
def test_expected_counters_equal_the_closed_forms(protocol, strategy, q, t, dark_prob):
    cm_prob = 0.0 if protocol is Protocol.BB84 else 0.3
    args = (protocol, strategy, q, cm_prob, t, dark_prob)
    assert expected_counters(*args) == closed_forms(*args)


@pytest.mark.parametrize("protocol, strategy", PAIRINGS, ids=PAIRING_IDS)
def test_acceptance_closed_forms_hold_exactly(protocol, strategy):
    q, t = 0.6, 0.9**protocol.passes
    cm_prob = 0.0 if protocol is Protocol.BB84 else 0.3
    e = expected_counters(protocol, strategy, q, cm_prob, t, 0.0)
    q_eve = Fraction(q) if strategy is not Strategy.NONE else 0
    # Criterion 6: the detection yield is T^passes.
    assert 1 - e["lost"] == Fraction(t)
    if strategy is Strategy.INTERCEPT_RESEND:
        # Criterion 8: the sifted error rate is q/4; Eve holds 3/4 of her bits.
        assert e["mm_errors"] / e["raw_key"] == q_eve * oracles.BB84_SIFTED_ERROR
        assert e["eve_mm_correct"] / e["eve_mm_rounds"] == oracles.BB84_EVE_CORRECT
        return
    # Criteria 1-3 and 5: no message-mode error, Eve holds a q-share of the
    # key, so the secret fraction is 1 - q.
    assert e["mm_errors"] == 0
    assert e["eve_mm_correct"] / e["raw_key"] == q_eve
    if strategy is not Strategy.NONE:
        # Criterion 7: intercepted control rounds err at 1/2 (pp), 1/4 (lm05).
        expected = {Protocol.PP: oracles.PP_CM_ERROR, Protocol.LM05: oracles.LM05_CM_ERROR}
        assert e["eve_cm_errors"] / e["eve_cm_rounds"] == expected[protocol]


def test_a_scripted_kernel_must_spend_every_row():
    # q = T = 1 draw no words; "yes" on cm_prob 0.3 = 0b0.01001... takes two.
    rows = [(1.0, [YES] * 8), (0.3, [YES] * 8), (1.0, [YES] * 8)] + enumerated(3)
    play(Protocol.PP, Strategy.NGUYEN, rows, 1.0, 0.3, 1.0, 0.0)
    with pytest.raises(AssertionError, match="drew 5 of 6"):
        play(Protocol.PP, Strategy.NGUYEN, rows + [[YES] * 8], 1.0, 0.3, 1.0, 0.0)
    with pytest.raises(AssertionError, match="more words than scripted"):
        play(Protocol.PP, Strategy.NGUYEN, rows[:-1], 1.0, 0.3, 1.0, 0.0)


@pytest.mark.parametrize(
    "protocol, strategy",
    [
        (Protocol.BB84, Strategy.NONE),
        (Protocol.PP, Strategy.NGUYEN),
        (Protocol.LM05, Strategy.LUCAMARINI),
    ],
    ids=["bb84-none", "pp-nguyen", "lm05-lucamarini"],
)
def test_certain_outcomes_hold_at_the_top_of_the_range(protocol, strategy):
    # Fair rows enumerate every combination; every Born row reads the top
    # uniform, where a certain outcome must still come out.  Eve is present,
    # the round is in message mode and the photon survives.
    body = enumerated(BODY_ROWS[protocol])
    for row in BORN_ROWS[protocol]:
        body[row] = [TOP] * len(body[row])
    n = len(body[0])
    thresholds = [(1.0, YES), (0.25, NO), (1.0, YES)]
    if protocol is Protocol.BB84:
        del thresholds[1]
    rows = [(p, [u] * n) for p, u in thresholds] + body
    tally = play(protocol, strategy, rows, 1.0, 0.25, 1.0, 0.0)
    assert tally.mm_rounds == n
    # bb84 keeps the matched lanes, Z and X alike; the others keep every lane.
    assert tally.raw_key == (n // 2 if protocol is Protocol.BB84 else n)
    assert tally.mm_errors == 0
    if strategy is not Strategy.NONE:
        assert tally.eve_mm_correct == tally.raw_key


# -- the {0, 1/2, 1} table ----------------------------------------------------
#
# The kernels encode each measurement as certain or a fair coin, with no
# probability computed.  The reference model computes Born probabilities
# from amplitudes; on every state the round bodies build, they must give
# the same table.

PROBES = (0.0, math.nextafter(0.5, 0.0), 0.5, TOP)


def born(outcome_of):
    """``("certain", bit)``, or ``"coin"`` when the outcome is 1 iff the
    draw is at least 1/2, as a kernel's coin word reads it; any other
    probability fails."""
    outcomes = [outcome_of(draw) for draw in PROBES]
    if len(set(outcomes)) == 1:
        return "certain", outcomes[0]
    assert outcomes == [0, 0, 1, 1], f"not a fair coin: {outcomes}"
    return "coin"


@pytest.mark.parametrize("flip", [0, 1], ids=["plain", "flipped"])
@pytest.mark.parametrize("bit", [0, 1])
@pytest.mark.parametrize("prepared, measured", list(product(Basis, Basis)))
def test_eigenstate_readings_are_certain_or_a_coin(prepared, bit, flip, measured):
    # bb84's and lm05's readings, and lm05's flip Z X, which keeps the basis
    # and flips the bit: _where(same basis, bit ^ flip, coin).
    state = prepared.eigenstate(bit)
    if flip:
        state = apply_pauli(PauliOp.IY, state)
    expected = ("certain", bit ^ flip) if prepared is measured else "coin"
    assert born(lambda draw: measure(state, measured, draw)[0]) == expected


@pytest.mark.parametrize("encoded", [0, 1])
@pytest.mark.parametrize("photon", [1, 2])
def test_pair_readings_are_a_coin_then_the_complement(photon, encoded):
    # pp's control mode: either photon of the pair, encoded or not, reads a
    # coin in Z, and its partner then reads the complement with certainty.
    pair = prepare_bell(BellState.PSI_MINUS)
    if encoded:
        pair = half_wave_plate(pair, 2)
    assert born(lambda draw: measure_photon(pair, photon, Basis.Z, draw)[0]) == "coin"
    for first in (0.0, TOP):
        bit, partner = measure_photon(pair, photon, Basis.Z, first)
        assert born(lambda draw: measure(partner, Basis.Z, draw)[0]) == ("certain", 1 - bit)


@pytest.mark.parametrize("a_bit", [0, 1])
def test_bell_analysis_is_certain(a_bit):
    # pp's message mode, Bob's and Eve's analysis alike: split reads 0.
    pair = prepare_bell(BellState.PSI_MINUS)
    if a_bit:
        pair = half_wave_plate(pair, 2)
    split = lambda draw: 0 if bell_measure(pair, draw) is BellOutcome.SPLIT else 1  # noqa: E731
    assert born(split) == ("certain", a_bit)
