"""The bit-sliced chunk kernels against the round-by-round reference model.

Both engines play the same configurations and must land inside 3-sigma
binomial bands around the oracle values and the closed forms; the exact
claims (zero message-mode error under the copy attacks, the counter
identities) are checked exactly.
"""

import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import oracles
from support import ScriptedRows, played_chunks, threshold_words
from twoway_qkd.adversaries import AttackConfig, Strategy
from twoway_qkd.channel import ChannelConfig, Protocol
from twoway_qkd.harness import (
    CHUNK_KERNELS,
    CHUNK_ROUNDS,
    SimConfig,
    Tally,
    _below,
    _chunk_rng,
    run,
)
from twoway_qkd.protocols import ROUND_FUNCTIONS

KERNEL_ROUNDS = 100_000
REFERENCE_ROUNDS = 20_000

# Error rate of an attacker-present, non-dark control round.
CM_INTERCEPTED = {
    Strategy.NGUYEN: oracles.pp_cm_intercepted(),
    Strategy.LUCAMARINI: oracles.lm05_cm_intercepted(),
}
# Control-round error rate of a dark firing: pp compares two random bits;
# lm05 errs when the random control basis matches the preparation (1/2)
# and the random outcome differs from the prepared bit (1/2).
DARK_CM_ERROR = {Protocol.PP: 0.5, Protocol.LM05: 0.25}

# (protocol, strategy, q, cm_prob, p_segment, dark_count_prob)
CASES = [
    (Protocol.BB84, Strategy.NONE, 1.0, 0.0, 1.0, 0.0),
    (Protocol.BB84, Strategy.INTERCEPT_RESEND, 0.5, 0.0, 1.0, 0.0),
    (Protocol.PP, Strategy.NONE, 1.0, 0.3, 1.0, 0.0),
    (Protocol.PP, Strategy.NGUYEN, 0.5, 0.3, 1.0, 0.0),
    (Protocol.LM05, Strategy.NONE, 1.0, 0.3, 1.0, 0.0),
    (Protocol.LM05, Strategy.LUCAMARINI, 0.5, 0.3, 1.0, 0.0),
    (Protocol.BB84, Strategy.INTERCEPT_RESEND, 0.6, 0.0, 0.7, 0.05),
    (Protocol.PP, Strategy.NGUYEN, 0.6, 0.3, 0.9, 0.05),
    (Protocol.LM05, Strategy.LUCAMARINI, 0.6, 0.3, 0.8, 0.05),
]
IDS = [
    f"{p.value}-{s.value}" + ("" if t == 1.0 else "-lossy-dark")
    for p, s, _, _, t, _ in CASES
]


def config_of(case, rounds, seed=2024):
    protocol, strategy, q, cm_prob, p_segment, dark = case
    return SimConfig(
        protocol=protocol,
        rounds=rounds,
        seed=seed,
        attack=AttackConfig(strategy=strategy, q=q),
        cm_prob=cm_prob,
        channel=ChannelConfig(p_segment=p_segment, dark_count_prob=dark),
    )


def reference(config):
    """The same config played one round at a time by ROUND_FUNCTIONS."""
    round_fn = ROUND_FUNCTIONS[config.protocol]
    rng = random.Random(config.seed)
    tally = Tally()
    args = (
        config.attack.strategy,
        config.attack.q,
        config.cm_prob,
        config.channel.transmittance(config.protocol),
        config.channel.dark_count_prob,
    )
    for _ in range(config.rounds):
        round_fn(tally, rng, *args)
    return tally


def within(observed, n, p):
    """Observed count over n trials inside the 3-sigma band around p."""
    p = float(p)
    assert n > 0
    slack = 3 * (p * (1 - p) * n) ** 0.5
    assert abs(observed - n * p) <= slack, f"{observed}/{n} vs {p}"


def check_against_closed_forms(config, tally):
    t = config.channel.transmittance(config.protocol)
    dark_p = config.channel.dark_count_prob
    strategy, q = config.attack.strategy, config.attack.q
    q_eff = 0.0 if strategy is Strategy.NONE else q
    detect = t + (1 - t) * dark_p
    real = t / detect  # share of detected rounds that are not dark firings
    n = tally.rounds

    within(n - tally.lost, n, detect)
    within(tally.eve_rounds, n, q_eff)
    within(tally.cm_rounds, n - tally.lost, config.cm_prob)

    sift = 0.5 if config.protocol is Protocol.BB84 else 1.0
    within(tally.raw_key, tally.mm_rounds, sift)

    real_mm_error = 0.0
    if strategy is Strategy.INTERCEPT_RESEND:
        real_mm_error = q * oracles.bb84_intercept_resend()[0]
    within(tally.mm_errors, tally.raw_key, real * real_mm_error + (1 - real) * 0.5)
    # Dark firings carry no attacker knowledge: the share is q on real rounds.
    within(tally.eve_mm_rounds, tally.raw_key, real * q_eff)
    if strategy is Strategy.INTERCEPT_RESEND:
        within(tally.eve_mm_correct, tally.eve_mm_rounds,
               oracles.bb84_intercept_resend()[1])
    else:
        assert tally.eve_mm_correct == tally.eve_mm_rounds

    if config.protocol is Protocol.BB84:
        assert tally.cm_rounds == 0
        return
    cm_intercepted = CM_INTERCEPTED.get(strategy, 0)
    dark_cm = DARK_CM_ERROR[config.protocol]
    within(tally.cm_errors, tally.cm_rounds,
           real * q_eff * float(cm_intercepted) + (1 - real) * dark_cm)
    if strategy is not Strategy.NONE:
        within(tally.eve_cm_errors, tally.eve_cm_rounds, cm_intercepted)


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_kernel_matches_closed_forms(case):
    config = config_of(case, KERNEL_ROUNDS)
    check_against_closed_forms(config, run(config))


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_reference_matches_closed_forms(case):
    config = config_of(case, REFERENCE_ROUNDS)
    check_against_closed_forms(config, reference(config))


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_counter_identities_hold_on_every_chunk(case):
    config = config_of(case, 10 * CHUNK_ROUNDS + 123)
    played, _ = played_chunks(config)
    assert [index for index, _, _ in played] == list(range(11))
    for _, n, t in played:
        assert t.rounds == n == t.lost + t.mm_rounds + t.cm_rounds
        assert t.raw_key <= t.mm_rounds
        assert t.mm_errors <= t.raw_key and t.cm_errors <= t.cm_rounds
        assert t.eve_mm_correct <= t.eve_mm_rounds <= t.raw_key
        assert t.eve_cm_errors <= t.eve_cm_rounds <= t.cm_rounds
        assert t.dark <= t.rounds - t.lost and t.eve_rounds <= t.rounds


@pytest.mark.parametrize(
    "protocol, strategy",
    [(Protocol.PP, Strategy.NGUYEN), (Protocol.LM05, Strategy.LUCAMARINI)],
)
def test_copy_attack_message_mode_is_exactly_error_free(protocol, strategy):
    config = SimConfig(
        protocol=protocol,
        rounds=140_000,
        seed=99,
        attack=AttackConfig(strategy=strategy, q=1.0),
        cm_prob=0.25,
    )
    tally = run(config)
    assert tally.raw_key == tally.mm_rounds >= 100_000
    assert tally.mm_errors == 0
    assert tally.eve_mm_correct == tally.eve_mm_rounds == tally.raw_key
    assert tally.d_mm == 0.0 and tally.i_ab_emp == 1.0


@pytest.mark.parametrize("protocol", list(Protocol))
def test_q_zero_matches_attack_free_stream(protocol):
    native = {p: s for p, s, *_ in CASES if s is not Strategy.NONE}
    cm = 0.0 if protocol is Protocol.BB84 else 0.3
    args = (cm, 0.8, 0.05)
    kernel = CHUNK_KERNELS[protocol]
    attacked = kernel(_chunk_rng(5, 0), 4096, native[protocol], 0.0, *args)
    clean = kernel(_chunk_rng(5, 0), 4096, Strategy.NONE, 1.0, *args)
    assert attacked == clean
    assert clean.eve_rounds == 0


UNIFORMS = [0.0, 5e-324, 2.0**-53, 0.25, math.nextafter(0.3, 0.0), 0.3,
            math.nextafter(0.3, 1.0), math.nextafter(0.5, 0.0), 0.5, 0.75, 1.0 - 2.0**-53]


@pytest.mark.parametrize(
    "p", [0.0, 5e-324, 2.0**-53, 0.3, 0.5, 1.0 - 2.0**-53, 1.0, np.float64(0.25)], ids=repr
)
def test_threshold_row_is_exact(p):
    rng = ScriptedRows([(p, UNIFORMS)])
    row = _below(rng, len(UNIFORMS), p)
    rng.assert_spent()
    assert [row >> i & 1 for i in range(len(UNIFORMS))] == [u < Fraction(p) for u in UNIFORMS]
    # One word per digit of p, up to the last lane's first disagreement.
    words = {0.0: 0, 1.0: 0, 0.5: 1, 2.0**-53: 53, 5e-324: 1074, 1.0 - 2.0**-53: 53}
    if p in words:
        assert len(threshold_words(p, UNIFORMS)) == words[p]


def test_chunk_rng_is_a_stable_random_per_chunk():
    # Seeded from a string, which random hashes with SHA-512, so the stream
    # cannot depend on the interpreter's hash seed.
    script = (
        "import json; from twoway_qkd.harness import _chunk_rng; print(json.dumps("
        "[_chunk_rng(s, i).getrandbits(64) for s, i in ((7, 3), (7, 4), (8, 3), (1, 23), (12, 3))]))"
    )
    draws = []
    for hash_seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed}
        result = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True, check=True)
        draws.append(json.loads(result.stdout))
    assert draws[0] == draws[1]
    assert len(set(draws[0])) == 5
    rng = _chunk_rng(7, 3)
    assert isinstance(rng, random.Random)
    assert rng.getrandbits(64) == draws[0][0]


def test_run_never_calls_the_reference(monkeypatch):
    def refuse(*args):
        raise AssertionError("harness.run called a reference round function")

    for protocol in Protocol:
        monkeypatch.setitem(ROUND_FUNCTIONS, protocol, refuse)
    for case in CASES:
        assert run(config_of(case, 5000), workers=1).rounds == 5000

