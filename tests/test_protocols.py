import random

import pytest

import oracles
from twoway_qkd.adversaries import Strategy
from twoway_qkd.channel import Protocol
from twoway_qkd.protocols import ROUND_FUNCTIONS, Tally, bb84_round, lm05_round, pp_round

_NATIVE = {
    Protocol.BB84: Strategy.INTERCEPT_RESEND,
    Protocol.PP: Strategy.NGUYEN,
    Protocol.LM05: Strategy.LUCAMARINI,
}


def play(
    protocol,
    n,
    seed=1234,
    strategy=Strategy.NONE,
    q=1.0,
    cm_prob=0.0,
    transmittance=1.0,
    dark=0.0,
):
    rng = random.Random(seed)
    tally = Tally()
    round_fn = ROUND_FUNCTIONS[protocol]
    for _ in range(n):
        round_fn(tally, rng, strategy, q, cm_prob, transmittance, dark)
    return tally


def three_sigma(p, n):
    return 3 * (p * (1 - p) / n) ** 0.5


class TestCleanRuns:
    @pytest.mark.parametrize("protocol", [Protocol.PP, Protocol.LM05])
    def test_deterministic_message_mode_is_error_free(self, protocol):
        tally = play(protocol, 3000)
        assert tally.raw_key == tally.mm_rounds == 3000
        assert tally.mm_errors == 0

    def test_bb84_sifts_about_half_and_is_error_free(self):
        n = 20000
        tally = play(Protocol.BB84, n)
        assert tally.mm_errors == 0
        assert abs(tally.raw_key / n - 0.5) < three_sigma(0.5, n)

    @pytest.mark.parametrize("protocol", [Protocol.PP, Protocol.LM05])
    def test_control_mode_is_error_free(self, protocol):
        tally = play(protocol, 3000, cm_prob=1.0)
        assert tally.cm_rounds == 3000
        assert tally.cm_errors == 0

    def test_mode_split_follows_cm_prob(self):
        n = 20000
        tally = play(Protocol.PP, n, cm_prob=0.25)
        assert tally.mm_rounds + tally.cm_rounds == n
        assert abs(tally.cm_rounds / n - 0.25) < three_sigma(0.25, n)


class TestTransparentAttacks:
    @pytest.mark.parametrize("protocol", [Protocol.PP, Protocol.LM05])
    def test_message_mode_undisturbed_and_fully_read(self, protocol):
        tally = play(protocol, 5000, strategy=_NATIVE[protocol], q=1.0)
        assert tally.mm_errors == 0
        assert tally.eve_mm_rounds == tally.raw_key == 5000
        assert tally.eve_mm_correct == 5000

    @pytest.mark.parametrize("q", [0.25, 0.5])
    @pytest.mark.parametrize("protocol", [Protocol.PP, Protocol.LM05])
    def test_partial_presence_reads_q_fraction(self, protocol, q):
        n = 20000
        tally = play(protocol, n, strategy=_NATIVE[protocol], q=q)
        assert tally.mm_errors == 0
        assert tally.eve_mm_correct == tally.eve_mm_rounds
        assert abs(tally.eve_mm_rounds / n - q) < three_sigma(q, n)

    def test_pp_control_mode_error_rate_matches_oracle(self):
        n = 30000
        expected = float(oracles.pp_cm_intercepted())
        assert expected == float(oracles.PP_CM_ERROR)
        tally = play(Protocol.PP, n, strategy=Strategy.NGUYEN, q=1.0, cm_prob=1.0)
        assert tally.eve_cm_rounds == n
        assert abs(tally.eve_cm_errors / n - expected) < three_sigma(expected, n)

    def test_lm05_control_mode_error_rate_matches_oracle(self):
        n = 30000
        expected = float(oracles.lm05_cm_intercepted())
        assert expected == float(oracles.LM05_CM_ERROR)
        tally = play(Protocol.LM05, n, strategy=Strategy.LUCAMARINI, q=1.0, cm_prob=1.0)
        assert tally.eve_cm_rounds == n
        assert abs(tally.eve_cm_errors / n - expected) < three_sigma(expected, n)

    def test_oracle_transparency_properties(self):
        assert oracles.pp_mm_transparent()
        assert oracles.lm05_mm_transparent()


class TestInterceptResendRounds:
    def test_error_and_eve_rates_match_oracle(self):
        n = 60000
        err, eve_correct = oracles.bb84_intercept_resend()
        assert (err, eve_correct) == (
            oracles.BB84_SIFTED_ERROR,
            oracles.BB84_EVE_CORRECT,
        )
        tally = play(Protocol.BB84, n, strategy=Strategy.INTERCEPT_RESEND, q=1.0)
        d = tally.mm_errors / tally.raw_key
        assert abs(d - float(err)) < three_sigma(float(err), tally.raw_key)
        hit = tally.eve_mm_correct / tally.eve_mm_rounds
        assert abs(hit - float(eve_correct)) < three_sigma(
            float(eve_correct), tally.eve_mm_rounds
        )

    def test_half_presence_halves_disturbance(self):
        n = 60000
        tally = play(Protocol.BB84, n, strategy=Strategy.INTERCEPT_RESEND, q=0.5)
        d = tally.mm_errors / tally.raw_key
        assert abs(d - 0.125) < three_sigma(0.125, tally.raw_key)


class TestDrawAlignment:
    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_q_zero_matches_no_attack_stream(self, protocol):
        cm = 0.0 if protocol is Protocol.BB84 else 0.3
        kwargs = dict(n=4000, seed=77, cm_prob=cm, transmittance=0.9)
        attacked = play(protocol, strategy=_NATIVE[protocol], q=0.0, **kwargs)
        clean = play(protocol, strategy=Strategy.NONE, q=1.0, **kwargs)
        assert attacked == clean

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_mode_draw_is_spent_only_at_a_positive_cm_prob(self, protocol):
        # A lossless attack-free round draws its presence, its survival and
        # one uniform in the body; at cm_prob > 0 a two-way round adds the mode
        # draw.  bb84, played only at cm_prob 0, keeps its three.
        class CountingRandom(random.Random):
            draws = 0

            def random(self):
                self.draws += 1
                return super().random()

        def draws(cm_prob):
            rng, tally = CountingRandom(3), Tally()
            for _ in range(100):
                ROUND_FUNCTIONS[protocol](tally, rng, Strategy.NONE, 1.0, cm_prob, 1.0, 0.0)
            assert tally.rounds == tally.mm_rounds == 100
            return rng.draws

        spent = draws(0.0)
        assert spent == 300
        if protocol is not Protocol.BB84:
            assert draws(5e-324) == spent + 100


class TestLoss:
    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_detection_rate_follows_transmittance(self, protocol):
        n = 40000
        t = 0.8
        tally = play(protocol, n, transmittance=t)
        detected = n - tally.lost
        assert abs(detected / n - t) < three_sigma(t, n)
        assert tally.dark == 0

    def test_lost_rounds_produce_nothing(self):
        tally = play(Protocol.PP, 2000, transmittance=0.5, cm_prob=0.3)
        assert tally.mm_rounds + tally.cm_rounds == 2000 - tally.lost
        assert tally.raw_key == tally.mm_rounds


class TestDarkCounts:
    def test_dark_detections_inject_noise(self):
        n = 20000
        t, dark = 0.0625, 0.8
        tally = play(Protocol.PP, n, transmittance=t, dark=dark)
        detect_rate = t + (1 - t) * dark
        assert abs((n - tally.lost) / n - detect_rate) < three_sigma(detect_rate, n)
        assert tally.dark > 0
        # Real rounds are error free, dark rounds err half the time.
        dark_share = (1 - t) * dark / detect_rate
        expected_d = dark_share * 0.5
        d = tally.mm_errors / tally.raw_key
        assert abs(d - expected_d) < three_sigma(expected_d, tally.raw_key)

    def test_bb84_dark_rounds_still_sift(self):
        n = 20000
        tally = play(Protocol.BB84, n, transmittance=0.01, dark=0.9)
        assert tally.dark > 0
        assert abs(tally.raw_key / (n - tally.lost) - 0.5) < three_sigma(
            0.5, n - tally.lost
        )


class TestTally:
    def test_as_dict_covers_all_slots(self):
        d = Tally().as_dict()
        counters = len(Tally.__slots__)
        assert tuple(d)[:counters] == Tally.__slots__
        assert all(v == 0 for v in list(d.values())[:counters])
        assert list(d.items())[counters:] == [
            ("yield_fraction", 0.0),
            ("d_mm", 0.0),
            ("d_cm", 0.0),
            ("d_cm_intercepted", 0.0),
            ("eve_known_fraction", 0.0),
            ("l_final", 0),
            ("i_ab_emp", 1.0),
            ("i_ae_emp", 0.0),
            ("r_emp", 1.0),
        ]

    def test_round_functions_registered(self):
        assert ROUND_FUNCTIONS == {
            Protocol.BB84: bb84_round,
            Protocol.PP: pp_round,
            Protocol.LM05: lm05_round,
        }
