import concurrent.futures
import functools
import json
import os
import pickle
import signal
import subprocess
import sys
import textwrap
import tracemalloc
from concurrent.futures.process import BrokenProcessPool
from fractions import Fraction

import numpy as np
import pytest
from support import played_chunks

from twoway_qkd import harness
from twoway_qkd.adversaries import AttackConfig, Strategy
from twoway_qkd.analysis import binary_entropy
from twoway_qkd.channel import ChannelConfig, ConfigError, Protocol
from twoway_qkd.harness import (
    CHUNK_ROUNDS,
    POOL_MIN_CHUNKS,
    RunStats,
    SimConfig,
    Tally,
    _pool_size,
    _run_chunks,
    run,
)


def pp_config(rounds=8192, seed=42, q=0.3, cm_prob=0.2, p=0.95):
    return SimConfig(
        protocol=Protocol.PP,
        rounds=rounds,
        seed=seed,
        attack=AttackConfig(strategy=Strategy.NGUYEN, q=q),
        cm_prob=cm_prob,
        channel=ChannelConfig(p_segment=p),
    )


class TestSimConfig:
    def test_rejects_bad_rounds_and_seed(self):
        with pytest.raises(ConfigError):
            SimConfig(protocol=Protocol.PP, rounds=0)
        with pytest.raises(ConfigError):
            SimConfig(protocol=Protocol.PP, rounds=100, seed=-1)

    @pytest.mark.parametrize(
        "field, value", [("rounds", 1.5), ("rounds", True), ("rounds", "16"),
                         ("seed", 1.5), ("seed", False), ("seed", 2.0)]
    )
    def test_rejects_non_integer_rounds_and_seed(self, field, value):
        kwargs = {"rounds": 100, field: value}
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            SimConfig(protocol=Protocol.PP, **kwargs)

    @pytest.mark.parametrize(
        "field, value",
        [("protocol", "pp"), ("protocol", Strategy.NGUYEN), ("protocol", None),
         ("attack", "nguyen"), ("attack", Strategy.NGUYEN), ("attack", ChannelConfig()),
         ("channel", None), ("channel", AttackConfig()), ("channel", 0.9)],
    )
    def test_rejects_fields_of_the_wrong_type(self, field, value):
        kwargs = {"protocol": Protocol.PP, "rounds": 100, field: value}
        with pytest.raises(ConfigError, match=f"{field} must be of type"):
            SimConfig(**kwargs)

    def test_accepts_numpy_integers(self):
        config = SimConfig(protocol=Protocol.PP, rounds=np.int64(16), seed=np.uint32(3))
        assert type(config.rounds) is int and type(config.seed) is int
        assert json.loads(json.dumps(config.as_dict()))["seed"] == 3
        assert run(config).rounds == 16

    def test_rejects_bad_cm_prob(self):
        with pytest.raises(ConfigError):
            SimConfig(protocol=Protocol.PP, rounds=100, cm_prob=1.5)

    def test_bb84_has_no_control_mode(self):
        with pytest.raises(ConfigError):
            SimConfig(protocol=Protocol.BB84, rounds=100, cm_prob=0.1)

    def test_rejects_foreign_attack(self):
        with pytest.raises(ConfigError):
            SimConfig(
                protocol=Protocol.PP,
                rounds=100,
                attack=AttackConfig(strategy=Strategy.INTERCEPT_RESEND),
            )

    @pytest.mark.parametrize(
        "field", ["protocol", "rounds", "seed", "attack", "cm_prob", "channel"]
    )
    def test_fields_cannot_be_assigned_or_deleted(self, field):
        config = pp_config()
        with pytest.raises(AttributeError):
            setattr(config, field, getattr(config, field))
        with pytest.raises(AttributeError):
            delattr(config, field)
        assert config == pp_config()

    def test_equal_values_compare_and_hash_equal(self):
        a, b = pp_config(), pp_config()
        assert a is not b and a == b and hash(a) == hash(b)
        assert len({a, b, pp_config(seed=43)}) == 2
        assert a != pp_config(q=0.4)
        assert a != pp_config(p=0.9)
        assert SimConfig(Protocol.PP, 100) == SimConfig(protocol=Protocol.PP, rounds=100)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_survives_pickle(self, protocol):
        # What a pooled run sends each worker: both nested configs non-default.
        config = SimConfig(
            protocol=Protocol.LM05,
            rounds=3 * CHUNK_ROUNDS,
            seed=11,
            attack=AttackConfig(strategy=Strategy.LUCAMARINI, q=0.4),
            cm_prob=0.25,
            channel=ChannelConfig(p_segment=0.9, detector_efficiency=0.8, dark_count_prob=1e-3),
        )
        copy = pickle.loads(pickle.dumps(config, protocol))
        assert copy == config and hash(copy) == hash(config)
        assert repr(copy) == repr(config)
        assert type(copy.attack) is AttackConfig and type(copy.channel) is ChannelConfig
        assert copy.as_dict() == config.as_dict()

    def test_as_dict_is_flat_and_complete(self):
        config = pp_config()
        d = config.as_dict()
        assert d == {
            "protocol": "pp",
            "attack": "nguyen",
            "q": 0.3,
            "rounds": 8192,
            "seed": 42,
            "cm_prob": 0.2,
            "p_segment": 0.95,
            "detector_efficiency": 1.0,
            "dark_count_prob": 0.0,
        }


class TestRunStatsDerived:
    def test_derived_quantities(self):
        stats = RunStats(
            rounds=10,
            lost=2,
            dark=1,
            mm_rounds=6,
            cm_rounds=3,
            raw_key=5,
            mm_errors=1,
            cm_errors=2,
            eve_rounds=4,
            eve_mm_rounds=4,
            eve_mm_correct=3,
            eve_cm_rounds=2,
            eve_cm_errors=1,
        )
        assert stats.yield_fraction == 0.8
        assert stats.d_mm == 0.2
        assert stats.d_cm == 2 / 3
        assert stats.d_cm_intercepted == 0.5
        assert stats.eve_known_fraction == 0.6
        assert stats.l_final == 2
        assert stats.i_ab_emp == 1.0 - binary_entropy(0.2)
        assert stats.i_ae_emp == (4 / 5) * (1.0 - binary_entropy(0.25))
        assert stats.r_emp == stats.i_ab_emp - stats.i_ae_emp

    def test_eve_wrong_on_most_of_her_bits_still_knows_them(self):
        # Right on 1 of 5 bits, she flips her copy and is right on 4 of 5: her
        # error rate is 4/5, not clamped at 1/2, and h(4/5) = h(1/5).
        stats = RunStats(rounds=10, mm_rounds=10, raw_key=10, eve_rounds=5,
                         eve_mm_rounds=5, eve_mm_correct=1)
        assert stats.i_ae_emp == pytest.approx((5 / 10) * (1.0 - binary_entropy(0.2)))

    def test_zero_denominators(self):
        stats = RunStats(*([4] + [0] * 12))
        assert stats.d_mm == 0.0
        assert stats.d_cm == 0.0
        assert stats.d_cm_intercepted == 0.0
        assert stats.eve_known_fraction == 0.0
        assert stats.i_ab_emp == 1.0
        assert stats.i_ae_emp == 0.0

    def test_run_stats_is_the_tally(self):
        assert RunStats is Tally
        tally = Tally()
        tally.rounds = 7
        tally.raw_key = 3
        assert tally.as_dict()["rounds"] == 7
        assert tally.as_dict()["raw_key"] == 3
        assert type(run(pp_config(rounds=10))) is Tally

    def test_as_dict_order_is_counters_then_derived(self):
        stats = RunStats(*([1] * 13))
        keys = list(stats.as_dict())
        assert keys[: len(Tally.__slots__)] == list(Tally.__slots__)
        assert keys[len(Tally.__slots__) :] == [
            "yield_fraction",
            "d_mm",
            "d_cm",
            "d_cm_intercepted",
            "eve_known_fraction",
            "l_final",
            "i_ab_emp",
            "i_ae_emp",
            "r_emp",
        ]

    def test_builds_empty_by_position_and_by_keyword(self):
        values = list(range(1, len(Tally.__slots__) + 1))
        assert list(Tally().as_dict().values())[: len(values)] == [0] * len(values)
        assert [getattr(Tally(*values), name) for name in Tally.__slots__] == values
        assert Tally(rounds=5) == Tally(5) != Tally()
        assert Tally(**dict(zip(Tally.__slots__, values))) == Tally(*values)
        with pytest.raises(TypeError):
            Tally(rounds=1, bogus=2)
        with pytest.raises(TypeError):
            Tally(*values, 0)

    def test_is_a_mutable_unhashable_value(self):
        tally = Tally(rounds=3)
        tally.rounds += 1
        assert tally == Tally(rounds=4)
        assert tally != Tally(rounds=3)
        with pytest.raises(TypeError):
            hash(tally)
        assert pickle.loads(pickle.dumps(tally)) == tally

    def test_merge_adds_counters(self):
        a = run(pp_config(rounds=1000, seed=5))
        b = run(pp_config(rounds=1500, seed=6))
        merged = Tally()
        merged.merge(a)
        merged.merge(b)
        assert merged.rounds == 2500
        assert merged.raw_key == a.raw_key + b.raw_key
        assert merged.cm_errors == a.cm_errors + b.cm_errors


@pytest.fixture
def pool_from_one_chunk(monkeypatch):
    """A pool for any run of two or more chunks, so that small configurations
    at ``workers > 1`` still fork a real one."""
    monkeypatch.setattr(harness, "POOL_MIN_CHUNKS", 1)


def lm05_config(rounds):
    return SimConfig(protocol=Protocol.LM05, rounds=rounds, seed=3, cm_prob=0.5)


def plan(rounds):
    """(index, n_rounds) of each chunk an in-process run plays, in order."""
    played, _ = played_chunks(lm05_config(rounds))
    return [(index, n) for index, n, _ in played]


class TestChunkPlan:
    def test_exact_multiple(self):
        assert plan(3 * CHUNK_ROUNDS) == [
            (0, CHUNK_ROUNDS),
            (1, CHUNK_ROUNDS),
            (2, CHUNK_ROUNDS),
        ]

    def test_remainder(self):
        assert plan(CHUNK_ROUNDS + 5) == [(0, CHUNK_ROUNDS), (1, 5)]

    def test_single_short_chunk(self):
        assert plan(3) == [(0, 3)]

    @pytest.mark.parametrize(
        "rounds",
        # Counts around one chunk and around a quarter of one.
        [1, CHUNK_ROUNDS // 4 - 1, CHUNK_ROUNDS // 4, CHUNK_ROUNDS // 4 + 1, 10000,
         3 * CHUNK_ROUNDS // 4 + 5, CHUNK_ROUNDS - 1, CHUNK_ROUNDS, CHUNK_ROUNDS + 1,
         3 * CHUNK_ROUNDS + 5],
    )
    def test_plan_covers_rounds(self, rounds):
        played, stats = played_chunks(lm05_config(rounds))
        assert sum(n for _, n, _ in played) == rounds
        assert [i for i, _, _ in played] == list(range(len(played)))
        assert stats.rounds == rounds
        assert stats.mm_rounds + stats.cm_rounds == rounds

    def test_pool_gets_a_few_index_ranges_at_any_length(self, monkeypatch):
        # A million chunks: each pool task must be a (config, first, last)
        # range, and planning them must not allocate per chunk.
        tasks = []

        class FakePool:
            def __init__(self, max_workers, mp_context):
                assert max_workers == 2
                # Fork is pinned on Linux, so that no CPython release moves
                # it; other platforms keep their default.
                if sys.platform == "linux":
                    assert mp_context.get_start_method() == "fork"
                else:
                    assert mp_context is None

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                pass

            def map(self, fn, *iterables):
                assert fn is _run_chunks
                for args in zip(*iterables):
                    tasks.append(args)
                    yield Tally()

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        n = 10**6
        config = pp_config(rounds=CHUNK_ROUNDS * n)
        tracemalloc.start()
        try:
            run(config, workers=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 2 <= len(tasks) <= 8 * 2
        assert all(task[0] is config and task[1] < task[2] for task in tasks)
        assert tasks[0][1] == 0 and tasks[-1][2] == n
        assert all(a[2] == b[1] for a, b in zip(tasks, tasks[1:]))
        assert peak < 2**20


class TestDeterminism:
    def test_same_config_same_stats(self):
        config = pp_config()
        assert run(config) == run(config)

    def test_seed_changes_stats(self):
        a = run(pp_config(seed=0))
        b = run(pp_config(seed=1))
        assert a != b

    def test_stats_do_not_depend_on_chunk_schedule(self, pool_from_one_chunk):
        config = pp_config(rounds=3 * CHUNK_ROUNDS)
        baseline = run(config, workers=1).as_dict()
        for workers in (2, 3):
            assert run(config, workers=workers).as_dict() == baseline

    @pytest.mark.parametrize(
        "protocol, strategy",
        [
            (Protocol.BB84, Strategy.INTERCEPT_RESEND),
            (Protocol.LM05, Strategy.LUCAMARINI),
        ],
    )
    def test_parallel_identity_other_protocols(self, protocol, strategy, pool_from_one_chunk):
        config = SimConfig(
            protocol=protocol,
            rounds=2 * CHUNK_ROUNDS + 100,
            seed=9,
            attack=AttackConfig(strategy=strategy, q=0.4),
            cm_prob=0.0 if protocol is Protocol.BB84 else 0.2,
            channel=ChannelConfig(p_segment=0.9),
        )
        sequential = json.dumps(run(config, workers=1).as_dict(), sort_keys=False)
        parallel = json.dumps(run(config, workers=2).as_dict(), sort_keys=False)
        assert sequential == parallel

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            run(pp_config(rounds=10), workers=0)

    def test_bad_workers_raise_config_error(self):
        assert issubclass(ConfigError, ValueError)
        with pytest.raises(ConfigError, match="workers must be positive, got 0"):
            run(pp_config(rounds=10), workers=0)

    @pytest.mark.parametrize("config", ["x", None, Protocol.PP, ChannelConfig()])
    def test_config_must_be_a_sim_config(self, config):
        with pytest.raises(ConfigError, match="config must be of type SimConfig"):
            run(config)

    @pytest.mark.parametrize("workers", [1.5, 2.5, 2.0, True, False, "2", None, -1])
    def test_workers_must_be_a_positive_int(self, workers, monkeypatch, pool_from_one_chunk):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        with pytest.raises(ValueError, match="workers must be (an integer|positive), got "):
            run(pp_config(rounds=3 * CHUNK_ROUNDS), workers=workers)

    def test_numpy_integer_workers(self, pool_from_one_chunk):
        config = pp_config(rounds=2 * CHUNK_ROUNDS)
        assert run(config, workers=np.int64(2)) == run(config)


@pytest.mark.parametrize("field, least, bound",
                         [("rounds", 1, "positive"), ("seed", 0, "non-negative"),
                          ("workers", 1, "positive")])
@pytest.mark.parametrize(
    "value, message",
    [(True, "must be an integer, got True"), (2.0, "must be an integer, got 2.0"),
     ("2", "must be an integer, got '2'"), (None, "must be an integer, got None"),
     (10**5000, "is too long to print, got <int of 16610 bits>"), ("below", None)],
    ids=["bool", "float", "str", "none", "huge", "below"],
)
def test_integer_fields_share_one_rule(field, least, bound, value, message):
    """rounds and seed, checked by SimConfig, and workers, checked by run,
    reject the same values with the same messages."""
    if value == "below":
        value, message = least - 1, f"must be {bound}, got {least - 1}"
    with pytest.raises(ConfigError) as info:
        if field == "workers":
            run(pp_config(rounds=10), workers=value)
        else:
            SimConfig(protocol=Protocol.PP, **{"rounds": 100, field: value})
    assert str(info.value) == f"{field} {message}"


def test_pool_size_is_capped_by_chunks_and_cpus(monkeypatch):
    # Checked through the pure helper only; no pool is started.
    cpus = os.cpu_count() or 1
    assert _pool_size(10**6, 10**6 * POOL_MIN_CHUNKS) == cpus
    assert _pool_size(10**6, 3 * POOL_MIN_CHUNKS) == min(3, cpus)
    assert _pool_size(10**6, 1) == 1
    assert _pool_size(1, 500 * POOL_MIN_CHUNKS) == 1
    # Each process must get POOL_MIN_CHUNKS chunks.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert _pool_size(2, 2 * POOL_MIN_CHUNKS - 1) == 1
    assert _pool_size(2, 2 * POOL_MIN_CHUNKS) == 2


class TestRunStatistics:
    def test_lossless_deterministic_run_yields_every_round(self):
        stats = run(SimConfig(protocol=Protocol.LM05, rounds=5000, seed=8))
        assert stats.yield_fraction == 1.0
        assert stats.raw_key == 5000
        assert stats.d_mm == 0.0
        assert stats.i_ab_emp == 1.0

    def test_loss_scales_with_passes(self):
        n = 40000
        channel = ChannelConfig(p_segment=0.9)
        for protocol in Protocol:
            t = channel.transmittance(protocol)
            stats = run(
                SimConfig(protocol=protocol, rounds=n, seed=13, channel=channel)
            )
            sigma = (t * (1 - t) / n) ** 0.5
            assert abs(stats.yield_fraction - t) < 3 * sigma

    def test_q_that_rounds_to_one_plays_every_round_attacked(self):
        q = Fraction(2**60 - 1, 2**60)  # below 1, but 1.0 as a float
        config = pp_config(rounds=20000, q=q, p=1.0)
        assert run(config).eve_rounds == 20000
        assert config.attack.q == 1.0

    def test_eve_share_tracks_q(self):
        n = 30000
        stats = run(pp_config(rounds=n, q=0.3, cm_prob=0.0, p=1.0))
        assert stats.d_mm == 0.0
        assert stats.eve_mm_correct == stats.eve_mm_rounds
        sigma = (0.3 * 0.7 / n) ** 0.5
        assert abs(stats.eve_known_fraction - 0.3) < 3 * sigma
        assert stats.l_final == stats.raw_key - stats.eve_mm_correct
        assert stats.i_ae_emp == stats.eve_known_fraction


PAIRINGS = [
    (Protocol.BB84, Strategy.NONE),
    (Protocol.BB84, Strategy.INTERCEPT_RESEND),
    (Protocol.PP, Strategy.NONE),
    (Protocol.PP, Strategy.NGUYEN),
    (Protocol.LM05, Strategy.NONE),
    (Protocol.LM05, Strategy.LUCAMARINI),
]


def lossy_config(protocol, strategy, rounds, seed=21):
    return SimConfig(
        protocol=protocol,
        rounds=rounds,
        seed=seed,
        attack=AttackConfig(strategy=strategy, q=0.5),
        cm_prob=0.0 if protocol is Protocol.BB84 else 0.25,
        channel=ChannelConfig(p_segment=0.8, dark_count_prob=0.01),
    )


@pytest.fixture
def two_cpus(monkeypatch):
    """Two CPUs whatever the host has, so workers=2 starts a real pool."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


@pytest.mark.usefixtures("pool_from_one_chunk")
class TestPoolPerRun:
    def test_pooled_runs_of_a_sequence_of_configs_match_serial(self, two_cpus):
        configs = [lossy_config(protocol, strategy, rounds)
                   for rounds in (CHUNK_ROUNDS + 1, 20_000) for protocol, strategy in PAIRINGS]
        pooled = [run(config, workers=2).as_dict() for config in configs]
        assert pooled == [run(config, workers=1).as_dict() for config in configs]

    def test_a_replaced_chunk_function_reaches_the_workers(self, two_cpus, monkeypatch):
        config = lossy_config(Protocol.LM05, Strategy.LUCAMARINI, 20_000)
        plain = run(config, workers=2)
        original = harness._run_chunk

        @functools.wraps(original)
        def marked(*args):
            tally = original(*args)
            tally.lost += 1000
            return tally

        monkeypatch.setattr(harness, "_run_chunk", marked)
        stats = run(config, workers=2)
        assert stats.lost == plain.lost + 1000 * -(-20_000 // CHUNK_ROUNDS)
        monkeypatch.setattr(harness, "_run_chunk", original)
        assert run(config, workers=2) == plain

    def test_a_worker_dying_mid_run_raises(self, two_cpus, monkeypatch):
        config = lossy_config(Protocol.BB84, Strategy.INTERCEPT_RESEND, 20_000)
        parent = os.getpid()
        original = harness._run_chunk

        def die(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return original(*args)

        monkeypatch.setattr(harness, "_run_chunk", die)
        with pytest.raises(BrokenProcessPool):
            run(config, workers=2)
        monkeypatch.setattr(harness, "_run_chunk", original)
        assert run(config, workers=2) == run(config, workers=1)

    def test_threads_each_get_their_own_stats(self, monkeypatch):
        # Four threads at two worker counts, each run with a pool of its own.
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        configs = [lossy_config(protocol, strategy, 3 * CHUNK_ROUNDS, seed=seed)
                   for seed, (protocol, strategy) in enumerate(PAIRINGS[:4])]
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as threads:
            pooled = list(threads.map(
                lambda config: [run(config, workers=w) for w in (2, 3, 2, 3)], configs
            ))
        assert pooled == [[run(config, workers=1)] * 4 for config in configs]

    def test_interpreter_exits_cleanly_after_pooled_runs(self):
        # Each pool is shut down before its run returns, so no worker is
        # left for interpreter exit.
        script = textwrap.dedent("""
            import multiprocessing, os, sys
            os.cpu_count = lambda: 2
            from twoway_qkd import harness
            from twoway_qkd.adversaries import AttackConfig, Strategy
            from twoway_qkd.channel import Protocol
            harness.POOL_MIN_CHUNKS = 1
            config = harness.SimConfig(
                protocol=Protocol.PP, rounds=20000, seed=4, cm_prob=0.25,
                attack=AttackConfig(strategy=Strategy.NGUYEN, q=0.5))
            first, second = harness.run(config, workers=2), harness.run(config, workers=2)
            assert "concurrent.futures.process" in sys.modules
            assert multiprocessing.active_children() == []
            assert first == second == harness.run(config)
        """)
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert result.returncode == 0
        assert result.stderr == ""
