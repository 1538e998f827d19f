"""Property tests: counter algebra, the chunk plan, threshold rows, config
validation over non-finite and boundary floats, grid endpoint snapping, and
``simulate``'s exit codes over edge-case and random command lines."""

import contextlib
import io
import json
import math
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import event, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from support import ScriptedRows, played_chunks  # noqa: E402

from twoway_qkd import cli  # noqa: E402
from twoway_qkd.adversaries import AttackConfig  # noqa: E402
from twoway_qkd.analysis import disturbance_grid  # noqa: E402
from twoway_qkd.channel import ChannelConfig, ConfigError, Protocol, Strategy  # noqa: E402
from twoway_qkd.harness import CHUNK_ROUNDS, SimConfig, Tally, _below  # noqa: E402

# Few examples per property keeps the whole suite well inside its time budget.
PROPERTY = settings(max_examples=60, deadline=None, database=None)

_EDGES = [0.0, -0.0, 1.0, math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0),
          math.nextafter(0.0, 1.0), -math.nextafter(0.0, 1.0),
          math.inf, -math.inf, math.nan]
floats = st.one_of(st.sampled_from(_EDGES), st.floats())

tallies = st.lists(
    st.integers(min_value=0, max_value=2**40),
    min_size=len(Tally.__slots__),
    max_size=len(Tally.__slots__),
).map(lambda values: Tally(*values))


def plus(*parts: Tally) -> Tally:
    total = Tally()
    for part in parts:
        total.merge(part)
    return total


class TestTallyMerge:
    @PROPERTY
    @given(tallies, tallies)
    def test_commutative(self, a, b):
        assert plus(a, b) == plus(b, a)

    @PROPERTY
    @given(tallies, tallies, tallies)
    def test_associative(self, a, b, c):
        assert plus(plus(a, b), c) == plus(a, plus(b, c))

    @PROPERTY
    @given(tallies)
    def test_zero_is_identity(self, a):
        assert plus(a, Tally()) == a


class TestChunkPlan:
    @PROPERTY
    @given(st.integers(min_value=1, max_value=50 * CHUNK_ROUNDS))
    def test_plan_covers_rounds(self, rounds):
        # The kernel is stubbed out: only the plan is under test.
        played, stats = played_chunks(
            SimConfig(protocol=Protocol.PP, rounds=rounds),
            play=lambda config, index, n_rounds: Tally(rounds=n_rounds),
        )
        plan = [(index, n) for index, n, _ in played]
        assert stats.rounds == rounds
        assert [index for index, _ in plan] == list(range(len(plan)))
        assert sum(n for _, n in plan) == rounds
        assert len(plan) == -(-rounds // CHUNK_ROUNDS)
        assert all(n == CHUNK_ROUNDS for _, n in plan[:-1])
        assert 0 < plan[-1][1] <= CHUNK_ROUNDS


@st.composite
def threshold_cases(draw):
    """A threshold p and lane uniforms, some of them at or next to p."""
    p = draw(st.one_of(st.sampled_from([0.0, 5e-324, 2.0**-53, 0.5, 1.0 - 2.0**-53, 1.0]),
                       st.floats(min_value=0.0, max_value=1.0)))
    near = [u for u in (p, math.nextafter(p, 0.0), math.nextafter(p, 1.0)) if u < 1.0]
    uniforms = st.one_of(st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
                         st.sampled_from(near))
    return p, draw(st.lists(uniforms, min_size=1, max_size=40))


class TestThresholdRow:
    @PROPERTY
    @given(threshold_cases())
    def test_each_lane_is_its_uniform_below_p(self, case):
        # The script serves each lane's binary digits for as many words as
        # deciding that lane takes, and fails on one word more or less.
        p, lanes = case
        rng = ScriptedRows([(p, lanes)])
        row = _below(rng, len(lanes), p)
        rng.assert_spent()
        assert row >> len(lanes) == 0
        assert [row >> i & 1 for i in range(len(lanes))] == [
            Fraction(u) < Fraction(p) for u in lanes
        ]


class TestConfigValidation:
    @PROPERTY
    @given(floats)
    def test_p_segment_and_efficiency_accept_exactly_half_open_unit(self, x):
        valid = 0.0 < x <= 1.0
        for name in ("p_segment", "detector_efficiency"):
            if valid:
                ChannelConfig(**{name: x})
            else:
                with pytest.raises(ConfigError):
                    ChannelConfig(**{name: x})

    @PROPERTY
    @given(floats)
    def test_dark_count_prob_accepts_exactly_unit_interval_without_one(self, x):
        if 0.0 <= x < 1.0:
            ChannelConfig(dark_count_prob=x)
        else:
            with pytest.raises(ConfigError):
                ChannelConfig(dark_count_prob=x)

    @PROPERTY
    @given(floats)
    def test_probabilities_accept_exactly_closed_unit_interval(self, x):
        if 0.0 <= x <= 1.0:
            AttackConfig(q=x)
            SimConfig(protocol=Protocol.PP, rounds=1, cm_prob=x)
        else:
            with pytest.raises(ConfigError):
                AttackConfig(q=x)
            with pytest.raises(ConfigError):
                SimConfig(protocol=Protocol.PP, rounds=1, cm_prob=x)

    @PROPERTY
    @given(floats)
    def test_float_rounds_and_seed_are_rejected(self, x):
        with pytest.raises(ConfigError):
            SimConfig(protocol=Protocol.PP, rounds=x)
        with pytest.raises(ConfigError):
            SimConfig(protocol=Protocol.PP, rounds=1, seed=x)

    @PROPERTY
    @given(st.integers(min_value=-(2**70), max_value=2**70))
    def test_integer_rounds_accepted_iff_positive(self, rounds):
        if rounds >= 1:
            assert SimConfig(protocol=Protocol.PP, rounds=rounds).rounds == rounds
        else:
            with pytest.raises(ConfigError):
                SimConfig(protocol=Protocol.PP, rounds=rounds)


class TestGridSnapping:
    @PROPERTY
    @given(
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=0, max_value=50),
        st.sampled_from([10, 100, 1000]),
    )
    def test_decimal_grid_hits_both_endpoints_exactly(self, i, j, den):
        i, j = sorted((i, j))
        start, end = i / den, j / den
        grid = disturbance_grid(start, end, 1 / den)
        assert len(grid) == j - i + 1
        assert grid[0] == start
        assert grid[-1] == end

    @PROPERTY
    @given(
        st.floats(min_value=0.0, max_value=0.5),
        st.floats(min_value=0.0, max_value=0.5),
        st.floats(min_value=1e-4, max_value=1e3),
    )
    def test_grid_never_leaves_its_bounds(self, a, b, step):
        start, end = min(a, b), max(a, b)
        grid = disturbance_grid(start, end, step)
        assert grid[0] == start
        assert start <= min(grid) and max(grid) <= end
        assert np.all(np.diff(grid) > 0.0)

    @PROPERTY
    @given(
        st.floats(min_value=0.0, max_value=0.5),
        st.floats(min_value=1e-10, max_value=1e-3),
        st.integers(min_value=0, max_value=200),
        st.floats(min_value=0.0, max_value=0.999),
    )
    def test_tiny_steps_keep_points_distinct(self, start, step, count, part):
        # Steps at or below the 1e-9 snapping distance must not collapse.
        end = start + (count + part) * step
        grid = disturbance_grid(start, end, step)
        assert grid[0] == start
        assert start <= min(grid) and max(grid) <= end
        assert np.all(np.diff(grid) > 0.0)

    @PROPERTY
    @given(
        st.floats(min_value=0.0, max_value=1e3),
        st.floats(min_value=1.0, max_value=1e3),
        st.integers(min_value=1, max_value=50),
        st.floats(min_value=1e-9, max_value=1e-6),
    )
    def test_end_just_short_of_a_large_step_is_not_passed(self, start, step, count, short):
        # The last full step lands up to 1e-6 past END: it must be dropped,
        # unless it is within the 1e-9 snapping distance.
        end = start + count * step - short
        grid = disturbance_grid(start, end, step)
        assert grid[0] == start
        assert max(grid) <= end
        assert len(grid) in (count, count + 1)
        assert grid[-1] == end or end - grid[-1] > step / 2

    @PROPERTY
    @given(
        floats,
        floats,
        st.sampled_from([math.inf, -math.inf, math.nan]),
        st.integers(min_value=0, max_value=2),
    )
    def test_non_finite_values_are_rejected(self, x, y, bad, position):
        args = [x, y]
        args.insert(position, bad)
        with pytest.raises(ValueError):
            disturbance_grid(*args)


def _is_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True


# Each value is good three times in four, so that a fair share of command
# lines runs, and bad otherwise: an edge case or any float for the float
# options, an out-of-range or malformed count, or random text.  Every option
# is passed as --name=value, so that a leading minus sign reaches the
# converter instead of reading as a flag.
probabilities = st.floats(min_value=0.0, max_value=1.0).map(repr)
bad_floats = st.one_of(
    st.sampled_from(["nan", "-nan", "NaN", "inf", "-inf", "Infinity", "-0.0", "-0",
                     "5e-324", "-5e-324", "2.225073858507201e-308", "1e-320",
                     "1.0000000000000002", "0.9999999999999999", "1e400", "-1e-300"]),
    st.sampled_from(_EDGES).map(repr),
    st.floats().map(repr),
    st.text(max_size=12),
)
# --rounds never plays more than two chunks; text that int() would accept,
# Unicode digits included, is left out so that it cannot ask for more.
good_rounds = st.integers(min_value=1, max_value=2 * CHUNK_ROUNDS).map(str)
bad_rounds = st.one_of(
    st.integers(min_value=-2, max_value=0).map(str),
    st.sampled_from(["1.5", "1e3", "0x10", "", " ", "+", "-0", "nan"]),
    st.text(max_size=12).filter(lambda text: not _is_int(text)),
)
good_seeds = st.integers(min_value=0, max_value=2**70).map(str)
bad_seeds = st.one_of(
    st.integers(min_value=-5, max_value=-1).map(str),
    st.sampled_from(["1.0", "1e3", "nan", ""]),
    st.text(max_size=12),
)
FLOAT_OPTIONS = ("q", "p-segment", "cm-prob", "detector-efficiency", "dark-count-prob")
NATIVE = {"bb84": "intercept-resend", "pp": "nguyen", "lm05": "lucamarini"}


@st.composite
def simulate_argv(draw):
    def value(good, bad):
        return draw(bad) if draw(st.integers(min_value=0, max_value=3)) == 0 else draw(good)

    protocol = draw(st.sampled_from(sorted(NATIVE)))
    attack = value(st.sampled_from(["none", NATIVE[protocol]]),
                   st.sampled_from([s.value for s in Strategy]))
    argv = ["simulate", "--protocol", protocol, "--attack", attack,
            f"--rounds={value(good_rounds, bad_rounds)}"]
    if draw(st.booleans()):
        argv.append(f"--seed={value(good_seeds, bad_seeds)}")
    for name in FLOAT_OPTIONS:
        if draw(st.booleans()):
            argv.append(f"--{name}={value(probabilities, bad_floats)}")
    return argv


class TestSimulateCommandLine:
    @settings(max_examples=200, deadline=None, database=None)
    @given(simulate_argv())
    def test_any_argv_ends_in_a_documented_exit(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # usage errors exit through argparse
                code = exc.code
        out, err = out.getvalue(), err.getvalue()
        event(f"exit {code}")
        assert code in (0, 2, 3), (code, err)
        assert "Traceback" not in out + err
        if code:
            assert out == ""
            assert err
        else:
            payload = json.loads(out)
            assert set(payload) == {"config", "stats", "version"}
            assert payload["stats"]["rounds"] == payload["config"]["rounds"]
