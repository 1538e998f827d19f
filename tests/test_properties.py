"""Property tests: counter algebra, the chunk plan, threshold rows, config
validation over non-finite and boundary floats, the one contract of every
probability field and every other config field over values of any type,
grid endpoint snapping, the command line's output contract over edge-case
and random argv, and the output documents' bytes against
``json.dumps(indent=2)`` and a plain CSV writer."""

import contextlib
import io
import json
import math
import os
import re
import tempfile
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, event, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from support import (  # noqa: E402
    ScriptedRows,
    assert_same_text,
    played_chunks,
    reference_csv,
    reference_document,
)

from twoway_qkd import cli  # noqa: E402
from twoway_qkd.adversaries import AttackConfig  # noqa: E402
from twoway_qkd.analysis import (  # noqa: E402
    MAX_GRID_POINTS,
    disturbance_grid,
    twoway_mutual_information,
)
from twoway_qkd.channel import ChannelConfig, ConfigError, Protocol, Strategy  # noqa: E402
from twoway_qkd.harness import CHUNK_ROUNDS, SimConfig, Tally, _below, run  # noqa: E402

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


def _pp_nguyen(q=0.5, cm_prob=0.25, **channel) -> SimConfig:
    """A 64-round ``pp``/``nguyen`` config, lossy with dark counts unless
    ``channel`` replaces them."""
    channel = {"p_segment": 0.9, "dark_count_prob": 0.1, **channel}
    return SimConfig(Protocol.PP, 64, seed=5, attack=AttackConfig(Strategy.NGUYEN, q=q),
                     cm_prob=cm_prob, channel=ChannelConfig(**channel))


PROBABILITY_FIELDS = ["p_segment", "detector_efficiency", "dark_count_prob", "q", "cm_prob"]

# Too long to print: past sys.get_int_max_str_digits(), 4300 digits by default.
HUGE = 10**5000


class PrintableFraction(Fraction):
    """A Fraction whose repr hypothesis can print when its str cannot be."""

    def __repr__(self):
        return f"Fraction({self.numerator:#x}, {self.denominator:#x})"


HUGE_FRACTION = PrintableFraction(HUGE, 3)
huge = st.sampled_from([HUGE, -HUGE, HUGE_FRACTION])

# Values of every kind a caller might pass, whatever the field.
any_kind = st.one_of(
    floats,
    st.booleans(),
    st.text(max_size=4),
    st.none(),
    st.decimals(),
    st.fractions(),
    huge,
)

# Values of every kind a caller might pass as a probability.
any_probability = st.one_of(
    any_kind,
    # within 2**-60 of an end, so most round onto it as floats
    st.builds(lambda end, k: end + Fraction(k, 2**62), st.sampled_from([0, 1]),
              st.integers(min_value=-4, max_value=4)),
    st.floats(width=32).map(np.float32),
    floats.map(np.float64),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.sampled_from([0, 1, -1, 2, 10**400, -(10**400)]),
    st.integers(min_value=-(10**400), max_value=10**400),
)


class TestProbabilityFields:
    """Every probability field either raises ``ConfigError`` or stores
    ``float(value)``, and then plays and dumps as that float does."""

    @settings(max_examples=200, deadline=None, database=None)
    @given(st.sampled_from(PROBABILITY_FIELDS), any_probability)
    @example("q", Fraction(2**60 - 1, 2**60))
    @example("dark_count_prob", Fraction(2**60 - 1, 2**60))
    @example("cm_prob", True)
    @example("q", Decimal("0.5"))
    @example("p_segment", "0.25")
    @example("detector_efficiency", None)
    @example("q", 10**400)
    @example("q", HUGE)
    @example("p_segment", -HUGE)
    @example("cm_prob", HUGE_FRACTION)
    def test_config_stores_the_float_or_raises(self, field, value):
        try:
            config = _pp_nguyen(**{field: value})
        except ConfigError:
            event("rejected")
            return
        expected = _pp_nguyen(**{field: float(value)})
        assert config == expected
        document = config.as_dict()
        assert type(document[field]) is float
        json.dumps(document, allow_nan=False)
        assert run(config) == run(expected)

    @settings(max_examples=200, deadline=None, database=None)
    @given(any_probability)
    @example(Fraction(1, 3))
    @example(True)
    @example(HUGE)
    @example(-HUGE)
    @example(HUGE_FRACTION)
    def test_twoway_mutual_information_returns_the_float_or_raises(self, value):
        try:
            result = twoway_mutual_information(value)
        except ConfigError:
            return
        assert result == twoway_mutual_information(float(value))
        assert type(result[1]) is float
        json.dumps(result, allow_nan=False)


CONFIG_FIELDS = ["rounds", "seed", "workers", "protocol", "strategy", "attack", "channel"]

# Every field's values: ints small enough to run, enum members and configs,
# and values of every other kind.
any_field_value = st.one_of(
    any_kind,
    st.integers(min_value=-64, max_value=64),
    st.integers(min_value=-64, max_value=64).map(np.int64),
    st.sampled_from([*Protocol, *Strategy, AttackConfig(), ChannelConfig(p_segment=0.9)]),
)


class TestConfigFields:
    """Every other field of a run either raises ``ConfigError`` or builds a
    config that runs and dumps as JSON."""

    @settings(max_examples=150, deadline=None, database=None)
    @given(st.sampled_from(CONFIG_FIELDS), any_field_value)
    @example("seed", HUGE)
    @example("seed", -HUGE)
    @example("rounds", HUGE)
    @example("rounds", -HUGE)
    @example("workers", -HUGE)
    @example("workers", HUGE)
    @example("protocol", HUGE)
    @example("attack", HUGE)
    @example("strategy", HUGE_FRACTION)
    def test_field_raises_or_runs_and_dumps(self, field, value):
        fields = {"protocol": Protocol.PP, "rounds": 64, "seed": 5, "workers": 1,
                  "strategy": Strategy.NGUYEN, "channel": ChannelConfig(p_segment=0.9),
                  field: value}
        try:
            attack = value if field == "attack" else AttackConfig(fields["strategy"], q=0.5)
            config = SimConfig(fields["protocol"], fields["rounds"], seed=fields["seed"],
                               attack=attack, cm_prob=0.25, channel=fields["channel"])
            json.dumps(config.as_dict(), allow_nan=False)  # first, as a run plays every round
            stats = run(config, workers=fields["workers"])
        except ConfigError:
            event("rejected")
            return
        json.dumps(stats.as_dict(), allow_nan=False)


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


def mostly(draw, good, bad):
    """A draw from ``good`` three times in four, from ``bad`` otherwise."""
    return draw(bad) if draw(st.integers(min_value=0, max_value=3)) == 0 else draw(good)


@st.composite
def simulate_argv(draw):
    protocol = draw(st.sampled_from(sorted(NATIVE)))
    attack = mostly(draw, st.sampled_from(["none", NATIVE[protocol]]),
                    st.sampled_from([s.value for s in Strategy]))
    argv = ["simulate", "--protocol", protocol, "--attack", attack,
            f"--rounds={mostly(draw, good_rounds, bad_rounds)}"]
    if draw(st.booleans()):
        argv.append(f"--seed={mostly(draw, good_seeds, bad_seeds)}")
    for name in FLOAT_OPTIONS:
        if draw(st.booleans()):
            argv.append(f"--{name}={mostly(draw, probabilities, bad_floats)}")
    return argv


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # usage errors exit through argparse
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# argparse's usage error lines start with "twoway-qkd[ <command>]: error: ",
# ours with "error: ".
ERROR_LINE = re.compile(r"(twoway-qkd( \w+)?: )?error: ")


def assert_one_error_line(out, err):
    """A failed command prints nothing on stdout and ends stderr in its only
    ``error: `` line."""
    assert out == ""
    lines = err.splitlines()
    assert lines and ERROR_LINE.match(lines[-1]), err
    assert [line for line in lines if "error: " in line] == [lines[-1]], err


class TestSimulateCommandLine:
    @settings(max_examples=200, deadline=None, database=None)
    @given(simulate_argv())
    def test_any_argv_ends_in_a_documented_exit(self, argv):
        code, out, err = run_main(argv)
        event(f"exit {code}")
        assert code in (0, 2, 3), (code, err)
        assert "Traceback" not in out + err
        if code:
            assert_one_error_line(out, err)
        else:
            payload = json.loads(out)
            assert set(payload) == {"config", "stats", "version"}
            assert payload["stats"]["rounds"] == payload["config"]["rounds"]


def _grid_points(start, end, step):
    """The span in steps that ``disturbance_grid`` would check, or None if
    it rejects the values before building anything."""
    if not all(math.isfinite(v) for v in (start, end, step)) or step <= 0.0 or end < start:
        return None
    return (end - start) / step


@st.composite
def grid_specs(draw):
    """START:END:STEP text.  Three times in four it is a grid inside
    [0, 0.5] of at most about 1,000 points; otherwise malformed text or three
    edge or ordinary floats.  Each part may be padded with whitespace that
    float() accepts.  A grid of more than about 1,000 points but under the
    cap is not drawn, so that no example builds a large table."""
    kind = draw(st.integers(min_value=0, max_value=7))
    if kind == 0:
        return draw(st.one_of(
            st.sampled_from(["", ":", "::", "0:0.5", "0:0.5:0.1:0.2", "a:b:c", "0:0.5:",
                             "0:0.5:0.1%", "0:0.5:1e", "--1:0:1", "0_0:0.5:0.1"]),
            st.text(max_size=16),
        ))
    if kind == 1:
        start = draw(st.one_of(st.sampled_from(_EDGES), st.floats()))
        step = draw(st.one_of(
            st.sampled_from([0.0, -0.0, -0.1, 5e-324, 1e-300, math.inf, math.nan]),
            st.floats(),
        ))
        count = draw(st.one_of(st.integers(min_value=0, max_value=1000),
                               st.integers(min_value=MAX_GRID_POINTS, max_value=10**12)))
        end = draw(st.one_of(st.just(start + count * step), st.just(start - 0.1),
                             st.sampled_from(_EDGES), st.floats()))
        span = _grid_points(start, end, step)
        assume(span is None or not 1100 < span <= MAX_GRID_POINTS - 1)
    else:
        start = draw(st.floats(min_value=0.0, max_value=0.5))
        end = draw(st.floats(min_value=start, max_value=0.5))
        step = draw(st.floats(min_value=max((end - start) / 1000, 1e-300), max_value=1.0))
    pad = st.sampled_from(["", "", "", "", " ", "\t", "\n", "\r\n", "\x0c", "\u2028"])
    return ":".join(draw(pad) + repr(v) + draw(pad) for v in (start, end, step))


workers_values = st.sampled_from(["1", "2"])
bad_workers = st.one_of(
    st.sampled_from(["0", "-1", str(10**30), "2.0", "", "1e1", "0x2"]),
    st.text(max_size=8),
)


@st.composite
def command_lines(draw):
    """(argv without --output, the --format value or None, an --output kind)
    for any of the three subcommands."""
    command = draw(st.sampled_from(["simulate", "analyze", "table"]))
    if command == "simulate":
        # Half the runs are plain, so that the options below often meet a run
        # that succeeds.
        protocol = draw(st.sampled_from(sorted(NATIVE)))
        plain = ["simulate", "--protocol", protocol, f"--rounds={draw(good_rounds)}"]
        argv = plain if draw(st.booleans()) else draw(simulate_argv())
        # --rounds stays at most two chunks, so no --workers value starts a pool.
        if draw(st.booleans()):
            argv.append(f"--workers={mostly(draw, workers_values, bad_workers)}")
    elif command == "analyze":
        argv = ["analyze"]
        if draw(st.integers(min_value=0, max_value=7)):
            argv.append(f"--d-grid={draw(grid_specs())}")
    else:
        argv = ["table"]
        if draw(st.booleans()):
            argv.append(f"--p-segment={mostly(draw, probabilities, bad_floats)}")
    fmt = mostly(draw, st.sampled_from([None, "csv", "json"]), st.text(max_size=6))
    if fmt is not None:
        argv.append(f"--format={fmt}")
    output = mostly(draw, st.sampled_from([None, "file"]), st.sampled_from(["dir", "missing", ""]))
    return argv, fmt, output


DEFAULT_FORMAT = {"simulate": "json", "analyze": "csv", "table": "csv"}
ROW_KEYS = {
    "analyze": ["d", "i_ab", "i_ae", "secret_fraction"],
    "table": ["protocol", "keying", "modes", "attack_shows_in",
              "critical_disturbance", "passes", "transmittance"],
}


def parse_csv(text):
    """(metadata, header, rows) of a CSV document; every line ends in a
    newline, the ``# key=value`` lines come first, and each row has a field
    for each column of the header."""
    assert text.endswith("\n")
    lines = text[:-1].split("\n")
    n_meta = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    assert all(line.startswith("# ") and "=" in line for line in lines[:n_meta])
    meta = dict(line[2:].split("=", 1) for line in lines[:n_meta])
    header, *rows = (line.split(",") for line in lines[n_meta:])
    assert all(len(row) == len(header) for row in rows), text
    return meta, header, rows


def assert_document(command, fmt, text):
    """The document has the shape its command states in ``fmt``."""
    if fmt == "json":
        payload = json.loads(text)
        config, version = payload.pop("config"), payload.pop("version")
        extra = {"critical_disturbance"} if command == "analyze" else set()
        body = payload.pop("stats" if command == "simulate" else "rows")
        assert set(payload) == extra
        rows = [body] if command == "simulate" else body
        header = list(rows[0])
        assert all(list(row) == header for row in rows)
        rows = [[str(row[key]) for key in header] for row in rows]
        meta = {key: str(value) for key, value in config.items()}
    else:
        meta, header, rows = parse_csv(text)
        version = meta.pop("version")
        if command == "analyze":
            float(meta.pop("critical_disturbance"))
    assert version == cli.__version__
    if command == "simulate":
        assert len(rows) == 1
        assert rows[0][header.index("rounds")] == meta["rounds"]
    else:
        assert header == ROW_KEYS[command]
        assert set(meta) == {"d_grid" if command == "analyze" else "p_segment"}
        assert rows
    if command == "table":
        assert [row[0] for row in rows] == ["bb84", "pp", "lm05"]
    if command == "analyze":
        assert all(0.0 <= float(row[0]) <= 0.5 for row in rows)


class TestCommandLineContract:
    @settings(max_examples=300, deadline=None, database=None)
    @given(command_lines())
    def test_any_argv_keeps_the_output_contract(self, case):
        argv, fmt, output = case
        # Hypothesis runs each example in the test body, so the directory is
        # made here rather than taken from a function-scoped fixture.
        with tempfile.TemporaryDirectory() as tmp:
            path = {
                None: None,
                "file": os.path.join(tmp, "out.txt"),
                "dir": tmp,
                "missing": os.path.join(tmp, "missing", "out.txt"),
                "": "",
            }[output]
            if path is not None:
                argv = [*argv, f"--output={path}"]
            code, out, err = run_main(argv)
            event(f"{argv[0]} exit {code}")
            assert code in (0, 2, 3, 4), (code, err)
            assert "Traceback" not in out + err
            if code:
                assert_one_error_line(out, err)
                return
            assert err == ""
            if path is None:
                text = out
            else:
                assert out == ""
                with open(path, encoding="utf-8") as handle:
                    text = handle.read()
        assert_document(argv[0], fmt or DEFAULT_FORMAT[argv[0]], text)


# Text that a template writer could misread: format directives, JSON
# escapes, a line break, a Unicode line separator and non-ASCII letters.
_AWKWARD = ["%", "%s", "%%", "%(x)s", '"', "\\", "\n", "\u2028", "é", "漢字", ""]
awkward_text = st.one_of(
    st.sampled_from(_AWKWARD),
    st.lists(st.sampled_from(_AWKWARD) | st.text(max_size=3), max_size=4).map("".join),
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**200), max_value=2**200),
    st.sampled_from([0.0, -0.0, 5e-324, 1e308, -1e308, math.nan, math.inf, -math.inf]),
    st.floats(),
    awkward_text,
)
flat_objects = st.dictionaries(awkward_text, scalars, max_size=5)


@st.composite
def documents(draw):
    """(config, key, body, extra) in the shape ``cli._emit`` accepts: ``body``
    is one flat object, or a list of flat objects keyed like the first."""
    config = draw(flat_objects)
    extra = draw(st.dictionaries(
        awkward_text.filter(lambda k: k not in ("config", "stats", "rows", "version")),
        scalars, max_size=2))
    if draw(st.booleans()):
        return config, "stats", draw(flat_objects), extra
    keys = draw(st.lists(awkward_text, unique=True, max_size=5))
    count = draw(st.sampled_from([0, 1, 2, 40]) | st.integers(min_value=3, max_value=40))
    rows = [dict(zip(keys, draw(st.lists(scalars, min_size=len(keys), max_size=len(keys)))))
            for _ in range(count)]
    return config, "rows", rows, extra


class TestDocumentBytes:
    """``cli._emit`` prints what ``json.dumps(indent=2)`` and a row-by-row
    CSV writer print, byte for byte (``support.reference_document``).  Blocks
    of 1, 2 or 3 rows make most documents span several blocks."""

    @settings(max_examples=150, deadline=None, database=None)
    @given(documents(), st.sampled_from(["json", "csv"]), st.sampled_from([1, 2, 3]))
    @example(({}, "rows", [], {}), "json", 1)
    @example(({}, "stats", {}, {}), "json", 1)
    @example(({"%s": "%(x)s"}, "rows", [{"d": -0.0, "%": None}], {"c": 5e-324}), "json", 1)
    @example(({}, "rows", [{}, {}, {}], {}), "json", 2)
    def test_emit_matches_the_reference(self, document, fmt, block_rows):
        config, key, body, extra = document
        event(f"{fmt} {key} {'many' if len(body) > 2 else len(body)}")
        expected = reference_document(fmt, config, key, body, **extra)
        with mock.patch.object(cli, "_BLOCK_ROWS", block_rows):
            pieces = cli._emit(fmt, config, key, body, **extra)
        assert_same_text("".join(pieces), expected)

    @PROPERTY
    @given(flat_objects, st.lists(awkward_text, unique=True, min_size=1, max_size=4),
           st.lists(st.sampled_from([None, "%s", "%(x)s", "%", -0.0, math.nan]) | scalars,
                    max_size=40),
           st.sampled_from([1, 2, 3]))
    @example({}, ["a"], [], 1)
    @example({"%(x)s": None}, ["%s", "b"], [None, "%s", "%(x)s", "%"], 1)
    def test_csv_document_never_reads_a_value_as_a_directive(self, meta, header, cells,
                                                              block_rows):
        width = len(header)
        rows = [dict(zip(header, cells[i:i + width]))
                for i in range(0, len(cells) - width + 1, width)]
        with mock.patch.object(cli, "_BLOCK_ROWS", block_rows):
            pieces = cli._csv_document(meta, rows)
        assert_same_text("".join(pieces), reference_csv(meta, rows))
