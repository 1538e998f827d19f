from decimal import Decimal

import numpy as np
import pytest

import oracles
from twoway_qkd.analysis import (
    MAX_GRID_POINTS,
    bb84_mutual_information,
    bb84_secret_fraction,
    binary_entropy,
    critical_disturbance,
    disturbance_grid,
    information_table,
    protocol_comparison,
    twoway_mutual_information,
    twoway_secret_fraction,
)
from twoway_qkd.channel import ConfigError


class TestBinaryEntropy:
    def test_endpoints_and_peak(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == 1.0

    def test_symmetry(self):
        for x in (0.05, 0.11, 0.3, 0.49):
            assert binary_entropy(x) == pytest.approx(binary_entropy(1 - x), abs=1e-15)

    def test_known_value(self):
        # h(0.11), the entropy at the crossing disturbance, to full precision.
        assert binary_entropy(0.11) == pytest.approx(0.499915958164528, abs=1e-14)

    @pytest.mark.parametrize("x", [-0.01, 1.01, 2.0])
    def test_domain(self, x):
        with pytest.raises(ValueError):
            binary_entropy(x)


class TestBb84Curves:
    def test_no_disturbance_endpoint(self):
        assert bb84_mutual_information(0.0) == (1.0, 0.0)
        assert bb84_secret_fraction(0.0) == 1.0

    def test_curves_sum_to_one(self):
        for d in np.linspace(0.0, 0.5, 11):
            i_ab, i_ae = bb84_mutual_information(float(d))
            assert i_ab + i_ae == pytest.approx(1.0, abs=1e-12)

    def test_half_disturbance_is_total_loss(self):
        assert bb84_mutual_information(0.5) == (0.0, 1.0)
        assert bb84_secret_fraction(0.5) == -1.0

    def test_secret_fraction_strictly_decreasing(self):
        grid = np.linspace(0.0, 0.5, 51)
        values = [bb84_secret_fraction(float(d)) for d in grid]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_barely_positive_just_under_the_crossing(self):
        r = bb84_secret_fraction(0.11)
        assert 0.0 < r < 1e-3

    @pytest.mark.parametrize("d", [-0.01, 0.51, 1.0])
    def test_domain(self, d):
        with pytest.raises(ValueError):
            bb84_mutual_information(d)


class TestCriticalDisturbance:
    def test_matches_frozen_oracle(self):
        assert critical_disturbance() == pytest.approx(
            oracles.CRITICAL_DISTURBANCE, abs=1e-9
        )

    def test_is_a_sign_change(self):
        d = critical_disturbance()
        assert bb84_secret_fraction(d - 1e-6) > 0.0
        assert bb84_secret_fraction(d + 1e-6) < 0.0


class TestTwoWayInformation:
    def test_receiver_information_is_flat(self):
        for q in np.linspace(0.0, 1.0, 21):
            i_ab, i_ae = twoway_mutual_information(float(q))
            assert i_ab == 1.0
            assert i_ae == float(q)

    def test_secret_fraction_is_one_minus_q(self):
        for q in np.linspace(0.0, 1.0, 21):
            assert twoway_secret_fraction(float(q)) == 1.0 - float(q)

    @pytest.mark.parametrize("q", [-0.1, 1.5])
    def test_domain(self, q):
        with pytest.raises(ValueError):
            twoway_mutual_information(q)


class TestDisturbanceGrid:
    def test_standard_sweep(self):
        grid = disturbance_grid(0.0, 0.5, 0.01)
        assert len(grid) == 51
        assert grid[0] == 0.0
        assert grid[-1] == 0.5
        assert np.allclose(np.diff(grid), 0.01)

    def test_endpoint_snapped_exactly(self):
        # 50 * 0.01 overshoots 0.5 by one ulp without snapping, which
        # would fall outside the curves' domain.
        grid = disturbance_grid(0.0, 0.5, 0.01)
        assert float(grid[-1]) <= 0.5

    def test_start_wins_when_both_ends_are_within_snapping_distance(self):
        # The one point is within 1e-9 of both ends; it must stay the start.
        grid = disturbance_grid(0.0, 1e-37, 1.0)
        assert list(grid) == [0.0]

    @pytest.mark.parametrize(
        "start, end, step, points",
        [(0.0, 5e-10, 1e-10, 6), (0.1, 0.1 + 3e-9, 1e-9, 4)],
    )
    def test_steps_below_snapping_distance_keep_distinct_points(
        self, start, end, step, points
    ):
        # Steps at or below the 1e-9 snapping distance: only the last point
        # may snap, so no two points coincide.
        grid = disturbance_grid(start, end, step)
        assert len(grid) == points
        assert grid[0] == start and grid[-1] == end
        assert np.all(np.diff(grid) > 0.0)
        assert np.allclose(np.diff(grid), step, rtol=1e-6, atol=0.0)

    def test_large_step_never_passes_the_end(self):
        # 100 lands 1e-8 past END, too far to snap, so it is not a point.
        assert disturbance_grid(0.0, 99.99999999, 100.0) == [0.0]

    def test_non_divisible_span_stops_short(self):
        grid = disturbance_grid(0.0, 0.5, 0.15)
        assert np.allclose(grid, [0.0, 0.15, 0.3, 0.45])

    def test_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            disturbance_grid(0.0, 0.5, 0.0)
        with pytest.raises(ValueError):
            disturbance_grid(0.0, 0.5, -0.1)
        with pytest.raises(ValueError):
            disturbance_grid(0.4, 0.1, 0.1)

    @pytest.mark.parametrize(
        "start, end, step",
        [
            (0.0, float("inf"), 0.1),
            (float("-inf"), 0.5, 0.1),
            (0.0, 0.5, float("inf")),
            (0.0, float("nan"), 0.1),
            (float("nan"), 0.5, 0.1),
            (0.0, 0.5, float("nan")),
        ],
    )
    def test_rejects_non_finite_values(self, start, end, step):
        with pytest.raises(ValueError, match="finite"):
            disturbance_grid(start, end, step)

    def test_point_count_is_capped(self):
        # README's cap, written out, so that a moved MAX_GRID_POINTS fails here.
        assert len(disturbance_grid(0.0, 999_999.0, 1.0)) == MAX_GRID_POINTS == 1_000_000
        with pytest.raises(ValueError, match="more than 1000000 points"):
            disturbance_grid(0.0, 1_000_000.0, 1.0)
        # Finite bounds whose span overflows to inf are rejected too.
        with pytest.raises(ValueError, match="points"):
            disturbance_grid(-1e308, 1e308, 1.0)


class TestInformationTable:
    def test_rows_match_the_curves(self):
        grid = disturbance_grid(0.0, 0.5, 0.1)
        rows = information_table(grid)
        assert [row["d"] for row in rows] == [float(d) for d in grid]
        for row in rows:
            i_ab, i_ae = bb84_mutual_information(row["d"])
            assert row["i_ab"] == i_ab
            assert row["i_ae"] == i_ae
            assert row["secret_fraction"] == i_ab - i_ae

    def test_domain_errors_propagate(self):
        with pytest.raises(ValueError):
            information_table(disturbance_grid(0.0, 0.6, 0.1))


class TestProtocolComparison:
    def test_rows(self):
        rows = protocol_comparison(0.9)
        by_name = {row["protocol"]: row for row in rows}
        assert list(by_name) == ["bb84", "pp", "lm05"]

        assert by_name["bb84"]["keying"] == "probabilistic"
        assert by_name["bb84"]["modes"] == "mm"
        assert by_name["bb84"]["attack_shows_in"] == "mm"
        assert by_name["bb84"]["critical_disturbance"] == pytest.approx(
            oracles.CRITICAL_DISTURBANCE, abs=1e-9
        )
        assert by_name["bb84"]["transmittance"] == 0.9

        for name, passes in (("pp", 4), ("lm05", 2)):
            row = by_name[name]
            assert row["keying"] == "deterministic"
            assert row["modes"] == "mm+cm"
            assert row["attack_shows_in"] == "cm"
            assert row["critical_disturbance"] is None
            assert row["passes"] == passes
            assert row["transmittance"] == 0.9**passes

    def test_p_segment_validation(self):
        with pytest.raises(ValueError):
            protocol_comparison(0.0)
        with pytest.raises(ValueError):
            protocol_comparison(1.1)
        with pytest.raises(ConfigError, match=r"p_segment must be in \(0, 1\]"):
            protocol_comparison(float("nan"))


@pytest.mark.parametrize(
    "reject",
    [
        lambda: binary_entropy(1.5),
        lambda: bb84_mutual_information(0.6),
        lambda: twoway_mutual_information(2.0),
        lambda: disturbance_grid(0.0, float("nan"), 0.1),
        lambda: disturbance_grid(0.0, 0.5, 0.0),
        lambda: disturbance_grid(0.4, 0.1, 0.1),
        lambda: disturbance_grid(0.0, float(MAX_GRID_POINTS), 1.0),
        # too long to print in the message: past sys.get_int_max_str_digits()
        lambda: binary_entropy(10**5000),
        lambda: bb84_mutual_information(-(10**5000)),
        # ints past the float range, one printable and one too long to print
        lambda: disturbance_grid(0, 10**400, 1),
        lambda: disturbance_grid(0, 10**5000, 1),
        # not real numbers
        lambda: binary_entropy("0.1"),
        lambda: bb84_mutual_information(None),
        lambda: bb84_secret_fraction(0j),
        lambda: twoway_mutual_information(Decimal("0.1")),
        lambda: information_table([0.1, None]),
        lambda: disturbance_grid(0.0, 0.5, "0.1"),
    ],
    ids=["entropy", "bb84", "twoway", "non-finite", "zero-step", "end-before-start", "too-many",
         "entropy-huge", "bb84-huge", "grid-huge", "grid-unprintable", "entropy-non-real",
         "bb84-non-real", "secret-fraction-non-real", "twoway-non-real", "table-non-real",
         "grid-non-real"],
)
def test_every_rejected_value_raises_config_error(reject):
    # One exception type for every rejected value, still a ValueError, so
    # the CLI maps it to exit 3 without re-labelling it.
    assert issubclass(ConfigError, ValueError)
    with pytest.raises(ConfigError):
        reject()


def test_entropy_against_quadrature():
    """Independent cross-check: h agrees with a direct numpy evaluation."""
    xs = np.linspace(1e-6, 1 - 1e-6, 101)
    ours = np.array([binary_entropy(float(x)) for x in xs])
    ref = -(xs * np.log2(xs) + (1 - xs) * np.log2(1 - xs))
    assert np.allclose(ours, ref, atol=1e-12)


def test_crossing_solves_equal_information():
    d = critical_disturbance()
    i_ab, i_ae = bb84_mutual_information(d)
    assert abs(i_ab - i_ae) < 1e-10
    assert abs(binary_entropy(d) - 0.5) < 1e-10