import math

import numpy as np
import pytest

from twoway_qkd.quantum import (
    MINUS,
    ONE,
    PLUS,
    ZERO,
    Basis,
    BellOutcome,
    BellSpanError,
    BellState,
    PairState,
    PauliOp,
    QubitState,
    apply_pauli,
    bell_measure,
    half_wave_plate,
    measure,
    measure_photon,
    prepare_bell,
)

R = 1.0 / math.sqrt(2.0)


class TestQubitState:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            QubitState(1.0, 1.0)
        with pytest.raises(ValueError):
            QubitState(0.5, 0.5)

    def test_accepts_phase(self):
        s = QubitState(0.0, -1.0)
        assert s.same_state(ONE)

    def test_inner_products_exact(self):
        assert ZERO.inner(ONE) == 0.0
        assert PLUS.inner(MINUS) == 0.0
        assert ZERO.inner(ZERO) == 1.0
        assert ZERO.inner(PLUS) == R

    def test_same_state_modulo_phase_only(self):
        assert QubitState(-R, R).same_state(MINUS)
        assert not PLUS.same_state(MINUS)
        assert not ZERO.same_state(PLUS)


class TestBasis:
    @pytest.mark.parametrize(
        "basis, expected",
        [(Basis.Z, (ZERO, ONE)), (Basis.X, (PLUS, MINUS))],
    )
    def test_eigenstates(self, basis, expected):
        assert basis.eigenstates == expected
        assert basis.eigenstate(0) is expected[0]
        assert basis.eigenstate(1) is expected[1]


# The Pauli matrices, written out independently of the module's table.
MATRICES = {
    PauliOp.I: np.array([[1, 0], [0, 1]], dtype=complex),
    PauliOp.X: np.array([[0, 1], [1, 0]], dtype=complex),
    PauliOp.Z: np.array([[1, 0], [0, -1]], dtype=complex),
    PauliOp.IY: np.array([[0, 1], [-1, 0]], dtype=complex),
}


class TestPauli:
    @pytest.mark.parametrize("op", list(PauliOp))
    @pytest.mark.parametrize("state", [ZERO, ONE, PLUS, MINUS])
    def test_matches_matrix_action(self, op, state):
        out = apply_pauli(op, state)
        expected = MATRICES[op] @ np.array([state.amp0, state.amp1])
        np.testing.assert_allclose([out.amp0, out.amp1], expected, atol=0)

    def test_flip_is_z_times_x(self):
        np.testing.assert_array_equal(
            MATRICES[PauliOp.IY], MATRICES[PauliOp.Z] @ MATRICES[PauliOp.X]
        )

    def test_flip_action_exact(self):
        # The flip sends each basis state to the orthogonal state of the
        # same basis; signs are kept literally.
        out = apply_pauli(PauliOp.IY, ZERO)
        assert (out.amp0, out.amp1) == (0.0, -1.0)
        out = apply_pauli(PauliOp.IY, ONE)
        assert (out.amp0, out.amp1) == (1.0, 0.0)
        assert apply_pauli(PauliOp.IY, PLUS).same_state(MINUS)
        assert apply_pauli(PauliOp.IY, MINUS).same_state(PLUS)

    def test_flip_squares_to_minus_identity(self):
        twice = apply_pauli(PauliOp.IY, apply_pauli(PauliOp.IY, PLUS))
        assert (twice.amp0, twice.amp1) == (-PLUS.amp0, -PLUS.amp1)


# The largest uniform a generator returns: above the squared amplitudes of
# 1/sqrt(2) that certain outcomes compute, a few ulps short of 1.
TOP = 1.0 - 2.0**-53


class TestMeasure:
    @pytest.mark.parametrize("draw", [0.0, 0.3, 0.999999, TOP])
    def test_eigenstate_is_deterministic(self, draw):
        assert measure(ZERO, Basis.Z, draw) == (0, ZERO)
        assert measure(ONE, Basis.Z, draw) == (1, ONE)
        assert measure(PLUS, Basis.X, draw) == (0, PLUS)
        assert measure(MINUS, Basis.X, draw) == (1, MINUS)

    def test_cross_basis_follows_draw(self):
        bit, post = measure(PLUS, Basis.Z, 0.49)
        assert (bit, post) == (0, ZERO)
        bit, post = measure(PLUS, Basis.Z, 0.51)
        assert (bit, post) == (1, ONE)

    def test_cross_basis_coin_is_exactly_fair(self):
        # (1/sqrt(2))^2 computes as 1/2 - 2**-53; the coin must still split
        # the draw's grid at exactly 1/2.
        below_half = 0.5 - 2.0**-53
        assert R * R == below_half
        assert measure(PLUS, Basis.Z, below_half) == (0, ZERO)
        assert measure(PLUS, Basis.Z, 0.5) == (1, ONE)
        assert bell_measure(PairState((0.0, 1.0, 0.0, 0.0)), below_half) is BellOutcome.SPLIT
        assert measure_photon(prepare_bell(BellState.PSI_MINUS), 2, Basis.Z, below_half)[0] == 0

    def test_phase_does_not_affect_statistics(self):
        minus_one = QubitState(0.0, -1.0)
        assert measure(minus_one, Basis.Z, 0.9999)[0] == 1


class TestPairState:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            PairState((1.0, 0.0, 0.0, 1.0))

    def test_prepare_bell_amplitudes(self):
        minus = prepare_bell(BellState.PSI_MINUS)
        assert minus.amps == (0.0, R, -R, 0.0)
        plus = prepare_bell(BellState.PSI_PLUS)
        assert plus.amps == (0.0, R, R, 0.0)

    def test_half_wave_plate_sign_patterns(self):
        pair = PairState((0.5, 0.5, 0.5, 0.5))
        assert half_wave_plate(pair, 1).amps == (0.5, 0.5, -0.5, -0.5)
        assert half_wave_plate(pair, 2).amps == (0.5, -0.5, 0.5, -0.5)

    def test_half_wave_plate_involution(self):
        pair = prepare_bell(BellState.PSI_MINUS)
        assert half_wave_plate(half_wave_plate(pair, 2), 2).amps == pair.amps

    def test_half_wave_plate_toggles_bell_states(self):
        encoded = half_wave_plate(prepare_bell(BellState.PSI_MINUS), 2)
        # Up to a global sign this is psi+.
        assert abs(encoded.amps[1] + encoded.amps[2]) > 1.0
        assert encoded.amps[1] - encoded.amps[2] == 0.0

    def test_bad_photon_index(self):
        pair = prepare_bell(BellState.PSI_MINUS)
        with pytest.raises(ValueError):
            half_wave_plate(pair, 3)
        with pytest.raises(ValueError):
            measure_photon(pair, 0, Basis.Z, 0.5)


class TestBellMeasure:
    @pytest.mark.parametrize("draw", [0.0, 0.5, 0.999999, TOP])
    def test_discrimination_is_deterministic_and_exact(self, draw):
        minus = prepare_bell(BellState.PSI_MINUS)
        assert bell_measure(minus, draw) is BellOutcome.SPLIT
        assert bell_measure(half_wave_plate(minus, 2), draw) is BellOutcome.BUNCH
        assert bell_measure(half_wave_plate(minus, 1), draw) is BellOutcome.BUNCH
        plus = prepare_bell(BellState.PSI_PLUS)
        assert bell_measure(plus, draw) is BellOutcome.BUNCH
        assert bell_measure(half_wave_plate(plus, 2), draw) is BellOutcome.SPLIT

    def test_superposition_follows_draw(self):
        # |01> carries equal psi- and psi+ weight.
        pair = PairState((0.0, 1.0, 0.0, 0.0))
        assert bell_measure(pair, 0.4) is BellOutcome.SPLIT
        assert bell_measure(pair, 0.6) is BellOutcome.BUNCH

    def test_out_of_span_rejected(self):
        with pytest.raises(BellSpanError):
            bell_measure(PairState((1.0, 0.0, 0.0, 0.0)), 0.5)
        with pytest.raises(BellSpanError):
            bell_measure(PairState((R, R, 0.0, 0.0)), 0.5)


class TestMeasurePhoton:
    @pytest.mark.parametrize("basis", [Basis.Z, Basis.X])
    def test_singlet_anticorrelated_in_both_bases(self, basis):
        pair = prepare_bell(BellState.PSI_MINUS)
        for draw in (0.1, 0.9):
            bit, remainder = measure_photon(pair, 2, basis, draw)
            partner_bit, _ = measure(remainder, basis, 0.5)
            assert partner_bit == 1 - bit

    def test_collapse_amplitudes_exact(self):
        pair = prepare_bell(BellState.PSI_MINUS)
        bit, remainder = measure_photon(pair, 2, Basis.Z, 0.3)
        assert bit == 0
        # Conditional photon-1 state is -|1>, phase kept.
        assert (remainder.amp0, remainder.amp1) == (0.0, -1.0)
        bit, remainder = measure_photon(pair, 2, Basis.Z, 0.7)
        assert bit == 1
        assert (remainder.amp0, remainder.amp1) == (1.0, 0.0)

    def test_photon_one_side(self):
        pair = prepare_bell(BellState.PSI_PLUS)
        bit, remainder = measure_photon(pair, 1, Basis.Z, 0.2)
        assert bit == 0
        assert remainder.same_state(ONE)

    def test_product_state_leaves_partner_alone(self):
        # |+>|0>: measuring photon 2 in Z must not disturb photon 1.
        pair = PairState((R, 0.0, R, 0.0))
        _, remainder = measure_photon(pair, 2, Basis.Z, 0.9)
        assert remainder.same_state(PLUS)

    def test_certain_outcome_at_the_top_of_the_range(self):
        # Photon 2 of |+>|0> reads 0 in Z with probability 1, computed as
        # 2 * (1/sqrt(2))^2, two ulps short of 1.
        pair = PairState((R, 0.0, R, 0.0))
        bit, remainder = measure_photon(pair, 2, Basis.Z, TOP)
        assert bit == 0
        assert remainder.same_state(PLUS)
