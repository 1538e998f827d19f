import random
from itertools import product

import pytest

from support import ScriptedRandom
from twoway_qkd import protocols
from twoway_qkd.adversaries import AttackConfig, Strategy
from twoway_qkd.channel import ConfigError, Protocol
from twoway_qkd.harness import SimConfig
from twoway_qkd.quantum import (
    Basis,
    BellState,
    PauliOp,
    apply_pauli,
    half_wave_plate,
    prepare_bell,
)

_ALLOWED = {
    Protocol.BB84: Strategy.INTERCEPT_RESEND,
    Protocol.PP: Strategy.NGUYEN,
    Protocol.LM05: Strategy.LUCAMARINI,
}


class TestAttackConfig:
    def test_defaults(self):
        config = AttackConfig()
        assert config.strategy is Strategy.NONE
        assert config.q == 1.0

    @pytest.mark.parametrize("q", [-0.1, 1.1, 2.0])
    def test_rejects_bad_q(self, q):
        with pytest.raises(ConfigError):
            AttackConfig(strategy=Strategy.NGUYEN, q=q)

    @pytest.mark.parametrize("strategy", ["nguyen", None, Protocol.PP])
    def test_rejects_a_strategy_of_the_wrong_type(self, strategy):
        with pytest.raises(ConfigError, match="strategy must be of type Strategy"):
            AttackConfig(strategy=strategy, q=0.5)

    @pytest.mark.parametrize("field", ["strategy", "q"])
    def test_fields_cannot_be_assigned_or_deleted(self, field):
        config = AttackConfig(strategy=Strategy.NGUYEN, q=0.5)
        with pytest.raises(AttributeError):
            setattr(config, field, 0.25)
        with pytest.raises(AttributeError):
            delattr(config, field)
        assert config == AttackConfig(Strategy.NGUYEN, 0.5)

    def test_equal_values_compare_and_hash_equal(self):
        a = AttackConfig(Strategy.LUCAMARINI, 0.25)
        b = AttackConfig(strategy=Strategy.LUCAMARINI, q=0.25)
        assert a == b and hash(a) == hash(b)
        assert len({a, b, AttackConfig()}) == 2
        assert a != AttackConfig(Strategy.LUCAMARINI, 0.5)
        assert a != AttackConfig(Strategy.NGUYEN, 0.25)


class TestCompatibility:
    """``SimConfig`` alone decides which attack a run may pair with its protocol."""

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_none_and_native_attack_allowed(self, protocol):
        for strategy in (Strategy.NONE, _ALLOWED[protocol]):
            config = SimConfig(protocol, 100, attack=AttackConfig(strategy=strategy))
            assert config.attack.strategy is strategy

    @pytest.mark.parametrize(
        "protocol, strategy",
        [
            (protocol, strategy)
            for protocol, strategy in product(Protocol, Strategy)
            if strategy not in (Strategy.NONE, _ALLOWED[protocol])
        ],
    )
    def test_foreign_attack_rejected(self, protocol, strategy):
        with pytest.raises(ConfigError) as excinfo:
            SimConfig(protocol, 100, attack=AttackConfig(strategy=strategy))
        assert str(excinfo.value) == (
            f"attack {strategy.value!r} is not defined against protocol {protocol.value!r}"
        )


def calls(monkeypatch, name):
    """Record the arguments of every call the round bodies make to the
    quantum primitive ``protocols.<name>``, in order."""
    real = getattr(protocols, name)
    seen = []

    def spy(*args):
        seen.append(args)
        return real(*args)

    monkeypatch.setattr(protocols, name, spy)
    return seen


# A round body is called as body(rng, cm, dark, eve); these play message-mode
# rounds that Eve attacks, so each returns (error, eve_correct) or None.


class TestInterceptResend:
    def test_matched_basis_reads_and_resends_faithfully(self, monkeypatch):
        measured = calls(monkeypatch, "measure")
        # Alice sends Z|1>; Eve and Bob both measure in Z.
        rng = ScriptedRandom(bits=[1, 0, 0, 0], uniforms=[0.0, 0.999])
        assert protocols._bb84(rng, False, False, True) == (False, True)
        (_, eve_basis, _), (resent, _, _) = measured
        assert eve_basis is Basis.Z
        assert resent is Basis.Z.eigenstate(1)

    def test_crossed_basis_resends_her_eigenstate(self, monkeypatch):
        measured = calls(monkeypatch, "measure")
        # Alice sends Z|0>; Eve measures in X and reads 1; Bob measures in Z.
        rng = ScriptedRandom(bits=[0, 0, 1, 0], uniforms=[0.9, 0.25])
        error, eve_correct = protocols._bb84(rng, False, False, True)
        assert not eve_correct
        (_, eve_basis, _), (resent, _, _) = measured
        assert eve_basis is Basis.X
        assert resent is Basis.X.eigenstate(1)
        assert not error  # Bob reads |-> in Z as 0 at a draw below 1/2

    def test_statistics_against_rng(self):
        rng = random.Random(404)
        played = (protocols._bb84(rng, False, False, True) for _ in range(8000))
        sifted = [result for result in played if result is not None]
        n = len(sifted)
        hits = sum(eve_correct for _, eve_correct in sifted)
        # Correct with probability 3/4 on the rounds Bob's basis sifting keeps.
        assert abs(hits / n - 0.75) < 3 * (0.75 * 0.25 / n) ** 0.5


def _encoded_psi_minus(encode):
    pair = prepare_bell(BellState.PSI_MINUS)
    return half_wave_plate(pair, 2) if encode else pair


class TestNguyenAttack:
    @pytest.mark.parametrize("encode", [0, 1])
    @pytest.mark.parametrize("draw", [0.0, 0.37, 0.999])
    def test_reads_encoding_deterministically(self, monkeypatch, encode, draw):
        analyzed = calls(monkeypatch, "bell_measure")
        rng = ScriptedRandom(bits=[encode], uniforms=[draw, draw])
        assert protocols._pp(rng, False, False, True) == (False, True)
        # Eve analyzed a fresh psi- probe that carries Alice's encoding.
        (probe, _), _ = analyzed
        assert probe.amps == _encoded_psi_minus(encode).amps

    @pytest.mark.parametrize("encode", [0, 1])
    def test_replay_reproduces_legitimate_channel(self, monkeypatch, encode):
        analyzed = calls(monkeypatch, "bell_measure")
        protocols._pp(ScriptedRandom(bits=[encode]), False, False, True)
        _, (replayed, _) = analyzed
        assert replayed.amps == _encoded_psi_minus(encode).amps


class TestLucamariniAttack:
    @pytest.mark.parametrize("prep_basis", list(Basis))
    @pytest.mark.parametrize("prep_bit", [0, 1])
    @pytest.mark.parametrize("decoy_basis_bit", [0, 1])
    @pytest.mark.parametrize("decoy_bit", [0, 1])
    @pytest.mark.parametrize("encode", [0, 1])
    def test_exhaustive_transparency(
        self, monkeypatch, prep_basis, prep_bit, decoy_basis_bit, decoy_bit, encode
    ):
        """All 32 combinations: Eve reads the encoding exactly and her
        replay is indistinguishable from the unattacked channel."""
        measured = calls(monkeypatch, "measure")
        prep_basis_bit = 0 if prep_basis is Basis.Z else 1
        rng = ScriptedRandom(
            bits=[prep_bit, prep_basis_bit, decoy_bit, decoy_basis_bit, encode]
        )
        assert protocols._lm05(rng, False, False, True) == (False, True)
        (decoy, decoy_basis, _), (replayed, bob_basis, _) = measured

        expected_basis = Basis.Z if decoy_basis_bit == 0 else Basis.X
        assert decoy_basis is expected_basis
        sent = expected_basis.eigenstate(decoy_bit)
        assert decoy.same_state(apply_pauli(PauliOp.IY, sent) if encode else sent)

        state = prep_basis.eigenstate(prep_bit)
        legit = apply_pauli(PauliOp.IY, state) if encode else state
        assert replayed.same_state(legit)
        # The receiver measures in the preparation basis: identical outcome.
        assert bob_basis is prep_basis
        assert replayed.same_state(prep_basis.eigenstate(prep_bit ^ encode))
