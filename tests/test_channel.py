import pytest

from twoway_qkd.channel import ChannelConfig, ConfigError, Protocol


class TestProtocol:
    def test_passes(self):
        assert Protocol.BB84.passes == 1
        assert Protocol.LM05.passes == 2
        assert Protocol.PP.passes == 4

    def test_deterministic_flags(self):
        assert not Protocol.BB84.deterministic
        assert Protocol.PP.deterministic
        assert Protocol.LM05.deterministic

    def test_values_are_cli_names(self):
        assert {p.value for p in Protocol} == {"bb84", "pp", "lm05"}


class TestChannelConfig:
    def test_defaults_are_lossless(self):
        config = ChannelConfig()
        for protocol in Protocol:
            assert config.transmittance(protocol) == 1.0

    def test_transmittance_compounds_per_pass(self):
        config = ChannelConfig(p_segment=0.9)
        assert config.transmittance(Protocol.BB84) == 0.9
        assert config.transmittance(Protocol.LM05) == 0.9**2
        assert config.transmittance(Protocol.PP) == 0.9**4

    def test_detector_efficiency_folds_into_each_pass(self):
        config = ChannelConfig(p_segment=0.9, detector_efficiency=0.8)
        assert config.transmittance(Protocol.LM05) == (0.9 * 0.8) ** 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"p_segment": 0.0},
            {"p_segment": -0.1},
            {"p_segment": 1.2},
            {"detector_efficiency": 0.0},
            {"detector_efficiency": 1.5},
            {"dark_count_prob": -0.01},
            {"dark_count_prob": 1.0},
        ],
    )
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ConfigError):
            ChannelConfig(**kwargs)

    @pytest.mark.parametrize("field", ["p_segment", "detector_efficiency", "dark_count_prob"])
    def test_fields_cannot_be_assigned_or_deleted(self, field):
        config = ChannelConfig(p_segment=0.9)
        with pytest.raises(AttributeError):
            setattr(config, field, 0.5)
        with pytest.raises(AttributeError):
            delattr(config, field)
        assert config == ChannelConfig(p_segment=0.9)

    def test_equal_values_compare_and_hash_equal(self):
        a = ChannelConfig(0.9, 0.8, 1e-3)
        b = ChannelConfig(p_segment=0.9, detector_efficiency=0.8, dark_count_prob=1e-3)
        assert a == b and hash(a) == hash(b)
        assert len({a, b, ChannelConfig()}) == 2
        assert a != ChannelConfig(0.9, 0.8, 2e-3)
        assert a != (0.9, 0.8, 1e-3)

    def test_repr_lists_the_fields(self):
        assert repr(ChannelConfig(p_segment=0.5)) == (
            "ChannelConfig(p_segment=0.5, detector_efficiency=1.0, dark_count_prob=0.0)"
        )
