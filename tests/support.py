"""Small rigs shared by the test modules."""

from __future__ import annotations


class ScriptedRandom:
    """Stands in for random.Random with predetermined draws.

    ``bits`` feeds getrandbits(1) calls, ``uniforms`` feeds random() calls;
    when a queue runs dry the fallback is used, so tests can script only
    the draws they care about.
    """

    def __init__(self, bits=(), uniforms=(), fallback: float = 0.5):
        self._bits = list(bits)
        self._uniforms = list(uniforms)
        self._fallback = fallback

    def getrandbits(self, n: int) -> int:
        assert n == 1, "protocol code only draws single bits"
        if self._bits:
            return self._bits.pop(0)
        return 0

    def random(self) -> float:
        if self._uniforms:
            return self._uniforms.pop(0)
        return self._fallback


def played_chunks(config, play=None):
    """Run ``config`` in-process through ``harness.run`` and return the
    ``(index, n_rounds, tally)`` of every chunk in the order played, and the
    run's statistics.  ``play`` stands in for the chunk kernel if given."""
    import pytest

    from twoway_qkd import harness

    real = play or harness._run_chunk
    played = []

    def spy(config, index, n_rounds):
        tally = real(config, index, n_rounds)
        played.append((index, n_rounds, tally))
        return tally

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "_run_chunk", spy)
        stats = harness.run(config)
    return played, stats
