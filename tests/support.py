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


class ScriptedRows:
    """Stands in for a chunk kernel's numpy generator with predetermined rows.

    Each ``random(n)`` call returns the next scripted row, which must have
    ``n`` entries; asking for more rows than scripted fails, and so does
    :meth:`assert_spent` when the kernel asked for fewer.
    """

    def __init__(self, rows):
        import numpy as np

        self._rows = [np.array(row, dtype=float) for row in rows]
        self._spent = 0

    def random(self, n: int):
        assert self._spent < len(self._rows), "kernel drew more rows than scripted"
        row = self._rows[self._spent]
        assert row.shape == (n,), f"row {self._spent} has {row.size} lanes, kernel asked for {n}"
        self._spent += 1
        return row

    def assert_spent(self) -> None:
        assert self._spent == len(self._rows), (
            f"kernel drew {self._spent} of {len(self._rows)} scripted rows"
        )


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
