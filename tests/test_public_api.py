"""The package's public surface: the names README documents, and the demos
that are, besides README, the only users of the top-level namespace."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import twoway_qkd

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

PUBLIC = {
    "AttackConfig",
    "ChannelConfig",
    "ConfigError",
    "Protocol",
    "RunStats",
    "SimConfig",
    "Strategy",
    "run",
    "bb84_mutual_information",
    "bb84_secret_fraction",
    "binary_entropy",
    "critical_disturbance",
    "disturbance_grid",
    "information_table",
    "protocol_comparison",
    "twoway_mutual_information",
    "twoway_secret_fraction",
    "__version__",
}


class TestNamespace:
    def test_all_is_the_documented_surface(self):
        assert len(twoway_qkd.__all__) == len(PUBLIC)
        assert set(twoway_qkd.__all__) == PUBLIC

    @pytest.mark.parametrize("name", sorted(PUBLIC))
    def test_name_resolves(self, name):
        assert getattr(twoway_qkd, name) is not None

    @pytest.mark.parametrize(
        "name", ["QubitState", "bell_measure", "NguyenAttack", "validate_attack"]
    )
    def test_reference_model_is_not_top_level(self, name):
        assert not hasattr(twoway_qkd, name)


@pytest.mark.skipif(not DEMOS, reason="no demos/ directory next to tests/")
@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}
    result = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout
