"""The package's public surface: the names README documents, and the demos
that are, besides README, the only users of the top-level namespace."""

import ast
import importlib
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


# Module-level names that stay out of the package's namespace, with their homes.
INTERNAL = {"QubitState": "quantum", "bell_measure": "quantum", "measure": "quantum",
            "CHUNK_KERNELS": "harness"}


class TestNamespace:
    def test_all_is_the_documented_surface(self):
        assert len(twoway_qkd.__all__) == len(PUBLIC)
        assert set(twoway_qkd.__all__) == PUBLIC

    @pytest.mark.parametrize("name", sorted(PUBLIC))
    def test_name_resolves(self, name):
        assert getattr(twoway_qkd, name) is not None

    @pytest.mark.parametrize("name", sorted(INTERNAL))
    def test_reference_model_is_not_top_level(self, name):
        # The name exists in its module, so the case fails if it leaves there.
        assert hasattr(importlib.import_module(f"twoway_qkd.{INTERNAL[name]}"), name)
        assert not hasattr(twoway_qkd, name)


# Where each public name is defined; the package imports it from there lazily.
HOME = {
    **dict.fromkeys(
        ["bb84_mutual_information", "bb84_secret_fraction", "binary_entropy",
         "critical_disturbance", "disturbance_grid", "information_table",
         "protocol_comparison", "twoway_mutual_information", "twoway_secret_fraction"],
        "analysis",
    ),
    "AttackConfig": "adversaries",
    **dict.fromkeys(["ChannelConfig", "ConfigError", "Protocol", "Strategy"], "channel"),
    **dict.fromkeys(["RunStats", "SimConfig", "run"], "harness"),
}


class TestLazyNamespace:
    @pytest.mark.parametrize("name", sorted(PUBLIC - {"__version__"}))
    def test_name_is_its_home_modules_object(self, name):
        module = importlib.import_module(f"twoway_qkd.{HOME[name]}")
        assert getattr(twoway_qkd, name) is getattr(module, name)

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from twoway_qkd import *", namespace)
        assert set(namespace) - {"__builtins__"} == PUBLIC

    def test_dir_lists_every_name_before_any_is_loaded(self):
        result = subprocess.run(
            [sys.executable, "-c", "import twoway_qkd; print(dir(twoway_qkd))"],
            capture_output=True, text=True, env=src_env(), timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert PUBLIC <= set(ast.literal_eval(result.stdout))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            twoway_qkd.no_such_name


def src_env() -> dict[str, str]:
    """The environment with this checkout's ``src`` first on ``PYTHONPATH``."""
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}


@pytest.mark.skipif(not DEMOS, reason="no demos/ directory next to tests/")
@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    result = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=src_env(),
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout
