import json
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from twoway_qkd import __version__
from twoway_qkd.cli import main
from twoway_qkd.harness import CHUNK_ROUNDS, POOL_MIN_CHUNKS

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimulateJson:
    def test_payload_shape(self, capsys):
        code, out, err = run_cli(
            capsys,
            "simulate",
            "--protocol", "pp",
            "--attack", "nguyen",
            "--q", "1.0",
            "--rounds", "2048",
            "--seed", "7",
        )
        assert code == 0
        assert err == ""
        payload = json.loads(out)
        assert set(payload) == {"config", "stats", "version"}
        assert payload["version"] == __version__
        assert payload["config"]["protocol"] == "pp"
        assert payload["config"]["attack"] == "nguyen"
        assert payload["config"]["rounds"] == 2048
        stats = payload["stats"]
        assert stats["rounds"] == 2048
        assert stats["d_mm"] == 0.0
        assert stats["eve_known_fraction"] == 1.0

    def test_byte_identical_reruns(self, capsys):
        argv = (
            "simulate", "--protocol", "lm05", "--attack", "lucamarini",
            "--q", "0.4", "--rounds", "4096", "--seed", "11",
            "--cm-prob", "0.2", "--p-segment", "0.9",
        )
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_workers_flag_does_not_change_output(self, capsys):
        argv = (
            "simulate", "--protocol", "bb84", "--attack", "intercept-resend",
            "--q", "0.5", "--rounds", "8192", "--seed", "3",
        )
        _, sequential, _ = run_cli(capsys, *argv, "--workers", "1")
        _, parallel, _ = run_cli(capsys, *argv, "--workers", "2")
        assert sequential == parallel


class TestSimulateCsv:
    def test_metadata_header_and_row(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate",
            "--protocol", "bb84",
            "--rounds", "1024",
            "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        meta = [line for line in lines if line.startswith("# ")]
        body = [line for line in lines if not line.startswith("# ")]
        assert "# protocol=bb84" in meta
        assert "# rounds=1024" in meta
        assert f"# version={__version__}" in meta
        assert len(body) == 2
        header = body[0].split(",")
        values = body[1].split(",")
        assert len(header) == len(values)
        row = dict(zip(header, values))
        assert row["rounds"] == "1024"
        assert float(row["d_mm"]) == 0.0

    def test_csv_and_json_agree(self, capsys):
        argv = (
            "simulate", "--protocol", "pp", "--attack", "nguyen",
            "--rounds", "1024", "--seed", "5",
        )
        _, json_out, _ = run_cli(capsys, *argv, "--format", "json")
        _, csv_out, _ = run_cli(capsys, *argv, "--format", "csv")
        stats = json.loads(json_out)["stats"]
        body = [line for line in csv_out.splitlines() if not line.startswith("# ")]
        row = dict(zip(body[0].split(","), body[1].split(",")))
        assert int(row["raw_key"]) == stats["raw_key"]
        assert float(row["eve_known_fraction"]) == stats["eve_known_fraction"]


class TestOutputFile:
    def test_writes_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, out, _ = run_cli(
            capsys,
            "simulate",
            "--protocol", "lm05",
            "--rounds", "512",
            "--output", str(target),
        )
        assert code == 0
        assert out == ""
        payload = json.loads(target.read_text())
        assert payload["config"]["protocol"] == "lm05"

    def test_unwritable_path_exits_4(self, capsys, tmp_path):
        target = tmp_path / "missing" / "out.json"
        code, _, err = run_cli(
            capsys,
            "simulate",
            "--protocol", "lm05",
            "--rounds", "16",
            "--output", str(target),
        )
        assert code == 4
        assert "error:" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--protocol", "pp", "--attack", "nguyen", "--rounds", "16"],
            ["analyze", "--d-grid", "0:0.5:0.1"],
            ["table"],
        ],
    )
    def test_closed_stdout_exits_4(self, capsys, monkeypatch, argv):
        # An interpreter started with file descriptor 1 closed has no stdout.
        monkeypatch.setattr(sys, "stdout", None)
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 4
        assert err.startswith("error:")
        assert "Traceback" not in err


class TestConfigRejection:
    def test_foreign_attack_exits_3(self, capsys):
        code, out, err = run_cli(
            capsys,
            "simulate",
            "--protocol", "bb84",
            "--attack", "nguyen",
            "--rounds", "16",
        )
        assert code == 3
        assert out == ""
        assert "not defined against" in err

    def test_bb84_control_mode_exits_3(self, capsys):
        code, _, err = run_cli(
            capsys,
            "simulate",
            "--protocol", "bb84",
            "--rounds", "16",
            "--cm-prob", "0.5",
        )
        assert code == 3
        assert "control mode" in err

    def test_bad_q_exits_3(self, capsys):
        code, _, err = run_cli(
            capsys,
            "simulate",
            "--protocol", "pp",
            "--attack", "nguyen",
            "--q", "1.5",
            "--rounds", "16",
        )
        assert code == 3

    def test_out_of_domain_grid_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--d-grid", "0:0.7:0.1")
        assert code == 3
        assert "error:" in err

    @pytest.mark.parametrize(
        "grid", ["0:inf:0.1", "-inf:0.5:0.1", "0:0.5:nan", "0:0.5:1e-7"]
    )
    def test_unbounded_grid_exits_3(self, capsys, grid):
        code, out, err = run_cli(capsys, "analyze", f"--d-grid={grid}")
        assert code == 3
        assert out == ""
        assert "error:" in err

    def test_bad_table_p_segment_exits_3(self, capsys):
        code, out, err = run_cli(capsys, "table", "--p-segment", "0")
        assert code == 3
        assert out == ""
        assert "p_segment must be in (0, 1]" in err


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate",),  # --protocol and --rounds are required
            ("simulate", "--protocol", "qkd99", "--rounds", "16"),
            ("simulate", "--protocol", "pp", "--rounds", "16", "--format", "xml"),
            ("analyze", "--d-grid", "nonsense"),
            ("analyze", "--d-grid", "0:0.5"),
            ("simulate", "--protocol", "pp", "--rounds", "16", "--workers", "0"),
            ("simulate", "--protocol", "pp", "--rounds", "16", "--workers", "-2"),
            ("simulate", "--protocol", "pp", "--rounds", "16", "--workers", "two"),
            ("bogus",),
        ],
    )
    def test_exit_code_2(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(list(argv))
        assert excinfo.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out


class TestAnalyze:
    def test_csv_sweep(self, capsys):
        code, out, _ = run_cli(capsys, "analyze")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# d_grid=0:0.5:0.01"
        critical = [l for l in lines if l.startswith("# critical_disturbance=")]
        assert len(critical) == 1
        assert float(critical[0].split("=")[1]) == pytest.approx(0.1100, abs=5e-4)
        body = [l for l in lines if not l.startswith("# ")]
        assert body[0] == "d,i_ab,i_ae,secret_fraction"
        assert len(body) == 52  # header + 51 grid rows
        first = body[1].split(",")
        assert [float(x) for x in first] == [0.0, 1.0, 0.0, 1.0]

    def test_json_sweep(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "--d-grid", "0:0.5:0.05", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["config"] == {"d_grid": "0:0.5:0.05"}
        assert len(payload["rows"]) == 11
        signs = [row["secret_fraction"] > 0 for row in payload["rows"]]
        assert signs[0] and not signs[-1]


class TestTable:
    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--p-segment", "0.9")
        assert code == 0
        lines = out.splitlines()
        assert "# p_segment=0.9" in lines
        body = [l for l in lines if not l.startswith("# ")]
        assert body[0].startswith("protocol,keying,modes")
        assert len(body) == 4
        pp_row = next(l for l in body if l.startswith("pp,"))
        assert "indeterminable" in pp_row
        assert pp_row.endswith(str(0.9**4))

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--format", "json")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [row["protocol"] for row in rows] == ["bb84", "pp", "lm05"]
        assert rows[1]["critical_disturbance"] is None
        assert rows[0]["critical_disturbance"] == pytest.approx(0.11, abs=1e-3)


class TestEntrypoints:
    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "twoway_qkd", "simulate",
             "--protocol", "pp", "--rounds", "256", "--seed", "1"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["stats"]["rounds"] == 256

    @pytest.mark.parametrize(
        "argv",
        [
            # 4096 rounds are one chunk, so --workers 2 is capped to one.
            ["--rounds", "4096", "--cm-prob", "0.25", "--workers", "2"],
            ["--rounds", "10000", "--cm-prob", "0.25", "--workers", "1"],
            # 13 chunks are too few to pay for a pool.
            ["--rounds", "200000", "--cm-prob", "0.25", "--workers", "2"],
        ],
    )
    def test_serial_run_imports_no_process_pool(self, argv):
        script = textwrap.dedent(f"""
            import os, sys
            os.cpu_count = lambda: 2
            from twoway_qkd.cli import main
            code = main(["simulate", "--protocol", "pp", "--attack", "nguyen", *{argv!r}])
            pool = [name for name in sys.modules
                    if name.startswith("multiprocessing")
                    or name == "concurrent.futures.process"]
            print(code, pool, file=sys.stderr)
        """)
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True
        )
        assert result.stderr.strip() == "0 []"
        assert json.loads(result.stdout)["stats"]["mm_errors"] == 0

    @pytest.mark.skipif(
        not PYPROJECT.is_file(), reason=f"{PYPROJECT} not found"
    )
    def test_console_script(self):
        """Run the ``[project.scripts]`` target as pip's wrapper would."""
        if sys.version_info >= (3, 11):
            import tomllib
        else:
            tomllib = pytest.importorskip("tomli")
        with PYPROJECT.open("rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["twoway-qkd"]
        module, _, function = target.partition(":")
        wrapper = (
            "import sys; sys.argv[0] = 'twoway-qkd'; "
            f"from {module} import {function}; sys.exit({function}())"
        )
        result = subprocess.run(
            [sys.executable, "-c", wrapper, "--version"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert __version__ in result.stdout

    @pytest.mark.skipif(
        shutil.which("twoway-qkd") is None,
        reason="twoway-qkd is not on PATH; run pip install -e . first",
    )
    def test_installed_console_script(self):
        result = subprocess.run(
            ["twoway-qkd", "--version"], capture_output=True, text=True
        )
        assert result.returncode == 0
        assert __version__ in result.stdout


# Loaded by ``simulate`` only: the engine and everything it imports.
ENGINE = ("twoway_qkd.adversaries", "twoway_qkd.harness")
# The reference model, loaded by no subcommand.
REFERENCE = ("twoway_qkd.protocols", "twoway_qkd.quantum")


def run_fresh(script: str) -> subprocess.CompletedProcess:
    """Run ``script`` in a new interpreter, so ``sys.modules`` starts empty."""
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)], capture_output=True, text=True
    )


class TestImportFloor:
    @pytest.mark.parametrize(
        "statement",
        [
            "import twoway_qkd",
            "import twoway_qkd.cli",
            "from twoway_qkd.cli import main; main(['--version'])",
            "from twoway_qkd.cli import main; main(['table'])",
            "from twoway_qkd.cli import main; main(['analyze', '--d-grid', '0:0.5:0.1'])",
        ],
    )
    def test_only_simulate_loads_the_engine(self, statement):
        result = run_fresh(f"""
            import sys
            try:
                {statement}
            except SystemExit as exc:  # --version exits through argparse
                assert exc.code == 0, exc.code
            print(sorted(set({ENGINE + REFERENCE!r}) & set(sys.modules)), file=sys.stderr)
        """)
        assert result.returncode == 0, result.stderr
        assert result.stderr.strip() == "[]"

    def test_attack_config_loads_no_quantum_or_numpy(self):
        result = run_fresh("""
            import sys
            import twoway_qkd.adversaries
            print(sorted({"numpy", "twoway_qkd.quantum"} & set(sys.modules)),
                  file=sys.stderr)
        """)
        assert result.returncode == 0, result.stderr
        assert result.stderr.strip() == "[]"

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_simulate_loads_no_numpy(self, workers):
        # Nor the reference model.  With two CPUs and a pool from two chunks,
        # --workers 2 plays its chunks in a real pool; its workers are asked
        # too, after the run.
        unloaded = ("numpy", *REFERENCE)
        ask = f"[name for name in {unloaded!r} if name in __import__('sys').modules]"
        result = run_fresh(f"""
            import concurrent.futures, os, sys
            os.cpu_count = lambda: 2
            from twoway_qkd import harness
            from twoway_qkd.cli import main

            asked = []

            class AskingPool(concurrent.futures.ProcessPoolExecutor):
                def map(self, fn, *iterables):
                    tallies = list(super().map(fn, *iterables))
                    asked.extend(super().map(eval, [{ask!r}] * 4))
                    return tallies

            concurrent.futures.ProcessPoolExecutor = AskingPool
            harness.POOL_MIN_CHUNKS = 1
            code = main(["simulate", "--protocol", "lm05", "--attack", "lucamarini",
                         "--cm-prob", "0.25", "--rounds", "40000", "--workers", "{workers}"])
            loaded = [name for name in {unloaded!r} if name in sys.modules]
            print(code, loaded + sum(asked, []), bool(asked), file=sys.stderr)
        """)
        assert result.returncode == 0, result.stderr
        assert result.stderr.strip() == f"0 [] {workers == '2'}"

    def test_pool_starts_after_the_engine_loads(self):
        # The parent imports the engine before the pool forks, so workers
        # share its modules instead of each importing them, and neither numpy
        # nor the reference model is among them.  The run is the smallest
        # that pools, since lowering the threshold here would mean importing
        # the engine first.
        rounds = 2 * POOL_MIN_CHUNKS * CHUNK_ROUNDS
        result = run_fresh(f"""
            import concurrent.futures, os, sys
            from twoway_qkd.cli import main

            class StandInPool:
                def __init__(self, max_workers):
                    seen = ("numpy", "twoway_qkd.harness", *{REFERENCE!r})
                    loaded = [name for name in seen if name in sys.modules]
                    print(max_workers, loaded, file=sys.stderr)

                def __enter__(self):
                    return self

                def __exit__(self, *exc_info):
                    pass

                def map(self, fn, *iterables):
                    return map(fn, *iterables)

            concurrent.futures.ProcessPoolExecutor = StandInPool
            os.cpu_count = lambda: 2
            sys.exit(main(["simulate", "--protocol", "pp", "--attack", "nguyen",
                           "--rounds", "{rounds}", "--workers", "2"]))
        """)
        assert result.returncode == 0, result.stderr
        assert result.stderr.strip() == "2 ['twoway_qkd.harness']"
        assert json.loads(result.stdout)["stats"]["rounds"] == rounds


class TestReproducibility:
    def test_output_is_byte_identical_across_workers_and_hash_seeds(self):
        # Three CPUs and a pool from two chunks, so --workers 2 and 3 each
        # start a real pool of that many processes on the run's four chunks.
        script = textwrap.dedent("""
            import concurrent.futures, os, sys
            os.cpu_count = lambda: 3
            from twoway_qkd import harness
            from twoway_qkd.cli import main

            class Pool(concurrent.futures.ProcessPoolExecutor):
                def __init__(self, max_workers):
                    print("pool", max_workers, file=sys.stderr)
                    super().__init__(max_workers)

            concurrent.futures.ProcessPoolExecutor = Pool
            harness.POOL_MIN_CHUNKS = 1
            sys.exit(main(sys.argv[1:]))
        """)
        argv = ["simulate", "--protocol", "lm05", "--attack", "lucamarini", "--q", "0.6",
                "--cm-prob", "0.3", "--p-segment", "0.9", "--dark-count-prob", "0.01",
                "--rounds", "50000", "--seed", "17"]
        outputs = set()
        for hash_seed in ("0", "1"):
            for workers in ("1", "2", "3"):
                env = {**os.environ, "PYTHONHASHSEED": hash_seed}
                result = subprocess.run(
                    [sys.executable, "-c", script, *argv, "--workers", workers],
                    env=env, capture_output=True, text=True,
                )
                assert result.returncode == 0, result.stderr
                assert result.stderr == ("" if workers == "1" else f"pool {workers}\n")
                outputs.add(result.stdout)
        assert len(outputs) == 1
        assert json.loads(outputs.pop())["stats"]["rounds"] == 50000
