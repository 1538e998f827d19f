import argparse
import contextlib
import io
import json
import os
import platform
import shlex
import shutil
import subprocess
import sys
import textwrap
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from support import assert_same_text, reference_document
from test_golden import GOLDEN, PROMPT, digest
from twoway_qkd import __version__, cli
from twoway_qkd.analysis import (
    INFORMATION_COLUMNS,
    critical_disturbance,
    disturbance_grid,
    grid_blocks,
    information_rows,
    information_table,
    protocol_comparison,
)
from twoway_qkd.cli import _BLOCK_ROWS, _emit, build_parser, main
from twoway_qkd.harness import CHUNK_ROUNDS, POOL_MIN_CHUNKS

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
README = PYPROJECT.with_name("README.md")
# A process's resident peak, as the kernel reports it, under glibc's heap.
READS_VMHWM = (sys.platform.startswith("linux") and platform.libc_ver()[0] == "glibc"
               and os.access("/proc/self/status", os.R_OK))


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

    @pytest.mark.parametrize(
        "argv, stderr_too",
        [
            # Small enough to sit in stdout's buffer until main flushes it.
            (["simulate", "--protocol", "pp", "--rounds", "100", "--format", "csv"], False),
            # Large enough to fail while written, and the error line fails too.
            (["analyze", "--d-grid", "0:0.5:0.0001", "--format", "csv"], True),
        ],
        ids=["stdout", "stdout-and-stderr"],
    )
    def test_closed_pipe_exits_4_when_stdout_is_buffered(self, argv, stderr_too):
        # Both ends of a pipe whose reader has gone: every write to it fails.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        read, write = os.pipe()
        os.close(read)
        try:
            result = subprocess.run([sys.executable, "-m", "twoway_qkd", *argv], env=env,
                                    stdout=write, stderr=write if stderr_too else subprocess.PIPE)
        finally:
            os.close(write)
        assert result.returncode == 4
        if not stderr_too:
            assert result.stderr.decode().splitlines() == ["error: [Errno 32] Broken pipe"]


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

    @pytest.mark.parametrize("to_file", [False, True])
    def test_every_grid_point_is_checked_before_the_first_byte(self, capsys, tmp_path,
                                                                to_file):
        target = tmp_path / "out.csv"
        argv = ["analyze", "--d-grid", "0:0.6:0.1", *["--output", str(target)] * to_file]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (3, "", "error: disturbance must be in [0, 0.5], got 0.6\n")
        assert not target.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("grid, bad", [
        # row 100,002 of 200,001: a block deep inside, far from either end
        ("0.4:0.6:1e-6", "0.500001"),
        ("-1e-320:0.5:0.25", "-1e-320"),
    ])
    def test_the_first_bad_point_is_named_wherever_it_lies(self, capsys, tmp_path, fmt,
                                                            grid, bad):
        target = tmp_path / "out"
        for argv in ([], ["--output", str(target)]):
            code, out, err = run_cli(capsys, "analyze", f"--d-grid={grid}", "--format", fmt,
                                     *argv)
            assert (code, out) == (3, "")
            assert err == f"error: disturbance must be in [0, 0.5], got {bad}\n"
        assert not target.exists()

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

    def test_workers_help_states_the_pool_policy(self):
        # cli keeps the engine unloaded, so the help restates the constant.
        actions = build_parser()._actions
        (sub,) = [a for a in actions if isinstance(a, argparse._SubParsersAction)]
        simulate = sub.choices["simulate"]
        (workers,) = [a for a in simulate._actions if "--workers" in a.option_strings]
        assert f"per {POOL_MIN_CHUNKS} chunks" in workers.help
        assert f"fewer than {2 * POOL_MIN_CHUNKS} chunks" in workers.help

    def test_readme_states_the_pool_policy(self):
        text = " ".join(README.read_text(encoding="utf-8").split())
        assert f"at least {POOL_MIN_CHUNKS} chunks of {CHUNK_ROUNDS} rounds" in text
        pooled = 2 * POOL_MIN_CHUNKS
        assert f"fewer than {pooled} chunks ({pooled * CHUNK_ROUNDS:,} rounds)" in text
        assert f"one per {POOL_MIN_CHUNKS} chunks (`harness.POOL_MIN_CHUNKS`)" in text


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

    @pytest.mark.parametrize("grid", [" 0:0.5:0.25", "0:0.5:0.25\n", "0\n:\t0.5 :0.25\u2028"])
    def test_grid_padding_is_stripped_from_the_metadata(self, capsys, grid):
        # float() accepts whitespace around each part, line breaks included;
        # echoed as given, they would split the CSV metadata line.
        code, out, _ = run_cli(capsys, "analyze", f"--d-grid={grid}")
        assert code == 0
        assert out.split("\n")[0] == "# d_grid=0:0.5:0.25"
        assert out.split("\n")[1].startswith("# critical_disturbance=")


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


class TestDocumentBytes:
    """Whole commands print ``support.reference_document``'s bytes: the
    layout of ``json.dumps(payload, indent=2)`` and of a row-by-row CSV
    writer, over rows built here from ``analysis``."""

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_analyze(self, capsys, fmt):
        self.check_analyze(capsys, fmt, 0.5, 0.001, 501)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    # one row; one block and one row more; four blocks and one row more; and
    # 1,024 and 4,096 rows, whole blocks of any power-of-two size up to 1,024,
    # and one row more
    @pytest.mark.parametrize("count", [1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
                                       4 * _BLOCK_ROWS, 4 * _BLOCK_ROWS + 1,
                                       1024, 1025, 4096, 4097])
    def test_analyze_at_a_block_boundary(self, capsys, fmt, count):
        assert count % _BLOCK_ROWS in (0, 1)
        self.check_analyze(capsys, fmt, (count - 1) / 10_000, 0.0001, count)

    @staticmethod
    def check_analyze(capsys, fmt, end, step, count):
        grid = f"0:{end!r}:{step!r}"
        code, out, err = run_cli(capsys, "analyze", "--d-grid", grid, "--format", fmt)
        assert (code, err) == (0, "")
        rows = information_table(disturbance_grid(0.0, end, step))
        assert len(rows) == count
        expected = reference_document(fmt, {"d_grid": grid}, "rows", rows,
                                      critical_disturbance=critical_disturbance())
        assert_same_text(out, expected)
        if fmt == "json":
            assert json.loads(out)["rows"] == rows

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_table(self, capsys, fmt):
        code, out, err = run_cli(capsys, "table", "--p-segment", "0.37", "--format", fmt)
        assert (code, err) == (0, "")
        rows = protocol_comparison(0.37)
        assert_same_text(out, reference_document(fmt, {"p_segment": 0.37}, "rows", rows))
        if fmt == "json":
            assert json.loads(out)["rows"] == rows

    def test_simulate(self, capsys):
        argv = ["simulate", "--protocol", "lm05", "--attack", "lucamarini", "--q", "0.6",
                "--rounds", "5000", "--p-segment", "0.9", "--dark-count-prob", "0.01",
                "--cm-prob", "0.25", "--seed", "3"]
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        config, stats = json.loads(out)["config"], json.loads(out)["stats"]
        assert_same_text(out, reference_document("json", config, "stats", stats))
        code, out, err = run_cli(capsys, *argv, "--format", "csv")
        assert (code, err) == (0, "")
        assert_same_text(out, reference_document("csv", config, "stats", stats))


class TestEmitMemory:
    """``analyze`` makes its grid, its rows and its document one block of rows
    at a time, as the pieces are read, so its peak allocation does not grow
    with the row count."""

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_peak_does_not_grow_with_the_rows(self, fmt):
        # 5,001 rows are forty blocks and 50,001 are 391; an emitter that kept
        # its blocks or pieces would peak about 350 blocks higher.
        (small, _), (large, longest) = (self.peak(fmt, step) for step in (1e-4, 1e-5))
        assert abs(large - small) <= 2 * longest, f"peaks {small:,} and {large:,} bytes"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_command_peak_does_not_grow_with_the_rows(self, fmt, monkeypatch):
        # The same, for the whole command: the grid is made inside the trace.
        (small, _), (large, longest) = (self.command_peak(fmt, step, monkeypatch)
                                        for step in (1e-4, 1e-5))
        assert abs(large - small) <= 2 * longest, f"peaks {small:,} and {large:,} bytes"

    @pytest.mark.skipif(not READS_VMHWM, reason="reads glibc's peak from /proc/self/status")
    def test_resident_peak_does_not_grow_with_the_rows(self, tmp_path):
        # The whole process, heap fragments included: a fresh CSV analyze of
        # 20,001 rows and one at the 1,000,000-row cap each read their own
        # peak.  A heap that fragments around each block's text, as it did
        # with 1024-row blocks, reads 11–12 MB higher at the cap.
        small, large = (self.resident_peak(grid, tmp_path / "out.csv")
                        for grid in ("0:0.5:2.5e-5", "0:0.4999995:5e-7"))
        assert abs(large - small) <= 2.5 * 1024, f"VmHWM {small:,} and {large:,} kB"

    @staticmethod
    def resident_peak(grid, path):
        """A fresh interpreter's VmHWM in kB after ``analyze --d-grid GRID
        --format csv --output PATH``."""
        result = run_fresh(f"""
            from twoway_qkd.cli import main
            argv = ["analyze", "--d-grid", "{grid}", "--format", "csv", "--output"]
            assert main([*argv, {str(path)!r}]) == 0
            with open("/proc/self/status") as status:
                print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
            """)
        assert result.returncode == 0, result.stderr
        return int(result.stdout)

    @staticmethod
    def peak(fmt, step):
        """Peak traced bytes while ``analyze``'s document over ``0:0.5:STEP`` is
        made and read a piece at a time, and its longest piece.  The blocks
        are handed out before tracing starts and made inside it."""
        blocks = grid_blocks(0.0, 0.5, step, _BLOCK_ROWS)
        extra = {"critical_disturbance": critical_disturbance()}
        tracemalloc.start()
        try:
            pieces = _emit(fmt, {"d_grid": f"0:0.5:{step}"}, "rows", INFORMATION_COLUMNS,
                           map(information_rows, blocks), **extra)
            longest = max(map(len, pieces))
            return tracemalloc.get_traced_memory()[1], longest
        finally:
            tracemalloc.stop()

    @staticmethod
    def command_peak(fmt, step, monkeypatch):
        """Peak traced bytes while ``main`` runs ``analyze --d-grid 0:0.5:STEP``
        and writes to a stdout that keeps only the length of its longest
        piece, and that length."""

        class Longest:
            length = 0

            def writelines(self, pieces):
                for piece in pieces:
                    self.length = max(self.length, len(piece))

            def flush(self):
                pass

        sink = Longest()
        monkeypatch.setattr(sys, "stdout", sink)
        cli._parser()  # built once per process, not per run
        tracemalloc.start()
        try:
            assert main(["analyze", "--d-grid", f"0:0.5:{step}", "--format", fmt]) == 0
            return tracemalloc.get_traced_memory()[1], sink.length
        finally:
            tracemalloc.stop()

    def test_first_piece_is_written_before_the_last_block_is_made(self, monkeypatch):
        events = []

        class Recorder(io.StringIO):
            def write(self, text):
                events.append("write")
                return super().write(text)

        def spy(grid):
            events.append("block")
            return information_rows(grid)

        monkeypatch.setattr(cli, "information_rows", spy)
        monkeypatch.setattr(sys, "stdout", Recorder())
        assert main(["analyze", "--d-grid", "0:0.5:1e-05", "--format", "json"]) == 0
        blocks = [i for i, event in enumerate(events) if event == "block"]
        assert len(blocks) == -(-50_001 // _BLOCK_ROWS)
        assert events.index("write") < blocks[-1]


class TestEntrypoints:
    def test_module_invocation(self):
        """A CSV ``simulate`` and a JSON ``analyze`` of the golden record print
        what it holds when run as ``python -m twoway_qkd``, each in its own process."""
        sections = (GOLDEN / "simulate.txt").read_text(encoding="utf-8").split(PROMPT)
        simulate, _, text = next(section.partition("\n") for section in sections
                                 if section.startswith("simulate --protocol pp --attack nguyen")
                                 and "--format csv\n" in section)
        line = (GOLDEN / "documents.txt").read_text(encoding="utf-8").splitlines()[1]
        sha256, size, analyze = line.split(" ", 2)
        assert analyze == "analyze --format json"
        stdout = []
        for command in (simulate, analyze):
            result = subprocess.run([sys.executable, "-m", "twoway_qkd", *shlex.split(command)],
                                    capture_output=True)
            assert (result.returncode, result.stderr) == (0, b""), command
            stdout.append(result.stdout)
        assert stdout[0] == text.encode("utf-8")
        assert digest(stdout[1]) == f"{sha256} {size}"

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
# What importing dataclasses brings in: about 10 ms of every process's start.
DATACLASSES = ("ast", "dataclasses", "dis", "inspect", "tokenize")


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

    @pytest.mark.parametrize(
        "argv, unloaded",
        [
            (["--version"], (*DATACLASSES, "json")),
            (["table"], (*DATACLASSES, "json")),
            (["analyze", "--d-grid", "0:0.5:0.1"], (*DATACLASSES, "json")),
            (["simulate", "--protocol", "pp", "--attack", "nguyen", "--cm-prob", "0.25",
              "--rounds", str(2 * CHUNK_ROUNDS), "--format", "json"], DATACLASSES),
        ],
        ids=["version", "table-csv", "analyze-csv", "simulate-json"],
    )
    def test_no_dataclasses_and_json_only_for_json(self, argv, unloaded):
        result = run_fresh(f"""
            import sys
            from twoway_qkd.cli import main
            try:
                code = main({argv!r})
            except SystemExit as exc:  # --version exits through argparse
                code = exc.code
            print(code, sorted(set({unloaded!r}) & set(sys.modules)), file=sys.stderr)
        """)
        assert result.returncode == 0, result.stderr
        assert result.stderr.strip() == "0 []"
        assert result.stdout

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
                def __init__(self, max_workers, mp_context=None):
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
                def __init__(self, max_workers, mp_context=None):
                    print("pool", max_workers, file=sys.stderr)
                    super().__init__(max_workers, mp_context)

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


def parse(parser, argv):
    """The ``repr`` (so that NaN equals NaN) of ``vars`` of what ``parser`` reads
    from ``argv``, or, where it exits, of the exit code and what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return repr(vars(parser.parse_args(argv)))
        except SystemExit as exc:
            return repr((exc.code, out.getvalue(), err.getvalue()))


# A command line for each subcommand, with its options given and left out.
SAMPLE_ARGV = [
    ["simulate", "--protocol", "pp", "--rounds", "100"],
    ["simulate", "--protocol", "lm05", "--attack", "lucamarini", "--q", "0.4",
     "--rounds", "9000", "--seed", "3", "--p-segment", "0.9", "--cm-prob", "0.25",
     "--detector-efficiency", "0.8", "--dark-count-prob", "1e-3", "--workers", "2",
     "--format", "csv", "--output", "out.csv"],
    ["analyze"],
    ["analyze", "--d-grid", " 0 : 0.5 : 0.1 ", "--format", "json", "--output", "a.json"],
    ["table"],
    ["table", "--p-segment", "0.37", "--format", "json"],
]
OUTPUT_PATHS = {None: None, "file": "out.txt", "dir": ".", "missing": "missing/out.txt", "": ""}


class TestParserReuse:
    """``main`` parses with one parser per process, built on its first call.
    That is safe only while parsing leaves the parser as it found it."""

    def test_build_parser_returns_a_new_parser(self):
        assert build_parser() is not build_parser()

    def test_main_builds_one_parser(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)  # one sample writes to a relative --output
        built = []

        def spy():
            built.append(build_parser())
            return built[-1]

        monkeypatch.setattr(cli, "build_parser", spy)
        cli._parser.cache_clear()
        try:
            for argv in SAMPLE_ARGV[2:] + [["table", "--p-segment", "0"]]:
                main(argv)
            with pytest.raises(SystemExit):
                main(["--version"])
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1

    def test_shared_parser_reads_the_grammar_as_a_fresh_one(self):
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings
        from test_properties import command_lines

        @settings(max_examples=150, deadline=None, database=None)
        @given(command_lines())
        def check(case):
            argv, _, output = case
            if OUTPUT_PATHS[output] is not None:
                argv = [*argv, f"--output={OUTPUT_PATHS[output]}"]
            assert parse(cli._parser(), argv) == parse(build_parser(), argv)

        check()

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["simulate", "--protocol", "pp", "--rounds", "16", "--workers", "0"], 2),
            (["simulate", "--protocol", "pp", "--rounds", "-3", "--format", "csv"], 3),
            (["simulate", "--help"], 0),
            (["--help"], 0),
            (["--version"], 0),
        ],
    )
    def test_shared_parser_after_each_exit_path(self, capsys, argv, code):
        try:
            assert main(argv) == code
        except SystemExit as exc:
            assert exc.code == code
        for sample in SAMPLE_ARGV:
            assert parse(cli._parser(), sample) == parse(build_parser(), sample)

    def test_no_action_has_a_mutable_default(self):
        parser = build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        for each in (parser, *sub.choices.values()):
            defaults = [action.default for action in each._actions]
            defaults += each._defaults.values()
            assert not [d for d in defaults if isinstance(d, (list, dict, set))]

    def test_concurrent_calls_write_what_each_writes_alone(self, tmp_path):
        commands = [
            SAMPLE_ARGV[1][:-2],  # every simulate option, less its --output
            ["simulate", "--protocol", "pp", "--attack", "nguyen", "--q", "0.6",
             "--rounds", "40000", "--seed", "5", "--cm-prob", "0.3"],
            ["analyze", "--d-grid", "0:0.5:0.0001", "--format", "json"],
            ["table", "--p-segment", "0.9"],
        ]
        for index, argv in enumerate(commands):
            assert main([*argv, "--output", str(tmp_path / f"alone{index}")]) == 0
        cli._parser.cache_clear()  # the threads also race to build it
        start = threading.Barrier(len(commands))

        def call(index):
            start.wait()
            return [main([*commands[index], "--output", str(tmp_path / f"thread{index}-{n}")])
                    for n in range(5)]

        with ThreadPoolExecutor(max_workers=len(commands)) as pool:
            assert list(pool.map(call, range(len(commands)))) == [[0] * 5] * len(commands)
        for index in range(len(commands)):
            alone = (tmp_path / f"alone{index}").read_bytes()
            for n in range(5):
                assert (tmp_path / f"thread{index}-{n}").read_bytes() == alone, commands[index]
