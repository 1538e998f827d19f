"""Benchmark of the twoway-qkd simulator, measured from outside the package.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is taken from ``src/``.
Workloads, with why each was chosen:

``copy_attacks_serial``
    The paper's headline experiment: one ``twoway-qkd simulate`` process per
    native pairing (``bb84``/``intercept-resend``, ``pp``/``nguyen``,
    ``lm05``/``lucamarini``) at q = 1 on a lossless channel, ``--workers 1``,
    many chunks each.  Nearly all its time is the per-round kernel
    (``protocols``, ``quantum``, ``adversaries``); it never starts a pool.
``copy_attacks_parallel``
    The same processes at ``--workers 2``: the only workload where pool
    dispatch, pickling, chunk size and merge carry weight.
``paper_sweep``
    One process imports the package once and calls ``cli.main`` per point
    of a grid of short ``simulate`` runs (all six pairings, q in {0.5, 1},
    ``--p-segment`` in {1, 0.9, 0.7}, dark counts 1e-3, workers 2), then one
    fine-grid ``analyze`` as CSV and as JSON and one ``table``.  Per-run
    costs, the lossy and dark-count branches and the emitters count here.

With ``--trace 0`` it prints the end-to-end metrics, measured untraced.
With ``--trace 1`` it alternates untraced and traced iterations of the
workload, then runs the per-layer probes (``probes.py``), and prints the
per-layer metrics.  Every operation's output is checked (``checks.py``);
the last line of standard output is the JSON result.  All outputs go to a
scratch directory under ``.bench_work/`` that is removed at exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

import checks
import tracer as tracing

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("copy_attacks_serial", "copy_attacks_parallel", "paper_sweep")
NATIVE = (("bb84", "intercept-resend"), ("pp", "nguyen"), ("lm05", "lucamarini"))
ALL_PAIRINGS = (("bb84", "none"), ("pp", "none"), ("lm05", "none")) + NATIVE
OP_TIMEOUT_S = 120
# Wall time the per-layer probes take; a traced run leaves it for them.
PROBE_BUDGET_S = 12

# Per-layer metric prefix -> the end-to-end metric it should move and where.
# The first matching prefix applies.
MOVES = (
    ("quantum.", "rounds_per_s",
     "copy_attacks_serial, copy_attacks_parallel; paper_sweep on detected rounds only"),
    ("protocols.", "rounds_per_s", "copy_attacks_serial"),
    ("adversaries.", "rounds_per_s", "copy_attacks_serial"),
    ("channel.", "none: must stay within 3 sigma of T^passes", "paper_sweep"),
    ("harness.pool.start_ms", "wall_s", "paper_sweep"),
    ("harness.pool.", "rounds_per_s",
     "copy_attacks_parallel; no change predicted on copy_attacks_serial"),
    ("harness.config.", "wall_s", "paper_sweep"),
    ("harness.stats.", "wall_s", "paper_sweep"),
    ("harness.run_fixed.", "wall_s", "paper_sweep"),
    ("harness.self_", "rounds_per_s", "copy_attacks_parallel, paper_sweep"),
    ("harness.", "rounds_per_s", "paper_sweep; copy_attacks_serial once the kernel is cheap"),
    ("analysis.", "wall_s", "paper_sweep only"),
    ("cli.python_startup_s", "none: reference, should never move", "all"),
    ("cli.import_s", "setup_s", "all"),
    ("cli.startup.", "wall_s", "copy_attacks_serial, copy_attacks_parallel"),
    ("cli.", "wall_s", "paper_sweep"),
    ("trace.", "none: cost of tracing itself", "all"),
)


def moves(metric: str) -> tuple[str, str]:
    for prefix, target, where in MOVES:
        if metric.startswith(prefix):
            return target, where
    raise KeyError(metric)


@dataclass(frozen=True)
class Sizes:
    copy_rounds: int = 200_000
    sweep_rounds: int = 20_000
    grid_step: float = 1e-5
    check_rounds: int = 30_000
    setup_repeats: int = 10


TINY = Sizes(copy_rounds=10_000, sweep_rounds=5_000, grid_step=1e-3,
             check_rounds=9_000, setup_repeats=4)


@dataclass
class Op:
    """One operation: a ``twoway-qkd`` argv and what its output must satisfy."""

    kind: str
    argv: list[str]
    output: str
    expect: object = None
    rounds: int = 0


def simulate_op(work, index, protocol, attack, q, rounds, seed, p_segment, dark, workers):
    cm_prob = 0.0 if protocol == "bb84" else 0.25
    argv = ["simulate", "--protocol", protocol, "--attack", attack, "--q", repr(q),
            "--rounds", str(rounds), "--seed", str(seed), "--cm-prob", repr(cm_prob),
            "--p-segment", repr(p_segment), "--dark-count-prob", repr(dark),
            "--workers", str(workers), "--format", "json"]
    expect = {"protocol": protocol, "attack": attack, "q": q, "rounds": rounds,
              "seed": seed, "cm_prob": cm_prob, "p_segment": p_segment,
              "dark_count_prob": dark}
    output = os.path.join(work, f"op{index}.json")
    return Op("simulate", argv + ["--output", output], output, expect, rounds)


def build_ops(workload: str, seed: int, workers: int, sizes: Sizes, work: str) -> list[Op]:
    rng = random.Random(seed)
    ops: list[Op] = []
    if workload != "paper_sweep":
        op_workers = 1 if workload == "copy_attacks_serial" else workers
        for protocol, attack in NATIVE:
            ops.append(simulate_op(work, len(ops), protocol, attack, 1.0, sizes.copy_rounds,
                                   rng.randrange(2**31), 1.0, 0.0, op_workers))
        return ops
    for protocol, attack in ALL_PAIRINGS:
        for q in (1.0,) if attack == "none" else (0.5, 1.0):
            for p_segment in (1.0, 0.9, 0.7):
                ops.append(simulate_op(work, len(ops), protocol, attack, q, sizes.sweep_rounds,
                                       rng.randrange(2**31), p_segment, 1e-3, workers))
    grid = (0.0, 0.5, sizes.grid_step)
    for fmt in ("csv", "json"):
        output = os.path.join(work, f"op{len(ops)}.{fmt}")
        ops.append(Op("analyze", ["analyze", "--d-grid", f"0:0.5:{sizes.grid_step!r}",
                                  "--format", fmt, "--output", output], output, (fmt, grid)))
    output = os.path.join(work, f"op{len(ops)}.csv")
    ops.append(Op("table", ["table", "--p-segment", "0.9", "--output", output], output, 0.9))
    return ops


@dataclass
class Ledger:
    """Operations attempted and failed, and the checks that decide it."""

    attempted: int = 0
    failed: int = 0
    bands: checks.Bands = field(default_factory=checks.Bands)
    band_ops: dict[str, list[int]] = field(default_factory=dict)
    payloads: dict[int, object] = field(default_factory=dict)
    failed_ops: set[int] = field(default_factory=set)

    def fail(self, what: str, problems: list[str], count: int = 1) -> None:
        self.failed += count
        for problem in problems:
            print(f"FAILED {what}: {problem}", file=sys.stderr)

    def check(self, index: int, op: Op, code: int, differs: bool = False) -> None:
        """Count one execution of ``op`` and check what it wrote.  ``differs``
        marks an execution whose output was overwritten by a different one."""
        self.attempted += 1
        problems = ["output differs between iterations"] if differs else []
        problems = problems or self._problems(index, op, code)
        if problems:
            self.failed_ops.add(index)
            self.fail(f"op {index}", problems)
        elif index in self.failed_ops:  # the same output as a failed execution
            self.failed += 1

    def _problems(self, index: int, op: Op, code: int) -> list[str]:
        if code != 0:
            return [f"exit code {code}: {' '.join(op.argv)}"]
        try:
            with open(op.output, encoding="utf-8") as handle:
                text = handle.read()
            payload = json.loads(text) if op.kind == "simulate" else text
        except (OSError, ValueError) as exc:
            return [f"unreadable output: {exc}"]
        if index in self.payloads:
            same = payload == self.payloads[index]
            return [] if same else ["output differs between iterations"]
        self.payloads[index] = payload
        try:
            if op.kind == "analyze":
                fmt, grid = op.expect
                return checks.check_analyze(payload, fmt, grid)
            if op.kind == "table":
                return checks.check_table(payload, op.expect)
            problems = checks.check_simulate(payload, op.expect)
            if not problems:
                for group in self.bands.add_simulate(payload):
                    self.band_ops.setdefault(group, []).append(index)
            return problems
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            return [f"malformed output: {exc!r}"]

    def finish_bands(self, executions: dict[int, int]) -> None:
        """A failed band fails every execution of the operations it pooled."""
        for group, problem in self.bands.problems():
            for index in set(self.band_ops.get(group, [])) - self.failed_ops:
                self.failed_ops.add(index)
                self.fail(f"op {index}", [f"band {problem}"], executions.get(index, 1))


def spawn(argv: list[str], env: dict[str, str], err_path: str) -> tuple[int, float, float]:
    """Run one process to completion: (exit code, wall seconds, peak RSS MB).

    The peak RSS comes from ``wait4`` and covers the process and every
    descendant it waited for, so pool workers are included.
    """
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if code != 0:
        with open(err_path, encoding="utf-8", errors="replace") as handle:
            sys.stderr.write(handle.read()[-2000:])
    return code, wall, usage.ru_maxrss / 1024.0


@dataclass
class Iteration:
    traced: bool
    op_seconds: list[float]
    peak_rss_mb: float


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 sizes: Sizes, work: str) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.sizes = sizes
        self.work = work
        self.workers = min(2, os.cpu_count() or 1)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        self.spans_dir = os.path.join(work, "spans")
        os.makedirs(self.spans_dir)
        self.ops = build_ops(workload, seed, self.workers, sizes, work)
        self.ledger = Ledger()
        self.iterations: list[Iteration] = []
        self.executions: dict[int, int] = {}

    def python(self, args: list[str]) -> tuple[int, float, float]:
        return spawn([sys.executable, *args], self.env, os.path.join(self.work, "stderr"))

    # -- set-up ----------------------------------------------------------------

    def setup(self, timed: int, warm: bool) -> list[float]:
        """Timed ``--version`` start-ups, after one untimed start that fills
        the bytecode cache when ``warm`` is set."""
        times = []
        for attempt in range(timed + warm):
            code, wall, _ = self.python(["-m", "twoway_qkd", "--version"])
            if code != 0:
                raise SystemExit(f"twoway_qkd does not start (exit {code})")
            if attempt or not warm:
                times.append(wall)
        return times

    # -- iterations ------------------------------------------------------------

    def cli_iteration(self, traced: bool) -> Iteration:
        seconds, rss = [], 0.0
        for index, op in enumerate(self.ops):
            if traced:
                args = [os.path.join(BENCH_DIR, "child.py"), "traced-cli", self.spans_dir,
                        str(index), *op.argv]
            else:
                args = ["-m", "twoway_qkd", *op.argv]
            code, wall, op_rss = self.python(args)
            seconds.append(wall)
            rss = max(rss, op_rss)
            self.executions[index] = self.executions.get(index, 0) + 1
            self.ledger.check(index, op, code)
        return Iteration(traced, seconds, rss)

    def run_cli_workload(self, budget: float) -> None:
        started = time.perf_counter()
        while True:
            traced = self.trace and len(self.iterations) % 2 == 1
            self.iterations.append(self.cli_iteration(traced))
            elapsed = time.perf_counter() - started
            enough = len(self.iterations) >= (2 if self.trace else 1)
            if enough and elapsed + elapsed / len(self.iterations) > budget:
                break

    def run_sweep(self, budget: float) -> None:
        spec_path = os.path.join(self.work, "sweep.json")
        with open(spec_path, "w", encoding="utf-8") as handle:
            json.dump({"ops": [{"argv": op.argv, "output": op.output} for op in self.ops],
                       "seconds": budget, "trace": self.trace,
                       "spans_dir": self.spans_dir}, handle)
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "child.py"), "sweep", spec_path],
            cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL, capture_output=True,
            text=True, timeout=budget + OP_TIMEOUT_S,
        )
        sys.stderr.write(proc.stderr[-4000:])
        if proc.returncode != 0:
            raise SystemExit(f"sweep process failed (exit {proc.returncode})")
        lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
        final = {}
        for index, op in enumerate(self.ops):
            if os.path.exists(op.output):
                with open(op.output, "rb") as handle:
                    final[index] = hashlib.sha256(handle.read()).hexdigest()
        for line in lines:
            for index, (_, code, digest) in enumerate(line["ops"]):
                self.executions[index] = self.executions.get(index, 0) + 1
                self.ledger.check(index, self.ops[index], code,
                                  differs=code == 0 and digest != final.get(index))
            self.iterations.append(Iteration(
                line["traced"], [op[0] for op in line["ops"]], line["peak_rss_mb"]
            ))

    def check_workers(self) -> None:
        """The same config must give the same stats at workers 1 and workers 2."""
        seed = random.Random(self.seed).randrange(2**31) + 1
        payloads = []
        for workers in (1, self.workers):
            op = simulate_op(self.work, f"w{workers}", "pp", "nguyen", 1.0,
                             self.sizes.check_rounds, seed, 1.0, 0.0, workers)
            code, _, _ = self.python(["-m", "twoway_qkd", *op.argv])
            self.ledger.check(-workers, op, code)
            payloads.append(self.ledger.payloads.get(-workers, {}))
        problems = checks.check_same_stats(*payloads)
        if problems:
            self.ledger.fail("worker check", problems, count=2)

    def run(self) -> dict:
        # Set-up is timed half before and half after the workload, so that
        # its median spans the run rather than one moment of machine load.
        half = 0 if self.trace else self.sizes.setup_repeats // 2
        setup_times = self.setup(half, warm=True)
        budget = self.seconds - (PROBE_BUDGET_S if self.trace else 0.0)
        budget = max(budget, 1.0)
        if self.workload == "paper_sweep":
            self.run_sweep(budget)
        else:
            self.run_cli_workload(budget)
        setup_times += self.setup(half, warm=False)
        self.check_workers()
        self.ledger.finish_bands(self.executions)
        metrics = self.layer_metrics() if self.trace else self.end_to_end(setup_times)
        return {"correct": self.ledger.failed == 0, "attempted": self.ledger.attempted,
                "failed": self.ledger.failed, "metrics": metrics}

    # -- metrics ---------------------------------------------------------------

    def simulate_indices(self) -> list[int]:
        return [i for i, op in enumerate(self.ops) if op.kind == "simulate"]

    def end_to_end(self, setup_times: list[float]) -> dict[str, float]:
        sim = self.simulate_indices()
        rounds = sum(self.ops[i].rounds for i in sim)
        plain = [it for it in self.iterations if not it.traced]
        return {
            "setup_s": statistics.median(setup_times),
            "rounds_per_s": statistics.median(
                rounds / sum(it.op_seconds[i] for i in sim) for it in plain
            ),
            "wall_s": statistics.median(sum(it.op_seconds) for it in plain),
            "peak_rss_mb": statistics.median(it.peak_rss_mb for it in plain),
        }

    def layer_metrics(self) -> dict[str, float | None]:
        traced = [it for it in self.iterations if it.traced]
        plain = [it for it in self.iterations if not it.traced]
        n = len(traced)
        spans = tracing.read_spans(self.spans_dir)
        layers = {name: seconds / n for name, seconds in tracing.layer_times(spans).items()}
        roots = sum(end - start for name, start, end, parent, *_ in spans if parent is None)
        if self.workload != "paper_sweep":
            layers["cli.startup"] = (sum(sum(it.op_seconds) for it in traced) - roots / 1e9) / n
        busy = sum(layers.values())
        chunk_ns = [end - start for name, start, end, *_ in spans if name == "harness.chunk"]
        traced_wall = statistics.median(sum(it.op_seconds) for it in traced)
        plain_wall = statistics.median(sum(it.op_seconds) for it in plain)
        out: dict[str, float | None] = {
            "trace.wall_s": traced_wall,
            "trace.overhead_s": traced_wall - plain_wall,
            "trace.overhead_frac": (traced_wall - plain_wall) / plain_wall,
        }
        # A layer the workload never enters (analysis on the copy attacks)
        # has no spans: its self time is zero, not unknown.
        for layer in tracing.LAYERS:
            value = layers.get(layer, 0.0)
            out[f"{layer}.self_s"] = value
            out[f"{layer}.self_share"] = value / busy if busy else 0.0
        kernel, rng = layers.get("protocols", 0.0), layers.get("harness.chunk_rng", 0.0)
        out["harness.chunk_rng.share"] = rng / (kernel + rng) if kernel + rng else 0.0
        out["harness.chunks"] = len(chunk_ns) / n
        out["harness.run_chunk.ms"] = statistics.median(chunk_ns) / 1e6 if chunk_ns else None
        payloads = [self.ledger.payloads[i]["stats"] for i in self.simulate_indices()
                    if i in self.ledger.payloads]
        rounds = sum(s["rounds"] for s in payloads)
        detected = sum(s["rounds"] - s["lost"] for s in payloads)
        out["channel.detected_frac"] = detected / rounds if rounds else None
        out["cli.bytes_out"] = sum(
            os.path.getsize(op.output) for op in self.ops if os.path.exists(op.output)
        )
        probes = self.python_json([os.path.join(BENCH_DIR, "probes.py"), "--seed",
                                   str(self.seed), "--work", self.work]
                                  + (["--tiny"] if self.sizes == TINY else []))
        out.update(probes)
        return out

    def python_json(self, args: list[str]) -> dict:
        proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=self.env,
                              stdin=subprocess.DEVNULL, capture_output=True, text=True,
                              timeout=OP_TIMEOUT_S)
        sys.stderr.write(proc.stderr[-4000:])
        if proc.returncode != 0:
            raise SystemExit(f"{args[0]} failed (exit {proc.returncode})")
        return json.loads(proc.stdout.splitlines()[-1])


def environment(workers: int) -> dict[str, object]:
    """What a result was measured on.  The commit is null outside a git
    checkout; the digest of ``src/`` identifies the code either way."""
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as handle:
                    digest.update(name.encode() + handle.read())
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        from importlib.metadata import version

        numpy_version = version("numpy")
    except ImportError:
        numpy_version = None
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16],
            "python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "cpu": cpu, "workers": workers}


def load_manifest() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def report(workload: str, result: dict, manifest: dict, bench: Bench) -> dict:
    """Print every metric with its unit; return the result with units attached."""
    section = "per_layer" if bench.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in manifest[section]}
    env = environment(bench.workers)
    print(f"# workload {workload}  seed {bench.seed}  trace {int(bench.trace)}  "
          f"env {json.dumps(env)}")
    plain = sum(not it.traced for it in bench.iterations)
    op_workers = 1 if workload == "copy_attacks_serial" else bench.workers
    metrics, missing = {}, []
    for name, unit in units.items():
        value = result["metrics"].get(name)
        if bench.trace:
            target, where = moves(name)
            note = f"moves {target} on {where}"
            if name.startswith("harness.pool."):
                note += f"; workers={bench.workers} of nproc={env['nproc']}"
        elif name == "setup_s":
            note = f"median of {bench.sizes.setup_repeats} --version starts"
        else:
            note = f"median of {plain} iterations; workers={op_workers} of nproc={env['nproc']}"
        if value is None:
            missing.append(name)
            print(f"{name:44s} {'absent':>12s} {unit:8s} ({note})")
            continue
        print(f"{name:44s} {value:12.6g} {unit:8s} ({note})")
        metrics[name] = {"value": value, "unit": unit}
    if missing:
        # A result must hold every metric as a number; a probe whose target
        # a later version retired has to be updated, not reported empty.
        raise SystemExit(f"error: no value for {', '.join(missing)}; "
                         "update bench/probes.py or bench/tracer.py")
    frac = result["failed"] / result["attempted"]
    print(f"{'failed_frac':44s} {frac:12.6g} {'fraction':8s} "
          f"({result['failed']} of {result['attempted']} operations)")
    return dict(result, metrics=metrics)


def run_one(workload: str, args, manifest: dict) -> dict:
    sizes = TINY if args.tiny else Sizes()
    work_root = os.path.join(ROOT, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root)
    try:
        bench = Bench(workload, args.seed, args.seconds, bool(args.trace), sizes, work)
        return report(workload, bench.run(), manifest, bench)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the self-test")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "twoway_qkd", "__init__.py")):
        print(f"error: no twoway_qkd package under {SRC}", file=sys.stderr)
        return 2
    manifest = load_manifest()
    if args.workload != "all":
        print(json.dumps(run_one(args.workload, args, manifest)))
        return 0
    results = {w: run_one(w, args, manifest) for w in WORKLOADS}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{name}": m for w, r in results.items()
                    for name, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
