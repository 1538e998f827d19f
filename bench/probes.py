"""Per-layer probes: time and count calls into each module from outside.

Run by ``run.py --trace 1`` as its own process, with ``src`` on
``PYTHONPATH``:

    python3 bench/probes.py --seed N --work DIR [--tiny]

Prints one JSON object mapping each per-layer metric it measures to a
number, or to null when the probe's target no longer exists.  Probes name
internals that later refactors may retire (``ROUND_FUNCTIONS``, ``Tally``,
``_chunk_rng``, ``CHUNK_ROUNDS``); such a probe leaves its metrics null,
and ``run.py`` then refuses to print a result until the probe is updated.
Each timing is the median over repeats.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
import traceback

import tracer as tracing
from checks import PASSES

PRIMITIVES = ("measure", "bell_measure", "measure_photon", "half_wave_plate", "apply_pauli")
STATE_TYPES = ("QubitState", "PairState")
NATIVE = {"bb84_ir": ("bb84", "intercept-resend"), "pp_nguyen": ("pp", "nguyen"),
          "lm05_lucamarini": ("lm05", "lucamarini")}
# name -> (protocol, attack, p_segment, dark_count_prob)
ROUND_CASES = {
    "bb84_ir": ("bb84", "intercept-resend", 1.0, 0.0),
    "pp_nguyen": ("pp", "nguyen", 1.0, 0.0),
    "lm05_lucamarini": ("lm05", "lucamarini", 1.0, 0.0),
    "bb84_none": ("bb84", "none", 1.0, 0.0),
    "pp_none": ("pp", "none", 1.0, 0.0),
    "lm05_none": ("lm05", "none", 1.0, 0.0),
    "lm05_lossy": ("lm05", "lucamarini", 0.7, 1e-3),
}


class Absent(Exception):
    """The probe's target is not in this version of the package."""


def need(obj, *path):
    for name in path:
        if not hasattr(obj, name):
            raise Absent(f"{getattr(obj, '__name__', obj)!s} has no {name}")
        obj = getattr(obj, name)
    return obj


def module(name: str):
    try:
        return importlib.import_module(f"twoway_qkd.{name}")
    except ImportError as exc:
        raise Absent(str(exc)) from None


def per_call(fn, n: int, repeats: int) -> float:
    """Median seconds per call of ``fn()`` over ``repeats`` loops of ``n``."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - t0) / n)
    return statistics.median(samples)


def make_config(protocol, attack, rounds, seed, q=1.0, p_segment=1.0, dark=0.0):
    import twoway_qkd as pkg

    return pkg.SimConfig(
        protocol=pkg.Protocol(protocol),
        rounds=rounds,
        seed=seed,
        attack=pkg.AttackConfig(strategy=pkg.Strategy(attack), q=q),
        cm_prob=0.0 if protocol == "bb84" else 0.25,
        channel=pkg.ChannelConfig(p_segment=p_segment, dark_count_prob=dark),
    )


def timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


class Probes:
    def __init__(self, seed: int, work: str, tiny: bool) -> None:
        self.seed = seed
        self.work = work
        self.scale = 0.1 if tiny else 1.0
        self.metrics: dict[str, float | None] = {}
        self.workers = min(2, os.cpu_count() or 1)

    def n(self, count: int) -> int:
        return max(1, int(count * self.scale))

    def record(self, names, fn) -> None:
        """Run one probe; a missing target or a crash leaves its metrics null."""
        names = [names] if isinstance(names, str) else list(names)
        try:
            values = fn()
        except Absent as exc:
            print(f"probe {names[0]}: absent ({exc})", file=sys.stderr)
            values = {}
        except Exception:  # a probe must never take the benchmark down
            traceback.print_exc()
            values = {}
        if not isinstance(values, dict):
            values = {names[0]: values}
        for name in names:
            self.metrics[name] = values.get(name)

    # -- quantum -------------------------------------------------------------

    def quantum(self) -> None:
        q = module("quantum")
        r = 2.0**-0.5

        def args_for(name):
            plus = need(q, "PLUS")
            z = need(q, "Basis", "Z")
            pair = need(q, "PairState")((0.0, r, -r, 0.0))
            return {
                "measure": (plus, z, 0.3),
                "bell_measure": (pair, 0.3),
                "measure_photon": (pair, 2, z, 0.3),
                "half_wave_plate": (pair, 2),
                "apply_pauli": (need(q, "PauliOp", "IY"), plus),
            }[name]

        for name in PRIMITIVES:
            self.record(
                f"quantum.{name}.ns_per_call",
                lambda name=name: 1e9 * per_call(
                    functools.partial(need(q, name), *args_for(name)), self.n(20000), 5
                ),
            )

        def state_ctor():
            qubit, pair = need(q, "QubitState"), need(q, "PairState")

            def build_both():
                qubit(r, r)
                pair((0.0, r, -r, 0.0))

            return 1e9 * per_call(build_both, self.n(20000), 5) / 2

        self.record("quantum.state_ctor.ns_per_call", state_ctor)
        for case, (protocol, attack) in NATIVE.items():
            self.record(
                [f"quantum.calls_per_round.{case}", f"quantum.states_per_round.{case}"],
                lambda case=case, protocol=protocol, attack=attack: self._count_quantum(
                    case, protocol, attack
                ),
            )

    def _count_quantum(self, case, protocol, attack):
        """Exact quantum-primitive calls and state constructions per round."""
        q = module("quantum")
        harness = module("harness")
        counts = {"calls": 0, "states": 0}
        saved = []

        def counting(key, fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        try:
            for user in (module("protocols"), module("adversaries")):
                for name in PRIMITIVES + ("prepare_bell",):
                    fn = getattr(user, name, None)
                    if fn is not None and fn is getattr(q, name, None):
                        saved.append((user, name, fn))
                        setattr(user, name, counting("calls", fn))
            for type_name in STATE_TYPES:
                cls = need(q, type_name)
                hook = need(cls, "__post_init__")
                saved.append((cls, "__post_init__", hook))
                cls.__post_init__ = counting("states", hook)
            rounds = self.n(10000)
            harness.run(make_config(protocol, attack, rounds, self.seed), workers=1)
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)
        return {
            f"quantum.calls_per_round.{case}": counts["calls"] / rounds,
            f"quantum.states_per_round.{case}": counts["states"] / rounds,
        }

    # -- protocols and adversaries ------------------------------------------

    def protocols(self) -> None:
        names = [f"protocols.us_per_round.{case}" for case in ROUND_CASES]
        overhead = [f"adversaries.overhead_us_per_round.{p}" for p in ("bb84", "pp", "lm05")]
        self.record(names + overhead, self._round_functions)

    def _round_functions(self):
        import twoway_qkd as pkg

        protocols = module("protocols")
        table = need(protocols, "ROUND_FUNCTIONS")
        tally_type = need(protocols, "Tally")
        n = self.n(10000)
        samples: dict[str, list[float]] = {case: [] for case in ROUND_CASES}
        for repeat in range(3):
            for case, (protocol, attack, p_segment, dark) in ROUND_CASES.items():
                fn = table[pkg.Protocol(protocol)]
                strategy = pkg.Strategy(attack)
                cm_prob = 0.0 if protocol == "bb84" else 0.25
                t = p_segment ** PASSES[protocol]
                tally, rng = tally_type(), random.Random(self.seed + repeat)
                t0 = time.perf_counter()
                for _ in range(n):
                    fn(tally, rng, strategy, 1.0, cm_prob, t, dark)
                samples[case].append(1e6 * (time.perf_counter() - t0) / n)
        out = {f"protocols.us_per_round.{c}": statistics.median(s) for c, s in samples.items()}
        for protocol, attacked in (("bb84", "bb84_ir"), ("pp", "pp_nguyen"),
                                   ("lm05", "lm05_lucamarini")):
            out[f"adversaries.overhead_us_per_round.{protocol}"] = (
                out[f"protocols.us_per_round.{attacked}"]
                - out[f"protocols.us_per_round.{protocol}_none"]
            )
        return out

    # -- harness -------------------------------------------------------------

    def harness(self) -> None:
        harness = module("harness")
        self.record(
            "harness.chunk_rng.us_per_call",
            lambda: 1e6 * per_call(
                functools.partial(need(harness, "_chunk_rng"), self.seed, 7), self.n(2000), 3
            ),
        )

        def merge():
            chunk = need(harness, "_run_chunk")(make_config("pp", "nguyen", 64, self.seed), 0, 64)
            acc = type(chunk)()
            if hasattr(acc, "merge"):
                step = functools.partial(acc.merge, chunk)
            else:
                step = functools.partial(type(chunk).__add__, acc, chunk)
            return 1e6 * per_call(step, self.n(20000), 3)

        self.record("harness.merge.us_per_chunk", merge)
        self.record(
            "harness.config.us",
            lambda: 1e6 * per_call(
                functools.partial(make_config, "pp", "nguyen", 100000, self.seed, 0.5, 0.9, 1e-3),
                self.n(2000), 3,
            ),
        )
        run = need(harness, "run")
        one_round = make_config("pp", "nguyen", 1, self.seed)
        stats = run(one_round)
        self.record(
            "harness.stats.us",
            lambda: 1e6 * per_call(need(stats, "as_dict"), self.n(2000), 3),
        )
        self.record(
            "harness.run_fixed.us",
            lambda: 1e6 * per_call(functools.partial(run, one_round), self.n(300), 3),
        )
        self.record(["harness.pool.speedup", "harness.pool.efficiency"], self._pool_speedup)

        def pool_start():
            if self.workers < 2:
                return None
            chunk_rounds = need(harness, "CHUNK_ROUNDS")
            config = make_config("bb84", "none", 2 * chunk_rounds, self.seed)
            one, many = [], []
            for _ in range(5):
                one.append(timed(lambda: run(config, workers=1)))
                many.append(timed(lambda: run(config, workers=self.workers)))
            return 1e3 * (statistics.median(many) - statistics.median(one))

        self.record("harness.pool.start_ms", pool_start)

    def _pool_speedup(self):
        if self.workers < 2:
            return {}
        run = need(module("harness"), "run")
        config = make_config("lm05", "lucamarini", self.n(40000), self.seed)
        one, many = [], []
        for _ in range(5):
            one.append(timed(lambda: run(config, workers=1)))
            many.append(timed(lambda: run(config, workers=self.workers)))
        speedup = statistics.median(one) / statistics.median(many)
        return {"harness.pool.speedup": speedup,
                "harness.pool.efficiency": speedup / self.workers}

    # -- analysis ------------------------------------------------------------

    def analysis(self) -> None:
        analysis = module("analysis")
        self.record(
            "analysis.critical_disturbance.us",
            lambda: 1e6 * per_call(need(analysis, "critical_disturbance"), self.n(50), 3),
        )
        step = 1e-5 if self.scale == 1.0 else 1e-3
        grid_args = (0.0, 0.5, step)
        self.record(
            "analysis.disturbance_grid.us",
            lambda: 1e6 * per_call(
                functools.partial(need(analysis, "disturbance_grid"), *grid_args), 5, 3
            ),
        )

        def table_per_row():
            grid = need(analysis, "disturbance_grid")(*grid_args)
            table = need(analysis, "information_table")
            return 1e6 * per_call(functools.partial(table, grid), 1, 3) / len(grid)

        self.record("analysis.information_table.us_per_row", table_per_row)

    # -- cli -----------------------------------------------------------------

    def cli(self) -> None:
        bare, imported = [], []
        for _ in range(5):
            bare.append(timed(lambda: self._python(["-c", "pass"])))
            imported.append(timed(lambda: self._python(["-c", "import twoway_qkd.cli"])))
        self.metrics["cli.python_startup_s"] = statistics.median(bare)
        self.metrics["cli.import_s"] = statistics.median(imported) - statistics.median(bare)

        cli = module("cli")
        output = os.path.join(self.work, "probe.out")
        simulate = ["simulate", "--protocol", "bb84", "--rounds", "4096", "--seed",
                    str(self.seed), "--workers", "1", "--output", output]
        self.record(
            "cli.parse.us",
            lambda: 1e6 * per_call(
                lambda: need(cli, "build_parser")().parse_args(simulate), self.n(200), 3
            ),
        )
        self.record("cli.emit.simulate.us", lambda: self._emit_us(simulate, 20))
        for fmt in ("csv", "json"):
            step = 1e-4
            analyze = ["analyze", "--d-grid", f"0:0.5:{step}", "--format", fmt,
                       "--output", output]
            rows = int(round(0.5 / step)) + 1
            self.record(
                f"cli.emit.analyze.us_per_row.{fmt}",
                lambda analyze=analyze, rows=rows: self._emit_us(analyze, 3) / rows,
            )

        def main_overhead():
            from twoway_qkd import harness

            config = make_config("bb84", "none", 4096, self.seed)
            main_s, run_s = [], []
            for _ in range(7):
                main_s.append(timed(lambda: cli.main(simulate)))
                run_s.append(timed(lambda: harness.run(config, workers=1)))
            return 1e3 * (statistics.median(main_s) - statistics.median(run_s))

        self.record("cli.main_overhead.ms", main_overhead)

    def _python(self, args: list[str]) -> None:
        subprocess.run([sys.executable, *args], check=True, timeout=60)

    def _emit_us(self, argv: list[str], repeats: int) -> float:
        """Median time inside emission spans per ``cli.main(argv)`` call."""
        from twoway_qkd import cli

        tracer = tracing.Tracer(self.work)
        restore = tracing.install(tracer)
        per_call_s = []
        try:
            for _ in range(repeats):
                tracer.spans = []
                if cli.main(argv) != 0:
                    raise RuntimeError(f"cli.main({argv}) failed")
                per_call_s.append(sum(
                    (end - start) / 1e9
                    for name, start, end, *_ in tracer.spans
                    if name == "cli.emit"
                ))
        finally:
            restore()
        return 1e6 * statistics.median(per_call_s)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    probes = Probes(args.seed, args.work, args.tiny)
    for group in (probes.quantum, probes.protocols, probes.harness, probes.analysis,
                  probes.cli):
        try:
            group()
        except Absent as exc:
            print(f"probe group {group.__name__}: absent ({exc})", file=sys.stderr)
        except Exception:  # the metrics it did not record stay null
            traceback.print_exc()
    print(json.dumps(probes.metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
