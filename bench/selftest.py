"""Self-test of the benchmark: the checker must reject bad outputs, and every
workload must print every metric named in BENCHMARK.json with its unit.

    python3 bench/selftest.py

Run from the root of a checkout.  Exits 0 when every assertion holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import checks
import run

COUNTER_ZERO = dict.fromkeys(checks.COUNTERS, 0)


def payload(protocol: str, attack: str, q: float = 1.0, **counters) -> dict:
    """A ``simulate`` payload whose derived rates follow from its counters."""
    s = dict(COUNTER_ZERO, **counters)

    def ratio(a, b):
        return a / b if b else 0.0

    s.update(
        yield_fraction=ratio(s["rounds"] - s["lost"], s["rounds"]),
        d_mm=ratio(s["mm_errors"], s["raw_key"]),
        d_cm=ratio(s["cm_errors"], s["cm_rounds"]),
        d_cm_intercepted=ratio(s["eve_cm_errors"], s["eve_cm_rounds"]),
        eve_known_fraction=ratio(s["eve_mm_correct"], s["raw_key"]),
    )
    config = {"protocol": protocol, "attack": attack, "q": q, "rounds": s["rounds"],
              "seed": 1, "cm_prob": 0.0 if protocol == "bb84" else 0.25, "p_segment": 1.0,
              "detector_efficiency": 1.0, "dark_count_prob": 0.0}
    return {"config": config, "stats": s, "version": "0"}


def nguyen(mm_errors=0, eve_cm_errors=25_000, rounds=200_000):
    cm = rounds // 4
    return payload("pp", "nguyen", rounds=rounds, mm_rounds=rounds - cm, cm_rounds=cm,
                   raw_key=rounds - cm, mm_errors=mm_errors, cm_errors=eve_cm_errors,
                   eve_rounds=rounds, eve_mm_rounds=rounds - cm,
                   eve_mm_correct=rounds - cm, eve_cm_rounds=cm,
                   eve_cm_errors=eve_cm_errors)


def bb84(mm_errors):
    raw = 50_000
    return payload("bb84", "intercept-resend", rounds=100_000, mm_rounds=100_000,
                   raw_key=raw, mm_errors=mm_errors, eve_rounds=100_000,
                   eve_mm_rounds=raw, eve_mm_correct=int(0.75 * raw))


def band_problems(*payloads) -> list:
    bands = checks.Bands()
    for p in payloads:
        bands.add_simulate(p)
    return bands.problems()


def test_checker() -> None:
    good = nguyen()
    assert checks.check_simulate(good, {"attack": "nguyen"}) == []
    assert band_problems(good, bb84(12_500)) == []

    assert checks.check_simulate(nguyen(mm_errors=1500), {}), "d_mm = 0.01 under nguyen passed"
    broken = nguyen()
    broken["stats"]["lost"] = 1
    assert checks.check_simulate(broken, {}), "counter identity violated but passed"
    lying = nguyen()
    lying["stats"]["d_mm"] = 0.01
    assert checks.check_simulate(lying, {}), "d_mm inconsistent with counters passed"
    assert checks.check_simulate(good, {"seed": 2}), "config not echoed but passed"
    assert band_problems(nguyen(eve_cm_errors=22_500)), "d_cm_intercepted 0.45 passed"
    assert band_problems(bb84(25_000)), "bb84 d_mm 0.5 at q = 1 passed"

    other = nguyen()
    other["stats"] = dict(other["stats"], cm_errors=25_001, eve_cm_errors=25_001)
    assert checks.check_same_stats(good, good) == []
    assert checks.check_same_stats(good, other), "mismatched worker outputs passed"

    rows = [{"d": d, "i_ab": 1 - checks.binary_entropy(d), "i_ae": checks.binary_entropy(d),
             "secret_fraction": 1 - 2 * checks.binary_entropy(d)} for d in (0.0, 0.25, 0.5)]
    doc = {"critical_disturbance": checks.D_STAR, "rows": rows}
    assert checks.check_analyze(json.dumps(doc), "json", (0.0, 0.5, 0.25)) == []
    rows[1]["i_ae"] += 1e-6
    assert checks.check_analyze(json.dumps(doc), "json", (0.0, 0.5, 0.25)), "bad curve passed"
    assert checks.check_analyze(json.dumps(doc), "json", (0.0, 0.5, 0.1)), "row count passed"

    table = ("# p_segment=0.9\nprotocol,critical_disturbance,passes,transmittance\n"
             f"bb84,{checks.D_STAR},1,0.9\npp,indeterminable,4,{0.9**4}\n"
             f"lm05,indeterminable,2,{0.9**2}\n")
    assert checks.check_table(table, 0.9) == []
    assert checks.check_table(table.replace(",4,", ",3,"), 0.9), "wrong passes passed"


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_workloads() -> None:
    manifest = run.load_manifest()
    for workload in run.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, os.path.join(run.BENCH_DIR, "run.py"), "--workload", workload,
                 "--seed", "3", "--seconds", "2", "--trace", str(trace), "--tiny"],
                cwd=run.ROOT, capture_output=True, text=True, timeout=170,
            )
            assert proc.returncode == 0, proc.stderr[-3000:]
            result = last_json(proc.stdout)
            where = f"{workload} trace {trace}"
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
            assert result["correct"] and result["failed"] == 0, (where, proc.stderr[-3000:])
            assert result["attempted"] >= 1, where
            want = {m["name"]: m["unit"] for m in manifest[section]}
            got = result["metrics"]
            assert set(got) == set(want), (where, set(got) ^ set(want))
            for name, unit in want.items():
                assert got[name]["unit"] == unit, (where, name)
                value = got[name]["value"]
                assert isinstance(value, (int, float)) and set(got[name]) == {"value", "unit"}, (
                    where, name)
                assert f"{name} " in proc.stdout, (where, name, "not printed")
            if trace == 0:
                assert all(got[name]["value"] > 0 for name in want), (where, got)
            print(f"ok {where}: {result['attempted']} operations")
    for m in manifest["per_layer"]:
        run.moves(m["name"])  # every layer metric says what it should move


def test_without_program() -> None:
    """In a directory with only the benchmark, it must fail without a result."""
    work_root = os.path.join(run.ROOT, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=work_root)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.BENCH_DIR, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "paper_sweep", "--seed", "1",
             "--seconds", "2", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
        assert proc.returncode != 0, "ran without the program"
        assert "correct" not in proc.stdout, "printed a result without the program"
    finally:
        shutil.rmtree(bare)
        try:
            os.rmdir(work_root)
        except OSError:
            pass


def main() -> int:
    test_checker()
    print("ok checker rejects corrupted payloads")
    test_without_program()
    print("ok fails without the program")
    test_workloads()
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
