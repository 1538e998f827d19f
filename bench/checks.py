"""Output checks for the benchmark, written against the paper's closed forms.

Nothing here imports the package under test: the expectations are derived
again from the model so that a change to ``twoway_qkd.analysis`` cannot
move the yardstick it is measured with.  No seeded counter value or output
digest is pinned, so a change to the simulator's draw order keeps passing as
long as the physics holds:

* the counter identity ``rounds == lost + mm_rounds + cm_rounds`` with
  ``raw_key <= mm_rounds``, and derived rates that match their counters;
* exactly zero message-mode error under ``nguyen`` and ``lucamarini``, with
  the attacker reading every bit she covers (dark counts aside);
* binomial bands for the detection yield T + (1 - T) * dark, the ``bb84``
  disturbance q/4 (mixed with 1/2 on dark rounds), and the intercepted
  control-mode error 1/2 (``pp``) or 1/4 (``lm05``);
* identical ``config``/``stats`` at any worker count.

Each checker returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from statistics import NormalDist

PASSES = {"bb84": 1, "pp": 4, "lm05": 2}
TRANSPARENT = {"nguyen", "lucamarini"}
CM_INTERCEPT_ERROR = {"nguyen": 0.5, "lucamarini": 0.25}

COUNTERS = (
    "rounds", "lost", "dark", "mm_rounds", "cm_rounds", "raw_key", "mm_errors",
    "cm_errors", "eve_rounds", "eve_mm_rounds", "eve_mm_correct",
    "eve_cm_rounds", "eve_cm_errors",
)

# A band is 3 sigma family-wise.  One two-sided 3-sigma test raises a false
# alarm with probability 0.27%.  Comparing two commits takes about 70 runs of
# the benchmark, with at most 8 band checks each, so up to 560 such tests.
# Each band is widened by Sidak's correction until the chance of any false
# alarm across them is that of a single 3-sigma test.  With the sample sizes
# used here a band is about +-0.01 on a rate in the copy attacks and +-0.02
# in the sweep.
BAND_CHECKS_PER_COMPARISON = 560
_ALPHA = 1.0 - (1.0 - 2.0 * NormalDist().cdf(-3.0)) ** (1.0 / BAND_CHECKS_PER_COMPARISON)
Z_BAND = NormalDist().inv_cdf(1.0 - _ALPHA / 2.0)

D_STAR_TOL = 1e-9
CURVE_TOL = 1e-12


def binary_entropy(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def critical_disturbance() -> float:
    """Root of 1 - 2 h(d) on (0, 1/2), by bisection."""
    lo, hi = 1e-15, 0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 1.0 - 2.0 * binary_entropy(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


D_STAR = critical_disturbance()


def transmittance(config: dict) -> float:
    per_pass = config["p_segment"] * config["detector_efficiency"]
    return per_pass ** PASSES[config["protocol"]]


def expected_yield(config: dict) -> float:
    t = transmittance(config)
    return t + (1.0 - t) * config["dark_count_prob"]


def expected_d_mm(config: dict) -> float:
    """Error rate per raw key bit: real rounds err at q/4 under
    intercept-resend and never otherwise; dark rounds err at 1/2.  Sifting
    keeps real and dark rounds alike, so they mix by detection weight."""
    t = transmittance(config)
    dark = (1.0 - t) * config["dark_count_prob"]
    real_error = config["q"] / 4.0 if config["attack"] == "intercept-resend" else 0.0
    return (t * real_error + dark * 0.5) / (t + dark)


@dataclass
class Bands:
    """Pooled binomial band checks.

    Observations with the same group name are summed: the observed count
    against sum(n * p) with variance sum(n * p * (1 - p)).  Pooling keeps
    the number of tests per run small and fixed.
    """

    groups: dict[str, list[float]] = field(default_factory=dict)

    def add(self, group: str, observed: int, n: int, p: float) -> None:
        acc = self.groups.setdefault(group, [0.0, 0.0, 0.0, 0])
        acc[0] += observed
        acc[1] += n * p
        acc[2] += n * p * (1.0 - p)
        acc[3] += n

    def problems(self) -> list[tuple[str, str]]:
        """(group, description) for every group outside its band."""
        out = []
        for group, (observed, mean, var, n) in sorted(self.groups.items()):
            slack = Z_BAND * math.sqrt(var) + 1e-9
            if n and abs(observed - mean) > slack:
                out.append((group, f"{group}: observed {observed / n:.6f} over {n}, "
                                   f"expected {mean / n:.6f} +- {slack / n:.6f}"))
        return out

    def add_simulate(self, payload: dict) -> list[str]:
        """Add every band observation one ``simulate`` output supports;
        returns the groups it went into."""
        config, stats = payload["config"], payload["stats"]
        protocol, attack = config["protocol"], config["attack"]
        groups = [f"{protocol} yield"]
        self.add(groups[-1], stats["rounds"] - stats["lost"], stats["rounds"],
                 expected_yield(config))
        if protocol == "bb84" or stats["dark"]:
            groups.append(f"{protocol} d_mm")
            self.add(groups[-1], stats["mm_errors"], stats["raw_key"], expected_d_mm(config))
        if attack in CM_INTERCEPT_ERROR:
            groups.append(f"{protocol} d_cm_intercepted")
            self.add(groups[-1], stats["eve_cm_errors"], stats["eve_cm_rounds"],
                     CM_INTERCEPT_ERROR[attack])
        return groups


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def check_simulate(payload: dict, argv_config: dict) -> list[str]:
    """Exact checks on one ``simulate`` JSON payload."""
    problems = []
    config, stats = payload.get("config"), payload.get("stats")
    if not isinstance(config, dict) or not isinstance(stats, dict):
        return ["payload lacks config/stats"]
    for key, want in argv_config.items():
        if config.get(key) != want:
            problems.append(f"config {key}={config.get(key)!r}, asked {want!r}")
    missing = [name for name in COUNTERS if not isinstance(stats.get(name), int)]
    if missing:
        return problems + [f"missing integer counters {missing}"]
    s = stats
    if s["rounds"] != config.get("rounds"):
        problems.append(f"rounds {s['rounds']} != configured {config.get('rounds')}")
    if s["rounds"] != s["lost"] + s["mm_rounds"] + s["cm_rounds"]:
        problems.append("rounds != lost + mm_rounds + cm_rounds")
    if s["raw_key"] > s["mm_rounds"]:
        problems.append("raw_key > mm_rounds")
    derived = {
        "yield_fraction": _ratio(s["rounds"] - s["lost"], s["rounds"]),
        "d_mm": _ratio(s["mm_errors"], s["raw_key"]),
        "d_cm": _ratio(s["cm_errors"], s["cm_rounds"]),
        "d_cm_intercepted": _ratio(s["eve_cm_errors"], s["eve_cm_rounds"]),
        "eve_known_fraction": _ratio(s["eve_mm_correct"], s["raw_key"]),
    }
    for name, want in derived.items():
        got = s.get(name)
        if not isinstance(got, (int, float)) or not math.isclose(
            got, want, rel_tol=1e-12, abs_tol=1e-15
        ):
            problems.append(f"{name}={got!r} disagrees with counters ({want!r})")
    if config.get("attack") in TRANSPARENT:
        if s["dark"] == 0 and s["d_mm"] != 0.0:
            problems.append(f"d_mm={s['d_mm']!r} under {config['attack']}, expected exactly 0.0")
        if s["mm_errors"] > s["dark"]:
            problems.append("message-mode errors beyond the dark-count rounds")
        if s["eve_mm_correct"] != s["eve_mm_rounds"]:
            problems.append("transparent attacker misread a message bit")
    return problems


def check_same_stats(a: dict, b: dict) -> list[str]:
    """Two runs of one config at different worker counts must agree."""
    problems = []
    for part in ("config", "stats"):
        if a.get(part) != b.get(part):
            problems.append(f"{part} differs between worker counts")
    return problems


def parse_csv(text: str) -> tuple[dict[str, str], list[dict[str, str]]]:
    meta, rows, header = {}, [], None
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(dict(zip(header, line.split(","))))
    return meta, rows


def grid_points(start: float, end: float, step: float) -> int:
    return int(round((end - start) / step)) + 1


def check_analyze(text: str, fmt: str, grid: tuple[float, float, float]) -> list[str]:
    """Row count, endpoints and the closed-form curves at every row."""
    if fmt == "json":
        doc = json.loads(text)
        d_star, rows = doc["critical_disturbance"], doc["rows"]
    else:
        meta, rows = parse_csv(text)
        d_star = meta.get("critical_disturbance")
    problems = []
    if abs(float(d_star) - D_STAR) > D_STAR_TOL:
        problems.append(f"critical_disturbance {d_star} != {D_STAR}")
    want_rows = grid_points(*grid)
    if len(rows) != want_rows:
        return problems + [f"{len(rows)} rows, expected {want_rows}"]
    if float(rows[0]["d"]) != grid[0] or float(rows[-1]["d"]) != grid[1]:
        problems.append("grid endpoints not exact")
    previous = -math.inf
    for row in rows:
        d = float(row["d"])
        h = binary_entropy(d)
        i_ab, i_ae = float(row["i_ab"]), float(row["i_ae"])
        if not d > previous:
            problems.append(f"grid not increasing at d={d}")
            break
        previous = d
        if (abs(i_ab - (1.0 - h)) > CURVE_TOL or abs(i_ae - h) > CURVE_TOL
                or abs(float(row["secret_fraction"]) - (i_ab - i_ae)) > CURVE_TOL):
            problems.append(f"curves wrong at d={d}")
            break
    return problems


def check_table(text: str, p_segment: float) -> list[str]:
    _, rows = parse_csv(text)
    got = {row.get("protocol"): row for row in rows}
    if set(got) != set(PASSES):
        return [f"table protocols {sorted(got)}"]
    problems = []
    for protocol, passes in PASSES.items():
        row = got[protocol]
        if int(row["passes"]) != passes:
            problems.append(f"{protocol} passes {row['passes']}")
        if not math.isclose(float(row["transmittance"]), p_segment**passes, rel_tol=1e-12):
            problems.append(f"{protocol} transmittance {row['transmittance']}")
        d = row["critical_disturbance"]
        if protocol == "bb84":
            if abs(float(d) - D_STAR) > D_STAR_TOL:
                problems.append(f"bb84 critical_disturbance {d}")
        elif d != "indeterminable":
            problems.append(f"{protocol} critical_disturbance {d}")
    return problems
