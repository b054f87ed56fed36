"""Seeded requests and reference answers for each benchmark workload.

Run as a script this is one set-up: it imports zetapoly, builds the
workload's request list and reference answers from the seed, writes the
table files that `pper --file` reads, and saves everything as JSON for
run.py.  The time it reports covers exactly that work, in reference
seconds (see calibration.py).

    python3 bench/inputs.py --workload lpoly-wide --seed 1 --src src --out DIR

The same seed always gives the same requests, in the same order.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import calibration
import reference

# defect2-analyze: the paper's headline computation at three sizes
ANALYZE_GENERA = (16, 18, 20)
# lpoly-wide: requests per command, genus range, and q range of the
# composition-free O(g^2) routes (g > 30 skips the composition sum)
WIDE_PER_COMMAND = 18
WIDE_GENUS = (64, 256)
WIDE_Q = (257, 4096)
# exact-walk: sizes at which every route walks all 2^(n-1) compositions
SYMMETRY_N = (12, 13, 14)
WALK_GENUS = (13, 14, 15)
WALK_Q = (2, 64)
PPER_ORDERS = (15, 16, 17)


def is_prime_power(q: int) -> bool:
    for d in range(2, math.isqrt(q) + 1):
        if q % d == 0:
            while q % d == 0:
                q //= d
            return q == 1
    return True


def ladder(k: int, bounds: tuple[int, int]) -> list[int]:
    """k evenly spaced integers from lo to hi."""
    lo, hi = bounds
    return [lo + round(i * (hi - lo) / (k - 1)) for i in range(k)]


def prime_power_ladder(k: int, bounds: tuple[int, int]) -> list[int]:
    """k prime powers: the least one >= each of k log-evenly spaced points of [lo, hi]."""
    lo, hi = bounds
    fields = []
    for i in range(k):
        q = round(lo * (hi / lo) ** (i / (k - 1)))
        while not is_prime_power(q):
            q += 1
        fields.append(q)
    return fields


def draw_traces(rng: random.Random, q: int, g: int) -> list[int]:
    bound = math.isqrt(4 * q)
    return [rng.randint(-bound, bound) for _ in range(g)]


def csv_ints(values: list[int]) -> str:
    return ",".join(str(v) for v in values)


def analyze_request(g: int) -> dict:
    """defect2.analyze(g) over both branches, with its reference report."""
    thetas = reference.THETA_TRACES
    expect = {
        "g": g,
        "max_n": g,
        "a": {theta: reference.defect2_coeffs(g, theta, g) for theta in thetas},
        "tallies": {theta: reference.sign_tallies(g, theta, g) for theta in thetas},
    }
    return {"kind": "analyze", "g": g, "expect": expect}


def symmetry_request(n: int, g: int) -> dict:
    return {"kind": "symmetry", "n": n, "g": g, "expect": {"holds": reference.symmetry_holds(n, g)}}


def cli_request(command: str, q: int, traces: list[int], methods: list[str]) -> dict:
    """`lpoly from-traces`, `lpoly from-counts` or `classnumber --traces`.

    `methods` is the methods_run the answer must report; `--method all` is
    passed when it includes the composition route.
    """
    request = {"kind": "lpoly", "q": q, "traces": traces}
    if command == "classnumber":
        request["kind"] = "classnumber"
        request["argv"] = ["classnumber", "--q", str(q), "--traces", csv_ints(traces)]
        request["expect"] = {"h": reference.class_number(q, traces)}
        return request
    if command == "from-counts":
        request["counts"] = reference.point_counts(q, traces)
        counts = csv_ints(request["counts"])
        request["argv"] = ["lpoly", "from-counts", "--q", str(q), "--counts", counts]
    else:
        request["argv"] = ["lpoly", "from-traces", "--q", str(q), "--traces", csv_ints(traces)]
    if "compositions" in methods:
        request["argv"] += ["--method", "all"]
    request["expect"] = {
        "coeffs": reference.trace_product(q, traces),
        "h": reference.class_number(q, traces),
        "methods_run": methods,
    }
    return request


def pper_request(rows: list[list[str]], path: Path) -> dict:
    """`pper --file` on a table of rational strings, written to `path`."""
    path.write_text(json.dumps({"order": len(rows), "rows": rows}), encoding="utf-8")
    value = reference.pper_last_row([[Fraction(x) for x in row] for row in rows])
    return {
        "kind": "pper",
        "argv": ["pper", "--file", str(path)],
        "rows": rows,
        "expect": {"pper": reference.render_rational(value)},
    }


def defect2_analyze(rng: random.Random, workdir: Path) -> list[dict]:
    genera = list(ANALYZE_GENERA)
    rng.shuffle(genera)
    return [analyze_request(g) for g in genera]


def lpoly_wide(rng: random.Random, workdir: Path) -> list[dict]:
    # g and q form fixed ladders, so a pass costs the same from seed to
    # seed and its latency percentiles stay put; the seed draws the traces
    # and the order.  Each command pairs the ladders at another offset.
    requests = []
    genera = ladder(WIDE_PER_COMMAND, WIDE_GENUS)
    fields = prime_power_ladder(WIDE_PER_COMMAND, WIDE_Q)
    for shift, command in enumerate(("from-traces", "from-counts", "classnumber")):
        for i, g in enumerate(genera):
            q = fields[(i + shift * WIDE_PER_COMMAND // 3) % WIDE_PER_COMMAND]
            traces = draw_traces(rng, q, g)
            # the command refuses negative point counts
            while command == "from-counts" and min(reference.point_counts(q, traces)) < 0:
                traces = draw_traces(rng, q, g)
            requests.append(cli_request(command, q, traces, ["recurrence", "pper"]))
    rng.shuffle(requests)
    return requests


def exact_walk(rng: random.Random, workdir: Path) -> list[dict]:
    requests = [symmetry_request(n, rng.randint(n, 24)) for n in SYMMETRY_N]
    for g, q in zip(WALK_GENUS, prime_power_ladder(len(WALK_GENUS), WALK_Q)):
        methods = ["recurrence", "pper", "compositions"]
        requests.append(cli_request("from-traces", q, draw_traces(rng, q, g), methods))
    for order in PPER_ORDERS:
        rows = [
            [f"{rng.choice((-1, 1)) * rng.randint(1, 9)}/{rng.randint(1, 9)}" for _ in range(i)]
            for i in range(1, order + 1)
        ]
        requests.append(pper_request(rows, workdir / f"table-{order}.json"))
    rng.shuffle(requests)
    return requests


BUILDERS = {
    "defect2-analyze": defect2_analyze,
    "lpoly-wide": lpoly_wide,
    "exact-walk": exact_walk,
}
WORKLOADS = tuple(BUILDERS)


def work_counts(requests: list[dict]) -> dict[str, int]:
    """Work one pass over the requests must do, computed from the inputs alone.

    `compositions.terms` sums 2^(n-1) over every composition scan: the two
    a_n scans and two sign scans per (n, theta) of analyze, the termwise walk
    plus the two a_n scans of verify_symmetry, the composition route of
    `lpoly --method all` (2^g terms over n = 0..g), and `pper`'s composition
    sum.
    """
    counts = {
        "compositions.terms": 0,
        "defect2.scan_terms.calls": 0,
        "defect2.scan_signs.calls": 0,
        "defect2.symmetry.calls": 0,
    }
    for request in requests:
        kind = request["kind"]
        if kind == "analyze":
            g = request["g"]
            counts["defect2.scan_terms.calls"] += 2 * g
            counts["defect2.scan_signs.calls"] += 2 * g
            counts["compositions.terms"] += 4 * ((1 << g) - 1)
        elif kind == "symmetry":
            counts["defect2.symmetry.calls"] += 1
            counts["compositions.terms"] += 3 << (request["n"] - 1)
        elif kind == "lpoly" and "compositions" in request["expect"]["methods_run"]:
            counts["compositions.terms"] += 1 << len(request["traces"])
        elif kind == "pper":
            counts["compositions.terms"] += 1 << (len(request["rows"]) - 1)
    return counts


def build(workload: str, seed: int, workdir: Path) -> dict:
    workdir.mkdir(parents=True, exist_ok=True)
    requests = BUILDERS[workload](random.Random(f"{workload}:{seed}"), workdir)
    return {
        "workload": workload,
        "seed": seed,
        "requests": requests,
        "counts": work_counts(requests),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--src", required=True, help="directory that holds the zetapoly package")
    parser.add_argument("--out", required=True, help="directory for the tables and inputs.json")
    args = parser.parse_args()
    out = Path(args.out)
    with calibration.Sampler() as sampler:
        for _ in range(calibration.NEAREST):
            sampler.record()
        started = time.perf_counter()
        sys.path.insert(0, args.src)
        import zetapoly  # noqa: F401  (import time is part of set-up)

        inputs = build(args.workload, args.seed, out)
        ended = time.perf_counter()
        for _ in range(calibration.NEAREST):
            sampler.record()
    inputs["setup_s"] = (ended - started) * sampler.factor(started, ended)
    (out / "inputs.json").write_text(json.dumps(inputs), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
