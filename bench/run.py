"""Benchmark for zetapoly: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload defect2-analyze --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it measures the code under src/.  It
sets up several times (each set-up a fresh process that imports zetapoly
and builds the seeded requests and their reference answers), then sends
the requests one after another, in passes over the request list, until
the next pass would end after --seconds (but at least two passes; one when
traced).  Every answer is checked against
the reference.  With --trace 1 each request is replayed as the public
calls its entry point makes, one span per call, and the run reports
per-layer metrics instead of end-to-end ones.

Stdout ends with one JSON line: {"correct", "attempted", "failed",
"metrics"}.  The lines before it give each metric with its unit and sample
count, and the host.  Spans and the full record go to
bench/.work/results/.  See bench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import calibration
import inputs
from tracing import Tracer, self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

SETUPS = 5
# plain runs take at least two samples of every request
PLAIN_MIN_PASSES = 2
SETUP_TIMEOUT_S = 60

# layers traced at the benchmark's side of each public call
LAYERS = (
    "defect2.analyze",
    "defect2.scan_terms",
    "defect2.scan_signs",
    "defect2.recurrence",
    "lpoly.trace_route",
    "defect2.symmetry",
    "parapermanent.compositions",
    "lpoly.s_values",
    "lpoly.recurrence",
    "parapermanent.prefixes",
    "lpoly.oracle",
    "lpoly.class_number",
    "cli",
)
CALLS_COUNTED = ("defect2.scan_terms", "defect2.scan_signs", "defect2.symmetry")
PER_TERM = CALLS_COUNTED + ("parapermanent.compositions",)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def set_up(workload: str, seed: int, workdir: Path) -> tuple[list[float], dict]:
    """Run SETUPS set-ups in fresh processes; all must build the same inputs."""
    times = []
    digests = set()
    data: dict = {}
    for _ in range(SETUPS):
        subprocess.run(
            [sys.executable, str(BENCH / "inputs.py"), "--workload", workload,
             "--seed", str(seed), "--src", str(SRC), "--out", str(workdir)],
            check=True,
            timeout=SETUP_TIMEOUT_S,
        )
        text = (workdir / "inputs.json").read_text(encoding="utf-8")
        data = json.loads(text)
        times.append(data.pop("setup_s"))
        digests.add(hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest())
    if len(digests) != 1:
        raise RuntimeError("set-ups from one seed built different inputs")
    return times, data


def attempt(action) -> list[str]:
    try:
        return action()
    except Exception as exc:  # a failed request is counted, not fatal
        return [f"raised {exc!r}"]


def closed_loop(requests: list[dict], seconds: int, send, min_passes: int = 1):
    """Send the requests in passes until the next pass would overrun `seconds`.

    At least `min_passes` passes run, however long they take.
    `send(pass_index, index, request)` makes one request and returns a
    function that checks its answers and returns the problems, so that
    checking stays out of the latency.  Returns per-request raw latencies
    and host-speed factors (see calibration.py), pass durations, the failed
    attempts and the calibration sampler.
    """
    intervals: list[list[tuple[float, float]]] = [[] for _ in requests]
    passes: list[float] = []
    failures = []
    with calibration.Sampler() as sampler:
        started = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            for index, request in enumerate(requests):
                begin = time.perf_counter()
                verify = send(len(passes), index, request)
                intervals[index].append((begin, time.perf_counter()))
                problems = verify()
                if problems:
                    failures.append(
                        {"pass": len(passes), "request": index, "problems": problems[:5]}
                    )
            passes.append(time.perf_counter() - pass_start)
            if (
                len(passes) >= min_passes
                and time.perf_counter() - started + statistics.median(passes) > seconds
            ):
                break
    latencies = [[end - begin for begin, end in runs] for runs in intervals]
    factors = [[sampler.factor(begin, end) for begin, end in runs] for runs in intervals]
    return latencies, factors, passes, failures, sampler


def percentile(samples: list[float], p: int) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(samples)
    rank = max(1, -(-p * len(ordered) // 100))
    return ordered[rank - 1], len(ordered) - rank


def percentile_note(count: int, beyond: int) -> str:
    note = f"n={count}, {beyond} beyond"
    if beyond < 10:
        note += " (fewer than 10 beyond: not resolved)"
    return note


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN covers the reaped
    # worker processes, which RUSAGE_SELF never sees
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024


def plain_run(program, requests: list[dict], threads: int, seconds: int, setup_times: list[float]):
    def send(pass_index: int, index: int, request: dict):
        try:
            output = program.execute(request, threads)
        except Exception as exc:  # counted as a failed request
            return lambda: [f"raised {exc!r}"]
        return lambda: attempt(lambda: program.check(request, output))

    raw, factors, passes, failures, _ = closed_loop(requests, seconds, send, PLAIN_MIN_PASSES)
    latencies = [[x * f for x, f in zip(*pair)] for pair in zip(raw, factors)]
    samples = [x for per_request in latencies for x in per_request]
    p50, beyond50 = percentile(samples, 50)
    p90, beyond90 = percentile(samples, 90)
    raw_wall = sum(statistics.median(per_request) for per_request in raw)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s", f"median of {len(setup_times)} set-ups"),
        "wall_s": (
            sum(statistics.median(per_request) for per_request in latencies),
            "s",
            f"sum over {len(requests)} requests of each one's median over {len(passes)} passes"
            f" (raw {raw_wall:.3f} s)",
        ),
        "latency_p50_ms": (p50 * 1e3, "ms", percentile_note(len(samples), beyond50)),
        "latency_p90_ms": (p90 * 1e3, "ms", percentile_note(len(samples), beyond90)),
        "peak_rss_mb": (peak_rss_mb(), "MB", "max of RUSAGE_SELF and RUSAGE_CHILDREN"),
    }
    timings = [
        {"request": index, "pass": pass_index, "raw_s": x, "factor": f}
        for index, pair in enumerate(zip(raw, factors))
        for pass_index, (x, f) in enumerate(zip(*pair))
    ]
    return metrics, len(samples), failures, [], timings


def traced_run(program, requests: list[dict], threads: int, seconds: int):
    tracer = Tracer()

    def send(pass_index: int, index: int, request: dict):
        tracer.pass_index = pass_index
        request_id = f"{pass_index}:{index}"
        problems = attempt(lambda: program.replay(request, threads, tracer, request_id))
        return lambda: problems

    started = time.perf_counter()
    latencies, _, passes, failures, sampler = closed_loop(requests, seconds, send)
    wall = time.perf_counter() - started
    durations = {
        span["id"]: (span["end"] - span["start"]) * sampler.factor(span["start"], span["end"])
        for span in tracer.spans
    }
    metrics, observed = layer_metrics(tracer.spans, durations, len(passes), threads)
    metrics["trace.overhead_frac"] = (
        tracer.overhead_s / wall, "ratio", "span bookkeeping time over traced wall time"
    )
    return metrics, sum(map(len, latencies)), failures, observed, tracer.spans


def layer_metrics(spans: list[dict], durations: dict[int, float], passes: int, threads: int):
    """Per-layer metrics, each the median over passes of its per-pass total.

    `durations` gives each span's duration in reference seconds; CPU times
    are scaled by the same factor.  Returns the metrics and, per pass, the
    counts that must repeat exactly.
    """
    own = self_times(spans, durations)
    totals = [defaultdict(float) for _ in range(passes)]
    errors: dict[str, int] = defaultdict(int)
    for span in spans:
        total = totals[span["pass"]]
        name = span["name"]
        total[f"{name}.self_s"] += own[span["id"]]
        total[f"{name}.calls"] += 1
        total[f"{name}.terms"] += span["terms"]
        total["compositions.terms"] += span["terms"]
        errors[name] += span["error"] is not None
        if "cpu_self" in span:
            wall = durations[span["id"]]
            scale = wall / (span["end"] - span["start"])
            total["scan.wall"] += wall
            total["scan.cpu"] += (span["cpu_self"] + span["cpu_children"]) * scale
            if span["cpu_children"] > 0:
                total["scan.wait"] += wall - span["cpu_self"] * scale

    def median(value) -> float:
        return statistics.median(value(total) for total in totals)

    def ratio(top: str, bottom: str, scale: float = 1.0):
        return median(lambda t: t[top] * scale / t[bottom] if t[bottom] else 0.0)

    def count(key: str) -> tuple:
        return int(median(lambda t: t[key])), "count", "per pass"

    metrics = {"compositions.terms": count("compositions.terms")}
    for layer in LAYERS:
        if layer in CALLS_COUNTED:
            metrics[f"{layer}.calls"] = count(f"{layer}.calls")
        metrics[f"{layer}.self_s"] = (median(lambda t: t[f"{layer}.self_s"]), "s", "per pass")
        if layer in PER_TERM:
            per_term = ratio(f"{layer}.self_s", f"{layer}.terms", 1e9)
            metrics[f"{layer}.ns_per_term"] = (per_term, "ns", "self time over terms scanned")
        metrics[f"{layer}.errors"] = (errors[layer], "count", "whole run")
    metrics["defect2.scan.cpu_s"] = (
        median(lambda t: t["scan.cpu"]), "s", "parent and worker CPU, per pass"
    )
    metrics["defect2.scan.parallel_eff"] = (
        ratio("scan.cpu", "scan.wall", 1 / threads), "ratio", f"CPU over wall x {threads} workers"
    )
    metrics["defect2.scan.wait_s"] = (
        median(lambda t: t["scan.wait"]), "s", "parent wall minus parent CPU in pooled scans"
    )
    counted = ("compositions.terms", *(f"{layer}.calls" for layer in CALLS_COUNTED))
    observed = [{key: int(total[key]) for key in counted} for total in totals]
    return metrics, observed


def check_counts(workload: str, seed: int, expected: dict, observed: list[dict]) -> list[str]:
    """Counts must match the inputs in every pass and repeat across runs of a seed."""
    problems = [
        f"pass {index} counted {counts}, the inputs require {expected}"
        for index, counts in enumerate(observed)
        if counts != expected
    ]
    path = WORK / f"counts-{workload}-seed{seed}.json"
    if path.exists():
        earlier = json.loads(path.read_text(encoding="utf-8"))
        if earlier != expected:
            problems.append(f"counts {expected} differ from an earlier run of this seed: {earlier}")
    else:
        path.write_text(json.dumps(expected), encoding="utf-8")
    return problems


def nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "zetapoly").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.workload not in inputs.WORKLOADS:
        print(f"error: --workload must be one of {inputs.WORKLOADS}", file=sys.stderr)
        return 2
    if not (SRC / "zetapoly" / "__init__.py").is_file():
        print(f"error: no {SRC}/zetapoly; run from the root of a checkout", file=sys.stderr)
        return 2
    workdir = WORK / f"run-{os.getpid()}"
    try:
        setup_times, data = set_up(args.workload, args.seed, workdir)
        sys.path.insert(0, str(SRC))
        import program
        import zetapoly

        if not Path(zetapoly.__file__).resolve().is_relative_to(SRC.resolve()):
            print(f"error: imported zetapoly from {zetapoly.__file__}, not {SRC}", file=sys.stderr)
            return 2
        threads = nproc()
        requests = data["requests"]
        if args.trace:
            outcome = traced_run(program, requests, threads, args.seconds)
        else:
            outcome = plain_run(program, requests, threads, args.seconds, setup_times)
        metrics, attempted, failures, observed, timings = outcome
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    count_problems = check_counts(args.workload, args.seed, data["counts"], observed)
    host = {
        "nproc": threads,
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "seed": args.seed,
    }
    failed = len(failures)
    print(f"# zetapoly benchmark: {args.workload}, trace={args.trace}, seconds={args.seconds}")
    print(f"# host: {json.dumps(host)}")
    print(f"# requests per pass: {len(requests)}; counts per pass: {json.dumps(data['counts'])}")
    for name, (value, unit, note) in metrics.items():
        print(f"{name:<40} {value:>16.6g} {unit:<6} {note}")
    share = failed / attempted
    print(f"{'failed_frac':<40} {share:>16.6g} {'ratio':<6} {failed} of {attempted} attempted")
    for problem in count_problems + [json.dumps(f) for f in failures[:10]]:
        print(f"# problem: {problem}")
    record = {
        "host": host,
        "args": vars(args),
        "setup_times": setup_times,
        "metrics": {
            name: {"value": v, "unit": u, "note": n} for name, (v, u, n) in metrics.items()
        },
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "count_problems": count_problems,
        "timings": timings,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record), encoding="utf-8"
    )
    print(json.dumps({
        "correct": not failures and not count_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
