"""One workload run in a fresh process: set up, time passes over the job
list, check every result, print one JSON line.

Started by run.py, which passes the monotonic clock reading taken just
before the process was spawned, so that ``setup_s`` covers interpreter
start, ``import groupwidths`` (numpy included), input generation and
untimed construction.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 0
MIN_SAMPLES = 100  # job latencies per run, so that p90 has 10 samples beyond it
HARD_STOP_S = 120.0  # no new pass after this, whatever --seconds says

sys.path.insert(0, str(ROOT / "src"))
import groupwidths  # noqa: E402

if Path(groupwidths.__file__).resolve().parent != ROOT / "src" / "groupwidths":
    sys.exit(f"groupwidths imported from {groupwidths.__file__}, not from {ROOT / 'src'}")

import numpy  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from reference import reference_loop, reference_time, scaled  # noqa: E402

LAYERS = ("finite_groups", "nilprod", "pal_width", "free_words", "wreath", "decompose", "cli")


def run_pass(wl, tracer=None) -> tuple[list[float], list[float], list[tuple[str, str]], dict]:
    """All jobs once, closed loop.  Returns raw and speed-scaled latencies,
    failures and result summaries; checks and reference loops run between
    jobs, untimed."""
    latencies, scaled_latencies, failures, summaries = [], [], [], {}
    for i, job in enumerate(wl.jobs):
        if tracer is not None:
            tracer.job = i
        before = reference_loop()
        error = None
        start = time.perf_counter()
        try:
            out = job.run()
        except (Exception, SystemExit) as exc:  # a crash is a failed job, never a dropped one
            error = exc
        latency = time.perf_counter() - start
        after = reference_loop()
        latencies.append(latency)
        scaled_latencies.append(scaled(latency, before, after))
        if error is not None:
            failures.append((job.key, f"raised {error!r}"))
            continue
        if tracer is not None and isinstance(out, workloads.CliResult):
            tracer.counts["cli.report_bytes"] += len(out.stdout.encode("utf-8"))
        try:
            summaries[job.key] = job.check(out)
        except (workloads.WrongResult, ValueError, KeyError, TypeError) as exc:
            failures.append((job.key, f"wrong result: {exc}"))
    failures += wl.cross_check(summaries)
    return latencies, scaled_latencies, failures, summaries


def compare_recorded(summaries: dict, recorded: dict) -> list[tuple[str, str]]:
    return [
        (key, f"result {summaries[key]} differs from recorded {want}")
        for key, want in recorded.items()
        if key in summaries and summaries[key] != want
    ]


class Run:
    def __init__(self, wl, recorded: dict | None) -> None:
        self.wl = wl
        self.recorded = recorded
        self.start = time.monotonic()
        self.raw_walls: list[float] = []
        self.raw_latencies: list[float] = []
        self.walls: list[float] = []  # speed-scaled, as are latencies
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def one_pass(self, tracer=None) -> float:
        began = time.monotonic()
        raw, scaled, failures, summaries = run_pass(self.wl, tracer)
        if self.recorded is not None:
            failures += compare_recorded(summaries, self.recorded)
        failed_keys = {key for key, _ in failures}
        self.attempted += len(raw)
        self.failed += len(failed_keys)
        self.errors += [f"{key}: {msg}" for key, msg in failures][: 10 - len(self.errors)]
        self.raw_walls.append(sum(raw))
        self.raw_latencies += raw
        self.walls.append(sum(scaled))
        self.latencies += scaled
        return time.monotonic() - began

    def passes_until(self, deadline: float, tracer=None, min_samples: int = 0) -> None:
        """Whole passes while the next one should end by the deadline; at
        least one, and at least min_samples latencies in the run."""
        first = len(self.walls)
        last = 0.0
        while len(self.walls) == first or len(self.latencies) < min_samples or (
            time.monotonic() - self.start + last <= deadline
        ):
            if time.monotonic() - self.start > HARD_STOP_S:
                break
            last = self.one_pass(tracer)


def _betacf(a: float, b: float, x: float) -> float:
    # continued fraction of the incomplete beta function (modified Lentz)
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 500):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-14:
            break
    return h


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0 or x >= 1.0:
        return max(0.0, min(1.0, x))
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def quantile(samples: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of
    all order statistics.  Job latencies come in clusters with gaps, where
    a single order statistic jumps across the gap from run to run."""
    xs = sorted(samples)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [_betainc(a, b, i / n) for i in range(n + 1)]
    return sum(x * (hi - lo) for x, lo, hi in zip(xs, cdf, cdf[1:]))


def percentile_summary(latencies: list[float]) -> dict:
    p90 = quantile(latencies, 0.9)
    return {
        "p50": quantile(latencies, 0.5),
        "p90": p90,
        "samples": len(latencies),
        "beyond_p90": sum(1 for x in latencies if x > p90),
    }


def layer_metrics(tracer, run: Run, first_traced: int) -> dict:
    """Per-pass layer metrics.  Self times and shares use raw seconds; the
    overhead compares scaled pass times with tracing on and off."""
    traced_walls = run.raw_walls[first_traced:]
    n = len(traced_walls)
    per_pass = {}
    for name in tracing.TRACED:
        per_pass[f"{name}.calls"] = tracer.calls.get(name, 0) / n
        per_pass[f"{name}.self_s"] = tracer.self_s.get(name, 0.0) / n
    for name, value in tracer.counts.items():
        per_pass[name] = value / n
    products = tracer.counts.get("pal_width.covering.products", 0)
    per_pass["pal_width.covering.useful_ratio"] = (
        tracer.counts.get("pal_width.covering.useful", 0) / products if products else 0.0
    )
    wall = sum(traced_walls) / n
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name in tracing.TRACED:
        layer_self[name.split(".")[0]] += per_pass[f"{name}.self_s"]
    for layer, s in layer_self.items():
        per_pass[f"{layer}.self_share"] = s / wall
    per_pass["harness.self_share"] = 1.0 - sum(layer_self.values()) / wall
    for name in ("finite_groups.FiniteGroup.init", "free_words.FreeWord.mul"):
        per_pass[f"{name}.self_share"] = per_pass[f"{name}.self_s"] / wall
    scaled_on = statistics.median(run.walls[first_traced:])
    per_pass["trace.wall_s"] = scaled_on
    per_pass["trace.overhead_s"] = scaled_on - statistics.median(run.walls[:first_traced])
    return per_pass


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record", action="store_true", help="print one pass's results")
    args = parser.parse_args()

    wl = workloads.WORKLOADS[args.workload]()
    wl.setup(random.Random(args.seed), args.workdir)
    setup = {"setup_raw_s": time.monotonic() - args.t0, "reference_after_setup_s": reference_time()}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    digest = wl.inputs_sha256()
    if args.record:
        _, _, failures, summaries = run_pass(wl)
        print(json.dumps({"failures": failures, "expected": {
            "inputs_sha256": digest, "results": summaries}}))
        return 0

    recorded = None
    digest_ok = True
    if args.seed == DEFAULT_SEED:
        expected = json.loads((Path(__file__).parent / "expected.json").read_text())[args.workload]
        recorded = expected["results"]
        digest_ok = expected["inputs_sha256"] == digest

    run = Run(wl, recorded)
    out = {
        **setup,
        "inputs_sha256": digest,
        "inputs_match_recorded": digest_ok if recorded is not None else None,
        "jobs_per_pass": len(wl.jobs),
    }
    if args.trace:
        run.passes_until(args.seconds / 2)
        first_traced = len(run.walls)
        tracer = tracing.Tracer()
        tracer.install()
        run.passes_until(args.seconds, tracer)
        out["layers"] = layer_metrics(tracer, run, first_traced)
        out["passes"] = {"untraced": first_traced, "traced": len(run.walls) - first_traced}
        spans = ROOT / ".bench_work" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(str(spans))
        out["spans_file"] = str(spans.relative_to(ROOT))
    else:
        run.passes_until(args.seconds, min_samples=MIN_SAMPLES)
        out["passes"] = len(run.walls)
        out["wall_s"] = statistics.median(run.walls)
        out["latency"] = percentile_summary(run.latencies)
        raw = percentile_summary(run.raw_latencies)
        out["raw"] = {"wall_s": statistics.median(run.raw_walls), "pass_walls": run.raw_walls,
                      "job_p50_s": raw["p50"], "job_p90_s": raw["p90"]}
    out.update(
        attempted=run.attempted,
        failed=run.failed,
        correct=run.failed == 0 and digest_ok,
        errors=run.errors,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        python=sys.version.split()[0],
        numpy=numpy.__version__,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
