"""groupwidths benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload pw_ladder --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # table of every workload

Each run starts fresh worker processes (single-threaded numpy, no
GROUPWIDTHS_CAP in the environment): two that only set up, then the one
that measures.  ``setup_s`` is the median of the three set-up times.
Times are scaled to a fixed machine speed measured by a reference loop
(see reference.py); the stamp line also carries the raw seconds.  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import reference_time, scaled

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pw_ladder", "width_oracle", "qh_text", "decompose_lib")
# the layer (or layers) each workload is built around: more than half of its traced pass
DOMINANT = {
    "pw_ladder": ("finite_groups.FiniteGroup.init",),
    "width_oracle": ("pal_width",),
    "qh_text": ("free_words.FreeWord.mul",),
    "decompose_lib": ("decompose", "wreath"),
}
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 160.0


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("GROUPWIDTHS_CAP", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def worker(args: argparse.Namespace, workload: str, workdir: Path, deadline: float,
           *extra: str) -> dict:
    """Spawn one worker and return its JSON line, with its set-up time
    scaled between reference timings taken here before the spawn and in
    the worker after set-up; raises on any failure."""
    workdir.mkdir(parents=True)
    before = reference_time()
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--t0", repr(t0), "--workdir", str(workdir), *extra]
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, min(CHILD_TIMEOUT_S, deadline - t0)))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if "setup_raw_s" in out:
        out["setup_s"] = scaled(out["setup_raw_s"], before, out["reference_after_setup_s"])
    return out


def run_workload(args: argparse.Namespace, workload: str, deadline: float) -> dict:
    base = ROOT / ".bench_work" / f"{workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    try:
        setups = []
        if not args.trace:
            for k in range(SETUP_REPEATS - 1):
                setups.append(worker(args, workload, base / f"setup{k}", deadline, "--setup-only"))
        result = worker(args, workload, base / "run", deadline)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    setups.append(result)
    result["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    result["setup_samples"] = {"scaled": [s["setup_s"] for s in setups],
                               "raw": [s["setup_raw_s"] for s in setups]}
    return result


def metrics_of(result: dict, trace: int) -> dict:
    if trace:
        return {name: {"value": value, "unit": unit_of(name)}
                for name, value in sorted(result["layers"].items())
                if name != "pal_width.covering.useful"}
    lat = result["latency"]
    return {
        "setup_s": {"value": result["setup_s"], "unit": "s"},
        "wall_s": {"value": result["wall_s"], "unit": "s"},
        "job_p50_s": {"value": lat["p50"], "unit": "s"},
        "job_p90_s": {"value": lat["p90"], "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MiB"},
    }


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_ratio")):
        return "ratio"
    return "count"


def stamp(result: dict, workload: str, args: argparse.Namespace) -> dict:
    keys = ("python", "numpy", "inputs_sha256", "inputs_match_recorded", "jobs_per_pass",
            "passes", "setup_samples", "raw", "errors", "spans_file")
    out = {"workload": workload, "seed": args.seed, "nproc": os.cpu_count(),
           "error_rate": result["failed"] / result["attempted"]}
    out.update({k: result[k] for k in keys if k in result})
    if "layers" in result:
        share = sum(result["layers"][f"{name}.self_share"] for name in DOMINANT[workload])
        out["dominant_layer"] = {"layers": DOMINANT[workload], "self_share": share}
    if "latency" in result:
        out["latency_samples"] = result["latency"]["samples"]
        out["samples_beyond_p90"] = result["latency"]["beyond_p90"]
    return out


def print_table(results: dict, trace: int) -> None:
    names = list(next(iter(results.values()))["metrics"])
    if not trace:
        names.append("error_rate")
    print(f"{'metric':44}" + "".join(f"{w:>16}" for w in results))
    for name in names:
        cells = []
        for r in results.values():
            if name == "error_rate":
                cells.append(f"{r['failed'] / r['attempted']:.4f} ratio")
            else:
                m = r["metrics"][name]
                cells.append(f"{m['value']:.5g} {m['unit']}")
        print(f"{name:44}" + "".join(f"{c:>16}" for c in cells))


def record(args: argparse.Namespace, chosen: tuple[str, ...]) -> int:
    """Store one pass's results and input digest per workload; the worker
    compares runs with the default seed against them."""
    path = HERE / "expected.json"
    expected = json.loads(path.read_text()) if path.exists() else {}
    for workload in chosen:
        base = ROOT / ".bench_work" / f"record-{workload}-{os.getpid()}"
        try:
            out = worker(args, workload, base, time.monotonic() + 170.0, "--record")
        finally:
            shutil.rmtree(base, ignore_errors=True)
        if out["failures"]:
            print(f"error: {workload}: {out['failures']}", file=sys.stderr)
            return 1
        expected[workload] = out["expected"]
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="write the chosen workloads' results for this seed to expected.json")
    args = parser.parse_args()

    if not (ROOT / "src" / "groupwidths" / "__init__.py").is_file():
        print(f"error: no groupwidths sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    if args.record:
        return record(args, chosen)
    results = {}
    for workload in chosen:
        deadline = time.monotonic() + 170.0
        try:
            result = run_workload(args, workload, deadline)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps({"stamp": stamp(result, workload, args)}))
        results[workload] = {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics_of(result, args.trace),
        }
    if len(results) == 1:
        print(json.dumps(results[args.workload]))
        return 0
    print_table(results, args.trace)
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
