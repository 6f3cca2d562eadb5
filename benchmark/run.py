"""qkdplan benchmark: plan latency end to end, and per layer from a trace.

Usage (from the root of a checkout)::

    python3 benchmark/run.py --workload {fig3-mmd,synth6-mmd,pass-mr} \
        --seed N --seconds S --trace {0,1}

Plans run in single-threaded worker processes (``worker.py``) with
OpenBLAS, OpenMP and MKL pinned to one thread and a fixed hash seed,
importing ``qkdplan`` from ``src/`` of this checkout.  With ``--trace 0``
the run is ``SEGMENTS[workload]`` workers in a row, each given an equal
share of ``--seconds``: each sets up, makes its first plan cold, then
continues the workload's plan sequence where the previous one stopped.
Set-up and first-plan times are medians over the workers, so they are
sampled across the whole run; the warm plan times of all workers are
pooled.
With ``--trace 1`` one worker plans every input once traced and once
untraced, interleaved, writes the spans to ``.bench_out/``, and the
benchmark prints the per-layer metrics.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fig3-mmd", "synth6-mmd", "pass-mr")
# Worker processes per --trace 0 run.  Each gives one set-up and one cold
# first plan; their medians need many workers where a worker is cheap.
SEGMENTS = {"fig3-mmd": 8, "synth6-mmd": 10, "pass-mr": 20}
BUDGET_S = 170.0  # every run ends well inside 180 s

END_TO_END = {
    "plan_p50_s": "s",
    "plan_tail_s": "s",
    "plans_per_s": "1/s",
    "first_plan_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "delivered_bits": "bits",
    "min_fulfilled_bits": "bits",
    "consumption_rate": "bits/bit",
    "ok_ratio": "ratio",
}


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]),
    )
    return env


def start_worker(args: list[str], work: Path, deadline: float) -> tuple[float, dict]:
    """Run one worker to completion; return its spawn time and its result."""
    work.mkdir(parents=True)
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), "--work", str(work), *args],
        stdout=subprocess.PIPE, env=worker_env(), cwd=ROOT, text=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker {args} ran out of time") from None
    if proc.returncode != 0 or not out.strip():
        raise RuntimeError(f"worker {args} exited with {proc.returncode}")
    return spawned, json.loads(out.strip().splitlines()[-1])


def tail_level(n: int) -> float:
    """Highest quantile with at least ten samples beyond it (the median below 20)."""
    return max(0.5, 1.0 - 10.0 / n)


def input_medians(segments: list[tuple[float, dict]]) -> list[float]:
    """Each input's median warm plan time.  A single plan's time carries the
    host's jitter; the median over an input's repeats (a whole pass over
    the inputs apart) keeps what the input costs."""
    per_input: dict[int, list[float]] = {}
    for _, r in segments:
        for index, seconds in zip(r["indices"], r["times"]):
            per_input.setdefault(index, []).append(seconds)
    return [statistics.median(times) for times in per_input.values()]


def quantile(values: list[float], level: float) -> float:
    ordered = sorted(values)
    pos = level * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def end_to_end(segments: list[tuple[float, dict]]) -> dict:
    times = [t for _, r in segments for t in r["times"]]
    medians = input_medians(segments)
    quality = {}
    for _, r in segments:
        for index, values in r["quality"].items():
            quality.setdefault(index, values)
    delivered, least, consumed = (sum(column) for column in zip(*quality.values()))
    values = {
        "plan_p50_s": statistics.median(times),
        "plan_tail_s": quantile(medians, tail_level(len(medians))),
        "plans_per_s": len(times) / sum(times),
        "first_plan_s": statistics.median(r["first_s"] for _, r in segments),
        "setup_s": statistics.median(r["ready"] - spawned for spawned, r in segments),
        "peak_rss_mb": max(r["peak_rss_mb"] for _, r in segments),
        "delivered_bits": delivered / len(quality),
        "min_fulfilled_bits": least / len(quality),
        "consumption_rate": consumed / max(delivered, 1.0),
        "ok_ratio": 1.0 - sum(r["failed"] for _, r in segments)
        / sum(r["attempted"] for _, r in segments),
    }
    print(f"plan times: {len(times)} warm plans of {len(medians)} inputs, tail = "
          f"p{100 * tail_level(len(medians)):.1f} of the inputs' medians; "
          f"{len(segments)} fresh processes for first_plan_s and setup_s; "
          f"quality over {len(quality)} inputs")
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "qkdplan" / "__init__.py").is_file():
        print(f"error: no qkdplan sources under {ROOT / 'src'}", file=sys.stderr)
        return 1

    deadline = time.monotonic() + BUDGET_S
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        if args.trace:
            spans = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
            _, result = start_worker(
                [*common, "--mode", "trace", "--seconds", str(args.seconds),
                 "--spans", str(spans)], work / "trace", deadline)
            results = [result]
            from tracing import LAYER_METRICS

            metrics = {name: {"value": result["layers"][name], "unit": unit}
                       for name, unit in LAYER_METRICS.items()}
            print(f"{result['traced_plans']} traced plans; spans in {spans}")
        else:
            segments, made, plans = [], 0, None
            count = SEGMENTS[args.workload]
            for k in range(count):
                last = k == count - 1
                spawned, result = start_worker(
                    [*common, "--mode", "segment", "--seconds", str(args.seconds / count),
                     "--start", str(made + 1),
                     "--min-plans", str(max(plans - 1 - made, 1) if last else 1)],
                    work / f"segment{k}", deadline)
                segments.append((spawned, result))
                made += len(result["times"])
                plans = result["plans"]
            results = [r for _, r in segments]
            values = end_to_end(segments)
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END.items()}
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    for reason in [p for r in results for p in r["reasons"]][:10]:
        print(f"failed: {reason}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
