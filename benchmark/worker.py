"""Runs one workload's plans in this process; ``run.py`` starts it.

Modes:

* ``segment``: set up, make the first plan (the same input for every
  seed), then plans from ``--start`` of the plan sequence until
  ``--seconds`` have passed since set-up and at least ``--min-plans``
  of them were made;
* ``trace``: pairs of passes over the inputs in which every input is
  planned once traced and once untraced, for at least ``--seconds``;
  reports the per-layer metrics and writes the spans to ``--spans``;
* ``record``: plan every input of every seed once and write the exit
  codes and report digests to ``--out`` (see ``record.py``).

Every plan is one or more in-process ``qkdplan plan`` calls through
``qkdplan.cli.main``.  Outside the timed region each plan's exit codes and
report digest are compared with the recorded ones, and the graph and
solution that ``cli.main`` hands to ``router.verify_solution`` are
re-checked by :mod:`checker`.  The result is one JSON line on stdout.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checker
import workloads

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"


@dataclass
class Outcome:
    seconds: float
    key: str
    problems: list[str] = field(default_factory=list)
    delivered: float = 0.0
    min_fulfilled: float = 0.0
    consumed: float = 0.0
    layers: dict | None = None


def _solution_of(args, kwargs):
    graph = kwargs.get("graph", args[0] if args else None)
    solution = kwargs.get("solution", args[2] if len(args) > 2 else None)
    return graph, solution


class Runner:
    """Plans the inputs of one seed through ``qkdplan.cli.main``."""

    def __init__(self, inputs: workloads.Inputs, work_dir: Path):
        from qkdplan import cli, router

        self.cli = cli
        self.inputs = inputs
        self.outs = [work_dir / f"report{k}" for k in range(2)]
        tokens = []
        for i, (doc, bundled) in enumerate(zip(inputs.scenarios, inputs.bundled)):
            if bundled is None:
                path = work_dir / f"s{i}.json"
                path.write_text(json.dumps(doc))
                tokens.append(str(path))
            else:
                tokens.append(bundled)
        self.argv = [
            [["plan", tokens[s], "--objective", objective, "--format", fmt,
              "--out", str(self.outs[k])]
             for k, (s, objective, fmt) in enumerate(plan)]
            for plan in inputs.plans
        ]
        self.captured: list[tuple] = []
        self._router = router
        self._verify = verify = router.verify_solution

        def capture(*args, **kwargs):
            self.captured.append((args, kwargs))
            return verify(*args, **kwargs)

        router.verify_solution = capture

    def close(self) -> None:
        """Give ``router.verify_solution`` back."""
        self._router.verify_solution = self._verify

    def run(self, index: int, tracer=None, expected: list[str] | None = None) -> Outcome:
        argvs = self.argv[index]
        for out in self.outs:
            out.unlink(missing_ok=True)
        self.captured.clear()
        errors = [io.StringIO() for _ in argvs]
        codes: list[int] = []
        crash = None
        if tracer is not None:
            tracer.start_plan(index)
        start = time.perf_counter()
        try:
            for argv, err in zip(argvs, errors):
                with contextlib.redirect_stderr(err):
                    codes.append(self.cli.main(argv))
        except Exception as exc:  # a crash fails this plan, not the run
            crash = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        layers = tracer.end_plan() if tracer is not None else None
        return self._check(index, codes, errors, crash, seconds, layers, expected)

    def _check(self, index, codes, errors, crash, seconds, layers, expected) -> Outcome:
        digests = []
        for k in range(len(codes)):
            out = self.outs[k]
            digests.append(hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else "-")
        key = "".join(map(str, codes)) + ":" + hashlib.sha256(
            " ".join(digests).encode()).hexdigest()[:16]
        outcome = Outcome(seconds=seconds, key=key, layers=layers)
        problems = outcome.problems
        if crash is not None:
            problems.append(crash)
        for err, code in zip(errors, codes):
            for line in err.getvalue().splitlines():
                if not line.startswith("wall-clock:") and not (code == 2 and line.startswith("infeasible:")):
                    print(line, file=sys.__stderr__)
        if expected is not None and key != expected[index]:
            what = "exit codes" if key.split(":")[0] != expected[index].split(":")[0] else "report digest"
            problems.append(f"plan {index}: {what} {key} differ from the recorded {expected[index]}")

        calls = self.inputs.plans[index]
        succeeded = [k for k, code in enumerate(codes) if code == 0]
        if len(succeeded) != len(self.captured):
            problems.append(
                f"plan {index}: {len(self.captured)} verified solutions for "
                f"{len(succeeded)} successful calls")
            return outcome
        for k, (args, kwargs) in zip(succeeded, self.captured):
            scenario, objective, _ = calls[k]
            graph, solution = _solution_of(args, kwargs)
            for problem in checker.check_plan(
                    self.inputs.scenarios[scenario], objective, graph, solution):
                problems.append(f"plan {index} call {k} ({objective}): {problem}")
            if k == 0:
                outcome.delivered = float(sum(solution.demands))
                outcome.min_fulfilled = float(min(solution.demands, default=0.0))
                outcome.consumed = float(sum(solution.flows.values()))
        return outcome


def _load_expected(workload: str, digest: str) -> tuple[list[str] | None, str | None]:
    path = EXPECTED_DIR / f"{workload}.json"
    try:
        table = json.loads(path.read_text())["inputs"]
    except (OSError, ValueError, KeyError) as exc:
        return None, f"cannot read the recorded outputs {path.name}: {exc}"
    if digest not in table:
        return None, f"generated inputs {digest[:16]} are not among the recorded ones"
    return table[digest]["plans"], None


def _summary(outcomes: list[Outcome], missing: str | None) -> dict:
    failed = [o for o in outcomes if o.problems or missing]
    return {
        "attempted": len(outcomes),
        "failed": len(failed),
        "reasons": [p for o in failed for p in o.problems][:5] + ([missing] if missing else []),
    }


def _segment(args, runner: Runner, expected, missing, ready: float) -> dict:
    """The first plan, then the plan sequence from ``--start`` until
    ``--seconds`` have passed since set-up and ``--min-plans`` of those
    were made."""
    n = len(runner.inputs.plans)
    indices = [0]
    outcomes = [runner.run(0, expected=expected)]
    while time.monotonic() - ready < args.seconds or len(outcomes) <= args.min_plans:
        indices.append((args.start + len(outcomes) - 1) % n)
        outcomes.append(runner.run(indices[-1], expected=expected))
    quality = {}
    for index, o in zip(indices, outcomes):
        quality.setdefault(index, (o.delivered, o.min_fulfilled, o.consumed))
    return {
        **_summary(outcomes, missing),
        "plans": n,
        "ready": ready,
        "first_s": outcomes[0].seconds,
        "times": [o.seconds for o in outcomes[1:]],
        "indices": indices[1:],
        "quality": quality,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _trace(args, runner: Runner, expected, missing) -> dict:
    """Pairs of passes over the inputs until ``--seconds`` have passed.  In
    each pair every input is planned once traced and once untraced, the two
    interleaved in time, so machine speed drifts hit both alike."""
    from tracing import Tracer

    n = len(runner.inputs.plans)
    tracer = Tracer()
    outcomes, traced, untraced = [], [], []
    deadline = time.monotonic() + args.seconds
    while len(outcomes) < 2 * n or len(outcomes) % (2 * n) or time.monotonic() < deadline:
        index, parity = len(outcomes) % n, len(outcomes) // n % 2
        if (index + parity) % 2:
            tracer.install()
            outcomes.append(runner.run(index, tracer, expected))
            tracer.uninstall()
            traced.append(outcomes[-1])
        else:
            outcomes.append(runner.run(index, expected=expected))
            if len(outcomes) > 1:  # the first plan of a process is cold
                untraced.append(outcomes[-1])
    layers = _layer_means(traced)
    layers["trace.overhead_frac"] = _mean_seconds(traced) / _mean_seconds(untraced) - 1.0
    tracer.write(args.spans)
    return {**_summary(outcomes, missing), "layers": layers, "traced_plans": len(traced)}


def _mean_seconds(outcomes: list[Outcome]) -> float:
    return sum(o.seconds for o in outcomes) / len(outcomes)


def _layer_means(outcomes: list[Outcome]) -> dict:
    layers = [o.layers for o in outcomes]
    means = {name: sum(l[name] for l in layers) / len(layers) for name in layers[0]}
    builds = sum(l["lp_builds"] for l in layers)
    for name in ("router.lp_vars", "router.lp_rows", "router.lp_nnz"):
        means[name] = sum(l[name] for l in layers) / max(builds, 1)
    means["lp.tableau_mb"] = max(l["lp.tableau_mb"] for l in layers)
    del means["lp_builds"]
    return means


def _record(args, work_dir: Path) -> int:
    table = {}
    for seed in range(workloads.SEED_SPACE):
        inputs = workloads.WORKLOADS[args.workload](seed)
        digest = inputs.digest()
        if digest in table:
            continue
        runner = Runner(inputs, work_dir)
        keys = []
        for index in range(len(inputs.plans)):
            outcome = runner.run(index)
            if outcome.problems:
                print(f"seed {seed}: {outcome.problems}", file=sys.stderr)
                return 1
            keys.append(outcome.key)
        runner.close()
        table[digest] = {"seed": seed, "plans": keys}
        print(f"{args.workload} seed {seed}: {len(keys)} plans", file=sys.stderr)
    Path(args.out).write_text(json.dumps({"inputs": table}, indent=0, sort_keys=True) + "\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("segment", "trace", "record"), required=True)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--start", type=int, default=1)
    parser.add_argument("--min-plans", type=int, default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    import qkdplan

    src = Path(__file__).resolve().parents[1] / "src"
    if Path(qkdplan.__file__).resolve().parent.parent != src:
        print(f"error: imported qkdplan from {qkdplan.__file__}, not {src}", file=sys.stderr)
        return 1
    if args.mode == "record":
        return _record(args, args.work)
    inputs = workloads.WORKLOADS[args.workload](args.seed)
    runner = Runner(inputs, args.work)
    ready = time.monotonic()
    expected, missing = _load_expected(args.workload, inputs.digest())
    if args.mode == "trace":
        result = _trace(args, runner, expected, missing)
    else:
        result = _segment(args, runner, expected, missing, ready)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
