"""Cold-start CLI benchmark of ablab.

    python3 bench/run.py --workload {products,vc,subgroups} --seed N \\
        --seconds S --trace {0,1}

Each op is one `ablab` command line (see workloads.py), run in this process
through `ablab.cli.main(argv)` with its output captured.  Every op starts
cold, as a fresh `ablab` process would: the CLI's group cache is cleared
and garbage collected before it, so the op pays for building its groups,
their closure caches and subgroup lattices.  Numpy/BLAS threads are pinned
to one and no op passes `--jobs`.

--trace 0 repeats untraced passes over the op list for about S seconds (at
least two passes and 100 ops) and prints the end-to-end metrics named in
BENCHMARK.json.  --trace 1 runs one untraced pass and then two traced
passes (tracer.py), fails if any exact counter differs between the two
traced passes, and prints the per-layer metrics.  Either way every answer
is checked after the timed passes (answers.py); a wrong answer prints the
result with "correct": false and exits 1.  The last line of stdout is the
JSON result.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import io
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

from answers import EXHAUSTED, RecordedAnswers, key_fields, oracle_problems
from probe import SRC, setup
from tracer import EXACT_COUNTERS, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 9
MIN_SAMPLES = 100  # so that at least 10 op latencies lie beyond p90


class Pass:
    """One pass over the op list: latency, exit code and output per op.

    With `order_seed` the ops run in an order shuffled by that seed, so
    each cost class is spread over the whole pass instead of sitting in one
    stretch of it, where a burst of host noise would move all its samples
    at once.  Results are kept in list order either way."""

    def __init__(self, cli, ops, order_seed: str | None = None):
        order = list(range(len(ops)))
        if order_seed is not None:
            random.Random(order_seed).shuffle(order)
        self.latencies: list[float] = [0.0] * len(ops)
        self.outcomes: list[tuple[int, str, str]] = [(0, "", "")] * len(ops)
        for i in order:
            op = ops[i]
            cli._GROUP_CACHE.clear()
            gc.collect()
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                t0 = perf_counter()
                try:
                    rc = cli.main(list(op.argv))
                except SystemExit as exc:  # argparse rejected the argv
                    rc = exc.code if isinstance(exc.code, int) else 2
                except Exception:  # a crash is a wrong answer, reported below
                    rc = -1
                    traceback.print_exc()
                t1 = perf_counter()
            self.latencies[i] = t1 - t0
            self.outcomes[i] = (rc, out.getvalue(), err.getvalue())

    @property
    def wall(self) -> float:
        return sum(self.latencies)


def _answer(op, rc: int, out: str):
    return key_fields(op, rc, json.loads(out) if rc == 0 else None)


def check_answers(workload: str, seed: int, ops, passes: list[Pass]) -> tuple[int, list[str]]:
    """(op runs with a wrong answer, what was wrong) over all passes."""
    recorded = RecordedAnswers(workload, seed, ops)
    problems: list[str] = []
    wrong = 0
    first = [_answer(op, rc, out) for op, (rc, out, _) in zip(ops, passes[0].outcomes)]
    for i, (op, fields, (rc, out, err)) in enumerate(zip(ops, first, passes[0].outcomes)):
        if rc in (0, EXHAUSTED):
            found = oracle_problems(op, rc, json.loads(out) if rc == 0 else None)
            found += recorded.problems(i, op, fields, rc == 0 and not found)
        else:
            found = [f"{op.text[:120]}: exit {rc}: {err.strip()[-300:]}"]
        wrong += bool(found)
        problems += found
    for p in passes[1:]:
        for op, want, (rc, out, _) in zip(ops, first, p.outcomes):
            fields = _answer(op, rc, out)
            if fields != want:
                wrong += 1
                problems.append(f"{op.text[:120]}: answer {fields} differs from first pass {want}")
    return wrong, problems


def setup_seconds(workload: str, seed: int, first: float) -> float:
    """Median cold set-up: this process's own plus fresh interpreters'."""
    samples = [first]
    probe = Path(__file__).with_name("probe.py")
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(
            [sys.executable, str(probe), workload, str(seed)],
            capture_output=True, text=True, check=True, cwd=ROOT, timeout=120,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100)[q - 1]


def trials_per_s(ops, p: Pass) -> float:
    """`verify` trials completed per second spent in `verify` ops."""
    verify_s = trials = 0
    for op, lat, (rc, out, _) in zip(ops, p.latencies, p.outcomes):
        if op.kind == "verify" and rc == 0:
            verify_s += lat
            trials += json.loads(out)["trials"]
    return trials / verify_s


def end_to_end(passes: list[Pass], setup_s: float) -> dict[str, float]:
    latencies = [x for p in passes for x in p.latencies]
    rcs = [rc for p in passes for rc, _, _ in p.outcomes]
    return {
        "wall_s": statistics.median(p.wall for p in passes),
        "op_p50_ms": 1000 * quantile(latencies, 50),
        "op_p90_ms": 1000 * quantile(latencies, 90),
        "verified_frac": rcs.count(0) / len(rcs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }


def per_layer(cli, ops, seed: int) -> tuple[list[Pass], dict[str, float], list[str]]:
    """One untraced pass, then two traced ones; returns them, the per-layer
    metrics and any exact counter that differed between the traced passes."""
    passes = [Pass(cli, ops, f"{seed}:0")]
    untraced = passes[0]
    summaries = []
    for k in range(1, 3):
        with Tracer() as tracer:
            passes.append(Pass(cli, ops, f"{seed}:{k}"))
        summaries.append(tracer.summary())
        del tracer  # drop the first pass's spans before the second pass
    a, b = summaries
    problems = [
        f"exact counter {k} differs between traced passes: {a[k]} != {b[k]}"
        for k in a
        if k.endswith(EXACT_COUNTERS) and a[k] != b[k]
    ]
    metrics = {k: (a[k] + b[k]) / 2 if k.endswith("_s") else a[k] for k in a}
    closures = metrics["groups.closure.calls"]
    misses = metrics["kernels.closure_mask.calls"]
    metrics["groups.closure.hit_ratio"] = (closures - misses) / closures if closures else 0.0
    oracles = metrics["pipelines.subgroup_oracle.calls"]
    exhaustive = metrics.pop("pipelines.subgroup_oracle.exhaustive")
    metrics["pipelines.subgroup_oracle.exhaustive_frac"] = exhaustive / oracles if oracles else 0.0
    traced_wall = statistics.mean(p.wall for p in passes[1:])
    metrics["trace.overhead_s"] = traced_wall - untraced.wall
    rcs = [rc for rc, _, _ in untraced.outcomes]
    metrics["failed_frac"] = 1 - rcs.count(0) / len(rcs)
    metrics["trials_per_s"] = trials_per_s(ops, untraced)
    return passes, metrics, problems


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ablab" / "cli.py").is_file():
        print(f"run.py: no ablab sources under {SRC}", file=sys.stderr)
        return 2
    units = declared_metrics(bool(args.trace))

    cli, ops, first_setup = setup(args.workload, args.seed)
    if args.trace:
        passes, metrics, problems = per_layer(cli, ops, args.seed)
    else:
        setup_s = setup_seconds(args.workload, args.seed, first_setup)
        min_passes = max(2, math.ceil(MIN_SAMPLES / len(ops)))
        passes = []
        start = perf_counter()
        while len(passes) < min_passes or perf_counter() - start + passes[-1].wall < args.seconds:
            passes.append(Pass(cli, ops, f"{args.seed}:{len(passes)}"))
        metrics, problems = end_to_end(passes, setup_s), []
    wrong, found = check_answers(args.workload, args.seed, ops, passes)
    problems += found
    for line in problems:
        print(f"run.py: WRONG: {line}", file=sys.stderr)

    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"run.py: metrics not measured: {missing}", file=sys.stderr)
        return 2
    result = {
        "correct": not problems,
        "attempted": len(ops) * len(passes),
        "failed": wrong,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
