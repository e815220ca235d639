"""daqflow benchmark: one process, one closed-loop caller.

    python3 perfbench/run.py --workload report_family --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  The program is imported from
src/ of that checkout; nothing is installed.  One run:

1. sets BLAS/OpenMP threads to 1 (the benchmark is one process);
2. times set-up SETUP_PROBES times, each in a fresh interpreter:
   `import daqflow.cli` plus preparing the workload's inputs (this process
   has already imported the program, so the file cache is warm);
3. evaluates cms_run3 at its configured seed and stops unless the result
   matches the regression pins;
4. runs WARMUP_OPS untimed warm-up ops, which never build a menu the timed
   ops build again;
5. runs ops back to back for --seconds, each starting when the previous one
   ended, and audits every result outside the timed region.  Just before
   each op it times a fixed reference task (reference.py), and the bounded
   op times are expressed at the reference task's nominal speed.

--trace 0 reports the end-to-end metrics; --trace 1 wraps the program's
public functions, records spans on a seeded half of the ops and reports the
per-layer metrics (see spans.py).  The last line of standard output is the
result object; the line before it holds provenance and run details.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter_ns

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PACKAGE = ROOT / "src" / "daqflow"
SPANS_DIR = ROOT / ".perfbench"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
SETUP_PROBES = 5
WARMUP_OPS = 3
TAIL_BEYOND = 10  # samples the tail percentile must leave above it

# The bounded op metrics are op times scaled to the reference task's nominal
# speed (see reference.py); raw op times go, unbounded, in the details line.
END_TO_END = (
    ("eval_ms_ref.p50", "ms"),
    ("eval_ms_ref.tail", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
)
SETUP_LAYER = (("setup.import_s", "s"), ("setup.inputs_s", "s"), ("failed_frac", "ratio"))


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def probe_setup(workload: str, seed: int) -> list[dict]:
    """Set-up times, each from a fresh interpreter."""
    cmd = [
        sys.executable,
        str(BENCH_DIR / "probe_setup.py"),
        "--root",
        str(ROOT),
        "--workload",
        workload,
        "--seed",
        str(seed),
    ]
    probes = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        probes.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return probes


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(PACKAGE)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "workload_seed": seed,
    }


def tail(sorted_ms: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it."""
    n = len(sorted_ms)
    if n <= TAIL_BEYOND:
        return sorted_ms[-1], 100.0
    return sorted_ms[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _p75(values: list) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=4)[2]


def _run_op(op) -> tuple[object, str | None]:
    try:
        return op.run(), None
    except Exception as exc:  # an op that raises is a failed op; the run goes on
        return None, f"{type(exc).__name__}: {exc}"


def _audit(op, out) -> list[str]:
    try:
        return op.audit(out)
    except Exception as exc:
        return [f"audit raised {type(exc).__name__}: {exc}"]


def main(argv=None) -> int:
    args = _args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no daqflow source at {PACKAGE}; run from a source checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))

    # The program and the modules that drive it are imported only now, after
    # the thread limits are set and src/ is on the path.
    import daqflow
    import daqflow.cli  # noqa: F401

    import checks
    import reference
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not Path(daqflow.__file__).resolve().is_relative_to(ROOT):
        print(f"error: daqflow resolved outside the checkout: {daqflow.__file__}", file=sys.stderr)
        return 2

    probes = probe_setup(args.workload, args.seed)
    details: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(args.seed),
        "setup_probes": probes,
    }

    pin_problems = checks.pin_check(workloads.config_dir(ROOT))
    if pin_problems:
        details["pin_check"] = pin_problems
        print(json.dumps(details))
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    workload = workloads.prepare(args.workload, ROOT, args.seed)
    warmup = workload.ops("warmup")
    for _ in range(WARMUP_OPS):
        reference.time_ns()
        op = next(warmup)
        _, error = _run_op(op)
        if error is not None:
            print(f"warm-up op {op.label} failed: {error}", file=sys.stderr)

    tracer = spans.Tracer() if args.trace else None
    record_coin = random.Random(args.seed)
    op_ns: list[int] = []
    ref_ns: list[int] = []
    traced_ns: dict[int, int] = {}
    untraced_ns: list[int] = []
    failures: list[str] = []
    stream = workload.ops("timed")
    gc.collect()
    if tracer is not None:
        tracer.install()
    try:
        deadline = perf_counter_ns() + int(args.seconds * 1e9)
        while perf_counter_ns() < deadline:
            op = next(stream)
            ref_ns.append(reference.time_ns())
            record = tracer is not None and record_coin.random() < 0.5
            if record:
                tracer.op_id = len(op_ns)
                tracer.recording = True
            t0 = perf_counter_ns()
            out, error = _run_op(op)
            t1 = perf_counter_ns()
            if tracer is not None:
                tracer.recording = False
            if record:
                traced_ns[len(op_ns)] = t1 - t0
            else:
                untraced_ns.append(t1 - t0)
            op_ns.append(t1 - t0)
            problems = [error] if error is not None else _audit(op, out)
            if problems:
                failures.append(f"{op.label}: {'; '.join(problems)}")
    finally:
        if tracer is not None:
            tracer.uninstall()

    attempted = len(op_ns)
    failed = len(failures)
    ms = sorted(t / 1e6 for t in op_ns)
    scaled_ms = sorted(reference.scale_ms(op, ref) for op, ref in zip(op_ns, ref_ns))
    tail_ms, tail_pct = tail(scaled_ms)
    details["ops"] = attempted
    details["tail"] = {"percentile": tail_pct, "samples": attempted, "beyond": TAIL_BEYOND}
    details["failures"] = failures[:5]
    details["unbounded"] = {
        "eval_ms.p50": {"value": statistics.median(ms), "unit": "ms"},
        "eval_ms.p75": {"value": _p75(ms), "unit": "ms"},
        "eval_ms.tail": {"value": tail(ms)[0], "unit": "ms"},
        "evals_per_s": {"value": attempted / (sum(op_ns) / 1e9), "unit": "1/s"},
        "evals_ref_per_s": {"value": attempted / (sum(scaled_ms) / 1e3), "unit": "1/s"},
        "reference_ms.p50": {"value": statistics.median(ref_ns) / 1e6, "unit": "ms"},
    }

    if tracer is None:
        metrics = {
            "eval_ms_ref.p50": statistics.median(scaled_ms),
            "eval_ms_ref.tail": tail_ms,
            "setup_s": statistics.median(p["import_s"] + p["inputs_s"] for p in probes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "ok_frac": (attempted - failed) / attempted,
        }
        units = dict(END_TO_END)
    else:
        metrics = tracer.summary(traced_ns)
        traced_p75 = _p75(list(traced_ns.values())) / 1e6
        untraced_p75 = _p75(untraced_ns) / 1e6
        metrics["op.traced_ms.p75"] = traced_p75
        metrics["tracing.overhead_frac"] = (
            traced_p75 / untraced_p75 - 1.0 if traced_p75 and untraced_p75 else 0.0
        )
        metrics["setup.import_s"] = statistics.median(p["import_s"] for p in probes)
        metrics["setup.inputs_s"] = statistics.median(p["inputs_s"] for p in probes)
        metrics["failed_frac"] = failed / attempted
        units = dict(spans.metric_names() + list(SETUP_LAYER))
        spans_file = SPANS_DIR / f"spans-{args.workload}.json.gz"
        tracer.write(spans_file)
        details["spans_file"] = str(spans_file.relative_to(ROOT))
        details["traced_ops"] = len(traced_ns)

    print(json.dumps(details))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
