"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks, in order:

1. a short run of every workload, untraced and traced, prints exactly the
   metrics BENCHMARK.json names, each with its unit, and a correct result;
2. the audit fires on deliberately corrupted results (productivity, a
   classifier's kept rate and the energy balance each perturbed by 1e-6
   relative, and a NaN row field), and passes the uncorrupted ones;
3. tracing wrappers leave every result bit-identical, record spans, and
   restore every patched attribute when removed;
4. run.py refuses, with no result line, in a directory that holds only
   BENCHMARK.json and the benchmark's files.

Exits 0 when every check passes.  Writes only under .perfbench/.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import MappingProxyType

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from daqflow import config, scenario  # noqa: E402

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def _run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def short_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for w in spec["workloads"]:
            args = ["--workload", w["name"], "--seed", "1", "--seconds", "2", "--trace", str(trace)]
            done = _run(args, ROOT)
            result = json.loads(done.stdout.strip().splitlines()[-1]) if done.stdout else {}
            got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
            check(
                done.returncode == 0 and result.get("correct") is True and got == want,
                f"{w['name']} --trace {trace}: exit 0, correct, all {len(want)} {key} metrics "
                "with their units",
            )


def _replace_assignment(assignment, **changes):
    return dataclasses.replace(
        assignment, **{k: MappingProxyType(v) for k, v in changes.items()}
    )


def corrupted_results() -> None:
    cfg_dir = workloads.config_dir(ROOT)
    result = scenario.evaluate(config.load_config(cfg_dir / "cms_run3.cfg"))
    check(checks.audit_evaluation(result) == [], "audit passes the uncorrupted cms_run3 result")

    row = result.row
    bad_row = dataclasses.replace(row, productivity_per_kj=row.productivity_per_kj * (1 + 1e-6))
    check(
        checks.audit_evaluation(dataclasses.replace(result, row=bad_row)) != [],
        "audit fires on productivity perturbed by 1e-6 relative",
    )
    nan_row = dataclasses.replace(row, recall=float("nan"))
    check(
        checks.audit_evaluation(dataclasses.replace(result, row=nan_row)) != [],
        "audit fires on a NaN row field",
    )

    a = result.assignment
    node_id, cm = next(iter(a.confusions.items()))
    confusions = dict(a.confusions)
    confusions[node_id] = dataclasses.replace(cm, fp=cm.fp * (1 + 1e-6))
    check(
        checks.audit_flows(result.graph, _replace_assignment(a, confusions=confusions)) != [],
        f"audit fires on tp+fp at {node_id} perturbed by 1e-6 relative",
    )
    node_powers = {k: v * (1 + 1e-6) for k, v in a.node_powers.items()}
    check(
        checks.audit_flows(result.graph, _replace_assignment(a, node_powers=node_powers)) != [],
        "audit fires on total power perturbed by 1e-6 relative (energy balance)",
    )

    fanin = workloads.prepare("fanin_scale", ROOT, 1)
    op = next(fanin.ops("timed"))
    g, assignment, score, costs = op.run()
    check(op.audit((g, assignment, score, costs)) == [], "audit passes a fanin_scale op")
    bad_score = dataclasses.replace(score, productivity_per_j=score.productivity_per_j * (1 + 1e-6))
    check(
        op.audit((g, assignment, bad_score, costs)) != [],
        "audit fires on fanin_scale productivity perturbed by 1e-6 relative",
    )


def _fingerprint(out):
    """Every number an op returns, in a form == compares bit for bit."""
    if isinstance(out, scenario.EvaluationResult):
        g, a, score, costs = out.graph, out.assignment, out.score, out.costs
        head = (out.row,)
    else:
        g, a, score, costs = out
        head = ()
    flows = tuple(sorted(a.flows.items()))
    powers = tuple(sorted(a.node_powers.items())) + tuple(sorted(a.link_powers.items()))
    points = tuple(
        (k, op.threshold, op.boundary_keep, op.confusion)
        for k, op in sorted(a.operating_points.items())
    )
    return head + (score, costs, flows, powers, points, len(g.nodes))


def _first_ops(name: str, n: int = 3) -> list:
    return list(itertools.islice(workloads.prepare(name, ROOT, 3).ops("timed"), n))


def tracing_is_transparent() -> None:
    for name in workloads.WORKLOADS:
        plain = [op.run() for op in _first_ops(name)]
        tracer = spans.Tracer()
        originals = {id(o): o for o in _patched_values()}
        tracer.install()
        tracer.recording = True
        try:
            traced = [op.run() for op in _first_ops(name)]
        finally:
            tracer.recording = False
            tracer.uninstall()
        same = [_fingerprint(x) for x in plain] == [_fingerprint(x) for x in traced]
        check(same and bool(tracer.spans), f"{name}: traced results bit-identical, spans recorded")
        restored = {id(o): o for o in _patched_values()}
        check(restored.keys() == originals.keys(), f"{name}: uninstall restores every wrapped name")


def _patched_values() -> list:
    values = []
    for name, module in sorted(sys.modules.items()):
        if name.split(".")[0] == "daqflow":
            values += [v for v in vars(module).values() if callable(v)]
            classes = [c for c in vars(module).values() if isinstance(c, type)]
            values += [v for c in classes for v in vars(c).values()]
    return values


def bare_directory_refused() -> None:
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    args = ["--workload", "report_family", "--seed", "1", "--seconds", "2", "--trace", "0"]
    done = _run(args, bare)
    check(
        done.returncode != 0 and done.stdout.strip() == "",
        f"run.py without the program exits {done.returncode} and prints no result",
    )
    shutil.rmtree(bare)


def main() -> int:
    corrupted_results()
    tracing_is_transparent()
    bare_directory_refused()
    short_runs()
    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
