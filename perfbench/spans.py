"""Per-layer tracing from outside the program.

The tracer wraps public daqflow functions at the names their callers
resolve: every daqflow module attribute that holds the original function
(and, for methods, the class attribute) is replaced by a wrapper.  While
recording, a wrapper appends one span per call: name, start, end, parent
span and op id.  Spans stay in memory; `write` dumps them when the run
ends.  A layer's self time is its span's duration minus the time its
direct child spans cover.

Wrappers stay installed for the whole timed part of a traced run, so that
the build counter sees every menu build; only span recording is switched
per op.  An op that does not record still pays one attribute check per
wrapped call.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter_ns

# (module, qualified name) of every wrapped function, grouped by layer.
TARGETS = (
    ("config", "load_config"),
    ("config", "parse_config"),
    ("config", "ModelConfig.build_graph"),
    ("units", "parse_quantity"),
    ("calibration", "build_menu"),
    ("calibration", "fit_lambda"),
    ("calibration", "trigger_rate"),
    ("calibration", "sample_scores"),
    ("classifier", "solve_operating_point"),
    ("classifier", "solve_threshold"),
    ("classifier", "ParametricScores.cdf"),
    ("classifier", "apply_skill"),
    ("graph", "validate_graph"),
    ("graph", "propagate_flows"),
    ("graph", "PipelineGraph.topological_order"),
    ("graph", "PipelineGraph.node"),
    ("graph", "PipelineGraph.links_in"),
    ("graph", "PipelineGraph.links_out"),
    ("energy", "build_ledger"),
    ("energy", "total_energy"),
    ("energy", "mean_total_energy"),
    ("energy", "error_costs"),
    ("metrics", "score_system"),
    ("scenario", "evaluate"),
    ("scenario", "apply_conditions"),
    ("scenario", "apply_era"),
    ("scenario", "apply_variant"),
)

SPAN_NAMES = tuple(f"{module}.{qualname}" for module, qualname in TARGETS)

# Derived per-layer numbers the tracer reports beside the per-span sums.
DERIVED = (
    ("calibration.build_menu.repeat_frac", "ratio"),
    ("calibration.trigger_rate.calls_per_fit", "count"),
    ("op.outside_spans_ms", "ms"),
    ("op.traced_ms.p75", "ms"),
    ("tracing.overhead_frac", "ratio"),
)


def metric_names() -> list[tuple[str, str]]:
    """Every per-span metric name with its unit, in a fixed order."""
    out = []
    for name in SPAN_NAMES:
        out += [(f"{name}.calls", "count"), (f"{name}.self_ms", "ms"), (f"{name}.total_ms", "ms")]
    return out + list(DERIVED)


class Tracer:
    def __init__(self) -> None:
        self.recording = False
        self.op_id = -1
        self.spans: list = []  # (name index, t0 ns, t1 ns, parent span, op id, outermost)
        self._stack: list[int] = []
        self._depth = [0] * len(SPAN_NAMES)
        self._patches: list[tuple[object, str, object]] = []
        self.builds = 0
        self.repeat_builds = 0
        self._built: set = set()

    # --- installing ---

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "daqflow"]
        for idx, (module_name, qualname) in enumerate(TARGETS):
            module = importlib.import_module(f"daqflow.{module_name}")
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                wrapper = self._wrap(idx, cls.__dict__[attr])
                self._patch(cls, attr, wrapper)
                continue
            original = getattr(module, qualname)
            wrapper = self._wrap(idx, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, idx: int, fn):
        tracer = self
        depth = self._depth
        stack = self._stack
        spans = self.spans
        on_call = self._count_build if SPAN_NAMES[idx] == "calibration.build_menu" else None
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(signature.bind(*args, **kwargs))
            if not tracer.recording:
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            depth[idx] += 1
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                depth[idx] -= 1
                stack.pop()
                spans[sid] = (idx, t0, t1, parent, tracer.op_id, depth[idx] == 0)

        return wrapper

    def _count_build(self, bound: inspect.BoundArguments) -> None:
        bound.apply_defaults()
        key = (bound.arguments["menu"], bound.arguments["seed"])
        self.builds += 1
        if key in self._built:
            self.repeat_builds += 1
        else:
            self._built.add(key)

    # --- reporting ---

    def summary(self, traced_ops: dict[int, int]) -> dict[str, float]:
        """Per-op span sums over the recorded ops.

        traced_ops maps op id -> wall ns of the op, for the ops that recorded.
        """
        n_ops = max(1, len(traced_ops))
        calls = [0] * len(SPAN_NAMES)
        total = [0] * len(SPAN_NAMES)
        self_ns = [0] * len(SPAN_NAMES)
        children = defaultdict(int)
        roots_ns = 0
        for sid, (idx, t0, t1, parent, _op, outermost) in enumerate(self.spans):
            dur = t1 - t0
            calls[idx] += 1
            if outermost:
                total[idx] += dur
            if parent >= 0:
                children[parent] += dur
            else:
                roots_ns += dur
        for sid, (idx, t0, t1, *_rest) in enumerate(self.spans):
            self_ns[idx] += (t1 - t0) - children.get(sid, 0)
        out: dict[str, float] = {}
        for idx, name in enumerate(SPAN_NAMES):
            out[f"{name}.calls"] = calls[idx] / n_ops
            out[f"{name}.self_ms"] = self_ns[idx] / n_ops / 1e6
            out[f"{name}.total_ms"] = total[idx] / n_ops / 1e6
        out["calibration.build_menu.repeat_frac"] = (
            self.repeat_builds / self.builds if self.builds else 0.0
        )
        fits = calls[SPAN_NAMES.index("calibration.fit_lambda")]
        rates = calls[SPAN_NAMES.index("calibration.trigger_rate")]
        out["calibration.trigger_rate.calls_per_fit"] = rates / fits if fits else 0.0
        out["op.outside_spans_ms"] = (sum(traced_ops.values()) - roots_ns) / n_ops / 1e6
        return out

    def write(self, path) -> None:
        """Dump the recorded spans as gzip-compressed JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        base = min((s[1] for s in self.spans), default=0)
        payload = {
            "names": list(SPAN_NAMES),
            "columns": ["name", "start_ns", "end_ns", "parent", "op"],
            "spans": [[i, t0 - base, t1 - base, p, op] for i, t0, t1, p, op, _ in self.spans],
        }
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh, separators=(",", ":"))
