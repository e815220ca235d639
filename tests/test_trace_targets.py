"""The functions the per-layer tracer (perfbench/spans.py) wraps by name.

The tracer replaces each target with a wrapper built around
`inspect.signature`, so every target must stay a plain function at the
name it is listed under: a method turned into a property, or a function
renamed or removed, breaks `perfbench/run.py --trace 1`.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


def test_every_trace_target_is_a_plain_function():
    targets = _targets()
    assert targets
    broken = []
    for module_name, qualname in targets:
        module = importlib.import_module(f"daqflow.{module_name}")
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            fn = vars(getattr(module, cls_name)).get(attr)
        else:
            fn = getattr(module, qualname, None)
        if not inspect.isfunction(fn):
            broken.append(f"{module_name}.{qualname}: {type(fn).__name__}")
            continue
        inspect.signature(fn)
    assert broken == []
