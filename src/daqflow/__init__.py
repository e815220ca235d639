"""Analytical flow, power, and selection-quality model of trigger/DAQ pipelines.

The package propagates message-flow statistics through a directed acyclic
pipeline graph, solves classifier operating points against reduction
targets, prices energy per message and per error class, and scores whole
scenarios, with a YAML-based config format and a CLI on top.

Typical use:

    from daqflow import load_config, evaluate

    cfg = load_config("cms_run3.cfg")
    result = evaluate(cfg)
    print(result.score.f1, result.score.total_power_w)

Each public name is listed once, in its own module's `__all__`, and is
importable from the package as that module's own object.
"""

from .calibration import *
from .classifier import *
from .config import *
from .energy import *
from .errors import *
from .functions import *
from .graph import *
from .metrics import *
from .scenario import *
from .units import *

__version__ = "0.1.0"

# each `from .module import *` above also binds the submodule itself here
__all__ = [
    "__version__", *units.__all__, *errors.__all__, *functions.__all__,
    *classifier.__all__, *calibration.__all__, *graph.__all__, *energy.__all__,
    *metrics.__all__, *scenario.__all__, *config.__all__,
]
