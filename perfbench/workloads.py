"""The three benchmark workloads and the ops they generate.

A workload is prepared once from the workload seed (`prepare`), then hands
out two endless op streams: a warm-up stream and a timed stream.  The two
draw from separate generators and disjoint calibration-seed ranges, so no
warm-up op builds a menu the timed ops build again.

An op is the program work a user pays for one result, with its inputs
generated beforehand.  Program functions are called through their module
attributes (`scenario.evaluate`, not an imported name), so the tracer's
wrappers see every call.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from daqflow import config, energy, functions, graph, metrics, scenario
from daqflow.classifier import ClassifierModel, ParametricScores

import checks

WORKLOADS = ("report_family", "menu_fresh", "fanin_scale")

# Calibration seeds: timed ops draw from the first range, warm-up ops from the
# second.  The Run-3 pin check runs at the configured seed 20240, below both.
TIMED_SEEDS = (1 << 20, 1 << 30)
WARMUP_SEEDS = (1 << 30, 1 << 31)


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    audit: Callable[[object], list[str]]


def config_dir(root: Path) -> Path:
    return root / "src" / "daqflow" / "configs"


class _SeedDraw:
    """Distinct calibration seeds from one range."""

    def __init__(self, rng: np.random.Generator, bounds: tuple[int, int]):
        self.rng = rng
        self.bounds = bounds
        self.used: set[int] = set()

    def __call__(self) -> int:
        while True:
            s = int(self.rng.integers(*self.bounds))
            if s not in self.used:
                self.used.add(s)
                return s


class Workload:
    name = ""

    def __init__(self, root: Path, seed: int):
        self.config_dir = config_dir(root)
        warm, timed = np.random.SeedSequence(seed).spawn(2)
        self._streams = {
            "warmup": (np.random.default_rng(warm), WARMUP_SEEDS),
            "timed": (np.random.default_rng(timed), TIMED_SEEDS),
        }

    def ops(self, stream: str) -> Iterator[Op]:
        rng, bounds = self._streams[stream]
        return self._ops(rng, _SeedDraw(rng, bounds))

    def _ops(self, rng: np.random.Generator, draw_seed: _SeedDraw) -> Iterator[Op]:
        raise NotImplementedError


class ReportFamily(Workload):
    """`daqflow report --seed s`: every bundled table row, one fresh seed per pass."""

    name = "report_family"

    def __init__(self, root: Path, seed: int):
        super().__init__(root, seed)
        tables = config.load_config(self.config_dir / "cms_tables.cfg").report.tables
        self.rows = [(row.label, row.config_path) for table in tables for row in table.rows]

    def _ops(self, rng, draw_seed):
        while True:
            s = draw_seed()
            for label, path in self.rows:
                yield Op(
                    label=f"{label} @ seed {s}",
                    run=lambda path=path, s=s: scenario.evaluate(config.load_config(path), seed=s),
                    audit=checks.audit_evaluation,
                )


class MenuFresh(Workload):
    """A config extending cms_base.cfg with both menus redrawn on every op."""

    name = "menu_fresh"

    def __init__(self, root: Path, seed: int):
        super().__init__(root, seed)
        base = config.load_config(self.config_dir / "cms_base.cfg")
        self.menus = {name: base.menus[name] for name in sorted(base.menus)}

    def _path_line(self, rng, path) -> str:
        curve = path.curve
        threshold = curve.threshold * rng.uniform(0.75, 1.25)
        width = threshold * (curve.width / curve.threshold) * rng.uniform(0.5, 1.5)
        plateau = rng.uniform(0.85, 1.0)
        rate = path.empirical_rate * 2.0 ** rng.uniform(-1.0, 1.0)
        return (
            f"        - {{name: {path.object_name}, threshold: \"{threshold!r} GeV\", "
            f"width: \"{width!r} GeV\", plateau: {plateau!r}, "
            f"empirical_rate: \"{rate!r} Hz\", input_rate: \"{path.input_rate!r} Hz\"}}"
        )

    def text(self, rng, seed: int) -> str:
        lines = [
            "extends: cms_base.cfg",
            "description: redrawn trigger menus",
            "seeds:",
            f"  calibration: {seed}",
            "calibration:",
            "  menus:",
        ]
        for name, menu in self.menus.items():
            lines += [
                f"    {name}:",
                f"      mode: {menu.mode}",
                f"      sample_count: {menu.sample_count}",
                "      paths:",
            ]
            lines += [self._path_line(rng, path) for path in menu.paths]
        return "\n".join(lines) + "\n"

    def _ops(self, rng, draw_seed):
        for i in itertools.count():
            text = self.text(rng, draw_seed())

            def run(text=text):
                cfg = config.parse_config(text, base_dir=self.config_dir, filename="menu_fresh.cfg")
                return scenario.evaluate(cfg)

            yield Op(label=f"menu draw {i}", run=run, audit=checks.audit_evaluation)


class FaninScale(Workload):
    """~1024 sensors -> readout -> L1 -> HLT -> storage, parametric classifiers."""

    name = "fanin_scale"
    SENSORS = 1024
    FAMILIES = ("normal", "logistic", "uniform")

    def _inputs(self, rng, family: str) -> dict:
        return {
            "family": family,
            "sizes": rng.uniform(8e3, 24e3, self.SENSORS).tolist(),
            "separations": (rng.uniform(1.5, 3.5), rng.uniform(1.5, 3.5)),
        }

    @staticmethod
    def build(family: str, sizes: list[float], separations: tuple[float, float]):
        """The graph, built with the public constructors."""
        sensors = [
            graph.SensorNode(
                id=f"s{i:04d}", sample_size=size, sample_rate=40e6, relevant_fraction=1e-4
            )
            for i, size in enumerate(sizes)
        ]

        def model(separation: float) -> ClassifierModel:
            return ClassifierModel(
                positive=ParametricScores(family, separation, 1.0),
                negative=ParametricScores(family, 0.0, 1.0),
            )

        linear = functions.LinearFn(1.0)
        process = [
            graph.ProcessNode(
                id="readout",
                role="readout",
                complexity=functions.ConstantFn(0.0),
                energy_per_op=0.0,
                output_size=linear,
            ),
            graph.ProcessNode(
                id="l1t",
                role="l1t",
                complexity=functions.LinearFn(25.0),
                energy_per_op=7.5e-12,
                output_size=linear,
                classifier=model(separations[0]),
                reduction_target=400.0,
            ),
            graph.ProcessNode(
                id="hlt",
                role="hlt",
                complexity=functions.PowerLawFn(2.4, 8.0e11, 1.6e7),
                energy_per_op=20e-12,
                output_size=linear,
                classifier=model(separations[1]),
                reduction_target=100.0,
                unit_power_w=530.0,
            ),
        ]
        links = [
            graph.CommLink(f"{s.id}_readout", s.id, "readout", 22e-12, 10.24e9) for s in sensors
        ]
        links += [
            graph.CommLink("readout_l1t", "readout", "l1t", 22e-12, 10.24e9),
            graph.CommLink("l1t_hlt", "l1t", "hlt", 25e-12, 100e9),
            graph.CommLink("hlt_storage", "hlt", "storage", 25e-12, 100e9),
        ]
        nodes = tuple(sensors + process + [graph.OutputNode("storage")])
        return graph.PipelineGraph(nodes=nodes, links=tuple(links))

    @classmethod
    def evaluate(cls, inputs: dict):
        g = cls.build(**inputs)
        assignment = graph.propagate_flows(g)
        score = metrics.score_system(g, assignment)
        ledger = energy.build_ledger(g, assignment)
        costs = energy.error_costs(g, ledger, assignment)
        return g, assignment, score, costs

    def _ops(self, rng, draw_seed):
        # Each block of three ops uses every family once, in a drawn order,
        # so the family mix of a run does not depend on the seed.
        for block in itertools.count():
            for family in rng.permutation(self.FAMILIES):
                inputs = self._inputs(rng, str(family))
                yield Op(
                    label=f"{family} block {block}",
                    run=lambda inputs=inputs: self.evaluate(inputs),
                    audit=lambda out: checks.audit_system(*out),
                )


def prepare(name: str, root: Path, seed: int) -> Workload:
    """Prepare a workload's inputs: the work setup_s times after the import."""
    cls = {c.name: c for c in (ReportFamily, MenuFresh, FaninScale)}[name]
    return cls(root, seed)
