"""Span tracer that times calls into hhsynth's public functions from outside.

Installing a Tracer rebinds each traced function in every ``hhsynth`` module
namespace that holds it, and traced methods on their classes; uninstalling
puts back the exact objects it found.  The package source is not modified.

Each call becomes a span (id, parent id, name, start, end) kept in memory;
``dump`` writes them, with the run id and the layer counters, as one JSON file
when the traced stage ends.  Counters are read from what the traced calls
return or raise, never from the program's internals.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from pathlib import Path

MODULES = (
    "hhsynth",
    "hhsynth.checkpoints",
    "hhsynth.cli",
    "hhsynth.constraints",
    "hhsynth.data",
    "hhsynth.gibbs",
    "hhsynth.inference",
    "hhsynth.model",
    "hhsynth.risk",
    "hhsynth.rng",
    "hhsynth.simulate",
    "hhsynth.synthesis",
    "hhsynth.truncated",
)


def _count_load(counters: Counter, dataset) -> None:
    counters["data.load_dataset.households"] += dataset.n_households


def _count_check(counters: Counter, mask) -> None:
    counters["constraints.check_batch.households"] += len(mask)


def _count_augmented(counters: Counter, batch) -> None:
    counters["truncated.candidates"] += batch.total_candidates
    counters["truncated.infeasible"] += batch.total_infeasible


def _count_chain(counters: Counter, result) -> None:
    counters["gibbs.sweeps"] += len(result.diagnostics.occupied_hh)


def _count_risk(counters: Counter, summary) -> None:
    counters["risk.targets"] += len(summary.rows)
    counters["risk.candidates"] += sum(row.n_candidates for row in summary.rows)


# (span name, module, attribute or "Class.method", counter on the return value)
TARGETS = (
    ("simulate.simulate_toy_population", "hhsynth.simulate", "simulate_toy_population", None),
    ("simulate.sample_households", "hhsynth.simulate", "sample_households", None),
    ("data.load_dataset", "hhsynth.data", "load_dataset", _count_load),
    ("data.write_dataset", "hhsynth.data", "write_dataset", None),
    ("data.to_view", "hhsynth.data", "DatasetView.from_dataset", None),
    ("model.member_logliks", "hhsynth.model", "member_logliks", None),
    ("model.dataset_loglik", "hhsynth.model", "dataset_loglik", None),
    ("model.draw_households", "hhsynth.model", "draw_households", None),
    ("gibbs.run_chain", "hhsynth.gibbs", "run_chain", _count_chain),
    ("gibbs.sample_household_classes", "hhsynth.gibbs", "sample_household_classes", None),
    ("gibbs.sample_member_classes", "hhsynth.gibbs", "sample_member_classes", None),
    ("gibbs.resample_parameters", "hhsynth.gibbs", "resample_parameters", None),
    ("gibbs.diagnostics_csv", "hhsynth.gibbs", "Diagnostics.to_csv", None),
    ("truncated.generate_augmented", "hhsynth.truncated", "generate_augmented", _count_augmented),
    ("constraints.check_batch", "hhsynth.constraints", "check_batch", _count_check),
    ("checkpoints.write", "hhsynth.checkpoints", "CheckpointWriter.write", None),
    ("checkpoints.read_checkpoints", "hhsynth.checkpoints", "read_checkpoints", None),
    ("synthesis.synthesize", "hhsynth.synthesis", "synthesize_truncated", None),
    ("synthesis.synthesize", "hhsynth.synthesis", "synthesize_untruncated", None),
    ("synthesis.write_replicates", "hhsynth.synthesis", "write_replicates", None),
    ("synthesis.read_replicates", "hhsynth.synthesis", "read_replicates", None),
    ("inference.estimate_proportion", "hhsynth.inference", "estimate_proportion", None),
    ("inference.cell_report", "hhsynth.inference", "cell_report", None),
    ("inference.household_report", "hhsynth.inference", "household_report", None),
    ("risk.risk_sweep", "hhsynth.risk", "risk_sweep", _count_risk),
    ("risk.replicate_likelihood", "hhsynth.risk", "replicate_likelihood", None),
    ("risk.importance_weights", "hhsynth.risk", "importance_weights", None),
)


def import_package() -> list:
    """Import every hhsynth module, so that no traced name is bound late."""
    return [importlib.import_module(name) for name in MODULES]


class Tracer:
    """Rebinds the traced functions while installed; records spans and counters."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [id, parent, name, start, end]
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, count):
        from hhsynth.truncated import CapExceededError

        spans, stack, counters = self.spans, self._stack, self.counters
        # a cap hit passes through every traced caller too; count it once
        counts_cap_hits = name == "truncated.generate_augmented"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else None, name, 0.0, 0.0]
            spans.append(span)
            stack.append(span[0])
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except CapExceededError:
                if counts_cap_hits:
                    counters["truncated.cap_hits"] += 1
                raise
            finally:
                span[4] = time.perf_counter()
                stack.pop()
            if count is not None:
                count(counters, result)
            return result

        return traced

    def _rebind(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        modules = import_package()
        for name, module_name, attr, count in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                raw = vars(cls)[method]
                if isinstance(raw, classmethod):
                    self._rebind(cls, method, classmethod(self._wrap(name, raw.__func__, count)))
                else:
                    self._rebind(cls, method, self._wrap(name, raw, count))
                continue
            original = getattr(module, attr)
            traced = self._wrap(name, original, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, traced)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def dump(self, path: str | Path) -> None:
        doc = {"run_id": self.run_id, "spans": self.spans, "counters": dict(self.counters)}
        Path(path).write_text(json.dumps(doc), encoding="utf8")
