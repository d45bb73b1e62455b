"""JSON-lines checkpoint files: one meta line, then one retained draw per line.

JSON float serialization uses repr, which round-trips doubles exactly, so a
written checkpoint reloads bit-for-bit.  Truncated-mode records additionally
carry the iteration's feasible by-product households as a DatasetView, stored
as its household codes, member codes and sizes, which the synthesizer
releases as they are.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import DatasetView
from .model import Hyperparams, Params

FORMAT_NAME = "hhsynth-checkpoints"
FORMAT_VERSION = 1


@dataclass
class CheckpointRecord:
    """One retained draw: parameters, latent classes and, in truncated mode,
    the sweep's feasible by-product households in ascending size order."""

    iteration: int
    params: Params
    hh_class: np.ndarray
    mem_class: np.ndarray
    feasible: DatasetView | None = None


def params_to_jsonable(params: Params) -> dict:
    return {
        "hh_sticks": params.hh_sticks.tolist(),
        "mem_sticks": params.mem_sticks.tolist(),
        "hh_kernels": [k.tolist() for k in params.hh_kernels],
        "mem_kernels": [k.tolist() for k in params.mem_kernels],
        "hh_conc": params.hh_conc,
        "mem_conc": (
            params.mem_conc.tolist()
            if isinstance(params.mem_conc, np.ndarray)
            else params.mem_conc
        ),
    }


def params_from_jsonable(doc: dict) -> Params:
    from .model import stick_break

    hh_sticks = np.asarray(doc["hh_sticks"], dtype=float)
    mem_sticks = np.asarray(doc["mem_sticks"], dtype=float)
    mem_conc = doc["mem_conc"]
    return Params(
        hh_sticks=hh_sticks,
        hh_weights=stick_break(hh_sticks),
        mem_sticks=mem_sticks,
        mem_weights=stick_break(mem_sticks),
        hh_kernels=[np.asarray(k, dtype=float) for k in doc["hh_kernels"]],
        mem_kernels=[np.asarray(k, dtype=float) for k in doc["mem_kernels"]],
        hh_conc=float(doc["hh_conc"]),
        mem_conc=(
            np.asarray(mem_conc, dtype=float) if isinstance(mem_conc, list) else float(mem_conc)
        ),
    )


def record_to_jsonable(record: CheckpointRecord) -> dict:
    doc = {
        "iteration": record.iteration,
        "params": params_to_jsonable(record.params),
        "hh_class": record.hh_class.tolist(),
        "mem_class": record.mem_class.tolist(),
    }
    if record.feasible is not None:
        doc["feasible"] = {
            "hh_codes": record.feasible.hh_codes.tolist(),
            "mem_codes": record.feasible.mem_codes.tolist(),
            "sizes": record.feasible.sizes.tolist(),
        }
    return doc


def record_from_jsonable(doc: dict) -> CheckpointRecord:
    feasible = None
    if "feasible" in doc:
        f = doc["feasible"]
        feasible = DatasetView.from_arrays(f["hh_codes"], f["mem_codes"], f["sizes"])
    return CheckpointRecord(
        iteration=int(doc["iteration"]),
        params=params_from_jsonable(doc["params"]),
        hh_class=np.asarray(doc["hh_class"], dtype=np.int64),
        mem_class=np.asarray(doc["mem_class"], dtype=np.int64),
        feasible=feasible,
    )


class CheckpointWriter:
    """Streams checkpoint records to a JSON-lines file."""

    def __init__(self, path: str | Path, meta: dict):
        self._fh = Path(path).open("w", encoding="utf8")
        header = {"format": FORMAT_NAME, "version": FORMAT_VERSION, **meta}
        self._fh.write(json.dumps(header) + "\n")
        self.count = 0

    def write(self, record: CheckpointRecord) -> None:
        self._fh.write(json.dumps(record_to_jsonable(record)) + "\n")
        self.count += 1

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> CheckpointWriter:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def hyper_meta(hyper: Hyperparams) -> dict:
    return {
        "n_hh_classes": hyper.n_hh_classes,
        "n_mem_classes": hyper.n_mem_classes,
        "hh_kernel_prior": [list(map(float, w)) for w in hyper.hh_kernel_prior],
        "mem_kernel_prior": [list(map(float, w)) for w in hyper.mem_kernel_prior],
        "hh_conc_shape": hyper.hh_conc_shape,
        "hh_conc_rate": hyper.hh_conc_rate,
        "mem_conc_shape": hyper.mem_conc_shape,
        "mem_conc_rate": hyper.mem_conc_rate,
        "per_class_mem_conc": hyper.per_class_mem_conc,
    }


def read_checkpoints(path: str | Path) -> tuple[dict, list[CheckpointRecord]]:
    """Load the meta line and every record from a checkpoint file."""
    records = []
    with Path(path).open(encoding="utf8") as fh:
        first = fh.readline()
        if not first:
            raise ValueError(f"{path}: empty checkpoint file")
        meta = json.loads(first)
        if meta.get("format") != FORMAT_NAME:
            raise ValueError(f"{path}: not a checkpoint file")
        for line in fh:
            if line.strip():
                records.append(record_from_jsonable(json.loads(line)))
    return meta, records
