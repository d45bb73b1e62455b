"""JSON-lines checkpoint files: one meta line, then one retained draw per line.

JSON float serialization uses repr, which round-trips doubles exactly, so a
written checkpoint reloads bit-for-bit.  Truncated-mode records additionally
carry the iteration's feasible by-product households as a DatasetView, stored
as its household codes, member codes and sizes, which the synthesizer
releases as they are.  A reader that needs a few draws, or only their
parameters, parses only those: the writer puts each record's parameters right
after its iteration, where the reader finds them without parsing the rest.

The writer lays out each record line itself.  The parameters go through
json.dumps; the class arrays and the feasible households' int arrays are
encoded straight from the arrays, with no Python object per code, into the
bytes json.dumps gives their nested lists.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .data import DatasetView
from .model import Hyperparams, Params, stick_break

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
        "mem_conc": params.mem_conc,
    }


def params_from_jsonable(doc: dict) -> Params:
    hh_sticks = np.asarray(doc["hh_sticks"], dtype=float)
    mem_sticks = np.asarray(doc["mem_sticks"], dtype=float)
    return Params(
        hh_sticks=hh_sticks,
        hh_weights=stick_break(hh_sticks),
        mem_sticks=mem_sticks,
        mem_weights=stick_break(mem_sticks),
        hh_kernels=[np.asarray(k, dtype=float) for k in doc["hh_kernels"]],
        mem_kernels=[np.asarray(k, dtype=float) for k in doc["mem_kernels"]],
        hh_conc=float(doc["hh_conc"]),
        mem_conc=float(doc["mem_conc"]),
    )


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


def _int_array_json(a: np.ndarray) -> str:
    """json.dumps(a.tolist()) of a 1-D or 2-D int array, from one byte buffer.

    Each value in the array's range gets two strings, one ending in ", " and
    one ending a row; the array indexes them into a fixed-width byte array,
    whose padding is dropped.  Codes and class ids span a short range, so
    the table is small.
    """
    if a.size == 0:
        return json.dumps(a.tolist())
    low = int(a.min())
    digits = map(str, range(low, int(a.max()) + 1))
    table = np.array([[d + ", ", d + "], ["] for d in digits], dtype="S")
    ends = 0 if a.ndim == 1 else (np.arange(a.shape[1]) == a.shape[1] - 1).astype(np.intp)
    pieces = table[a - low, ends].view(np.uint8)
    text = pieces[pieces != 0].tobytes().decode("ascii")
    return f"[{text[:-2]}]" if a.ndim == 1 else f"[[{text[:-4]}]]"


class CheckpointWriter:
    """Streams checkpoint records to a JSON-lines file."""

    def __init__(self, path: str | Path, meta: dict):
        self._fh = Path(path).open("w", encoding="utf8")
        header = {"format": FORMAT_NAME, "version": FORMAT_VERSION, **meta}
        self._fh.write(json.dumps(header) + "\n")
        self.count = 0

    def write(self, record: CheckpointRecord) -> None:
        """One record line: keys in the order read_checkpoints expects, each
        value in the bytes json.dumps gives it."""
        write = self._fh.write
        write(f'{{"iteration": {json.dumps(record.iteration)}, "params": ')
        write(json.dumps(params_to_jsonable(record.params)))
        write(f', "hh_class": {_int_array_json(record.hh_class)}')
        write(f', "mem_class": {_int_array_json(record.mem_class)}')
        if record.feasible is not None:
            write(f', "feasible": {{"hh_codes": {_int_array_json(record.feasible.hh_codes)}')
            write(f', "mem_codes": {_int_array_json(record.feasible.mem_codes)}')
            write(f', "sizes": {_int_array_json(record.feasible.sizes)}}}')
        write("}\n")
        self.count += 1

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> CheckpointWriter:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def hyper_meta(hyper: Hyperparams) -> dict:
    doc = {f.name: getattr(hyper, f.name) for f in fields(hyper)}
    for key in ("hh_kernel_prior", "mem_kernel_prior"):
        doc[key] = [list(map(float, w)) for w in doc[key]]
    return doc


def select_records(records: list, n: int) -> list:
    """Evenly spaced selection across the retained draws, endpoints included."""
    if n < 1:
        raise ValueError("need at least one replicate")
    if len(records) < n:
        raise ValueError(f"only {len(records)} checkpoints for {n} replicates")
    if n == 1:
        return [records[-1]]
    picks = np.round(np.linspace(0, len(records) - 1, n)).astype(int)
    return [records[i] for i in picks]


# how the writer starts each record line: the iteration, then the parameters
_PARAMS_AT = re.compile(r'\{"iteration": -?\d+, "params": ')


def read_checkpoints(
    path: str | Path, n: int | None = None, params_only: bool = False
) -> tuple[dict, list]:
    """Load the meta line and the records: every one, or the n that
    select_records(records, n) picks.

    Only the picked lines are parsed, and only they are held: a first pass
    notes where each record line starts, then the reader seeks to the picked
    ones.  When the file holds fewer than n records it returns them all, and
    the caller compares the count.  With params_only, each picked record
    yields its Params alone, decoded from where the writer puts them without
    parsing the rest of the line; a line laid out otherwise is parsed in full.
    """
    with Path(path).open("rb") as fh:
        first = fh.readline()
        if not first:
            raise ValueError(f"{path}: empty checkpoint file")
        meta = json.loads(first)
        if meta.get("format") != FORMAT_NAME:
            raise ValueError(f"{path}: not a checkpoint file")
        starts, offset = [], len(first)  # byte offsets of the record lines
        for line in fh:
            if line.strip():
                starts.append(offset)
            offset += len(line)
        if n is not None and starts:
            starts = select_records(starts, min(n, len(starts)))
        raw_decode = json.JSONDecoder().raw_decode
        records = []
        for start in starts:
            fh.seek(start)
            line = fh.readline().decode("utf8")
            at = _PARAMS_AT.match(line) if params_only else None
            doc = {"params": raw_decode(line, at.end())[0]} if at else json.loads(line)
            if isinstance(doc["params"]["mem_conc"], list):
                raise ValueError(
                    f"{path}: written by a fit with one member concentration per class, "
                    "which is no longer supported; run fit again"
                )
            records.append(params_from_jsonable(doc["params"]) if params_only
                           else record_from_jsonable(doc))
    return meta, records
