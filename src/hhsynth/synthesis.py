"""Posterior-predictive synthetic replicates.

Untruncated mode holds each household's size and latent class assignments
fixed at a checkpoint's values and redraws every other attribute from that
checkpoint's kernels, so replicate i lines up with original household i and
the size histogram is preserved exactly.  Truncated mode releases the
feasible by-product households generated during the selected sweeps; their
per-size counts match the original by construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .data import Dataset, DatasetView, Schema, load_dataset, write_dataset

if TYPE_CHECKING:
    from .checkpoints import CheckpointRecord


@dataclass
class SyntheticReplicates:
    replicates: list[Dataset]
    source_iterations: list[int]
    mode: str
    seed: int | None = None


def select_records(records: list[CheckpointRecord], n: int) -> list[CheckpointRecord]:
    """Evenly spaced selection across the retained draws, endpoints included."""
    if n < 1:
        raise ValueError("need at least one replicate")
    if len(records) < n:
        raise ValueError(f"only {len(records)} checkpoints for {n} replicates")
    if n == 1:
        return [records[-1]]
    picks = np.round(np.linspace(0, len(records) - 1, n)).astype(int)
    return [records[i] for i in picks]


def synthesize_untruncated(
    dataset: Dataset,
    records: list[CheckpointRecord],
    n_replicates: int,
    seed: int,
) -> SyntheticReplicates:
    """Partially synthetic replicates: sizes and class assignments kept.

    Each replicate draws its household variables but the size, then its
    member variables, from one block of uniforms.
    """
    from .model import DrawTables, with_size_column
    from .rng import substream

    schema = dataset.schema
    s = schema.size_index
    n_free = dataset.n_households * (len(schema.household_vars) - 1)
    chosen = select_records(records, n_replicates)
    replicates = []
    for l, record in enumerate(chosen):
        rng = substream(seed, "synthesize", l)
        tables = DrawTables(record.params, schema)
        g = record.hh_class
        u = rng.random(n_free + dataset.n_individuals * len(schema.individual_vars))
        free = tables.hh(with_size=False).draw(g, u[:n_free])
        hh_codes = with_size_column(free, s, dataset.hh_codes[:, s])  # size copied, never redrawn
        mem_codes = tables.members(g[dataset.mem_hh], record.mem_class, u[n_free:])
        synthetic = DatasetView.from_arrays(hh_codes, mem_codes, dataset.sizes)
        replicates.append(Dataset(schema, view=synthetic, ids=dataset.ids))
    return SyntheticReplicates(
        replicates=replicates,
        source_iterations=[r.iteration for r in chosen],
        mode="untruncated",
        seed=seed,
    )


def synthesize_truncated(
    schema: Schema,
    records: list[CheckpointRecord],
    n_replicates: int,
) -> SyntheticReplicates:
    """Fully synthetic replicates from the feasible by-product households."""
    chosen = select_records(records, n_replicates)
    replicates = []
    for record in chosen:
        if record.feasible is None:
            raise ValueError(
                "checkpoint carries no feasible by-product; synthesize from a "
                "fit that used rules"
            )
        replicates.append(Dataset(schema, view=record.feasible))
    return SyntheticReplicates(
        replicates=replicates,
        source_iterations=[r.iteration for r in chosen],
        mode="truncated",
        seed=None,
    )


def write_replicates(reps: SyntheticReplicates, out_dir: str | Path) -> dict:
    """Write one CSV per replicate plus a manifest; returns the manifest."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = []
    for l, replicate in enumerate(reps.replicates, start=1):
        name = f"synthetic_{l}.csv"
        write_dataset(replicate, out_dir / name)
        files.append(name)
    manifest = {
        "mode": reps.mode,
        "n_replicates": len(reps.replicates),
        "seed": reps.seed,
        "source_iterations": reps.source_iterations,
        "files": files,
    }
    with (out_dir / "manifest.json").open("w", encoding="utf8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return manifest


def read_replicates(out_dir: str | Path, schema: Schema) -> list[Dataset]:
    """Load the replicates written by write_replicates, in the manifest's order."""
    out_dir = Path(out_dir)
    with (out_dir / "manifest.json").open(encoding="utf8") as fh:
        files = json.load(fh)["files"]
    return [load_dataset(out_dir / name, schema) for name in files]
