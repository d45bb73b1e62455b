"""Replicate generation: alignment guarantees, selection, and file round trips."""

import numpy as np
import pytest

from hhsynth.checkpoints import CheckpointRecord
from hhsynth.constraints import compile_rules
from hhsynth.gibbs import ChainConfig, run_chain
from hhsynth.model import Hyperparams, prior_draw
from hhsynth.rng import substream
from hhsynth.synthesis import (
    read_replicates,
    select_records,
    synthesize_truncated,
    synthesize_untruncated,
    write_replicates,
)

from oracles import check_household, records_of

pytestmark = pytest.mark.filterwarnings("ignore:.*truncation level.*")


def stub_records(n):
    return [CheckpointRecord(iteration=i, params=None, hh_class=None, mem_class=None) for i in range(n)]


def test_select_records_spacing():
    records = stub_records(10)
    assert [r.iteration for r in select_records(records, 3)] == [0, 4, 9]
    assert [r.iteration for r in select_records(records, 10)] == list(range(10))
    assert [r.iteration for r in select_records(records, 1)] == [9]
    assert [r.iteration for r in select_records(stub_records(7), 4)] == [0, 2, 4, 6]


def test_select_records_errors():
    records = stub_records(4)
    with pytest.raises(ValueError, match="at least one"):
        select_records(records, 0)
    with pytest.raises(ValueError, match="4 checkpoints for 5"):
        select_records(records, 5)


@pytest.fixture
def fitted(toy_schema, toy_dataset):
    hyper = Hyperparams.uniform(toy_schema, 3, 2)
    return run_chain(toy_dataset, hyper, ChainConfig(12, 4, seed=21))


def test_untruncated_keeps_ids_and_sizes(toy_dataset, fitted):
    reps = synthesize_untruncated(toy_dataset, fitted.checkpoints, 3, seed=77)
    assert reps.mode == "untruncated"
    assert len(reps.replicates) == 3
    # 8 retained draws at iterations 5..12; indices round(linspace(0,7,3)) = 0,4,7
    assert reps.source_iterations == [5, 9, 12]
    for replicate in reps.replicates:
        assert [r.household_id for r in records_of(replicate)] == [
            r.household_id for r in records_of(toy_dataset)
        ]
        assert [r.size for r in records_of(replicate)] == [
            r.size for r in records_of(toy_dataset)
        ]
        replicate.validate()


def test_untruncated_redraws_from_kernels(toy_schema, toy_dataset, fitted):
    # degenerate kernels pin every redrawn attribute, proving provenance
    record = fitted.checkpoints[-1]
    params = record.params.copy()
    for k, kernel in enumerate(params.hh_kernels):
        if k != toy_schema.size_index:
            kernel[:] = 0.0
            kernel[:, 1] = 1.0
    for kernel in params.mem_kernels:
        kernel[:] = 0.0
        kernel[..., 0] = 1.0
    pinned = CheckpointRecord(
        iteration=record.iteration,
        params=params,
        hh_class=record.hh_class,
        mem_class=record.mem_class,
    )
    reps = synthesize_untruncated(toy_dataset, [pinned], 1, seed=3)
    replicate = reps.replicates[0]
    for rec, orig in zip(records_of(replicate), records_of(toy_dataset)):
        assert rec.hh_values[0] == 1
        assert rec.hh_values[1] == orig.hh_values[1]
        for member in rec.members:
            assert member == (0, 0)


def test_untruncated_seed_controls_output(toy_dataset, fitted):
    a = synthesize_untruncated(toy_dataset, fitted.checkpoints, 2, seed=5)
    b = synthesize_untruncated(toy_dataset, fitted.checkpoints, 2, seed=5)
    c = synthesize_untruncated(toy_dataset, fitted.checkpoints, 2, seed=6)
    assert list(map(records_of, a.replicates)) == list(map(records_of, b.replicates))
    assert list(map(records_of, a.replicates)) != list(map(records_of, c.replicates))


@pytest.fixture
def fitted_truncated(toy_schema, toy_dataset):
    rules = compile_rules("exactly_one role = 1", toy_schema)
    hyper = Hyperparams.uniform(toy_schema, 3, 2)
    return run_chain(toy_dataset, hyper, ChainConfig(10, 4, seed=23), rules=rules), rules


def test_truncated_releases_feasible_byproduct(toy_schema, toy_dataset, fitted_truncated):
    result, rules = fitted_truncated
    reps = synthesize_truncated(toy_schema, result.checkpoints, 3)
    assert reps.mode == "truncated"
    assert reps.seed is None
    for replicate in reps.replicates:
        replicate.validate()
        # fresh ids, not the originals
        assert [r.household_id for r in records_of(replicate)] != [
            r.household_id for r in records_of(toy_dataset)
        ]
        sizes = sorted(r.size for r in records_of(replicate))
        assert sizes == sorted(r.size for r in records_of(toy_dataset))
        for rec in records_of(replicate):
            assert check_household(rules, rec)


def test_truncated_requires_byproduct(toy_schema, fitted):
    with pytest.raises(ValueError, match="no feasible by-product"):
        synthesize_truncated(toy_schema, fitted.checkpoints, 1)


def test_write_read_round_trip(tmp_path, toy_dataset, fitted):
    reps = synthesize_untruncated(toy_dataset, fitted.checkpoints, 2, seed=9)
    manifest = write_replicates(reps, tmp_path / "syn")
    assert manifest["files"] == ["synthetic_1.csv", "synthetic_2.csv"]
    assert manifest["n_replicates"] == 2
    assert manifest["mode"] == "untruncated"
    assert manifest["seed"] == 9
    for name in manifest["files"]:
        assert (tmp_path / "syn" / name).exists()
    assert manifest["source_iterations"] == reps.source_iterations
    back = read_replicates(tmp_path / "syn", toy_dataset.schema)
    assert list(map(records_of, back)) == list(map(records_of, reps.replicates))
