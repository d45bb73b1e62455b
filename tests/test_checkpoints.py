"""Checkpoint serialization: exact float round trips and file structure."""

import json

import numpy as np
import pytest

from hhsynth.checkpoints import (
    CheckpointRecord,
    CheckpointWriter,
    params_from_jsonable,
    params_to_jsonable,
    read_checkpoints,
    record_from_jsonable,
    record_to_jsonable,
)
from hhsynth.data import DatasetView
from hhsynth.model import Hyperparams, prior_draw
from hhsynth.rng import substream


def assert_params_equal(a, b):
    np.testing.assert_array_equal(a.hh_sticks, b.hh_sticks)
    np.testing.assert_array_equal(a.hh_weights, b.hh_weights)
    np.testing.assert_array_equal(a.mem_sticks, b.mem_sticks)
    np.testing.assert_array_equal(a.mem_weights, b.mem_weights)
    for x, y in zip(a.hh_kernels, b.hh_kernels):
        np.testing.assert_array_equal(x, y)
    for x, y in zip(a.mem_kernels, b.mem_kernels):
        np.testing.assert_array_equal(x, y)
    assert a.hh_conc == b.hh_conc
    np.testing.assert_array_equal(np.asarray(a.mem_conc), np.asarray(b.mem_conc))


def test_params_json_round_trip_is_bitwise(toy_schema):
    hyper = Hyperparams.uniform(toy_schema, 4, 3)
    params = prior_draw(hyper, substream(50, "ckpt"))
    # through an actual json encode/decode, not just the dict helpers
    doc = json.loads(json.dumps(params_to_jsonable(params)))
    back = params_from_jsonable(doc)
    assert_params_equal(params, back)
    back.validate()


def test_params_round_trip_per_class_concentration(toy_schema):
    hyper = Hyperparams.uniform(toy_schema, 3, 2, per_class_mem_conc=True)
    params = prior_draw(hyper, substream(50, "perclass"))
    assert isinstance(params.mem_conc, np.ndarray)
    back = params_from_jsonable(json.loads(json.dumps(params_to_jsonable(params))))
    assert isinstance(back.mem_conc, np.ndarray)
    assert_params_equal(params, back)


def test_record_round_trip_with_feasible(toy_schema):
    hyper = Hyperparams.uniform(toy_schema, 2, 2)
    params = prior_draw(hyper, substream(51, "rec"))
    record = CheckpointRecord(
        iteration=17,
        params=params,
        hh_class=np.array([0, 1, 1]),
        mem_class=np.array([1, 0, 0, 1, 1]),
        feasible=DatasetView.from_arrays(
            np.array([[0, 1], [1, 0]]), np.array([[0, 2], [1, 3], [0, 0]]), [2, 1]
        ),
    )
    doc = record_to_jsonable(record)
    # the stored form is the three arrays it always was
    assert doc["feasible"] == {
        "hh_codes": [[0, 1], [1, 0]],
        "mem_codes": [[0, 2], [1, 3], [0, 0]],
        "sizes": [2, 1],
    }
    back = record_from_jsonable(json.loads(json.dumps(doc)))
    assert back.iteration == 17
    np.testing.assert_array_equal(back.hh_class, record.hh_class)
    np.testing.assert_array_equal(back.mem_class, record.mem_class)
    assert isinstance(back.feasible, DatasetView)
    for name in ("hh_codes", "mem_codes", "mem_hh", "hh_start", "sizes"):
        got, want = getattr(back.feasible, name), getattr(record.feasible, name)
        np.testing.assert_array_equal(got, want)
        assert got.dtype == want.dtype == np.int64, name
    assert back.hh_class.dtype == np.int64


def test_record_without_feasible_stays_none(toy_schema):
    hyper = Hyperparams.uniform(toy_schema, 2, 2)
    record = CheckpointRecord(
        iteration=1,
        params=prior_draw(hyper, substream(51, "nofeas")),
        hh_class=np.array([0]),
        mem_class=np.array([0]),
    )
    doc = record_to_jsonable(record)
    assert "feasible" not in doc
    assert record_from_jsonable(doc).feasible is None


def test_writer_reader_stream(tmp_path, toy_schema):
    hyper = Hyperparams.uniform(toy_schema, 2, 2)
    path = tmp_path / "chain.jsonl"
    with CheckpointWriter(path, {"mode": "untruncated", "seed": 9}) as writer:
        for i in range(3):
            writer.write(
                CheckpointRecord(
                    iteration=10 * (i + 1),
                    params=prior_draw(hyper, substream(52, i)),
                    hh_class=np.array([i]),
                    mem_class=np.array([i, i]),
                )
            )
        assert writer.count == 3
    meta, records = read_checkpoints(path)
    assert meta["mode"] == "untruncated"
    assert meta["seed"] == 9
    assert [r.iteration for r in records] == [10, 20, 30]
    want = prior_draw(hyper, substream(52, 1))
    assert_params_equal(records[1].params, want)


def test_reader_rejects_foreign_files(tmp_path):
    path = tmp_path / "other.jsonl"
    path.write_text('{"format": "something-else"}\n')
    with pytest.raises(ValueError, match="not a checkpoint file"):
        read_checkpoints(path)
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty"):
        read_checkpoints(empty)
