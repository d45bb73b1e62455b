"""Self-tests of the benchmark: output checks, tracer hygiene, metric names.

Run from the repository root:  python -m pytest bench/tests
"""

import csv
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, import_package  # noqa: E402

from hhsynth.constraints import compile_rules  # noqa: E402
from hhsynth.data import load_schema  # noqa: E402

TOY = BENCH / "workloads" / "toy-cli"
HEADER = ["household_id", "person_index", "own", "hh_size", "role", "color"]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with path.open("w", newline="", encoding="utf8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def toy_replicate_checks(tmp_path: Path, second_role: int) -> dict[str, checks.Check]:
    sample = [["a", 1, 1, 2, 1, 1], ["a", 2, 1, 2, 2, 3], ["b", 1, 2, 1, 1, 4]]
    synthetic = [["x", 1, 2, 2, 1, 2], ["x", 2, 2, 2, second_role, 2], ["y", 1, 1, 1, 1, 1]]
    write_csv(tmp_path / "sample.csv", HEADER, sample)
    write_csv(tmp_path / "synthetic_1.csv", HEADER, synthetic)
    schema = load_schema(TOY / "schema.yaml")
    rules = compile_rules((TOY / "rules.txt").read_text(encoding="utf8"), schema)
    return {c.name: c for c in checks.replicate_checks(tmp_path, schema, rules, 1)}


def test_feasible_replicate_passes(tmp_path):
    result = toy_replicate_checks(tmp_path, second_role=2)
    assert all(c.ok for c in result.values()), result


def test_planted_infeasible_household_fails_its_check(tmp_path):
    result = toy_replicate_checks(tmp_path, second_role=1)  # two heads in household x
    assert result["sizes:synthetic_1.csv"].ok
    assert not result["feasible:synthetic_1.csv"].ok
    assert result["feasible:synthetic_1.csv"].detail == "1 infeasible households"


def test_replicate_with_wrong_sizes_fails(tmp_path):
    toy_replicate_checks(tmp_path, second_role=2)
    write_csv(tmp_path / "synthetic_1.csv", HEADER, [["x", 1, 2, 2, 1, 2], ["y", 1, 1, 1, 1, 1]])
    schema = load_schema(TOY / "schema.yaml")
    result = checks.replicate_checks(tmp_path, schema, None, 1)
    assert [c.ok for c in result] == [False]


def test_planted_np_float64_cell_fails_its_check(tmp_path):
    header = ["iteration", "hh_concentration", "pi_1"]
    write_csv(tmp_path / "diagnostics.csv", header, [[1, "0.5", "np.float64(0.1)"]])
    write_csv(tmp_path / "cells.csv", header, [[1, "0.5", "0.1"]])
    result = {c.name: c for c in checks.parse_checks(tmp_path, ["diagnostics.csv", "cells.csv"])}
    assert not result["parse:diagnostics.csv"].ok
    assert "np.float64(0.1)" in result["parse:diagnostics.csv"].detail
    assert result["parse:cells.csv"].ok


def test_json_and_jsonl_parse_checks(tmp_path):
    (tmp_path / "good.jsonl").write_text('{"a": 1}\n{"b": 2}\n', encoding="utf8")
    (tmp_path / "bad.json").write_text('{"a": 1', encoding="utf8")
    result = {c.name: c.ok for c in checks.parse_checks(tmp_path, ["good.jsonl", "bad.json"])}
    assert result == {"parse:good.jsonl": True, "parse:bad.json": False}


def test_risk_checks_catch_bounds_and_histogram_total(tmp_path):
    header = ["target_id", "n_candidates", "rank_of_truth", "rho_truth", "rho_max"]
    write_csv(tmp_path / "risk_summary.csv", header, [["t1", 3, 1, 0.5, 0.5], ["t2", 3, 2, 0.4, 0.3]])
    write_csv(tmp_path / "rank_histogram.csv", ["rank_of_truth", "n_targets"], [[1, 1], [2, 2]])
    result = {c.name: c.ok for c in checks.risk_checks(tmp_path)}
    assert result == {"risk:bounds": False, "risk:histogram_total": False}


def hhsynth_attributes() -> dict:
    """Every attribute of every hhsynth module and of the classes they define."""
    state = {}
    for module in import_package():
        state[module.__name__] = dict(vars(module))
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == module.__name__:
                state[f"{module.__name__}.{value.__name__}"] = dict(vars(value))
    return state


def same_objects(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(
        a[k].keys() == b[k].keys() and all(a[k][n] is b[k][n] for n in a[k]) for k in a
    )


def test_tracer_leaves_every_module_attribute_as_found(tmp_path):
    from hhsynth import inference
    from hhsynth.data import load_dataset
    from hhsynth.inference import CellQuery

    before = hhsynth_attributes()
    tracer = Tracer("test")
    with tracer:
        assert not same_objects(before, hhsynth_attributes())
        assert inference.estimate_proportion is not before["hhsynth.inference"]["estimate_proportion"]
        write_csv(tmp_path / "sample.csv", HEADER, [["a", 1, 1, 2, 1, 1], ["a", 2, 1, 2, 2, 3]])
        dataset = load_dataset(tmp_path / "sample.csv", load_schema(TOY / "schema.yaml"))
        inference.estimate_proportion(dataset, CellQuery(variables=("color",), codes=(0,)))
    assert same_objects(before, hhsynth_attributes())
    names = [span[2] for span in tracer.spans]
    assert "inference.estimate_proportion" in names and "data.to_view" in names
    to_view = tracer.spans[names.index("data.to_view")]
    assert tracer.spans[to_view[1]][2] == "inference.estimate_proportion"


def test_tracer_counts_cap_hits_and_reraises():
    from hhsynth import truncated
    from hhsynth.model import Hyperparams, prior_draw

    schema = load_schema(TOY / "schema.yaml")
    rules = compile_rules((TOY / "rules.txt").read_text(encoding="utf8"), schema)
    params = prior_draw(Hyperparams.uniform(schema, 2, 2), np.random.default_rng(0))
    tracer = Tracer("test")
    with tracer, pytest.raises(truncated.CapExceededError):
        truncated.generate_augmented(params, schema, rules, {1: 5}, np.random.default_rng(1), 0)
    assert tracer.counters["truncated.cap_hits"] == 1


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf8"))


def test_every_metric_name_is_well_formed():
    spec = benchmark_spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names + [w["name"] for w in spec["workloads"]]:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_span_metrics_cover_every_per_layer_metric(tmp_path):
    for stage in run.STAGES:
        (tmp_path / f"{stage}.json").write_text(
            json.dumps({"run_id": "t", "spans": [], "counters": {}}), encoding="utf8"
        )
    (tmp_path / "checkpoints.jsonl").write_text("{}\n", encoding="utf8")
    pipeline = run.Pipeline(walls={stage: 1.0 for stage in run.STAGES})
    metrics = run.span_metrics(tmp_path, pipeline, tmp_path)
    # the traced run adds the untraced stage walls and the overhead itself
    expected = {m["name"] for m in benchmark_spec()["per_layer"]} - {"trace.overhead_s"}
    expected -= {f"cli.{stage}.wall_s" for stage in run.STAGES}
    assert set(metrics) == expected


def test_layer_map_covers_every_per_layer_metric_once():
    spec = benchmark_spec()
    layers = json.loads((BENCH / "layers.json").read_text(encoding="utf8"))["layers"]
    mapped = [name for layer in layers.values() for name in layer["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in spec["per_layer"])
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    workloads = {w["name"] for w in spec["workloads"]}
    for layer in layers.values():
        assert set(layer["moves"]) <= end_to_end
        assert set(layer["most_work"] + layer["little_work"]) <= workloads


def test_digest_record_catches_a_changed_digest_of_the_same_key(tmp_path):
    record = tmp_path / "digests.json"
    assert run.across_runs_check(record, "toy-cli:1:abc", "d1").ok
    assert run.across_runs_check(record, "toy-cli:1:abc", "d1").ok
    assert run.across_runs_check(record, "toy-cli:2:abc", "d2").ok
    assert not run.across_runs_check(record, "toy-cli:1:abc", "d3").ok


def test_merged_checks_count_once_per_run_and_fail_if_any_pipeline_failed():
    first = [checks.Check("stage:fit", True, True), checks.Check("parse:a.csv", False, False, "x")]
    second = [checks.Check("stage:fit", False, True, "exit 1"), checks.Check("parse:a.csv", False, False, "y")]
    merged = checks.merge(first + second + first)
    assert [(c.name, c.ok, c.detail) for c in merged] == [
        ("stage:fit", False, "exit 1"), ("parse:a.csv", False, "x")]
    assert first[0].ok  # the pipelines' own checks are left as they were
