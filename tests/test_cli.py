"""Command line behavior: exit codes, the full pipeline, and reproducibility.

Most tests run in-process through main(); the import-graph and `python -m`
tests start a fresh interpreter.  All use self-contained config, schema, and
rule files written into the test's temporary directory.
"""

import csv
import gc
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import textwrap
import tomllib
from pathlib import Path

import pytest

import hhsynth
from hhsynth import data
from hhsynth.cli import main
from hhsynth.commands import UsageError, _build_query, _hyperparams, load_config
from hhsynth.data import load_schema
from hhsynth.gibbs import ChainConfig
from hhsynth.risk import RiskConfig

pytestmark = pytest.mark.filterwarnings("ignore:.*truncation level.*")

SCHEMA_YAML = textwrap.dedent(
    """\
    household:
      - name: own
        cardinality: 2
      - name: hh_size
        cardinality: 3
        size: true
    individual:
      - name: role
        cardinality: 2
      - name: color
        cardinality: 4
    """
)

RULES_TXT = "# one head per household\nexactly_one role = 1\n"

CONFIG_YAML = textwrap.dedent(
    """\
    seed: 4242
    schema: schema.yaml
    rules: rules.txt
    data: "{out}/sample.csv"
    population: "{out}/population.csv"
    simulate:
      population_households: 400
      sample_households: 120
      size_distribution: {1: 0.3, 2: 0.5, 3: 0.2}
      copy_variable: color
      copy_prob: 0.9
      role_variable: role
      head_code: 1
      other_code: 2
      marginals:
        color: [0.4, 0.3, 0.2, 0.1]
        own: [0.7, 0.3]
    model:
      household_classes: 6
      individual_classes: 4
      kernel_prior: empirical
    chain:
      iterations: 60
      burn_in: 30
      thin: 3
    synthesis:
      replicates: 3
    evaluate:
      max_order: 1
      min_expected: 0
      household_queries:
        - {kind: all_equal, variable: color, size: 2, name: pair_same_color}
        - {kind: exists, literals: {color: 1}, name: has_color_1}
        - kind: and
          name: renter_with_color_1
          of:
            - {kind: hh_value, variable: own, code: 2}
            - {kind: exists, literals: {color: 1}}
        - {kind: count, variable: color, code: 1, min: 2, name: two_plus_color_1}
    risk:
      kind: individual
      draws: 4
      held_fixed: [role]
    """
)


REPO = Path(__file__).resolve().parents[1]


def write_workspace(root, config_text=CONFIG_YAML):
    (root / "schema.yaml").write_text(SCHEMA_YAML)
    # room for households of four members, which no sample of CONFIG_YAML has
    (root / "schema4.yaml").write_text(SCHEMA_YAML.replace("cardinality: 3", "cardinality: 4"))
    (root / "rules.txt").write_text(RULES_TXT)
    (root / "run.yaml").write_text(config_text)
    return root / "run.yaml"


def run(command, config, out, *extra):
    return main([command, "--config", str(config), "--out", str(out), *extra])


def test_missing_config_exits_1(tmp_path, capsys):
    assert main(["fit", "--config", str(tmp_path / "nope.yaml"), "--out", str(tmp_path)]) == 1
    assert "not found" in capsys.readouterr().err


def test_bad_yaml_exits_1(tmp_path, capsys):
    config = tmp_path / "run.yaml"
    config.write_text("seed: [unclosed\n")
    assert run("fit", config, tmp_path / "out") == 1
    assert "usage error" in capsys.readouterr().err


def test_non_mapping_config_exits_1(tmp_path):
    config = tmp_path / "run.yaml"
    config.write_text("- a\n- b\n")
    assert run("fit", config, tmp_path / "out") == 1


def test_missing_seed_exits_1(tmp_path, capsys):
    (tmp_path / "schema.yaml").write_text(SCHEMA_YAML)
    config = tmp_path / "run.yaml"
    config.write_text("schema: schema.yaml\n")
    assert run("fit", config, tmp_path / "out") == 1
    assert "seed" in capsys.readouterr().err


def test_unknown_command_exits_1(tmp_path):
    assert main(["transmogrify", "--config", "x", "--out", str(tmp_path)]) == 1


def test_missing_required_flag_exits_1():
    assert main(["fit"]) == 1


def test_threads_flag_is_gone(tmp_path, capsys):
    config = write_workspace(tmp_path)
    assert run("risk", config, tmp_path / "out", "--threads", "2") == 1
    assert "--threads" in capsys.readouterr().err


def test_bad_kernel_prior_exits_1(tmp_path, capsys):
    config = write_workspace(
        tmp_path, CONFIG_YAML.replace("kernel_prior: empirical", "kernel_prior: jeffreys")
    )
    assert run("fit", config, tmp_path / "out") == 1
    assert "kernel_prior" in capsys.readouterr().err


def test_zero_replicates_exits_1(tmp_path, capsys):
    config = write_workspace(tmp_path, CONFIG_YAML.replace("replicates: 3", "replicates: 0"))
    assert run("simulate", config, tmp_path / "out") == 1
    assert "replicates" in capsys.readouterr().err


def test_fit_without_data_exits_1(tmp_path, capsys):
    config = write_workspace(tmp_path)
    out = tmp_path / "out"
    # simulate was never run, so {out}/sample.csv does not exist
    assert run("fit", config, out) == 1
    assert "sample.csv" in capsys.readouterr().err


def test_synthesize_without_fit_exits_1(tmp_path, capsys):
    config = write_workspace(tmp_path)
    out = tmp_path / "out"
    assert run("simulate", config, out) == 0
    assert run("synthesize", config, out) == 1
    assert "run fit first" in capsys.readouterr().err


# color 9 is outside the schema's four codes
CORRUPT_SAMPLE = "household_id,own,hh_size,person_index,role,color\nh1,1,1,1,1,9\n"


def test_corrupt_data_exits_2(tmp_path, capsys):
    config = write_workspace(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    (out / "sample.csv").write_text(CORRUPT_SAMPLE)
    assert run("fit", config, out) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("rules", ["rules: rules.txt\n", ""], ids=["truncated", "untruncated"])
def test_data_with_no_households_exits_2(tmp_path, capsys, rules):
    config = write_workspace(tmp_path, CONFIG_YAML.replace("rules: rules.txt\n", rules))
    out = tmp_path / "out"
    out.mkdir()
    (out / "sample.csv").write_text("household_id,own,hh_size,person_index,role,color\n")
    assert run("fit", config, out) == 2
    assert f"{out / 'sample.csv'}: no households" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == ["sample.csv"]


def test_build_query_unknown_kind(tmp_path):
    (tmp_path / "schema.yaml").write_text(SCHEMA_YAML)
    schema = load_schema(tmp_path / "schema.yaml")
    with pytest.raises(UsageError, match="unknown query kind"):
        _build_query(schema, {"kind": "bogus"})


def test_seed_flag_overrides_config(tmp_path):
    config = write_workspace(tmp_path)
    cfg = load_config(config, None)
    assert cfg.seed == 4242
    assert load_config(config, 7).seed == 7


def test_negative_seed_flag_exits_1(tmp_path, capsys):
    # numpy's SeedSequence rejects a negative seed; the config layer says so first
    config = write_workspace(tmp_path)
    out = tmp_path / "out"
    assert run("simulate", config, out, "--seed", "-1") == 1
    assert "usage error: config: seed: must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_load_config_builds_library_objects(tmp_path):
    config = write_workspace(
        tmp_path,
        CONFIG_YAML.replace("thin: 3", "thin: 3\n  candidate_cap: 0")
        .replace("held_fixed: [role]", "held_fixed: [role]\n  sizes: []")
        .replace("min_expected: 0\n", "min_expected: 0\n  confidence: 0.9\n"),
    )
    cfg = load_config(config, None)
    assert cfg.chain == ChainConfig(n_iterations=60, burn_in=30, thin=3, seed=4242)
    assert cfg.risk == RiskConfig("individual", held_fixed=("role",))
    assert (cfg.toy.n_households, cfg.toy.head_code, cfg.toy.other_code) == (400, 0, 1)
    assert cfg.model == {"n_hh_classes": 6, "n_mem_classes": 4, "kernel_prior": "empirical"}
    assert (cfg.cells, cfg.gamma) == ({"max_order": 1, "min_expected": 0.0}, 0.9)
    assert (cfg.sample_households, cfg.replicates, cfg.draws) == (120, 3, 4)
    assert len(cfg.household_queries) == 4


def test_uniform_kernel_prior_takes_the_model_keys(tmp_path):
    config = write_workspace(
        tmp_path,
        CONFIG_YAML.replace("kernel_prior: empirical", "kernel_prior: uniform\n  hh_conc_rate: 2"),
    )
    hyper = _hyperparams(load_config(config, None), load_schema(tmp_path / "schema.yaml"), None)
    assert (hyper.n_hh_classes, hyper.n_mem_classes, hyper.hh_conc_rate) == (6, 4, 2.0)
    assert all((prior == 1.0).all() for prior in hyper.hh_kernel_prior + hyper.mem_kernel_prior)


def test_sections_left_out_take_the_defaults(tmp_path):
    (tmp_path / "schema.yaml").write_text(SCHEMA_YAML)
    config = tmp_path / "run.yaml"
    config.write_text("seed: 1\nschema: schema.yaml\n")
    cfg = load_config(config, None)
    assert (cfg.toy, cfg.model, cfg.chain) == (None, None, None)
    assert cfg.risk == RiskConfig("individual")
    assert (cfg.replicates, cfg.gamma, cfg.draws, cfg.cells) == (5, 0.95, 25, {})
    assert cfg.household_queries == ()


@pytest.mark.parametrize(
    "path",
    [REPO / "configs" / "toy.yaml", *sorted((REPO / "bench" / "workloads").glob("*/config.yaml"))],
    ids=lambda path: path.relative_to(REPO).as_posix(),
)
def test_bundled_configs_load(path):
    cfg = load_config(path, None)
    assert cfg.toy is not None and cfg.model is not None and cfg.chain is not None


# the evaluate section's household queries, as CONFIG_YAML gives them
QUERIES_YAML = CONFIG_YAML[CONFIG_YAML.index("  household_queries:"):CONFIG_YAML.index("risk:")]


# (command, text in CONFIG_YAML, its replacement, the key stderr must name); a row
# that edits several places gives tuples of texts and replacements
BAD_CONFIGS = [
    # paths are YAML strings
    ("fit", "schema: schema.yaml", "schema: 7", "config: schema: must be a string, not 7"),
    ("fit", "rules: rules.txt", "rules: 5", "config: rules: must be a string, not 5"),
    ("fit", 'data: "{out}/sample.csv"', "data: 5", "config: data: must be a string, not 5"),
    (
        "evaluate",
        'population: "{out}/population.csv"',
        "population: [a]",
        "config: population: must be a string, not ['a']",
    ),
    # household queries are a YAML list, not a string's letters or a mapping's keys
    (
        "evaluate",
        QUERIES_YAML,
        '  household_queries: "ab"\n',
        "config: evaluate.household_queries: must be a list, not 'ab'",
    ),
    (
        "evaluate",
        QUERIES_YAML,
        "  household_queries: {kind: exists, name: q}\n",
        "config: evaluate.household_queries: must be a list, not {'kind': 'exists', 'name': 'q'}",
    ),
    ("fit", "seed: 4242", "seed: -1", "seed: must be >= 0"),
    ("fit", "seed: 4242", "seed: 1.7", "seed: must be an integer, not 1.7"),
    ("fit", "iterations: 60", "iterations: 60.5", "chain.iterations: must be an integer, not 60.5"),
    (
        "fit",
        "household_classes: 6",
        "household_classes: true",
        "model.household_classes: must be an integer, not True",
    ),
    ("fit", "thin: 3", "thin: 3\n  candidate_cap: -5", "candidate_cap must be >= 1"),
    ("fit", "burn_in: 30", "burn_in: 60", "burn_in"),
    ("fit", "iterations: 60", "iterations: six", "iterations"),
    ("simulate", "iterations: 60", "iterations: six", "iterations"),
    ("simulate", "copy_prob: 0.9", "copy_prob: 1.5", "copy_prob"),
    ("fit", "household_classes: 6", "household_classes: 0", "household_classes"),
    ("fit", "thin: 3", "thinn: 3", "thinn"),
    ("fit", "rules: rules.txt", "rule: rules.txt", "rule"),
    ("fit", "chain:\n  iterations: 60\n  burn_in: 30\n  thin: 3\n", "chain: 5\n", "chain"),
    ("evaluate", "max_order: 1", "max_order: 0", "max_order"),
    ("evaluate", "min_expected: 0\n", "min_expected: 0\n  confidence: 1.5\n", "confidence"),
    ("evaluate", "variable: color, size: 2", "variable: color, sise: 2", "sise"),
    ("evaluate", "variable: own, code: 2}", "variable: own, code: 2, size: 2}", "size"),
    ("evaluate", "variable: color, size: 2", "variable: colour, size: 2", "colour"),
    ("risk", "draws: 4", "draws: 0", "draws"),
    ("risk", "held_fixed: [role]", "held_fixed: [rol]", "held_fixed"),
    ("risk", "held_fixed: [role]", "held_fixed: [role]\n  sizes: [7]", "sizes"),
    (
        "risk",
        ("schema: schema.yaml", "kind: individual"),
        ("schema: schema4.yaml", "kind: household\n  sizes: [4]"),
        "risk.sizes",
    ),
    ("simulate", "sample_households: 120", "sample_households: 500", "sample_households"),
    ("simulate", "sample_households: 120", "sample_households: 0", "sample_households: must be >= 1"),
    (
        "simulate",
        "{1: 0.3, 2: 0.5, 3: 0.2}",
        "{1: 0.3, 2.5: 0.5, 3: 0.2}",
        "simulate.size_distribution: must be an integer, not 2.5",
    ),
    ("evaluate", "variable: color, size: 2", "variable: color, size: 2.0", "not 2.0"),
    ("simulate", "color: [0.4, 0.3, 0.2, 0.1]", "color: [0.4, 0.3, 0.3]", "marginals"),
    ("simulate", "head_code: 1", "head_code: 3", "head_code"),
    ("simulate", "role_variable: role", "role_variable: rol", "role_variable 'rol'"),
    ("simulate", "role_variable: role", "role_variable: own", "role_variable 'own'"),
    ("simulate", "{1: 0.3, 2: 0.5, 3: 0.2}", "{1: 0.3, 2: 0.5, 4: 0.2}", "size_distribution"),
    ("evaluate", "color, code: 1, min: 2", "color, code: 0, min: 2", "code 0 outside 1..4"),
    ("evaluate", "variable: own, code: 2}", "variable: own, code: 3}", "code 3 outside 1..2"),
    ("evaluate", "{color: 1}, name: has_color_1", "{color: 7}, name: has_color_1", "code 7 outside"),
    (
        "evaluate",
        "variable: color, size: 2",
        "variable: color, size: 9",
        "query 'pair_same_color': no household of size 9",
    ),
    ("risk", "held_fixed: [role]", "held_fixed: [role]\n  sizes: [1]", "household targets only"),
    (
        "fit",
        "kernel_prior: empirical",
        "kernel_prior: empirical\n  per_class_mem_conc: true",
        "unknown keys ['per_class_mem_conc'] in model",
    ),
    # only null, 0 and [] keep a default; false and "" are values the parser rejects
    (
        "fit",
        "thin: 3",
        "thin: 3\n  candidate_cap: false",
        "chain.candidate_cap: must be an integer, not False",
    ),
    (
        "fit",
        "thin: 3",
        'thin: 3\n  candidate_cap: ""',
        "chain.candidate_cap: must be an integer, not ''",
    ),
    (
        "simulate",
        "role_variable: role",
        "role_variable: false",
        "simulate.role_variable: must be a string, not False",
    ),
    ("simulate", "role_variable: role", 'role_variable: ""', "role_variable ''"),
    (
        "risk",
        "held_fixed: [role]",
        "held_fixed: [role]\n  sizes: false",
        "risk.sizes: must be a list, not False",
    ),
    (
        "risk",
        "held_fixed: [role]",
        'held_fixed: [role]\n  sizes: ""',
        "risk.sizes: must be a list, not ''",
    ),
    # held_fixed is a list of names: a string is read neither as its letters nor as none
    ("risk", "held_fixed: [role]", 'held_fixed: ""', "risk.held_fixed: must be a list, not ''"),
    (
        "risk",
        "held_fixed: [role]",
        "held_fixed: role",
        "risk.held_fixed: must be a list, not 'role'",
    ),
    ("risk", "held_fixed: [role]", "held_fixed: [1]", "risk.held_fixed: must be a string, not 1"),
    # number keys take YAML numbers: a bool or a quoted number is not read as one
    ("simulate", "copy_prob: 0.9", "copy_prob: true", "simulate.copy_prob: must be a number, not True"),
    (
        "simulate",
        "{1: 0.3, 2: 0.5, 3: 0.2}",
        '{1: 0.3, 2: "0.5", 3: 0.2}',
        "simulate.size_distribution: must be a number, not '0.5'",
    ),
    (
        "simulate",
        "color: [0.4, 0.3, 0.2, 0.1]",
        'color: [0.4, "0.3", true, 0.1]',
        "simulate.marginals: must be a number, not '0.3'",
    ),
    (
        "fit",
        "kernel_prior: empirical",
        "kernel_prior: empirical\n  mem_conc_shape: false",
        "model.mem_conc_shape: must be a number, not False",
    ),
    ("evaluate", "min_expected: 0\n", 'min_expected: "5"\n', "evaluate.min_expected: must be a number"),
    (
        "evaluate",
        "min_expected: 0\n",
        'min_expected: 0\n  confidence: "0.9"\n',
        "evaluate.confidence: must be a number, not '0.9'",
    ),
    # simulate's weights are finite, and a marginal has a positive one
    (
        "simulate",
        "{1: 0.3, 2: 0.5, 3: 0.2}",
        "{1: .nan, 2: 1.0}",
        "config: simulate: size_probs must be nonnegative and sum to 1 (set by size_distribution)",
    ),
    (
        "simulate",
        "color: [0.4, 0.3, 0.2, 0.1]",
        "color: [0, 0, 0, 0]",
        "config: simulate.marginals.color: marginal for 'color' has no positive weight",
    ),
    (
        "simulate",
        "color: [0.4, 0.3, 0.2, 0.1]",
        "color: [.nan, 1, 1, 1]",
        "config: simulate.marginals.color: marginal for 'color' must be 4 finite nonnegative",
    ),
    # the Gamma prior's shapes and rates are positive and finite
    (
        "fit",
        "kernel_prior: empirical",
        "kernel_prior: empirical\n  hh_conc_rate: 0",
        "model: hh_conc_rate must be positive and finite, not 0.0 (set by hh_conc_rate)",
    ),
    (
        "fit",
        "kernel_prior: empirical",
        "kernel_prior: empirical\n  hh_conc_rate: -1",
        "hh_conc_rate must be positive and finite, not -1.0",
    ),
    (
        "fit",
        "kernel_prior: empirical",
        "kernel_prior: empirical\n  mem_conc_shape: .inf",
        "mem_conc_shape must be positive and finite, not inf",
    ),
]


@pytest.mark.parametrize(
    "command, old, new, key", BAD_CONFIGS, ids=[f"{row[0]}-{row[3]}" for row in BAD_CONFIGS]
)
def test_config_error_exits_1_and_writes_nothing(
    pipeline, tmp_path, capsys, command, old, new, key
):
    text = CONFIG_YAML
    for one_old, one_new in zip(old, new) if isinstance(old, tuple) else [(old, new)]:
        assert text.count(one_old) == 1
        text = text.replace(one_old, one_new)
    config = write_workspace(tmp_path, text)
    out = tmp_path / "out"
    shutil.copytree(pipeline[1], out)  # every input the command reads is there

    def files():
        return {p.name: (p.stat().st_mtime_ns, p.read_bytes()) for p in out.iterdir()}

    before = files()
    assert run(command, config, out) == 1
    assert key in capsys.readouterr().err
    assert files() == before


# (command, text in CONFIG_YAML, its replacement, the whole stderr): the message
# names only the keys whose library names the library's message has as words
NAMED_KEYS = [
    (
        "risk",
        "held_fixed: [role]",
        "held_fixed: [role]\n  sizes: [1]",
        "usage error: config: risk: sizes restrict household targets only (set by sizes)\n",
    ),
    (
        "fit",
        "burn_in: 30",
        "burn_in: 60",
        "usage error: config: chain: burn_in must lie in [0, n_iterations) "
        "(set by burn_in, iterations)\n",
    ),
]


@pytest.mark.parametrize("command, old, new, err", NAMED_KEYS, ids=["risk-sizes", "fit-burn_in"])
def test_config_error_names_only_the_keys_at_fault(tmp_path, capsys, command, old, new, err):
    config = write_workspace(tmp_path, CONFIG_YAML.replace(old, new))
    assert run(command, config, tmp_path / "out") == 1
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("command", ["evaluate", "risk"])
def test_report_without_replicates_exits_1(tmp_path, capsys, command):
    config = write_workspace(tmp_path)
    out = tmp_path / "out"
    assert run("simulate", config, out) == 0
    assert run(command, config, out) == 1
    assert "manifest.json; run synthesize first" in capsys.readouterr().err


def test_more_replicates_than_checkpoints_exits_1(pipeline, tmp_path, capsys):
    # iterations 60, burn_in 30 and thin 3 keep 10 checkpoints
    config = write_workspace(tmp_path, CONFIG_YAML.replace("replicates: 3", "replicates: 50"))
    out = tmp_path / "out"
    shutil.copytree(pipeline[1], out)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert run("synthesize", config, out) == 1
    assert capsys.readouterr().err == (
        "usage error: config: synthesis.replicates: 50 is above the 10 checkpoints in "
        f"{out / 'checkpoints.jsonl'}\n"
    )
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_synthesize_from_a_fit_on_other_data_exits_1(tmp_path, capsys):
    # untruncated synthesis keeps each household's fitted classes, so the
    # checkpoints must come from a fit on the data it reads
    out = tmp_path / "out"
    config = write_workspace(tmp_path, CONFIG_YAML.replace("rules: rules.txt\n", ""))
    for command in ("simulate", "fit"):
        assert run(command, config, out) == 0, command
    fewer = write_workspace(
        tmp_path, config.read_text().replace("sample_households: 120", "sample_households: 100")
    )
    assert run("simulate", fewer, out) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert run("synthesize", fewer, out) == 1
    err = capsys.readouterr().err
    assert "comes from a fit on 120 households" in err
    assert f"but {out / 'sample.csv'} has 100 households" in err
    assert err.endswith("; run fit again\n")
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize("rules", ["rules: rules.txt\n", ""], ids=["truncated", "untruncated"])
def test_risk_on_checkpoints_without_draws_exits_1(pipeline, tmp_path, capsys, rules):
    # a fit that raised on its first sweep leaves the meta line alone
    config = write_workspace(tmp_path, CONFIG_YAML.replace("rules: rules.txt\n", rules))
    out = tmp_path / "out"
    shutil.copytree(pipeline[1], out)
    ckpt = out / "checkpoints.jsonl"
    meta = json.loads(ckpt.read_text().splitlines()[0])
    ckpt.write_text(json.dumps({**meta, "mode": "truncated" if rules else "untruncated"}) + "\n")
    for name in ("risk_summary.csv", "rank_histogram.csv"):
        (out / name).unlink()
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert run("risk", config, out) == 1
    assert capsys.readouterr().err == f"usage error: {ckpt} holds no draws; run fit again\n"
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_fit_on_data_that_break_the_rules_exits_1(tmp_path, capsys):
    # the simulated members are one head (role 1) and others (role 2), so a
    # rule of exactly one role-2 member fails every household but those of size 2
    config = write_workspace(tmp_path)
    out = tmp_path / "out"
    assert run("simulate", config, out) == 0
    (tmp_path / "rules.txt").write_text("exactly_one role = 2\n")
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert run("fit", config, out) == 1
    rows = list(csv.DictReader((out / "sample.csv").open(newline="")))
    first = next(row["household_id"] for row in rows if row["hh_size"] != "2")
    assert capsys.readouterr().err == (
        f"usage error: {out / 'sample.csv'}: household {first!r} breaks the rules, "
        "so a truncated fit cannot hold it\n"
    )
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_risk_on_a_truncated_fit_without_rules_exits_1(pipeline, tmp_path, capsys):
    # the fit ran with rules; a config that has lost them cannot score it
    config = write_workspace(tmp_path, CONFIG_YAML.replace("rules: rules.txt\n", ""))
    out = tmp_path / "out"
    shutil.copytree(pipeline[1], out)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert run("risk", config, out) == 1
    assert "fit in truncated mode, but the config has no rules" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_risk_on_an_untruncated_fit_with_rules_exits_1(tmp_path, capsys):
    out = tmp_path / "out"
    plain = write_workspace(tmp_path, CONFIG_YAML.replace("rules: rules.txt\n", ""))
    for command in ("simulate", "fit", "synthesize"):
        assert run(command, plain, out) == 0, command
    config = write_workspace(tmp_path)
    assert run("risk", config, out) == 1
    assert "fit in untruncated mode, but the config has rules" in capsys.readouterr().err
    assert not (out / "risk_summary.csv").exists()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full simulate-fit-synthesize-evaluate-risk run, shared read-only."""
    root = tmp_path_factory.mktemp("pipeline")
    config = write_workspace(root)
    out = root / "out"
    for command in ("simulate", "fit", "synthesize", "evaluate", "risk"):
        assert run(command, config, out) == 0, command
    return config, out


def test_pipeline_artifacts(pipeline):
    _, out = pipeline
    for name in (
        "population.csv",
        "sample.csv",
        "checkpoints.jsonl",
        "diagnostics.csv",
        "manifest.json",
        "synthetic_1.csv",
        "synthetic_2.csv",
        "synthetic_3.csv",
        "cells.csv",
        "household_queries.csv",
        "risk_summary.csv",
        "rank_histogram.csv",
    ):
        assert (out / name).is_file(), name


def test_the_programs_data_files_are_read_in_bulk(pipeline, monkeypatch):
    """load_dataset never falls back to the csv reader for a file the program wrote."""
    config, out = pipeline
    schema = load_schema(config.parent / "schema.yaml")

    def refuse(path, schema):
        raise AssertionError(f"{path} went to the csv reader")

    monkeypatch.setattr(data, "_read_csv", refuse)
    for name in ("sample.csv", "population.csv", "synthetic_1.csv"):
        assert data.load_dataset(out / name, schema).n_households > 0


def test_pipeline_synthetic_loadable(pipeline):
    config, out = pipeline
    schema = load_schema(config.parent / "schema.yaml")
    from hhsynth.data import load_dataset
    from hhsynth.synthesis import read_replicates

    sample = load_dataset(out / "sample.csv", schema)
    assert sample.n_households == 120
    reps = read_replicates(out, schema)
    assert len(reps) == 3
    for replicate in reps:
        assert replicate.n_households == 120


def test_pipeline_cells_cover_order_one(pipeline):
    _, out = pipeline
    lines = (out / "cells.csv").read_text().splitlines()
    # header plus one row per order-1 cell: 2 + 3 + 2 + 4 codes
    assert len(lines) == 1 + 11
    assert lines[0].startswith("query,truth,")
    # truth column filled because the config names a population file
    assert lines[1].split(",")[1] != ""


def test_evaluate_takes_every_quantile_in_one_call(pipeline, tmp_path, monkeypatch):
    from hhsynth import inference

    calls, t_quantile = [], inference.t_quantile

    def counted(p, dfs):
        calls.append(len(dfs))
        return t_quantile(p, dfs)

    monkeypatch.setattr(inference, "t_quantile", counted)
    config, out = pipeline
    work = tmp_path / "out"
    shutil.copytree(out, work)
    (work / "cells.csv").unlink()
    (work / "household_queries.csv").unlink()
    assert run("evaluate", config, work) == 0
    # the normal quantile, then one df per cell row and per query row
    assert calls == [1 + 11 + 4]
    for name in ("cells.csv", "household_queries.csv"):
        assert (work / name).read_bytes() == (out / name).read_bytes(), name


def test_pipeline_household_queries(pipeline):
    _, out = pipeline
    lines = (out / "household_queries.csv").read_text().splitlines()
    names = [line.split(",")[0] for line in lines[1:]]
    assert names == [
        "pair_same_color",
        "has_color_1",
        "renter_with_color_1",
        "two_plus_color_1",
    ]


def test_evaluate_without_queries_writes_a_header_only_query_file(pipeline, tmp_path):
    # a rerun with no queries must not leave the previous run's rows in place
    _, out = pipeline
    config = write_workspace(tmp_path, CONFIG_YAML.replace(QUERIES_YAML, "  household_queries: []\n"))
    work = tmp_path / "out"
    shutil.copytree(out, work)
    assert len((work / "household_queries.csv").read_text().splitlines()) == 1 + 4
    assert run("evaluate", config, work) == 0
    header = (out / "household_queries.csv").read_text().splitlines(keepends=True)[0]
    assert (work / "household_queries.csv").read_text() == header
    assert (work / "cells.csv").read_bytes() == (out / "cells.csv").read_bytes()


def test_pipeline_risk_outputs(pipeline):
    _, out = pipeline
    lines = (out / "risk_summary.csv").read_text().splitlines()
    assert len(lines) > 2
    # held_fixed role: candidates are 1 + own 1 + size 2 + color 3
    assert all(line.split(",")[1] == "7" for line in lines[1:])
    hist = (out / "rank_histogram.csv").read_text().splitlines()
    total = sum(int(line.split(",")[1]) for line in hist[1:])
    assert total == len(lines) - 1


def assert_cells_are_finite_floats(path):
    with path.open(newline="", encoding="utf8") as fh:
        header, *rows = list(csv.reader(fh))
    assert rows
    for row in rows:
        assert len(row) == len(header)
        for name, cell in zip(header, row):
            assert math.isfinite(float(cell)), (name, cell)


def test_pipeline_diagnostics_truncated_columns(pipeline):
    _, out = pipeline
    header = (out / "diagnostics.csv").read_text().splitlines()[0]
    assert "n_infeasible_size2" in header
    assert header.endswith("n_infeasible_total")
    assert_cells_are_finite_floats(out / "diagnostics.csv")


def test_untruncated_diagnostics_cells_parse(tmp_path):
    config = write_workspace(tmp_path, CONFIG_YAML.replace("rules: rules.txt\n", ""))
    out = tmp_path / "out"
    for command in ("simulate", "fit"):
        assert run(command, config, out) == 0, command
    path = out / "diagnostics.csv"
    assert "n_infeasible_total" not in path.read_text().splitlines()[0]
    assert_cells_are_finite_floats(path)


def fresh_python(*args, code=0):
    """Run a new interpreter that imports this hhsynth; check that it exits with
    code, and return its stdout and stderr."""
    env = dict(os.environ, PYTHONPATH=str(Path(hhsynth.__file__).parents[1]))
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)
    assert proc.returncode == code, proc.stderr
    return proc.stdout, proc.stderr


def test_cli_import_loads_no_scipy():
    stdout, _ = fresh_python(
        "-c",
        "import sys, hhsynth.cli, hhsynth.commands; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))",
    )
    assert stdout.strip() == "[]"


def start_cli(*args, code):
    """stdout, stderr and the imported modules of a fresh `python -m hhsynth.cli ARGS`."""
    # -X importtime lists every module the process imports on stderr
    stdout, stderr = fresh_python("-X", "importtime", "-m", "hhsynth.cli", *args, code=code)
    imported = [
        line.rsplit("|", 1)[-1].strip()
        for line in stderr.splitlines()
        if line.startswith("import time:")
    ]
    # runpy runs hhsynth.cli as __main__, which the listing leaves out; argparse,
    # which only hhsynth.cli imports, shows that the listing covers it
    assert "hhsynth" in imported and "argparse" in imported
    return stdout, stderr, imported


def assert_standard_library_only(imported):
    assert [m for m in imported if m.split(".")[0] in ("numpy", "yaml", "scipy")] == []
    assert {m for m in imported if m.split(".")[0] == "hhsynth"} <= {"hhsynth", "hhsynth.cli"}


def test_cli_help_loads_no_scipy():
    stdout, _, imported = start_cli("--help", code=0)
    assert "simulate" in stdout
    assert_standard_library_only(imported)


def test_cli_usage_error_loads_no_numpy():
    _, stderr, imported = start_cli("transmogrify", code=1)
    assert "usage error: argument command: invalid choice: 'transmogrify'" in stderr
    assert_standard_library_only(imported)


# the hhsynth modules each command loads besides hhsynth, hhsynth.cli (run as
# __main__), hhsynth.commands and hhsynth.config
COMMAND_MODULES = {
    "simulate": {"data", "rng", "simulate"},
    "fit": {"data", "constraints", "model", "checkpoints", "rng", "gibbs", "truncated"},
    "synthesize": {"data", "constraints", "model", "checkpoints", "synthesis"},
    "evaluate": {"data", "inference", "synthesis", "tquantile"},
    "risk": {"data", "constraints", "model", "checkpoints", "risk", "synthesis"},
}


@pytest.mark.parametrize("command", COMMAND_MODULES)
def test_command_loads_only_its_modules(pipeline, tmp_path, command):
    config, out = pipeline
    work = tmp_path / "out"
    shutil.copytree(out, work)
    _, stderr, imported = start_cli(
        command, "--config", str(config), "--out", str(work), code=0
    )
    library = {m.split(".", 1)[1] for m in imported if m.startswith("hhsynth.")}
    assert library == {"commands", "config", *COMMAND_MODULES[command]}, stderr[-2000:]
    assert [m for m in imported if m.split(".")[0] == "scipy"] == []
    # numpy.ma, which np.unique imports on its first plain call, adds about 1 MB
    assert "numpy.ma" not in imported
    if command == "simulate":
        assert not library & {"gibbs", "model", "truncated"}


def test_only_the_process_entry_freezes_the_heap(pipeline, tmp_path):
    config, _ = pipeline
    assert run("simulate", config, tmp_path / "out") == 0
    assert gc.get_freeze_count() == 0  # main runs in-process here
    stdout, _ = fresh_python(
        "-c",
        "import gc, sys; from hhsynth.cli import run; sys.argv = ['hhsynth', 'transmogrify']; "
        "code = run(); print(code, gc.get_freeze_count() > 0)",
    )
    assert stdout.split() == ["1", "True"]
    scripts = tomllib.loads((REPO / "pyproject.toml").read_text())["project"]["scripts"]
    assert scripts == {"hhsynth": "hhsynth.cli:run"}


def test_help_says_what_each_command_reads_and_writes():
    stdout, _, _ = start_cli("--help", code=0)
    lines = stdout.splitlines()
    for name, writes in (("simulate", "sample.csv"), ("fit", "checkpoints.jsonl"),
                         ("synthesize", "manifest.json"), ("evaluate", "cells.csv"),
                         ("risk", "risk_summary.csv")):
        # the command's entry: its name, then a description that may wrap once
        i = next(i for i, line in enumerate(lines) if line.split()[:1] == [name])
        entry = " ".join(lines[i:i + 2]).split()
        assert len(entry) > 1 and "writes" in entry and writes in " ".join(entry), entry


def run_fresh(command, config, out, code):
    """Run one command under `python -m hhsynth.cli`, where the module is __main__."""
    args = ("-m", "hhsynth.cli", command, "--config", str(config), "--out", str(out))
    return fresh_python(*args, code=code)[1]


def test_config_error_exits_1_under_python_m(tmp_path):
    config = write_workspace(tmp_path, CONFIG_YAML.replace("seed: 4242\n", ""))
    assert "usage error: config: a 'seed' is required" in run_fresh(
        "simulate", config, tmp_path / "out", code=1
    )
    assert not (tmp_path / "out" / "sample.csv").exists()


def test_corrupt_data_exits_2_under_python_m(tmp_path):
    config = write_workspace(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    (out / "sample.csv").write_text(CORRUPT_SAMPLE)
    assert "error: " in run_fresh("fit", config, out, code=2)


def test_simulate_exits_0_under_python_m(tmp_path):
    config = write_workspace(tmp_path)
    run_fresh("simulate", config, tmp_path / "out", code=0)
    assert (tmp_path / "out" / "sample.csv").is_file()


def test_pipeline_repeat_is_bitwise_identical(pipeline, tmp_path):
    config, out = pipeline
    out2 = tmp_path / "again"
    for command in ("simulate", "fit", "synthesize", "evaluate", "risk"):
        assert run(command, config, out2) == 0
    for name in (
        "sample.csv",
        "checkpoints.jsonl",
        "diagnostics.csv",
        "synthetic_2.csv",
        "cells.csv",
        "household_queries.csv",
        "risk_summary.csv",
        "rank_histogram.csv",
    ):
        assert (out / name).read_bytes() == (out2 / name).read_bytes(), name
    assert json.loads((out / "manifest.json").read_text()) == json.loads(
        (out2 / "manifest.json").read_text()
    )


# sha256 of every file the pipeline writes, recorded with numpy 2.4.6 on
# Python 3.11.7; a change that alters output bits on purpose updates these and
# names the files it changed
TRUNCATED_DIGESTS = {
    "cells.csv": "3309556ec9ec1d862e1252167121122962a13ec08abbbe8b093714559bf2c8f5",
    "checkpoints.jsonl": "a7871e248f694f6ae11a1474aa13f4b601a4d2241394d4941022f6564d56d11b",
    "diagnostics.csv": "6d27cf243552fb1318044e0fded17076a5a0eee305d4127888859d97682f4272",
    "household_queries.csv": "5bd820f09ccd856c0d0f4b65de9b9d1cc2171837fd677128a354597e34ee0ce9",
    "manifest.json": "3426c50d9ba61f280cca48eac9ca693f57a92b21cdac7004721551097f454ad6",
    "population.csv": "26a7f5c77bc81c2590b3b42fa9430c5938adc0b83a1b6ca0d3f5059706294898",
    "rank_histogram.csv": "a11616942628d14c91d6f13719e2b6ef2c7f6b4a7d62437f41228333c11fd639",
    "risk_summary.csv": "02c49009675c024d2c6a1ec075aad6c109307dd74a1509aa098239be81d62073",
    "sample.csv": "c6daf4a552a5cf86ab4853004d28df71eddd624f6ba95c9d9b94fbf43048d478",
    "synthetic_1.csv": "7176c105a991ae53007abf30ee8275e2c81fb60327a1c021305130b8c1e0a13a",
    "synthetic_2.csv": "5959238821eb6bf788a324fddb3397ec4aff63483c89796dbbda619934bffdf9",
    "synthetic_3.csv": "e19734d55e1ad252fd58566d5aa0d63af8889ee84bdad609972b9cb246c398df",
}
UNTRUNCATED_DIGESTS = {
    "cells.csv": "fde5312691d1cf73f7791633b72e26359326c7968484cb615398e633eaf6d03d",
    "checkpoints.jsonl": "d857498ede3b121406c9d6c6d8c311df5c04931a1725741a9e8c0d12490c4ce9",
    "diagnostics.csv": "edba56b8f792a8f921e456bfcc2009d0b0f00c07c01511f2e30a91541b3fbb21",
    "household_queries.csv": "eb5dcd939f94fc50f8f521f3428b10ee2d20257601fc8f80214e79013917acc6",
    "manifest.json": "5e6292f0702d3892790f9252647e71675f9bf5f5672d94cb9db7a0152fca1a9b",
    "population.csv": "26a7f5c77bc81c2590b3b42fa9430c5938adc0b83a1b6ca0d3f5059706294898",
    "rank_histogram.csv": "ff78ca1a9aeea22f0458ec3d21621f3cd0d94fc8801a5e509a29b2d5bd5e7f33",
    "risk_summary.csv": "2c42011ede6a3100a123b6b3e466497c52187d730d973fb448ca9b00c2759f89",
    "sample.csv": "c6daf4a552a5cf86ab4853004d28df71eddd624f6ba95c9d9b94fbf43048d478",
    "synthetic_1.csv": "83955b4e7ddb883c0859a8bc4696e597b2d2e13eca4f40352400c1a5b9bf0507",
    "synthetic_2.csv": "87e9c252e927c0607312298969587208db272812853f403211f29408fb2aa447",
    "synthetic_3.csv": "8d153615524c03f6a4eb5f9eb04d12c7ee1478441635a6a3d3b657d222758d05",
}


def output_digests(out):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def test_pipeline_output_digests(pipeline):
    _, out = pipeline
    assert output_digests(out) == TRUNCATED_DIGESTS


def test_untruncated_pipeline_output_digests(tmp_path):
    config = write_workspace(tmp_path, CONFIG_YAML.replace("rules: rules.txt\n", ""))
    out = tmp_path / "out"
    for command in ("simulate", "fit", "synthesize", "evaluate", "risk"):
        assert run(command, config, out) == 0, command
    assert output_digests(out) == UNTRUNCATED_DIGESTS


# sha256 of the household-kind risk outputs of both pipelines' fits
HOUSEHOLD_RISK_DIGESTS = {
    "truncated": {
        "rank_histogram.csv": "617c953c157f9fb5265b71ffb72bd2e8cf7b0d854db3fe885120f77891030b5f",
        "risk_summary.csv": "8c42801595a9381d6b6de2f04350554b98efbe6062ff866f38097a20de2f5e3a",
    },
    "untruncated": {
        "rank_histogram.csv": "5d017cf2b713a7104c38fce1db846d0c42fce8f82017469409f420620483be3e",
        "risk_summary.csv": "3d2008907bce34f562bbb4e4fd8bcc57b328297c0d7e98a3e16752d198ff0c97",
    },
}


@pytest.mark.parametrize("mode", ["truncated", "untruncated"])
def test_household_risk_output_digests(pipeline, tmp_path, mode):
    out = tmp_path / "out"
    if mode == "truncated":
        text = CONFIG_YAML
        shutil.copytree(pipeline[1], out)
    else:
        text = CONFIG_YAML.replace("rules: rules.txt\n", "")
        config = write_workspace(tmp_path, text)
        for command in ("simulate", "fit", "synthesize"):
            assert run(command, config, out) == 0, command
    config = write_workspace(tmp_path, text.replace("kind: individual", "kind: household"))
    assert run("risk", config, out) == 0
    names = ("rank_histogram.csv", "risk_summary.csv")
    assert {name: output_digests(out)[name] for name in names} == HOUSEHOLD_RISK_DIGESTS[mode]


def test_pipeline_seed_changes_outputs(pipeline, tmp_path):
    config, out = pipeline
    out2 = tmp_path / "reseeded"
    assert run("simulate", config, out2, "--seed", "999") == 0
    assert (out / "sample.csv").read_bytes() != (out2 / "sample.csv").read_bytes()
