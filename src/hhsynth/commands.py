"""The five pipeline commands and the config layer they share.

One YAML config drives every command; --out selects the working directory
and --seed overrides the config seed.  Paths in the config may embed "{out}"
to reference files produced by earlier steps, everything else resolves
relative to the config file.  A UsageError is a usage or config problem,
found before the command writes a file; ``hhsynth.cli`` imports this module
only once the arguments parse, and maps UsageError to exit 1 and any other
exception to exit 2.

Each command imports the library modules it uses when it runs, so a stage
process loads only those (the README lists them per command).
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np
import yaml

from .config import ChainConfig, RiskConfig, ToyConfig

if TYPE_CHECKING:
    from .constraints import RuleSet
    from .data import Dataset, Schema
    from .inference import HouseholdQuery
    from .model import Hyperparams

log = logging.getLogger("hhsynth")


class UsageError(Exception):
    """A malformed config, or an input the command needs that is missing."""


def _integer(value) -> int:
    """An integer as YAML gives it; a bool, a float or a string is an error."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"must be an integer, not {value!r}")
    return value


def _number(value) -> float:
    """A number as YAML gives it, an integer or a float; a bool or a string is an error."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"must be a number, not {value!r}")
    return float(value)


def _at_least(low: int, value) -> int:
    """An integer >= low: a count the library takes unchecked, or numpy's seed."""
    n = _integer(value)
    if n < low:
        raise ValueError(f"must be >= {low}")
    return n


def _open_unit(value) -> float:
    p = _number(value)
    if not 0.0 < p < 1.0:
        raise ValueError("must lie in (0, 1)")
    return p


def _text(value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"must be a string, not {value!r}")
    return value


def _list_of(parse):
    """A YAML list read as a tuple of parse(item); any other value is an error."""
    def parse_list(value) -> tuple:
        if not isinstance(value, list):
            raise ValueError(f"must be a list, not {value!r}")
        return tuple(map(parse, value))

    return parse_list


def _or_none(parse):
    """parse, except that null, 0 and [] keep the library's None; false and "" go to parse."""
    def parse_or_none(value):
        if value is None or value == [] or (type(value) is int and value == 0):
            return None
        return parse(value)

    return parse_or_none


def _mapping(parse_key, parse_value):
    return lambda doc: {parse_key(k): parse_value(v) for k, v in dict(doc).items()}


def _kernel_prior(value) -> str:
    if value not in ("empirical", "uniform"):
        raise ValueError("must be 'empirical' or 'uniform'")
    return value


# Each section's table maps a YAML key to (library keyword, parser).  Codes in
# the YAML are 1-based; the library's are 0-based.
_SIMULATE = {
    "population_households": ("n_households", _integer),
    "sample_households": ("sample_households", partial(_at_least, 1)),
    "size_distribution": ("size_probs", _mapping(_integer, _number)),
    "copy_variable": ("copy_variable", str),
    "copy_prob": ("copy_prob", _number),
    "role_variable": ("role_variable", _or_none(_text)),
    "head_code": ("head_code", lambda code: _integer(code) - 1),
    "other_code": ("other_code", lambda code: _integer(code) - 1),
    "marginals": ("marginals", _mapping(str, lambda probs: np.array(_list_of(_number)(probs)))),
}
_MODEL = {
    "household_classes": ("n_hh_classes", _integer),
    "individual_classes": ("n_mem_classes", _integer),
    "kernel_prior": ("kernel_prior", _kernel_prior),
    "hh_conc_shape": ("hh_conc_shape", _number),
    "hh_conc_rate": ("hh_conc_rate", _number),
    "mem_conc_shape": ("mem_conc_shape", _number),
    "mem_conc_rate": ("mem_conc_rate", _number),
}
_CHAIN = {
    "iterations": ("n_iterations", _integer),
    "burn_in": ("burn_in", _integer),
    "thin": ("thin", _integer),
    "candidate_cap": ("candidate_cap", _or_none(_integer)),
}
_EVALUATE = {
    "max_order": ("max_order", partial(_at_least, 1)),
    "min_expected": ("min_expected", _number),
    "confidence": ("gamma", _open_unit),
    "household_queries": ("household_queries", _list_of(lambda spec: spec)),
}
_RISK = {
    "kind": ("kind", str),
    "draws": ("draws", partial(_at_least, 1)),
    "held_fixed": ("held_fixed", _list_of(_text)),
    "sizes": ("sizes", _or_none(_list_of(_integer))),
}
_SECTIONS = {
    "simulate": _SIMULATE,
    "model": _MODEL,
    "chain": _CHAIN,
    "synthesis": {"replicates": ("replicates", partial(_at_least, 1))},
    "evaluate": _EVALUATE,
    "risk": _RISK,
}
# the keys a section must give when it is present
_REQUIRED = ("population_households", "sample_households", "size_distribution", "copy_variable",
             "copy_prob", "household_classes", "individual_classes", "iterations", "burn_in")
# keywords no library object takes; they become RunConfig fields
_PLAIN = ("sample_households", "replicates", "gamma", "household_queries", "draws")


@dataclass
class RunConfig:
    """The library's config objects for one run, plus the values they have no field for."""

    seed: int
    schema_path: Path
    config_dir: Path
    risk: RiskConfig
    data_path: str | None = None
    rules_path: Path | None = None
    population_path: str | None = None
    toy: ToyConfig | None = None
    sample_households: int | None = None
    model: dict | None = None  # Hyperparams keywords, plus kernel_prior
    chain: ChainConfig | None = None
    replicates: int = 5
    gamma: float = 0.95  # evaluate.confidence
    cells: dict = field(default_factory=dict)  # cell_report keywords
    household_queries: tuple = ()
    draws: int = 25


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise UsageError(f"config: missing {key!r} in {where}")
    return doc[key]


def _check_keys(where: str, doc, allowed) -> None:
    if not isinstance(doc, dict):
        raise UsageError(f"config: {where} must be a mapping")
    unknown = set(doc) - set(allowed)
    if unknown:
        raise UsageError(f"config: unknown keys {sorted(unknown, key=str)} in {where}")


def _value(where: str, parse, value):
    try:
        return parse(value)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"config: {where}: {exc}") from exc


def _parse(section: str, doc) -> dict:
    """One YAML section read through its table: {library keyword: parsed value}."""
    table = _SECTIONS[section]
    _check_keys(section, doc, table)
    for key in _REQUIRED:
        if key in table:
            _require(doc, key, section)
    return {table[key][0]: _value(f"{section}.{key}", table[key][1], v) for key, v in doc.items()}


def _build(section: str, make, kw: dict):
    """make(**kw); a value the library rejects is reported with the YAML keys at fault."""
    try:
        return make(**kw)
    except (TypeError, ValueError) as exc:
        keys = _keys_at_fault(section, kw, exc)
        raise UsageError(f"config: {section}: {exc} (set by {keys})") from exc


def _keys_at_fault(section: str, names, exc: Exception) -> str:
    """The section's YAML keys for the library names that the message of exc
    has as words, in its order; every key that sets one of names if it has none."""
    keys = {name: key for key, (name, _) in _SECTIONS[section].items() if name in names}
    named = dict.fromkeys(keys[word] for word in re.findall(r"\w+", str(exc)) if word in keys)
    return ", ".join(named or keys.values())


def load_config(path: Path, seed_override: int | None) -> RunConfig:
    if not path.is_file():
        raise UsageError(f"config file not found: {path}")
    try:
        doc = yaml.safe_load(path.read_text(encoding="utf8"))
    except yaml.YAMLError as exc:
        raise UsageError(f"config is not valid YAML: {exc}") from exc
    _check_keys("the top level", doc, {"seed", "schema", "rules", "data", "population", *_SECTIONS})
    config_dir = path.parent.resolve()

    seed = seed_override if seed_override is not None else doc.get("seed")
    if seed is None:
        raise UsageError("config: a 'seed' is required (or pass --seed)")
    seed = _value("seed", partial(_at_least, 0), seed)

    schema_rel = _value("schema", _text, _require(doc, "schema", "the top level"))
    schema_path = (config_dir / schema_rel).resolve()
    if not schema_path.is_file():
        raise UsageError(f"schema file not found: {schema_path}")

    # the optional paths; null leaves one unset
    paths = {
        key: _value(key, _text, doc[key])
        for key in ("rules", "data", "population")
        if doc.get(key) is not None
    }
    rules_path = None
    if paths.get("rules"):
        rules_path = (config_dir / paths["rules"]).resolve()
        if not rules_path.is_file():
            raise UsageError(f"rules file not found: {rules_path}")

    sections = {name: _parse(name, doc[name]) for name in _SECTIONS if name in doc}
    plain = {key: kw.pop(key) for kw in sections.values() for key in _PLAIN if key in kw}
    toy, chain = sections.get("simulate"), sections.get("chain")
    return RunConfig(
        seed=seed,
        schema_path=schema_path,
        config_dir=config_dir,
        risk=_build("risk", RiskConfig, {"kind": "individual", **sections.get("risk", {})}),
        data_path=paths.get("data"),
        rules_path=rules_path,
        population_path=paths.get("population"),
        toy=None if toy is None else _build("simulate", ToyConfig, toy),
        model=sections.get("model"),
        chain=None if chain is None else _build("chain", ChainConfig, {**chain, "seed": seed}),
        cells=sections.get("evaluate", {}),
        **plain,
    )


def _resolve(cfg: RunConfig, raw: str | None, out_dir: Path, what: str) -> Path:
    if raw is None:
        raise UsageError(f"config: a {what!r} path is required for this command")
    text = raw.replace("{out}", str(out_dir))
    p = Path(text)
    if not p.is_absolute():
        p = cfg.config_dir / p
    if not p.is_file():
        raise UsageError(f"{what} file not found: {p}")
    return p


def _load_rules(cfg: RunConfig, schema: Schema) -> RuleSet | None:
    if cfg.rules_path is None:
        return None
    from .constraints import compile_rules

    return compile_rules(cfg.rules_path.read_text(encoding="utf8"), schema)


def _hyperparams(cfg: RunConfig, schema: Schema, dataset: Dataset) -> Hyperparams:
    if cfg.model is None:
        raise UsageError("config: a 'model' section is required for this command")
    from .model import Hyperparams

    kw = dict(cfg.model)
    if kw.pop("kernel_prior", "empirical") == "uniform":
        return _build("model", partial(Hyperparams.uniform, schema), kw)
    return _build("model", partial(Hyperparams.empirical, schema, dataset), kw)


def _check_sizes(where: str, sizes, dataset: Dataset, data_path: Path) -> None:
    """A usage error unless the data have a household of each size."""
    for h in sizes:
        if not np.any(dataset.sizes == h):
            raise UsageError(f"config: {where}: no household of size {h} in {data_path}")


def _check_rules(rules: RuleSet, dataset: Dataset, data_path: Path) -> None:
    """A usage error if a household of the data breaks the rules, which give it
    zero probability under a truncated fit; one size's households at a time."""
    from .constraints import check_batch

    bad = []
    # not np.unique, which imports numpy.ma and so moves fit's heap and its peak
    for h in np.flatnonzero(np.bincount(dataset.sizes)):
        rows = np.flatnonzero(dataset.sizes == h)
        members = dataset.mem_codes[dataset.hh_start[rows, None] + np.arange(h)]
        bad += rows[~check_batch(rules, dataset.hh_codes[rows], members)][:1].tolist()
    if bad:
        raise UsageError(
            f"{data_path}: household {dataset.ids[min(bad)]!r} breaks the rules, "
            "so a truncated fit cannot hold it"
        )


def _output_of(stage: str, what: str, path: Path) -> Path:
    """path, which an earlier stage writes; a usage error if that stage has not run."""
    if not path.is_file():
        raise UsageError(f"no {what} at {path}; run {stage} first")
    return path


def cmd_simulate(cfg: RunConfig, out_dir: Path) -> None:
    if cfg.toy is None:
        raise UsageError("config: a 'simulate' section is required")
    from .data import SchemaError, load_schema, write_dataset
    from .rng import substream
    from .simulate import marginal, sample_households, simulate_toy_population

    schema = load_schema(cfg.schema_path)
    if cfg.sample_households > cfg.toy.n_households:
        raise UsageError(
            f"config: simulate.sample_households: {cfg.sample_households} is above "
            f"population_households {cfg.toy.n_households}"
        )
    for name in cfg.toy.marginals:
        _value(f"simulate.marginals.{name}", partial(marginal, cfg.toy, schema), name)
    try:
        population = simulate_toy_population(
            schema, cfg.toy, substream(cfg.seed, "simulate", "population")
        )
    except SchemaError as exc:  # the message names the ToyConfig fields at fault
        keys = _keys_at_fault("simulate", vars(cfg.toy), exc)
        raise UsageError(f"config: simulate: {exc} (set by {keys})") from exc
    sample = sample_households(
        population, cfg.sample_households, substream(cfg.seed, "simulate", "sample")
    )
    write_dataset(population, out_dir / "population.csv")
    write_dataset(sample, out_dir / "sample.csv")
    log.info(
        "simulate: %d population households, %d sampled", population.n_households,
        sample.n_households,
    )


def cmd_fit(cfg: RunConfig, out_dir: Path) -> None:
    if cfg.chain is None:
        raise UsageError("config: a 'chain' section is required")
    from .data import load_dataset, load_schema
    from .gibbs import run_chain

    schema = load_schema(cfg.schema_path)
    data_path = _resolve(cfg, cfg.data_path, out_dir, "data")
    dataset = load_dataset(data_path, schema)
    rules = _load_rules(cfg, schema)
    if rules:
        _check_rules(rules, dataset, data_path)
    hyper = _hyperparams(cfg, schema, dataset)
    log.info(
        "fit: %d households, %d individuals, mode=%s",
        dataset.n_households,
        dataset.n_individuals,
        "truncated" if rules else "untruncated",
    )
    result = run_chain(
        dataset, hyper, cfg.chain, rules=rules,
        checkpoint_path=out_dir / "checkpoints.jsonl",
    )
    result.diagnostics.to_csv(out_dir / "diagnostics.csv")
    log.info(
        "fit: %d checkpoints, occupied classes at final sweep %d/%d",
        result.n_checkpoints,
        result.diagnostics.occupied_hh[-1],
        result.diagnostics.occupied_mem[-1],
    )
    if result.diagnostics.cap_exceeded:
        log.warning(
            "fit: candidate cap exceeded on %d sweeps; previous batches reused",
            result.diagnostics.cap_exceeded,
        )


def cmd_synthesize(cfg: RunConfig, out_dir: Path) -> None:
    from .checkpoints import read_checkpoints
    from .data import load_dataset, load_schema
    from .synthesis import synthesize_truncated, synthesize_untruncated, write_replicates

    schema = load_schema(cfg.schema_path)
    ckpt_path = _output_of("fit", "checkpoints", out_dir / "checkpoints.jsonl")
    meta, records = read_checkpoints(ckpt_path, cfg.replicates)
    if cfg.replicates > len(records):
        raise UsageError(
            f"config: synthesis.replicates: {cfg.replicates} is above the "
            f"{len(records)} checkpoints in {ckpt_path}"
        )
    if meta["mode"] == "truncated":
        reps = synthesize_truncated(schema, records, cfg.replicates)
    else:
        data_path = _resolve(cfg, cfg.data_path, out_dir, "data")
        dataset = load_dataset(data_path, schema)
        for record in records:
            fitted = (len(record.hh_class), len(record.mem_class))
            if fitted != (dataset.n_households, dataset.n_individuals):
                raise UsageError(
                    f"{ckpt_path} comes from a fit on {fitted[0]} households and {fitted[1]} "
                    f"individuals, but {data_path} has {dataset.n_households} households and "
                    f"{dataset.n_individuals} individuals; run fit again"
                )
        reps = synthesize_untruncated(dataset, records, cfg.replicates, cfg.seed)
    manifest = write_replicates(reps, out_dir)
    log.info(
        "synthesize: %d replicates from iterations %s",
        manifest["n_replicates"],
        manifest["source_iterations"],
    )


# query kind -> the keys its spec may give besides kind, name and size
_QUERY_KEYS = {
    "all_equal": {"variable"},
    "exists": {"literals"},
    "count": {"variable", "code", "min", "max"},
    "hh_value": {"variable", "code"},
    "and": {"of"},
}


def _build_query(schema: Schema, spec: dict, top: bool = True) -> HouseholdQuery | object:
    from .inference import (
        HouseholdQuery,
        all_members_equal,
        exists_member,
        household_value,
        member_count,
        q_all,
    )

    kind = spec.get("kind") if isinstance(spec, dict) else None
    if kind not in _QUERY_KEYS:
        raise UsageError(f"config: unknown query kind {kind!r}")
    where = f"query {spec.get('name', kind)!r}"
    _check_keys(where, spec, {"kind", *_QUERY_KEYS[kind], *(("name", "size") if top else ())})

    def code(name: str, value) -> int:  # a 1-based code or a label, checked against the schema
        return schema.variable(name).code_of(str(value))

    if kind == "all_equal":
        pred = all_members_equal(schema, _require(spec, "variable", where))
    elif kind == "exists":
        literals = _require(spec, "literals", where)
        pred = exists_member(schema, **{k: code(k, v) for k, v in literals.items()})
    elif kind == "count":
        variable = _require(spec, "variable", where)
        pred = member_count(
            schema,
            variable,
            code(variable, _require(spec, "code", where)),
            min_count=_integer(spec.get("min", 0)),
            max_count=_integer(spec["max"]) if "max" in spec else None,
        )
    elif kind == "hh_value":
        variable = _require(spec, "variable", where)
        pred = household_value(schema, variable, code(variable, _require(spec, "code", where)))
    else:
        pred = q_all(*[_build_query(schema, sub, top=False) for sub in _require(spec, "of", where)])
    if not top:
        return pred
    return HouseholdQuery(
        name=str(spec.get("name", kind)),
        predicate=pred,
        size=_integer(spec["size"]) if "size" in spec else None,
    )


def cmd_evaluate(cfg: RunConfig, out_dir: Path) -> None:
    from .data import load_dataset, load_schema
    from .inference import cell_report, household_report, report_rows, write_report_csv
    from .synthesis import read_replicates

    schema = load_schema(cfg.schema_path)
    build = partial(_build_query, schema)
    queries = [_value("evaluate.household_queries", build, spec) for spec in cfg.household_queries]
    data_path = _resolve(cfg, cfg.data_path, out_dir, "data")
    original = load_dataset(data_path, schema)
    for query in queries:
        if query.size is not None:
            _check_sizes(f"query {query.name!r}", (query.size,), original, data_path)
    _output_of("synthesize", "replicates", out_dir / "manifest.json")
    reps = read_replicates(out_dir, schema)
    population = None
    if cfg.population_path:
        population = load_dataset(
            _resolve(cfg, cfg.population_path, out_dir, "population"), schema
        )
    cells = cell_report(original, reps, population=population, **cfg.cells)
    rows = report_rows(cells + household_report(original, reps, queries, population), cfg.gamma)
    write_report_csv(rows[:len(cells)], out_dir / "cells.csv")
    log.info("evaluate: %d cells reported", len(cells))
    write_report_csv(rows[len(cells):], out_dir / "household_queries.csv")
    log.info("evaluate: %d household queries reported", len(queries))


def cmd_risk(cfg: RunConfig, out_dir: Path) -> None:
    from .checkpoints import read_checkpoints
    from .data import load_dataset, load_schema
    from .risk import risk_sweep
    from .synthesis import read_replicates

    schema = load_schema(cfg.schema_path)
    for name in cfg.risk.held_fixed:
        _value("risk.held_fixed", schema.variable, name)
    data_path = _resolve(cfg, cfg.data_path, out_dir, "data")
    original = load_dataset(data_path, schema)
    _check_sizes("risk.sizes", cfg.risk.sizes or (), original, data_path)
    _output_of("synthesize", "replicates", out_dir / "manifest.json")
    reps = read_replicates(out_dir, schema)
    ckpt_path = _output_of("fit", "checkpoints", out_dir / "checkpoints.jsonl")
    meta, draws = read_checkpoints(ckpt_path, cfg.draws, params_only=True)
    if not draws:  # a fit that failed on its first sweep leaves the meta line only
        raise UsageError(f"{ckpt_path} holds no draws; run fit again")
    rules = _load_rules(cfg, schema)
    if meta["mode"] != ("truncated" if rules else "untruncated"):
        raise UsageError(
            f"{ckpt_path} comes from a fit in {meta['mode']} mode, but the config has "
            f"{'rules' if rules else 'no rules'}; run fit again with this config"
        )
    summary = risk_sweep(original, reps, draws, replace(cfg.risk, rules=rules))
    summary.to_csv(out_dir / "risk_summary.csv")
    summary.histogram_to_csv(out_dir / "rank_histogram.csv")
    correct = sum(1 for r in summary.rows if r.rank_of_truth == 1)
    log.info(
        "risk: %d targets, truth ranked first for %d (%.1f%%)",
        len(summary.rows),
        correct,
        100.0 * correct / max(len(summary.rows), 1),
    )
