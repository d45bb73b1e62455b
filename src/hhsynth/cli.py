"""Command line pipeline: simulate | fit | synthesize | evaluate | risk.

One YAML config drives every subcommand; --out selects the working directory
and --seed overrides the config seed.  Paths in the config may embed "{out}"
to reference files produced by earlier steps, everything else resolves
relative to the config file.  Exit codes: 0 success, 1 usage or config
problem, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .checkpoints import read_checkpoints
from .constraints import RuleSet, compile_rules
from .data import Dataset, Schema, load_dataset, load_schema, size_histogram, write_dataset
from .gibbs import ChainConfig, run_chain
from .inference import (
    HouseholdQuery,
    all_members_equal,
    cell_report,
    exists_member,
    household_report,
    household_value,
    member_count,
    q_all,
    write_report_csv,
)
from .model import Hyperparams
from .risk import RiskConfig, risk_sweep
from .rng import substream
from .simulate import ToyConfig, sample_households, simulate_toy_population
from .synthesis import (
    read_replicates,
    synthesize_truncated,
    synthesize_untruncated,
    write_replicates,
)

log = logging.getLogger("hhsynth")


class UsageError(Exception):
    """Bad flags, malformed config, or missing inputs."""


@dataclass
class ModelSettings:
    household_classes: int
    individual_classes: int
    kernel_prior: str = "empirical"  # or "uniform"
    hh_conc_shape: float = 0.25
    hh_conc_rate: float = 0.25
    mem_conc_shape: float = 0.25
    mem_conc_rate: float = 0.25
    per_class_mem_conc: bool = False


@dataclass
class ChainSettings:
    iterations: int
    burn_in: int
    thin: int = 1
    candidate_cap: int | None = None


@dataclass
class SynthesisSettings:
    replicates: int = 5


@dataclass
class EvaluateSettings:
    max_order: int = 2
    min_expected: float = 10.0
    confidence: float = 0.95
    household_queries: list = field(default_factory=list)


@dataclass
class RiskSettings:
    kind: str = "individual"
    draws: int = 25
    held_fixed: tuple[str, ...] = ()
    sizes: tuple[int, ...] | None = None


@dataclass
class SimulateSettings:
    population_households: int
    sample_households: int
    size_distribution: dict[int, float]
    copy_variable: str
    copy_prob: float
    role_variable: str | None = None
    head_code: int = 1
    other_code: int = 2
    marginals: dict[str, list] = field(default_factory=dict)


@dataclass
class RunConfig:
    seed: int
    schema_path: Path
    config_dir: Path
    data_path: str | None = None
    rules_path: Path | None = None
    population_path: str | None = None
    model: ModelSettings | None = None
    chain: ChainSettings | None = None
    synthesis: SynthesisSettings = field(default_factory=SynthesisSettings)
    evaluate: EvaluateSettings = field(default_factory=EvaluateSettings)
    risk: RiskSettings = field(default_factory=RiskSettings)
    simulate: SimulateSettings | None = None


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise UsageError(f"config: missing {key!r} in {where}")
    return doc[key]


def load_config(path: Path, seed_override: int | None) -> RunConfig:
    if not path.is_file():
        raise UsageError(f"config file not found: {path}")
    try:
        doc = yaml.safe_load(path.read_text(encoding="utf8"))
    except yaml.YAMLError as exc:
        raise UsageError(f"config is not valid YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise UsageError("config must be a YAML mapping")
    config_dir = path.parent.resolve()

    seed = seed_override if seed_override is not None else doc.get("seed")
    if seed is None:
        raise UsageError("config: a 'seed' is required (or pass --seed)")

    schema_rel = _require(doc, "schema", "the top level")
    schema_path = (config_dir / schema_rel).resolve()
    if not schema_path.is_file():
        raise UsageError(f"schema file not found: {schema_path}")

    rules_path = None
    if doc.get("rules"):
        rules_path = (config_dir / doc["rules"]).resolve()
        if not rules_path.is_file():
            raise UsageError(f"rules file not found: {rules_path}")

    cfg = RunConfig(
        seed=int(seed),
        schema_path=schema_path,
        config_dir=config_dir,
        data_path=doc.get("data"),
        rules_path=rules_path,
        population_path=doc.get("population"),
    )

    if "model" in doc:
        m = doc["model"]
        cfg.model = ModelSettings(
            household_classes=int(_require(m, "household_classes", "model")),
            individual_classes=int(_require(m, "individual_classes", "model")),
            kernel_prior=str(m.get("kernel_prior", "empirical")),
            hh_conc_shape=float(m.get("hh_conc_shape", 0.25)),
            hh_conc_rate=float(m.get("hh_conc_rate", 0.25)),
            mem_conc_shape=float(m.get("mem_conc_shape", 0.25)),
            mem_conc_rate=float(m.get("mem_conc_rate", 0.25)),
            per_class_mem_conc=bool(m.get("per_class_mem_conc", False)),
        )
        if cfg.model.kernel_prior not in ("empirical", "uniform"):
            raise UsageError("config: model.kernel_prior must be 'empirical' or 'uniform'")
    if "chain" in doc:
        c = doc["chain"]
        cfg.chain = ChainSettings(
            iterations=int(_require(c, "iterations", "chain")),
            burn_in=int(_require(c, "burn_in", "chain")),
            thin=int(c.get("thin", 1)),
            candidate_cap=int(c["candidate_cap"]) if c.get("candidate_cap") else None,
        )
    if "synthesis" in doc:
        cfg.synthesis = SynthesisSettings(replicates=int(doc["synthesis"].get("replicates", 5)))
        if cfg.synthesis.replicates < 1:
            raise UsageError("config: synthesis.replicates must be >= 1")
    if "evaluate" in doc:
        e = doc["evaluate"]
        cfg.evaluate = EvaluateSettings(
            max_order=int(e.get("max_order", 2)),
            min_expected=float(e.get("min_expected", 10.0)),
            confidence=float(e.get("confidence", 0.95)),
            household_queries=list(e.get("household_queries", [])),
        )
    if "risk" in doc:
        r = doc["risk"]
        kind = str(r.get("kind", "individual"))
        if kind not in ("individual", "household"):
            raise UsageError("config: risk.kind must be 'individual' or 'household'")
        cfg.risk = RiskSettings(
            kind=kind,
            draws=int(r.get("draws", 25)),
            held_fixed=tuple(r.get("held_fixed", [])),
            sizes=tuple(int(s) for s in r["sizes"]) if r.get("sizes") else None,
        )
    if "simulate" in doc:
        s = doc["simulate"]
        dist = _require(s, "size_distribution", "simulate")
        cfg.simulate = SimulateSettings(
            population_households=int(_require(s, "population_households", "simulate")),
            sample_households=int(_require(s, "sample_households", "simulate")),
            size_distribution={int(k): float(v) for k, v in dist.items()},
            copy_variable=str(_require(s, "copy_variable", "simulate")),
            copy_prob=float(_require(s, "copy_prob", "simulate")),
            role_variable=s.get("role_variable"),
            head_code=int(s.get("head_code", 1)),
            other_code=int(s.get("other_code", 2)),
            marginals={str(k): list(v) for k, v in s.get("marginals", {}).items()},
        )
    return cfg


def _resolve(cfg: RunConfig, raw: str | None, out_dir: Path, what: str) -> Path:
    if raw is None:
        raise UsageError(f"config: a {what!r} path is required for this command")
    text = str(raw).replace("{out}", str(out_dir))
    p = Path(text)
    if not p.is_absolute():
        p = cfg.config_dir / p
    if not p.is_file():
        raise UsageError(f"{what} file not found: {p}")
    return p


def _load_rules(cfg: RunConfig, schema: Schema) -> RuleSet | None:
    if cfg.rules_path is None:
        return None
    return compile_rules(cfg.rules_path.read_text(encoding="utf8"), schema)


def _hyperparams(cfg: RunConfig, schema: Schema, dataset: Dataset) -> Hyperparams:
    if cfg.model is None:
        raise UsageError("config: a 'model' section is required for this command")
    m = cfg.model
    kw = dict(
        hh_conc_shape=m.hh_conc_shape,
        hh_conc_rate=m.hh_conc_rate,
        mem_conc_shape=m.mem_conc_shape,
        mem_conc_rate=m.mem_conc_rate,
        per_class_mem_conc=m.per_class_mem_conc,
    )
    if m.kernel_prior == "uniform":
        return Hyperparams.uniform(schema, m.household_classes, m.individual_classes, **kw)
    return Hyperparams.empirical(
        schema, dataset.to_view(), m.household_classes, m.individual_classes, **kw
    )


def cmd_simulate(cfg: RunConfig, out_dir: Path) -> None:
    if cfg.simulate is None:
        raise UsageError("config: a 'simulate' section is required")
    schema = load_schema(cfg.schema_path)
    s = cfg.simulate
    toy = ToyConfig(
        n_households=s.population_households,
        size_probs=s.size_distribution,
        copy_variable=s.copy_variable,
        copy_prob=s.copy_prob,
        marginals={k: np.asarray(v, dtype=float) for k, v in s.marginals.items()},
        role_variable=s.role_variable,
        head_code=s.head_code - 1,
        other_code=s.other_code - 1,
    )
    population = simulate_toy_population(schema, toy, substream(cfg.seed, "simulate", "population"))
    sample = sample_households(
        population, s.sample_households, substream(cfg.seed, "simulate", "sample")
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
    schema = load_schema(cfg.schema_path)
    data_path = _resolve(cfg, cfg.data_path, out_dir, "data")
    dataset = load_dataset(data_path, schema)
    rules = _load_rules(cfg, schema)
    hyper = _hyperparams(cfg, schema, dataset)
    chain_config = ChainConfig(
        n_iterations=cfg.chain.iterations,
        burn_in=cfg.chain.burn_in,
        thin=cfg.chain.thin,
        seed=cfg.seed,
        candidate_cap=cfg.chain.candidate_cap,
    )
    log.info(
        "fit: %d households, %d individuals, mode=%s",
        dataset.n_households,
        dataset.n_individuals,
        "truncated" if rules else "untruncated",
    )
    result = run_chain(
        dataset, hyper, chain_config, rules=rules,
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
    schema = load_schema(cfg.schema_path)
    ckpt_path = out_dir / "checkpoints.jsonl"
    if not ckpt_path.is_file():
        raise UsageError(f"no checkpoints at {ckpt_path}; run fit first")
    meta, records = read_checkpoints(ckpt_path)
    if meta["mode"] == "truncated":
        reps = synthesize_truncated(schema, records, cfg.synthesis.replicates)
    else:
        data_path = _resolve(cfg, cfg.data_path, out_dir, "data")
        dataset = load_dataset(data_path, schema)
        reps = synthesize_untruncated(dataset, records, cfg.synthesis.replicates, cfg.seed)
    manifest = write_replicates(reps, out_dir)
    log.info(
        "synthesize: %d replicates from iterations %s",
        manifest["n_replicates"],
        manifest["source_iterations"],
    )


def _build_query(schema: Schema, spec: dict, top: bool = True) -> HouseholdQuery | object:
    kind = spec.get("kind")
    if kind == "all_equal":
        pred = all_members_equal(schema, _require(spec, "variable", "query"))
    elif kind == "exists":
        literals = _require(spec, "literals", "query")
        pred = exists_member(schema, **{k: int(v) - 1 for k, v in literals.items()})
    elif kind == "count":
        pred = member_count(
            schema,
            _require(spec, "variable", "query"),
            int(_require(spec, "code", "query")) - 1,
            min_count=int(spec.get("min", 0)),
            max_count=int(spec["max"]) if "max" in spec else None,
        )
    elif kind == "hh_value":
        pred = household_value(
            schema, _require(spec, "variable", "query"), int(_require(spec, "code", "query")) - 1
        )
    elif kind == "and":
        preds = [_build_query(schema, sub, top=False) for sub in _require(spec, "of", "query")]
        pred = q_all(*preds)
    else:
        raise UsageError(f"config: unknown query kind {kind!r}")
    if not top:
        return pred
    return HouseholdQuery(
        name=str(spec.get("name", kind)),
        predicate=pred,
        size=int(spec["size"]) if "size" in spec else None,
    )


def cmd_evaluate(cfg: RunConfig, out_dir: Path) -> None:
    schema = load_schema(cfg.schema_path)
    data_path = _resolve(cfg, cfg.data_path, out_dir, "data")
    original = load_dataset(data_path, schema)
    reps = read_replicates(out_dir, schema)
    population = None
    if cfg.population_path:
        population = load_dataset(
            _resolve(cfg, cfg.population_path, out_dir, "population"), schema
        )
    e = cfg.evaluate
    rows = cell_report(
        original,
        reps.replicates,
        max_order=e.max_order,
        min_expected=e.min_expected,
        gamma=e.confidence,
        population=population,
    )
    write_report_csv(rows, out_dir / "cells.csv")
    log.info("evaluate: %d cells reported", len(rows))
    if e.household_queries:
        queries = [_build_query(schema, spec) for spec in e.household_queries]
        qrows = household_report(
            original, reps.replicates, queries, gamma=e.confidence, population=population
        )
        write_report_csv(qrows, out_dir / "household_queries.csv")
        log.info("evaluate: %d household queries reported", len(qrows))


def cmd_risk(cfg: RunConfig, out_dir: Path) -> None:
    from .synthesis import select_records

    schema = load_schema(cfg.schema_path)
    data_path = _resolve(cfg, cfg.data_path, out_dir, "data")
    original = load_dataset(data_path, schema)
    reps = read_replicates(out_dir, schema)
    ckpt_path = out_dir / "checkpoints.jsonl"
    if not ckpt_path.is_file():
        raise UsageError(f"no checkpoints at {ckpt_path}; run fit first")
    _, records = read_checkpoints(ckpt_path)
    draws = [r.params for r in select_records(records, min(cfg.risk.draws, len(records)))]
    rules = _load_rules(cfg, schema)
    config = RiskConfig(
        kind=cfg.risk.kind,
        held_fixed=cfg.risk.held_fixed,
        sizes=cfg.risk.sizes,
        rules=rules if cfg.risk.kind == "household" else None,
    )
    summary = risk_sweep(original, reps.replicates, draws, config)
    summary.to_csv(out_dir / "risk_summary.csv")
    summary.histogram_to_csv(out_dir / "rank_histogram.csv")
    correct = sum(1 for r in summary.rows if r.rank_of_truth == 1)
    log.info(
        "risk: %d targets, truth ranked first for %d (%.1f%%)",
        len(summary.rows),
        correct,
        100.0 * correct / max(len(summary.rows), 1),
    )


_COMMANDS = {
    "simulate": cmd_simulate,
    "fit": cmd_fit,
    "synthesize": cmd_synthesize,
    "evaluate": cmd_evaluate,
    "risk": cmd_risk,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hhsynth",
        description="Household synthesis: fit, synthesize, evaluate, risk, simulate.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--config", required=True, type=Path, help="YAML run configuration")
        p.add_argument("--out", required=True, type=Path, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(name)s %(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = load_config(args.config.resolve(), args.seed)
        out_dir = args.out.resolve()
        out_dir.mkdir(parents=True, exist_ok=True)
        _COMMANDS[args.command](cfg, out_dir)
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - boundary of the CLI
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
