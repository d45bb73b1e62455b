#!/usr/bin/env python3
"""End-to-end benchmark of the hhsynth CLI pipeline.

Run from the repository root:

    python3 bench/run.py --workload toy-cli --seed 1 --seconds 32 --trace 0

Workloads live in bench/workloads/<name>/ (config, schema, rules); each config
says why the workload exists.  The seed reaches the program as ``--seed``.

Untraced (``--trace 0``): times ``python -m hhsynth.cli --help`` several times
(set-up), then runs the five CLI stages one after another, each in a fresh
single-threaded process.  It runs the whole pipeline at least twice, and again
while another one is expected to end within ``--seconds``.  Every pipeline's
outputs are checked.
All pipelines of a run must leave the same output digest, and so must every
run of the same source, workload and seed in this checkout: the digests are
kept in .bench_runs/digests.json.  Reports the end-to-end metrics, each the
median over the pipelines.

Traced (``--trace 1``): alternates an untraced pipeline with one whose stages
run under bench/tracer.py, at least once and again while another pair is
expected to end within ``--seconds``.  The two digests of each pair must
agree with each other and with the recorded digest.  Reports the per-layer
metrics (medians over pairs) and the tracing overhead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; metric names and units come from
BENCHMARK.json.  Attempted operations are the checks of the run, each counted
once however many pipelines it covered: every stage exits 0, every output
check, and the determinism checks.  ``correct`` is false when a stage or a
check on the released outputs or on determinism fails.  All files go under .bench_runs/; all but
the digest record are removed at the end.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks as chk

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("toy-cli", "untruncated-3k", "rules-wide-1.5k")
STAGES = ("simulate", "fit", "synthesize", "evaluate", "risk")
SETUP_REPEATS = 3


@dataclass
class Workload:
    name: str
    config: Path
    n_replicates: int
    schema: object
    rules: object  # RuleSet, or None for untruncated workloads


@dataclass
class Pipeline:
    walls: dict[str, float] = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    checks: list = field(default_factory=list)
    digest: str = ""
    overlap: float | None = None
    cell_mae: float | None = None

    @property
    def wall(self) -> float:
        return sum(self.walls.values())


def load_workload(name: str) -> Workload:
    import yaml
    from hhsynth.constraints import compile_rules
    from hhsynth.data import load_schema

    config = BENCH_DIR / "workloads" / name / "config.yaml"
    doc = yaml.safe_load(config.read_text(encoding="utf8"))
    schema = load_schema(config.parent / doc["schema"])
    rules = None
    if doc.get("rules"):
        rules = compile_rules((config.parent / doc["rules"]).read_text(encoding="utf8"), schema)
    return Workload(name, config, int(doc["synthesis"]["replicates"]), schema, rules)


def child_env(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_process(cmd: list[str], env: dict, log_path: Path) -> tuple[int, float, float]:
    """Run to completion; return (exit code, wall seconds, peak resident MB)."""
    with log_path.open("wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=log, stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def measure_setup(env: dict, run_dir: Path) -> tuple[float, list]:
    walls, results = [], []
    for i in range(SETUP_REPEATS):
        code, wall, _ = run_process(
            [sys.executable, "-m", "hhsynth.cli", "--help"], env, run_dir / "setup.log"
        )
        walls.append(wall)
        results.append(chk.Check(f"setup:{i + 1}", code == 0, True, f"exit {code}" if code else ""))
    return statistics.median(walls), results


def run_pipeline(wl: Workload, seed: int, out: Path, env: dict, spans: Path | None) -> Pipeline:
    """Run the five stages in order into a fresh out directory, then check the outputs."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    logs = out.parent / "logs"
    logs.mkdir(exist_ok=True)
    result = Pipeline()
    failed_stage = None
    for stage in STAGES:
        if failed_stage is not None:
            result.checks.append(chk.Check(f"stage:{stage}", False, True, f"{failed_stage} failed"))
            continue
        args = [stage, "--config", str(wl.config), "--out", str(out), "--seed", str(seed)]
        if spans is None:
            cmd = [sys.executable, "-m", "hhsynth.cli", *args]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "traced_stage.py"),
                   str(spans / f"{stage}.json"), f"{wl.name}-{seed}", *args]
        code, wall, rss = run_process(cmd, env, logs / f"{stage}.log")
        result.walls[stage] = wall
        result.peak_rss_mb = max(result.peak_rss_mb, rss)
        detail = ""
        if code != 0:
            failed_stage = stage
            tail = (logs / f"{stage}.log").read_text(encoding="utf8", errors="replace")[-400:]
            detail = f"exit {code}: {tail.strip()}"
        result.checks.append(chk.Check(f"stage:{stage}", code == 0, True, detail))

    names = chk.output_files(wl.n_replicates)
    result.checks += chk.parse_checks(out, names)
    result.checks += chk.replicate_checks(out, wl.schema, wl.rules, wl.n_replicates)
    result.checks += chk.risk_checks(out)
    result.digest = chk.digest(out, names)
    try:
        result.overlap, result.cell_mae = chk.cell_utility(out)
    except chk.BAD_FILE:
        pass
    return result


def digest_check(name: str, digest: str, reference: str) -> chk.Check:
    detail = "" if digest == reference else f"digest {digest[:16]} differs from {reference[:16]}"
    return chk.Check(name, digest == reference, True, detail)


def source_key(root: Path, wl: Workload, seed: int) -> str:
    """Names what fixes the outputs: the program source, the workload files and the seed."""
    h = hashlib.sha256()
    files = sorted((root / "src").rglob("*.py")) + sorted(wl.config.parent.iterdir())
    for path in files:
        h.update(f"{path.relative_to(root)}\0".encode())
        h.update(path.read_bytes())
    return f"{wl.name}:{seed}:{h.hexdigest()[:16]}"


def across_runs_check(record: Path, key: str, digest: str) -> chk.Check:
    """Compare with the digest that an earlier run of the same key left in this checkout."""
    seen = json.loads(record.read_text(encoding="utf8")) if record.is_file() else {}
    reference = seen.setdefault(key, digest)
    record.write_text(json.dumps(seen, indent=1) + "\n", encoding="utf8")
    return digest_check("determinism:across_runs", digest, reference)


def span_metrics(spans_dir: Path, pipeline: Pipeline, out: Path) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline."""
    totals: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    counters: dict[str, int] = {}
    for stage in STAGES:
        doc = json.loads((spans_dir / f"{stage}.json").read_text(encoding="utf8"))
        spans = doc["spans"]
        child_s = [0.0] * len(spans)
        for span_id, parent, name, start, end in spans:
            totals[name] = totals.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
            if parent is not None:
                child_s[parent] += end - start
        for span_id, parent, name, start, end in spans:
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child_s[span_id]
        top_s = sum(end - start for _, parent, _, start, end in spans if parent is None)
        self_s[f"cli.{stage}"] = pipeline.walls[stage] - top_s
        for key, value in doc["counters"].items():
            counters[key] = counters.get(key, 0) + value

    metrics = {f"cli.{stage}.self_s": self_s[f"cli.{stage}"] for stage in STAGES}
    for name in (
        "simulate.simulate_toy_population", "simulate.sample_households",
        "data.load_dataset", "data.write_dataset", "data.to_view",
        "model.member_logliks", "model.dataset_loglik", "model.draw_households",
        "gibbs.sample_household_classes", "gibbs.sample_member_classes",
        "gibbs.resample_parameters", "gibbs.diagnostics_csv",
        "truncated.generate_augmented", "constraints.check_batch",
        "checkpoints.write", "checkpoints.read_checkpoints",
        "synthesis.synthesize", "synthesis.write_replicates", "synthesis.read_replicates",
        "inference.estimate_proportion", "inference.household_report",
        "risk.replicate_likelihood", "risk.importance_weights",
    ):
        metrics[f"{name}.s"] = totals.get(name, 0.0)
    for name in (
        "data.to_view", "model.member_logliks", "model.dataset_loglik",
        "constraints.check_batch", "inference.estimate_proportion", "risk.replicate_likelihood",
    ):
        metrics[f"{name}.calls"] = calls.get(name, 0)
    for name in ("gibbs.run_chain", "inference.cell_report", "risk.risk_sweep"):
        metrics[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in (
        "data.load_dataset.households", "gibbs.sweeps", "truncated.candidates",
        "truncated.cap_hits", "constraints.check_batch.households", "risk.targets",
        "risk.candidates",
    ):
        metrics[name] = counters.get(name, 0)
    candidates = counters.get("truncated.candidates", 0)
    feasible = candidates - counters.get("truncated.infeasible", 0)
    metrics["truncated.accept_ratio"] = feasible / candidates if candidates else 0.0
    metrics["checkpoints.bytes"] = (out / "checkpoints.jsonl").stat().st_size
    metrics["inference.cell_mae"] = pipeline.cell_mae
    return metrics


def untraced_run(wl: Workload, seed: int, seconds: float, run_dir: Path, env: dict, key: str):
    setup_s, ops = measure_setup(env, run_dir)
    pipelines: list[Pipeline] = []
    start = time.perf_counter()
    # at least two pipelines, so that every run checks that they agree
    while len(pipelines) < 2 or time.perf_counter() - start + pipelines[-1].wall <= seconds:
        p = run_pipeline(wl, seed, run_dir / "out", env, None)
        if pipelines:
            p.checks.append(digest_check("determinism:within_run", p.digest, pipelines[0].digest))
        pipelines.append(p)
        ops += p.checks
    ops.append(across_runs_check(run_dir.parent / "digests.json", key, pipelines[0].digest))
    ops = chk.merge(ops)
    print(f"digest {pipelines[0].digest} over {len(pipelines)} pipelines")

    def median(values):
        return statistics.median(values) if values else None

    metrics = {"setup_s": setup_s}
    metrics["pipeline_s"] = median([p.wall for p in pipelines if len(p.walls) == len(STAGES)])
    metrics["peak_rss_mb"] = median([p.peak_rss_mb for p in pipelines])
    metrics["check_pass_share"] = sum(c.ok for c in ops) / len(ops)
    metrics["utility_interval_overlap"] = median(
        [p.overlap for p in pipelines if p.overlap is not None]
    )
    return metrics, ops


def traced_run(wl: Workload, seed: int, seconds: float, run_dir: Path, env: dict, key: str):
    ops: list = []
    samples: list[dict[str, float]] = []
    pair_wall = 0.0
    start = time.perf_counter()
    while not samples or time.perf_counter() - start + pair_wall <= seconds:
        plain = run_pipeline(wl, seed, run_dir / "out", env, None)
        spans_dir = run_dir / "spans"
        shutil.rmtree(spans_dir, ignore_errors=True)
        spans_dir.mkdir()
        traced = run_pipeline(wl, seed, run_dir / "out", env, spans_dir)
        ops += plain.checks + traced.checks
        ops.append(digest_check("determinism:traced", traced.digest, plain.digest))
        ops.append(across_runs_check(run_dir.parent / "digests.json", key, plain.digest))
        if not all(c.ok for c in plain.checks + traced.checks if c.name.startswith("stage:")):
            break
        metrics = span_metrics(spans_dir, traced, run_dir / "out")
        metrics.update({f"cli.{stage}.wall_s": plain.walls[stage] for stage in STAGES})
        metrics["trace.overhead_s"] = traced.wall - plain.wall
        samples.append(metrics)
        pair_wall = plain.wall + traced.wall
        print(f"digest {plain.digest} untraced, {traced.digest} traced")
    ops = chk.merge(ops)
    if not samples:
        return {}, ops
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}, ops


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    root = Path.cwd()
    src = root / "src"
    spec_path = root / "BENCHMARK.json"
    if not (src / "hhsynth" / "cli.py").is_file() or not spec_path.is_file():
        print("error: run from the repository root (src/hhsynth and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import hhsynth

    if Path(hhsynth.__file__).resolve().parent != (src / "hhsynth").resolve():
        print(f"error: hhsynth imported from {hhsynth.__file__}, not {src}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    # on SIGTERM, unwind so that the running stage process is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    wl = load_workload(args.workload)
    run_dir = root / ".bench_runs" / f"{wl.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = child_env(src)
    try:
        run = traced_run if args.trace else untraced_run
        values, ops = run(wl, args.seed, args.seconds, run_dir, env, source_key(root, wl, args.seed))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for c in ops:
        if not c.ok:
            print(f"check failed: {c.name}: {c.detail}")
    if set(values) != set(units):
        missing = sorted(set(units) - set(values))
        print(f"error: metrics do not match BENCHMARK.json; missing {missing}, "
              f"extra {sorted(set(values) - set(units))}", file=sys.stderr)
        return 2
    result = {
        "correct": all(c.ok for c in ops if c.release),
        "attempted": len(ops),
        "failed": sum(not c.ok for c in ops),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
