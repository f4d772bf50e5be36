"""Run one benchmark workload end to end and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sync-cnn --seed 0 --seconds 45 --trace 0

Each invocation is one fresh process and one run.  It builds jobs of the
named workload from ``--seed`` through the program's public API, trains,
evaluates and checks them, one after another, until ``--seconds`` have
passed, after one untimed warm-up job.  With ``--trace 0`` it prints the
end-to-end metrics (per-job medians); with ``--trace 1`` it alternates
untraced and traced jobs and prints the per-layer metrics of the traced
ones, plus the tracing overhead, and writes a Chrome trace of the last
traced job to ``perfbench/out/``.  The last line of standard output is
one JSON object: ``correct``, ``attempted`` and ``failed`` (batches), and
``metrics``.  A job that fails a correctness check marks every batch of
the run failed and the command exits with code 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

#: Fewest timed jobs per run, whatever ``--seconds`` says.
MIN_JOBS = 3


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def listed_metrics(trace: int) -> Dict[str, str]:
    """Name to unit of every metric ``BENCHMARK.json`` lists for the run:
    ``per_layer`` when traced, ``end_to_end`` otherwise."""
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        listed = json.load(handle)["per_layer" if trace else "end_to_end"]
    return {entry["name"]: entry["unit"] for entry in listed}


def _pin_blas_threads() -> Dict[str, Any]:
    """Cap the BLAS pool at the CPUs this process may use.

    Must run before numpy is imported: OpenBLAS reads the variable once.
    """
    nproc = len(os.sched_getaffinity(0))
    requested = int(os.environ.get("OPENBLAS_NUM_THREADS", nproc) or nproc)
    threads = max(1, min(requested, nproc))
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[variable] = str(threads)
    return {"nproc": nproc, "blas_threads": threads}


@dataclass
class JobOutcome:
    """Timings, counts and check failures of one job."""

    values: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)


def run_job(name: str, seed: int, workdir: str) -> Tuple[JobOutcome, Any]:
    """Build, train, evaluate (and on the durable workload resume) one job.

    Returns the outcome and the trained trainer; callers drop the trainer
    as soon as they can, so that jobs never pile up in memory.
    """
    import repro.api as api
    from repro.state import FileCheckpointStore
    from workloads import WORKLOADS

    # Collect the previous job's garbage now, not inside this job's timings.
    gc.collect()
    outcome = JobOutcome()
    start = time.perf_counter()
    job = WORKLOADS[name](seed, workdir)
    outcome.values["setup_s"] = time.perf_counter() - start
    trainer = job.trainer

    evaluation = {"wall_s": 0.0, "samples": 0, "accuracy": float("nan"),
                  "loss": float("nan")}
    evaluate = trainer.evaluate

    def timed_evaluate(dataset: Any, batch_size: Optional[int] = None) -> Dict[str, Any]:
        began = time.perf_counter()
        result = evaluate(dataset, batch_size)
        evaluation["wall_s"] += time.perf_counter() - began
        evaluation["samples"] += len(dataset) * trainer.num_end_systems
        evaluation["accuracy"] = result["accuracy"]
        evaluation["loss"] = result["loss"]
        return result

    trainer.evaluate = timed_evaluate
    began = time.perf_counter()
    history = trainer.train(test_dataset=job.test if job.evaluate_in_train else None)
    outcome.values["job_wall_s"] = time.perf_counter() - began
    if not job.evaluate_in_train:
        trainer.evaluate(job.test)

    train_wall = sum(record.wall_time_s for record in history.records)
    outcome.values["train_samples_per_s"] = trainer.cluster.samples_processed / train_wall
    outcome.values["sim_events_per_s"] = trainer.engine.stats.events_processed / train_wall
    outcome.values["eval_samples_per_s"] = evaluation["samples"] / evaluation["wall_s"]
    outcome.values["final_train_loss"] = history.records[-1].train_loss
    outcome.values["final_test_accuracy"] = evaluation["accuracy"]

    resumed = None
    if job.spec is not None:
        resumed = api.resume_trainer(
            job.spec, FileCheckpointStore(job.spec.config.checkpoint_dir),
            pieces=job.pieces)

    outcome.problems = check_job(trainer, history, evaluation, resumed)
    end_systems = trainer.end_systems
    outcome.failed = sum(es.drops_notified for es in end_systems)
    outcome.attempted = outcome.failed + sum(es.updates_applied for es in end_systems)
    return outcome, trainer


def check_job(trainer: Any, history: Any, evaluation: Dict[str, Any],
              resumed: Any) -> List[str]:
    """Correctness gate of one job; returns what failed (empty when sound)."""
    from repro.obs.invariants import assert_drop_balance

    problems = []
    try:
        assert_drop_balance(trainer)
    except AssertionError as error:
        problems.append(f"drop balance: {error}")
    pending = sum(es.pending_batches for es in trainer.end_systems)
    if pending:
        problems.append(f"{pending} pending batches left on end-systems")
    losses = [record.train_loss for record in history.records] + [evaluation["loss"]]
    if not history.records or not all(math.isfinite(loss) for loss in losses):
        problems.append(f"non-finite loss: {losses}")
    if trainer.cluster.samples_processed <= 0:
        problems.append("the server processed no samples")
    if resumed is not None:
        problems.extend(_weight_mismatches(trainer, resumed))
    return problems


def _weight_mismatches(trainer: Any, resumed: Any) -> List[str]:
    """Names of the weights the resumed trainer does not restore bit-exactly."""
    import numpy as np

    pairs = [(f"end_system {a.system_id}", a.state_dict(), b.state_dict())
             for a, b in zip(trainer.end_systems, resumed.end_systems)]
    pairs += [(f"shard {a.shard_id}", a.server.state_dict(), b.server.state_dict())
              for a, b in zip(trainer.cluster.shards, resumed.cluster.shards)]
    problems = []
    for owner, trained, restored in pairs:
        if trained.keys() != restored.keys() or not all(
                np.array_equal(trained[key], restored[key]) for key in trained):
            problems.append(f"resumed weights differ from trained ones on {owner}")
    return problems


def _deterministic(outcomes: List[JobOutcome]) -> List[str]:
    """Same-seed jobs must agree exactly on loss and accuracy."""
    problems = []
    for metric in ("final_train_loss", "final_test_accuracy"):
        values = {repr(outcome.values[metric]) for outcome in outcomes}
        if len(values) > 1:
            problems.append(f"{metric} differs between same-seed jobs: {sorted(values)}")
    return problems


def _median(outcomes: List[JobOutcome], metric: str) -> float:
    return statistics.median(outcome.values[metric] for outcome in outcomes)


def _workdir() -> tempfile.TemporaryDirectory:
    """A fresh directory for one job's files, inside the checkout."""
    os.makedirs(OUT_DIR, exist_ok=True)
    return tempfile.TemporaryDirectory(prefix="job-", dir=OUT_DIR)


def measure_end_to_end(name: str, seed: int, seconds: float,
                       listed: Dict[str, str]) -> Dict[str, Any]:
    with _workdir() as workdir:
        warmup = run_job(name, seed, workdir)[0]
    outcomes: List[JobOutcome] = []
    deadline = time.perf_counter() + seconds
    while len(outcomes) < MIN_JOBS or time.perf_counter() < deadline:
        with _workdir() as workdir:
            outcomes.append(run_job(name, seed, workdir)[0])
    metrics = {metric: _median(outcomes, metric)
               for metric in listed if metric in outcomes[0].values}
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return _result([warmup] + outcomes, outcomes, metrics, listed)


def measure_per_layer(name: str, seed: int, seconds: float,
                      listed: Dict[str, str]) -> Dict[str, Any]:
    import layers
    from repro.utils.perf import counters
    from spans import Tracer

    with _workdir() as workdir:
        warmup = run_job(name, seed, workdir)[0]
    plain: List[JobOutcome] = []
    traced: List[JobOutcome] = []
    rows: List[Dict[str, float]] = []
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_JOBS or time.perf_counter() < deadline:
        with _workdir() as workdir:
            plain.append(run_job(name, seed, workdir)[0])
        tracer = Tracer()
        before = counters.snapshot()
        with _workdir() as workdir, tracer.installed(layers.install):
            outcome, trainer = run_job(name, seed, workdir)
        perf = {key: value - before.get(key, 0)
                for key, value in counters.snapshot().items()}
        rows.append(layers.layer_metrics(tracer, trainer, perf, outcome.values))
        del trainer
        traced.append(outcome)
    metrics = {metric: statistics.median(row[metric] for row in rows)
               for metric in rows[0]}
    metrics["trace.overhead_ratio"] = (
        _median(traced, "job_wall_s") / _median(plain, "job_wall_s") - 1.0)
    trace_path = os.path.join(OUT_DIR, f"{name}-seed{seed}.trace.json")
    tracer.write_chrome_trace(trace_path)
    print(f"chrome trace of the last traced job: {trace_path}")
    return _result([warmup] + plain + traced, traced, metrics, listed)


def _result(checked: List[JobOutcome], timed: List[JobOutcome],
            metrics: Dict[str, float], listed: Dict[str, str]) -> Dict[str, Any]:
    """The result object; exits when the measured metrics are not exactly
    the ``listed`` ones, so a renamed metric never goes missing unseen."""
    if metrics.keys() != listed.keys():
        raise SystemExit(
            "error: measured metrics differ from BENCHMARK.json: missing "
            f"{sorted(listed.keys() - metrics.keys())}, "
            f"unlisted {sorted(metrics.keys() - listed.keys())}")
    problems = [problem for outcome in checked for problem in outcome.problems]
    problems += _deterministic(checked)
    attempted = max(sum(outcome.attempted for outcome in timed), 1)
    failed = sum(outcome.failed for outcome in timed)
    if problems:
        for problem in problems:
            print(f"CHECK FAILED: {problem}", file=sys.stderr)
        failed = attempted
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": listed[metric]}
                    for metric, value in metrics.items()},
    }


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    environment = _pin_blas_threads()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    # BLAS pool start-up stays out of every timed region.
    np.dot(np.ones((64, 64)), np.ones((64, 64)))
    environment.update(numpy=np.__version__, python=platform.python_version(),
                       workload=args.workload, seed=args.seed, trace=args.trace)
    print(json.dumps({"environment": environment}))
    measure = measure_per_layer if args.trace else measure_end_to_end
    result = measure(args.workload, args.seed, args.seconds,
                     listed_metrics(args.trace))
    for metric, entry in result["metrics"].items():
        print(f"{metric:<40} {entry['value']:>14.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
