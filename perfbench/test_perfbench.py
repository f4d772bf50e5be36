"""The benchmark's own tests: a broken run is reported failed, not timed.

Run with ``PYTHONPATH=src python -m pytest perfbench -q`` from the root.
"""

from __future__ import annotations

import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.join(os.path.dirname(HERE), "src")
if SOURCE not in sys.path:
    sys.path.insert(0, SOURCE)

import layers  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402


@pytest.fixture
def trained():
    """A tiny trained job and its history, small enough for a unit test."""
    import repro.api as api
    from repro.api import JobSpec

    spec = JobSpec.fast_debug(seed=3)
    pieces = api.build_workload(spec.workload)
    trainer = api.build_trainer(spec, pieces=pieces)
    history = trainer.train()
    evaluation = trainer.evaluate(pieces.test)
    return trainer, history, evaluation, spec, pieces


def test_sound_job_passes_the_gate(trained):
    trainer, history, evaluation, _, _ = trained
    assert run.check_job(trainer, history, evaluation, None) == []


def test_leaked_pending_batch_fails_the_gate(trained):
    trainer, history, evaluation, _, _ = trained
    trainer.end_systems[0]._pending[10_000] = object()
    problems = run.check_job(trainer, history, evaluation, None)
    assert any("pending" in problem for problem in problems)


def test_non_finite_loss_fails_the_gate(trained):
    trainer, history, evaluation, _, _ = trained
    history.records[-1].train_loss = math.nan
    problems = run.check_job(trainer, history, evaluation, None)
    assert any("non-finite loss" in problem for problem in problems)


def test_resume_that_loses_weights_fails_the_gate(trained):
    import repro.api as api

    trainer, history, evaluation, spec, pieces = trained
    untrained = api.build_trainer(spec, pieces=pieces)
    problems = run.check_job(trainer, history, evaluation, untrained)
    assert any("resumed weights differ" in problem for problem in problems)
    assert run.check_job(trainer, history, evaluation, trainer) == []


def _outcome(loss: float, problems=()) -> run.JobOutcome:
    outcome = run.JobOutcome()
    outcome.values = {"final_train_loss": loss, "final_test_accuracy": 0.5}
    outcome.attempted, outcome.failed = 40, 0
    outcome.problems = list(problems)
    return outcome


def test_broken_run_counts_every_batch_failed():
    outcomes = [_outcome(1.0), _outcome(1.0, ["drop balance: violated"])]
    result = run._result(outcomes, outcomes, {}, {})
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 80


def test_same_seed_jobs_that_disagree_fail_the_run():
    outcomes = [_outcome(1.0), _outcome(1.0 + 1e-12)]
    result = run._result(outcomes, outcomes, {}, {})
    assert result["correct"] is False
    assert run._result(outcomes[:1] * 2, outcomes[:1] * 2, {}, {})["correct"]


def test_self_time_excludes_children_and_nested_calls_count_once():
    tracer = Tracer()
    outer = tracer.begin("a")
    inner = tracer.begin("a")
    child = tracer.begin("b")
    tracer.end(child)
    tracer.end(inner)
    tracer.end(outer)
    total = tracer.spans[-1][4] - tracer.spans[-1][3]
    assert tracer.calls == {"a": 1, "b": 1}
    assert tracer.self_s["a"] + tracer.self_s["b"] == pytest.approx(total)
    assert [span[1] for span in tracer.spans] == [2, 1, 0]


def test_traced_metrics_are_the_listed_ones(trained):
    trainer = trained[0]
    job = {"job_wall_s": 1.0, "final_train_loss": 1.0, "final_test_accuracy": 0.5}
    row = layers.layer_metrics(Tracer(), trainer, {}, job)
    measured = set(row) | {"trace.overhead_ratio"}
    assert measured == set(run.listed_metrics(trace=1))


def test_metrics_that_differ_from_the_listed_ones_fail_the_run():
    outcomes = [_outcome(1.0)]
    listed = run.listed_metrics(trace=0)
    metrics = {metric: 1.0 for metric in listed}
    assert run._result(outcomes, outcomes, metrics, listed)["correct"]
    with pytest.raises(SystemExit, match="missing"):
        run._result(outcomes, outcomes, dict(list(metrics.items())[1:]), listed)
    with pytest.raises(SystemExit, match="unlisted"):
        run._result(outcomes, outcomes, {**metrics, "renamed_s": 1.0}, listed)
