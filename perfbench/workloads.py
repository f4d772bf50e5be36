"""The benchmark's workloads, built from the program's public API.

Each workload function turns a seed into a ready-to-train :class:`Job`.
The seed is the only input that varies: it draws the synthetic dataset,
its train/test split and its partition, so the same seed always yields
the same job.  Why each workload exists, and which layers it exercises
and bypasses, is recorded in ``README.md`` next to this file and in
``BENCHMARK.json``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

import repro.api as api
from repro.api import JobSpec, JobWorkload
from repro.core import SpatioTemporalTrainer, TrainingConfig


#: Seed of every ``TrainingConfig``: weight initialisation, shuffling and
#: the fault and chaos streams.  It is part of the workload, not drawn
#: from ``--seed``, so that every seed runs the same schedule of work
#: (the same events, retries and give-ups) and only the data differs.
CONFIG_SEED = 0


@dataclass
class Job:
    """A trainer ready to train, plus what the benchmark needs around it."""

    trainer: SpatioTemporalTrainer
    #: Held-out split every end-system evaluates.
    test: Any
    #: ``True`` when ``train()`` evaluates itself (the ``run_job`` shape);
    #: otherwise the benchmark evaluates once after training.
    evaluate_in_train: bool
    #: Set on the durable workload: the spec and materialized pieces that
    #: ``repro.api.resume_trainer`` rebuilds the trainer from.
    spec: Optional[JobSpec] = None
    pieces: Optional[api.MaterializedWorkload] = None


def sync_cnn(seed: int, workdir: str) -> Job:
    """Paper-scale CNN, 8 end-systems, synchronous rounds (Table-I shape)."""
    spec = JobSpec(
        name="sync-cnn",
        workload=JobWorkload(scale="paper", num_samples=1600, num_end_systems=8,
                             partition="iid", seed=seed),
        config=TrainingConfig(mode="synchronous", batch_size=32, epochs=1,
                              seed=CONFIG_SEED),
        evaluate=True,
    )
    pieces = api.build_workload(spec.workload)
    trainer = api.build_trainer(spec, pieces=pieces)
    return Job(trainer=trainer, test=pieces.test, evaluate_in_train=True)


def cluster_durable(seed: int, workdir: str) -> Job:
    """Four ``"average"``-synced shards under message chaos and link flaps,
    with reliable delivery, file checkpoints and the obs export on."""
    spec = JobSpec(
        name="cluster-durable",
        workload=JobWorkload(scale="laptop", num_samples=2560,
                             num_end_systems=32, partition="iid",
                             test_fraction=0.1, seed=seed),
        config=TrainingConfig(
            mode="synchronous", batch_size=16, epochs=2, seed=CONFIG_SEED,
            num_servers=4, server_sync_mode="average",
            sync_quorum=0.75, sync_timeout_s=0.02,
            reliable_delivery=True,
            chaos_corrupt_probability=0.03,
            chaos_duplicate_probability=0.03,
            chaos_reorder_probability=0.03,
            chaos_flap_mtbf_s=2.0, chaos_flap_mttr_s=0.02,
            checkpoint_every_s=0.01, checkpoint_mode="round",
            checkpoint_dir=os.path.join(workdir, "checkpoints"),
            obs_enabled=True, obs_flush_every_s=0.01,
            obs_dir=os.path.join(workdir, "obs"),
        ),
        evaluate=False,
    )
    pieces = api.build_workload(spec.workload)
    trainer = api.build_trainer(spec, pieces=pieces)
    return Job(trainer=trainer, test=pieces.test, evaluate_in_train=False,
               spec=spec, pieces=pieces)


WORKLOADS: Dict[str, Callable[[int, str], Job]] = {
    "sync-cnn": sync_cnn,
    "cluster-durable": cluster_durable,
}
