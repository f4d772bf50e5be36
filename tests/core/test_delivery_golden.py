"""Golden fingerprint of the engine's delivery path under faults.

Every activation and gradient transfer goes through one delivery path
(:meth:`repro.core.engine.TrainingEngine._deliver`): with reliability
off a transfer is a single attempt, with ``reliable_delivery`` it is an
ack/timeout retry chain.  ``tests/core/test_engine_equivalence.py`` pins
lossless runs only; this module pins the *lossy* ones exactly, so a
refactor of the delivery path cannot move physics unnoticed:

* ``EngineStats.as_dict()`` and ``TrafficLog.summary()``, exact;
* per-epoch train loss/accuracy, the simulated clock and a per-tensor
  fingerprint of the final weights, to 1e-9.

The matrix covers {synchronous, asynchronous} x reliability {off, on} x
{lossy up/downlinks, chaos corrupt/duplicate/reorder}, plus queue-drop
NACKs, a shard crash while retry chains are in flight, and an
asynchronous time-budget stop that cancels pending give-ups.  The
fixture ``golden_delivery_fingerprint.json`` was generated by the
engine from before its reliable and single-attempt transfers shared one
code path; regenerate it only for an intended physics change::

    PYTHONPATH=src python tests/core/test_delivery_golden.py --write

The module also holds the regression test for an asynchronous client
whose access link goes down: it must wait the outage out, not spin
through its data (recursing once per lost batch) at one instant.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, Tuple

import numpy as np
import pytest

from repro.core.config import TrainingConfig
from repro.core.history import TrainingHistory
from repro.core.models import tiny_cnn_architecture
from repro.core.split import SplitSpec
from repro.core.trainer import SpatioTemporalTrainer
from repro.data.datasets import SyntheticCIFAR10, train_test_split
from repro.data.partition import IIDPartitioner
from repro.data.transforms import Normalize
from repro.nn.dtype import default_dtype
from repro.obs.invariants import assert_drop_balance
from repro.simnet.topology import multi_hub_star_topology, star_topology

GOLDEN_PATH = Path(__file__).with_name("golden_delivery_fingerprint.json")

ASYNC = dict(mode="asynchronous", max_in_flight=2, server_step_time_s=0.004,
             server_batching=False)
# A timeout shorter than the far client's latency: first attempts time
# out spuriously, so late copies and receiver-side dedup are exercised.
RELIABLE = dict(reliable_delivery=True, retry_max=1, retry_timeout_s=0.005)
CHAOS = dict(chaos_corrupt_probability=0.15, chaos_duplicate_probability=0.3,
             chaos_reorder_probability=0.3)


def _lossy_star():
    return star_topology(2, latencies_s=[0.002, 0.006], jitter_std_s=0.001,
                         drop_probability=0.3, seed=11)


def _clean_star():
    return star_topology(2, latencies_s=[0.002, 0.006], jitter_std_s=0.001,
                         seed=11)


def _crash_topology():
    return multi_hub_star_topology(4, 2, latencies_s=[0.002, 0.004, 0.006, 0.008],
                                   drop_probability=0.25, seed=13)


def _scenarios() -> Dict[str, Tuple]:
    """name -> (topology factory, client count, config overrides, budget)."""
    scenarios: Dict[str, Tuple] = {}
    for mode_name, mode in (("sync", {}), ("async", ASYNC)):
        for rel_name, reliability in (("off", {}), ("on", RELIABLE)):
            scenarios[f"{mode_name}-rel_{rel_name}-lossy"] = (
                _lossy_star, 2, dict(mode, **reliability), None)
            scenarios[f"{mode_name}-rel_{rel_name}-chaos"] = (
                _clean_star, 2, dict(mode, **reliability, **CHAOS), None)
    for rel_name, reliability in (("off", {}), ("on", RELIABLE)):
        scenarios[f"async-rel_{rel_name}-queue_nack"] = (
            _lossy_star, 2,
            dict(ASYNC, **reliability, max_queue_size=1, queue_backpressure="drop"),
            None)
        scenarios[f"async-rel_{rel_name}-budget_stop"] = (
            _lossy_star, 2, dict(ASYNC, **reliability, max_queue_size=2), 0.06)
    crash = dict(num_servers=2, server_sync_every=1, server_sync_mode="staleness",
                 reliable_delivery=True, retry_max=2, retry_timeout_s=0.01,
                 max_queue_size=2, queue_backpressure="drop",
                 failure_schedule=[(0.015, 0, 0.04)], failover_policy="rebalance")
    scenarios["sync-rel_on-crash_mid_retry"] = (_crash_topology, 4, crash, None)
    scenarios["async-rel_on-crash_mid_retry"] = (
        _crash_topology, 4, dict(crash, **ASYNC), None)
    return scenarios


SCENARIOS = _scenarios()


def _inputs(num_clients: int):
    architecture = tiny_cnn_architecture(image_size=8, num_blocks=2, base_filters=4,
                                         dense_units=16)
    train, _ = train_test_split(SyntheticCIFAR10(num_samples=160, image_size=8, seed=7),
                                test_fraction=0.25, seed=3)
    parts = IIDPartitioner(num_clients, seed=5).partition(train)
    normalize = Normalize(mean=[0.5, 0.5, 0.5], std=[0.5, 0.5, 0.5])
    return architecture, parts, normalize


def run_scenario(name: str) -> Tuple[SpatioTemporalTrainer, TrainingHistory]:
    topology, num_clients, overrides, budget = SCENARIOS[name]
    architecture, parts, normalize = _inputs(num_clients)
    config = TrainingConfig.fast_debug(epochs=2, **overrides)
    trainer = SpatioTemporalTrainer(SplitSpec(architecture, client_blocks=1), parts,
                                    config, topology=topology(),
                                    train_transform=normalize)
    if budget is None:
        return trainer, trainer.train()
    return trainer, trainer.train_time_budget(budget)


def fingerprint(trainer: SpatioTemporalTrainer,
                history: TrainingHistory) -> Dict[str, object]:
    """What the golden file pins for one run (JSON-serialisable)."""
    weights = {}
    for key, tensors in sorted(trainer.state_dict().items()):
        for name, array in sorted(tensors.items()):
            flat = np.asarray(array, dtype=np.float64).ravel()
            ramp = np.linspace(-1.0, 1.0, flat.size)
            weights[f"{key}/{name}"] = [float(flat.sum()), float(flat @ ramp),
                                        float(np.abs(flat).sum())]
    return {
        "stats": trainer.engine.stats.as_dict(),
        "traffic": trainer.transport.log.summary(),
        "epochs": [[record.train_loss, record.train_accuracy]
                   for record in history.records],
        "clock": trainer.engine.clock,
        "weights": weights,
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_scenario(golden):
    assert sorted(golden) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_delivery_fingerprint_matches_golden(golden, name):
    trainer, history = run_scenario(name)
    assert_drop_balance(trainer)
    actual = fingerprint(trainer, history)
    expected = golden[name]
    assert actual["stats"] == expected["stats"]
    assert actual["traffic"] == expected["traffic"]
    np.testing.assert_allclose(actual["epochs"], expected["epochs"], rtol=0, atol=1e-9)
    np.testing.assert_allclose(actual["clock"], expected["clock"], rtol=0, atol=1e-9)
    assert sorted(actual["weights"]) == sorted(expected["weights"])
    for key, values in expected["weights"].items():
        np.testing.assert_allclose(actual["weights"][key], values, rtol=0, atol=1e-9,
                                   err_msg=key)


def test_golden_scenarios_exercise_the_fault_paths(golden):
    # The fixture is only a pin if the runs it records actually lose,
    # retry, deduplicate, NACK and give up.
    def total(counter, names):
        return sum(golden[name][counter[0]][counter[1]] for name in names)

    lossy_off = [n for n in golden if "rel_off" in n and "chaos" not in n]
    reliable = [n for n in golden if "rel_on" in n]
    assert total(("traffic", "uplink_dropped"), lossy_off) > 0
    assert total(("traffic", "downlink_dropped"), lossy_off) > 0
    assert total(("stats", "retries"), reliable) > 0
    assert total(("stats", "gave_up"), reliable) > 0
    assert total(("stats", "deduped"), reliable) > 0
    assert total(("stats", "nacks_sent"), [n for n in golden if "queue_nack" in n]) > 0
    assert total(("stats", "shard_crashes"), [n for n in golden if "crash" in n]) > 0
    assert total(("stats", "cancelled_at_stop"),
                 [n for n in golden if "budget_stop" in n]) > 0
    assert total(("traffic", "duplicated_messages"), [n for n in golden if "chaos" in n]) > 0


@pytest.mark.parametrize("budget", [None, 0.08])
def test_client_waits_out_a_link_outage(budget):
    # One asynchronous client, one sample per batch, reliability off,
    # and a client link outage.  A lost single attempt used to move the
    # client straight on to its next batch over the still-down link, so
    # it spun through its data at one simulated instant: one stack frame
    # per lost batch (a RecursionError here) and, under a time budget
    # whose batches cycle forever, no end at all.  The client must lose
    # one batch, hold the next until the link is back, then carry on.
    architecture = tiny_cnn_architecture(image_size=8, num_blocks=2, base_filters=4,
                                         dense_units=16)
    dataset = SyntheticCIFAR10(num_samples=1500, image_size=8, seed=7)
    parts = IIDPartitioner(1, seed=5).partition(dataset)
    config = TrainingConfig.fast_debug(mode="asynchronous", batch_size=1,
                                       chaos_schedule=[("leave", 0.01, 0.05, 0)])
    trainer = SpatioTemporalTrainer(SplitSpec(architecture, client_blocks=1), parts,
                                    config)
    if budget is None:
        trainer.train()
    else:
        trainer.train_time_budget(budget)
    log = trainer.transport.log
    assert log.uplink_dropped == 1
    if budget is None:
        assert log.uplink_messages + log.uplink_dropped == len(dataset)
    # Training resumed once the link came back at t = 0.06 s.
    assert trainer.engine.clock > 0.06
    assert trainer.cluster.batches_processed > 0
    assert_drop_balance(trainer)


def _write_golden() -> None:
    with default_dtype(np.float64):
        golden = {name: fingerprint(*run_scenario(name)) for name in sorted(SCENARIOS)}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_delivery_golden.py --write")
    _write_golden()
