"""Which public entry points the traced run wraps, and the per-layer metrics.

Layers are the program's modules.  :func:`install` puts a span around
each layer's public entry points; :func:`layer_metrics` turns one traced
job's spans, plus the counters the program already keeps, into the
``per_layer`` metrics named in ``BENCHMARK.json``.  Every ``*_s`` metric
is self seconds, every ``*.calls`` metric an outermost-call count.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

import repro.api as api
from repro.backend import BlockedBackend, NumpyBackend
from repro.chaos import MessageChaos
from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.shard import ServerShard
from repro.core import scheduling
from repro.core.end_system import EndSystem
from repro.core.server import CentralServer
from repro.core.trainer import SpatioTemporalTrainer
from repro.data.datasets import SyntheticImageDataset
from repro.data.loader import DataLoader
from repro.nn.layers.conv import Conv2D
from repro.nn.layers.dense import Dense
from repro.nn.layers.pooling import MaxPool2D
from repro.nn.optim import Optimizer
from repro.nn.tensor import Tensor
from repro.obs.plane import Observability
from repro.simnet.events import Simulator
from repro.simnet.transport import Transport
from repro.state.checkpoint import ClientCheckpoint, ShardCheckpoint
from repro.state.store import CheckpointStore
from repro.utils.arena import ActivationArena

from spans import Tracer

#: (owner, attribute, span name, keyed) for every plain wrapped entry point.
ENTRY_POINTS = [
    (api, "build_workload", "api.build_workload", False),
    (api, "resume_trainer", "api.resume_trainer", False),
    (SpatioTemporalTrainer, "__init__", "core.trainer.init", False),
    (SpatioTemporalTrainer, "train", "core.trainer.train", False),
    (SpatioTemporalTrainer, "evaluate", "core.trainer.evaluate", False),
    (SyntheticImageDataset, "__init__", "data.synthesize", False),
    (Conv2D, "forward", "nn.conv2d.fwd", False),
    (MaxPool2D, "forward", "nn.maxpool.fwd", False),
    (Dense, "forward", "nn.dense.fwd", False),
    (Tensor, "backward", "nn.backward", False),
    (Optimizer, "step", "nn.optim.step", False),
    (EndSystem, "forward_batch", "core.end_system.forward_batch", True),
    (EndSystem, "apply_gradient", "core.end_system.apply_gradient", True),
    (EndSystem, "forward_inference", "core.end_system.forward_inference", False),
    (CentralServer, "receive", "core.server.admit", True),
    (CentralServer, "admit", "core.server.admit", True),
    (CentralServer, "process_batch", "core.server.process_batch", False),
    (CentralServer, "evaluate", "core.server.evaluate", False),
    (Transport, "send_to_server", "simnet.uplink", True),
    (Transport, "send_to_end_system", "simnet.downlink", True),
    (Transport, "send_between_servers", "simnet.sync", False),
    (Simulator, "run", "core.engine.run", False),
    (ClusterCoordinator, "sync_average", "cluster.sync_average", False),
    (ClusterCoordinator, "merge_staleness", "cluster.merge_staleness", False),
    (MessageChaos, "apply", "chaos.apply", True),
    (CheckpointStore, "save", "state.save", False),
    (CheckpointStore, "save_run", "state.save", False),
    (CheckpointStore, "save_shard", "state.save", False),
    (CheckpointStore, "latest_run", "state.latest_run", False),
    (ShardCheckpoint, "capture", "state.capture", False),
    (ClientCheckpoint, "capture", "state.capture", False),
    (Observability, "flush", "obs.flush", False),
    (Observability, "write", "obs.write", False),
]


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point; ``tracer.unpatch()`` undoes it."""
    for owner, attribute, name, keyed in ENTRY_POINTS:
        tracer.patch(owner, attribute, name, keyed=keyed)
    tracer.patch(DataLoader, "__iter__", "data.batches", iterator=True)

    def count_gemm(args: Tuple[Any, ...], result: Any) -> None:
        a, b = args[1], args[2]
        m, k = a.shape[-2], a.shape[-1]
        n = b.shape[-1]
        batch = result.size // max(m * n, 1)
        tracer.amounts["backend.gemm.flop"] += 2.0 * batch * m * n * k
        tracer.amounts["backend.gemm.bytes"] += a.nbytes + b.nbytes + result.nbytes

    for backend in (NumpyBackend, BlockedBackend):
        tracer.patch(backend, "gemm", "backend.gemm", observe=count_gemm)

    def count_drained(args: Tuple[Any, ...], result: Any) -> None:
        tracer.amounts["core.server.drain.messages"] += len(result)

    tracer.patch(ServerShard, "process_pending_batch", "core.server.drain",
                 observe=count_drained)
    for policy in vars(scheduling).values():
        if isinstance(policy, type) and "drain_order" in vars(policy):
            tracer.patch(policy, "drain_order", "core.scheduling.drain_order")
    tracer.patch(ActivationArena, "stage", "utils.arena.stage", keyed=True)
    tracer.patch(ActivationArena, "gather", "utils.arena.gather")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, trainer: SpatioTemporalTrainer,
                  perf: Dict[str, int], job: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics of one traced job.

    ``perf`` holds the job's deltas of ``repro.utils.perf.counters`` and
    ``job`` its measured values (wall time, final loss and accuracy).
    """
    s, calls, amounts = tracer.self_s, tracer.calls, tracer.amounts
    stats = trainer.engine.stats
    traffic = trainer.transport.log.summary()
    log = trainer.transport.log
    store = trainer.checkpoint_store
    sends = calls["simnet.uplink"] + calls["simnet.downlink"]
    return {
        "api.build_workload_s": s["api.build_workload"],
        "api.resume_trainer_s": s["api.resume_trainer"],
        "core.trainer.init_s": s["core.trainer.init"],
        "core.trainer.evaluate_s": s["core.trainer.evaluate"],
        "core.trainer.evaluate.calls": calls["core.trainer.evaluate"],
        "data.synthesize_s": s["data.synthesize"],
        "data.batches_s": s["data.batches"],
        "data.batches.calls": calls["data.batches"],
        "nn.conv2d.fwd_s": s["nn.conv2d.fwd"],
        "nn.conv2d.fwd.calls": calls["nn.conv2d.fwd"],
        "nn.maxpool.fwd_s": s["nn.maxpool.fwd"],
        "nn.maxpool.fwd.calls": calls["nn.maxpool.fwd"],
        "nn.dense.fwd_s": s["nn.dense.fwd"],
        "nn.dense.fwd.calls": calls["nn.dense.fwd"],
        "nn.backward_s": s["nn.backward"],
        "nn.backward.calls": calls["nn.backward"],
        "nn.optim.step_s": s["nn.optim.step"],
        "nn.optim.step.calls": calls["nn.optim.step"],
        "nn.workspace.hit_ratio": _ratio(
            perf.get("workspace_hits", 0),
            perf.get("workspace_hits", 0) + perf.get("workspace_misses", 0)),
        "backend.gemm_s": s["backend.gemm"],
        "backend.gemm.calls": calls["backend.gemm"],
        "backend.gemm.gflop": amounts["backend.gemm.flop"] / 1e9,
        "backend.gemm.mb_moved": amounts["backend.gemm.bytes"] / 1e6,
        "core.end_system.forward_batch_s": s["core.end_system.forward_batch"],
        "core.end_system.forward_batch.calls": calls["core.end_system.forward_batch"],
        "core.end_system.apply_gradient_s": s["core.end_system.apply_gradient"],
        "core.end_system.apply_gradient.calls": calls["core.end_system.apply_gradient"],
        "core.end_system.forward_inference_s": s["core.end_system.forward_inference"],
        "core.end_system.useful_ratio": _ratio(
            calls["core.end_system.apply_gradient"],
            calls["core.end_system.forward_batch"]),
        "core.server.admit_s": s["core.server.admit"],
        "core.server.admit.calls": calls["core.server.admit"],
        "core.server.drain_s": s["core.server.drain"],
        "core.server.drain.calls": calls["core.server.drain"],
        "core.server.process_batch_s": s["core.server.process_batch"],
        "core.server.messages_per_drain": _ratio(
            amounts["core.server.drain.messages"], calls["core.server.drain"]),
        "core.server.evaluate_s": s["core.server.evaluate"],
        "core.scheduling.drain_order_s": s["core.scheduling.drain_order"],
        "core.scheduling.drain_order.calls": calls["core.scheduling.drain_order"],
        "utils.arena.stage_s": s["utils.arena.stage"],
        "utils.arena.gather_s": s["utils.arena.gather"],
        "utils.arena.zero_copy_ratio": _ratio(
            perf.get("arena_gather_zero_copy", 0),
            perf.get("arena_gather_zero_copy", 0)
            + perf.get("arena_gather_fallback", 0)),
        "simnet.uplink_s": s["simnet.uplink"],
        "simnet.uplink.calls": calls["simnet.uplink"],
        "simnet.downlink_s": s["simnet.downlink"],
        "simnet.downlink.calls": calls["simnet.downlink"],
        "simnet.sync_s": s["simnet.sync"],
        "simnet.sync.calls": calls["simnet.sync"],
        "simnet.uplink_mb": traffic["uplink_megabytes"],
        "simnet.downlink_mb": traffic["downlink_megabytes"],
        "simnet.sync_mb": traffic["sync_megabytes"],
        "core.engine.self_s": s["core.engine.run"],
        "core.engine.events": stats.events_processed,
        "core.engine.server_steps": stats.server_steps,
        "core.engine.queue_drops": stats.queue_drops,
        "core.engine.gave_up": stats.gave_up,
        "core.engine.retry_ratio": _ratio(stats.retries, sends - stats.retries),
        "core.engine.dedup_ratio": _ratio(
            stats.deduped, log.uplink_messages + log.downlink_messages),
        "cluster.sync_average_s": s["cluster.sync_average"],
        "cluster.sync_average.calls": calls["cluster.sync_average"],
        "cluster.merge_staleness_s": s["cluster.merge_staleness"],
        "chaos.apply_s": s["chaos.apply"],
        "chaos.apply.calls": calls["chaos.apply"],
        "chaos.events": stats.chaos_events + log.corrupted_messages
        + log.duplicated_messages + log.reordered_messages,
        "state.save_s": s["state.save"],
        "state.save.calls": calls["state.save"],
        "state.capture_s": s["state.capture"],
        "state.written_mb": store.bytes_written / 1e6 if store is not None else 0.0,
        "state.latest_run_s": s["state.latest_run"],
        "obs.flush_s": s["obs.flush"],
        "obs.flush.calls": calls["obs.flush"],
        "obs.write_s": s["obs.write"],
        # The train() span's own time is what no layer span covers.
        "trace.unattributed_s": s["core.trainer.train"],
        "trace.job_wall_s": job["job_wall_s"],
        "final_train_loss": job["final_train_loss"],
        "final_test_accuracy": job["final_test_accuracy"],
    }
