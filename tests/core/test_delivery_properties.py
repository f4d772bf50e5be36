"""Generated-scenario invariants of the delivery path.

Hand-picked configs pin exact trajectories (``test_delivery_golden.py``);
this module draws the configs instead — mode, reliability and
``retry_max``, queue bound and backpressure policy, link loss, chaos
message faults, client link flaps, shard count with an optional mid-run
crash, and an asynchronous time budget — and on every draw asserts the
durable invariants:

* the cross-layer drop balance (:func:`repro.obs.invariants
  .assert_drop_balance`);
* zero pending activations once the run is over;
* same-seed determinism: an identical second run produces identical
  engine stats and traffic ledger.

The draw count is bounded and derandomized so the module stays a few
seconds of tier-1 time and fails the same way on every machine.
"""

import signal

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import TrainingConfig
from repro.core.split import SplitSpec
from repro.core.trainer import SpatioTemporalTrainer
from repro.obs.invariants import assert_drop_balance
from repro.simnet.topology import multi_hub_star_topology, star_topology


@st.composite
def scenarios(draw):
    mode = draw(st.sampled_from(["synchronous", "asynchronous"]))
    overrides = dict(mode=mode, seed=draw(st.integers(0, 3)))
    if draw(st.booleans()):
        overrides.update(reliable_delivery=True,
                         retry_max=draw(st.integers(0, 3)),
                         retry_timeout_s=draw(st.sampled_from([0.003, 0.01])))
    backpressure = draw(st.sampled_from([None, "drop", "block"]))
    if backpressure is not None:
        overrides.update(max_queue_size=draw(st.integers(1, 2)),
                         queue_backpressure=backpressure)
    if draw(st.booleans()):
        overrides.update(chaos_corrupt_probability=0.1,
                         chaos_duplicate_probability=0.2,
                         chaos_reorder_probability=0.2)
    if draw(st.booleans()):
        overrides.update(chaos_flap_mtbf_s=0.03, chaos_flap_mttr_s=0.01)
    num_servers = draw(st.sampled_from([1, 2]))
    if num_servers == 2:
        overrides.update(num_servers=2, server_sync_mode="staleness")
        if draw(st.booleans()):
            overrides.update(failure_schedule=[(0.01, 0, 0.02)])
    budget = None
    if mode == "asynchronous":
        overrides.update(max_in_flight=draw(st.integers(1, 2)),
                         server_step_time_s=0.004, server_batching=False)
        budget = draw(st.sampled_from([None, 0.04]))
    link = dict(latencies_s=[0.002, 0.006], jitter_std_s=0.001,
                drop_probability=draw(st.sampled_from([0.0, 0.2, 0.5])),
                seed=draw(st.integers(0, 1000)))
    return overrides, num_servers, link, budget


def run(architecture, parts, normalize, scenario):
    overrides, num_servers, link, budget = scenario
    if num_servers == 1:
        topology = star_topology(len(parts), **link)
    else:
        topology = multi_hub_star_topology(len(parts), num_servers, **link)
    trainer = SpatioTemporalTrainer(
        SplitSpec(architecture, client_blocks=1), parts,
        TrainingConfig.fast_debug(**overrides), topology=topology,
        train_transform=normalize,
    )
    if budget is None:
        trainer.train()
    else:
        trainer.train_time_budget(budget)
    return trainer


@settings(max_examples=120, deadline=None, derandomize=True)
@given(scenario=scenarios())
def test_generated_delivery_invariants(tiny_architecture, tiny_parts, normalize,
                                       scenario):
    trainer = run(tiny_architecture, tiny_parts, normalize, scenario)
    balance = assert_drop_balance(trainer)
    assert balance.leaked == 0
    assert all(es.pending_batches == 0 for es in trainer.end_systems)
    twin = run(tiny_architecture, tiny_parts, normalize, scenario)
    assert twin.engine.stats.as_dict() == trainer.engine.stats.as_dict()
    assert twin.transport.log.summary() == trainer.transport.log.summary()


def test_budget_stop_cancels_gradients_still_on_the_downlink(
        tiny_architecture, tiny_parts, normalize):
    # Minimized from a generated draw: with two shards, one shard's step
    # hits the time budget while the other shard's gradient is still on
    # the downlink.  That client's pending activation must be cancelled
    # like any other in-flight batch, not leaked.
    scenario = (
        dict(mode="asynchronous", num_servers=2, server_sync_mode="staleness",
             max_in_flight=1, server_step_time_s=0.004, server_batching=False),
        2,
        dict(latencies_s=[0.002, 0.006], jitter_std_s=0.001, seed=0),
        0.04,
    )
    trainer = run(tiny_architecture, tiny_parts, normalize, scenario)
    assert all(es.pending_batches == 0 for es in trainer.end_systems)
    assert trainer.engine.stats.cancelled_at_stop == 2
    assert_drop_balance(trainer)


def test_budget_run_ends_once_its_pipeline_drains(tiny_architecture, tiny_parts,
                                                  normalize):
    # Minimized from a generated draw: both clients' links are down from
    # before the time budget until long after it, so their retry chains
    # give up past the budget and no server step reaches the budget to
    # stop the run.  The periodic checkpoint chain must then die with the
    # drained pipeline instead of keeping the simulation alive forever;
    # the alarm turns such a hang into a failure.
    scenario = (
        dict(mode="asynchronous", reliable_delivery=True, retry_max=0,
             retry_timeout_s=0.01, checkpoint_every_s=0.005,
             chaos_schedule=[("leave", 0.02, 1.0, 0), ("leave", 0.02, 1.0, 1)]),
        1,
        dict(latencies_s=[0.002, 0.006], seed=0),
        0.04,
    )

    def hung(signum, frame):
        raise TimeoutError("the budgeted run did not end")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        trainer = run(tiny_architecture, tiny_parts, normalize, scenario)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert trainer.engine.stats.gave_up > 0
    assert_drop_balance(trainer)
