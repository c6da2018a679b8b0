"""Unit-level tests of the compute-node runtime internals."""

import pytest

from repro.placement.batch import BatchLoadBalancer, SizeProfile
from repro.engine.compute_node import ComputeNodeRuntime
from repro.engine.strategies import Strategy
from repro.sim.cluster import Cluster
from repro.store.datanode import DataNodeServer
from repro.store.kvstore import KVStore
from repro.store.messages import UDF
from repro.store.partitioner import HashPartitioner, RegionMap
from repro.store.table import Row, Table


def build_runtime(strategy, n_keys=40, value_size=1000.0, compute_cost=0.001,
                  batch_size=4, **kwargs):
    cluster = Cluster.homogeneous(2)
    table = Table("t")
    for key in range(n_keys):
        table.put(Row(key=key, value=f"v{key}", size=value_size,
                      compute_cost=compute_cost))
    region_map = RegionMap.round_robin(HashPartitioner(4), [1])
    kvstore = KVStore(table, region_map)
    udf = UDF(result_size=64.0, param_size=64.0, key_size=8.0)
    server = DataNodeServer(
        cluster, 1, kvstore, udf,
        balancer=BatchLoadBalancer(enabled=strategy.load_balancing),
    )
    sizes = SizeProfile(key_size=8.0, param_size=64.0, value_size=value_size,
                        computed_size=64.0)
    completions = []
    runtime = ComputeNodeRuntime(
        cluster=cluster,
        node_id=0,
        kvstore=kvstore,
        servers={1: server},
        udf=udf,
        config=strategy,
        sizes=sizes,
        on_complete=lambda tid, finish: completions.append((tid, finish)),
        memory_cache_bytes=1e6,
        batch_size=batch_size,
        max_wait=0.005,
        **kwargs,
    )
    return cluster, runtime, server, completions


def drain(cluster, runtime, n):
    runtime.finish_input()
    cluster.sim.run()
    assert runtime.completed == n


class TestRoutingDispatch:
    def test_always_data_never_executes_remotely(self):
        cluster, runtime, server, completions = build_runtime(Strategy.fc())
        for i in range(12):
            runtime.submit(i, i % 40)
        drain(cluster, runtime, 12)
        assert server.udfs_executed == 0
        assert len(completions) == 12

    def test_always_compute_executes_remotely(self):
        cluster, runtime, server, completions = build_runtime(Strategy.fd())
        for i in range(12):
            runtime.submit(i, i % 40)
        drain(cluster, runtime, 12)
        assert server.udfs_executed == 12

    def test_random_splits(self):
        cluster, runtime, server, completions = build_runtime(Strategy.fr(), seed=3)
        for i in range(60):
            runtime.submit(i, i % 40)
        drain(cluster, runtime, 60)
        assert 10 < server.udfs_executed < 50

    def test_ski_rental_first_contact_rents(self):
        cluster, runtime, server, completions = build_runtime(Strategy.fo())
        runtime.submit(0, 7)
        drain(cluster, runtime, 1)
        assert runtime.optimizer.stats().first_contact == 1


class TestFetchDeduplication:
    def test_concurrent_fetches_share_one_wire_request(self):
        # Cheap UDF + disk-bound fetches: rent and buy cost about the
        # same, so the ski-rental buys on the second access.
        cluster, runtime, server, completions = build_runtime(
            Strategy.fo(), compute_cost=0.0001
        )
        # Teach the runtime the key's costs first.
        runtime.submit(0, 5)
        runtime.finish_input()
        cluster.sim.run()
        # Now submit several tuples for the same key back-to-back; the
        # optimizer elects to fetch, and duplicates must coalesce.
        served_before = server.items_served
        for i in range(1, 6):
            runtime.submit(i, 5)
        runtime.finish_input()
        cluster.sim.run()
        assert runtime.completed == 6
        # At most two extra served items (the single fetch, possibly
        # plus one straggling rent) — not five.
        assert server.items_served - served_before <= 2


class TestBlockingMode:
    def test_workers_bound_inflight(self):
        cluster, runtime, server, completions = build_runtime(
            Strategy.no(), batch_size=1
        )
        for i in range(50):
            runtime.submit(i, i % 40)
        # Workers = 2 cores x 2; everything beyond sits queued.
        assert runtime._free_workers == 0
        assert len(runtime._input_queue) == 50 - cluster.node(0).spec.cores * 2
        drain(cluster, runtime, 50)
        assert runtime._free_workers == cluster.node(0).spec.cores * 2


class TestFrozenMode:
    def test_frozen_cache_misses_become_compute_requests(self):
        cluster, runtime, server, completions = build_runtime(
            Strategy.fo_non_adaptive(0.2), expected_inputs=50
        )
        for i in range(50):
            runtime.submit(i, i % 40)
        drain(cluster, runtime, 50)
        stats = runtime.optimizer.stats()
        # After the freeze point the optimizer is bypassed, so its
        # routing counters stop well short of 50 decisions.
        assert stats.total <= 12


class TestStatsSnapshot:
    def test_snapshot_counts_are_consistent(self):
        cluster, runtime, server, completions = build_runtime(Strategy.fo())
        for i in range(3):
            runtime.submit(i, i)
        snapshot = runtime._snapshot_stats(dst=1)
        assert snapshot.pending_local_computations >= 0
        assert snapshot.net_bandwidth > 0
        drain(cluster, runtime, 3)
        # All queues drain by the end.
        end = runtime._snapshot_stats(dst=1)
        assert end.pending_data_responses == 0
        assert end.pending_at_other_data_nodes == 0

    def test_snapshot_carries_the_hint_before_any_local_execution(self):
        # FD never executes at the compute node, yet its responses fill
        # the row table the hint averages over.
        cluster, runtime, server, completions = build_runtime(Strategy.fd())
        for i in range(12):
            runtime.submit(i, i % 40)
        drain(cluster, runtime, 12)
        assert not runtime._tcc.initialized
        assert runtime._row_info
        hint = runtime.sizes_compute_hint()
        assert hint > 0.0
        assert runtime._snapshot_stats(dst=1).compute_time == hint

    def test_snapshot_skips_the_hint_after_a_local_execution(self, monkeypatch):
        cluster, runtime, server, completions = build_runtime(Strategy.fo())
        for i in range(12):
            runtime.submit(i, i % 40)
        drain(cluster, runtime, 12)
        assert runtime._tcc.initialized

        def no_hint():
            raise AssertionError("hint built after a local execution")

        monkeypatch.setattr(runtime, "sizes_compute_hint", no_hint)
        snapshot = runtime._snapshot_stats(dst=1)
        assert snapshot.compute_time == runtime._tcc.value
