"""IPC-layer tests for ``repro.cluster``: codec, RPC, lifecycle.

Bottom-up over the transport stack, no engine anywhere:

* framing — roundtrips, adversarial chunkings (byte-at-a-time, splits
  inside the header), large payloads, corrupt/oversized frames;
* message streams over real sockets — EOF, timeouts, queued frames;
* the RPC contract — request/response, error shipping, and the replay
  cache that makes re-sent request ids idempotent;
* seeded wire faults — deterministic per-``(seed, node)`` streams;
* process lifecycle — handshake, graceful shutdown, SIGKILL detection,
  orphan reaping;
* driver dispatch — one lane per compute worker, streaming waves.

Every test in this module runs under the ``cluster`` marker's hard
SIGALRM timeout and the child-process/fd leak check (see
``tests/conftest.py``).
"""

import signal
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.cluster.codec import (
    CodecError,
    ConnectionClosed,
    Framer,
    MessageStream,
    encode_frame,
    listener,
    roundtrip,
)
from repro.cluster.driver import ClusterDriver
from repro.cluster.rpc import RpcClient, RpcError, serve_connection
from repro.faults.policy import FaultTolerance
from repro.faults.schedule import CrashFault, FaultSchedule, MessageChaos
from repro.faults.wire import MESSAGES_PER_SECOND, WireFaults
from repro.runtime.backend import JoinWorkload
from repro.workloads.synthetic import SyntheticWorkload

pytestmark = pytest.mark.cluster


@pytest.fixture(scope="module")
def workload():
    return JoinWorkload.from_synthetic(
        SyntheticWorkload.data_heavy(n_keys=12, n_tuples=40, skew=0.5, seed=9)
    )


def stream_pair():
    """Two connected MessageStreams over a real socketpair."""
    a, b = socket.socketpair()
    return MessageStream(a), MessageStream(b)


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
class TestCodec:
    @pytest.mark.parametrize("value", [
        None,
        0,
        "hello",
        {"rid": "x:1", "op": "ping", "keys": [1, 2, 3]},
        {"nested": {"tuple": (1, "two", 3.0)}, "bytes": b"\x00\xff" * 17},
        list(range(1000)),
    ])
    def test_roundtrip(self, value):
        assert roundtrip(value) == value

    def test_byte_at_a_time(self):
        message = {"op": "run_batch", "tids": list(range(64))}
        wire = encode_frame(message)
        framer = Framer()
        seen = []
        for i in range(len(wire)):
            framer.feed(wire[i:i + 1])
            seen.extend(framer.frames())
            # No frame may surface before its final byte arrived.
            assert bool(seen) == (i == len(wire) - 1)
        assert seen == [message]
        assert framer.pending_bytes == 0

    def test_many_frames_in_one_feed(self):
        messages = [{"seq": i} for i in range(25)]
        framer = Framer()
        framer.feed(b"".join(encode_frame(m) for m in messages))
        assert list(framer.frames()) == messages

    def test_split_inside_header(self):
        wire = encode_frame("payload")
        framer = Framer()
        framer.feed(wire[:3])  # magic + one header byte, no length yet
        assert list(framer.frames()) == []
        framer.feed(wire[3:])
        assert list(framer.frames()) == ["payload"]

    def test_large_payload(self):
        blob = b"x" * (2 * 1024 * 1024)
        assert roundtrip(blob) == blob

    def test_corrupt_magic_raises(self):
        framer = Framer()
        framer.feed(b"XX" + encode_frame("x")[2:])
        with pytest.raises(CodecError, match="magic"):
            list(framer.frames())

    def test_wrong_version_raises(self):
        wire = bytearray(encode_frame("x"))
        wire[2] = 99
        framer = Framer()
        framer.feed(bytes(wire))
        with pytest.raises(CodecError, match="version"):
            list(framer.frames())

    def test_oversized_length_prefix_raises(self):
        framer = Framer(max_frame_bytes=1024)
        wire = bytearray(encode_frame("x"))
        wire[4:8] = (2 ** 31).to_bytes(4, "big")
        framer.feed(bytes(wire))
        with pytest.raises(CodecError, match="ceiling"):
            list(framer.frames())

    def test_encode_rejects_oversized_payload(self):
        with pytest.raises(CodecError, match="ceiling"):
            encode_frame(b"y" * 2048, max_frame_bytes=1024)


class TestMessageStream:
    def test_send_recv(self):
        left, right = stream_pair()
        with left, right:
            left.send({"n": 1})
            assert right.recv(timeout=5.0) == {"n": 1}
            right.send([1, 2, 3])
            assert left.recv(timeout=5.0) == [1, 2, 3]

    def test_multiple_frames_queue(self):
        left, right = stream_pair()
        with left, right:
            for i in range(5):
                left.send(i)
            got = [right.recv(timeout=5.0) for _ in range(5)]
            assert got == [0, 1, 2, 3, 4]

    def test_eof_raises_connection_closed(self):
        left, right = stream_pair()
        with right:
            left.close()
            with pytest.raises(ConnectionClosed):
                right.recv(timeout=5.0)

    def test_timeout_raises(self):
        left, right = stream_pair()
        with left, right:
            with pytest.raises(TimeoutError):
                right.recv(timeout=0.05)


# ----------------------------------------------------------------------
# RPC
# ----------------------------------------------------------------------
def serve_in_thread(handler, wire_filter=None):
    """A serve_connection loop on one end of a socketpair."""
    client_side, server_side = stream_pair()
    cache: dict = {}
    thread = threading.Thread(
        target=serve_connection,
        args=(server_side, handler),
        kwargs={
            "replay_cache": cache,
            "cache_lock": threading.Lock(),
            "wire_filter": wire_filter,
        },
        daemon=True,
    )
    thread.start()
    return client_side, cache, thread


class TestServeConnection:
    def test_request_response(self):
        client, _cache, thread = serve_in_thread(
            lambda op, req: {"echo": req["x"]}
        )
        with client:
            client.send({"rid": "r1", "op": "work", "x": 41})
            response = client.recv(timeout=5.0)
            assert response == {"rid": "r1", "ok": True, "value": {"echo": 41}}
            client.send({"rid": "r2", "op": "shutdown"})
            client.recv(timeout=5.0)
        thread.join(timeout=5.0)
        assert not thread.is_alive()

    def test_replayed_rid_is_idempotent(self):
        calls = []

        def handler(op, request):
            calls.append(request["rid"])
            return len(calls)

        client, cache, _thread = serve_in_thread(handler)
        with client:
            for _ in range(3):  # same rid re-sent, e.g. after a timeout
                client.send({"rid": "dup", "op": "bump"})
            first, second, third = (client.recv(timeout=5.0) for _ in range(3))
        # The handler ran once; the cache replayed the same response.
        assert calls == ["dup"]
        assert first == second == third
        assert first["value"] == 1
        assert "dup" in cache

    def test_handler_exception_ships_as_error(self):
        def handler(op, request):
            raise KeyError("missing-partition")

        client, _cache, _thread = serve_in_thread(handler)
        with client:
            client.send({"rid": "r1", "op": "boom"})
            response = client.recv(timeout=5.0)
        assert response["ok"] is False
        assert response["error"]["kind"] == "KeyError"
        assert "missing-partition" in response["error"]["detail"]

    def test_dropped_response_answered_on_retry(self):
        """First response dropped by the wire filter -> the same-rid
        retry is served from the replay cache (handler ran once)."""
        calls = []
        fate = iter([("drop", 0.0)])

        def wire_filter(op):
            return next(fate, ("ok", 0.0))

        def handler(op, request):
            calls.append(op)
            return "done"

        client, _cache, _thread = serve_in_thread(handler, wire_filter)
        with client:
            client.send({"rid": "r1", "op": "work"})
            with pytest.raises(TimeoutError):
                client.recv(timeout=0.2)  # the drop
            client.send({"rid": "r1", "op": "work"})  # the retry
            response = client.recv(timeout=5.0)
        assert response["ok"] is True and response["value"] == "done"
        assert calls == ["work"]


class TestRpcClient:
    def test_call_over_real_socket(self):
        server = listener()
        address = server.getsockname()
        cache: dict = {}

        def accept_once():
            conn, _ = server.accept()
            serve_connection(
                MessageStream(conn),
                lambda op, req: req.get("x", 0) * 2,
                replay_cache=cache,
                cache_lock=threading.Lock(),
            )

        thread = threading.Thread(target=accept_once, daemon=True)
        thread.start()
        client = RpcClient("peer", address)
        try:
            assert client.call("double", x=21) == 42
            assert client.stats()["requests_sent"] == 1
        finally:
            client.close()
            server.close()

    def test_application_error_raises_rpc_error(self):
        server = listener()
        address = server.getsockname()

        def accept_once():
            conn, _ = server.accept()

            def handler(op, req):
                raise ValueError("nope")

            serve_connection(
                MessageStream(conn), handler,
                replay_cache={}, cache_lock=threading.Lock(),
            )

        threading.Thread(target=accept_once, daemon=True).start()
        client = RpcClient("peer", address)
        try:
            with pytest.raises(RpcError) as err:
                client.call("work")
            assert err.value.kind == "ValueError"
        finally:
            client.close()
            server.close()

    def test_rejects_disabled_tolerance(self):
        with pytest.raises(ValueError, match="enabled"):
            RpcClient("p", ("127.0.0.1", 1), tolerance=FaultTolerance())


# ----------------------------------------------------------------------
# Wire faults
# ----------------------------------------------------------------------
class TestWireFaults:
    SCHEDULE = FaultSchedule(
        seed=11,
        chaos=(MessageChaos(at=0.0, duration=5.0, drop=0.2, duplicate=0.1,
                            delay=0.1),),
    )

    def test_healthy_schedule_maps_to_none(self):
        assert WireFaults.from_schedule(None, 0) is None
        assert WireFaults.from_schedule(FaultSchedule(seed=1), 0) is None

    def test_decision_stream_is_deterministic(self):
        a = WireFaults.from_schedule(self.SCHEDULE, node_id=2)
        b = WireFaults.from_schedule(self.SCHEDULE, node_id=2)
        assert [a.decide() for _ in range(300)] == [
            b.decide() for _ in range(300)
        ]
        assert a.counters() == b.counters()
        assert a.counters()["dropped"] > 0
        assert a.counters()["duplicated"] > 0

    def test_nodes_draw_distinct_streams(self):
        a = WireFaults.from_schedule(self.SCHEDULE, node_id=0)
        b = WireFaults.from_schedule(self.SCHEDULE, node_id=1)
        assert [a.decide() for _ in range(200)] != [
            b.decide() for _ in range(200)
        ]

    def test_crash_maps_to_message_index(self):
        schedule = FaultSchedule(
            seed=5, crashes=(CrashFault(node_id=3, at=0.05, duration=1.0),)
        )
        wire = WireFaults.from_schedule(schedule, node_id=3)
        assert wire.crash_seq == int(0.05 * MESSAGES_PER_SECOND)
        assert not wire.crash_pending()
        for _ in range(wire.crash_seq):
            wire.decide()
        assert wire.crash_pending()
        # Another node never inherits the crash.
        assert WireFaults.from_schedule(schedule, node_id=1) is None


# ----------------------------------------------------------------------
# Process lifecycle
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_handshake_brings_up_distinct_processes(self, workload):
        with ClusterDriver(workload, n_compute=2, n_data=2) as driver:
            pids = set()
            for worker_id in ("c0", "c1", "d0", "d1"):
                pong = driver._client(worker_id).call("ping")
                assert pong["worker_id"] == worker_id
                pids.add(pong["pid"])
            assert len(pids) == 4  # four real processes, none the driver

    def test_graceful_shutdown_leaves_nothing(self, workload):
        driver = ClusterDriver(workload, n_compute=1, n_data=1)
        driver.start()
        handles = list(driver.supervisor.handles.values())
        assert all(h.alive() for h in handles)
        driver.close()
        assert all(not h.alive() for h in handles)
        assert driver.supervisor.reap_orphans() == []

    def test_sigkill_is_detected(self, workload):
        with ClusterDriver(workload, n_compute=2, n_data=1) as driver:
            handle = driver.supervisor.handles["c1"]
            driver.supervisor.kill("c1", signal.SIGKILL)
            handle.process.join(timeout=5.0)
            assert not handle.alive()
            assert handle.exitcode == -signal.SIGKILL
            assert driver.supervisor.dead_workers() == [handle]

    def test_orphan_reaping_kills_stragglers(self, workload):
        driver = ClusterDriver(workload, n_compute=1, n_data=1)
        driver.start()
        # Simulate an aborted run: nobody called close().
        leaked = driver.supervisor.reap_orphans()
        assert sorted(leaked) == ["c0", "d0"]
        assert driver.supervisor.dead_workers() != []
        driver.close()  # still safe after the reap

    def test_worker_replay_cache_is_idempotent_cross_connection(
        self, workload
    ):
        """The echo_count op increments worker state; re-sending one
        rid must increment once no matter how many copies arrive."""
        with ClusterDriver(workload, n_compute=1, n_data=1) as driver:
            address = driver.supervisor.handles["c0"].address
            from repro.cluster.codec import connect

            with connect(address) as stream:
                for _ in range(3):
                    stream.send({"rid": "same-rid", "op": "echo_count"})
                replies = [stream.recv(timeout=5.0) for _ in range(3)]
                assert [r["value"] for r in replies] == [1, 1, 1]
                stream.send({"rid": "fresh-rid", "op": "echo_count"})
                assert stream.recv(timeout=5.0)["value"] == 2

    def test_restart_rebinds_same_address(self, workload):
        with ClusterDriver(workload, n_compute=1, n_data=1) as driver:
            handle = driver.supervisor.handles["d0"]
            before = handle.address
            old_pid = handle.pid
            driver.supervisor.kill("d0", signal.SIGKILL)
            handle.process.join(timeout=5.0)
            driver.supervisor.restart(handle, workload, scheduled=False)
            assert driver._try_ready("d0")
            assert handle.address == before
            pong = driver._client("d0").call("ping")
            assert pong["pid"] != old_pid
            assert pong["generation"] == 1


# ----------------------------------------------------------------------
# Dispatch lanes (an unstarted driver forks nothing; ``_dispatch`` is
# replaced by a recorder, so no RPC is made)
# ----------------------------------------------------------------------
class TestDispatchLanes:
    N_COMPUTE = 3
    BATCH_SIZE = 4

    @pytest.fixture
    def driver(self, workload, tmp_path):
        driver = ClusterDriver(
            workload, engine="streaming", n_compute=self.N_COMPUTE,
            batch_size=self.BATCH_SIZE, log_dir=str(tmp_path),
        )
        driver.compute_ids = [f"c{i}" for i in range(self.N_COMPUTE)]
        yield driver
        driver.close()

    @staticmethod
    def expected_outputs(batches):
        return {tid: ("out", tid) for b in batches for tid in b["tids"]}

    def test_one_lane_per_worker(self, driver, monkeypatch):
        n = self.N_COMPUTE
        batches = [{"tids": [2 * i, 2 * i + 1]} for i in range(11)]
        # Every lane's first batch waits until all n lanes have started,
        # so the n lanes provably run on n distinct pool threads.
        started = threading.Barrier(n, timeout=5.0)
        calls = []

        def record(op, batch, index):
            if index < n:
                started.wait()
            calls.append((threading.get_ident(), index))
            return {tid: ("out", tid) for tid in batch["tids"]}

        monkeypatch.setattr(driver, "_dispatch", record)
        outputs = {}
        with ThreadPoolExecutor(max_workers=n) as pool:
            driver._run_pooled(pool, "run_batch", batches, outputs)
        assert sorted(index for _, index in calls) == list(range(11))
        by_thread = {}
        for thread, index in calls:
            by_thread.setdefault(thread, []).append(index)
        assert len(by_thread) == n
        for indices in by_thread.values():
            assert len({index % n for index in indices}) == 1
            assert indices == sorted(indices)
        assert outputs == self.expected_outputs(batches)

    def test_lane_exception_propagates(self, driver, monkeypatch):
        def failing(op, batch, index):
            if index == 4:
                raise RuntimeError("lane 1 broke")
            return {tid: ("out", tid) for tid in batch["tids"]}

        monkeypatch.setattr(driver, "_dispatch", failing)
        batches = [{"tids": [i]} for i in range(9)]
        with ThreadPoolExecutor(max_workers=self.N_COMPUTE) as pool:
            with pytest.raises(RuntimeError, match="lane 1 broke"):
                driver._run_pooled(pool, "run_batch", batches, {})

    def test_waves_share_one_executor_and_keep_the_barrier(
        self, driver, monkeypatch
    ):
        import repro.cluster.driver as driver_module

        executors = []

        class CountingExecutor(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                executors.append(self)

        monkeypatch.setattr(
            driver_module, "ThreadPoolExecutor", CountingExecutor
        )
        n, size = self.N_COMPUTE, self.BATCH_SIZE
        lock = threading.Lock()
        events = []

        def record(op, batch, index):
            position = batch["tids"][0] // size
            with lock:
                events.append(("start", position))
            if position % n == 0:
                # A slow wave leader: a missing barrier would let the
                # other lanes start the next wave meanwhile.
                time.sleep(0.02)
            with lock:
                events.append(("end", position))
            return {tid: ("out", tid) for tid in batch["tids"]}

        monkeypatch.setattr(driver, "_dispatch", record)
        outputs = driver.run()
        assert len(executors) == 1
        n_batches = driver.info.n_batches
        assert n_batches == -(-len(driver.workload.keys) // size) > 2 * n
        assert outputs == self.expected_outputs(driver._batches())
        for wave_start in range(n, n_batches, n):
            last_end = max(
                at for at, (kind, position) in enumerate(events)
                if kind == "end" and position < wave_start
            )
            first_start = min(
                at for at, (kind, position) in enumerate(events)
                if kind == "start" and position >= wave_start
            )
            assert last_end < first_start
