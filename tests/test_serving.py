"""Tests for the streaming serving tier.

The acceptance criteria of the serving PR, as executable checks:

- concurrent clients receive theta blocks **bit-identical** to calling
  ``InferenceSession.transform`` in-process (coalescing preserves every
  request's stand-alone draws);
- a hot swap under load drops **zero** in-flight requests — every
  response is bit-exact under the generation that answered it;
- admission control rejects with a typed ``busy`` at the configured
  queue depth;
- an inference worker dying mid-request surfaces as a clear error to
  the affected client and the server recovers for the next request.
"""

from __future__ import annotations

import asyncio
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import create_trainer
from repro.corpus.synthetic import generate_synthetic_corpus, small_spec
from repro.model import InferenceSession
from repro.serving import (
    BatchCoalescer,
    FrameError,
    LatencyStats,
    PendingRequest,
    ServerBusy,
    ServingClient,
    ServingError,
    ServingServer,
    decode_payload,
    encode_frame,
    quantiles,
    read_frame,
    write_frame,
)

SWEEPS, BURN = 6, 2


def run(coro, timeout: float = 90.0):
    """Drive one async test scenario to completion (no pytest-asyncio)."""
    return asyncio.run(asyncio.wait_for(coro, timeout=timeout))


@pytest.fixture(scope="module")
def stack(tmp_path_factory):
    """Two trained generations (child knows its parent), docs, artifacts."""
    corpus = generate_synthetic_corpus(
        small_spec(num_docs=120, num_words=150, mean_doc_len=25,
                   num_topics=5),
        seed=7,
    )
    t1 = create_trainer("culda", corpus, topics=8, seed=1)
    t1.fit(3, likelihood_every=0)
    m1 = t1.export_model()
    t2 = create_trainer("culda", corpus, topics=8, seed=2)
    t2.fit(3, likelihood_every=0)
    m2 = t2.export_model(parent=m1.generation)
    tmp = tmp_path_factory.mktemp("serving")
    m1.save(tmp / "m1.npz")
    m2.save(tmp / "m2.npz")
    docs = [
        corpus.word_ids[corpus.doc_offsets[d]: corpus.doc_offsets[d + 1]]
        .astype(np.int64)
        for d in range(24)
    ]
    return {
        "m1": m1, "m2": m2, "docs": docs,
        "m1_path": str(tmp / "m1.npz"), "m2_path": str(tmp / "m2.npz"),
        "ref1": InferenceSession(m1, num_sweeps=SWEEPS, burn_in=BURN),
        "ref2": InferenceSession(m2, num_sweeps=SWEEPS, burn_in=BURN),
    }


def make_server(stack, **kwargs):
    kwargs.setdefault("num_sweeps", SWEEPS)
    kwargs.setdefault("burn_in", BURN)
    return ServingServer(stack["m1"], **kwargs)


class TestFrames:
    def test_roundtrip(self):
        msg = {"op": "infer", "docs": [[1, 2]], "theta": [0.1, 0.9]}
        assert decode_payload(encode_frame(msg)[4:]) == msg

    def test_floats_roundtrip_bit_exact(self):
        rng = np.random.default_rng(3)
        vals = rng.random(64).tolist()
        back = decode_payload(encode_frame({"v": vals})[4:])["v"]
        assert np.array_equal(
            np.asarray(vals, dtype=np.float64),
            np.asarray(back, dtype=np.float64),
        )

    @pytest.mark.parametrize("case", ["random", "tied", "distinct", "zeros"])
    def test_theta_rows_render_like_tolist(self, case):
        """A reply's theta array is written byte for byte as
        ``json.dumps`` writes its ``tolist()``."""
        rng = np.random.default_rng(5)
        rows = {
            "random": rng.dirichlet(np.full(16, 0.3), size=4),
            "tied": np.resize([0.25, 1 / 3, 1e-300, 5e-324], (3, 16)),
            "distinct": rng.random((2, 256)) * 10.0 ** rng.integers(
                -300, 300, size=(2, 256)
            ),
            "zeros": np.array([[0.0, -0.0, 1.0, -0.0], [-0.0, 0.0, 0.0, 2.5]]),
        }[case]
        reply = {"type": "result", "id": 3, "theta": rows,
                 "lineage": {"parent": None}, "service_s": 0.25}
        listed = {**reply, "theta": rows.tolist()}
        assert encode_frame(reply) == encode_frame(listed)
        assert encode_frame({"theta": rows[:, :0]}) == encode_frame(
            {"theta": [[]] * len(rows)}
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_theta_raises(self, bad):
        rows = np.full((2, 3), 0.5)
        rows[1, 2] = bad
        with pytest.raises(ValueError):
            encode_frame({"theta": rows})

    def test_rejects_non_object(self):
        with pytest.raises(FrameError, match="JSON object"):
            decode_payload(b"[1,2,3]")

    def test_rejects_bad_json(self):
        with pytest.raises(FrameError, match="not valid JSON"):
            decode_payload(b"{nope")

    def test_encode_rejects_oversized(self, monkeypatch):
        import repro.serving.protocol as proto

        monkeypatch.setattr(proto, "MAX_FRAME_BYTES", 8)
        with pytest.raises(FrameError, match="exceeds"):
            proto.encode_frame({"big": "x" * 32})

    def test_read_frame_streams(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(encode_frame({"a": 1}))
            reader.feed_data(encode_frame({"b": 2}))
            reader.feed_eof()
            assert await read_frame(reader) == {"a": 1}
            assert await read_frame(reader) == {"b": 2}
            assert await read_frame(reader) is None  # clean EOF

        run(scenario())

    def test_read_frame_truncations(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(b"\x00\x00")  # half a header
            reader.feed_eof()
            with pytest.raises(FrameError, match="mid-header"):
                await read_frame(reader)
            reader = asyncio.StreamReader()
            reader.feed_data(encode_frame({"a": 1})[:-2])
            reader.feed_eof()
            with pytest.raises(FrameError, match="mid-frame"):
                await read_frame(reader)
            reader = asyncio.StreamReader()
            reader.feed_data(b"\xff\xff\xff\xff")  # 4 GiB announced
            with pytest.raises(FrameError, match="announced"):
                await read_frame(reader)

        run(scenario())


class TestLatencyStats:
    def test_empty_snapshot(self):
        snap = LatencyStats().snapshot()
        assert snap["completed"] == 0
        assert snap["queue_wait_s"] is None
        assert quantiles([]) is None

    def test_counters_and_quantiles(self):
        st = LatencyStats()
        for i in range(1, 101):
            st.record(queue_wait_s=i / 1000.0, service_s=0.01)
        st.record_busy()
        st.record_error()
        st.record_swap()
        snap = st.snapshot()
        assert snap["completed"] == 100
        assert snap["busy_rejected"] == 1
        assert snap["errors"] == 1
        assert snap["swaps"] == 1
        assert snap["queue_wait_s"]["p50"] == pytest.approx(0.0505)
        assert snap["service_s"]["max"] == pytest.approx(0.01)
        assert snap["total_s"]["mean"] == pytest.approx(0.0605)

    def test_window_ages_out(self):
        st = LatencyStats(window=4)
        for i in range(10):
            st.record(float(i), 0.0)
        snap = st.snapshot()
        assert snap["completed"] == 10
        assert snap["window_samples"] == 4
        assert snap["queue_wait_s"]["max"] == 9.0  # only recent samples

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError, match="window"):
            LatencyStats(window=0)


def _pending(n_docs: int = 1, seed: int = 0) -> PendingRequest:
    return PendingRequest(
        docs=[np.array([0, 1], dtype=np.int64)] * n_docs,
        seed=seed,
        future=asyncio.get_running_loop().create_future(),
        enqueued_at=0.0,
    )


class TestCoalescer:
    def test_pending_requests_fold_into_one_dispatch(self):
        async def scenario():
            batches = []

            async def dispatch(batch):
                batches.append(batch)
                for req in batch:
                    req.future.set_result(req.seed)

            c = BatchCoalescer(dispatch, max_pending=16)
            reqs = [_pending(seed=i) for i in range(5)]
            for r in reqs:
                assert c.submit(r)
            assert c.depth == 5
            c.start()
            results = await asyncio.gather(*[r.future for r in reqs])
            await c.close()
            assert len(batches) == 1 and len(batches[0]) == 5
            assert results == [0, 1, 2, 3, 4]

        run(scenario())

    def test_admission_control_refuses_at_depth(self):
        async def scenario():
            async def dispatch(batch):
                for req in batch:
                    req.future.set_result(None)

            c = BatchCoalescer(dispatch, max_pending=2)
            assert c.submit(_pending())
            assert c.submit(_pending())
            assert not c.submit(_pending())  # full -> busy
            c.start()
            await c.close()

        run(scenario())

    def test_close_drains_queued_work(self):
        async def scenario():
            done = []

            async def dispatch(batch):
                for req in batch:
                    done.append(req.seed)
                    req.future.set_result(None)

            c = BatchCoalescer(dispatch, max_pending=8)
            c.start()
            await asyncio.sleep(0)  # let the drain task reach its wait
            for i in range(3):
                c.submit(_pending(seed=i))
            await c.close()
            assert sorted(done) == [0, 1, 2]
            with pytest.raises(RuntimeError, match="closed"):
                c.submit(_pending())

        run(scenario())

    def test_dispatcher_bug_fails_requests_not_the_loop(self):
        async def scenario():
            calls = []

            async def dispatch(batch):
                calls.append(len(batch))
                if len(calls) == 1:
                    raise RuntimeError("injected dispatcher bug")
                for req in batch:
                    req.future.set_result("ok")

            c = BatchCoalescer(dispatch, max_pending=8)
            first = _pending()
            c.submit(first)
            c.start()
            with pytest.raises(RuntimeError, match="injected"):
                await first.future
            second = _pending()
            c.submit(second)  # the drain loop must have survived
            assert await second.future == "ok"
            await c.close()

        run(scenario())

    def test_rejects_negative_depth(self):
        with pytest.raises(ValueError, match="max_pending"):
            BatchCoalescer(lambda batch: None, max_pending=-1)

    def test_answered_entry_frees_its_slot(self):
        async def scenario():
            dispatched = []

            async def dispatch(batch):
                for req in batch:
                    dispatched.append(req.seed)
                    req.future.set_result("ok")

            c = BatchCoalescer(dispatch, max_pending=1)
            answered = _pending(seed=1)
            assert c.submit(answered)
            assert c.depth == 1
            assert not c.submit(_pending(seed=2))  # full -> busy
            # Answered while queued (say, by its deadline timer): the
            # entry holds no slot, so a fresh request is admitted.
            answered.future.set_result("expired")
            assert c.depth == 0
            live = _pending(seed=3)
            assert c.submit(live)
            c.start()
            assert await live.future == "ok"
            await c.close()
            assert dispatched == [3]

        run(scenario())

    def test_drain_loop_never_dispatches_an_answered_entry(self):
        async def scenario():
            batches = []

            async def dispatch(batch):
                batches.append([req.seed for req in batch])
                for req in batch:
                    req.future.set_result("ok")

            c = BatchCoalescer(dispatch, max_pending=8)
            reqs = [_pending(seed=i) for i in range(3)]
            for req in reqs:
                assert c.submit(req)
            reqs[1].future.set_result("expired")
            c.start()
            assert await reqs[2].future == "ok"
            # A queue holding only answered entries dispatches nothing.
            lone = _pending(seed=3)
            assert c.submit(lone)
            lone.future.set_result("expired")
            await c.close()
            assert batches == [[0, 2]]
            assert await reqs[1].future == "expired"

        run(scenario())


class TestServing:
    def test_concurrent_clients_bit_identical(self, stack):
        """Acceptance: >= 8 concurrent clients, each reply bit-identical
        to in-process transform of that client's own request."""

        async def scenario():
            async with make_server(stack) as server:
                host, port = server.address

                async def one(cid):
                    async with await ServingClient.connect(host, port) as c:
                        mine = stack["docs"][cid * 3: cid * 3 + 3]
                        r = await c.infer(mine, seed=100 + cid)
                        return cid, mine, r

                replies = await asyncio.gather(*[one(i) for i in range(8)])
                for cid, mine, r in replies:
                    expect = stack["ref1"].transform(mine, seed=100 + cid)
                    assert np.array_equal(r.theta, expect)
                    assert r.generation == stack["m1"].generation
                    assert r.queue_wait_s >= 0.0
                    assert r.service_s > 0.0
                # they really were folded together, not serialized 1-by-1
                assert max(r.coalesced_requests for _, _, r in replies) > 1

        run(scenario())

    def test_sequential_requests_reuse_connection(self, stack):
        async def scenario():
            async with make_server(stack) as server:
                host, port = server.address
                async with await ServingClient.connect(host, port) as c:
                    a = await c.infer(stack["docs"][:2], seed=4)
                    b = await c.infer(stack["docs"][:2], seed=4)
                    assert np.array_equal(a.theta, b.theta)
                    pong = await c.ping()
                    assert pong["generation"] == stack["m1"].generation

        run(scenario())

    def test_swap_under_load_drops_nothing(self, stack):
        """Requests streaming across a hot swap: every reply arrives and
        is bit-exact under whichever generation answered it."""

        async def scenario():
            async with make_server(stack) as server:
                host, port = server.address
                stop = asyncio.Event()
                replies: list = []

                async def load_client(cid):
                    async with await ServingClient.connect(host, port) as c:
                        i = 0
                        while not stop.is_set():
                            mine = stack["docs"][cid * 2: cid * 2 + 2]
                            r = await c.infer(mine, seed=cid * 1000 + i)
                            replies.append((cid, i, mine, r))
                            i += 1

                clients = [
                    asyncio.get_running_loop().create_task(load_client(i))
                    for i in range(4)
                ]
                while len(replies) < 6:  # traffic flowing pre-swap
                    await asyncio.sleep(0.01)
                async with await ServingClient.connect(host, port) as admin:
                    swapped = await admin.swap(stack["m2_path"])
                    assert swapped["generation"] == stack["m2"].generation
                    assert swapped["previous"] == stack["m1"].generation
                    # after the ack, new requests answer on the new model
                    post = await admin.infer(stack["docs"][:2], seed=77)
                    assert post.generation == stack["m2"].generation
                target = len(replies) + 4
                while len(replies) < target:  # post-swap traffic too
                    await asyncio.sleep(0.01)
                stop.set()
                await asyncio.gather(*clients)
                gens = {r.generation for _, _, _, r in replies}
                assert gens == {
                    stack["m1"].generation, stack["m2"].generation
                }
                for cid, i, mine, r in replies:
                    ref = (
                        stack["ref1"]
                        if r.generation == stack["m1"].generation
                        else stack["ref2"]
                    )
                    assert np.array_equal(
                        r.theta, ref.transform(mine, seed=cid * 1000 + i)
                    ), "a reply crossed the swap with wrong bits"

        run(scenario(), timeout=180.0)

    def test_swap_reports_lineage_chain(self, stack):
        async def scenario():
            async with make_server(stack) as server:
                host, port = server.address
                async with await ServingClient.connect(host, port) as c:
                    swapped = await c.swap(stack["m2_path"])
                    # the v2 artifact carries its parent's generation id
                    assert (
                        swapped["lineage"]["parent"]
                        == stack["m1"].generation
                    )
                    r = await c.infer(stack["docs"][:1], seed=1)
                    assert r.lineage["generation"] == r.generation

        run(scenario())

    def test_swap_failure_keeps_serving(self, stack, tmp_path):
        async def scenario():
            async with make_server(stack) as server:
                host, port = server.address
                bad = tmp_path / "nope.npz"
                async with await ServingClient.connect(host, port) as c:
                    with pytest.raises(ServingError, match="swap_rejected"):
                        await c.swap(str(bad))
                    r = await c.infer(stack["docs"][:1], seed=5)
                    assert r.generation == stack["m1"].generation

        run(scenario())

    def test_busy_at_configured_depth(self, stack):
        async def scenario():
            async with make_server(stack, max_pending=0) as server:
                host, port = server.address
                async with await ServingClient.connect(host, port) as c:
                    with pytest.raises(ServerBusy) as exc:
                        await c.infer(stack["docs"][:1], seed=0)
                    assert exc.value.max_pending == 0
                    stats = await c.stats()
                    assert stats["latency"]["busy_rejected"] == 1

        run(scenario())

    def test_typed_validation_errors(self, stack):
        async def scenario():
            async with make_server(stack) as server:
                host, port = server.address
                async with await ServingClient.connect(host, port) as c:
                    with pytest.raises(ServingError, match="invalid_request"):
                        await c.infer([[999_999]], seed=0)  # out of vocab
                    with pytest.raises(ServingError, match="invalid_request"):
                        await c.infer([[0, 1]], seed=-3)  # bad seed
                    with pytest.raises(ServingError, match="invalid_request"):
                        await c._roundtrip({"op": "infer", "docs": []})
                    with pytest.raises(ServingError, match="unknown_op"):
                        await c._roundtrip({"op": "frobnicate"})
                    # the connection survives every typed refusal
                    r = await c.infer(stack["docs"][:1], seed=2)
                    assert r.generation == stack["m1"].generation

        run(scenario())

    def test_malformed_frame_gets_bad_frame_error(self, stack):
        async def scenario():
            async with make_server(stack) as server:
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)
                try:
                    await write_frame(writer, {"op": "ping"})
                    assert (await read_frame(reader))["type"] == "pong"
                    writer.write(b"\x00\x00\x00\x04nope")  # not JSON
                    await writer.drain()
                    reply = await read_frame(reader)
                    assert reply["type"] == "error"
                    assert reply["error"] == "bad_frame"
                finally:
                    writer.close()
                    await writer.wait_closed()

        run(scenario())

    def test_stats_and_shutdown_over_protocol(self, stack):
        async def scenario():
            server = make_server(stack)
            ready = asyncio.Event()
            addr: list = []

            def on_ready(address):
                addr.append(address)
                ready.set()

            runner = asyncio.get_running_loop().create_task(
                server.run(on_ready)
            )
            await ready.wait()
            host, port = addr[0]
            async with await ServingClient.connect(host, port) as c:
                await c.infer(stack["docs"][:2], seed=0)
                stats = await c.stats()
                assert stats["version"] == 1
                assert stats["latency"]["completed"] == 1
                assert stats["latency"]["total_s"]["p99"] > 0.0
                assert stats["num_sweeps"] == SWEEPS
                assert stats["model"]["generation"] == stack["m1"].generation
                bye = await c.shutdown()
                assert bye["type"] == "bye"
            await asyncio.wait_for(runner, timeout=30.0)

        run(scenario())

    def test_stop_is_idempotent_and_releases_sessions(
        self, stack, shm_segments
    ):
        before = shm_segments()

        async def scenario():
            server = make_server(stack, num_workers=2)
            host, port = await server.start()
            async with await ServingClient.connect(host, port) as c:
                r = await c.infer(stack["docs"][:4], seed=3)
                assert np.array_equal(
                    r.theta, stack["ref1"].transform(
                        stack["docs"][:4], seed=3
                    )
                )
            await server.stop()
            await server.stop()  # idempotent

        run(scenario())
        assert shm_segments() <= before

    def test_default_pool_size_follows_cpu_affinity(self, stack, monkeypatch):
        """One worker process per usable CPU, at least one: a 1-CPU host
        and ``num_workers=1`` serve on one worker, never in-process."""
        import os

        def pool_size(**kwargs):
            async def scenario():
                async with make_server(stack, **kwargs) as server:
                    host, port = server.address
                    async with await ServingClient.connect(host, port) as c:
                        r = await c.infer(stack["docs"][:4], seed=0)
                        assert np.array_equal(
                            r.theta,
                            stack["ref1"].transform(stack["docs"][:4], seed=0),
                        )
                        stats = await c.stats()
                return stats["num_workers"], stats["inference"]

            return run(scenario())

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        for kwargs in ({}, {"num_workers": 1}):
            workers, inference = pool_size(**kwargs)
            assert workers == 1
            assert inference["routed"] == {"in_process": 0, "pool": 1}
            assert len(inference["pool"]["worker_peak_rss_mb"]) == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        assert pool_size()[0] == 2
        with pytest.raises(ValueError, match="num_workers"):
            make_server(stack, num_workers=0)

    def test_stats_report_routing_and_worker_memory(self, stack):
        wide = stack["docs"] * 2

        async def scenario():
            async with make_server(stack, num_workers=2) as server:
                host, port = server.address
                async with await ServingClient.connect(host, port) as c:
                    await c.infer(stack["docs"][:4], seed=0)
                    r = await c.infer(wide, seed=1)
                    assert np.array_equal(
                        r.theta, stack["ref1"].transform(wide, seed=1)
                    )
                    return (await c.stats())["inference"]

        inference = run(scenario())
        assert inference["routed"] == {"in_process": 0, "pool": 2}
        rss = inference["pool"]["worker_peak_rss_mb"]
        assert len(rss) == 2
        assert all(mb is None or mb > 0 for mb in rss)


class TestPooledServing:
    """A pooled server folds every request on its workers, which start
    when their generation is installed; the server folds nothing."""

    def test_pool_starts_before_the_first_request(self, stack):
        async def scenario():
            async with make_server(stack, num_workers=2) as server:
                host, port = server.address
                async with await ServingClient.connect(host, port) as c:
                    return (await c.stats())["inference"]

        inference = run(scenario())
        assert inference["pool"]["started"] is True
        assert inference["routed"] == {"in_process": 0, "pool": 0}

    def test_every_request_folds_on_the_pool(self, stack):
        docs = stack["docs"]

        async def one(host, port, lo, seed):
            async with await ServingClient.connect(host, port) as c:
                return await c.infer(docs[lo: lo + 2], seed=seed)

        async def scenario():
            async with make_server(stack, num_workers=2) as server:
                host, port = server.address
                async with await ServingClient.connect(host, port) as c:
                    r = await c.infer(docs[:4], seed=0)
                    assert np.array_equal(
                        r.theta, stack["ref1"].transform(docs[:4], seed=0)
                    )
                    burst = await asyncio.gather(*[
                        one(host, port, 2 * i, 10 + i) for i in range(8)
                    ])
                    for i, r in enumerate(burst):
                        assert np.array_equal(
                            r.theta,
                            stack["ref1"].transform(
                                docs[2 * i: 2 * i + 2], seed=10 + i
                            ),
                        )
                    assert max(r.coalesced_requests for r in burst) > 1
                    stats = await c.stats()
                    return stats["inference"]

        inference = run(scenario())
        assert inference["routed"]["in_process"] == 0
        assert inference["routed"]["pool"] >= 2

    def test_swap_starts_the_new_pool_before_its_reply(self, stack):
        async def scenario():
            async with make_server(stack, num_workers=2) as server:
                host, port = server.address
                async with await ServingClient.connect(host, port) as c:
                    swapped = await c.swap(stack["m2_path"])
                    assert swapped["generation"] == stack["m2"].generation
                    # No request has reached the new generation yet.
                    inference = (await c.stats())["inference"]
                    assert inference["pool"]["started"] is True
                    assert inference["routed"] == {
                        "in_process": 0, "pool": 0,
                    }
                    r = await c.infer(stack["docs"][:2], seed=3)
                    assert np.array_equal(
                        r.theta,
                        stack["ref2"].transform(stack["docs"][:2], seed=3),
                    )

        run(scenario())


class TestServerWorkerFailure:
    """The PR-5 crash-injection idiom, extended through the server."""

    def test_worker_failure_mid_request_surfaces_and_recovers(
        self, stack, monkeypatch, shm_segments
    ):
        from repro.parallel.shm import pick_context

        if pick_context().get_start_method() != "fork":
            pytest.skip("fault injection needs fork inheritance")
        before = shm_segments()

        def boom(self, *args, **kwargs):
            raise RuntimeError("injected inference failure")

        async def scenario():
            # Patched before the server starts, so the workers it forks
            # at start inherit the failure.
            monkeypatch.setattr(InferenceSession, "_fold_in_batch", boom)
            async with make_server(stack, num_workers=2) as server:
                host, port = server.address
                async with await ServingClient.connect(host, port) as c:
                    # affected client gets a typed error, not a hang
                    with pytest.raises(
                        ServingError, match="inference_failed"
                    ):
                        await c.infer(stack["docs"][:2], seed=0)
                    monkeypatch.undo()
                    # next request rebuilds the pool and succeeds
                    r = await c.infer(stack["docs"][:2], seed=0)
                    assert np.array_equal(
                        r.theta,
                        stack["ref1"].transform(stack["docs"][:2], seed=0),
                    )
                    stats = await c.stats()
                    assert stats["latency"]["errors"] >= 1
                    assert stats["latency"]["completed"] == 1

        run(scenario(), timeout=180.0)
        assert shm_segments() <= before

    def test_killed_worker_fails_the_dispatch_at_once(
        self, stack, shm_segments
    ):
        """A worker killed mid-dispatch: its pipe reads EOF, which wakes
        the loop's reader, so the riders hear ``inference_failed`` long
        before a liveness poll would notice; the next request restarts
        the pool and keeps its bits."""
        import os
        import signal

        from repro import faults
        from repro.parallel.pool import POLL_SECONDS

        before = shm_segments()
        # Both workers wedge in their first fold-in, so the dispatch is
        # still in flight when the kill lands; the restarted pool's
        # workers (attempt 1) fold normally.
        faults.install("serve_hang@op=infer,delay_ms=5000")

        async def scenario():
            async with make_server(stack, num_workers=2) as server:
                host, port = server.address
                pool = server._gen.pool
                async with await ServingClient.connect(host, port) as c:
                    pending = asyncio.ensure_future(
                        c.infer(stack["docs"][:2], seed=0)
                    )
                    while server._gen.inflight == 0:
                        await asyncio.sleep(0.005)
                    loop = asyncio.get_running_loop()
                    t0 = loop.time()
                    os.kill(pool._procs[0].pid, signal.SIGKILL)
                    with pytest.raises(
                        ServingError, match="inference_failed"
                    ):
                        await pending
                    waited = loop.time() - t0
                    assert pool.describe()["started"] is False
                    r = await c.infer(stack["docs"][:2], seed=0)
                    assert np.array_equal(
                        r.theta,
                        stack["ref1"].transform(stack["docs"][:2], seed=0),
                    )
                    assert pool.describe()["started"] is True
                    stats = await c.stats()
                    assert stats["latency"]["watchdog_fired"] == 0
                    assert stats["inference"]["routed"]["pool"] == 1
                    return waited

        try:
            waited = run(scenario())
        finally:
            faults.reset()
        assert waited < POLL_SECONDS / 4
        assert shm_segments() <= before


class TestServingRobustness:
    """Chaos hooks and client timeout/retry behaviour (the robustness PR)."""

    @pytest.fixture(autouse=True)
    def disarm(self):
        from repro import faults

        faults.reset()
        yield
        faults.reset()

    def test_client_rejects_bad_knobs(self):
        class _Fake:
            pass

        with pytest.raises(ValueError, match="retries"):
            ServingClient(_Fake(), _Fake(), retries=-1)
        with pytest.raises(ValueError, match="timeout"):
            ServingClient(_Fake(), _Fake(), timeout=0.0)

    def test_serve_error_fault_is_typed_and_transient(self, stack):
        from repro import faults

        async def scenario():
            async with make_server(stack) as server:
                host, port = server.address
                async with await ServingClient.connect(host, port) as c:
                    faults.install("serve_error@op=infer")
                    with pytest.raises(
                        ServingError, match="inference_failed"
                    ):
                        await c.infer(stack["docs"][:2], seed=0)
                    # times=1: the very next request is healthy again —
                    # and still bit-identical to the in-process oracle.
                    r = await c.infer(stack["docs"][:2], seed=0)
                    assert np.array_equal(
                        r.theta,
                        stack["ref1"].transform(stack["docs"][:2], seed=0),
                    )

        run(scenario())

    def test_timeout_without_retries_raises(self, stack):
        from repro import faults

        async def scenario():
            async with make_server(stack) as server:
                host, port = server.address
                faults.install("serve_slow@op=infer,delay_ms=2000,times=any")
                async with await ServingClient.connect(
                    host, port, timeout=0.2
                ) as c:
                    with pytest.raises(asyncio.TimeoutError):
                        await c.infer(stack["docs"][:1], seed=0)

        run(scenario())

    def test_retry_after_timeout_reconnects_and_succeeds(self, stack):
        from repro import faults

        async def scenario():
            async with make_server(stack) as server:
                host, port = server.address
                # One slow response (times=1 default); the retry lands on
                # a healthy server and must match the oracle exactly.
                faults.install("serve_slow@op=infer,delay_ms=1000")
                async with await ServingClient.connect(
                    host, port, timeout=0.3, retries=8
                ) as c:
                    r = await c.infer(stack["docs"][:2], seed=4)
                    assert np.array_equal(
                        r.theta,
                        stack["ref1"].transform(stack["docs"][:2], seed=4),
                    )

        run(scenario())

    def test_retry_on_busy_same_connection(self, stack):
        """ServerBusy retries must not reconnect (the connection is
        fine); with a drained queue the retry succeeds."""

        async def scenario():
            async with make_server(stack, max_pending=1) as server:
                host, port = server.address
                async with await ServingClient.connect(
                    host, port, retries=8
                ) as fast:
                    # Saturate: several no-retry clients race one slot.
                    others = [
                        await ServingClient.connect(host, port)
                        for _ in range(4)
                    ]
                    try:
                        tasks = [
                            asyncio.ensure_future(
                                c.infer(stack["docs"][:3], seed=i)
                            )
                            for i, c in enumerate(others)
                        ]
                        r = await fast.infer(stack["docs"][:2], seed=9)
                        assert np.array_equal(
                            r.theta,
                            stack["ref1"].transform(
                                stack["docs"][:2], seed=9
                            ),
                        )
                        await asyncio.gather(
                            *tasks, return_exceptions=True
                        )
                    finally:
                        for c in others:
                            await c.close()

        run(scenario())

    def test_request_shutdown_drains_run(self, stack):
        async def scenario():
            server = make_server(stack)
            task = asyncio.ensure_future(server.run())
            while server.address is None:
                await asyncio.sleep(0.01)
            host, port = server.address
            async with await ServingClient.connect(host, port) as c:
                await c.infer(stack["docs"][:1], seed=0)
            server.request_shutdown()
            await asyncio.wait_for(task, 30)

        run(scenario())


class TestCircuitBreakerUnit:
    """The breaker's state machine, on a hand-driven clock."""

    def test_trips_at_threshold_and_times_probe(self):
        from repro.serving import CircuitBreaker

        b = CircuitBreaker(failure_threshold=3, reset_timeout_s=2.0)
        assert b.allow(0.0)
        b.record_failure(0.0)
        b.record_failure(0.1)
        assert b.allow(0.2)  # still closed below threshold
        b.record_failure(0.2)
        assert b.state == "open"
        assert not b.allow(1.0)
        assert b.retry_after_s(1.0) == pytest.approx(1.2)
        # cool-down elapsed: exactly one probe admitted
        assert b.allow(2.3)
        assert b.state == "half_open"
        assert not b.allow(2.4)
        b.record_success()
        assert b.state == "closed"
        assert b.consecutive_failures == 0

    def test_failed_probe_reopens_for_a_full_timeout(self):
        from repro.serving import CircuitBreaker

        b = CircuitBreaker(failure_threshold=1, reset_timeout_s=1.0)
        b.record_failure(0.0)
        assert b.allow(1.1)  # the probe
        b.record_failure(1.2)
        assert b.state == "open"
        assert b.times_opened == 2
        assert not b.allow(1.9)
        assert b.allow(2.3)

    def test_aborted_probe_rearms_the_next_request(self):
        """A probe lost pre-dispatch reverts to open with the original
        open time kept, so the next caller probes immediately — the
        breaker can never be stranded half-open."""
        from repro.serving import CircuitBreaker

        b = CircuitBreaker(failure_threshold=1, reset_timeout_s=1.0)
        b.record_failure(0.0)
        assert b.allow(1.5)  # the probe
        assert b.state == "half_open"
        b.probe_aborted(1.6)  # probe died without a dispatch outcome
        assert b.state == "open"
        assert b.times_opened == 1  # not counted as a re-open
        assert b.allow(1.7)  # immediately re-armed as a fresh probe
        assert b.state == "half_open"
        b.record_success()
        assert b.state == "closed"
        b.probe_aborted(2.0)  # no-op outside half-open
        assert b.state == "closed"

    def test_threshold_zero_disables(self):
        from repro.serving import CircuitBreaker

        b = CircuitBreaker(failure_threshold=0)
        for i in range(50):
            b.record_failure(float(i))
        assert b.state == "closed"
        assert b.allow(99.0)

    def test_success_clears_the_count(self):
        from repro.serving import CircuitBreaker

        b = CircuitBreaker(failure_threshold=2)
        b.record_failure(0.0)
        b.record_success()
        b.record_failure(1.0)
        assert b.state == "closed"  # never two *consecutive* failures

    def test_rejects_bad_knobs(self):
        from repro.serving import CircuitBreaker

        with pytest.raises(ValueError, match="failure_threshold"):
            CircuitBreaker(failure_threshold=-1)
        with pytest.raises(ValueError, match="reset_timeout_s"):
            CircuitBreaker(reset_timeout_s=0.0)


class TestDeadlinesAndWatchdog:
    """Request deadlines: typed answers on time, wedged pools healed."""

    @pytest.fixture(autouse=True)
    def disarm(self):
        from repro import faults

        faults.reset()
        yield
        faults.reset()

    def test_deadline_validation_is_typed(self, stack):
        async def scenario():
            async with make_server(stack) as server:
                host, port = server.address
                async with await ServingClient.connect(host, port) as c:
                    for bad in (-1.0, 0.0):
                        with pytest.raises(
                            ServingError, match="invalid_request"
                        ):
                            await c.infer(
                                stack["docs"][:1], seed=0, deadline_ms=bad
                            )
                    # a generous deadline changes nothing
                    r = await c.infer(
                        stack["docs"][:1], seed=2, deadline_ms=60_000
                    )
                    assert np.array_equal(
                        r.theta,
                        stack["ref1"].transform(stack["docs"][:1], seed=2),
                    )

        run(scenario())

    def test_deadline_mid_dispatch_answers_on_time(self, stack):
        """A slow dispatch: the client hears ``deadline_exceeded`` at its
        own deadline, not after the server finishes being slow."""
        from repro.serving import DeadlineExceeded

        from repro import faults

        async def scenario():
            async with make_server(stack) as server:
                host, port = server.address
                async with await ServingClient.connect(host, port) as c:
                    faults.install("serve_slow@op=infer,delay_ms=1500")
                    loop = asyncio.get_running_loop()
                    t0 = loop.time()
                    with pytest.raises(DeadlineExceeded):
                        await c.infer(
                            stack["docs"][:1], seed=0, deadline_ms=200
                        )
                    # answered at the deadline, not after the 1.5s delay
                    assert loop.time() - t0 < 1.2
                    r = await c.infer(stack["docs"][:1], seed=0)
                    assert np.array_equal(
                        r.theta,
                        stack["ref1"].transform(stack["docs"][:1], seed=0),
                    )
                    stats = await c.stats()
                    assert stats["latency"]["deadline_exceeded"] >= 1

        run(scenario())

    def test_watchdog_heals_wedged_inference(self, stack):
        """Acceptance: under ``serve_hang`` no client blocks past its
        deadline — typed reply, the pool self-heals, and the next
        request succeeds."""
        from repro.serving import DeadlineExceeded

        from repro import faults

        async def scenario():
            # A bounded hang (the real default is an hour): long enough
            # that only the watchdog can answer.  Armed before the
            # server starts, so its workers fork with it.
            faults.install("serve_hang@op=infer,delay_ms=2000")
            async with make_server(stack) as server:
                host, port = server.address
                async with await ServingClient.connect(host, port) as c:
                    loop = asyncio.get_running_loop()
                    t0 = loop.time()
                    with pytest.raises(DeadlineExceeded):
                        await c.infer(
                            stack["docs"][:1], seed=3, deadline_ms=250
                        )
                    assert loop.time() - t0 < 1.5  # not the 2s hang
                    # The wedged workers were killed and the pool
                    # restarted in place: the same generation answers the
                    # next request, still bit-exact.
                    r = await c.infer(stack["docs"][:2], seed=4)
                    assert r.generation == stack["m1"].generation
                    assert np.array_equal(
                        r.theta,
                        stack["ref1"].transform(stack["docs"][:2], seed=4),
                    )
                    stats = await c.stats()
                    assert stats["latency"]["watchdog_fired"] == 1
                    assert stats["latency"]["deadline_exceeded"] >= 1

        run(scenario())


    def test_dispatch_bound_heals_deadline_less_requests(self, stack):
        """A batch with deadline-less riders is still watchdog-bounded:
        the server-level ``dispatch_timeout_s`` abandons a wedged
        dispatch, answers the riders with a typed ``inference_failed``,
        and heals — one no-deadline request cannot stall the drain loop
        for all later traffic."""
        from repro import faults

        async def scenario():
            faults.install("serve_hang@op=infer,delay_ms=2000")
            async with make_server(
                stack, dispatch_timeout_s=0.3
            ) as server:
                host, port = server.address
                async with await ServingClient.connect(host, port) as c:
                    loop = asyncio.get_running_loop()
                    t0 = loop.time()
                    with pytest.raises(
                        ServingError, match="inference_failed"
                    ):
                        await c.infer(stack["docs"][:1], seed=3)
                    # answered at the dispatch bound, not the 2s hang
                    assert loop.time() - t0 < 1.5
                    # The watchdog restarted the pool before answering.
                    assert server._gen.pool.describe()["started"] is True
                    # healed: the next request runs on the restarted
                    # pool and is still bit-exact.
                    r = await c.infer(stack["docs"][:2], seed=4)
                    assert np.array_equal(
                        r.theta,
                        stack["ref1"].transform(stack["docs"][:2], seed=4),
                    )
                    stats = await c.stats()
                    assert stats["latency"]["watchdog_fired"] == 1

        run(scenario())

    def test_watchdog_kill_spares_a_server_with_signal_handlers(self, stack):
        """``repro serve`` installs loop signal handlers before its
        workers fork.  The watchdog's terminate must end the wedged
        workers at once and must not reach the server as its own
        SIGTERM."""
        import signal

        from repro import faults

        async def scenario():
            loop = asyncio.get_running_loop()
            server = make_server(stack, dispatch_timeout_s=0.3)
            loop.add_signal_handler(signal.SIGTERM, server.request_shutdown)
            faults.install("serve_hang@op=infer,delay_ms=5000")
            async with server:
                host, port = server.address
                async with await ServingClient.connect(host, port) as c:
                    t0 = loop.time()
                    with pytest.raises(
                        ServingError, match="inference_failed"
                    ):
                        await c.infer(stack["docs"][:2], seed=3)
                    assert loop.time() - t0 < 1.5  # not a 2 s join each
                    await asyncio.sleep(0.05)
                    assert not server._shutdown_requested.is_set()
                    r = await c.infer(stack["docs"][:2], seed=4)
                    assert np.array_equal(
                        r.theta,
                        stack["ref1"].transform(stack["docs"][:2], seed=4),
                    )

        run(scenario())

    def test_all_riders_expired_pre_dispatch_skips_the_heal(self, stack):
        """Deadlines that lapse between batch assembly and the watchdog
        arming must expire the riders and skip the dispatch — not arm a
        ~0 watchdog that retires a perfectly healthy generation."""
        from repro.serving import PendingRequest

        from repro import faults

        async def scenario():
            async with make_server(stack) as server:
                loop = asyncio.get_running_loop()
                # The slow-dispatch fault delays past the rider's
                # deadline; the request is injected directly (no
                # admission timer armed), so its future is still
                # unresolved when the watchdog guard is computed.
                faults.install("serve_slow@op=infer,delay_ms=150")
                req = PendingRequest(
                    docs=[np.asarray(stack["docs"][0], dtype=np.int64)],
                    seed=0,
                    future=loop.create_future(),
                    enqueued_at=loop.time(),
                    request_id=1,
                    deadline_at=loop.time() + 0.05,
                )
                gen_before = server._gen
                await server._dispatch([req])
                assert req.future.done()
                assert req.future.result()["error"] == "deadline_exceeded"
                # No spurious heal: same generation, no watchdog fire.
                assert server._gen is gen_before
                assert not gen_before.retired
                assert server._stats.snapshot()["watchdog_fired"] == 0

        run(scenario())

    def test_lapse_check_computes_only_unanswered_riders(self, stack):
        """A rider whose deadline lapses during the dispatch delay is
        answered and left out of the computed batch; the other rider
        keeps its bits."""
        from repro.serving import PendingRequest

        from repro import faults

        async def scenario():
            async with make_server(stack) as server:
                loop = asyncio.get_running_loop()
                faults.install("serve_slow@op=infer,delay_ms=150")
                docs = stack["docs"][:2]
                lapsing, live = (
                    PendingRequest(
                        docs=[np.asarray(docs[i], dtype=np.int64)],
                        seed=i,
                        future=loop.create_future(),
                        enqueued_at=loop.time(),
                        request_id=i,
                        deadline_at=deadline_at,
                    )
                    for i, deadline_at in enumerate(
                        (loop.time() + 0.05, None)
                    )
                )
                await server._dispatch([lapsing, live])
                assert lapsing.future.result()["error"] == (
                    "deadline_exceeded"
                )
                reply = live.future.result()
                assert reply["coalesced_requests"] == 1
                assert np.array_equal(
                    reply["theta"],
                    stack["ref1"].transform(docs[1:], seed=1),
                )
                assert server._stats.snapshot()["deadline_exceeded"] == 1

        run(scenario())

    def test_answered_requests_free_their_queue_slots(self, stack):
        """Requests answered by their deadline while queued hold no
        slot: the queue reads empty and fresh work is admitted, not
        refused ``busy`` behind answered entries."""
        from repro.serving import DeadlineExceeded

        from repro import faults

        async def scenario():
            async with make_server(stack, max_pending=2) as server:
                host, port = server.address
                faults.install("serve_slow@op=infer,delay_ms=800")
                async with await ServingClient.connect(
                    host, port
                ) as c0, await ServingClient.connect(host, port) as c:
                    slow = asyncio.ensure_future(
                        c0.infer(stack["docs"][:1], seed=0)
                    )
                    while server._gen.inflight == 0:  # dispatch in flight
                        await asyncio.sleep(0.005)
                    for seed in (1, 2):
                        with pytest.raises(DeadlineExceeded):
                            await c.infer(
                                stack["docs"][:1], seed=seed, deadline_ms=50
                            )
                    stats = await c.stats()
                    assert stats["pending"] == 0
                    assert stats["latency"]["shed_expired"] == 2
                    r = await c.infer(stack["docs"][:2], seed=4)
                    assert np.array_equal(
                        r.theta,
                        stack["ref1"].transform(stack["docs"][:2], seed=4),
                    )
                    assert np.array_equal(
                        (await slow).theta,
                        stack["ref1"].transform(stack["docs"][:1], seed=0),
                    )

        run(scenario())


class TestCircuitBreakerServing:
    """Overload protection: failing dispatches open the circuit."""

    @pytest.fixture(autouse=True)
    def disarm(self):
        from repro import faults

        faults.reset()
        yield
        faults.reset()

    def test_consecutive_failures_open_the_circuit(self, stack):
        from repro.serving import CircuitOpen

        from repro import faults

        async def scenario():
            async with make_server(
                stack, breaker_threshold=2, breaker_reset_s=60.0
            ) as server:
                host, port = server.address
                async with await ServingClient.connect(host, port) as c:
                    faults.install("serve_error@op=infer,times=2")
                    for _ in range(2):
                        with pytest.raises(
                            ServingError, match="inference_failed"
                        ):
                            await c.infer(stack["docs"][:1], seed=0)
                    # tripped: refusals are instant and typed, and carry
                    # the cool-down hint.
                    with pytest.raises(CircuitOpen) as exc:
                        await c.infer(stack["docs"][:1], seed=0)
                    assert exc.value.retry_after_s > 0
                    stats = await c.stats()
                    assert stats["breaker"]["state"] == "open"
                    assert stats["breaker"]["times_opened"] == 1
                    assert stats["latency"]["circuit_rejected"] == 1

        run(scenario())

    def test_half_open_probe_closes_the_circuit(self, stack):
        from repro.serving import CircuitOpen

        from repro import faults

        async def scenario():
            async with make_server(
                stack, breaker_threshold=1, breaker_reset_s=0.2
            ) as server:
                host, port = server.address
                async with await ServingClient.connect(host, port) as c:
                    faults.install("serve_error@op=infer")
                    with pytest.raises(
                        ServingError, match="inference_failed"
                    ):
                        await c.infer(stack["docs"][:1], seed=0)
                    with pytest.raises(CircuitOpen):
                        await c.infer(stack["docs"][:1], seed=0)
                    await asyncio.sleep(0.25)
                    # half-open: this request is the probe; the fault was
                    # times=1 so it succeeds and closes the circuit.
                    r = await c.infer(stack["docs"][:1], seed=1)
                    assert np.array_equal(
                        r.theta,
                        stack["ref1"].transform(stack["docs"][:1], seed=1),
                    )
                    stats = await c.stats()
                    assert stats["breaker"]["state"] == "closed"
                    assert stats["breaker"]["consecutive_failures"] == 0

        run(scenario())

    def test_lost_probe_does_not_wedge_the_breaker(self, stack):
        """Regression: the half-open probe admission can be spent on a
        request that is then refused as invalid — it never reaches a
        dispatch outcome.  The breaker must hand the probe back so the
        next request probes (and closes the circuit), instead of
        refusing everything with ``circuit_open`` until restart."""
        from repro.serving import CircuitOpen

        from repro import faults

        async def scenario():
            async with make_server(
                stack, breaker_threshold=1, breaker_reset_s=0.2
            ) as server:
                host, port = server.address
                async with await ServingClient.connect(host, port) as c:
                    faults.install("serve_error@op=infer")
                    with pytest.raises(
                        ServingError, match="inference_failed"
                    ):
                        await c.infer(stack["docs"][:1], seed=0)
                    with pytest.raises(CircuitOpen):
                        await c.infer(stack["docs"][:1], seed=0)
                    await asyncio.sleep(0.25)
                    # This request is admitted as the probe but dies at
                    # validation — no dispatch outcome ever arrives.
                    with pytest.raises(
                        ServingError, match="invalid_request"
                    ):
                        await c.infer(
                            stack["docs"][:1], seed=0, deadline_ms=-1.0
                        )
                    # The very next request must be admitted as a fresh
                    # probe and close the circuit — not circuit_open.
                    r = await c.infer(stack["docs"][:1], seed=5)
                    assert np.array_equal(
                        r.theta,
                        stack["ref1"].transform(stack["docs"][:1], seed=5),
                    )
                    stats = await c.stats()
                    assert stats["breaker"]["state"] == "closed"

        run(scenario())

    def test_probe_shed_while_queued_rearms_the_breaker(self, stack):
        """A probe shed by its own deadline while still queued is handed
        back: the breaker reverts to open and admits the next request
        as a fresh probe instead of waiting half-open forever."""

        async def scenario():
            async with make_server(
                stack, breaker_threshold=1, breaker_reset_s=0.2
            ) as server:
                loop = asyncio.get_running_loop()
                # Open the breaker with the reset window already elapsed.
                server._breaker.record_failure(loop.time() - 10.0)
                assert server._breaker.state == "open"
                reply, req = server._admit({
                    "op": "infer", "id": 1,
                    "docs": [stack["docs"][0].tolist()],
                    "seed": 0, "deadline_ms": 50.0,
                })
                assert reply is None
                assert req.meta.get("breaker_probe")
                assert server._breaker.state == "half_open"
                # Its deadline timer fires before any dispatch touches it
                # (no await between the admit above and this call, so
                # the race is closed).
                server._expire_request(req)
                assert req.future.done()
                assert server._breaker.state == "open"
                # The next caller is immediately admitted as a new probe.
                assert server._breaker.allow(loop.time())
                assert server._breaker.state == "half_open"

        run(scenario())

    def test_open_circuit_is_retryable_for_the_client(self, stack):
        """CircuitOpen is transient: a client with retries waits out the
        cool-down and lands its request."""
        from repro import faults

        async def scenario():
            async with make_server(
                stack, breaker_threshold=1, breaker_reset_s=0.1
            ) as server:
                host, port = server.address
                faults.install("serve_error@op=infer")
                async with await ServingClient.connect(host, port) as c0:
                    with pytest.raises(
                        ServingError, match="inference_failed"
                    ):
                        await c0.infer(stack["docs"][:1], seed=0)
                # circuit now open; a retrying client waits out the
                # cool-down transparently and lands its request.
                async with await ServingClient.connect(
                    host, port, retries=8
                ) as c:
                    r = await c.infer(stack["docs"][:1], seed=6)
                    assert np.array_equal(
                        r.theta,
                        stack["ref1"].transform(stack["docs"][:1], seed=6),
                    )

        run(scenario())


class TestSwapIntegrity:
    """Swap verifies the candidate; rejection keeps the last good model."""

    def _corrupted_copy(self, stack, tmp_path, mutate):
        src = Path(stack["m2_path"])
        dst = tmp_path / ("bad_" + src.name)
        with np.load(src, allow_pickle=False) as z:
            data = {k: z[k] for k in z.files}
        mutate(data)
        np.savez_compressed(dst, **data)
        return dst

    def test_corrupt_artifact_is_rejected_and_serving_continues(
        self, stack, tmp_path
    ):
        def flip(data):
            phi = data["phi"].copy()
            phi.flat[0] += 1
            data["phi"] = phi

        bad = self._corrupted_copy(stack, tmp_path, flip)

        async def scenario():
            async with make_server(stack) as server:
                host, port = server.address
                async with await ServingClient.connect(host, port) as c:
                    inflight = asyncio.ensure_future(
                        c.infer(stack["docs"][:2], seed=8)
                    )
                    async with await ServingClient.connect(
                        host, port
                    ) as admin:
                        with pytest.raises(
                            ServingError, match="swap_rejected"
                        ):
                            await admin.swap(str(bad))
                    # zero dropped in-flight requests, still last-good
                    r = await inflight
                    assert r.generation == stack["m1"].generation
                    assert np.array_equal(
                        r.theta,
                        stack["ref1"].transform(stack["docs"][:2], seed=8),
                    )
                    stats = await c.stats()
                    assert stats["latency"]["swaps_rejected"] == 1
                    assert stats["latency"]["swaps"] == 0
                    assert (
                        stats["model"]["generation"]
                        == stack["m1"].generation
                    )

        run(scenario())

    def test_invariant_violation_is_rejected_even_with_valid_digest(
        self, stack, tmp_path
    ):
        """A well-digested artifact with non-finite hyper-parameters is
        still refused: digests catch rot, invariants catch bad content."""
        import json as _json

        from repro.integrity import integrity_record

        def poison(data):
            data["alpha"] = np.float64(np.inf)
            meta = _json.loads(str(data.pop("metadata_json")))
            meta["integrity"] = integrity_record(data)
            data["metadata_json"] = _json.dumps(
                meta, default=str, sort_keys=True
            )

        bad = self._corrupted_copy(stack, tmp_path, poison)

        async def scenario():
            async with make_server(stack) as server:
                host, port = server.address
                async with await ServingClient.connect(host, port) as c:
                    with pytest.raises(
                        ServingError, match="swap_rejected"
                    ):
                        await c.swap(str(bad))
                    r = await c.infer(stack["docs"][:1], seed=9)
                    assert r.generation == stack["m1"].generation

        run(scenario())

    def test_digest_stripped_artifact_is_rejected(self, stack, tmp_path):
        """An edited payload whose digest record was deleted is no
        more servable than one whose digest mismatches."""
        from repro.model import TopicModel

        good = TopicModel.load(stack["m2_path"])
        phi = good.phi.copy()
        phi[0, 0] += 1  # totals and top-word index stay consistent
        bad = tmp_path / "bad.npz"
        TopicModel(
            phi=phi, topic_totals=phi.sum(axis=1), alpha=good.alpha,
            beta=good.beta, vocabulary=good.vocabulary,
        ).save(bad)
        with np.load(bad, allow_pickle=False) as z:
            data = {k: z[k] for k in z.files if k != "metadata_json"}
        np.savez_compressed(bad, **data)

        async def scenario():
            async with make_server(stack) as server:
                host, port = server.address
                async with await ServingClient.connect(host, port) as c:
                    with pytest.raises(
                        ServingError, match="swap_rejected"
                    ):
                        await c.swap(str(bad))
                    r = await c.infer(stack["docs"][:1], seed=9)
                    assert r.generation == stack["m1"].generation
                    assert np.array_equal(
                        r.theta,
                        stack["ref1"].transform(stack["docs"][:1], seed=9),
                    )

        run(scenario())

    def test_rejected_candidate_forks_no_worker(
        self, stack, tmp_path, monkeypatch
    ):
        """A candidate that fails its invariants is refused before its
        pool starts, and every fork happens on the loop thread: at
        ``start()``, after a good swap's load thread has ended, and at a
        watchdog restart."""
        import json as _json
        import multiprocessing

        from repro import faults
        from repro.integrity import integrity_record
        from repro.model import parallel_inference

        spawns = []
        spawn = parallel_inference.spawn_workers

        def counted(*args, **kwargs):
            spawns.append((
                len(args[1]),
                threading.current_thread() is threading.main_thread(),
                [t.name for t in threading.enumerate()
                 if t.name == "repro-swap-load"],
            ))
            return spawn(*args, **kwargs)

        monkeypatch.setattr(parallel_inference, "spawn_workers", counted)
        loads = []
        load = ServingServer._load

        def spied_load(model):
            loads.append(threading.current_thread().name)
            return load(model)

        monkeypatch.setattr(ServingServer, "_load", staticmethod(spied_load))

        def poison(data):
            data["alpha"] = np.float64(np.inf)
            meta = _json.loads(str(data.pop("metadata_json")))
            meta["integrity"] = integrity_record(data)
            data["metadata_json"] = _json.dumps(
                meta, default=str, sort_keys=True
            )

        bad = self._corrupted_copy(stack, tmp_path, poison)

        def children() -> set[int]:
            return {p.pid for p in multiprocessing.active_children()}

        async def scenario():
            async with make_server(
                stack, num_workers=2, dispatch_timeout_s=0.3
            ) as server:
                host, port = server.address
                workers = children()
                assert len(workers) == 2
                async with await ServingClient.connect(host, port) as c:
                    with pytest.raises(
                        ServingError, match="swap_rejected"
                    ):
                        await c.swap(str(bad))
                    assert children() == workers
                    r = await c.infer(stack["docs"][:1], seed=9)
                    assert r.generation == stack["m1"].generation
                    # Armed now, the fault rides only the swapped pool's
                    # plans: its first workers wedge, and the watchdog
                    # kills them and restarts the pool.
                    faults.install("serve_hang@op=infer,delay_ms=5000")
                    await c.swap(stack["m2_path"])
                    with pytest.raises(
                        ServingError, match="inference_failed"
                    ):
                        await c.infer(stack["docs"][:1], seed=9)
                    r = await c.infer(stack["docs"][:1], seed=9)
                    assert np.array_equal(
                        r.theta,
                        stack["ref2"].transform(stack["docs"][:1], seed=9),
                    )

        try:
            run(scenario())
        finally:
            faults.reset()
        assert loads == [
            "MainThread", "repro-swap-load", "repro-swap-load",
        ]
        assert spawns == [(2, True, [])] * 3

    def test_successful_swap_reports_verified_integrity(self, stack):
        async def scenario():
            async with make_server(stack) as server:
                host, port = server.address
                async with await ServingClient.connect(host, port) as c:
                    swapped = await c.swap(stack["m2_path"])
                    integ = swapped["model"]["integrity"]
                    assert integ["status"] == "verified"
                    assert integ["algorithm"] == "sha256"
                    stats = await c.stats()
                    assert (
                        stats["model"]["integrity"]["status"] == "verified"
                    )

        run(scenario())


_V = 150  # the stack fixture's vocabulary

_token = st.one_of(
    st.integers(0, _V - 1),
    st.integers(min_value=_V),
    st.integers(max_value=-1),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.text(max_size=2),
    st.none(),
    st.lists(st.integers(0, _V - 1), max_size=2),
)
_doc = st.one_of(
    st.lists(st.integers(0, _V - 1), max_size=6),
    st.lists(_token, max_size=4),
    st.integers(0, _V - 1),
    st.text(max_size=2),
)
_docs = st.one_of(
    st.lists(_doc, max_size=3),
    st.lists(st.lists(st.integers(0, _V - 1), max_size=0), min_size=1, max_size=2),
    st.none(),
    st.integers(),
)


def _servable(docs) -> bool:
    return isinstance(docs, list) and len(docs) > 0 and all(
        isinstance(d, list)
        and all(type(t) is int and 0 <= t < _V for t in d)
        for d in docs
    )


class TestInferEdgeInputs:
    """Odd ``infer`` requests: each gets exactly one typed reply, and the
    connection keeps serving."""

    @settings(max_examples=30, deadline=None)
    @given(requests=st.lists(
        st.tuples(_docs, st.integers(0, 2**16)), min_size=1, max_size=4
    ))
    def test_one_typed_reply_each(self, stack, requests):
        assert stack["m1"].num_words == _V
        good = [d.tolist() for d in stack["docs"][:2]]

        async def scenario():
            async with make_server(stack, num_workers=1) as server:
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)
                try:
                    for rid, (docs, seed) in enumerate(
                        [*requests, (good, 1)]
                    ):
                        await write_frame(writer, {
                            "op": "infer", "id": rid, "docs": docs,
                            "seed": seed,
                        })
                        reply = await asyncio.wait_for(read_frame(reader), 30)
                        assert reply["id"] == rid
                        if not _servable(docs):
                            assert reply["type"] == "error"
                            assert reply["error"] == "invalid_request"
                            continue
                        assert reply["type"] == "result", reply
                        want = stack["ref1"].transform(
                            [np.asarray(d, dtype=np.int64) for d in docs],
                            seed=seed,
                        )
                        got = np.asarray(reply["theta"], dtype=np.float64)
                        assert np.array_equal(got, want)
                        for d, row in zip(docs, got):
                            if not d:
                                assert np.all(row == 1.0 / want.shape[1])
                    await write_frame(writer, {"op": "ping", "id": "last"})
                    reply = await asyncio.wait_for(read_frame(reader), 30)
                    assert (reply["type"], reply["id"]) == ("pong", "last")
                finally:
                    writer.close()
                    await writer.wait_closed()

        run(scenario())


class TestProtocolAdversarial:
    """Hostile framing: typed errors or clean closes — never a wedge."""

    def test_frame_reassembles_across_byte_sized_chunks(self):
        async def scenario():
            reader = asyncio.StreamReader()
            wire = encode_frame({"op": "ping", "id": 7})
            task = asyncio.ensure_future(read_frame(reader))
            for i in range(len(wire)):
                reader.feed_data(wire[i: i + 1])
                await asyncio.sleep(0)
            assert await task == {"op": "ping", "id": 7}

        run(scenario())

    def test_oversize_header_gets_bad_frame_and_close(self, stack):
        from repro.serving import MAX_FRAME_BYTES

        async def scenario():
            async with make_server(stack) as server:
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)
                try:
                    writer.write(
                        int(MAX_FRAME_BYTES + 1).to_bytes(4, "big")
                    )
                    await writer.drain()
                    reply = await asyncio.wait_for(read_frame(reader), 10)
                    assert reply["type"] == "error"
                    assert reply["error"] == "bad_frame"
                    assert "announced" in reply["message"]
                    # the server closes its side after a framing error
                    assert await asyncio.wait_for(reader.read(), 10) == b""
                finally:
                    writer.close()
                    await writer.wait_closed()
                # and keeps serving everyone else
                async with await ServingClient.connect(host, port) as c:
                    assert (await c.ping())["version"] == 1

        run(scenario())

    def test_truncated_frame_then_close_does_not_wedge(self, stack):
        async def scenario():
            async with make_server(stack) as server:
                host, port = server.address
                for partial in (
                    b"\x00",                       # half a header
                    b"\x00\x00\x00\x64",           # header, no payload
                    encode_frame({"op": "ping"})[:-3],  # payload cut
                ):
                    _, writer = await asyncio.open_connection(host, port)
                    writer.write(partial)
                    await writer.drain()
                    writer.close()
                    await writer.wait_closed()
                async with await ServingClient.connect(host, port) as c:
                    assert (await c.ping())["version"] == 1

        run(scenario())

    def test_garbage_payloads_are_typed_not_fatal(self, stack):
        async def scenario():
            async with make_server(stack) as server:
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)
                try:
                    for payload in (b"{bad json", b"[1,2,3]", b"null"):
                        writer.write(
                            len(payload).to_bytes(4, "big") + payload
                        )
                        await writer.drain()
                        reply = await asyncio.wait_for(
                            read_frame(reader), 10
                        )
                        assert reply["type"] == "error"
                        assert reply["error"] == "bad_frame"
                        # bad_frame ends the connection; reconnect
                        writer.close()
                        await writer.wait_closed()
                        reader, writer = await asyncio.open_connection(
                            host, port
                        )
                    await write_frame(writer, {"op": "ping"})
                    reply = await asyncio.wait_for(read_frame(reader), 10)
                    assert reply["type"] == "pong"
                finally:
                    writer.close()
                    await writer.wait_closed()

        run(scenario())


class TestServeSigterm:
    def test_sigterm_drains_like_sigint(self, stack):
        """`repro serve` under SIGTERM: ready line printed, clean exit 0
        — the graceful-stop contract a process supervisor relies on."""
        import os
        import signal as _signal
        import subprocess
        import sys
        import time

        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        # The with block closes the stdout pipe and reaps the process.
        with subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--model", stack["m1_path"], "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env,
        ) as proc:
            try:
                deadline = time.monotonic() + 60
                ready = ""
                while time.monotonic() < deadline:
                    line = proc.stdout.readline()
                    if "serving" in line:
                        ready = line
                        break
                assert "generation=" in ready, f"no ready line: {ready!r}"
                proc.send_signal(_signal.SIGTERM)
                rc = proc.wait(timeout=30)
                assert rc == 0
            finally:
                if proc.poll() is None:
                    proc.kill()
