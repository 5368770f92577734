#!/usr/bin/env python
"""Serving smoke: a real ``repro serve`` process under concurrent load.

End-to-end drill of the streaming serving tier through its OS-process
entry point (the same path an operator runs), not the in-process test
harness:

1. train two tiny models (generation 2 knows generation 1 as parent),
2. start ``python -m repro serve`` as a subprocess and parse its ready
   line,
3. run 8 concurrent clients, each verifying its responses are
   **bit-identical** to in-process inference on the served generation,
4. send one wide request and check it the same way; the server folds
   every request on its worker pool, and none in-process,
5. hot-swap to the second model while traffic flows (zero drops
   asserted),
6. shut the server down over the protocol and assert a clean exit.

Exit code 0 means every step held.  CI runs this as the non-gating
serve-smoke job; locally::

    PYTHONPATH=src python examples/serving_smoke.py
"""

from __future__ import annotations

import asyncio
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import repro
from repro.corpus.synthetic import generate_synthetic_corpus, small_spec
from repro.model import InferenceSession, TopicModel
from repro.serving import ServingClient

NUM_CLIENTS = 8
REQUESTS_PER_CLIENT = 4
#: Documents in the wide request, dealt over every worker of the pool.
WIDE_DOCS = 64
SWEEPS, BURN = 8, 3
READY = re.compile(r"generation=(\S+) on (\S+):(\d+)")


def train_models(tmp: Path) -> tuple[Path, Path]:
    # K=40 and K=24: every fold-in draw crosses blocks of 16 topics, and
    # both models end in a zero-padded block.
    corpus = generate_synthetic_corpus(
        small_spec(num_docs=150, num_words=200, mean_doc_len=30,
                   num_topics=6),
        seed=11,
    )
    t1 = repro.create_trainer("culda", corpus, topics=40, seed=1)
    t1.fit(3, likelihood_every=0)
    m1 = t1.export_model()
    m1.save(tmp / "gen1.npz")
    t2 = repro.create_trainer("culda", corpus, topics=24, seed=2)
    t2.fit(3, likelihood_every=0)
    t2.export_model(parent=m1.generation).save(tmp / "gen2.npz")
    return tmp / "gen1.npz", tmp / "gen2.npz"


async def drive(host: str, port: int, m1: Path, m2: Path) -> None:
    ref1 = InferenceSession(TopicModel.load(m1), num_sweeps=SWEEPS,
                            burn_in=BURN)
    ref2 = InferenceSession(TopicModel.load(m2), num_sweeps=SWEEPS,
                            burn_in=BURN)
    gen1 = ref1.model.generation
    gen2 = ref2.model.generation
    rng = np.random.default_rng(0)
    docs = [rng.integers(0, 200, size=n).tolist() for n in
            rng.integers(5, 40, size=NUM_CLIENTS * 3)]
    answered = {"pre": 0, "post": 0}

    async def client(cid: int, phase: str) -> None:
        async with await ServingClient.connect(host, port) as c:
            for i in range(REQUESTS_PER_CLIENT):
                mine = docs[cid * 3: cid * 3 + 3]
                seed = cid * 1000 + i
                r = await c.infer(mine, seed=seed)
                ref = ref1 if r.generation == gen1 else ref2
                expect = ref.transform(
                    [np.asarray(d, dtype=np.int64) for d in mine],
                    seed=seed,
                )
                assert np.array_equal(r.theta, expect), (
                    f"client {cid} ({phase}): served theta diverged from "
                    f"in-process inference on generation {r.generation}"
                )
                answered[phase] += 1

    # concurrent clients against generation 1
    await asyncio.gather(*[client(c, "pre") for c in range(NUM_CLIENTS)])

    # one wide request, dealt over the worker pool
    wide = [rng.integers(0, 200, size=n) for n in
            rng.integers(5, 40, size=WIDE_DOCS)]
    async with await ServingClient.connect(host, port) as c:
        r = await c.infer([d.tolist() for d in wide], seed=7)
        assert np.array_equal(r.theta, ref1.transform(wide, seed=7)), (
            "wide request: served theta diverged from in-process inference"
        )
        stats = await c.stats()
    routed = stats["inference"]["routed"]
    assert routed["in_process"] == 0, (
        f"the server folded in-process: routed {routed}"
    )
    assert routed["pool"] >= 1, "the wide request did not reach the pool"
    print(f"wide request of {WIDE_DOCS} documents bit-identical "
          f"({stats['num_workers']} workers, routed {routed})")

    # hot swap while a fresh wave of traffic flows
    async with await ServingClient.connect(host, port) as admin:
        wave = [
            asyncio.get_running_loop().create_task(client(c, "post"))
            for c in range(NUM_CLIENTS)
        ]
        swapped = await admin.swap(str(m2))
        assert swapped["generation"] == gen2, "swap installed the wrong model"
        assert swapped["lineage"]["parent"] == gen1, "lineage chain broken"
        await asyncio.gather(*wave)
        post = await admin.infer(docs[:1], seed=99)
        assert post.generation == gen2, "post-swap request hit the old model"
        stats = await admin.stats()
        assert stats["latency"]["swaps"] == 1
        assert stats["latency"]["completed"] >= answered["pre"] + answered["post"]

    total = answered["pre"] + answered["post"]
    expected = 2 * NUM_CLIENTS * REQUESTS_PER_CLIENT
    assert total == expected, f"dropped requests: {total}/{expected}"
    print(f"{total} requests answered bit-identically across a hot swap "
          f"({answered['pre']} on {gen1}, then mixed onto {gen2})")

    async with await ServingClient.connect(host, port) as c:
        assert (await c.shutdown())["type"] == "bye"


def main() -> int:
    tmp = Path(tempfile.mkdtemp(prefix="repro-serve-smoke-"))
    m1, m2 = train_models(tmp)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--model", str(m1),
         "--port", "0", "--sweeps", str(SWEEPS), "--burn-in", str(BURN)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        ready = proc.stdout.readline()
        m = READY.search(ready)
        assert m, f"no ready line from the server, got: {ready!r}"
        host, port = m.group(2), int(m.group(3))
        print(f"server up: generation {m.group(1)} on {host}:{port}")
        asyncio.run(asyncio.wait_for(drive(host, port, m1, m2), timeout=300))
        rc = proc.wait(timeout=60)
        assert rc == 0, f"server exited with {rc}"
        print("clean shutdown; serving smoke OK")
        return 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    raise SystemExit(main())
