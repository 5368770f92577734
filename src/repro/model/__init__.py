"""repro.model — first-class trained-model artifacts and inference.

Training produces a :class:`TopicModel`: a frozen, validated artifact
(topic-word counts, hyper-parameters, optional vocabulary, metadata)
that every registered algorithm can export
(:meth:`repro.api.LdaTrainer.export_model`) and that persists in a
versioned ``.npz`` format (:mod:`repro.model.serialize`).  Serving that
artifact is :class:`InferenceSession`: batched theta-explicit fold-in
Gibbs sampling, every token of many documents drawn at once per sweep,
deterministic under a seed and per-document independent of how the
documents are batched.  Because phi is frozen during serving,
``InferenceSession(num_workers=N)`` additionally fans batches out over
persistent OS workers sharing one read-only model arena
(:mod:`repro.model.parallel_inference`) — no synchronization,
bit-identical results for any worker count.

::

    trainer = repro.create_trainer("warplda", corpus, topics=64)
    trainer.fit(50)
    model = trainer.export_model()
    model.save("model.npz")

    model = repro.model.TopicModel.load("model.npz")
    session = repro.model.InferenceSession(model)
    theta = session.transform(new_corpus, seed=0)     # (D, K) mixtures
    print(session.score(new_corpus).perplexity)
"""

from repro.model.artifact import TopicModel, make_lineage
from repro.model.inference import InferenceSession, ScoreResult
from repro.model.parallel_inference import InferenceWorkerPool
from repro.model.serialize import (
    SCHEMA_VERSION,
    load_topic_model,
    save_topic_model,
)

__all__ = [
    "TopicModel",
    "InferenceSession",
    "InferenceWorkerPool",
    "ScoreResult",
    "SCHEMA_VERSION",
    "make_lineage",
    "save_topic_model",
    "load_topic_model",
]
