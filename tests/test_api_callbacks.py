"""Callback system: cadence, early stopping, checkpointing, progress."""

from __future__ import annotations

import io

import pytest

from repro.api import (
    Callback,
    Checkpointer,
    EarlyStopping,
    LikelihoodCadence,
    ProgressLogger,
    create_trainer,
)
from repro.api.callbacks import likelihood_needed
from repro.core.snapshot import load_checkpoint
from repro.corpus.synthetic import generate_synthetic_corpus, small_spec


@pytest.fixture(scope="module")
def corpus():
    return generate_synthetic_corpus(
        small_spec(num_docs=40, num_words=80, mean_doc_len=15, num_topics=4),
        seed=3,
    )


def culda(corpus, **kw):
    return create_trainer("culda", corpus, topics=8, seed=1, **kw)


class TestLikelihoodCadence:
    def test_cadence_overrides_default(self, corpus):
        trainer = culda(corpus)
        result = trainer.fit(4, callbacks=[LikelihoodCadence(2)])
        lls = [r.log_likelihood_per_token for r in result.records]
        assert lls[0] is None and lls[2] is None
        assert lls[1] is not None and lls[3] is not None

    def test_zero_cadence_disables(self, corpus):
        trainer = culda(corpus)
        result = trainer.fit(2, callbacks=[LikelihoodCadence(0)])
        assert all(r.log_likelihood_per_token is None for r in result.records)

    def test_resolution_helper(self):
        assert likelihood_needed([], 0, 1) is True
        assert likelihood_needed([], 0, 2) is False
        assert likelihood_needed([], 1, 2) is True
        assert likelihood_needed([], 5, 0) is False
        assert likelihood_needed([LikelihoodCadence(3)], 2, 0) is True
        assert likelihood_needed([LikelihoodCadence(3)], 1, 1) is False
        assert likelihood_needed([EarlyStopping()], 1, 0) is True

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            LikelihoodCadence(-1)


class TestEarlyStopping:
    def test_stops_on_plateau(self, corpus):
        trainer = culda(corpus)
        # A huge min_delta means nothing ever counts as improvement, so
        # the plateau trips after exactly `patience` post-best records.
        cb = EarlyStopping(patience=2, min_delta=1e9)
        result = trainer.fit(20, callbacks=[cb])
        assert result.early_stopped
        assert result.num_iterations == 3  # best at iter 0, stale at 1 and 2
        assert cb.stopped_iteration == 2

    def test_no_stop_while_improving(self, corpus):
        trainer = culda(corpus)
        cb = EarlyStopping(patience=50, min_delta=0.0)
        result = trainer.fit(4, callbacks=[cb])
        assert not result.early_stopped
        assert result.num_iterations == 4

    def test_forces_likelihood(self, corpus):
        trainer = culda(corpus)
        result = trainer.fit(
            2, callbacks=[EarlyStopping(patience=99)], likelihood_every=0
        )
        assert all(
            r.log_likelihood_per_token is not None for r in result.records
        )

    def test_all_callbacks_observe_records(self, corpus):
        seen: list[int] = []

        class Recorder(Callback):
            def on_iteration_end(self, trainer, record):
                seen.append(record.iteration)
                return None

        stopper = EarlyStopping(patience=1, min_delta=1e9)
        # Recorder placed *after* the stopper must still see every record.
        culda(corpus).fit(10, callbacks=[stopper, Recorder()])
        assert seen == [0, 1]

    def test_validation(self):
        with pytest.raises(ValueError):
            EarlyStopping(patience=0)
        with pytest.raises(ValueError):
            EarlyStopping(min_delta=-1.0)


class TestCheckpointer:
    def test_saves_resumable_checkpoint(self, corpus, tmp_path):
        path = tmp_path / "ck.npz"
        trainer = culda(corpus)
        cb = Checkpointer(path, every=2)
        trainer.fit(4, callbacks=[cb])
        # A fixed path is overwritten in place: one live file, listed once.
        assert cb.saved == [path]
        assert not cb.skipped
        state = load_checkpoint(path, corpus)
        assert state.num_tokens == corpus.num_tokens

    def test_iteration_template(self, corpus, tmp_path):
        trainer = culda(corpus)
        cb = Checkpointer(tmp_path / "ck-{iteration}.npz", every=2)
        trainer.fit(4, callbacks=[cb])
        assert [p.name for p in cb.saved] == ["ck-1.npz", "ck-3.npz"]

    def test_skips_model_only_algorithms(self, corpus, tmp_path):
        trainer = create_trainer("plain_cgs", corpus, topics=6)
        cb = Checkpointer(tmp_path / "ck.npz", every=1)
        trainer.fit(1, callbacks=[cb])
        assert cb.skipped and not cb.saved

    def test_saves_are_load_verified(self, corpus, tmp_path):
        from repro.integrity import verify_artifact

        trainer = culda(corpus)
        cb = Checkpointer(tmp_path / "ck-{iteration}.npz", every=2)
        trainer.fit(2, callbacks=[cb])
        assert not cb.verify_failures
        assert verify_artifact(cb.saved[0])["status"] == "verified"

    def test_failed_verification_never_prunes_older_saves(
        self, corpus, tmp_path, monkeypatch
    ):
        """A torn final write must not destroy the last good checkpoint:
        the bad file is quarantined, keep_last pruning is skipped."""
        import repro.api.callbacks as cb_mod

        trainer = culda(corpus)
        cb = Checkpointer(tmp_path / "ck-{iteration}.npz", every=1,
                          keep_last=1)
        trainer.fit(2, callbacks=[cb])
        assert [p.name for p in cb.saved] == ["ck-1.npz"]  # pruned to 1
        good = list(cb.saved)

        real = cb_mod.verify_artifact

        def corrupt_report(path):
            report = real(path)
            report.update(status="corrupt", detail="injected bit rot")
            return report

        monkeypatch.setattr(cb_mod, "verify_artifact", corrupt_report)
        with pytest.warns(RuntimeWarning, match="NOT pruned"):
            trainer.fit(1, callbacks=[cb])
        # the suspect write is quarantined, the good file untouched
        assert cb.saved == good
        assert good[0].exists()
        assert [p.name for p in cb.verify_failures] == ["ck-2.npz"]


class TestProgressLogger:
    def test_logs_progress(self, corpus):
        buf = io.StringIO()
        trainer = culda(corpus)
        trainer.fit(2, callbacks=[ProgressLogger(every=1, stream=buf)])
        out = buf.getvalue()
        assert "[culda] training for up to 2 iterations" in out
        assert "iter 1:" in out and "iter 2:" in out
        assert "tokens/s" in out and "LL/token" in out
        assert "[culda] done: 2 iterations" in out

    def test_every_filters_lines(self, corpus):
        buf = io.StringIO()
        trainer = culda(corpus)
        trainer.fit(4, callbacks=[ProgressLogger(every=2, stream=buf)])
        out = buf.getvalue()
        assert "iter 2:" in out and "iter 4:" in out
        assert "iter 1:" not in out and "iter 3:" not in out

