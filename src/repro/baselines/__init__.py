"""Baseline LDA systems the paper compares against (Section 7.2).

- :mod:`~repro.baselines.plain_cgs` — exact sequential CGS (oracle);
- :mod:`~repro.baselines.warplda` — WarpLDA-style CPU MH baseline;
- :mod:`~repro.baselines.saberlda` — SaberLDA-style GPU baseline;
- :mod:`~repro.baselines.ldastar` — LDA*-style distributed baseline.

Construct a baseline through the unified registry
(``repro.create_trainer("warplda", corpus, ...)``), which normalizes
every system behind one keyword surface; the trainer classes themselves
live in their implementation modules.
"""

from repro.baselines.plain_cgs import PlainCgsModel

__all__ = ["PlainCgsModel"]
