from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from pers import tensorkit as tk
from pers.codefeat import PrecomputedSource
from pers.dataio import Interaction, LearnerSequence, MaskedWindow, Vocabulary


def interaction(
    lid="u1",
    eid="p0",
    ts=0,
    status="accepted",
    t_ms=8,
    m_kb=64,
    code=None,
    ref=None,
):
    return Interaction(lid, eid, ts, status, t_ms, m_kb, code=code, code_vec_ref=ref)


def window_of(exercise_ids, lid="u1", statuses=None, with_refs=False, target_steps=None):
    """A MaskedWindow over the given exercise ids, one event per second."""
    events = []
    for t, eid in enumerate(exercise_ids):
        status = statuses[t] if statuses else "accepted"
        ref = f"{lid}:{t}" if with_refs else None
        events.append(interaction(lid, eid, ts=t, status=status, ref=ref))
    if target_steps is None:
        target_steps = tuple(range(len(events) - 1))
    return MaskedWindow(LearnerSequence(lid, tuple(events)), tuple(target_steps))


def vocab_for(exercise_ids):
    return Vocabulary(exercise_ids)


def source_for(windows, d_c, seed=0):
    """Deterministic precomputed vectors covering every ref in the windows."""
    rng = np.random.default_rng(seed)
    table = {}
    for mw in windows:
        for ev in mw.window.events:
            if ev.code_vec_ref is not None and ev.code_vec_ref not in table:
                table[ev.code_vec_ref] = rng.normal(size=d_c)
    return PrecomputedSource(table, d_c)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def watch_runs(monkeypatch):
    """watch_runs(module) wraps module.run_window: each call asserts that
    every run returned before it is already freed. The cyclic collector is
    off meanwhile, so a run counts as freed only once reference counting
    has dropped it, tape and all."""
    was_enabled = gc.isenabled()
    gc.disable()

    def watch(module):
        refs = []
        original = module.run_window

        def run_window(*args, **kwargs):
            assert all(ref() is None for ref in refs), f"run {len(refs)} still alive at the next call"
            run = original(*args, **kwargs)
            refs.append(weakref.ref(run))
            return run

        monkeypatch.setattr(module, "run_window", run_window)
        return refs

    yield watch
    if was_enabled:
        gc.enable()


@pytest.fixture
def watch_tensors(monkeypatch):
    """watch_tensors() returns a list that collects every tk.Tensor built
    from then on, so a test can check what a call recorded."""

    def watch():
        built = []
        original = tk.Tensor.__init__

        def init(self, *args, **kwargs):
            original(self, *args, **kwargs)
            built.append(self)

        monkeypatch.setattr(tk.Tensor, "__init__", init)
        return built

    return watch
