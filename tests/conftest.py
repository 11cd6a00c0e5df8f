from __future__ import annotations

import gc
import math
import weakref

import numpy as np
import pytest

from pers import perscell, tensorkit as tk
from pers.codefeat import PrecomputedSource
from pers.dataio import EventTable, Interaction, LearnerSequence, MaskedWindow, Vocabulary
from pers.simlearner import PROCESSING, UNDERSTANDING


def add(a: tk.Tensor, b: tk.Tensor) -> tk.Tensor:
    """a + b as a recorded op, for the step-by-step oracles: no program
    path adds two nodes."""
    tk._same_shape("add", a, b)
    # Each parent gets its own array: backward accumulates into them in place.
    return tk.Tensor(a.data + b.data, (a, b), lambda g: (g, g.copy()))


def sum_all(a: tk.Tensor) -> tk.Tensor:
    """The scalar sum of a node: the root that gradient tests differentiate."""
    shape = a.data.shape
    return tk.Tensor(np.asarray(a.data.sum()), (a,), lambda g: (np.full(shape, float(g)),))


def rank_event(scores: np.ndarray, target: int) -> int:
    """1-based rank of the target among all candidates, one row at a time:
    the oracle for `evalrank._target_ranks`.

    scores must already carry -inf at the masked indices 0 and 1; equal
    scores rank the smaller index first.
    """
    if target < 2:
        raise ValueError(f"target {target} is a masked index")
    s_t = scores[target]
    greater = int((scores > s_t).sum())
    tied_before = int((scores[:target] == s_t).sum())
    return 1 + greater + tied_before


def split_by_targets(sequences, ratio: float):
    """`dataio.split` as it once ran: every target listed as a (window,
    step) pair in learner order, cut by position, then grouped back into
    windows. The oracle for the split's windows, steps and order."""
    by_learner: dict[str, list[LearnerSequence]] = {}
    for seq in sequences:
        by_learner.setdefault(seq.learner_id, []).append(seq)
    train, test = [], []
    for windows in by_learner.values():
        n_events = sum(len(w) for w in windows)
        targets = [(wi, t) for wi, w in enumerate(windows) for t in range(len(w) - 1)]
        n_test = 0 if n_events < 3 else min(len(targets), math.ceil(ratio * n_events))
        cut = len(targets) - n_test
        train_steps: dict[int, list[int]] = {}
        test_steps: dict[int, list[int]] = {}
        for pos, (wi, t) in enumerate(targets):
            (train_steps if pos < cut else test_steps).setdefault(wi, []).append(t)
        for wi, w in enumerate(windows):
            if wi in train_steps:
                train.append(MaskedWindow(w, tuple(train_steps[wi])))
            if wi in test_steps:
                test.append(MaskedWindow(w, tuple(test_steps[wi])))
    return train, test


def excluded_params(variant: str, names) -> set[str]:
    """Parameter names the variant starves of gradient by construction."""
    dead: set[str] = set()
    if not perscell.uses_code(variant):
        dead |= {"W_2", "status_table", "time_table", "memory_table", "code_table"}
    latent = perscell.ablated_latent(variant)
    if latent == "pa":
        dead |= {"W_5", "b_5", "W_6", "b_6"}
    elif latent == "ps":
        dead |= {"W_4", "b_4", "W_7", "b_7", "W_8", "b_8"}
    elif latent == "us":
        dead |= {"W_9", "b_9", "W_10"}
    return dead & set(names)


def padded_bags(store, numbers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The store's bags `numbers` padded to the largest, K, as (n, K) ids
    and weights, with weight 0 in the unused slots and in every slot of a
    number -1: the layout `padded_gather` reads."""
    ids, weights, offsets = store
    real = numbers >= 0
    starts = np.where(real, offsets[numbers], 0)
    sizes = np.where(real, offsets[numbers + 1] - starts, 0)
    slot = np.arange(sizes.max(initial=0))
    used = slot < sizes[:, None]
    at = np.where(used, starts[:, None] + slot, 0)
    return np.where(used, ids[at], 0), np.where(used, weights[at], 0.0)


def padded_gather(table: tk.Tensor, idx: np.ndarray, w: np.ndarray) -> tk.Tensor:
    """result[i] = sum_k w[i, k] * table[idx[i, k]] over (n, K) padded bags,
    slot by slot from slot 0: the oracle for the bits of `tk.gather_bags`
    and of its gradient."""
    n, k = idx.shape
    out = table.data[idx[:, 0]] * w[:, :1] if k else np.zeros((n, table.data.shape[1]))
    for j in range(1, k):
        out += table.data[idx[:, j]] * w[:, j, None]

    def vjp(g):
        v, d = table.data.shape
        flat = (idx.reshape(-1)[:, None] * d + np.arange(d)).reshape(-1)
        return (np.bincount(flat, (g[:, None, :] * w[:, :, None]).reshape(-1), v * d).reshape(v, d),)

    return tk.Tensor(out, (table,), vjp)


def store_of(bags) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A CSR store (ids, weights, offsets) holding the (rows, weights) bags
    in order."""
    sizes = [len(rows) for rows, _ in bags]
    ids = np.array([i for rows, _ in bags for i in rows], dtype=np.int64)
    weights = np.array([w for _, ws in bags for w in ws], dtype=np.float64)
    return ids, weights, np.concatenate([[0], np.cumsum(sizes, dtype=np.int64)])


def precomputed_bag(source: PrecomputedSource, ev: Interaction):
    """A precomputed source's bag of one event: its vector's row, weight 1."""
    return (int(source.bag_numbers([ev])[0]),), (1.0,)


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


def window_spec(exercise_ids, lid="u1", statuses=None, with_refs=False):
    """(learner_id, events, target_steps) of a window over the given
    exercise ids, one event per second, with a target at every step that
    has a following event: an entry for `table_windows`."""
    events = []
    for t, eid in enumerate(exercise_ids):
        status = statuses[t] if statuses else "accepted"
        ref = f"{lid}:{t}" if with_refs else None
        events.append(interaction(lid, eid, ts=t, status=status, ref=ref))
    return lid, tuple(events), tuple(range(len(events) - 1))


def table_windows(vocab, specs) -> list[MaskedWindow]:
    """The (learner_id, events, target_steps) specs laid out end to end as
    one `EventTable` under vocab, as `build_sequences` lays out a dataset:
    one masked window per spec, over its own rows, in the order given."""
    table = EventTable([ev for _, events, _ in specs for ev in events], vocab)
    windows, start = [], 0
    for lid, events, target_steps in specs:
        windows.append(MaskedWindow(LearnerSequence(lid, table, start, start + len(events)), tuple(target_steps)))
        start += len(events)
    return windows


def uniform_mix() -> dict[tuple[str, str], float]:
    """An even share of learners in each of the four style pairs."""
    return {(p, u): 0.25 for p in PROCESSING for u in UNDERSTANDING}


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
