"""Dense float64 tensors with reverse-mode gradients.

All model arithmetic is built from the small op set below. Ops evaluate
eagerly. An op records its inputs and a vjp only when a `Parameter`
feeds it, directly or through recorded ops, so a computation on
parameters is a DAG of `Tensor` nodes that `backward` walks in reverse
topological order, and the same ops on constants alone record nothing
and free their inputs at once. Shapes are
explicit: the only implicit broadcast is the row-wise bias of `affine`
and of the two losses, which each apply their own affine output layer in
one node. `linear_scan` runs a linear recurrence along the time axis of
a batch of sequences in one node, so a whole unrolled window stays a
short tape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

import numpy as np

__all__ = [
    "Tensor",
    "Parameter",
    "ShapeError",
    "NonScalarRootError",
    "tensor",
    "parameter",
    "matmul",
    "sub",
    "affine",
    "hadamard",
    "tanh",
    "linear_scan",
    "concat",
    "gather_rows",
    "gather_bags",
    "cross_entropy",
    "bce_with_negatives",
    "backward",
    "AdamState",
    "adam_step",
    "finite_diff_check",
]


class ShapeError(ValueError):
    """Operands of an op do not have the documented shapes."""


class NonScalarRootError(ValueError):
    """backward() was asked to differentiate a non-scalar node."""


class Tensor:
    """One node of the computation graph.

    Leaves hold data (parameters or constants); interior nodes remember
    their parents and a vjp closure mapping the output gradient to parent
    gradients. An op's result is an interior node only when one of its
    inputs is a `Parameter` or an interior node itself; otherwise no
    gradient can reach it, and it is a constant leaf that keeps neither.
    `data` is never mutated after construction.
    """

    __slots__ = ("data", "parents", "vjp", "name")

    def __init__(
        self,
        data: np.ndarray,
        parents: tuple["Tensor", ...] = (),
        vjp: Callable[[np.ndarray], tuple[np.ndarray, ...]] | None = None,
        name: str | None = None,
    ):
        self.data = data
        if any(p.parents or isinstance(p, Parameter) for p in parents):
            self.parents, self.vjp = parents, vjp
        else:
            self.parents, self.vjp = (), None
        self.name = name

    @property
    def dims(self) -> list[int]:
        return list(self.data.shape)

    def __repr__(self) -> str:
        tag = self.name or ("leaf" if not self.parents else "op")
        return f"Tensor({tag}, dims={self.dims})"


class Parameter(Tensor):
    """A trainable leaf: the ops it feeds record a tape for `backward`."""

    __slots__ = ()


def tensor(values, name: str | None = None) -> Tensor:
    """Wrap values as a constant leaf (row-major float64); no copy when
    they already are."""
    data = np.ascontiguousarray(values, dtype=np.float64)
    if data.ndim > 2:
        raise ShapeError(f"tensor '{name}': only rank 0/1/2 supported, got {data.ndim}")
    return Tensor(data, name=name)


def parameter(values, name: str) -> Parameter:
    """Wrap values as a named parameter leaf."""
    if not name:
        raise ValueError("parameter needs a non-empty name")
    return Parameter(tensor(values, name).data, name=name)


def _label(t: Tensor) -> str:
    return t.name or f"<{'x'.join(map(str, t.dims))}>"


def _require(cond: bool, op: str, msg: str, *nodes: Tensor) -> None:
    if not cond:
        names = ", ".join(_label(n) for n in nodes)
        raise ShapeError(f"{op}({names}): {msg}")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product: (m,k) @ (k,n) -> (m,n)."""
    _require(a.data.ndim == 2 and b.data.ndim == 2, "matmul", "both operands must be rank 2", a, b)
    _require(
        a.data.shape[1] == b.data.shape[0],
        "matmul",
        f"inner dims differ: {a.dims} vs {b.dims}",
        a,
        b,
    )

    def vjp(g: np.ndarray) -> tuple[np.ndarray, ...]:
        return g @ b.data.T, a.data.T @ g

    return Tensor(a.data @ b.data, (a, b), vjp)


def _same_shape(op: str, a: Tensor, b: Tensor) -> None:
    _require(a.data.shape == b.data.shape, op, f"shapes differ: {a.dims} vs {b.dims}", a, b)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_shape("sub", a, b)
    return Tensor(a.data - b.data, (a, b), lambda g: (g, -g))


def _check_affine(op: str, x: Tensor, w: Tensor, b: Tensor, min_rows: int = 0) -> None:
    """x, w and b chain as the (m,k), (k,n) and (n,) operands of x @ w + b,
    with m >= min_rows."""
    _require(x.data.ndim == 2 and w.data.ndim == 2 and b.data.ndim == 1, op, "need (m,k), (k,n), (n,)", x, w, b)
    chained = x.data.shape[1] == w.data.shape[0] and w.data.shape[1] == b.data.shape[0]
    _require(chained, op, f"dims do not chain: {x.dims} @ {w.dims} + {b.dims}", x, w, b)
    _require(len(x.data) >= min_rows, op, f"x needs at least {min_rows} row", x)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b: (m,k) @ (k,n) plus a length-n bias on every row, in one
    output array."""
    _check_affine("affine", x, w, b)
    out = x.data @ w.data
    out += b.data

    def vjp(g: np.ndarray) -> tuple[np.ndarray, ...]:
        return g @ w.data.T, x.data.T @ g, g.sum(axis=0)

    return Tensor(out, (x, w, b), vjp)


def hadamard(a: Tensor, b: Tensor) -> Tensor:
    _same_shape("hadamard", a, b)
    return Tensor(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data))


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)
    return Tensor(out, (a,), lambda g: (g * (1.0 - out * out),))


def linear_scan(x: Tensor, carry: Tensor | None, length: int) -> Tensor:
    """h_t = h_{t-1} @ carry + x_t along every sequence, from h_{-1} = 0.

    x is (B*length, d) with the rows of each sequence contiguous: row
    b*length + t is step t of sequence b. carry is (d, d), or None for the
    identity, which makes h a running sum. The vjp runs the recurrence
    backwards with carry transposed.
    """
    _require(x.data.ndim == 2, "linear_scan", "x must be rank 2", x)
    n, d = x.data.shape
    _require(length >= 1 and n % length == 0, "linear_scan", f"{n} rows are not whole sequences of {length}", x)
    if carry is not None:
        _require(carry.data.shape == (d, d), "linear_scan", f"carry must be ({d},{d})", x, carry)
    # Time-major views of sequence-major memory (empty_like keeps it), so to_rows copies nothing.
    xs = x.data.reshape(n // length, length, d).transpose(1, 0, 2)
    if carry is None:
        h = np.cumsum(xs, axis=0)
    else:
        c = carry.data
        h = np.empty_like(xs)
        h[0] = xs[0]
        for t in range(1, length):
            h[t] = h[t - 1] @ c + xs[t]

    def to_rows(a: np.ndarray) -> np.ndarray:
        return a.transpose(1, 0, 2).reshape(n, d)

    def vjp(g: np.ndarray) -> tuple[np.ndarray, ...]:
        gs = g.reshape(n // length, length, d).transpose(1, 0, 2)
        if carry is None:
            return (to_rows(np.cumsum(gs[::-1], axis=0)[::-1]),)
        c_t = carry.data.T
        acc = np.empty_like(gs)
        acc[-1] = gs[-1]
        for t in range(length - 2, -1, -1):
            acc[t] = acc[t + 1] @ c_t + gs[t]
        g_x = to_rows(acc)
        h_seq = out.reshape(n // length, length, d)
        g_seq = g_x.reshape(n // length, length, d)
        g_carry = h_seq[:, :-1].reshape(-1, d).T @ g_seq[:, 1:].reshape(-1, d)
        return g_x, g_carry

    out = to_rows(h)
    parents = (x,) if carry is None else (x, carry)
    return Tensor(out, parents, vjp)


def concat(parts: Iterable[Tensor]) -> Tensor:
    """Concatenate matrices column-wise.

    All parts must be rank 2 and share their row count, so every row of
    the output is the concatenation of the input rows.
    """
    parts = tuple(parts)
    _require(len(parts) >= 1, "concat", "needs at least one part")
    _require(all(p.data.ndim == 2 for p in parts), "concat", "every part must be rank 2", *parts)
    rows = parts[0].data.shape[0]
    _require(all(p.data.shape[0] == rows for p in parts), "concat", "row counts differ", *parts)
    splits = np.cumsum([p.data.shape[1] for p in parts])[:-1]

    def vjp(g: np.ndarray) -> tuple[np.ndarray, ...]:
        return tuple(np.split(g, splits, axis=1))

    return Tensor(np.concatenate([p.data for p in parts], axis=1), parts, vjp)


def gather_rows(table: Tensor, indices: np.ndarray) -> Tensor:
    """Select rows of a (V,d) table: result[i] = table[indices[i]].

    Indices are a constant array, not a graph node; the
    gradient scatter-adds back into the table rows.
    """
    _require(table.data.ndim == 2, "gather_rows", "table must be rank 2", table)
    idx = np.asarray(indices)
    if not np.issubdtype(idx.dtype, np.integer) or idx.ndim != 1:
        raise ShapeError("gather_rows: indices must be a 1-D integer array")
    if idx.size and (idx.min() < 0 or idx.max() >= table.data.shape[0]):
        raise ShapeError(
            f"gather_rows({_label(table)}): index out of range 0..{table.data.shape[0] - 1}"
        )
    return Tensor(table.data[idx], (table,), lambda g: (_scatter_rows(table.data.shape, idx, g),))


def gather_bags(table: Tensor, store: tuple[np.ndarray, np.ndarray, np.ndarray], numbers: np.ndarray) -> Tensor:
    """result[i] = sum of weights[e] * table[ids[e]] over the entries e of
    bag numbers[i] of the CSR store (ids, weights, offsets), whose bag n is
    entries offsets[n] to offsets[n+1]; bag -1 is empty, a zero row. Each
    row adds its entries in store order, the first as an assignment, so a
    one-entry bag of weight 1 is that table row bitwise.
    """
    _require(table.data.ndim == 2, "gather_bags", "table must be rank 2", table)
    ids, weights, offsets = store
    numbers = np.asarray(numbers)
    n_bags = len(offsets) - 1
    in_range = not numbers.size or -1 <= numbers.min() <= numbers.max() < n_bags
    if numbers.dtype.kind != "i" or numbers.ndim != 1 or not in_range:
        raise ShapeError(f"gather_bags: numbers must be a 1-D integer array of bags -1..{n_bags - 1}")
    starts = offsets[numbers]
    sizes = np.where(numbers < 0, 0, offsets[numbers + 1] - starts)
    # Rows by decreasing bag size, so slot j adds to a prefix: the rows with more than j entries.
    order = np.argsort(-sizes, kind="stable")
    first = starts[order]
    acc = np.zeros((len(numbers), table.data.shape[1]))
    for j, count in enumerate(len(sizes) - np.cumsum(np.bincount(sizes))[:-1]):
        at = first[:count] + j
        term = np.take(table.data, ids[at], axis=0)
        term *= weights[at][:, None]
        if j:
            term += acc[:count]
        acc[:count] = term
    out = np.empty_like(acc)
    out[order] = acc

    def vjp(g: np.ndarray) -> tuple[np.ndarray, ...]:
        # Every entry, row after row, each row's in store order.
        rows = np.repeat(np.arange(len(numbers)), sizes)
        entries = np.arange(len(rows)) + np.repeat(starts - (np.cumsum(sizes) - sizes), sizes)
        vals = np.take(g, rows, axis=0)
        vals *= weights[entries][:, None]
        return (_scatter_rows(table.data.shape, ids[entries], vals),)

    return Tensor(out, (table,), vjp)


def _scatter_rows(shape: tuple[int, int], rows: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """The (V,d) sum of the (n,d) vals into rows `rows`. Bin r*d + c is
    [r, c]; each bin sums its values in input order from 0.0, as np.add.at
    would, so the bits are the same."""
    v, d = shape
    flat = (rows[:, None] * d + np.arange(d)).reshape(-1)
    return np.bincount(flat, vals.reshape(-1), v * d).reshape(v, d)


def cross_entropy(x: Tensor, w: Tensor, b: Tensor, targets: np.ndarray, class_mask: np.ndarray) -> Tensor:
    """Mean negative log softmax probability of each row's target class
    under the logits x @ w + b, for (B,k) x with B >= 1, (k,M) w, (M,) b
    and (B,) int targets.

    Classes where class_mask is False are excluded from the softmax
    entirely (they get probability 0 and no gradient), which realises the
    padding/unknown mask without -inf arithmetic. The logits are one (B,M)
    buffer, computed as `affine` computes them and then turned into the
    softmax in place; the vjp turns it into the gradient of the logits
    and applies `affine`'s vjp to that.
    """
    _check_affine("cross_entropy", x, w, b, min_rows=1)
    bsz, m = x.data.shape[0], w.data.shape[1]
    targets = np.asarray(targets)
    class_mask = np.asarray(class_mask, dtype=bool)
    if targets.shape != (bsz,) or class_mask.shape != (m,):
        raise ShapeError("cross_entropy: targets/class_mask shapes do not line up")
    if np.any(~class_mask[targets]):
        raise ValueError("cross_entropy: a masked-out class appears as a target")

    # One (B,M) buffer, updated in place: for the targets of a whole batch
    # a fresh temporary of this size costs more than the arithmetic on it.
    expz = x.data @ w.data
    expz += b.data
    z_t = expz[np.arange(bsz), targets]
    expz[:, ~class_mask] = -np.inf
    zmax = expz.max(axis=1, keepdims=True)
    np.exp(np.subtract(expz, zmax, out=expz), out=expz)
    denom = expz.sum(axis=1, keepdims=True)
    log_denom = np.log(denom) + zmax
    nll = log_denom[:, 0] - z_t
    value = float(nll.sum() / bsz)

    probs = np.divide(expz, denom, out=expz)  # rows over allowed classes only

    def vjp(g: np.ndarray) -> tuple[np.ndarray, ...]:
        scale = float(g) / bsz
        grad = probs * scale
        grad[np.arange(bsz), targets] -= scale
        return grad @ w.data.T, x.data.T @ grad, grad.sum(axis=0)

    return Tensor(np.asarray(value), (x, w, b), vjp)


def bce_with_negatives(x: Tensor, w: Tensor, b: Tensor, cols: np.ndarray) -> Tensor:
    """Sampled binary objective over the chosen logits z[i, j] = x[i] .
    w[:, cols[i, j]] + b[cols[i, j]], for (B,k) x with B >= 1, (k,n) w,
    (n,) b and (B, 1+K) integer cols whose column 0 is each row's target
    and columns 1..K its negatives: the mean over the rows of
    -log sig(z_target) - sum log(1 - sig(z_neg)).

    Only the B*(1+K) chosen logits are computed; the vjp scatter-adds
    into the chosen columns of w and b, so no (B, n) array is built. A
    column may repeat within a row and across rows.
    """
    _check_affine("bce_with_negatives", x, w, b, min_rows=1)
    cols = np.asarray(cols)
    m, k = x.data.shape
    n = w.data.shape[1]
    if not np.issubdtype(cols.dtype, np.integer) or cols.ndim != 2 or cols.shape[0] != m or cols.shape[1] < 1:
        raise ShapeError(f"bce_with_negatives: cols must be an ({m},1+K) integer array")
    if cols.min() < 0 or cols.max() >= n:
        raise ShapeError(f"bce_with_negatives({_label(w)}): column out of range 0..{n - 1}")
    w_cols = w.data.T[cols]  # (B, 1+K, k): each row's chosen columns of w
    z = np.einsum("mk,mck->mc", x.data, w_cols)
    z += b.data[cols]
    # softplus(-z_target) + sum softplus(z_neg), numerically stable
    per_row = np.logaddexp(0.0, -z[:, 0]) + np.logaddexp(0.0, z[:, 1:]).sum(axis=1)
    value = float(per_row.sum() / m)

    def vjp(g: np.ndarray) -> tuple[np.ndarray, ...]:
        grad = 1.0 / (1.0 + np.exp(-z))
        grad[:, 0] -= 1.0
        grad *= float(g) / m
        g_x = np.einsum("mc,mck->mk", grad, w_cols)
        g_w = _scatter_rows((n, k), cols.reshape(-1), grad[:, :, None] * x.data[:, None, :]).T
        g_b = np.bincount(cols.reshape(-1), grad.reshape(-1), n)
        return g_x, g_w, g_b

    return Tensor(np.asarray(value), (x, w, b), vjp)


def _topo_order(root: Tensor) -> list[Tensor]:
    """Reverse-postorder DFS, iterative (graphs can be thousands deep)."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(root: Tensor, params: Mapping[str, Tensor]) -> dict[str, np.ndarray]:
    """Gradients of a scalar root w.r.t. every named parameter.

    Parameters that the root does not depend on get zero gradients of the
    right shape, so optimizers can treat the result as total. Only ops
    that a parameter feeds are on the tape, so every recorded node is
    walked. Raises ValueError when a `params` value is not a `Parameter`
    or when the root recorded no tape: either would give silent zeros.
    """
    if root.data.shape not in ((), (1,)):
        raise NonScalarRootError(f"backward root must be scalar, got dims {root.dims}")
    for name, p in params.items():
        if not isinstance(p, Parameter):
            raise ValueError(f"backward: params['{name}'] is not a Parameter, so no op recorded it")
    if not root.parents:
        raise ValueError("backward: the root recorded no tape; no Parameter feeds it")
    order = _topo_order(root)
    grads: dict[int, np.ndarray] = {id(root): np.ones_like(root.data)}
    for node in reversed(order):
        if node.vjp is None:
            continue  # leaves keep their accumulated gradient
        g = grads.pop(id(node), None)
        if g is None:
            continue
        for parent, pg in zip(node.parents, node.vjp(g)):
            acc = grads.get(id(parent))
            if acc is None:
                grads[id(parent)] = pg
            else:
                acc += pg
    return {
        name: grads.get(id(p), np.zeros_like(p.data)) for name, p in params.items()
    }


@dataclass
class AdamState:
    """First/second moment buffers plus the step counter."""

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0


def adam_step(
    params: Mapping[str, Tensor],
    grads: Mapping[str, np.ndarray],
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> dict[str, Parameter]:
    """One Adam update; returns fresh `Parameter`s, mutates `state`."""
    state.t += 1
    t = state.t
    out: dict[str, Parameter] = {}
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.data.shape:
            raise ShapeError(f"adam_step: gradient shape {list(g.shape)} != param '{name}' {p.dims}")
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            state.m[name] = m
            state.v[name] = np.zeros_like(p.data)
        v = state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        mhat = m / (1.0 - beta1**t)
        vhat = v / (1.0 - beta2**t)
        out[name] = Parameter(p.data - lr * mhat / (np.sqrt(vhat) + eps), name=name)
    return out


def finite_diff_check(
    loss_fn: Callable[[Mapping[str, Tensor]], Tensor],
    params: Mapping[str, Tensor],
    name: str,
    h: float = 1e-5,
) -> float:
    """Max relative error between backward() and central differences.

    loss_fn rebuilds the scalar graph from the given parameters, so the
    check perturbs one coordinate at a time and re-runs the whole forward
    pass. Expensive by design; use small dimensions.
    """
    if not (0.0 < h <= 1e-3):
        raise ValueError(f"finite_diff_check: h must be in (0, 1e-3], got {h}")
    analytic = backward(loss_fn(params), params)[name]
    base = params[name].data
    worst = 0.0
    flat = base.reshape(-1)
    for i in range(flat.size):
        bumped = dict(params)
        plus = base.copy().reshape(-1)
        plus[i] += h
        bumped[name] = Tensor(plus.reshape(base.shape), name=name)
        f_plus = float(loss_fn(bumped).data)
        minus = base.copy().reshape(-1)
        minus[i] -= h
        bumped[name] = Tensor(minus.reshape(base.shape), name=name)
        f_minus = float(loss_fn(bumped).data)
        numeric = (f_plus - f_minus) / (2.0 * h)
        a = analytic.reshape(-1)[i]
        err = abs(a - numeric) / max(1.0, abs(a))
        if err > worst:
            worst = err
    return worst
