"""Tape-based reverse-mode automatic differentiation on numpy arrays.

A :class:`Tape` records every primitive applied to tensors that require
gradients, in execution order.  Because the record list is append-only it
is already a topological order of the computation, so backpropagation is a
single reverse walk.  With no active tape every primitive degrades to its
plain numpy forward computation (inference mode).

The stack of active tapes is thread-local: a primitive records on the
innermost tape its own thread entered, so two threads can each record a
computation on their own tape at once and neither record lands on the
other's tape.  ``Tape.walk`` runs the reverse walk from gradients already
on the recorded outputs, so a sub-tape can be walked on its own once
another walk has set them.  ``on_both_threads`` is the one way work runs on
two threads: the calling thread and a caller's one-thread worker.

Only the primitives the model records are implemented, one per fused stage
of the forward pass, each with a hand-written backward whose gradients are
bit for bit those of the chain of single-op records it replaced
(``tests/oracles.py`` keeps it).  Each op validates its input shapes
eagerly so a bad graph fails at construction time, not during the backward
pass.

Every segment sum adds each row's items in item order, starting from +0.0,
as ``np.add.at`` into zeros does, so no sum's rounding depends on how it
is computed.  Node-level sums, where one row may hold any number of items,
are one flat ``np.bincount`` (``_segment_sum``).  The conv's edge sums run
through an ``_EdgePlan`` built once per batch: for each row block, a
``_SegmentLayout`` of its src and, when a tape records, of its dst, which
every layer's forward and backward sums read.
"""

from __future__ import annotations

import contextvars
import threading
from concurrent.futures import wait

import numpy as np


class ShapeMismatch(ValueError):
    pass


class IndexOutOfRange(ValueError):
    pass


class NonScalarLoss(ValueError):
    pass


class _TapeStack(threading.local):
    def __init__(self):
        self.tapes: list[Tape] = []


_ACTIVE = _TapeStack()


def active_tape() -> "Tape | None":
    """The innermost tape the calling thread has entered, or None."""
    tapes = _ACTIVE.tapes
    return tapes[-1] if tapes else None


def on_both_threads(worker, run_a, run_b):
    """(run_a(), run_b()), run_b on ``worker`` in a copy of this thread's context.

    The copy carries ``np.errstate`` over.  An exception from either side
    is raised only once both have finished, a's before b's.  Without a
    worker both run here in turn.  ``run_b`` must not wait on ``worker``
    itself: a one-thread worker would never start that job.
    """
    if worker is None:
        return run_a(), run_b()
    future = worker.submit(contextvars.copy_context().run, run_b)
    try:
        a = run_a()
    finally:
        wait([future])
    return a, future.result()


class Tensor:
    """A float64 array plus an accumulated gradient."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        # ascontiguousarray would promote 0-d scalars to shape (1,)
        self.data = np.ascontiguousarray(arr) if arr.ndim else arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    # gradients are never mutated in place, so the first one can be shared
    if t.grad is None:
        t.grad = g
    else:
        t.grad = t.grad + g


class Tape:
    """Context manager recording (output, backward_fn) pairs."""

    def __init__(self):
        self._records: list[tuple[Tensor, object]] = []

    def __enter__(self) -> "Tape":
        _ACTIVE.tapes.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        popped = _ACTIVE.tapes.pop()
        assert popped is self
        return False

    def record(self, out: Tensor, backward_fn) -> None:
        self._records.append((out, backward_fn))

    def backward(self, loss: Tensor) -> None:
        """Seed d(loss)/d(loss) = 1 and walk the records in reverse."""
        if loss.data.shape != ():
            raise NonScalarLoss(f"backward requires a scalar loss, got shape {loss.data.shape}")
        loss.grad = np.ones((), dtype=np.float64)
        self.walk()

    def walk(self) -> None:
        """Walk the records in reverse from the gradients their outputs hold now."""
        for out, backward_fn in reversed(self._records):
            if out.grad is None:
                continue
            backward_fn(out.grad)


def _segment_sum(x: np.ndarray, index: np.ndarray, n_rows: int) -> np.ndarray:
    """out[index[e]] += x[e] over rows, accumulated in row order.

    One flat bincount over (row, column) cells; it adds in the same order
    as ``np.add.at`` into zeros, so the two agree bitwise.  For node-level
    sums, where one row may hold any number of items: the embedding-table
    gradient and the readout, and a ``_SegmentLayout``'s sums of one
    column.  The conv's edge sums go through its ``_EdgePlan``.
    """
    k = x.shape[1]
    flat = (index[:, None] * k + np.arange(k)).ravel()
    out = np.bincount(flat, weights=x.ravel(), minlength=n_rows * k)
    return out.reshape(n_rows, k)


# A pass costs a numpy call however few rows it adds, so a layout passes only
# while each pass adds at least this many rows; a hub's items would otherwise
# cost a pass each.
_MIN_PASS_ROWS = 4


class _SegmentLayout:
    """One (E,) index into ``n_rows`` rows, laid out once for many sums.

    ``sum(x)`` is ``out[index[e]] += x[e]`` from +0.0, each row's items
    added in item order: the order of ``np.add.at`` into zeros and of
    ``_segment_sum``, so all three agree bitwise.  numpy reduces an axis in
    order, from ``initial``, unless it is the innermost one, which it sums
    pairwise.  So each form below reduces an outer axis of a (.., K) block,
    and a block of one column, K = 1, is one ``_segment_sum``.  The form is
    chosen from the index:

    - Regular: the index is sorted and every row holds ``depth`` items, as
      a neighbor list's src is when every site has its k neighbors.  Then
      ``x`` is an (n_rows, depth, K) view, reduced over its middle axis,
      with no gather: the passes would copy every item.
    - Passes: pass j gathers the j-th item of every row that holds more
      than j; with the rows ordered by count, most first, those rows are a
      prefix, so a pass is one slice add.  Passes run while each adds at
      least ``_MIN_PASS_ROWS`` rows.  The longer rows, fewer than that and
      a hub among them, are each one reduce over their items, a view of
      ``x`` where they lie in one run.

    A layout holds O(E + n_rows) integers, and a sum allocates at most
    O(E K) floats, whatever the degrees.
    """

    def __init__(self, index: np.ndarray, n_rows: int):
        self.index, self.n_rows = index, n_rows
        counts = np.bincount(index, minlength=n_rows)
        self.depth = 0
        if len(index) and counts.min() == counts.max() and (np.diff(index) >= 0).all():
            self.depth = len(index) // n_rows
            return
        order = np.argsort(index, kind="stable")
        starts = np.cumsum(counts) - counts
        by_count = np.argsort(-counts, kind="stable")
        # rows_above[j]: how many rows hold more than j items
        rows_above = n_rows - np.cumsum(np.bincount(counts))
        n_passes = int(np.count_nonzero(rows_above >= _MIN_PASS_ROWS))
        n_long = int(rows_above[n_passes]) if n_passes < len(rows_above) else 0
        n_hit = int(rows_above[0]) if len(rows_above) else 0
        self.rows = by_count[n_long:n_hit]
        self.passes = [order[starts[self.rows[:w]] + j]
                       for j, w in enumerate(rows_above[:n_passes] - n_long)]
        self.long = []
        for row in by_count[:n_long]:
            items = order[starts[row]:starts[row] + counts[row]]
            if items[-1] - items[0] == len(items) - 1:
                items = slice(items[0], items[-1] + 1)
            self.long.append((row, items))

    def sum(self, x: np.ndarray) -> np.ndarray:
        """(n_rows, K) row sums of the (E, K) items ``x``."""
        x = np.ascontiguousarray(x)  # so that K is the innermost axis
        k = x.shape[1]
        if k == 1:
            return _segment_sum(x, self.index, self.n_rows)
        if self.depth:
            return np.add.reduce(x.reshape(self.n_rows, self.depth, k), axis=1, initial=0.0)
        part = np.zeros((len(self.rows), k))
        for items in self.passes:
            part[:len(items)] += np.take(x, items, axis=0)
        out = np.zeros((self.n_rows, k))
        out[self.rows] = part
        for row, items in self.long:
            out[row] = np.add.reduce(x[items], axis=0, initial=0.0)
        return out


# The two elementwise helpers below work in place on one fresh buffer: on
# (E, H) edge blocks a temporary per step costs as much as the arithmetic.


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function 1 / (1 + e^-x), to a few ulp in both tails.

    Below x = -709 the exponential overflows to inf and the result is the
    exact limit 0, so the overflow is not an error.
    """
    y = np.negative(x, out=np.empty(np.shape(x)))
    with np.errstate(over="ignore"):
        np.exp(y, out=y)
    y += 1.0
    return np.divide(1.0, y, out=y)


def _softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + e^x) as max(x, 0) + log1p(e^-|x|): within 2 ulp of
    np.logaddexp(0, x) at a quarter to a half of its cost."""
    y = np.abs(x, out=np.empty(np.shape(x)))
    np.negative(y, out=y)
    np.exp(y, out=y)
    np.log1p(y, out=y)
    y += np.maximum(x, 0.0)
    return y


def _maybe_record(out: Tensor, inputs: tuple[Tensor, ...], backward_fn) -> Tensor:
    out.requires_grad = any(t.requires_grad for t in inputs)
    tape = active_tape()
    if tape is not None and out.requires_grad:
        tape.record(out, backward_fn)
    return out


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------


def scaled_gather(table: Tensor, index: np.ndarray, w: np.ndarray) -> Tensor:
    """Rows ``table[index]``, each scaled by a constant weight: ``table[index] * w[:, None]``."""
    index = np.asarray(index, dtype=np.int64)
    w = np.asarray(w, dtype=np.float64)
    if table.data.ndim != 2 or index.ndim != 1 or w.shape != index.shape:
        raise ShapeMismatch(f"scaled_gather expects a 2-d table and an (N,) index and weight, "
                            f"got {table.data.shape}, {index.shape} and {w.shape}")
    n_rows = table.data.shape[0]
    if index.size and (index.min() < 0 or index.max() >= n_rows):
        raise IndexOutOfRange(f"gather index outside [0, {n_rows})")
    col = w[:, None]
    out = Tensor(table.data[index] * col)

    def backward(g):
        _accum(table, _segment_sum(g * col, index, n_rows))

    return _maybe_record(out, (table,), backward)


def scaled_segment_sum(h: Tensor, w: np.ndarray, index: np.ndarray, n_rows: int) -> Tensor:
    """out[index[i]] += w[i] * h[i]: rows scaled by constant weights, summed per segment."""
    index = np.asarray(index, dtype=np.int64)
    w = np.asarray(w, dtype=np.float64)
    if h.data.ndim != 2 or index.shape != (h.data.shape[0],) or w.shape != index.shape:
        raise ShapeMismatch(f"scaled_segment_sum expects (N, K) rows and an (N,) weight and "
                            f"index, got {h.data.shape}, {w.shape} and {index.shape}")
    if index.size and (index.min() < 0 or index.max() >= n_rows):
        raise IndexOutOfRange(f"segment index outside [0, {n_rows})")
    col = w[:, None]
    out = Tensor(_segment_sum(h.data * col, index, n_rows))

    def backward(g):
        _accum(h, g[index] * col)

    return _maybe_record(out, (h,), backward)


def softplus_mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """Two affine layers with a softplus between them: ``softplus(x W1 + b1) W2 + b2``."""
    shapes = tuple(t.data.shape for t in (x, w1, b1, w2, b2))
    if x.data.ndim != 2 or w2.data.ndim != 2 or shapes[1:] != (
            (x.data.shape[1], w2.data.shape[0]), w2.data.shape[:1],
            w2.data.shape, w2.data.shape[1:]):
        raise ShapeMismatch(f"softplus_mlp shapes x, w1, b1, w2, b2 disagree: {shapes}")
    pre = x.data @ w1.data
    pre += b1.data
    hidden = _softplus(pre)
    out = hidden @ w2.data
    out += b2.data

    def backward(g):
        _accum(b2, g.sum(axis=0))
        _accum(w2, hidden.T @ g)
        g_pre = (g @ w2.data.T) * _sigmoid(pre)
        _accum(b1, g_pre.sum(axis=0))
        _accum(w1, x.data.T @ g_pre)
        _accum(x, g_pre @ w1.data.T)

    return _maybe_record(Tensor(out), (x, w1, b1, w2, b2), backward)


def _row_blocks(src: np.ndarray, dst: np.ndarray, n: int, split: int | None) -> list[tuple]:
    """The conv's row blocks ``(nodes, edges, src, dst)``, endpoints from the block's first node.

    Two blocks when node ``split`` lies inside the graph and no edge
    crosses it: the first ``k`` edges join nodes below it and the rest join
    nodes at or above it, so each block's gathers and segment sums stay
    inside it.  Otherwise one block.
    """
    n_edges = len(src)
    whole = [(slice(0, n), slice(0, n_edges), src, dst)]
    if split is None or not 0 < split < n:
        return whole
    below = src < split
    k = int(np.count_nonzero(below))
    if not (below[:k].all() and (dst[:k] < split).all() and (dst[k:] >= split).all()):
        return whole
    return [(slice(0, split), slice(0, k), src[:k], dst[:k]),
            (slice(split, n), slice(k, n_edges), src[k:] - split, dst[k:] - split)]


def _each_block(blocks: list, worker, run) -> list:
    """[run(i) for each block], the second block on ``worker``."""
    if len(blocks) == 1:
        return [run(0)]
    return list(on_both_threads(worker, lambda: run(0), lambda: run(1)))


class _EdgePlan:
    """One batch's edges, laid out once for every conv layer.

    ``blocks`` are ``_row_blocks(src, dst, n, split)``, and ``layouts[i]``
    is block i's ``_SegmentLayout`` of its src and, when a tape records,
    of its dst (else None): the forward sum runs over src, the backward
    over both.  The second block runs on ``worker``, and its layouts are
    built there, where its sums run.  Endpoints are checked here, once
    per batch.
    """

    def __init__(self, src, dst, n: int, split: int | None = None, worker=None):
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.ndim != 1 or dst.shape != src.shape:
            raise ShapeMismatch(f"edge plan expects one src and one dst per edge, "
                                f"got {src.shape} and {dst.shape}")
        if len(src) and (min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= n):
            raise IndexOutOfRange(f"edge endpoint outside [0, {n})")
        self.n, self.n_edges, self.worker = n, len(src), worker
        self.blocks = _row_blocks(src, dst, n, split)
        self.taped = active_tape() is not None

        def layouts(i):
            nodes, _, s, d = self.blocks[i]
            rows = nodes.stop - nodes.start
            return _SegmentLayout(s, rows), (_SegmentLayout(d, rows) if self.taped else None)

        self.layouts = _each_block(self.blocks, worker, layouts)


def gated_conv(h: Tensor, plan: _EdgePlan, e: np.ndarray,
               w_f: Tensor, b_f: Tensor, w_s: Tensor, b_s: Tensor) -> Tensor:
    """Gated graph convolution with a residual update, as one primitive.

    ``plan``, an ``_EdgePlan`` built once per batch, brings the edges and
    lends every layer its row blocks and segment layouts.  For each edge
    src -> dst with constant features e, the message
    ``sigmoid(z W_f + b_f) * softplus(z W_s + b_s)`` on
    ``z = [h[src], h[dst], e]`` is summed into node src and added to h.
    The gate and core weights are stacked into one (2H + K, 2H) matrix
    and ``z W`` is evaluated as ``(h W_src)[src] + (h W_dst)[dst] + e W_e``,
    so the (E, 2H + K) matrix z is never built.

    With the plan's ``split``, a node index that no edge crosses, the row
    work runs as two blocks, the nodes below it with their edges and the
    rest, the second on the plan's ``worker`` (after the first without
    one): the gathers, the gate, the core and the src segment sum, and in
    the backward the edge gradients and both segment sums, each block into
    its own rows of the output and of the edge gradients.  Every row's
    arithmetic, and each
    segment sum's order, is that of one block.  No matrix product is
    split by rows: OpenBLAS picks its kernels by shape, and a block of rows
    can round differently from the same rows of the whole product (with
    OpenBLAS 0.3.31, for outputs a few columns wide, and for a transposed
    operand on blocks below about 150,000 multiply-adds).  So the products,
    and the weight gradients that sum over every row, run whole, two at a
    time, one per thread.  Every output and gradient is therefore bit for
    bit that of one block.  A ``split`` outside the graph, or one that an
    edge crosses, runs one block.

    Every segment sum runs through the plan's ``_SegmentLayout`` of its
    block's src or dst, which adds each node's edges in edge order from
    +0.0, as ``np.add.at`` does.  A taped call needs a plan built under a
    tape, which holds the dst layouts.
    """
    e = np.asarray(e, dtype=np.float64)
    if h.data.ndim != 2 or e.ndim != 2:
        raise ShapeMismatch("gated_conv expects 2-d node and edge features")
    n, width = h.data.shape
    n_edges, k = e.shape
    z_dim = 2 * width + k
    for w in (w_f, w_s):
        if w.data.shape != (z_dim, width):
            raise ShapeMismatch(f"conv weight must be {(z_dim, width)}, got {w.data.shape}")
    for b in (b_f, b_s):
        if b.data.shape != (width,):
            raise ShapeMismatch(f"conv bias must be {(width,)}, got {b.data.shape}")
    inputs = (h, w_f, b_f, w_s, b_s)
    # the backward needs softplus'(pre_s) = sigmoid(pre_s), not the (E, 2H) pre
    taped = active_tape() is not None and any(t.requires_grad for t in inputs)
    if (plan.n, plan.n_edges) != (n, n_edges):
        raise ShapeMismatch(f"gated_conv expects a row per node and per edge of its plan: "
                            f"{n} node and {n_edges} edge rows against {plan.n} and "
                            f"{plan.n_edges}")
    if taped and not plan.taped:
        raise ShapeMismatch("a taped gated_conv needs the dst layouts of a plan built "
                            "under a tape")
    blocks, layouts, worker = plan.blocks, plan.layouts, plan.worker
    w = np.concatenate([w_f.data, w_s.data], axis=1)
    w_src, w_dst, w_e = w[:width], w[width:2 * width], w[2 * width:]
    bias = np.concatenate([b_f.data, b_s.data])
    if len(blocks) == 1:
        # e W_e is made where it is added, after the gathers, so its (E, 2H)
        # block is the last temporary alive: less memory and cache traffic
        e_w_rows = None
        h_w_src, h_w_dst = h.data @ w_src, h.data @ w_dst
    else:
        e_w, (h_w_src, h_w_dst) = on_both_threads(
            worker, lambda: e @ w_e, lambda: (h.data @ w_src, h.data @ w_dst))
        # each block drops its rows once added, so both blocks' gates can
        # reuse the memory
        e_w_rows = [e_w[edges] for _, edges, _, _ in blocks]
        del e_w
    out = np.empty((n, width))

    def forward(i):
        nodes, _, s, d = blocks[i]
        pre = np.take(h_w_src[nodes], s, axis=0)
        pre += np.take(h_w_dst[nodes], d, axis=0)
        if e_w_rows is None:
            pre += e @ w_e
        else:
            pre += e_w_rows[i]
            e_w_rows[i] = None
        pre += bias
        gate = _sigmoid(pre[:, :width])
        core = _softplus(pre[:, width:])
        sig_s = _sigmoid(pre[:, width:]) if taped else None
        del pre
        np.add(h.data[nodes], layouts[i][0].sum(gate * core), out=out[nodes])
        return gate, core, sig_s

    acts = _each_block(blocks, worker, forward)

    def backward(g):
        g_pre = np.empty((n_edges, 2 * width))

        def block(i):
            nodes, edges, s, _ = blocks[i]
            gate, core, sig_s = acts[i]
            g_msg = np.take(g[nodes], s, axis=0)
            g_f = g_pre[edges, :width]
            np.multiply(g_msg, core, out=g_f)
            g_f *= gate
            g_f *= 1.0 - gate
            g_s = g_pre[edges, width:]
            np.multiply(g_msg, gate, out=g_s)
            g_s *= sig_s
            at_src, at_dst = layouts[i]
            return at_src.sum(g_pre[edges]), at_dst.sum(g_pre[edges])

        g_at_src, g_at_dst = (np.concatenate(parts) if len(parts) > 1 else parts[0]
                              for parts in zip(*_each_block(blocks, worker, block)))
        # every edge row lands in exactly one src row, so g_at_src sums to the bias gradient
        (g_w_h, g_b, g_h), g_w_e = on_both_threads(
            worker,
            lambda: ((h.data.T @ g_at_src, h.data.T @ g_at_dst), g_at_src.sum(axis=0),
                     g + g_at_src @ w_src.T + g_at_dst @ w_dst.T),
            lambda: e.T @ g_pre)
        g_w = np.concatenate([*g_w_h, g_w_e])
        _accum(w_f, g_w[:, :width])
        _accum(w_s, g_w[:, width:])
        _accum(b_f, g_b[:width])
        _accum(b_s, g_b[width:])
        _accum(h, g_h)

    return _maybe_record(Tensor(out), inputs, backward)

