"""Independent oracle implementations used by the test suite.

Most of these are written against the mathematical definitions, not the
package internals: brute-force supercell neighbor search, double-loop
cross-correlation, naive loss sums, and a hand-rolled Kolmogorov-Smirnov
statistic. Tests compare package outputs against these.
``dense_neighbor_list`` is the neighbor search before it ran in two
passes: one dense pass over the cutoff's whole image block, then the
per-source selection. The two-pass search must return its arrays to the
last bit.
``expand_symmetry_loop`` is the CIF parser's former symmetry expansion, a
loop over (site, op) images that checks each against every kept image; the
array code in ``structure_io`` must give its sites to the last bit.
``segment_sum`` is ``np.add.at`` into zeros, the order every segment sum
of the package must keep to the last bit.

The last two sections are the bitwise reference of the fused primitives.
They hold the small tape ops (``matmul``, ``add``, ``softplus``,
``scale_rows``, ``gather_rows``, ``scatter_add_rows``, ``transpose``,
``mul``, ``scale``, ``sum_all`` and ``column_standardize``) and the chains
of records the package once built from them: 2 for the masked embedding,
2 for the masked-mean readout and 5 for each two-layer MLP head in
``model.py``; 9 for the Barlow Twins loss and 4 for the MSE in
``loss.py``. The fused primitives must give the same outputs and
gradients to the last bit.

``grad_check``, last, is the finite-difference oracle behind C1: it
compares a tape's analytic gradients with central differences.
"""

import numpy as np

from xtalssl.autodiff import (
    IndexOutOfRange,
    ShapeMismatch,
    Tape,
    Tensor,
    _accum,
    _maybe_record,
    _segment_sum,
    _sigmoid,
    _softplus,
)
from xtalssl.geometry import NeighborList, _axis_spans, _image_counts
from xtalssl.structure_io import SYMMETRY_DEDUP_TOL, wrap_frac


def supercell_neighbors(lattice, frac, cutoff, max_neighbors):
    """Brute-force neighbor search over a 5x5x5 supercell (images -2..2).

    Returns edges as a list of (src, dst, (i0, i1, i2), distance), the
    nearest max_neighbors per src, ties broken by (distance, dst,
    lexicographic image), sorted by (src, distance, dst, image).
    """
    lattice = np.asarray(lattice, dtype=np.float64)
    frac = np.asarray(frac, dtype=np.float64)
    n = frac.shape[0]
    candidates = []
    for i in range(n):
        for j in range(n):
            for i0 in range(-2, 3):
                for i1 in range(-2, 3):
                    for i2 in range(-2, 3):
                        if i == j and i0 == 0 and i1 == 0 and i2 == 0:
                            continue
                        disp = (frac[j] + np.array([i0, i1, i2]) - frac[i]) @ lattice
                        dist = float(np.linalg.norm(disp))
                        if dist <= cutoff:
                            candidates.append((i, j, (i0, i1, i2), dist))
    edges = []
    for i in range(n):
        mine = [c for c in candidates if c[0] == i]
        mine.sort(key=lambda c: (c[3], c[1], c[2]))
        edges.extend(mine[:max_neighbors])
    return edges


def dense_neighbor_list(s, cfg):
    """One pass over every site pair and every image of the cutoff's block, then selection.

    The block's images, in lexicographic order, times the lattice in one
    (M, 3) @ (3, 3) product give the image translations, as in the package.
    The distance of atom j in image m from atom i is ((cart_j + image_m) -
    cart_i) squared and summed over the axes in order, then square-rooted;
    each source keeps its nearest ``max_neighbors`` by (distance, dst,
    lexicographic image).
    """
    lattice = s.lattice
    n1, n2, n3 = _image_counts(_axis_spans(lattice), cfg.cutoff)
    grid = np.meshgrid(np.arange(-n1, n1 + 1), np.arange(-n2, n2 + 1), np.arange(-n3, n3 + 1),
                       indexing="ij")
    images = np.stack([g.ravel() for g in grid], axis=1).astype(np.int64)
    image_carts = images.astype(np.float64) @ lattice
    cart = s.frac_coords @ lattice
    n, m = cart.shape[0], images.shape[0]
    diff = (cart[None, :, None, :] + image_carts[None, None, :, :]) - cart[:, None, None, :]
    d2 = diff[..., 0] * diff[..., 0] + diff[..., 1] * diff[..., 1] + diff[..., 2] * diff[..., 2]
    within = d2 <= cfg.cutoff * cfg.cutoff
    within[np.arange(n), np.arange(n), m // 2] = False  # the zero image is the middle one
    src, dst, idx = np.nonzero(within)
    dist = np.sqrt(d2[src, dst, idx])
    order = np.lexsort((idx, dst, dist, src))
    src, dst, idx, dist = src[order], dst[order], idx[order], dist[order]
    keep = np.arange(src.size) - np.searchsorted(src, src) < cfg.max_neighbors
    return NeighborList(src=src[keep].astype(np.int64), dst=dst[keep].astype(np.int64),
                        dist=dist[keep], image=images[idx[keep]])


def periodic_distance(lattice, fa, fb, image=(0, 0, 0)):
    """Distance from site fa to the copy of fb translated by ``image`` (fractional inputs)."""
    delta = np.asarray(fb, dtype=np.float64) + np.asarray(image) - np.asarray(fa, dtype=np.float64)
    return float(np.linalg.norm(delta @ np.asarray(lattice, dtype=np.float64)))


def naive_cross_correlation(za, zb, eps):
    """Double-loop evaluation: standardize each column, then C_ij = mean_b(a_bi * b_bj)."""
    za = np.asarray(za, dtype=np.float64)
    zb = np.asarray(zb, dtype=np.float64)
    n, d = za.shape

    def standardize(z):
        out = np.empty_like(z)
        for col in range(d):
            mu = sum(z[b, col] for b in range(n)) / n
            var = sum((z[b, col] - mu) ** 2 for b in range(n)) / n
            out[:, col] = [(z[b, col] - mu) / (np.sqrt(var) + eps) for b in range(n)]
        return out

    a = standardize(za)
    b = standardize(zb)
    c = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            c[i, j] = sum(a[batch, i] * b[batch, j] for batch in range(n)) / n
    return c


def naive_bt_loss(c, lam):
    c = np.asarray(c, dtype=np.float64)
    d = c.shape[0]
    on_diag = sum((1.0 - c[i, i]) ** 2 for i in range(d))
    off_diag = sum(c[i, j] ** 2 for i in range(d) for j in range(d) if i != j)
    return on_diag + lam * off_diag


def naive_mse(pred, target):
    pred = np.asarray(pred, dtype=np.float64).reshape(-1)
    target = np.asarray(target, dtype=np.float64).reshape(-1)
    return sum((p - t) ** 2 for p, t in zip(pred, target)) / len(pred)


def naive_mae(pred, target):
    pred = np.asarray(pred, dtype=np.float64).reshape(-1)
    target = np.asarray(target, dtype=np.float64).reshape(-1)
    return sum(abs(p - t) for p, t in zip(pred, target)) / len(pred)


def ks_statistic_uniform(samples, lo, hi):
    """sup_x |ECDF(x) - F(x)| against Uniform[lo, hi], by the sorted-sample formula."""
    x = np.sort(np.asarray(samples, dtype=np.float64))
    n = x.size
    cdf = (x - lo) / (hi - lo)
    upper = np.arange(1, n + 1) / n - cdf
    lower = cdf - np.arange(0, n) / n
    return float(max(upper.max(), lower.max()))


def expand_symmetry_loop(lattice, numbers, fracs, ops):
    """Apply every op to every site, merging periodic duplicates."""
    out_numbers: list[int] = []
    out_fracs: list[np.ndarray] = []
    for z, f in zip(numbers, fracs):
        for rot, trans in ops:
            pos = wrap_frac(rot @ f + trans)
            dup = False
            for m, q in zip(out_numbers, out_fracs):
                if m != z:
                    continue
                delta = pos - q
                delta -= np.round(delta)
                if np.linalg.norm(delta @ lattice) < SYMMETRY_DEDUP_TOL:
                    dup = True
                    break
            if not dup:
                out_numbers.append(int(z))
                out_fracs.append(pos)
    return np.array(out_numbers, dtype=np.int64), np.array(out_fracs, dtype=np.float64)


def segment_sum(x, index, n_rows):
    """out[index[i]] += x[i] item by item into zeros: each row's items in item order from +0.0."""
    out = np.zeros((n_rows, x.shape[1]))
    np.add.at(out, index, x)
    return out


# ---------------------------------------------------------------------------
# the model chains the fused primitives replace, op by op
# ---------------------------------------------------------------------------


def matmul(a, b):
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeMismatch("matmul expects 2-d operands")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeMismatch(f"matmul inner dims differ: {a.data.shape} @ {b.data.shape}")
    out = Tensor(a.data @ b.data)

    def backward(g):
        _accum(a, g @ b.data.T)
        _accum(b, a.data.T @ g)

    return _maybe_record(out, (a, b), backward)


def add(a, b):
    """Elementwise add; also accepts a 1-d bias against a 2-d left operand."""
    bias = a.data.ndim == 2 and b.data.ndim == 1 and a.data.shape[1] == b.data.shape[0]
    if not bias and a.data.shape != b.data.shape:
        raise ShapeMismatch(f"add shapes differ: {a.data.shape} vs {b.data.shape}")
    out = Tensor(a.data + b.data)

    def backward(g):
        _accum(a, g)
        _accum(b, g.sum(axis=0) if bias else g)

    return _maybe_record(out, (a, b), backward)


def scale_rows(a, w):
    """Multiply each row of a (N, K) tensor by a constant per-row weight."""
    w = np.asarray(w, dtype=np.float64)
    if a.data.ndim != 2 or w.shape != (a.data.shape[0],):
        raise ShapeMismatch(f"scale_rows expects (N, K) and (N,), got {a.data.shape} and {w.shape}")
    col = w[:, None]
    out = Tensor(a.data * col)

    def backward(g):
        _accum(a, g * col)

    return _maybe_record(out, (a,), backward)


def softplus(a):
    out = Tensor(_softplus(a.data))
    x = a.data

    def backward(g):
        _accum(a, g * _sigmoid(x))

    return _maybe_record(out, (a,), backward)


def gather_rows(a, index):
    index = np.asarray(index, dtype=np.int64)
    if a.data.ndim != 2 or index.ndim != 1:
        raise ShapeMismatch("gather_rows expects a 2-d tensor and a 1-d index")
    if index.size and (index.min() < 0 or index.max() >= a.data.shape[0]):
        raise IndexOutOfRange(f"gather index outside [0, {a.data.shape[0]})")
    out = Tensor(a.data[index])

    def backward(g):
        _accum(a, _segment_sum(g, index, a.data.shape[0]))

    return _maybe_record(out, (a,), backward)


def scatter_add_rows(a, index, n_rows):
    index = np.asarray(index, dtype=np.int64)
    if a.data.ndim != 2 or index.shape != (a.data.shape[0],):
        raise ShapeMismatch("scatter_add_rows expects (N, K) data and an (N,) index")
    if index.size and (index.min() < 0 or index.max() >= n_rows):
        raise IndexOutOfRange(f"scatter index outside [0, {n_rows})")
    out = Tensor(_segment_sum(a.data, index, n_rows))

    def backward(g):
        _accum(a, g[index])

    return _maybe_record(out, (a,), backward)


def chain_scaled_gather(table, index, w):
    """table[index] * w[:, None] as 2 tape records."""
    return scale_rows(gather_rows(table, index), w)


def chain_scaled_segment_sum(h, w, index, n_rows):
    """out[index[i]] += w[i] * h[i] as 2 tape records."""
    return scatter_add_rows(scale_rows(h, w), index, n_rows)


def chain_softplus_mlp(x, w1, b1, w2, b2):
    """softplus(x W1 + b1) W2 + b2 as 5 tape records."""
    return add(matmul(softplus(add(matmul(x, w1), b1)), w2), b2)


# ---------------------------------------------------------------------------
# the loss chains the fused primitives replace, op by op
# ---------------------------------------------------------------------------


def mul(a, b):
    if a.data.shape != b.data.shape:
        raise ShapeMismatch(f"mul shapes differ: {a.data.shape} vs {b.data.shape}")
    out = Tensor(a.data * b.data)

    def backward(g):
        _accum(a, g * b.data)
        _accum(b, g * a.data)

    return _maybe_record(out, (a, b), backward)


def scale(a, c):
    c = float(c)
    out = Tensor(a.data * c)

    def backward(g):
        _accum(a, g * c)

    return _maybe_record(out, (a,), backward)


def transpose(a):
    if a.data.ndim != 2:
        raise ShapeMismatch("transpose expects a 2-d operand")
    out = Tensor(a.data.T)

    def backward(g):
        _accum(a, g.T)

    return _maybe_record(out, (a,), backward)


def sum_all(a):
    out = Tensor(a.data.sum())

    def backward(g):
        _accum(a, np.full_like(a.data, float(g)))

    return _maybe_record(out, (a,), backward)


def column_standardize(a, eps=1e-5):
    """Per-column batch standardization: (x - mean) / (population std + eps)."""
    if a.data.ndim != 2:
        raise ShapeMismatch("column_standardize expects a 2-d tensor")
    x = a.data
    mean = x.mean(axis=0, keepdims=True)
    centered = x - mean
    sigma = np.sqrt((centered * centered).mean(axis=0, keepdims=True))
    denom = sigma + eps
    live = denom > 0.0  # false only for eps == 0 on a constant column
    inv = 1.0 / np.where(live, denom, 1.0)
    out = Tensor(centered * inv)

    def backward(g):
        # d/dx of (x - mu) * inv, including inv's dependence on x through sigma;
        # if sigma == 0 the second term vanishes because centered == 0 there
        safe_sigma = np.where(sigma > 0.0, sigma, 1.0)
        g_mean = g.mean(axis=0, keepdims=True)
        gd_mean = (g * centered).mean(axis=0, keepdims=True)
        dx = inv * (g - g_mean) - (inv * inv) * centered * (gd_mean / safe_sigma)
        _accum(a, np.where(live, dx, 0.0))

    return _maybe_record(out, (a,), backward)


def chain_cross_correlation(za, zb, eps):
    """(1/B) standardize(Za)^T standardize(Zb) as 5 tape records."""
    za_n = column_standardize(za, eps)
    zb_n = column_standardize(zb, eps)
    return scale(matmul(transpose(za_n), zb_n), 1.0 / za.data.shape[0])


def chain_barlow_twins_loss(c, lam):
    """sum((C - I)^2 * weight) as 4 tape records."""
    eye = np.eye(c.data.shape[0])
    residual = add(c, Tensor(-eye))
    weight = Tensor(eye + lam * (1.0 - eye))
    return sum_all(mul(mul(residual, residual), weight))


def chain_mse(pred, target):
    """mean((pred - target)^2) as 4 tape records."""
    target = np.asarray(target, dtype=np.float64).reshape(-1, 1)
    diff = add(pred, Tensor(-target))
    return scale(sum_all(mul(diff, diff)), 1.0 / target.shape[0])


# ---------------------------------------------------------------------------
# finite-difference checker


def grad_check(loss_fn, params: list[Tensor], eps: float = 1e-6,
               rel_tol: float = 1e-4, abs_tol: float = 1e-7) -> list[tuple[int, int, float, float]]:
    """Compare analytic gradients of loss_fn() against central differences.

    loss_fn must be a deterministic function of params' current data.
    Returns a list of (param_index, flat_index, numeric, analytic) failures;
    an empty list means every component agreed within tolerance.
    """
    for p in params:
        p.zero_grad()
    with Tape() as tape:
        loss = loss_fn()
        tape.backward(loss)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    failures = []
    for pi, p in enumerate(params):
        flat = p.data.reshape(-1)
        ana = analytic[pi].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = float(loss_fn().data)
            flat[i] = orig - eps
            f_minus = float(loss_fn().data)
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            if abs(numeric - ana[i]) > abs_tol + rel_tol * max(abs(numeric), abs(ana[i])):
                failures.append((pi, i, numeric, float(ana[i])))
    return failures


# ---------------------------------------------------------------------------
# optimizer


class PerTensorAdam:
    """Adam with one pair of moment arrays per tensor, each updated out of place.

    ``pipeline.Adam`` keeps flat moments and updates them in place; it must
    give these weights and moments bit for bit.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, tensors: list[Tensor], lr: float):
        self.tensors = list(tensors)
        self.lr = float(lr)
        self.m = [np.zeros_like(t.data) for t in self.tensors]
        self.v = [np.zeros_like(t.data) for t in self.tensors]
        self.step_count = 0

    def step(self) -> None:
        self.step_count += 1
        bc1 = 1.0 - self.beta1 ** self.step_count
        bc2 = 1.0 - self.beta2 ** self.step_count
        for i, t in enumerate(self.tensors):
            g = t.grad
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * (g * g)
            m_hat = self.m[i] / bc1
            v_hat = self.v[i] / bc2
            t.data = t.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
