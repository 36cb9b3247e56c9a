"""Gated graph-convolution encoder, projector, regression head, checkpoints.

The encoder stacks gated convolutions: per edge (i -> j),
``z = concat(h_i, h_j, e_ij * edge_mask)``, message
``sigmoid(z W_f + b_f) * softplus(z W_s + b_s)``, summed into node i, with a
residual update ``h_i' = h_i + sum``.  Each layer is one autodiff primitive,
:func:`autodiff.gated_conv`: it stacks ``W_f`` and ``W_s`` side by side when
the layer runs and evaluates ``z W`` decomposed, as
``(h W_src)[i] + (h W_dst)[j] + e_ij W_e`` over the row blocks of the stacked
matrix, so z itself is never built.  ``encode`` expands and masks the edge
features once per batch and zeroes their subnormal tails (entries below
DBL_MIN), and every layer reads that one block.  It lays the edges out once
per batch too, as an ``autodiff._EdgePlan`` that every layer's segment sums
read; its dst layouts, which only the backward reads, are built only when a
tape records.  The
checkpoint keeps ``w_f``, ``b_f``, ``w_s`` and ``b_s`` as separate arrays.
No batch normalization anywhere, so what a graph is batched with moves its
encoding by round-off only.  Readout is the mean over active (unmasked)
nodes; a fully masked graph falls back to the mean over all of its nodes.
The masked embedding and the readout are one autodiff primitive each, so
``encode`` records ``n_conv + 2`` tape entries; each head records one.

One parameter layout, ``_build``, fixes every tensor's checkpoint name, shape
and init draw order; ``init_params`` draws through it and ``load_model``
reads through it, so a loaded array whose shape disagrees with the header's
configuration is rejected at load, by name.  ``alias_params`` builds through
it too: new tensors over the same arrays, so two threads can each run a
forward and backward pass on the same weights and accumulate gradients
apart; ``copy_params`` over copies.  Only this module knows what a
checkpoint holds: a versioned binary file, a fixed header carrying the
model configuration followed by named float64 little-endian arrays with
shape prefixes (the layout's, then a fine-tuned model's 0-d
``label_mean`` and ``label_std``), so round trips are bit-exact.  Every
load error names the file.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, fields

import numpy as np

from .autodiff import (
    ShapeMismatch,
    Tensor,
    _EdgePlan,
    gated_conv,
    scaled_gather,
    scaled_segment_sum,
    softplus_mlp,
)
from .elements import MAX_Z
from .featurize import CrystalGraph, GaussianBasis
from .structure_io import atomic_open


class EmptyGraph(ValueError):
    pass


class CorruptCheckpoint(ValueError):
    pass


class ConfigMismatch(ValueError):
    pass


@dataclass(frozen=True)
class ModelConfig:
    hidden_dim: int = 64
    n_conv: int = 3
    proj_dim: int = 128
    head_hidden: int = 64
    edge_feat_dim: int = 41

    def __post_init__(self):
        for name in ("hidden_dim", "n_conv", "proj_dim", "head_hidden", "edge_feat_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")


@dataclass
class ConvParams:
    w_f: Tensor
    b_f: Tensor
    w_s: Tensor
    b_s: Tensor


@dataclass
class MLPParams:
    """Two affine layers with a softplus in between (none after)."""

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor


@dataclass
class ModelParams:
    """Built only through :func:`_build`."""

    config: ModelConfig
    elem_embed: Tensor
    convs: tuple[ConvParams, ...]
    projector: MLPParams | None
    head: MLPParams | None
    _named: dict[str, Tensor] = field(init=False, repr=False, compare=False)

    def named_tensors(self) -> list[tuple[str, Tensor]]:
        return list(self._named.items())

    def encoder_tensor_names(self) -> list[str]:
        return [n for n in self._named if n.startswith("encoder.")]

    def trainable(self) -> list[Tensor]:
        return list(self._named.values())

    def zero_grad(self) -> None:
        for t in self.trainable():
            t.zero_grad()


def _build(cfg: ModelConfig, with_projector: bool, with_head: bool, make) -> ModelParams:
    """The one parameter layout: checkpoint names, shapes and draw order.

    ``make(name, shape)`` returns each array in the fixed order embedding,
    each conv's ``w_f, b_f, w_s, b_s``, projector, head; within a section
    the order and the name suffixes are the dataclass fields.  shape[0] of
    every 2-d weight is its fan-in.
    """
    named: dict[str, Tensor] = {}

    def get(name: str, shape: tuple[int, ...]) -> Tensor:
        named[name] = Tensor(make(name, shape), requires_grad=True)
        return named[name]

    def section(cls, prefix: str, *shapes: tuple[int, ...]):
        return cls(*(get(f"{prefix}.{f.name}", s) for f, s in zip(fields(cls), shapes)))

    h, p, hh = cfg.hidden_dim, cfg.proj_dim, cfg.head_hidden
    z_dim = 2 * h + cfg.edge_feat_dim
    params = ModelParams(
        config=cfg,
        elem_embed=get("encoder.elem_embed", (MAX_Z, h)),
        convs=tuple(section(ConvParams, f"encoder.conv{k}", (z_dim, h), (h,), (z_dim, h), (h,))
                    for k in range(cfg.n_conv)),
        projector=(section(MLPParams, "projector", (h, p), (p,), (p, p), (p,))
                   if with_projector else None),
        head=section(MLPParams, "head", (h, hh), (hh,), (hh, 1), (1,)) if with_head else None,
    )
    params._named = named
    return params


def init_params(cfg: ModelConfig, rng: np.random.Generator,
                with_projector: bool = True, with_head: bool = True) -> ModelParams:
    """Draw weights uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)]; biases zero.

    The draw order is the layout's (embedding, conv layers, projector, head)
    so a given rng state always yields the same parameters.
    """

    def draw(name: str, shape: tuple[int, ...]) -> np.ndarray:
        if len(shape) == 1:
            return np.zeros(shape)
        limit = 1.0 / np.sqrt(shape[0])
        return rng.uniform(-limit, limit, size=shape)

    return _build(cfg, with_projector, with_head, draw)


def alias_params(params: ModelParams) -> ModelParams:
    """New tensors, with no gradients, over the arrays of ``params``."""
    return _build(params.config, params.projector is not None, params.head is not None,
                  lambda name, shape: params._named[name].data)


def copy_params(params: ModelParams) -> ModelParams:
    """New tensors, with no gradients, over copies of the arrays of ``params``."""
    return _build(params.config, params.projector is not None, params.head is not None,
                  lambda name, shape: params._named[name].data.copy())


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------


def _readout_weights(node_mask: np.ndarray, seg: np.ndarray, n_graphs: int) -> np.ndarray:
    """Per-node weights implementing the mean over active nodes per graph.

    A graph with zero active nodes falls back to the mean over all its nodes.
    """
    active = node_mask.astype(np.float64)
    counts = np.bincount(seg, weights=active, minlength=n_graphs)
    totals = np.bincount(seg, minlength=n_graphs).astype(np.float64)
    empty = counts == 0.0
    if empty.any():
        active = np.where(empty[seg], 1.0, active)
        counts = np.where(empty, totals, counts)
    return active / counts[seg]


_TINY = np.finfo(np.float64).tiny  # DBL_MIN, the smallest normal float64


def encode(params: ModelParams, graph: CrystalGraph,
           seg: np.ndarray | None = None, n_graphs: int = 1, worker=None) -> Tensor:
    """Latent (n_graphs, hidden_dim) matrix for a graph or a merged batch.

    With a ``worker``, each conv layer splits its row work at the first node
    of graph ceil(n_graphs/2), read from ``seg``, and runs the second block
    on the worker (see ``gated_conv``); the result is bit for bit the same.
    ``worker`` must be one the caller is not itself running on.
    """
    n = graph.n_nodes
    if n == 0:
        raise EmptyGraph("cannot encode a graph with zero nodes")
    if seg is None:
        seg = np.zeros(n, dtype=np.int64)
    else:
        seg = np.asarray(seg, dtype=np.int64)
        if seg.shape != (n,):
            raise ShapeMismatch(f"segment ids must have shape ({n},)")
    masked_feat = graph.edge_feat  # the batch's one Gaussian expansion, masked in place
    masked_feat *= graph.edge_mask[:, None]
    # The basis's far tails underflow to subnormals, which cost an x86 core a
    # microcode assist each: every layer's e @ W_e and e.T @ g_pre ran 2-3x
    # slower on an Intel Xeon.  Zeroed, they move no output: each term they
    # drop is below DBL_MIN * |w| in a sum of normal numbers (README,
    # Determinism).
    np.copyto(masked_feat, 0.0, where=masked_feat < _TINY)
    h = scaled_gather(params.elem_embed, graph.node_elem - 1, graph.node_mask.astype(np.float64))
    # on zero edges gated_conv is the identity, and its weights get zero gradients
    src, dst = graph.edges[:, 0], graph.edges[:, 1]
    split = None if worker is None else int(np.searchsorted(seg, (n_graphs + 1) // 2))
    # one edge plan for every layer
    plan = _EdgePlan(src, dst, n, split, worker)
    for conv in params.convs:
        h = gated_conv(h, plan, masked_feat, conv.w_f, conv.b_f, conv.w_s, conv.b_s)
    return scaled_segment_sum(h, _readout_weights(graph.node_mask, seg, n_graphs), seg, n_graphs)


def _mlp_forward(mlp: MLPParams, x: Tensor) -> Tensor:
    return softplus_mlp(x, mlp.w1, mlp.b1, mlp.w2, mlp.b2)


def project(params: ModelParams, latent: Tensor) -> Tensor:
    if params.projector is None:
        raise ShapeMismatch("model has no projector")
    return _mlp_forward(params.projector, latent)


def regress(params: ModelParams, latent: Tensor) -> Tensor:
    if params.head is None:
        raise ShapeMismatch("model has no head")
    return _mlp_forward(params.head, latent)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

_MAGIC = b"XTSL"
_VERSION = 1
_CONFIG_FIELDS = ("hidden_dim", "n_conv", "proj_dim", "head_hidden", "edge_feat_dim")
_LABEL_STATS = ("label_mean", "label_std")


def save_checkpoint(path, params: ModelParams, label_stats: tuple[float, float] | None = None) -> None:
    """Write header + named arrays atomically: the layout's, then any label statistics."""
    arrays: list[tuple[str, np.ndarray]] = [(n, t.data) for n, t in params.named_tensors()]
    if label_stats is not None:
        arrays += [(n, np.asarray(v, dtype=np.float64)) for n, v in zip(_LABEL_STATS, label_stats)]
    with atomic_open(path) as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", _VERSION))
        fh.write(struct.pack("<5I", *(getattr(params.config, f) for f in _CONFIG_FIELDS)))
        fh.write(struct.pack("<I", len(arrays)))
        for name, arr in arrays:
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path) -> tuple[ModelConfig, dict[str, np.ndarray]]:
    with open(path, "rb") as fh:
        blob = fh.read()
    pos = 0

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(blob):
            raise CorruptCheckpoint(f"{path}: truncated checkpoint")
        pos += n
        return blob[pos - n:pos]

    def unpack(fmt: str) -> tuple:
        return struct.unpack(fmt, take(struct.calcsize(fmt)))

    raw = take(4)
    if raw != _MAGIC:
        raise CorruptCheckpoint(f"{path}: bad magic {raw!r}")
    (version,) = unpack("<I")
    if version != _VERSION:
        raise CorruptCheckpoint(f"{path}: unsupported version {version}")
    header = dict(zip(_CONFIG_FIELDS, unpack("<5I")))
    try:
        cfg = ModelConfig(**header)
    except ValueError as exc:
        raise CorruptCheckpoint(f"{path}: {exc}") from None
    arrays: dict[str, np.ndarray] = {}
    for _ in range(unpack("<I")[0]):
        raw = take(unpack("<H")[0])
        try:
            name = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise CorruptCheckpoint(f"{path}: array name {raw!r} is not UTF-8") from None
        shape = unpack(f"<{unpack('<B')[0]}Q")
        # Python ints: a crafted shape cannot wrap, so take() sees its real size
        flat = np.frombuffer(take(8 * math.prod(shape)), dtype="<f8")
        try:
            arrays[name] = flat.reshape(shape).astype(np.float64)
        except ValueError:  # an empty array with a dimension numpy cannot hold
            raise CorruptCheckpoint(f"{path}: array {name!r} has shape {shape}") from None
    if pos != len(blob):
        raise CorruptCheckpoint(f"{path}: trailing bytes after array table")
    return cfg, arrays


def load_model(path) -> tuple[ModelParams, tuple[float, float] | None]:
    """A checkpoint's model, with its projector and head if it holds them, and label statistics.

    Every array's shape is checked against the header; the ``(mean, std)``
    statistics are None or 0-d, finite and std > 0.  CorruptCheckpoint names ``path``.
    """
    cfg, arrays = load_checkpoint(path)

    def checked(name: str, shape: tuple[int, ...]) -> np.ndarray:
        if name not in arrays:
            raise CorruptCheckpoint(f"{path}: checkpoint missing array {name!r}")
        if arrays[name].shape != shape:
            raise CorruptCheckpoint(
                f"{path}: checkpoint array {name!r} has shape {arrays[name].shape}, expected {shape}")
        return arrays[name]

    sections = {name.split(".", 1)[0] for name in arrays}
    params = _build(cfg, "projector" in sections, "head" in sections, checked)
    if not any(name in arrays for name in _LABEL_STATS):
        return params, None
    mean, std = (float(checked(name, ())) for name in _LABEL_STATS)
    if not (math.isfinite(mean) and math.isfinite(std) and std > 0):
        raise CorruptCheckpoint(f"{path}: label_mean and label_std must be finite and "
                                f"label_std > 0, got {mean} and {std}")
    return params, (mean, std)


def copy_encoder(params: ModelParams, donor: ModelParams, source) -> None:
    """Overwrite the encoder tensors of ``params`` bitwise with copies of ``donor``'s.

    A ``hidden_dim``, ``n_conv`` or ``edge_feat_dim`` that differs is a
    ConfigMismatch naming ``source``, where the donor came from."""
    for name in ("hidden_dim", "n_conv", "edge_feat_dim"):
        mine, theirs = getattr(params.config, name), getattr(donor.config, name)
        if mine != theirs:
            raise ConfigMismatch(f"{source}: {name} differs: {mine} vs {theirs}")
    for name in params.encoder_tensor_names():
        params._named[name].data = donor._named[name].data.copy()


def load_encoder(params: ModelParams, path) -> None:
    """Overwrite the encoder tensors of ``params`` bitwise with those of the checkpoint at ``path``."""
    copy_encoder(params, load_model(path)[0], path)


def check_basis_width(cfg: ModelConfig, basis: GaussianBasis) -> None:
    """ConfigMismatch unless each edge carries as many features as the basis has centers."""
    if cfg.edge_feat_dim != basis.n_centers:
        raise ConfigMismatch(
            f"model edge_feat_dim {cfg.edge_feat_dim} != basis n_centers {basis.n_centers}")
