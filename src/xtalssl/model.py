"""Gated graph-convolution encoder, projector, regression head, checkpoints.

The encoder stacks gated convolutions: per edge (i -> j),
``z = concat(h_i, h_j, e_ij * edge_mask)``, message
``sigmoid(z W_f + b_f) * softplus(z W_s + b_s)``, summed into node i, with a
residual update ``h_i' = h_i + sum``.  Each layer is one autodiff primitive,
:func:`autodiff.gated_conv`: it stacks ``W_f`` and ``W_s`` side by side when
the layer runs and evaluates ``z W`` decomposed, as
``(h W_src)[i] + (h W_dst)[j] + e_ij W_e`` over the row blocks of the stacked
matrix, so z itself is never built.  ``encode`` expands and masks the edge
features once per batch, and every layer reads that one block.  The
checkpoint keeps ``w_f``, ``b_f``, ``w_s`` and ``b_s`` as separate arrays.
No batch normalization anywhere, so a graph's encoding never depends on what
it is batched with.  Readout is the mean over active (unmasked) nodes; a
fully masked graph falls back to the mean over all of its nodes.

One parameter layout, ``_build``, fixes every tensor's checkpoint name, shape
and init draw order; ``init_params`` draws through it and checkpoint loads
read through it, so a loaded array whose shape disagrees with the header's
configuration is rejected at load, by name.  ``alias_params`` builds through
it too: new tensors over the same arrays, so two threads can each run a
forward and backward pass on the same weights and accumulate gradients
apart.  Checkpoints are versioned binary files: a fixed header carrying the
model configuration followed by named float64 little-endian arrays with
shape prefixes, so round trips are bit-exact.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, fields

import numpy as np

from .autodiff import (
    ShapeMismatch,
    Tensor,
    add,
    gated_conv,
    gather_rows,
    matmul,
    scale_rows,
    scatter_add_rows,
    softplus,
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
    """Built only by :func:`init_params` and :func:`params_from_arrays`."""

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


def encode(params: ModelParams, graph: CrystalGraph,
           seg: np.ndarray | None = None, n_graphs: int = 1) -> Tensor:
    """Latent (n_graphs, hidden_dim) matrix for a graph or a merged batch."""
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
    h = scale_rows(gather_rows(params.elem_embed, graph.node_elem - 1),
                   graph.node_mask.astype(np.float64))
    if graph.n_edges:  # without edges every layer is the identity
        src, dst = graph.edges[:, 0], graph.edges[:, 1]
        for conv in params.convs:
            h = gated_conv(h, src, dst, masked_feat, conv.w_f, conv.b_f, conv.w_s, conv.b_s)
    weights = _readout_weights(graph.node_mask, seg, n_graphs)
    return scatter_add_rows(scale_rows(h, weights), seg, n_graphs)


def _mlp_forward(mlp: MLPParams, x: Tensor) -> Tensor:
    hidden = softplus(add(matmul(x, mlp.w1), mlp.b1))
    return add(matmul(hidden, mlp.w2), mlp.b2)


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


def save_checkpoint(path, params: ModelParams, extra: dict[str, np.ndarray] | None = None) -> None:
    """Write header + named arrays atomically; array order is canonical, extras sorted."""
    arrays: list[tuple[str, np.ndarray]] = [(n, t.data) for n, t in params.named_tensors()]
    for name in sorted(extra or {}):
        arrays.append((name, np.asarray(extra[name], dtype=np.float64)))
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
    cfg = ModelConfig(**dict(zip(_CONFIG_FIELDS, unpack("<5I"))))
    arrays: dict[str, np.ndarray] = {}
    for _ in range(unpack("<I")[0]):
        name = take(unpack("<H")[0]).decode("utf-8")
        shape = unpack(f"<{unpack('<B')[0]}Q")
        count = int(np.prod(shape, dtype=np.int64))
        arrays[name] = np.frombuffer(take(8 * count), dtype="<f8").reshape(shape).astype(np.float64)
    if pos != len(blob):
        raise CorruptCheckpoint(f"{path}: trailing bytes after array table")
    return cfg, arrays


def _checked(arrays: dict[str, np.ndarray], name: str, shape: tuple[int, ...],
             mismatch: type[ValueError]) -> np.ndarray:
    """``arrays[name]`` as float64: CorruptCheckpoint if missing, ``mismatch`` if misshapen."""
    if name not in arrays:
        raise CorruptCheckpoint(f"checkpoint missing array {name!r}")
    source = np.asarray(arrays[name], dtype=np.float64)
    if source.shape != shape:
        raise mismatch(f"checkpoint array {name!r} has shape {source.shape}, expected {shape}")
    return source


def params_from_arrays(cfg: ModelConfig, arrays: dict[str, np.ndarray],
                       with_projector: bool, with_head: bool) -> ModelParams:
    """Rebuild trainable params from a checkpoint's array table, shape-checked against ``cfg``."""
    return _build(cfg, with_projector, with_head,
                  lambda name, shape: _checked(arrays, name, shape, CorruptCheckpoint))


def check_encoder_compatible(cfg: ModelConfig, other: ModelConfig) -> None:
    for name in ("hidden_dim", "n_conv", "edge_feat_dim"):
        if getattr(cfg, name) != getattr(other, name):
            raise ConfigMismatch(
                f"{name} differs: {getattr(cfg, name)} vs {getattr(other, name)}")


def check_basis_width(cfg: ModelConfig, basis: GaussianBasis) -> None:
    """ConfigMismatch unless each edge carries as many features as the basis has centers."""
    if cfg.edge_feat_dim != basis.n_centers:
        raise ConfigMismatch(
            f"model edge_feat_dim {cfg.edge_feat_dim} != basis n_centers {basis.n_centers}")


def load_encoder_weights(params: ModelParams, arrays: dict[str, np.ndarray]) -> None:
    """Overwrite encoder tensors in place with checkpoint values (bitwise)."""
    for name in params.encoder_tensor_names():
        tensor = params._named[name]
        tensor.data = np.ascontiguousarray(_checked(arrays, name, tensor.shape, ConfigMismatch))
