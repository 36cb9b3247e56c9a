"""Gated graph-convolution encoder, projector, regression head, checkpoints.

The encoder stacks gated convolutions: per edge (i -> j),
``z = concat(h_i, h_j, e_ij * edge_mask)``, message
``sigmoid(z W_f + b_f) * softplus(z W_s + b_s)``, summed into node i, with a
residual update ``h_i' = h_i + sum``.  Each layer is one autodiff primitive,
:func:`autodiff.gated_conv`: it stacks ``W_f`` and ``W_s`` side by side when
the layer runs and evaluates ``z W`` decomposed, as
``(h W_src)[i] + (h W_dst)[j] + e_ij W_e`` over the row blocks of the stacked
matrix, so z itself is never built.  The checkpoint keeps ``w_f``, ``b_f``,
``w_s`` and ``b_s`` as separate arrays.  No batch normalization anywhere, so a
graph's encoding never depends on what it is batched with.  Readout is the
mean over active (unmasked) nodes; a fully masked graph falls back to the
mean over all of its nodes.

Checkpoints are versioned binary files: a fixed header carrying the model
configuration followed by named float64 little-endian arrays with shape
prefixes, so round trips are bit-exact.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

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
from .featurize import CrystalGraph
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
    config: ModelConfig
    elem_embed: Tensor
    convs: tuple[ConvParams, ...]
    projector: MLPParams | None
    head: MLPParams | None

    def named_tensors(self) -> list[tuple[str, Tensor]]:
        named = [("encoder.elem_embed", self.elem_embed)]
        for k, conv in enumerate(self.convs):
            named += [
                (f"encoder.conv{k}.w_f", conv.w_f),
                (f"encoder.conv{k}.b_f", conv.b_f),
                (f"encoder.conv{k}.w_s", conv.w_s),
                (f"encoder.conv{k}.b_s", conv.b_s),
            ]
        for section, mlp in (("projector", self.projector), ("head", self.head)):
            if mlp is not None:
                named += [
                    (f"{section}.w1", mlp.w1),
                    (f"{section}.b1", mlp.b1),
                    (f"{section}.w2", mlp.w2),
                    (f"{section}.b2", mlp.b2),
                ]
        return named

    def encoder_tensor_names(self) -> list[str]:
        return [n for n, _ in self.named_tensors() if n.startswith("encoder.")]

    def trainable(self) -> list[Tensor]:
        return [t for _, t in self.named_tensors()]

    def zero_grad(self) -> None:
        for t in self.trainable():
            t.zero_grad()


def _uniform_param(rng: np.random.Generator, fan_in: int, shape: tuple[int, ...]) -> Tensor:
    limit = 1.0 / np.sqrt(fan_in)
    return Tensor(rng.uniform(-limit, limit, size=shape), requires_grad=True)


def _zero_param(shape: tuple[int, ...]) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)


def init_params(
    cfg: ModelConfig,
    rng: np.random.Generator,
    with_projector: bool = True,
    with_head: bool = True,
) -> ModelParams:
    """Draw weights uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)]; biases zero.

    The draw order is fixed (embedding, conv layers, projector, head) so a
    given rng state always yields the same parameters.
    """
    h = cfg.hidden_dim
    z_dim = 2 * h + cfg.edge_feat_dim
    elem_embed = _uniform_param(rng, MAX_Z, (MAX_Z, h))
    convs = []
    for _ in range(cfg.n_conv):
        convs.append(
            ConvParams(
                w_f=_uniform_param(rng, z_dim, (z_dim, h)),
                b_f=_zero_param((h,)),
                w_s=_uniform_param(rng, z_dim, (z_dim, h)),
                b_s=_zero_param((h,)),
            )
        )
    projector = None
    if with_projector:
        projector = MLPParams(
            w1=_uniform_param(rng, h, (h, cfg.proj_dim)),
            b1=_zero_param((cfg.proj_dim,)),
            w2=_uniform_param(rng, cfg.proj_dim, (cfg.proj_dim, cfg.proj_dim)),
            b2=_zero_param((cfg.proj_dim,)),
        )
    head = None
    if with_head:
        head = MLPParams(
            w1=_uniform_param(rng, h, (h, cfg.head_hidden)),
            b1=_zero_param((cfg.head_hidden,)),
            w2=_uniform_param(rng, cfg.head_hidden, (cfg.head_hidden, 1)),
            b2=_zero_param((1,)),
        )
    return ModelParams(config=cfg, elem_embed=elem_embed, convs=tuple(convs),
                       projector=projector, head=head)


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------


def conv_layer(h: Tensor, graph: CrystalGraph, edge_feat: Tensor, conv: ConvParams) -> Tensor:
    if graph.n_edges == 0:
        return h
    e = edge_feat.data * graph.edge_mask[:, None].astype(np.float64)
    return gated_conv(h, graph.edges[:, 0], graph.edges[:, 1], e,
                      conv.w_f, conv.b_f, conv.w_s, conv.b_s)


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
    edge_feat = Tensor(graph.edge_feat)
    h = scale_rows(gather_rows(params.elem_embed, graph.node_elem - 1),
                   graph.node_mask.astype(np.float64))
    for conv in params.convs:
        h = conv_layer(h, graph, edge_feat, conv)
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

    def take(n: int, offset: int) -> tuple[bytes, int]:
        if offset + n > len(blob):
            raise CorruptCheckpoint(f"{path}: truncated checkpoint")
        return blob[offset:offset + n], offset + n

    raw, pos = take(4, 0)
    if raw != _MAGIC:
        raise CorruptCheckpoint(f"{path}: bad magic {raw!r}")
    raw, pos = take(4, pos)
    version = struct.unpack("<I", raw)[0]
    if version != _VERSION:
        raise CorruptCheckpoint(f"{path}: unsupported version {version}")
    raw, pos = take(20, pos)
    cfg = ModelConfig(**dict(zip(_CONFIG_FIELDS, struct.unpack("<5I", raw))))
    raw, pos = take(4, pos)
    n_arrays = struct.unpack("<I", raw)[0]
    arrays: dict[str, np.ndarray] = {}
    for _ in range(n_arrays):
        raw, pos = take(2, pos)
        name_len = struct.unpack("<H", raw)[0]
        raw, pos = take(name_len, pos)
        name = raw.decode("utf-8")
        raw, pos = take(1, pos)
        ndim = struct.unpack("<B", raw)[0]
        raw, pos = take(8 * ndim, pos)
        shape = struct.unpack(f"<{ndim}Q", raw)
        count = int(np.prod(shape, dtype=np.int64)) if ndim else 1
        raw, pos = take(8 * count, pos)
        arrays[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)
    if pos != len(blob):
        raise CorruptCheckpoint(f"{path}: trailing bytes after array table")
    return cfg, arrays


def params_from_arrays(cfg: ModelConfig, arrays: dict[str, np.ndarray],
                       with_projector: bool, with_head: bool) -> ModelParams:
    """Rebuild trainable params from a checkpoint's array table."""

    def grab(name: str) -> Tensor:
        if name not in arrays:
            raise CorruptCheckpoint(f"checkpoint missing array {name!r}")
        return Tensor(arrays[name], requires_grad=True)

    convs = tuple(
        ConvParams(w_f=grab(f"encoder.conv{k}.w_f"), b_f=grab(f"encoder.conv{k}.b_f"),
                   w_s=grab(f"encoder.conv{k}.w_s"), b_s=grab(f"encoder.conv{k}.b_s"))
        for k in range(cfg.n_conv)
    )
    projector = head = None
    if with_projector:
        projector = MLPParams(w1=grab("projector.w1"), b1=grab("projector.b1"),
                              w2=grab("projector.w2"), b2=grab("projector.b2"))
    if with_head:
        head = MLPParams(w1=grab("head.w1"), b1=grab("head.b1"),
                         w2=grab("head.w2"), b2=grab("head.b2"))
    return ModelParams(config=cfg, elem_embed=grab("encoder.elem_embed"),
                       convs=convs, projector=projector, head=head)


def check_encoder_compatible(cfg: ModelConfig, other: ModelConfig) -> None:
    for field in ("hidden_dim", "n_conv", "edge_feat_dim"):
        if getattr(cfg, field) != getattr(other, field):
            raise ConfigMismatch(
                f"{field} differs: {getattr(cfg, field)} vs {getattr(other, field)}")


def load_encoder_weights(params: ModelParams, arrays: dict[str, np.ndarray]) -> None:
    """Overwrite encoder tensors in place with checkpoint values (bitwise)."""
    for name, tensor in params.named_tensors():
        if not name.startswith("encoder."):
            continue
        if name not in arrays:
            raise CorruptCheckpoint(f"checkpoint missing array {name!r}")
        source = np.asarray(arrays[name], dtype=np.float64)
        if source.shape != tensor.data.shape:
            raise ConfigMismatch(f"{name} shape {source.shape} != {tensor.data.shape}")
        tensor.data = np.ascontiguousarray(source)
