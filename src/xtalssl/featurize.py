"""Crystal graph construction: element-indexed nodes, edges carrying distances.

A graph stores each edge's distance and the Gaussian basis; the (E, K)
edge features are expanded from them on demand (``CrystalGraph.edge_feat``),
once per merged batch in the encoder.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass, fields, replace

import numpy as np

from .elements import MAX_Z
from .geometry import NeighborList
from .structure_io import CrystalStructure


# most centers a basis may have; real bases have tens, while a tiny step asks
# for billions and an expansion of gigabytes per edge
MAX_CENTERS = 1_000


@dataclass(frozen=True)
class GaussianBasis:
    """Evenly spaced Gaussian centers on [d_min, d_max] with width sqrt(var)."""

    d_min: float = 0.0
    d_max: float = 8.0
    step: float = 0.2
    var: float = 0.04  # step**2 for the default grid

    def __post_init__(self):
        if not np.isfinite([self.d_min, self.d_max, self.step, self.var]).all():
            raise ValueError("basis parameters must be finite")
        if not self.d_min < self.d_max:
            raise ValueError("require d_min < d_max")
        if self.step <= 0 or self.var <= 0:
            raise ValueError("step and var must be positive")
        span = (self.d_max - self.d_min) / self.step  # inf if it overflows
        if not span < MAX_CENTERS or self.n_centers > MAX_CENTERS:
            raise ValueError(f"basis would have more than {MAX_CENTERS} centers")

    @property
    def n_centers(self) -> int:
        # floor((d_max - d_min)/step) + 1; the epsilon keeps exact-multiple
        # ranges like (8 - 0)/0.2 from landing one bin short in floats
        return int(np.floor((self.d_max - self.d_min) / self.step + 1e-9)) + 1

    @property
    def centers(self) -> np.ndarray:
        return self.d_min + self.step * np.arange(self.n_centers, dtype=np.float64)


class GraphFormatError(ValueError):
    """A graphs.jsonl line or a mask that does not hold valid graph values."""


@dataclass(frozen=True)
class CrystalGraph:
    """Directed crystal graph with mask vectors for augmentation.

    Each edge carries its length ``dist``; ``edge_feat`` expands those
    lengths in ``basis`` each time it is read, so a graph holds E floats per
    edge list rather than E * K.  Masks multiply features downstream
    (0 = feature row reads as zero), so topology is stable across
    augmentations.  Only shapes and edge endpoints are checked here; mask
    values are checked where masks come in (``with_node_mask``,
    ``with_edge_mask``, ``graph_from_json``), and atomic numbers where a
    graphs.jsonl line comes in, not on every merge or copy.  Augmented
    views draw their own masks and are not checked again.
    """

    node_elem: np.ndarray  # (N,) int64 atomic numbers
    node_mask: np.ndarray  # (N,) int8, 1 = active
    edges: np.ndarray  # (E, 2) int64 (src, dst)
    dist: np.ndarray  # (E,) float64 edge lengths, angstrom
    edge_mask: np.ndarray  # (E,) int8
    basis: GaussianBasis

    def __post_init__(self):
        n = self.node_elem.shape[0]
        e = self.edges.shape[0]
        if self.edges.size and (self.edges.min() < 0 or self.edges.max() >= n):
            raise ValueError("edge endpoints out of range")
        if self.node_mask.shape != (n,):
            raise ValueError("node_mask must have one entry per node")
        if self.edge_mask.shape != (e,) or self.dist.shape != (e,):
            raise ValueError("edge arrays must agree on edge count")

    @property
    def n_nodes(self) -> int:
        return self.node_elem.shape[0]

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def edge_feat(self) -> np.ndarray:
        """(E, K) Gaussian features of the edge distances, computed on each read."""
        return gaussian_expand(self.dist, self.basis)


def gaussian_expand(dist, basis: GaussianBasis) -> np.ndarray:
    """exp(-(d - mu_k)^2 / var) in [0, 1] for each distance: (...,) -> (..., K).

    Far tails underflow: past |d - mu_k| = 26.6 sqrt(var) (5.32 A at the
    default var) a value is subnormal, below DBL_MIN, and past 27.3 sqrt(var)
    (5.46 A) exactly 0.  They are returned as they are; ``model.encode``
    zeroes the subnormal ones in its own copy.  Each step works in place on
    the one fresh (..., K) buffer.
    """
    out = np.subtract(np.asarray(dist, dtype=np.float64)[..., None], basis.centers)
    np.multiply(out, out, out=out)
    np.negative(out, out=out)
    np.divide(out, basis.var, out=out)
    return np.exp(out, out=out)


def build_graph(s: CrystalStructure, nl: NeighborList, basis: GaussianBasis = GaussianBasis()) -> CrystalGraph:
    """Graph with one node per site and one directed edge per neighbor entry.

    Both masks start all-ones, so they need no value check here.
    """
    return CrystalGraph(
        node_elem=s.atomic_numbers.copy(),
        node_mask=np.ones(s.n_sites, dtype=np.int8),
        edges=np.stack([nl.src, nl.dst], axis=1).astype(np.int64),
        dist=nl.dist,
        edge_mask=np.ones(nl.n_edges, dtype=np.int8),
        basis=basis,
    )


def _checked_ints(values, name: str, low: int, high: int, dtype=np.int64,
                  shape: tuple[int, ...] | None = None) -> np.ndarray:
    """Integers in [low, high] as ``dtype``, of ``shape`` if given; else a GraphFormatError.

    A list's items are checked one by one: numpy reads ``[1, True]`` as integers.
    """
    arr = np.asarray(values, dtype=object if isinstance(values, list) else None)
    if arr.size and not ((arr.dtype.kind == "i" or all(type(v) is int for v in arr.flat))
                         and low <= arr.min() and arr.max() <= high):
        raise GraphFormatError(f"{name} must hold integers in [{low}, {high}], "
                               "not floats or booleans")
    if shape is not None and arr.shape != shape:
        raise GraphFormatError(f"{name} has shape {arr.shape}, not {shape}")
    return arr.astype(dtype, copy=False)


def with_node_mask(g: CrystalGraph, node_mask: np.ndarray) -> CrystalGraph:
    return replace(g, node_mask=_checked_ints(node_mask, "node_mask", 0, 1, np.int8,
                                              g.node_mask.shape))


def with_edge_mask(g: CrystalGraph, edge_mask: np.ndarray) -> CrystalGraph:
    return replace(g, edge_mask=_checked_ints(edge_mask, "edge_mask", 0, 1, np.int8,
                                              g.edge_mask.shape))


def merge_graphs(graphs: list[CrystalGraph]) -> tuple[CrystalGraph, np.ndarray]:
    """Concatenate graphs into one, returning node-to-graph segment ids."""
    if not graphs:
        raise ValueError("cannot merge zero graphs")
    basis = graphs[0].basis
    if any(g.basis != basis for g in graphs):
        raise ValueError("cannot merge graphs expanded in different bases")
    offsets = np.cumsum([0] + [g.n_nodes for g in graphs[:-1]])
    merged = CrystalGraph(
        node_elem=np.concatenate([g.node_elem for g in graphs]),
        node_mask=np.concatenate([g.node_mask for g in graphs]),
        edges=np.concatenate([g.edges + off for g, off in zip(graphs, offsets)]),
        dist=np.concatenate([g.dist for g in graphs]),
        edge_mask=np.concatenate([g.edge_mask for g in graphs]),
        basis=basis,
    )
    seg = np.repeat(np.arange(len(graphs), dtype=np.int64), [g.n_nodes for g in graphs])
    return merged, seg


# ---------------------------------------------------------------------------
# line-based JSON serialization (one graph per line)


def graph_to_json(g: CrystalGraph, id: str | None = None) -> str:
    """One JSON line: ``id`` (if given), node and edge arrays, ``dist`` and ``basis``."""
    record = {} if id is None else {"id": id}
    record.update(
        node_elem=g.node_elem.tolist(),
        node_mask=g.node_mask.tolist(),
        edges=g.edges.tolist(),
        dist=g.dist.tolist(),
        basis={f.name: getattr(g.basis, f.name) for f in fields(GaussianBasis)},
        edge_mask=g.edge_mask.tolist(),
    )
    return json.dumps(record, separators=(",", ":"))


def _numbers(values, name: str) -> np.ndarray:
    """A JSON list of numbers as float64; booleans, strings and ints past float range are not."""
    if isinstance(values, list) and all(type(v) in (int, float) for v in values):
        with contextlib.suppress(OverflowError):
            return np.array(values, dtype=np.float64)
    raise GraphFormatError(f"{name} must hold finite numbers")


def graph_from_json(line: str) -> tuple[CrystalGraph, str | None]:
    """Inverse of ``graph_to_json``: the graph (bit for bit) and its id, or None.

    Any line ``graph_to_json`` could not have written, but for keys it does
    not write, is a GraphFormatError that names the field at fault.
    """
    try:
        record = json.loads(line)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise GraphFormatError(f"graph line is not JSON: {exc}") from None
    if not isinstance(record, dict):
        raise GraphFormatError("graph line must be a JSON object")
    if "edge_feat" in record and "dist" not in record:
        raise GraphFormatError("graph line has edge_feat and no dist: this is the old "
                               "graphs.jsonl format; run featurize again to rewrite it")
    for name in ("node_elem", "node_mask", "edges", "dist", "basis", "edge_mask"):
        if name not in record:
            raise GraphFormatError(f"graph line has no {name}")
    if not isinstance(record.get("id", ""), str):
        raise GraphFormatError("id must be a string")
    node_elem = _checked_ints(record["node_elem"], "node_elem", 1, MAX_Z)
    if node_elem.ndim != 1 or not node_elem.size:
        raise GraphFormatError("node_elem must be a nonempty list of atomic numbers")
    n = len(node_elem)
    dist = _numbers(record["dist"], "dist")
    if not (np.isfinite(dist) & (dist >= 0)).all():
        raise GraphFormatError("dist must hold finite, nonnegative lengths")
    # graph_to_json writes no edges as [], not as a (0, 2) list
    edges = record["edges"] if record["edges"] != [] else np.zeros((0, 2), dtype=np.int64)
    basis = record["basis"]
    if not isinstance(basis, dict) or sorted(basis) != sorted(f.name for f in fields(GaussianBasis)):
        raise GraphFormatError("basis must hold exactly d_min, d_max, step and var")
    values = _numbers(list(basis.values()), "basis").tolist()
    try:
        basis = GaussianBasis(**dict(zip(basis, values)))
    except ValueError as exc:
        raise GraphFormatError(f"basis: {exc}") from None
    graph = CrystalGraph(
        node_elem=node_elem,
        node_mask=_checked_ints(record["node_mask"], "node_mask", 0, 1, np.int8, (n,)),
        edges=_checked_ints(edges, "edges", 0, n - 1, shape=(len(dist), 2)),
        dist=dist,
        edge_mask=_checked_ints(record["edge_mask"], "edge_mask", 0, 1, np.int8, (len(dist),)),
        basis=basis,
    )
    return graph, record.get("id")
