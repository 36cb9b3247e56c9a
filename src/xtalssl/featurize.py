"""Crystal graph construction: element-indexed nodes, Gaussian-expanded edges."""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .geometry import NeighborList
from .structure_io import CrystalStructure


@dataclass(frozen=True)
class GaussianBasis:
    """Evenly spaced Gaussian centers on [d_min, d_max] with width sqrt(var)."""

    d_min: float = 0.0
    d_max: float = 8.0
    step: float = 0.2
    var: float = 0.04  # step**2 for the default grid

    def __post_init__(self):
        if not self.d_min < self.d_max:
            raise ValueError("require d_min < d_max")
        if self.step <= 0 or self.var <= 0:
            raise ValueError("step and var must be positive")

    @property
    def n_centers(self) -> int:
        # floor((d_max - d_min)/step) + 1; the epsilon keeps exact-multiple
        # ranges like (8 - 0)/0.2 from landing one bin short in floats
        return int(np.floor((self.d_max - self.d_min) / self.step + 1e-9)) + 1

    @property
    def centers(self) -> np.ndarray:
        return self.d_min + self.step * np.arange(self.n_centers, dtype=np.float64)


@dataclass(frozen=True)
class CrystalGraph:
    """Directed crystal graph with mask vectors for augmentation.

    Masks multiply features downstream (0 = feature row reads as zero),
    so topology is stable across augmentations.
    """

    node_elem: np.ndarray  # (N,) int64 atomic numbers
    node_mask: np.ndarray  # (N,) int8, 1 = active
    edges: np.ndarray  # (E, 2) int64 (src, dst)
    edge_feat: np.ndarray  # (E, K) float64
    edge_mask: np.ndarray  # (E,) int8

    def __post_init__(self):
        n = self.node_elem.shape[0]
        e = self.edges.shape[0]
        if self.edges.size and (self.edges.min() < 0 or self.edges.max() >= n):
            raise ValueError("edge endpoints out of range")
        if self.node_mask.shape != (n,):
            raise ValueError("node_mask must have one entry per node")
        if self.edge_mask.shape != (e,) or self.edge_feat.shape[0] != e:
            raise ValueError("edge arrays must agree on edge count")
        for mask in (self.node_mask, self.edge_mask):
            if not ((mask == 0) | (mask == 1)).all():
                raise ValueError("masks must be {0,1}-valued")

    @property
    def n_nodes(self) -> int:
        return self.node_elem.shape[0]

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]


def gaussian_expand(dist, basis: GaussianBasis) -> np.ndarray:
    """exp(-(d - mu_k)^2 / var) in (0, 1] for each distance: (...,) -> (..., K)."""
    diff = np.asarray(dist, dtype=np.float64)[..., None] - basis.centers
    return np.exp(-(diff * diff) / basis.var)


def build_graph(s: CrystalStructure, nl: NeighborList, basis: GaussianBasis = GaussianBasis()) -> CrystalGraph:
    """Graph with one node per site and one directed edge per neighbor entry."""
    return CrystalGraph(
        node_elem=s.atomic_numbers.copy(),
        node_mask=np.ones(s.n_sites, dtype=np.int8),
        edges=np.stack([nl.src, nl.dst], axis=1).astype(np.int64),
        edge_feat=gaussian_expand(nl.dist, basis),
        edge_mask=np.ones(nl.n_edges, dtype=np.int8),
    )


def with_node_mask(g: CrystalGraph, node_mask: np.ndarray) -> CrystalGraph:
    return replace(g, node_mask=np.asarray(node_mask, dtype=np.int8))


def with_edge_mask(g: CrystalGraph, edge_mask: np.ndarray) -> CrystalGraph:
    return replace(g, edge_mask=np.asarray(edge_mask, dtype=np.int8))


def merge_graphs(graphs: list[CrystalGraph]) -> tuple[CrystalGraph, np.ndarray]:
    """Concatenate graphs into one, returning node-to-graph segment ids."""
    if not graphs:
        raise ValueError("cannot merge zero graphs")
    node_elem, node_mask, edges, edge_feat, edge_mask, seg = [], [], [], [], [], []
    offset = 0
    for gi, g in enumerate(graphs):
        node_elem.append(g.node_elem)
        node_mask.append(g.node_mask)
        edges.append(g.edges + offset)
        edge_feat.append(g.edge_feat)
        edge_mask.append(g.edge_mask)
        seg.append(np.full(g.n_nodes, gi, dtype=np.int64))
        offset += g.n_nodes
    k = graphs[0].edge_feat.shape[1]
    merged = CrystalGraph(
        node_elem=np.concatenate(node_elem),
        node_mask=np.concatenate(node_mask),
        edges=np.concatenate(edges) if edges else np.zeros((0, 2), dtype=np.int64),
        edge_feat=np.concatenate(edge_feat) if edge_feat else np.zeros((0, k)),
        edge_mask=np.concatenate(edge_mask),
    )
    return merged, np.concatenate(seg)


# ---------------------------------------------------------------------------
# line-based JSON serialization (one graph per line)


def graph_to_json(g: CrystalGraph, id: str | None = None) -> str:
    record = {} if id is None else {"id": id}
    record.update(
        node_elem=g.node_elem.tolist(),
        node_mask=g.node_mask.tolist(),
        edges=g.edges.tolist(),
        edge_feat_dim=int(g.edge_feat.shape[1]),
        edge_feat=g.edge_feat.tolist(),
        edge_mask=g.edge_mask.tolist(),
    )
    return json.dumps(record, separators=(",", ":"))


def graph_from_json(line: str) -> tuple[CrystalGraph, str | None]:
    record = json.loads(line)
    n_edges = len(record["edges"])
    k = int(record["edge_feat_dim"])
    graph = CrystalGraph(
        node_elem=np.array(record["node_elem"], dtype=np.int64),
        node_mask=np.array(record["node_mask"], dtype=np.int8),
        edges=np.array(record["edges"], dtype=np.int64).reshape(n_edges, 2),
        edge_feat=np.array(record["edge_feat"], dtype=np.float64).reshape(n_edges, k),
        edge_mask=np.array(record["edge_mask"], dtype=np.int8),
    )
    return graph, record.get("id")
