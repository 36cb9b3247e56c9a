"""Stochastic augmentations: random perturbation, atom masking, edge masking.

Every operation is a deterministic function of (input, rng state).  The
perturbation moves atoms in cartesian space before graph construction;
masking zeroes mask bits and never touches topology or feature values.
Both views of a structure take their neighbor lists from one skin
candidate list (``view_candidates``, through ``geometry.candidate_lists``,
one search for many structures), which gives each view exactly the list a
fresh search of it would.  The list holds the structure it was searched
from and its neighbor config, so it is the whole input of its views: a
caller builds it once and passes it to every call, as pretraining does.
Only a list built for a smaller displacement than the views' is rejected.

``batch_views`` builds views a and b of every list's structure and merges
each side, in one pass.  Per view it does only what follows the
random stream, in the chain's order, entry by entry, view a then view b:
the displacement draws and the wrap (``_displace``), the node-mask draw
and the edge-mask draw.  The edge-mask draw needs the view's edge count,
which ``geometry.view_sites`` takes from the list's few boundary
candidates alone.  Everything else runs once over all the batch's views
(``geometry.view_neighbor_lists``): shifted images, distances, each
source's nearest neighbors, the masks and the merged arrays.  Each side
is ``merge_graphs`` of the chain ``random_perturb``,
``build_neighbor_list``, ``build_graph``, ``mask_atoms``, ``mask_edges``
run view by view, bit for bit, and the generator ends in the same state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .featurize import CrystalGraph, GaussianBasis, with_edge_mask, with_node_mask
from .geometry import (
    CandidateList,
    NeighborConfig,
    candidate_lists,
    view_neighbor_lists,
    view_sites,
)
from .structure_io import CrystalStructure, wrap_frac


# largest perturbation cap, angstrom (20x the paper's 0.05): the skin widens the
# neighbor search by twice the cap, and 1000 would ask for gigabytes of images
MAX_DISPLACEMENT = 1.0


class NoAugmentationEnabled(ValueError):
    pass


@dataclass(frozen=True)
class AugmentConfig:
    enable_perturb: bool = True
    enable_atom_mask: bool = True
    enable_edge_mask: bool = True
    max_displacement: float = 0.05  # angstrom
    mask_fraction: float = 0.10

    def __post_init__(self):
        if not 0 <= self.max_displacement <= MAX_DISPLACEMENT:
            raise ValueError(f"max_displacement must be finite and in [0, {MAX_DISPLACEMENT}] "
                             f"angstrom, got {self.max_displacement}")
        if not 0.0 <= self.mask_fraction <= 1.0:
            raise ValueError("mask_fraction must lie in [0, 1]")

    @property
    def any_enabled(self) -> bool:
        return self.enable_perturb or self.enable_atom_mask or self.enable_edge_mask


def _displace(frac: np.ndarray, inv_lattice: np.ndarray, rng: np.random.Generator,
              max_disp: float) -> tuple[np.ndarray, np.ndarray]:
    """random_perturb's sites from ``frac``, and the whole-cell shift (N, 3) that wrapped each back.

    ``inv_lattice`` is the inverse of the structure's lattice.
    """
    n = frac.shape[0]
    if max_disp == 0:
        return frac, np.zeros((n, 3), dtype=np.int64)
    directions = rng.normal(size=(n, 3))
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    norms[norms < 1e-300] = 1.0
    directions /= norms
    radii = rng.uniform(0.0, max_disp, size=(n, 1))
    unwrapped = frac + (radii * directions) @ inv_lattice
    wrapped = wrap_frac(unwrapped)
    # exact whatever the displacement: a site may cross a face by a whole cell
    return wrapped, np.rint(unwrapped - wrapped).astype(np.int64)


def random_perturb(s: CrystalStructure, rng: np.random.Generator, max_disp: float) -> CrystalStructure:
    """Displace every site by r * u, r ~ Uniform[0, max_disp], u uniform on the sphere."""
    if max_disp < 0:
        raise ValueError("max_disp must be >= 0")
    if max_disp == 0:
        return s
    frac, _ = _displace(s.frac_coords, np.linalg.inv(s.lattice), rng, max_disp)
    return CrystalStructure(lattice=s.lattice, atomic_numbers=s.atomic_numbers, frac_coords=frac)


def _mask_count(n: int, fraction: float) -> int:
    # at least one item is masked whenever the fraction is positive,
    # otherwise 10% masking would be a no-op on small cells; half-up rounding
    if fraction == 0.0 or n == 0:
        return 0
    return max(1, int(math.floor(fraction * n + 0.5)))


def _dropped(n: int, rng: np.random.Generator, fraction: float) -> np.ndarray:
    """max(1, round(fraction*n)) uniformly chosen of n indices, drawn without replacement."""
    m = _mask_count(n, fraction)
    return rng.choice(n, size=m, replace=False) if m else np.zeros(0, dtype=np.int64)


def mask_atoms(g: CrystalGraph, rng: np.random.Generator, fraction: float) -> CrystalGraph:
    """Zero the node_mask of max(1, round(fraction*N)) uniformly chosen nodes."""
    drop = _dropped(g.n_nodes, rng, fraction)
    if not drop.size:
        return g
    mask = g.node_mask.copy()
    mask[drop] = 0
    return with_node_mask(g, mask)


def mask_edges(g: CrystalGraph, rng: np.random.Generator, fraction: float) -> CrystalGraph:
    """Zero the edge_mask of max(1, round(fraction*|E|)) uniformly chosen edges."""
    drop = _dropped(g.n_edges, rng, fraction)
    if not drop.size:
        return g
    mask = g.edge_mask.copy()
    mask[drop] = 0
    return with_edge_mask(g, mask)


def _displacement(cfg: AugmentConfig) -> float:
    return cfg.max_displacement if cfg.enable_perturb else 0.0


def view_candidates(structures: list[CrystalStructure], cfg: AugmentConfig,
                    neighbor_cfg: NeighborConfig) -> list[CandidateList]:
    """Per structure, the candidate list its every view under ``cfg`` takes its neighbors from.

    One search serves all of them (``geometry.candidate_lists``).
    """
    if not cfg.any_enabled:
        raise NoAugmentationEnabled("at least one augmentation must be enabled")
    return candidate_lists(structures, neighbor_cfg, _displacement(cfg))


def _side_mask(sizes: list[int], drops: list[np.ndarray]) -> np.ndarray:
    """One side's int8 mask over its views' items, ``sizes[v]`` of view v, 0 at its ``drops[v]``."""
    sizes = np.array(sizes)
    mask = np.ones(sizes.sum(), dtype=np.int8)
    mask[np.concatenate([d + o for d, o in zip(drops, np.cumsum(sizes) - sizes)])] = 0
    return mask


def batch_views(
    candidates: list[CandidateList],
    cfg: AugmentConfig,
    basis: GaussianBasis,
    rng: np.random.Generator,
) -> tuple[tuple[CrystalGraph, np.ndarray], tuple[CrystalGraph, np.ndarray]]:
    """Views a and b of every list's structure, each side merged.

    Returns (graph, segment ids) per side, as ``merge_graphs`` of the a
    views and of the b views would, built as the module docstring says.
    Each view takes its sites, elements and neighbor config from its list,
    ``view_candidates(s, cfg, neighbor_cfg)`` or any list of ``s`` built
    for at least ``cfg``'s displacement; a list built for less is a
    ValueError.
    """
    if not cfg.any_enabled:
        raise NoAugmentationEnabled("at least one augmentation must be enabled")
    max_disp = _displacement(cfg)
    structures = [c.structure for c in candidates]
    for c in candidates:
        if c.max_disp < max_disp:
            raise ValueError(f"candidate list built for max_disp {c.max_disp} cannot "
                             f"serve views under max_disp {max_disp}")
    # a mask that is off drops nothing and draws nothing, as at fraction 0
    node_fraction = cfg.mask_fraction if cfg.enable_atom_mask else 0.0
    edge_fraction = cfg.mask_fraction if cfg.enable_edge_mask else 0.0
    views, node_drops, edge_drops = ([], []), ([], []), ([], [])
    for s, c in zip(structures, candidates):
        for side in (0, 1):
            view = view_sites(c, *_displace(s.frac_coords, c.inv_lattice, rng, max_disp))
            views[side].append(view)
            node_drops[side].append(_dropped(s.n_sites, rng, node_fraction))
            edge_drops[side].append(_dropped(view.n_edges, rng, edge_fraction))
    nl = view_neighbor_lists(views[0] + views[1])
    edges = np.stack([nl.src, nl.dst], axis=1)
    n_nodes, n_edges = sum(s.n_sites for s in structures), sum(v.n_edges for v in views[0])
    # view_neighbor_lists numbers the b views' sites after the a views'
    edges[n_edges:] -= n_nodes
    sizes = [s.n_sites for s in structures]
    seg = np.repeat(np.arange(len(structures), dtype=np.int64), sizes)
    merged = []
    for side, part in enumerate((slice(None, n_edges), slice(n_edges, None))):
        graph = CrystalGraph(
            node_elem=np.concatenate([s.atomic_numbers for s in structures]),
            node_mask=_side_mask(sizes, node_drops[side]), edges=edges[part], dist=nl.dist[part],
            edge_mask=_side_mask([v.n_edges for v in views[side]], edge_drops[side]), basis=basis)
        merged.append((graph, seg.copy()))
    return merged[0], merged[1]
