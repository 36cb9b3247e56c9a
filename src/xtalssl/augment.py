"""Stochastic augmentations: random perturbation, atom masking, edge masking.

Every operation is a deterministic function of (input, rng state).  The
perturbation moves atoms in cartesian space before graph construction;
masking flips mask bits on an already-built graph and never touches
topology or feature values.  Both views of a structure take their
neighbor lists from one skin candidate list (``view_candidates``, through
``geometry.candidate_list``), which gives each view exactly the list a
fresh search of it would.  A caller may build that list once and pass it
to every ``make_views`` call of the structure, as pretraining does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .featurize import CrystalGraph, GaussianBasis, build_graph, with_edge_mask, with_node_mask
from .geometry import CandidateList, NeighborConfig, candidate_list, view_neighbor_list
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


def _perturb(s: CrystalStructure, rng: np.random.Generator,
             max_disp: float) -> tuple[CrystalStructure, np.ndarray]:
    """random_perturb, and the whole-cell shift (N, 3) that wrapped each site back."""
    if max_disp < 0:
        raise ValueError("max_disp must be >= 0")
    if max_disp == 0:
        return s, np.zeros((s.n_sites, 3), dtype=np.int64)
    directions = rng.normal(size=(s.n_sites, 3))
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    norms[norms < 1e-300] = 1.0
    directions /= norms
    radii = rng.uniform(0.0, max_disp, size=(s.n_sites, 1))
    cart_disp = radii * directions
    unwrapped = s.frac_coords + cart_disp @ np.linalg.inv(s.lattice)
    view = CrystalStructure(
        lattice=s.lattice,
        atomic_numbers=s.atomic_numbers,
        frac_coords=wrap_frac(unwrapped),
    )
    # exact whatever the displacement: a site may cross a face by a whole cell
    return view, np.rint(unwrapped - view.frac_coords).astype(np.int64)


def random_perturb(s: CrystalStructure, rng: np.random.Generator, max_disp: float) -> CrystalStructure:
    """Displace every site by r * u, r ~ Uniform[0, max_disp], u uniform on the sphere."""
    return _perturb(s, rng, max_disp)[0]


def _mask_count(n: int, fraction: float) -> int:
    # at least one item is masked whenever the fraction is positive,
    # otherwise 10% masking would be a no-op on small cells; half-up rounding
    if fraction == 0.0 or n == 0:
        return 0
    return max(1, int(math.floor(fraction * n + 0.5)))


def mask_atoms(g: CrystalGraph, rng: np.random.Generator, fraction: float) -> CrystalGraph:
    """Zero the node_mask of max(1, round(fraction*N)) uniformly chosen nodes."""
    m = _mask_count(g.n_nodes, fraction)
    if m == 0:
        return g
    chosen = rng.choice(g.n_nodes, size=m, replace=False)
    mask = g.node_mask.copy()
    mask[chosen] = 0
    return with_node_mask(g, mask)


def mask_edges(g: CrystalGraph, rng: np.random.Generator, fraction: float) -> CrystalGraph:
    """Zero the edge_mask of max(1, round(fraction*|E|)) uniformly chosen edges."""
    m = _mask_count(g.n_edges, fraction)
    if m == 0:
        return g
    chosen = rng.choice(g.n_edges, size=m, replace=False)
    mask = g.edge_mask.copy()
    mask[chosen] = 0
    return with_edge_mask(g, mask)


def _displacement(cfg: AugmentConfig) -> float:
    return cfg.max_displacement if cfg.enable_perturb else 0.0


def _augment(
    s: CrystalStructure,
    cfg: AugmentConfig,
    candidates: CandidateList,
    basis: GaussianBasis,
    rng: np.random.Generator,
) -> CrystalGraph:
    view, shift = _perturb(s, rng, _displacement(cfg))
    g = build_graph(view, view_neighbor_list(candidates, view, shift), basis)
    if cfg.enable_atom_mask:
        g = mask_atoms(g, rng, cfg.mask_fraction)
    if cfg.enable_edge_mask:
        g = mask_edges(g, rng, cfg.mask_fraction)
    return g


def view_candidates(s: CrystalStructure, cfg: AugmentConfig,
                    neighbor_cfg: NeighborConfig) -> CandidateList:
    """The candidate list that every view of ``s`` under ``cfg`` takes its neighbor list from."""
    if not cfg.any_enabled:
        raise NoAugmentationEnabled("at least one augmentation must be enabled")
    return candidate_list(s, neighbor_cfg, _displacement(cfg))


def make_views(
    s: CrystalStructure,
    cfg: AugmentConfig,
    neighbor_cfg: NeighborConfig,
    basis: GaussianBasis,
    rng: np.random.Generator,
    candidates: CandidateList | None = None,
) -> tuple[CrystalGraph, CrystalGraph]:
    """Two independently augmented graphs of the same structure, from one neighbor search.

    ``candidates`` is ``view_candidates(s, cfg, neighbor_cfg)`` for a
    caller that holds it already; without it, this call searches.
    """
    if candidates is None:
        candidates = view_candidates(s, cfg, neighbor_cfg)
    view_a = _augment(s, cfg, candidates, basis, rng)
    view_b = _augment(s, cfg, candidates, basis, rng)
    return view_a, view_b
