"""Stochastic augmentations: random perturbation, atom masking, edge masking.

Every operation is a deterministic function of (input, rng state).  The
perturbation moves atoms in cartesian space before graph construction;
masking zeroes mask bits and never touches topology or feature values.
Both views of a structure take their neighbor lists from one skin
candidate list (``view_candidates``, through ``geometry.candidate_list``),
which gives each view exactly the list a fresh search of it would.  A
caller may build that list once and pass it to every ``make_views`` call
of the structure, as pretraining does.

A view is the chain ``random_perturb``, neighbor list, ``build_graph``,
``mask_atoms``, ``mask_edges``, with the same draws in the same order and
the same arithmetic (``_displace``, ``_drop``), but built from arrays
checked once per structure: the candidate list's lattice and its inverse,
and masks the view draws itself.  It makes no ``CrystalStructure`` and
checks no mask, and builds one graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .featurize import CrystalGraph, GaussianBasis, _graph, with_edge_mask, with_node_mask
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


def _perturb(s: CrystalStructure, rng: np.random.Generator,
             max_disp: float) -> tuple[CrystalStructure, np.ndarray]:
    """random_perturb, and the whole-cell shift (N, 3) that wrapped each site back."""
    if max_disp < 0:
        raise ValueError("max_disp must be >= 0")
    frac, shift = _displace(s.frac_coords, np.linalg.inv(s.lattice), rng, max_disp)
    if max_disp == 0:
        return s, shift
    return CrystalStructure(lattice=s.lattice, atomic_numbers=s.atomic_numbers,
                            frac_coords=frac), shift


def random_perturb(s: CrystalStructure, rng: np.random.Generator, max_disp: float) -> CrystalStructure:
    """Displace every site by r * u, r ~ Uniform[0, max_disp], u uniform on the sphere."""
    return _perturb(s, rng, max_disp)[0]


def _mask_count(n: int, fraction: float) -> int:
    # at least one item is masked whenever the fraction is positive,
    # otherwise 10% masking would be a no-op on small cells; half-up rounding
    if fraction == 0.0 or n == 0:
        return 0
    return max(1, int(math.floor(fraction * n + 0.5)))


def _drop(mask: np.ndarray, rng: np.random.Generator, fraction: float) -> bool:
    """Zero max(1, round(fraction*n)) uniformly chosen of the n entries of ``mask``; whether any."""
    m = _mask_count(mask.shape[0], fraction)
    if m:
        mask[rng.choice(mask.shape[0], size=m, replace=False)] = 0
    return m > 0


def mask_atoms(g: CrystalGraph, rng: np.random.Generator, fraction: float) -> CrystalGraph:
    """Zero the node_mask of max(1, round(fraction*N)) uniformly chosen nodes."""
    mask = g.node_mask.copy()
    return with_node_mask(g, mask) if _drop(mask, rng, fraction) else g


def mask_edges(g: CrystalGraph, rng: np.random.Generator, fraction: float) -> CrystalGraph:
    """Zero the edge_mask of max(1, round(fraction*|E|)) uniformly chosen edges."""
    mask = g.edge_mask.copy()
    return with_edge_mask(g, mask) if _drop(mask, rng, fraction) else g


def _displacement(cfg: AugmentConfig) -> float:
    return cfg.max_displacement if cfg.enable_perturb else 0.0


def _augment(
    s: CrystalStructure,
    cfg: AugmentConfig,
    candidates: CandidateList,
    basis: GaussianBasis,
    rng: np.random.Generator,
) -> CrystalGraph:
    """One view of ``s``, built as the module docstring says."""
    frac, shift = _displace(s.frac_coords, candidates.inv_lattice, rng, _displacement(cfg))
    nl = view_neighbor_list(candidates, frac, shift)
    node_mask = np.ones(s.n_sites, dtype=np.int8)
    edge_mask = np.ones(nl.n_edges, dtype=np.int8)
    if cfg.enable_atom_mask:
        _drop(node_mask, rng, cfg.mask_fraction)
    if cfg.enable_edge_mask:
        _drop(edge_mask, rng, cfg.mask_fraction)
    return _graph(s.atomic_numbers, nl, basis, node_mask, edge_mask)


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
