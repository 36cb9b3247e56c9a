"""Shared test utilities for neighbor-list comparisons."""

import numpy as np

from xtalssl.augment import _displace, batch_views, view_candidates
from xtalssl.geometry import candidate_lists, view_neighbor_lists, view_sites
from xtalssl.structure_io import CrystalStructure

from oracles import supercell_neighbors


def canonical_edges(edges):
    """(src, dst, image) identifies an edge uniquely; sort on it."""
    out = [(int(a), int(b), tuple(int(v) for v in im), float(d))
           for a, b, im, d in edges]
    out.sort(key=lambda e: e[:3])
    return out


def candidate_list(s, cfg, max_disp):
    """``candidate_lists`` of the one structure ``s``."""
    return candidate_lists([s], cfg, max_disp)[0]


def view_neighbor_list(c, frac_coords, shift):
    """One view's neighbor list from the candidate list ``c``: the one-view batch selection.

    ``frac_coords`` (N, 3) are the structure's sites displaced by at most
    ``c.max_disp`` and wrapped into the cell by subtracting the integer
    translations ``shift`` (N, 3).
    """
    return view_neighbor_lists([view_sites(c, frac_coords, shift)])


def views_of(structures, cfg, neighbor_cfg, basis, rng):
    """``batch_views`` of fresh ``view_candidates`` lists of ``structures``."""
    return batch_views(view_candidates(structures, cfg, neighbor_cfg), cfg, basis, rng)


def perturbed(s, rng, max_disp):
    """``random_perturb(s, rng, max_disp)``, and the whole-cell shift (N, 3) that wrapped each site back.

    The same draws from ``rng``; returns a new structure even at
    ``max_disp`` 0.
    """
    frac, shift = _displace(s.frac_coords, np.linalg.inv(s.lattice), rng, max_disp)
    return CrystalStructure(lattice=s.lattice, atomic_numbers=s.atomic_numbers,
                            frac_coords=frac), shift


def draw_unambiguous_structure(rng, cfg, n_max=8):
    """Random structure whose neighbor list is insensitive to fp noise.

    Exact-arithmetic distance ties (self-image pairs m / -m) are real, so a
    candidate sitting within 1e-9 of the cutoff shell or of the
    max_neighbors truncation boundary could be kept by one implementation
    and dropped by another.  Redraw until neither boundary is contested.
    Axis lengths stay >= 4.4 A so every neighbor at cutoff <= 8 A lies
    within the -2..2 image block the brute-force oracle enumerates.
    """
    for _ in range(100):
        n = int(rng.integers(1, n_max + 1))
        lengths = rng.uniform(4.4, 6.0, 3)
        skew = rng.uniform(-0.15, 0.15, (3, 3)) * (1 - np.eye(3))
        s = CrystalStructure(
            lattice=np.diag(lengths) + skew,
            atomic_numbers=rng.integers(1, 101, n),
            frac_coords=rng.uniform(0, 1, (n, 3)),
        )
        full = supercell_neighbors(s.lattice, s.frac_coords, cfg.cutoff + 1e-6, 10_000)
        src = np.array([e[0] for e in full], dtype=np.int64)
        dist = np.array([e[3] for e in full])
        if dist.size and np.any(np.abs(dist - cfg.cutoff) < 1e-9):
            continue
        ok = True
        for i in range(n):
            d = np.sort(dist[src == i])
            if d.size > cfg.max_neighbors and \
                    d[cfg.max_neighbors] - d[cfg.max_neighbors - 1] < 1e-9:
                ok = False
                break
        if ok:
            return s
    raise AssertionError("could not draw an unambiguous structure")
