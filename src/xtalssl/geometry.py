"""Lattice arithmetic and periodic-boundary neighbor search.

Conventions: lattice rows are the cell vectors, positions are row
vectors, so cart = frac @ lattice.  The neighbor search enumerates the
minimal block of periodic images guaranteed to contain the cutoff
sphere (bound per axis from the perpendicular interplanar spacing) and
keeps, per source atom, the nearest ``max_neighbors`` candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .structure_io import CrystalStructure


class SingularLattice(ValueError):
    pass


class DegenerateCell(ValueError):
    pass


# largest periodic-image block the neighbor search will enumerate; real
# cells need a few hundred images, a nearly flat cell asks for millions
MAX_IMAGES = 100_000


@dataclass(frozen=True)
class NeighborConfig:
    cutoff: float = 8.0
    max_neighbors: int = 12

    def __post_init__(self):
        if self.cutoff <= 0:
            raise ValueError("cutoff must be positive")
        if self.max_neighbors < 1:
            raise ValueError("max_neighbors must be >= 1")


@dataclass(frozen=True)
class NeighborList:
    """Directed edges (src, dst, distance, image), grouped by src.

    ``image`` counts lattice translations applied to the destination
    site.  Edges of one src are sorted ascending by distance with ties
    broken by (dst, image).
    """

    src: np.ndarray  # (E,) int64
    dst: np.ndarray  # (E,) int64
    dist: np.ndarray  # (E,) float64
    image: np.ndarray  # (E, 3) int64

    @property
    def n_edges(self) -> int:
        return self.src.shape[0]


def _check_lattice(lattice: np.ndarray) -> np.ndarray:
    lattice = np.asarray(lattice, dtype=np.float64).reshape(3, 3)
    if not abs(np.linalg.det(lattice)) >= 1e-12:
        raise SingularLattice("lattice matrix is singular")
    return lattice


def frac_to_cart(lattice: np.ndarray, frac: np.ndarray) -> np.ndarray:
    """Fractional to cartesian coordinates (row-vector convention)."""
    lattice = _check_lattice(lattice)
    return np.asarray(frac, dtype=np.float64) @ lattice


def periodic_distance(lattice, fa, fb, image=(0, 0, 0)) -> float:
    """Distance from site fa to the copy of fb translated by ``image``."""
    delta = np.asarray(fb, dtype=np.float64) + np.asarray(image, dtype=np.float64) - np.asarray(fa, dtype=np.float64)
    return float(np.linalg.norm(frac_to_cart(lattice, delta)))


def _images_per_axis(lattice: np.ndarray, cutoff: float) -> tuple[int, int, int]:
    # perpendicular spacing of the planes spanned by the other two axes;
    # ceil(cutoff / spacing) images per direction cover the cutoff sphere
    # even for strongly skewed cells
    volume = abs(float(np.linalg.det(lattice)))
    counts = []
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        cross = np.cross(lattice[j], lattice[k])
        spacing = volume / float(np.linalg.norm(cross))
        counts.append(int(math.ceil(cutoff / spacing)))
    return counts[0], counts[1], counts[2]


def build_neighbor_list(s: CrystalStructure, cfg: NeighborConfig = NeighborConfig()) -> NeighborList:
    """All periodic neighbors within the cutoff, truncated per source.

    Self-images at nonzero translation count as neighbors (a one-atom
    cell still has edges); the zero-distance self pair does not.  Per
    source the nearest ``max_neighbors`` are kept, ties broken by
    (distance, dst index, lexicographic image).  Raises DegenerateCell
    when the cutoff sphere spans more than ``MAX_IMAGES`` images.
    """
    lattice = _check_lattice(s.lattice)
    n1, n2, n3 = _images_per_axis(lattice, cfg.cutoff)
    n_images = (2 * n1 + 1) * (2 * n2 + 1) * (2 * n3 + 1)
    if n_images > MAX_IMAGES:
        raise DegenerateCell(
            f"cutoff {cfg.cutoff} needs {n_images} periodic images (limit {MAX_IMAGES}); "
            "the cell is too thin along some axis"
        )
    g1, g2, g3 = np.meshgrid(
        np.arange(-n1, n1 + 1), np.arange(-n2, n2 + 1), np.arange(-n3, n3 + 1), indexing="ij"
    )
    images = np.stack([g1.ravel(), g2.ravel(), g3.ravel()], axis=1).astype(np.int64)
    zero_index = int(np.nonzero((images == 0).all(axis=1))[0][0])

    cart = s.frac_coords @ lattice
    image_carts = images.astype(np.float64) @ lattice
    # disp[i, j, m] = position of atom j in image m relative to atom i
    disp = cart[None, :, None, :] + image_carts[None, None, :, :] - cart[:, None, None, :]
    d2 = disp[..., 0] * disp[..., 0] + disp[..., 1] * disp[..., 1] + disp[..., 2] * disp[..., 2]
    within = d2 <= cfg.cutoff * cfg.cutoff
    sites = np.arange(s.n_sites)
    within[sites, sites, zero_index] = False
    src, dst, img_idx = np.nonzero(within)
    dist = np.sqrt(d2[within])

    img = images[img_idx]
    order = np.lexsort((img[:, 2], img[:, 1], img[:, 0], dst, dist, src))
    src, dst, dist, img = src[order], dst[order], dist[order], img[order]

    keep = np.ones(src.shape[0], dtype=bool)
    bounds = np.searchsorted(src, np.arange(s.n_sites + 1))
    for i in range(s.n_sites):
        lo, hi = bounds[i], bounds[i + 1]
        if hi - lo > cfg.max_neighbors:
            keep[lo + cfg.max_neighbors : hi] = False
    return NeighborList(src=src[keep], dst=dst[keep], dist=dist[keep], image=img[keep])
