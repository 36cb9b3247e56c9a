"""Lattice arithmetic and periodic-boundary neighbor search.

Conventions: lattice rows are the cell vectors, positions are row
vectors, so cart = frac @ lattice.  The neighbor search enumerates the
minimal block of periodic images guaranteed to contain the cutoff
sphere (bound per axis from the perpendicular interplanar spacing) and
keeps, per source atom, the nearest ``max_neighbors`` candidates.

Perturbed views share one search, a Verlet list with a skin (Verlet,
Phys. Rev. 159, 98, 1967).  A view moves each site by at most delta, so
each pair distance by at most 2 delta.  ``candidate_list`` searches the
unperturbed structure once and keeps, per source i, the pairs with

    d <= min(cutoff + 2 delta, D_i + 4 delta),

D_i being the source's ``max_neighbors``-th smallest distance (inf if it
has fewer).  The bound is exact.  A pair a view keeps lies within the
cutoff there, so within cutoff + 2 delta before.  The source's
``max_neighbors`` nearest pairs lie within D_i + 2 delta in the view, so
every pair the view keeps, ties at its truncation distance included,
does too, and lay within D_i + 4 delta before.  Both bounds carry a
slack of 1e-9 * (cutoff + 2 delta) for rounding.  ``view_neighbor_list``
recomputes the candidates' distances from the view's coordinates with
the dense kernel's arithmetic and selects as ``build_neighbor_list``
does, so both return the same arrays, bit for bit.
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
        if not (np.isfinite(self.cutoff) and self.cutoff > 0):
            raise ValueError(f"cutoff must be finite and positive, got {self.cutoff}")
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
    if not (np.isfinite(lattice).all() and abs(np.linalg.det(lattice)) >= 1e-12):
        raise SingularLattice("lattice matrix is singular")
    return lattice


def _image_counts(lattice: np.ndarray, cutoff: float) -> list[int]:
    # column i of the inverse lattice has length 1 / (perpendicular spacing
    # of the planes spanned by the other two axes); ceil(cutoff / spacing)
    # images per direction cover the cutoff sphere even for strongly skewed
    # cells.  Python ints, so a product of counts cannot overflow.
    return [math.ceil(cutoff * r) for r in np.linalg.norm(np.linalg.inv(lattice), axis=0).tolist()]


def _images_per_axis(lattice: np.ndarray, cutoff: float) -> np.ndarray:
    return np.array(_image_counts(lattice, cutoff), dtype=np.int64)


def _checked_images_per_axis(lattice: np.ndarray, cutoff: float) -> np.ndarray:
    counts = _image_counts(lattice, cutoff)
    n_images = math.prod(2 * n + 1 for n in counts)
    if n_images > MAX_IMAGES:
        raise DegenerateCell(
            f"cutoff {cutoff} needs {n_images} periodic images (limit {MAX_IMAGES}); "
            "the cell is too thin along some axis"
        )
    return np.array(counts, dtype=np.int64)


def _image_block(lattice: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Images -counts..counts per axis in lexicographic order, and their translations."""
    n1, n2, n3 = (int(n) for n in counts)
    g1, g2, g3 = np.meshgrid(
        np.arange(-n1, n1 + 1), np.arange(-n2, n2 + 1), np.arange(-n3, n3 + 1), indexing="ij"
    )
    images = np.stack([g1.ravel(), g2.ravel(), g3.ravel()], axis=1).astype(np.int64)
    return images, images.astype(np.float64) @ lattice


def _sum_of_squares(terms) -> np.ndarray:
    """(p0 - q0)**2 + (p1 - q1)**2 + (p2 - q2)**2 for (p_a, q_a) = terms(a), added in that order."""
    total = t = None
    for axis in range(3):
        t = np.subtract(*terms(axis), out=t)
        np.multiply(t, t, out=t)
        if total is None:
            total, t = t, None
        else:
            total += t
    return total


def _pairs_within(cart: np.ndarray, image_carts: np.ndarray, cutoff: float) -> tuple:
    """Dense kernel: every (src, dst, image index) within ``cutoff``, and its squared distance.

    Pairs come in (src, dst, image index) order; the zero-image self pair
    is left out.  The distance of atom j in image m from atom i is built
    axis by axis as (cart_j + image_m) - cart_i in (N, N, M) arrays.
    """
    n, m = cart.shape[0], image_carts.shape[0]
    d2 = _sum_of_squares(
        lambda a: ((cart[:, a, None] + image_carts[:, a])[None], cart[:, a, None, None]))
    within = d2 <= cutoff * cutoff
    sites = np.arange(n)
    within[sites, sites, m // 2] = False  # the zero image is the middle one
    flat = np.flatnonzero(within)
    src, rest = np.divmod(flat, n * m)
    dst, idx = np.divmod(rest, m)
    return src, dst, idx, d2.ravel()[flat]


def _kth_smallest(src: np.ndarray, dist: np.ndarray, k: int, n_sites: int) -> np.ndarray:
    """Per source, the k-th smallest distance, or inf with fewer than k pairs; src is sorted."""
    first = np.searchsorted(src, np.arange(n_sites + 1))
    width = int(np.diff(first).max())
    if width < k:
        return np.full(n_sites, np.inf)
    rows = np.full((n_sites, width), np.inf)
    rows[src, np.arange(src.size) - first[src]] = dist
    return np.partition(rows, k - 1, axis=1)[:, k - 1]


def _select(src, dst, idx, d2, images: np.ndarray, max_neighbors: int, n_sites: int) -> NeighborList:
    """Each source's nearest max_neighbors of pairs given in (src, dst, image) order."""
    dist = np.sqrt(d2)
    near = dist <= _kth_smallest(src, dist, max_neighbors, n_sites)[src]
    src, dst, idx, dist = src[near], dst[near], idx[near], dist[near]
    # a stable sort by (src, dist) breaks ties by (dst, lexicographic image)
    order = np.lexsort((dist, src))
    sorted_src = src[order]
    rank = np.arange(order.size) - np.searchsorted(sorted_src, np.arange(n_sites))[sorted_src]
    keep = order[rank < max_neighbors]
    return NeighborList(src=src[keep], dst=dst[keep], dist=dist[keep], image=images[idx[keep]])


def build_neighbor_list(s: CrystalStructure, cfg: NeighborConfig = NeighborConfig()) -> NeighborList:
    """All periodic neighbors within the cutoff, truncated per source.

    Self-images at nonzero translation count as neighbors (a one-atom
    cell still has edges); the zero-distance self pair does not.  Per
    source the nearest ``max_neighbors`` are kept, ties broken by
    (distance, dst index, lexicographic image).  Raises DegenerateCell
    when the cutoff sphere spans more than ``MAX_IMAGES`` images.
    """
    lattice = _check_lattice(s.lattice)
    images, image_carts = _image_block(lattice, _checked_images_per_axis(lattice, cfg.cutoff))
    src, dst, idx, d2 = _pairs_within(s.frac_coords @ lattice, image_carts, cfg.cutoff)
    return _select(src, dst, idx, d2, images, cfg.max_neighbors, s.n_sites)


@dataclass(frozen=True)
class CandidateList:
    """Pairs of one structure that can be neighbors in any view of it.

    A view moves each site by at most the ``max_disp`` the list was built
    for.  ``image`` is relative to the structure's own sites; ``counts``,
    ``images`` and ``image_carts`` describe the cutoff's image block,
    which every view shares because perturbation leaves the lattice alone.
    """

    cfg: NeighborConfig
    src: np.ndarray  # (K,) int64
    dst: np.ndarray  # (K,) int64
    image: np.ndarray  # (K, 3) int64
    counts: np.ndarray  # (3,) images per axis direction
    images: np.ndarray  # (M, 3) int64, lexicographic
    image_carts: np.ndarray  # (M, 3) float64


def candidate_list(s: CrystalStructure, cfg: NeighborConfig, max_disp: float) -> CandidateList:
    """One dense search with a skin of 2 * max_disp, pruned per source.

    Raises what ``build_neighbor_list(s, cfg)`` raises, and nothing else:
    the ``MAX_IMAGES`` limit applies to the cutoff's block, not the skin's.
    """
    lattice = _check_lattice(s.lattice)
    counts = _checked_images_per_axis(lattice, cfg.cutoff)
    images, image_carts = _image_block(lattice, counts)
    skin = 2.0 * max_disp
    # computed distances carry rounding error on both sides of the bound
    slack = 1e-9 * (cfg.cutoff + skin)
    reach = cfg.cutoff + skin + slack
    skin_images, skin_carts = _image_block(lattice, _images_per_axis(lattice, reach))
    src, dst, idx, d2 = _pairs_within(s.frac_coords @ lattice, skin_carts, reach)
    dist = np.sqrt(d2)
    keep = dist <= _kth_smallest(src, dist, cfg.max_neighbors, s.n_sites)[src] + 2.0 * skin + slack
    return CandidateList(cfg=cfg, src=src[keep], dst=dst[keep],
                         image=skin_images[idx[keep]], counts=counts, images=images,
                         image_carts=image_carts)


def view_neighbor_list(c: CandidateList, view: CrystalStructure, shift: np.ndarray) -> NeighborList:
    """``build_neighbor_list(view, c.cfg)`` from the candidates of the unperturbed structure.

    The view's sites are the structure's sites displaced by at most the
    list's ``max_disp`` and then wrapped into the cell by subtracting the
    integer translations ``shift`` (N, 3).
    """
    image = c.image + (shift[c.dst] - shift[c.src])
    inside = (np.abs(image) <= c.counts).all(axis=1)
    src, dst, image = c.src[inside], c.dst[inside], image[inside]
    # within one (src, dst) the same shift moves every image, so the
    # candidates keep their (src, dst, lexicographic image) order
    width = 2 * c.counts + 1
    corner = image + c.counts
    idx = (corner[:, 0] * width[1] + corner[:, 1]) * width[2] + corner[:, 2]
    cart = view.frac_coords @ _check_lattice(view.lattice)
    # the dense kernel's arithmetic, operand for operand, on these pairs only
    d2 = _sum_of_squares(lambda a: (cart[dst, a] + c.image_carts[idx, a], cart[src, a]))
    within = d2 <= c.cfg.cutoff * c.cfg.cutoff
    return _select(src[within], dst[within], idx[within], d2[within], c.images,
                   c.cfg.max_neighbors, view.n_sites)
