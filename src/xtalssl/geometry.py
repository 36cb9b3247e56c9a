"""Lattice arithmetic and periodic-boundary neighbor search.

Conventions: lattice rows are the cell vectors, positions are row
vectors, so cart = frac @ lattice.  The neighbor search covers the
minimal block of periodic images guaranteed to contain the cutoff
sphere (bound per axis from the perpendicular interplanar spacing) and
keeps, per source atom, the nearest ``max_neighbors`` candidates.

It runs in two passes (``_pairs_near``).  The first covers the sub-block
of images for a radius R of 1.5 times that of the sphere holding
``max_neighbors`` + 1 sites at the cell's mean density, plus the margin
the caller keeps beyond each source's ``max_neighbors``-th distance D_i
(0 for ``build_neighbor_list``).  A source with D_i + margin <= R has
found every pair it can keep; only the others search the whole block
again.  A cell whose sub-block is the whole block takes one pass.  Both
passes compute distances from rows of the whole block's image
translations with the same operands in the same order, so the lists are
those of one dense pass over the whole block, bit for bit.

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

# the first pass's radius in radii of the sphere that holds max_neighbors + 1
# sites at the cell's mean density: wide enough that most sources of real
# cells find their nearest within it
FIRST_PASS_SCALE = 1.5


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


def _axis_spans(lattice: np.ndarray) -> list[float]:
    """Per axis, 1 / (perpendicular spacing of the planes spanned by the other two axes)."""
    # the length of column i of the inverse lattice
    return np.linalg.norm(np.linalg.inv(lattice), axis=0).tolist()


def _image_counts(spans: list[float], cutoff: float) -> list[int]:
    # ceil(cutoff / spacing) images per direction cover the cutoff sphere
    # even for strongly skewed cells.  Python ints, so a product of counts
    # cannot overflow.
    return [math.ceil(cutoff * r) for r in spans]


def _checked_image_counts(spans: list[float], cutoff: float) -> list[int]:
    counts = _image_counts(spans, cutoff)
    n_images = math.prod(2 * n + 1 for n in counts)
    if n_images > MAX_IMAGES:
        raise DegenerateCell(
            f"cutoff {cutoff} needs {n_images} periodic images (limit {MAX_IMAGES}); "
            "the cell is too thin along some axis"
        )
    return counts


def _image_block(lattice: np.ndarray, counts: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Images -counts..counts per axis in lexicographic order, and their translations."""
    widths = [2 * n + 1 for n in counts]
    # image k's digits in the mixed radix of the widths, most significant first
    k = np.arange(math.prod(widths))[:, None]
    images = k // [widths[1] * widths[2], widths[2], 1] % widths - counts
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


def _pairs_within(cart: np.ndarray, image_carts: np.ndarray, cutoff: float,
                  rows: np.ndarray | None = None) -> tuple:
    """Dense kernel: every (src, dst, image index) within ``cutoff``, and its squared distance.

    Sources are the sites ``rows`` (sorted; all sites by default).  Pairs
    come in (src, dst, image index) order; the zero-image self pair is
    left out.  The distance of atom j in image m from atom i is built axis
    by axis as (cart_j + image_m) - cart_i in (sources, N, M) arrays.
    """
    n, m = cart.shape[0], image_carts.shape[0]
    sources = np.arange(n) if rows is None else rows
    origin = cart if rows is None else cart[rows]
    d2 = _sum_of_squares(
        lambda a: ((cart[:, a, None] + image_carts[:, a])[None], origin[:, a, None, None]))
    within = d2 <= cutoff * cutoff
    # the zero image is the middle one
    within[np.arange(sources.size), sources, m // 2] = False
    flat = np.flatnonzero(within)
    src, rest = np.divmod(flat, n * m)
    dst, idx = np.divmod(rest, m)
    return src if rows is None else rows[src], dst, idx, d2.ravel()[flat]


def _pairs_near(lattice: np.ndarray, spans: list[float], cart: np.ndarray, counts: list[int],
                image_carts: np.ndarray, reach: float, k: int, margin: float) -> tuple:
    """``_pairs_within(cart, image_carts, reach)`` for what each source's nearest k can use.

    ``image_carts`` holds the block of ``counts`` images per axis that
    covers ``reach``.  Per source this returns every pair within reach, or
    at least every pair within its k-th smallest distance plus ``margin``,
    in (src, dst, image index) order.  A first pass searches the sub-block
    that covers ``radius``; only sources whose k-th distance plus margin
    lies beyond it search the whole block again.  Both passes take rows of
    ``image_carts``, so every distance has the dense kernel's bits.
    """
    n = cart.shape[0]
    # the cell's volume in Python floats, a few times faster than a 3x3 det
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = lattice.tolist()
    volume = abs(a0 * (b1 * c2 - b2 * c1) - a1 * (b0 * c2 - b2 * c0) + a2 * (b0 * c1 - b1 * c0))
    radius = FIRST_PASS_SCALE * (
        3.0 * (k + 1) * volume / (4.0 * math.pi * n)) ** (1.0 / 3.0) + margin
    sub = [min(a, b) for a, b in zip(_image_counts(spans, radius), counts)]
    if sub == counts:
        return _pairs_within(cart, image_carts, reach)
    # the sub-block's images are in lexicographic order, so its pairs keep
    # the (src, dst, image index) order of the whole block
    width = [2 * c + 1 for c in counts]
    axes = [np.arange(c - s, c + s + 1) for c, s in zip(counts, sub)]
    block = ((axes[0][:, None, None] * width[1] + axes[1][:, None]) * width[2] + axes[2]).ravel()
    src, dst, idx, d2 = _pairs_within(cart, image_carts[block], reach)
    idx = block[idx]
    # the sub-block holds every pair within radius; the 1e-9 slack is far
    # above the rounding of computed distances and image counts
    redo = np.flatnonzero(
        _kth_smallest(src, np.sqrt(d2), k, n) + margin > radius * (1.0 - 1e-9))
    if redo.size == 0:
        return src, dst, idx, d2
    done = np.ones(n, dtype=bool)
    done[redo] = False
    first = done[src]
    merged = [np.concatenate((a[first], b))
              for a, b in zip((src, dst, idx, d2), _pairs_within(cart, image_carts, reach, redo))]
    # each source's pairs come from one pass, so a stable sort by source suffices
    order = np.argsort(merged[0], kind="stable")
    return tuple(a[order] for a in merged)


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
    spans = _axis_spans(lattice)
    counts = _checked_image_counts(spans, cfg.cutoff)
    images, image_carts = _image_block(lattice, counts)
    src, dst, idx, d2 = _pairs_near(lattice, spans, s.frac_coords @ lattice, counts, image_carts,
                                    cfg.cutoff, cfg.max_neighbors, 0.0)
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
    src: np.ndarray  # (K,) int32
    dst: np.ndarray  # (K,) int32
    image: np.ndarray  # (K, 3) int32
    counts: np.ndarray  # (3,) images per axis direction
    images: np.ndarray  # (M, 3) int64, lexicographic
    image_carts: np.ndarray  # (M, 3) float64


def candidate_list(s: CrystalStructure, cfg: NeighborConfig, max_disp: float) -> CandidateList:
    """One two-pass search with a skin of 2 * max_disp, pruned per source.

    Holds int32 indices, 20 bytes per candidate.  Raises what
    ``build_neighbor_list(s, cfg)`` raises, and nothing else: the
    ``MAX_IMAGES`` limit applies to the cutoff's block, not the skin's.
    """
    lattice = _check_lattice(s.lattice)
    spans = _axis_spans(lattice)
    counts = _checked_image_counts(spans, cfg.cutoff)
    images, image_carts = _image_block(lattice, counts)
    skin = 2.0 * max_disp
    # computed distances carry rounding error on both sides of the bound
    slack = 1e-9 * (cfg.cutoff + skin)
    reach = cfg.cutoff + skin + slack
    skin_counts = _image_counts(spans, reach)
    skin_images, skin_carts = _image_block(lattice, skin_counts)
    src, dst, idx, d2 = _pairs_near(lattice, spans, s.frac_coords @ lattice, skin_counts, skin_carts,
                                    reach, cfg.max_neighbors, 2.0 * skin + slack)
    dist = np.sqrt(d2)
    keep = dist <= _kth_smallest(src, dist, cfg.max_neighbors, s.n_sites)[src] + 2.0 * skin + slack
    return CandidateList(cfg=cfg, src=src[keep].astype(np.int32), dst=dst[keep].astype(np.int32),
                         image=skin_images[idx[keep]].astype(np.int32),
                         counts=np.array(counts, dtype=np.int64), images=images,
                         image_carts=image_carts)


def view_neighbor_list(c: CandidateList, view: CrystalStructure, shift: np.ndarray) -> NeighborList:
    """``build_neighbor_list(view, c.cfg)`` from the candidates of the unperturbed structure.

    The view's sites are the structure's sites displaced by at most the
    list's ``max_disp`` and then wrapped into the cell by subtracting the
    integer translations ``shift`` (N, 3).
    """
    image = c.image + (shift[c.dst] - shift[c.src])
    inside = (np.abs(image) <= c.counts).all(axis=1)
    src, dst = c.src[inside].astype(np.int64), c.dst[inside].astype(np.int64)
    image = image[inside]
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
