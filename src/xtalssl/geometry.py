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
(0 for ``build_neighbor_list``), and keeps only the pairs within R.  A
source with D_i + margin <= R has found every pair it can keep; only the
others search the whole block again, out to the cutoff.  The sub-block
may be the whole block; only when R reaches the cutoff is there one pass.
Both passes compute distances from rows of the whole block's image
translations with the same operands in the same order, so the lists are
those of one dense pass over the whole block, bit for bit.

The dense kernel (``_pairs_within``) takes the sources in blocks of rows,
so its (rows, sites, images) arrays stay near ``BLOCK_ELEMENTS`` elements
and peak memory grows with the pairs found, not with sites squared times
images.

From the pairs found, one routine, ``_nearest``, decides which neighbors
a source keeps and in which order, for the plain search and for every
perturbed view alike.  It takes the distances one row per source
(``_per_source``), each row in (dst, lexicographic image) order, sorts
each row stably by distance and keeps its first ones, so ties at the
last distance kept go to the lower (dst, image).  A different tie rule,
such as keeping whole neighbor shells, belongs there.

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
slack of 1e-9 * (cutoff + 2 delta) for rounding.

The same bound tells which candidates a view can lose.  One within
cutoff - 2 delta - slack before lies within the cutoff, and inside the
cutoff's image block, in every view.  The list records the others, its
boundary candidates, so a view keeps per source min(max_neighbors,
candidates - lost) edges, and only the boundary candidates' distances
decide how many are lost (``view_sites``).  ``view_neighbor_lists`` then
selects the neighbors of many views at once.  It recomputes every
candidate's distance from its view's coordinates with the dense kernel's
arithmetic and hands each (view, source) row to ``_nearest``, so each view
gets the arrays ``build_neighbor_list`` returns for it, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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

# elements of each (source rows, N, M) array of the dense kernel, 512 KB of
# float64: small enough for one block's arrays to stay in cache, large
# enough that 100-site cells take about ten blocks per pass
BLOCK_ELEMENTS = 2 ** 16


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
    left out.  The targets cart_j + image_m are built once per axis; the
    sources then go through in blocks of rows whose (rows, N, M) arrays
    hold at most ``BLOCK_ELEMENTS`` elements, or one row when a row holds
    more.  The distance of atom j in image m from atom i is built axis by
    axis as (cart_j + image_m) - cart_i, so no block changes a bit of it.
    """
    n, m = cart.shape[0], image_carts.shape[0]
    sources = np.arange(n) if rows is None else rows
    targets = [cart[:, a, None] + image_carts[:, a] for a in range(3)]
    step = max(1, BLOCK_ELEMENTS // (n * m))
    parts = []
    for start in range(0, sources.size, step):
        block = sources[start:start + step]
        origin = cart[block]
        d2 = _sum_of_squares(lambda a: (targets[a], origin[:, a, None, None]))
        within = d2 <= cutoff * cutoff
        # the zero image is the middle one
        within[np.arange(block.size), block, m // 2] = False
        flat = np.flatnonzero(within)
        src, rest = np.divmod(flat, n * m)
        dst, idx = np.divmod(rest, m)
        parts.append((block[src], dst, idx, d2.ravel()[flat]))
    return tuple(np.concatenate(p) for p in zip(*parts))


def _pairs_near(lattice: np.ndarray, spans: list[float], cart: np.ndarray, counts: list[int],
                image_carts: np.ndarray, reach: float, k: int, margin: float) -> tuple:
    """Per source, at least the pairs its nearest k can use, in (src, dst, image index) order.

    ``image_carts`` holds the block of ``counts`` images per axis that
    covers ``reach``.  Per source this returns every pair within its k-th
    smallest distance plus ``margin``, or every pair within reach, and
    only pairs within reach.  A first pass searches the sub-block that
    covers ``radius``, which may be the whole block, and keeps the pairs
    within radius.  Only sources whose k-th distance plus margin lies
    beyond radius search the whole block again, out to reach; a radius
    that reaches ``reach`` leaves one pass.  Both passes take rows of
    ``image_carts``, so every distance has the dense kernel's bits.
    """
    n = cart.shape[0]
    # the cell's volume in Python floats, a few times faster than a 3x3 det
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = lattice.tolist()
    volume = abs(a0 * (b1 * c2 - b2 * c1) - a1 * (b0 * c2 - b2 * c0) + a2 * (b0 * c1 - b1 * c0))
    radius = FIRST_PASS_SCALE * (
        3.0 * (k + 1) * volume / (4.0 * math.pi * n)) ** (1.0 / 3.0) + margin
    if radius >= reach:
        return _pairs_within(cart, image_carts, reach)
    # the sub-block's images are in lexicographic order, so its pairs keep
    # the (src, dst, image index) order of the whole block
    sub = [min(a, b) for a, b in zip(_image_counts(spans, radius), counts)]
    width = [2 * c + 1 for c in counts]
    axes = [np.arange(c - s, c + s + 1) for c, s in zip(counts, sub)]
    block = ((axes[0][:, None, None] * width[1] + axes[1][:, None]) * width[2] + axes[2]).ravel()
    src, dst, idx, d2 = _pairs_within(cart, image_carts[block], radius)
    idx = block[idx]
    # the first pass holds every pair within radius; the 1e-9 slack is far
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


def _per_source(src: np.ndarray, values: np.ndarray, n_sources: int) -> tuple[np.ndarray, np.ndarray]:
    """``values`` one row per source, padded with inf, and each row's first index; src is sorted.

    The first indices have ``n_sources`` + 1 entries, the last being the
    number of values, so source i holds values first[i]:first[i + 1].
    """
    first = np.searchsorted(src, np.arange(n_sources + 1))
    rows = np.full((n_sources, int(np.diff(first).max())), np.inf)
    rows[src, np.arange(src.size) - first[src]] = values
    return rows, first


def _kth_smallest(src: np.ndarray, dist: np.ndarray, k: int, n_sites: int) -> np.ndarray:
    """Per source, the k-th smallest distance, or inf with fewer than k pairs; src is sorted."""
    rows, _ = _per_source(src, dist, n_sites)
    if rows.shape[1] < k:
        return np.full(n_sites, np.inf)
    return np.partition(rows, k - 1, axis=1)[:, k - 1]


def _nearest(rows: np.ndarray, first: np.ndarray, kept: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The neighbor selection: each row's ``kept`` nearest, as (row, flat index) pairs.

    ``rows`` and ``first`` are ``_per_source``'s layout of the distances,
    each row's entries in (dst, lexicographic image) order, so a stable
    sort by distance gives the (dist, dst, image) order.  Row i keeps its
    first ``kept[i]``, no more than it holds finite entries.
    """
    width = int(kept.max())
    order = np.argsort(rows, axis=1, kind="stable")[:, :width]
    row, rank = np.nonzero(np.arange(width) < kept[:, None])
    return row, first[row] + order[row, rank]


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
    dist = np.sqrt(d2)
    rows, first = _per_source(src, dist, s.n_sites)
    row, pick = _nearest(rows, first, np.minimum(np.diff(first), cfg.max_neighbors))
    return NeighborList(src=row, dst=dst[pick], dist=dist[pick], image=images[idx[pick]])


@dataclass(frozen=True)
class CandidateList:
    """Pairs of ``structure`` that can be neighbors in any view of it.

    A view moves each site by at most ``max_disp``, the displacement the
    list was built for, and is searched under ``cfg``.  ``image`` is
    relative to the structure's own sites; ``counts`` and ``image_carts``
    describe the cutoff's lexicographic image block, which every view
    shares because perturbation leaves the lattice alone.  ``inv_lattice``
    is the inverse of the structure's lattice, which maps a view's
    cartesian displacements to fractional ones.  Candidates come grouped by
    source in (dst, lexicographic image) order, ``n_candidates`` of source
    i.  ``boundary`` indexes those farther than cutoff - 2 max_disp - slack
    before, slack being 1e-9 * (cutoff + 2 max_disp): the only ones a view
    can lose.
    """

    structure: CrystalStructure
    cfg: NeighborConfig
    max_disp: float
    inv_lattice: np.ndarray  # (3, 3) float64
    src: np.ndarray  # (K,) int32
    dst: np.ndarray  # (K,) int32
    image: np.ndarray  # (K, 3) int32
    n_candidates: np.ndarray  # (N,) int64
    boundary: np.ndarray  # (L,) int64, ascending
    counts: np.ndarray  # (3,) images per axis direction
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
    _, image_carts = _image_block(lattice, counts)
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
    src = src[keep]
    return CandidateList(structure=s, cfg=cfg, max_disp=max_disp,
                         inv_lattice=np.linalg.inv(lattice), src=src.astype(np.int32),
                         dst=dst[keep].astype(np.int32),
                         image=skin_images[idx[keep]].astype(np.int32),
                         n_candidates=np.bincount(src, minlength=s.n_sites),
                         boundary=np.flatnonzero(dist[keep] > cfg.cutoff - skin - slack),
                         counts=np.array(counts, dtype=np.int64), image_carts=image_carts)


class ViewSites(NamedTuple):
    """A view's sites, and per source how many of its candidates the view keeps.

    ``cart`` (N, 3) holds the view's cartesian sites and ``shift`` (N, 3)
    the whole cells that wrapped them.  ``lost`` indexes the candidates
    that lie outside the cutoff or the image block in the view, all of them
    boundary candidates.  ``kept`` (N,) is each source's
    min(max_neighbors, candidates - lost), and ``n_edges`` their sum.
    """

    candidates: CandidateList
    cart: np.ndarray
    shift: np.ndarray
    kept: np.ndarray
    lost: np.ndarray
    n_edges: int


def _block_index(image: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Each image's row in the lexicographic block of ``counts`` (3,) images per axis, or per image."""
    width = 2 * counts + 1
    corner = image + counts
    return (corner[..., 0] * width[..., 1] + corner[..., 1]) * width[..., 2] + corner[..., 2]


def _view_d2(cart, src, dst, image_carts, idx) -> np.ndarray:
    # the dense kernel's arithmetic, operand for operand, on these pairs only;
    # a gather from one column is about twice as fast as cart[dst, a]
    return _sum_of_squares(
        lambda a: (cart[:, a][dst] + image_carts[:, a][idx], cart[:, a][src]))


def view_sites(c: CandidateList, frac_coords: np.ndarray, shift: np.ndarray) -> ViewSites:
    """A view's sites and edge counts, from the distances of its boundary candidates alone.

    The view's sites ``frac_coords`` (N, 3) are the structure's sites
    displaced by at most ``c.max_disp`` and then wrapped into the cell by
    subtracting the integer translations ``shift`` (N, 3).  The view
    shares the structure's lattice, checked when the list was built.
    Every pair distance moves by at most 2 max_disp, so a candidate within
    cutoff - 2 max_disp - slack before lies within the cutoff, and inside
    the image block, in every view.  Only the boundary candidates are
    measured here, with ``view_neighbor_lists``' arithmetic.
    """
    cart = frac_coords @ c.structure.lattice
    lost = c.boundary
    if lost.size:
        src, dst = c.src[lost], c.dst[lost]
        image = c.image[lost] + (shift[dst] - shift[src])
        inside = (np.abs(image) <= c.counts).all(axis=1)
        measured = lost[inside]
        d2 = _view_d2(cart, src[inside], dst[inside], c.image_carts,
                      _block_index(image[inside], c.counts))
        lost = np.concatenate((lost[~inside], measured[d2 > c.cfg.cutoff * c.cfg.cutoff]))
        n_candidates = c.n_candidates - np.bincount(c.src[lost], minlength=frac_coords.shape[0])
    else:
        n_candidates = c.n_candidates
    kept = np.minimum(n_candidates, c.cfg.max_neighbors)
    return ViewSites(c, cart, shift, kept, lost, int(kept.sum()))


def view_neighbor_lists(views: list[ViewSites]) -> NeighborList:
    """The views' ``build_neighbor_list`` lists, one after another, in one pass over all of them.

    Sites are numbered across the views in order, so view v's site i is
    ``i`` plus the sites of the views before v.  Every candidate's image
    and distance are computed at once, and ``_nearest`` picks each (view,
    source) row's first ``kept``: the row's candidates lie in (dst,
    lexicographic image) order, since one shift moves every image of a
    (src, dst) pair alike, so it picks as it does for
    ``build_neighbor_list``.
    """
    lists = [v.candidates for v in views]
    n_cand = np.array([c.src.size for c in lists])
    n_sites = np.array([v.cart.shape[0] for v in views])
    base = np.repeat(np.cumsum(n_sites) - n_sites, n_cand)
    src = np.concatenate([c.src for c in lists]) + base
    dst = np.concatenate([c.dst for c in lists]) + base
    cart = np.concatenate([v.cart for v in views])
    shift = np.concatenate([v.shift for v in views])
    image = np.concatenate([c.image for c in lists]) + (shift[dst] - shift[src])
    first = np.cumsum(n_cand) - n_cand
    lost = np.concatenate([v.lost + f for v, f in zip(views, first)])
    # each view's image block, and all their translations in one table; a
    # lost candidate may lie outside its block, so it reads row 0 of its own
    idx = _block_index(image, np.repeat(np.stack([c.counts for c in lists]), n_cand, axis=0))
    idx[lost] = 0
    n_images = np.array([c.image_carts.shape[0] for c in lists])
    idx += np.repeat(np.cumsum(n_images) - n_images, n_cand)
    table = np.concatenate([c.image_carts for c in lists])
    dist = np.sqrt(_view_d2(cart, src, dst, table, idx))
    dist[lost] = np.inf
    # one row per (view, source); a lost candidate sorts after those kept
    row, pick = _nearest(*_per_source(src, dist, int(n_sites.sum())),
                         np.concatenate([v.kept for v in views]))
    return NeighborList(src=row, dst=dst[pick], dist=dist[pick], image=image[pick])
