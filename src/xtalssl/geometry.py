"""Lattice arithmetic and periodic-boundary neighbor search.

Conventions: lattice rows are the cell vectors, positions are row
vectors, so cart = frac @ lattice.  The neighbor search covers the
minimal block of periodic images guaranteed to contain the cutoff
sphere (bound per axis from the perpendicular interplanar spacing) and
keeps, per source atom, the nearest ``max_neighbors`` candidates.

The search takes a list of structures (``build_neighbor_lists``,
``candidate_lists``); ``build_neighbor_list`` is its one-structure case.
``CrystalStructure`` holds a finite lattice of positive volume, so the
search checks only each structure's image count, in order, before it
searches any (``_cells``): the first bad structure raises, and its error's
``index`` names it.  A structure's lists do not depend on the others
searched with it.

It runs in one pass, or two (``_search``).  The first covers the
sub-block of images for a radius R of 1.5 times that of the sphere holding
``max_neighbors`` + 1 sites at the cell's mean density, plus the margin
the caller keeps beyond each source's ``max_neighbors``-th distance D_i
(0 for ``build_neighbor_lists``), and keeps only the pairs within R.  A
source with D_i + margin <= R has found every pair it can keep.  When a
source of a run (below) has not, the run's structures search their whole
blocks again, out to the cutoff, and that pass is their search.  The
sub-block may be the whole block, and where R reaches the cutoff no source
is checked.  Both passes compute distances from rows of the whole block's
image translations with the same operands in the same order, so the lists
are those of one dense pass over the whole block, bit for bit.

The dense kernel (``_pairs_within``) has one job shape: a structure's
sites, searched against themselves.  Small cells share one block of
``BLOCK_ELEMENTS`` (structures, sites, sites, images) elements:
consecutive structures whose whole first passes fit it, each padded to
the block's largest site and image counts with NaN coordinates, which no
cutoff admits (``_packed``).  Such a run of structures makes one kernel
call per pass, and one call each of ``_kth_smallest``, ``_per_source``
and ``_nearest``, with its sites numbered across its structures as
``view_neighbor_lists`` numbers them; the per-structure work left is a
few scalars and two small products.  A structure larger than a block runs
alone, and the kernel screens it (``_screened``): its sites go into slabs
of ``SLAB_SITES`` along the axis on which they spread widest, and only
the sites of a slab whose bounding box, shifted by an image, lies within
the pass's radius of a source get distances from it.  The screen is
exact with no slack, since rounding is monotonic: the computed gap to a
box is never more than the computed distance to a site in it.  So a toy
cell costs a fraction of a search of its own, a large cell's cost follows
the pairs near it more than sites squared times images, and peak memory
grows with the pairs of one run, not with sites squared times images, nor
with the number of structures.

From the pairs found, one routine, ``_nearest``, decides which neighbors
a source keeps and in which order, for the plain search and for every
perturbed view alike.  It takes the distances one row per source
(``_per_source``), each row in (dst, lexicographic image) order, sorts
each row stably by distance and keeps its first ones, so ties at the
last distance kept go to the lower (dst, image).  A different tie rule,
such as keeping whole neighbor shells, belongs there.

Perturbed views share one search, a Verlet list with a skin (Verlet,
Phys. Rev. 159, 98, 1967).  A view moves each site by at most delta, so
each pair distance by at most 2 delta.  ``candidate_lists`` searches the
unperturbed structures once and keeps, per source i, the pairs with

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

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .structure_io import CrystalStructure


class DegenerateCell(ValueError):
    """A cell too thin for the cutoff; ``index`` is its position in the searched list."""


# largest periodic-image block the neighbor search will enumerate; real
# cells need a few hundred images, a nearly flat cell asks for millions
MAX_IMAGES = 100_000

# the first pass's radius in radii of the sphere that holds max_neighbors + 1
# sites at the cell's mean density: wide enough that most sources of real
# cells find their nearest within it
FIRST_PASS_SCALE = 1.5

# elements of each (structures, N sites, N sites, M images) array of the
# dense kernel, and of each block of the screen's arrays; 512 KB of float64:
# small enough for one block's arrays to stay in cache, large enough that
# about twenty 5-site cells share one
BLOCK_ELEMENTS = 2 ** 16

# sites per slab of the screen that searches a structure larger than one
# block (``_screened``): a 100-site cell takes 4 slabs; 3 to 6 slabs took
# about 0.6 of the dense kernel's time there, 2 slabs 0.8, one box 0.81
SLAB_SITES = 25


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


def _axis_spans(lattices: np.ndarray) -> np.ndarray:
    """Per lattice and axis, 1 / (spacing of the planes spanned by the other two axes)."""
    # the length of column i of the inverse lattice, as np.linalg.norm takes it
    inverses = np.linalg.inv(lattices)
    return np.sqrt(np.add.reduce(inverses * inverses, axis=-2))


def _image_counts(spans, cutoff: float) -> list[int]:
    # ceil(cutoff / spacing) images per direction cover the cutoff sphere
    # even for strongly skewed cells.  Python ints, so a product of counts
    # cannot overflow.
    return [math.ceil(cutoff * r) for r in spans]


class _Cells(NamedTuple):
    """The searched structures' lattices (B, 3, 3), axis spans (B, 3) and cutoff image counts."""

    lattices: np.ndarray
    spans: np.ndarray
    counts: list[list[int]]


def _cells(structures: list[CrystalStructure], cutoff: float) -> _Cells:
    """Each structure's lattice, axis spans and cutoff image counts, its image count checked.

    The first structure in order whose cutoff sphere spans more than
    ``MAX_IMAGES`` images, or infinitely many where an axis span, or its
    product with the cutoff, is not a finite float, raises DegenerateCell,
    before any search; the error's ``index`` is its position in
    ``structures``.  A cell of volume V needs at least 8 cutoff**3 / V
    images, so one below 1e-12 A^3 fails for any cutoff above 0.0024 A.
    """
    lattices = np.array([s.lattice for s in structures], dtype=np.float64).reshape(-1, 3, 3)
    with np.errstate(over="ignore"):
        spans = _axis_spans(lattices)
    counts = []
    for index, r in enumerate(spans.tolist()):
        try:
            counts.append(_image_counts(r, cutoff))
            n_images = math.prod(2 * n + 1 for n in counts[-1])
        except (OverflowError, ValueError):  # math.ceil of an infinite or NaN span
            n_images = math.inf
        if n_images > MAX_IMAGES:
            error = DegenerateCell(
                f"cutoff {cutoff} needs {n_images} periodic images (limit {MAX_IMAGES}); "
                "the cell is too thin along some axis")
            error.index = index
            raise error
    return _Cells(lattices, spans, counts)


class _Blocks:
    """One search's lexicographic image blocks, each built once for the cells that share it."""

    def __init__(self):
        self._whole, self._sub = {}, {}

    def whole(self, counts: list[int]) -> tuple[np.ndarray, np.ndarray]:
        """Images -counts..counts per axis in lexicographic order, as (M, 3) int64 and float64."""
        key = tuple(counts)
        if key not in self._whole:
            c0, c1, c2 = counts
            ints = np.empty((2 * c0 + 1, 2 * c1 + 1, 2 * c2 + 1, 3), dtype=np.int64)
            ints[..., 0] = np.arange(-c0, c0 + 1)[:, None, None]
            ints[..., 1] = np.arange(-c1, c1 + 1)[:, None]
            ints[..., 2] = np.arange(-c2, c2 + 1)
            ints = ints.reshape(-1, 3)
            self._whole[key] = ints, ints.astype(np.float64)
        return self._whole[key]

    def sub(self, counts: list[int], sub: list[int]) -> np.ndarray:
        """The rows of the block of ``counts`` that hold the block of ``sub``, in order."""
        key = (*counts, *sub)
        if key not in self._sub:
            width = [2 * c + 1 for c in counts]
            if sub == counts:
                rows = np.arange(math.prod(width))
            else:
                axes = [np.arange(c - s, c + s + 1) for c, s in zip(counts, sub)]
                rows = ((axes[0][:, None, None] * width[1] + axes[1][:, None]) * width[2]
                        + axes[2]).ravel()
            self._sub[key] = rows
        return self._sub[key]


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


def _packed(sites: list[int], images: list[int]):
    """Runs (start, stop) of consecutive jobs that share one dense-kernel block.

    Job j searches its ``sites[j]`` sites against themselves in
    ``images[j]`` images.  A run's (jobs, sites, sites, images) array, each
    axis padded to the run's largest job, holds at most ``BLOCK_ELEMENTS``
    elements, or the run is one job, which the kernel screens
    (``_screened``).
    """
    start, shape = 0, (0, 0)
    for j, job in enumerate(zip(sites, images)):
        grown = tuple(map(max, shape, job))
        n, m = grown
        if j > start and (j + 1 - start) * n * n * m > BLOCK_ELEMENTS:
            yield start, j
            start, grown = j, job
        shape = grown
    if start < len(sites):
        yield start, len(sites)


def _starts(lengths: list[int]) -> list[int]:
    """Where each of consecutive runs of ``lengths`` starts."""
    return [0, *itertools.accumulate(lengths)][:-1]


def _ragged(parts: list[np.ndarray], offsets: list[int]) -> np.ndarray:
    """(len(parts), longest part) table of parts[i] + offsets[i] per row, padded with -1."""
    if len(parts) == 1:
        return (parts[0] + offsets[0])[None]
    lengths = [len(p) for p in parts]
    table = np.full((len(parts), max(lengths)), -1)
    values = np.concatenate(parts) + np.repeat(offsets, lengths)
    table[np.arange(max(lengths)) < np.array(lengths)[:, None]] = values
    return table


# the row that ends each table of sites and images the dense kernel reads
# when it pads: a padded index reads it, and no cutoff admits a NaN distance
_NAN_ROW = np.full((1, 3), np.nan)


def _stacked(parts: list[np.ndarray]) -> np.ndarray:
    """The (K, 3) ``parts`` one after another, then ``_NAN_ROW``; one part needs no padding."""
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts + [_NAN_ROW])


def _taken(table: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``table[index]``; one row of indices that takes every row of the table is the table."""
    if index.shape == (1, len(table)):
        return table[None]
    return table[index]


def _pairs_within(sites: np.ndarray, image_carts: np.ndarray, cols: np.ndarray,
                  images: np.ndarray, zero: np.ndarray, cutoffs: np.ndarray) -> tuple:
    """Dense kernel: each job's (source, dst, image) pairs within its cutoff, and their squared distances.

    Job j searches its sites ``sites[cols[j]]``, as sources, against
    themselves in its images ``image_carts[images[j]]``, a lexicographic
    block whose zero image is column ``zero[j]`` (b, 1), out to
    ``cutoffs[j]``.  The index tables, (b, N) and (b, M), are padded with
    -1, which reads the NaN row that ends ``sites`` and ``image_carts``
    (``_stacked``).  Pairs come in (job, source, dst, image) order, src and
    image as rows of the tables and dst as a column of ``cols``; the
    zero-image self pair is left out.

    The distance of atom j in image m from atom i is built axis by axis as
    (cart_j + image_m) - cart_i, so the padding changes no bit of it.  The
    jobs' (b, N, N, M) arrays fit one block of ``BLOCK_ELEMENTS`` elements,
    or the job is one structure larger than a block (``_packed``), which
    ``_screened`` searches with the same arithmetic on fewer pairs.
    """
    (b, n), m = cols.shape, images.shape[1]
    if b * n * n * m > BLOCK_ELEMENTS:
        return _screened(sites[cols[0]], image_carts[images[0]], cols[0], images[0],
                         int(zero[0, 0]), cutoffs[0])
    cart, image_carts = _taken(sites, cols), _taken(image_carts, images)
    d2 = _sum_of_squares(lambda a: (cart[:, None, :, a, None] + image_carts[:, None, None, :, a],
                                    cart[:, :, a, None, None]))
    within = d2 <= np.multiply(cutoffs, cutoffs)[:, None, None, None]
    i = np.arange(n)
    within[np.arange(b)[:, None], i, i, zero] = False
    flat = np.flatnonzero(within)
    row, rest = np.divmod(flat, n * m)
    dst, idx = np.divmod(rest, m)
    if b > 1:  # a row's job, as an offset into the image table
        idx += row // n * m
    return cols.ravel()[row], dst, images.ravel()[idx], d2.ravel()[flat]


def _screened(cart: np.ndarray, shifts: np.ndarray, cols: np.ndarray, images: np.ndarray,
              zero: int, cutoff: float) -> tuple:
    """``_pairs_within`` of one job, its (N, 3) sites ``cart`` in its (M, 3) images ``shifts``.

    The sites go into slabs of ``SLAB_SITES`` or fewer, in order along the
    cartesian axis on which they spread widest.  A (source, slab, image)
    triple is kept when the source lies within the cutoff of the slab's
    bounding box shifted by the image, and only the sites of kept triples
    get distances, each with the dense kernel's operands in its order.  So
    the screen is exact with no slack: per axis, rounding is monotonic, so
    (lo + image) - cart_i <= (cart_j + image) - cart_i <= (hi + image) -
    cart_i as computed for every site j of a box [lo, hi], the computed gap
    to the box is at most |computed difference|, and so its square sum is
    at most d^2, bit for bit.  No pair within the cutoff is dropped, and
    each kept distance has the dense kernel's bits.

    Sources go through in blocks whose (rows, slabs, M) gaps hold at most
    ``BLOCK_ELEMENTS`` elements, and kept triples in blocks whose (triples,
    slab sites) distances do, each at least one source row; one argsort
    then restores the (src, dst, image) order.
    """
    n, m = len(cart), len(shifts)
    cut2 = cutoff * cutoff
    order = np.argsort(cart[:, np.argmax(np.ptp(cart, axis=0))], kind="stable")
    n_slabs = -(-n // SLAB_SITES)
    bounds = np.arange(n_slabs + 1) * n // n_slabs
    sizes = np.diff(bounds)
    width = int(sizes.max())
    slab_of, col_of = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    slab_of[order] = np.repeat(np.arange(n_slabs), sizes)
    col_of[order] = np.arange(n) - np.repeat(bounds[:-1], sizes)
    # each slab's sites, padded with index n, which reads a NaN row
    members = np.full((n_slabs, width), n)
    members[slab_of, col_of] = np.arange(n)
    sorted_cart = cart[order]
    lo = np.minimum.reduceat(sorted_cart, bounds[:-1], axis=0)
    hi = np.maximum.reduceat(sorted_cart, bounds[:-1], axis=0)
    padded = np.concatenate([cart, _NAN_ROW])
    # per axis: the (slabs, M) shifted box faces, and the (slabs * M, width)
    # shifted slab sites, as the dense kernel's targets cart_j + image_m
    lo_t = [lo[:, a, None] + shifts[:, a] for a in range(3)]
    hi_t = [hi[:, a, None] + shifts[:, a] for a in range(3)]
    targets = [(padded[members, a][:, None, :] + shifts[:, a, None]).reshape(-1, width)
               for a in range(3)]
    rows = max(1, BLOCK_ELEMENTS // (n_slabs * m))
    step = max(BLOCK_ELEMENTS // width, n_slabs * m)
    parts = []
    for start in range(0, n, rows):
        origin = cart[start:start + rows, :, None, None]
        gap2 = None
        for a in range(3):
            g = np.maximum(lo_t[a] - origin[:, a], origin[:, a] - hi_t[a])
            np.maximum(g, 0.0, out=g)
            np.multiply(g, g, out=g)
            gap2 = g if gap2 is None else np.add(gap2, g, out=gap2)
        src, box = np.divmod(np.flatnonzero(gap2 <= cut2), n_slabs * m)
        src += start
        for first in range(0, src.size, step):
            i, row = src[first:first + step], box[first:first + step]
            d2 = _sum_of_squares(lambda a: (targets[a][row], cart[i, a, None]))
            within = d2 <= cut2
            own = np.flatnonzero(row == slab_of[i] * m + zero)
            within[own, col_of[i[own]]] = False
            k, col = np.divmod(np.flatnonzero(within), width)
            slab, image = np.divmod(row[k], m)
            parts.append((i[k], members[slab, col], image, d2[k, col]))
    src, dst, image, d2 = (np.concatenate(p) for p in zip(*parts))
    del parts  # the sort's arrays are built without the blocks' copies
    order = np.argsort((src * n + dst) * m + image)
    return cols[src[order]], dst[order], images[image[order]], d2[order]


class _Pairs(NamedTuple):
    """The pairs ``_search`` finds for the run structures[start:stop].

    ``src`` numbers the sites across the run's structures, in order, and
    ``dst`` each structure's sites from 0; ``image`` indexes ``images``,
    the run's lexicographic image blocks one after another.  ``n_sites``
    holds each structure's sites, and ``rows`` and ``first`` are
    ``_per_source``'s layout of the distances ``dist``.
    """

    start: int
    n_sites: list[int]
    src: np.ndarray
    dst: np.ndarray
    image: np.ndarray
    dist: np.ndarray
    images: np.ndarray
    rows: np.ndarray
    first: np.ndarray


def _search(structures: list[CrystalStructure], cells: _Cells, reach: float, k: int,
            margin: float):
    """Per source, at least the pairs its nearest k can use, in (src, dst, image) order.

    Each structure's block covers ``reach``.  Per source this finds every
    pair within its k-th smallest distance plus ``margin``, or every pair
    within reach, and only pairs within reach.  Structures go through in
    runs whose first passes share one kernel block (``_packed``).  A first
    pass searches each structure's sub-block that covers a radius, 1.5
    times that of the sphere holding k + 1 sites at the cell's mean
    density, plus margin; it may be the whole block.  It keeps the pairs
    within that radius, and it is the run's search when every source's
    k-th distance plus margin lies within its radius, or the radius reaches
    ``reach``.  Otherwise the run's structures search their whole blocks
    again, out to reach, packed by those blocks.  Both passes take rows of
    the whole block's translations, so every distance has the dense
    kernel's bits.

    Each run makes one kernel call per pass and yields its ``_Pairs``;
    nothing of a run outlives it but what the caller keeps of those.
    """
    n = [s.n_sites for s in structures]
    radii = []  # per structure, the first pass's radius
    for lattice, n_sites in zip(cells.lattices.tolist(), n):
        # the cell's volume in Python floats, a few times faster than a 3x3 det
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = lattice
        volume = abs(a0 * (b1 * c2 - b2 * c1) - a1 * (b0 * c2 - b2 * c0) + a2 * (b0 * c1 - b1 * c0))
        radii.append(min(reach, FIRST_PASS_SCALE * (
            3.0 * (k + 1) * volume / (4.0 * math.pi * n_sites)) ** (1.0 / 3.0) + margin))
    # ``_image_counts`` of each radius, which is at most reach, so each
    # first block lies within its whole block
    first = np.ceil(np.array(radii)[:, None] * cells.spans).astype(np.int64)
    blocks = _Blocks()
    for start, stop in _packed(n, np.prod(2 * first + 1, axis=1).tolist()):
        whole = [_image_counts(r, reach) for r in cells.spans[start:stop].tolist()]
        pairs = _run_pairs(structures[start:stop], whole, first[start:stop].tolist(),
                           radii[start:stop], start, reach, k, margin, blocks)
        if pairs is not None:
            yield pairs
            del pairs  # the next run's pairs are built without this one's
            continue
        for lo, hi in _packed(n[start:stop], [math.prod(2 * c + 1 for c in w) for w in whole]):
            yield _run_pairs(structures[start + lo:start + hi], whole[lo:hi], whole[lo:hi],
                             [reach] * (hi - lo), start + lo, reach, k, margin, blocks)


def _run_pairs(structures: list[CrystalStructure], whole: list[list[int]],
               counts: list[list[int]], radii: list[float], start: int, reach: float, k: int,
               margin: float, blocks: _Blocks) -> _Pairs | None:
    """One pass of ``_search`` over a run of ``structures``, which start at ``start`` in the search.

    Each structure's block has ``whole`` images per axis, and its pass
    covers the sub-block of ``counts`` out to its radius in ``radii``; a
    radius of ``reach`` covers the whole block.  None when a source's k-th
    distance plus ``margin`` lies beyond its radius.
    """
    n_sites = [s.n_sites for s in structures]
    ints, floats = zip(*map(blocks.whole, whole))
    sites = _stacked([s.frac_coords @ s.lattice for s in structures])
    table = _stacked([x @ s.lattice for x, s in zip(floats, structures)])
    cols = _ragged([np.arange(n) for n in n_sites], _starts(n_sites))
    # the sub-blocks' images are in lexicographic order, so their pairs keep
    # the (src, dst, image) order of the whole blocks
    sub = [blocks.sub(w, c) for w, c in zip(whole, counts)]
    pairs = _pairs_within(sites, table, cols, _ragged(sub, _starts([len(x) for x in ints])),
                          np.array([len(x) // 2 for x in sub])[:, None], np.array(radii))
    dist = np.sqrt(pairs[3])
    per_source = _per_source(pairs[0], dist, sum(n_sites))
    # the pass holds every pair within radius; the 1e-9 slack is far above
    # the rounding of computed distances and image counts
    bounds = [math.inf if radius == reach else radius * (1.0 - 1e-9) for radius in radii]
    if min(bounds) < math.inf and (_kth_smallest(per_source[0], k) + margin > (
            bounds[0] if len(bounds) == 1 else np.repeat(bounds, n_sites))).any():
        return None
    return _Pairs(start, n_sites, *pairs[:3], dist,
                  ints[0] if len(ints) == 1 else np.concatenate(ints), *per_source)


def _per_source(src: np.ndarray, values: np.ndarray, n_sources: int) -> tuple[np.ndarray, np.ndarray]:
    """``values`` one row per source, padded with inf, and each row's first index; src is sorted.

    The first indices have ``n_sources`` + 1 entries, the last being the
    number of values, so source i holds values first[i]:first[i + 1].
    """
    first = np.searchsorted(src, np.arange(n_sources + 1))
    rows = np.full((n_sources, int((first[1:] - first[:-1]).max())), np.inf)
    rows[src, np.arange(src.size) - first[src]] = values
    return rows, first


def _kth_smallest(rows: np.ndarray, k: int) -> np.ndarray:
    """Per row of ``_per_source``'s layout, the k-th smallest distance, or inf with fewer than k."""
    if rows.shape[1] < k:
        return np.full(rows.shape[0], np.inf)
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


def _split(keys: np.ndarray, lengths: list[int]) -> tuple[list[int], np.ndarray]:
    """The bounds of each run of the sorted ``keys``, and each key less its run's first value.

    Run i takes the ``lengths[i]`` values from s_i = sum(lengths[:i]) on,
    as structure i's sites follow those of the structures before it.  The
    bounds are 0, then where each run ends; a key of run i less s_i numbers
    it within the run.
    """
    if len(lengths) == 1:
        return [0, keys.size], keys
    bounds = [0, *np.searchsorted(keys, list(itertools.accumulate(lengths))).tolist()]
    return bounds, keys - np.repeat(_starts(lengths), np.diff(bounds))


def build_neighbor_lists(structures: list[CrystalStructure],
                         cfg: NeighborConfig = NeighborConfig()) -> list[NeighborList]:
    """Each structure's periodic neighbors within the cutoff, truncated per source, in one search.

    Self-images at nonzero translation count as neighbors (a one-atom
    cell still has edges); the zero-distance self pair does not.  Per
    source the nearest ``max_neighbors`` are kept, ties broken by
    (distance, dst index, lexicographic image).  A structure's list does
    not depend on the others searched with it.  Raises ``_cells``'
    DegenerateCell for the first structure whose cutoff needs more than
    ``MAX_IMAGES`` images, before any search.
    """
    structures = list(structures)

    def nearest(p: _Pairs) -> list[NeighborList]:
        row, pick = _nearest(p.rows, p.first,
                             np.minimum(p.first[1:] - p.first[:-1], cfg.max_neighbors))
        bounds, src = _split(row, p.n_sites)
        dst, dist, image = p.dst[pick], p.dist[pick], p.images[p.image[pick]]
        return [NeighborList(src=src[lo:hi], dst=dst[lo:hi], dist=dist[lo:hi], image=image[lo:hi])
                for lo, hi in zip(bounds, bounds[1:])]

    search = _search(structures, _cells(structures, cfg.cutoff), cfg.cutoff, cfg.max_neighbors,
                     0.0)
    return list(itertools.chain.from_iterable(map(nearest, search)))


def build_neighbor_list(s: CrystalStructure, cfg: NeighborConfig = NeighborConfig()) -> NeighborList:
    """``build_neighbor_lists`` of the one structure ``s``."""
    return build_neighbor_lists([s], cfg)[0]


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


def candidate_lists(structures: list[CrystalStructure], cfg: NeighborConfig,
                    max_disp: float) -> list[CandidateList]:
    """Each structure's candidates: one search with a skin of 2 * max_disp, pruned per source.

    Holds int32 indices, 20 bytes per candidate.  Raises what
    ``build_neighbor_lists(structures, cfg)`` raises, and nothing else: the
    ``MAX_IMAGES`` limit applies to the cutoff's block, not the skin's.
    """
    structures = list(structures)
    cells = _cells(structures, cfg.cutoff)
    inverses = np.linalg.inv(cells.lattices)
    counts = np.array(cells.counts, dtype=np.int64).reshape(-1, 3)
    skin = 2.0 * max_disp
    # computed distances carry rounding error on both sides of the bound
    slack = 1e-9 * (cfg.cutoff + skin)
    blocks = _Blocks()  # the cutoffs' image blocks, which the lists keep

    def pruned(p: _Pairs) -> list[CandidateList]:
        keep = p.dist <= _kth_smallest(p.rows, cfg.max_neighbors)[p.src] + 2.0 * skin + slack
        src = p.src[keep]
        n_candidates = np.bincount(src, minlength=sum(p.n_sites))
        bounds, src = _split(src, p.n_sites)
        src, dst = src.astype(np.int32), p.dst[keep].astype(np.int32)
        image = p.images[p.image[keep]].astype(np.int32)
        boundary_bounds, boundary = _split(
            np.flatnonzero(p.dist[keep] > cfg.cutoff - skin - slack), np.diff(bounds).tolist())
        site_bounds = [0, *itertools.accumulate(p.n_sites)]
        return [CandidateList(
            structure=s, cfg=cfg, max_disp=max_disp, inv_lattice=inverses[i],
            src=src[lo:hi], dst=dst[lo:hi], image=image[lo:hi],
            n_candidates=n_candidates[site_lo:site_hi], boundary=boundary[b_lo:b_hi],
            counts=counts[i], image_carts=blocks.whole(cells.counts[i])[1] @ s.lattice)
            for i, s, lo, hi, b_lo, b_hi, site_lo, site_hi in zip(
                itertools.count(p.start), structures[p.start:], bounds, bounds[1:],
                boundary_bounds, boundary_bounds[1:], site_bounds, site_bounds[1:])]

    search = _search(structures, cells, cfg.cutoff + skin + slack, cfg.max_neighbors,
                     2.0 * skin + slack)
    return list(itertools.chain.from_iterable(map(pruned, search)))


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
    shares the structure's lattice, checked when the structure was built.
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
