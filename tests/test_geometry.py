import functools
import itertools
import math
import re
import time
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from xtalssl import geometry
from xtalssl.geometry import (
    FIRST_PASS_SCALE,
    DegenerateCell,
    NeighborConfig,
    _axis_spans,
    _image_counts,
    build_neighbor_list,
    build_neighbor_lists,
    candidate_lists,
)
from xtalssl.structure_io import CrystalStructure
from xtalssl.toydata import toy_structure

from helpers import (
    candidate_list,
    canonical_edges,
    draw_unambiguous_structure,
    perturbed,
    view_neighbor_list,
)
from oracles import dense_neighbor_list, supercell_neighbors


def cubic(a, z=11):
    return CrystalStructure(lattice=a * np.eye(3), atomic_numbers=[z],
                            frac_coords=[[0.0, 0.0, 0.0]])


class TestBuildNeighborList:
    def test_simple_cubic_six_edges(self):
        nl = build_neighbor_list(cubic(1.0), NeighborConfig(cutoff=1.1, max_neighbors=12))
        assert nl.n_edges == 6
        npt.assert_allclose(nl.dist, np.ones(6), atol=1e-12)
        npt.assert_array_equal(nl.src, np.zeros(6, dtype=np.int64))
        npt.assert_array_equal(nl.dst, np.zeros(6, dtype=np.int64))
        images = {tuple(row) for row in nl.image}
        assert images == {(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)}

    def test_cutoff_below_spacing_no_edges(self):
        nl = build_neighbor_list(cubic(2.0), NeighborConfig(cutoff=1.5, max_neighbors=12))
        assert nl.n_edges == 0
        assert nl.image.shape == (0, 3)

    def test_max_neighbors_truncation(self):
        nl = build_neighbor_list(cubic(1.0), NeighborConfig(cutoff=1.1, max_neighbors=4))
        assert nl.n_edges == 4
        # ties at d=1 resolve by lexicographic image
        images = [tuple(row) for row in nl.image]
        assert images == [(-1, 0, 0), (0, -1, 0), (0, 0, -1), (0, 0, 1)]

    def test_sorted_within_source(self):
        rng = np.random.default_rng(5)
        lattice = np.diag([4.3, 4.8, 5.1]) + rng.uniform(-0.2, 0.2, (3, 3)) * (1 - np.eye(3))
        s = CrystalStructure(lattice=lattice, atomic_numbers=[11, 17, 8, 8],
                             frac_coords=rng.uniform(0, 1, (4, 3)))
        nl = build_neighbor_list(s, NeighborConfig(cutoff=6.0, max_neighbors=12))
        for i in range(s.n_sites):
            d = nl.dist[nl.src == i]
            assert np.all(np.diff(d) >= -1e-15)

    def test_matches_supercell_oracle(self):
        # axis lengths >= 4.2 with mild skew keep every neighbor within
        # the -2..2 image block the oracle enumerates (cutoff 8 needs at
        # most 2 images per axis when the interplanar spacing is >= 4)
        rng = np.random.default_rng(42)
        cfg = NeighborConfig(cutoff=8.0, max_neighbors=12)
        for _ in range(20):
            s = draw_unambiguous_structure(rng, cfg)
            expected = canonical_edges(
                supercell_neighbors(s.lattice, s.frac_coords, cfg.cutoff,
                                    cfg.max_neighbors))
            nl = build_neighbor_list(s, cfg)
            got = canonical_edges(zip(nl.src, nl.dst, nl.image, nl.dist))
            assert [e[:3] for e in got] == [e[:3] for e in expected]
            npt.assert_allclose([e[3] for e in got], [e[3] for e in expected],
                                rtol=0.0, atol=1e-12)

    def test_translation_invariance(self):
        rng = np.random.default_rng(9)
        lattice = np.diag([4.5, 5.0, 5.5])
        frac = rng.uniform(0, 1, (5, 3))
        s1 = CrystalStructure(lattice=lattice, atomic_numbers=[6] * 5, frac_coords=frac)
        s2 = CrystalStructure(lattice=lattice, atomic_numbers=[6] * 5,
                              frac_coords=frac + np.array([0.31, 0.77, 0.13]))
        a = build_neighbor_list(s1, NeighborConfig(cutoff=6.0, max_neighbors=8))
        b = build_neighbor_list(s2, NeighborConfig(cutoff=6.0, max_neighbors=8))
        npt.assert_array_equal(a.src, b.src)
        npt.assert_array_equal(a.dst, b.dst)
        npt.assert_allclose(a.dist, b.dist, atol=1e-9)

    def test_rotation_preserves_distances(self):
        rng = np.random.default_rng(11)
        lattice = np.diag([4.5, 5.0, 5.5]) + rng.uniform(-0.1, 0.1, (3, 3)) * (1 - np.eye(3))
        frac = rng.uniform(0, 1, (4, 3))
        # random rotation via QR, det forced positive
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 0] *= -1
        s1 = CrystalStructure(lattice=lattice, atomic_numbers=[14] * 4, frac_coords=frac)
        s2 = CrystalStructure(lattice=lattice @ q, atomic_numbers=[14] * 4, frac_coords=frac)
        a = build_neighbor_list(s1, NeighborConfig(cutoff=6.0, max_neighbors=8))
        b = build_neighbor_list(s2, NeighborConfig(cutoff=6.0, max_neighbors=8))
        npt.assert_array_equal(a.src, b.src)
        npt.assert_array_equal(a.dst, b.dst)
        npt.assert_allclose(a.dist, b.dist, atol=1e-9)

    def test_reversal_property(self):
        # without truncation every (i -> j, m) edge has a (j -> i, -m) twin
        rng = np.random.default_rng(3)
        lattice = np.diag([4.4, 4.9, 5.3])
        s = CrystalStructure(lattice=lattice, atomic_numbers=[8, 13, 26],
                             frac_coords=rng.uniform(0, 1, (3, 3)))
        nl = build_neighbor_list(s, NeighborConfig(cutoff=5.5, max_neighbors=10_000))
        edges = {(int(a), int(b), tuple(int(v) for v in im))
                 for a, b, im in zip(nl.src, nl.dst, nl.image)}
        for a, b, im in edges:
            assert (b, a, (-im[0], -im[1], -im[2])) in edges

    def test_thin_cell_rejected_before_enumerating_images(self):
        # det = 2.5e-6 passes the singularity check, but the cutoff sphere
        # would need about 1.6e8 images along c
        s = CrystalStructure(lattice=np.diag([5.0, 5.0, 1e-7]), atomic_numbers=[11],
                             frac_coords=[[0.0, 0.0, 0.0]])
        tracemalloc.start()
        t0 = time.perf_counter()
        try:
            with pytest.raises(DegenerateCell):
                build_neighbor_list(s, NeighborConfig(cutoff=8.0))
            elapsed = time.perf_counter() - t0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 0.5
        assert peak < 1_000_000

    def test_config_validation(self):
        with pytest.raises(ValueError):
            NeighborConfig(cutoff=0.0)
        with pytest.raises(ValueError):
            NeighborConfig(max_neighbors=0)


# ---------------------------------------------------------------------------
# property tests


def _spacings(lattice):
    volume = abs(np.linalg.det(lattice))
    return [volume / np.linalg.norm(np.cross(lattice[(i + 1) % 3], lattice[(i + 2) % 3]))
            for i in range(3)]


# fractional coordinates anywhere, or within 1e-3 of a cell face, so that a
# perturbation wraps the site into the neighboring cell
_FRAC = st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                  st.floats(0.0, 1e-3),
                  st.floats(1.0 - 1e-3, 1.0, exclude_max=True))


@st.composite
def triclinic_cells(draw, max_sites=6, min_length=2.5, max_skew=2.5):
    """Lower-triangular lattices: positive volume at any skew."""
    a, b, c = (draw(st.floats(min_length, 6.0)) for _ in range(3))
    bx, cx, cy = (draw(st.floats(-max_skew, max_skew)) for _ in range(3))
    n = draw(st.integers(1, max_sites))
    frac = [[draw(_FRAC) for _ in range(3)] for _ in range(n)]
    return CrystalStructure(lattice=[[a, 0.0, 0.0], [bx, b, 0.0], [cx, cy, c]],
                            atomic_numbers=[6] * n, frac_coords=frac)


@st.composite
def one_site_cubic_cells(draw):
    """Every shell of self images is an exact distance tie."""
    a = draw(st.floats(2.0, 4.0))
    return CrystalStructure(lattice=a * np.eye(3), atomic_numbers=[11],
                            frac_coords=[[draw(_FRAC) for _ in range(3)]])


def _displacement(kind, s):
    if kind == "above half the shortest spacing":
        return 0.6 * min(_spacings(s.lattice))
    return kind


_DISPLACEMENTS = st.sampled_from([0.0, 0.05, 0.5, "above half the shortest spacing"])
_PROPERTY = settings(max_examples=60, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


def _assert_same_list(got, want):
    for field in ("src", "dst", "dist", "image"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype, field
        assert np.array_equal(a, b), field


def _at_both_block_sizes(check):
    """``check`` at the real block size, then again at a block of one element.

    Most cells the tests draw fit in one block; at the second size nearly
    every cell takes the screen, one source row per block.
    """
    @functools.wraps(check)
    def run(*args, **kwargs):
        check(*args, **kwargs)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geometry, "BLOCK_ELEMENTS", 1)
            check(*args, **kwargs)
    return run


@_at_both_block_sizes
def _check_views(s, cfg, kind, seed):
    max_disp = _displacement(kind, s)
    candidates = candidate_list(s, cfg, max_disp)
    rng = np.random.default_rng(seed)
    for _ in range(2):  # one list serves both views
        view, shift = perturbed(s, rng, max_disp)
        _assert_same_list(view_neighbor_list(candidates, view.frac_coords, shift),
                          build_neighbor_list(view, cfg))


class TestCandidateList:
    @_PROPERTY
    @given(triclinic_cells(), st.floats(3.0, 6.0), st.integers(1, 16), _DISPLACEMENTS,
           st.integers(0, 2**32 - 1))
    def test_views_equal_fresh_search_triclinic(self, s, cutoff, k, kind, seed):
        _check_views(s, NeighborConfig(cutoff=cutoff, max_neighbors=k), kind, seed)

    @_PROPERTY
    @given(one_site_cubic_cells(), st.floats(2.0, 6.0), st.integers(1, 30), _DISPLACEMENTS,
           st.integers(0, 2**32 - 1))
    def test_views_equal_fresh_search_with_ties(self, s, cutoff, k, kind, seed):
        _check_views(s, NeighborConfig(cutoff=cutoff, max_neighbors=k), kind, seed)

    def test_keeps_pairs_up_to_four_displacements_beyond_the_kth(self):
        # j2 starts 3 * delta farther from i than j1, and ends nearer: i moves
        # by delta toward j2 and away from j1, j1 and j2 by delta each
        delta, a = 0.1, 20.0
        cart = np.array([[10.0, 10.0, 10.0], [12.0, 10.0, 10.0], [10.0, 12.3, 10.0]])
        s = CrystalStructure(lattice=a * np.eye(3), atomic_numbers=[8, 8, 8],
                             frac_coords=cart / a)
        moves = delta * np.array([[-0.5**0.5, 0.5**0.5, 0.0], [1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
        view = CrystalStructure(lattice=s.lattice, atomic_numbers=s.atomic_numbers,
                                frac_coords=(cart + moves) / a)
        cfg = NeighborConfig(cutoff=6.0, max_neighbors=1)
        got = view_neighbor_list(candidate_list(s, cfg, delta), view.frac_coords,
                                 np.zeros((3, 3), np.int64))
        want = build_neighbor_list(view, cfg)
        assert want.dst[0] == 2  # the pair 3 * delta past i's nearest distance
        _assert_same_list(got, want)

    def test_a_view_loses_a_pair_up_to_two_displacements_inside_the_cutoff(self):
        # the pair starts 2.45 A apart, 0.05 A past cutoff - 2 * delta, and
        # ends 3.05 A apart, beyond the cutoff: its sites move delta apart each
        delta, a = 0.3, 20.0
        cart = np.array([[10.0, 10.0, 10.0], [12.45, 10.0, 10.0]])
        s = CrystalStructure(lattice=a * np.eye(3), atomic_numbers=[8, 8], frac_coords=cart / a)
        moves = delta * np.array([[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        view = CrystalStructure(lattice=s.lattice, atomic_numbers=s.atomic_numbers,
                                frac_coords=(cart + moves) / a)
        cfg = NeighborConfig(cutoff=3.0, max_neighbors=4)
        got = view_neighbor_list(candidate_list(s, cfg, delta), view.frac_coords,
                                 np.zeros((2, 3), np.int64))
        want = build_neighbor_list(view, cfg)
        assert build_neighbor_list(s, cfg).src.size == 2 and want.src.size == 0
        _assert_same_list(got, want)

    def test_ties_break_by_dst_then_image(self):
        # 32 neighbors in four shells of exact ties; 20 cut the sqrt(3) shell
        s = CrystalStructure(lattice=np.eye(3), atomic_numbers=[11], frac_coords=[[0.0, 0.0, 0.0]])
        cfg = NeighborConfig(cutoff=2.0, max_neighbors=20)
        want = supercell_neighbors(s.lattice, s.frac_coords, cfg.cutoff, cfg.max_neighbors)
        candidates = candidate_list(s, cfg, 0.0)
        for nl in (build_neighbor_list(s, cfg),
                   view_neighbor_list(candidates, s.frac_coords, np.zeros((1, 3), np.int64))):
            assert [tuple(int(v) for v in m) for m in nl.image] == [e[2] for e in want]
            npt.assert_array_equal(nl.dist, [e[3] for e in want])

    def test_large_displacement_shifts_sites_by_whole_cells(self):
        s = CrystalStructure(lattice=np.diag([2.0, 2.5, 3.0]), atomic_numbers=[8, 8],
                             frac_coords=[[0.0005, 0.5, 0.9995], [0.5, 0.0, 0.5]])
        cfg = NeighborConfig(cutoff=4.0, max_neighbors=10)
        candidates = candidate_list(s, cfg, 3.0)
        rng = np.random.default_rng(0)
        shifts = []
        for _ in range(10):
            view, shift = perturbed(s, rng, 3.0)
            shifts.append(shift)
            _assert_same_list(view_neighbor_list(candidates, view.frac_coords, shift),
                              build_neighbor_list(view, cfg))
        assert np.abs(shifts).max() >= 1

    def test_image_limit_applies_to_the_cutoff_not_the_skin(self):
        # the cutoff's block has 3 * 3 * 11,111 = 99,999 images, just inside
        # MAX_IMAGES; the skin's block for 0.05 A has 101,241
        s = CrystalStructure(lattice=np.diag([20.0, 20.0, 8.0 / 5554.5]),
                             atomic_numbers=[11], frac_coords=[[0.0, 0.0, 0.0]])
        cfg = NeighborConfig(cutoff=8.0, max_neighbors=4)
        _check_views(s, cfg, 0.05, seed=0)
        thin = CrystalStructure(lattice=np.diag([5.0, 5.0, 1e-7]), atomic_numbers=[11],
                                frac_coords=[[0.0, 0.0, 0.0]])
        with pytest.raises(DegenerateCell, match="needs .* periodic images"):
            candidate_list(thin, cfg, 0.05)


@st.composite
def isolated_site_cells(draw, min_cluster=8, max_cluster=24):
    """A tight cluster of sites and one site far from it, at any index.

    The cluster sets the cell's mean density, so the lone site's nearest
    neighbors lie beyond the first pass's radius and it searches again.
    """
    a = draw(st.floats(5.0, 7.0))
    skew = draw(st.floats(-0.5, 0.5))
    n = draw(st.integers(min_cluster, max_cluster))
    frac = [[draw(st.floats(0.0, 0.15)) for _ in range(3)] for _ in range(n)]
    frac.insert(draw(st.integers(0, n)), [draw(st.floats(0.45, 0.55)) for _ in range(3)])
    return CrystalStructure(lattice=[[a, 0.0, 0.0], [skew, a, 0.0], [0.0, skew, a]],
                            atomic_numbers=[6] * (n + 1), frac_coords=frac)


@_at_both_block_sizes
def _check_against_dense(s, cfg, kind, seed):
    """Both searches, and the views built from a candidate list, against one dense pass."""
    _assert_same_list(build_neighbor_list(s, cfg), dense_neighbor_list(s, cfg))
    max_disp = _displacement(kind, s)
    candidates = candidate_list(s, cfg, max_disp)
    with pytest.MonkeyPatch.context() as mp:
        # a first radius this wide covers the whole block: one dense pass
        mp.setattr(geometry, "FIRST_PASS_SCALE", 1e6)
        dense = candidate_list(s, cfg, max_disp)
    for field in ("src", "dst", "image"):
        assert np.array_equal(getattr(candidates, field), getattr(dense, field)), field
    view, shift = perturbed(s, np.random.default_rng(seed), max_disp)
    _assert_same_list(view_neighbor_list(candidates, view.frac_coords, shift), dense_neighbor_list(view, cfg))


class TestTwoPassSearch:
    @_PROPERTY
    @given(triclinic_cells(), st.floats(3.0, 8.0), st.integers(1, 16), _DISPLACEMENTS,
           st.integers(0, 2**32 - 1))
    def test_equals_dense_oracle_triclinic(self, s, cutoff, k, kind, seed):
        _check_against_dense(s, NeighborConfig(cutoff=cutoff, max_neighbors=k), kind, seed)

    @_PROPERTY
    @given(one_site_cubic_cells(), st.floats(2.0, 8.0), st.integers(1, 40), _DISPLACEMENTS,
           st.integers(0, 2**32 - 1))
    def test_equals_dense_oracle_with_ties(self, s, cutoff, k, kind, seed):
        _check_against_dense(s, NeighborConfig(cutoff=cutoff, max_neighbors=k), kind, seed)

    @_PROPERTY
    @given(isolated_site_cells(), st.floats(6.0, 9.0), st.integers(1, 16), _DISPLACEMENTS,
           st.integers(0, 2**32 - 1))
    def test_equals_dense_oracle_with_an_isolated_site(self, s, cutoff, k, kind, seed):
        _check_against_dense(s, NeighborConfig(cutoff=cutoff, max_neighbors=k), kind, seed)

    @_PROPERTY
    @given(isolated_site_cells(40, 80), st.floats(6.0, 9.0), st.integers(17, 40),
           _DISPLACEMENTS, st.integers(0, 2**32 - 1))
    def test_equals_dense_oracle_when_the_first_radius_holds_too_few(self, s, cutoff, k, kind,
                                                                       seed):
        # the lone site's first radius holds fewer than max_neighbors sites
        _check_against_dense(s, NeighborConfig(cutoff=cutoff, max_neighbors=k), kind, seed)

    @pytest.mark.parametrize("a, n_origin, k", [(5.0, 8, 1), (6.0, 48, 17)])
    def test_done_test_counts_the_margin(self, a, n_origin, k):
        # hypothesis's shrunk cases for a done test without the margin: the
        # centre site's k-th distance, a * sqrt(3) / 2, lies within the first
        # radius, but its candidates reach 4 * delta = 2 A beyond that and
        # out of the first pass, so it must search again
        s = CrystalStructure(lattice=a * np.eye(3), atomic_numbers=[6] * (n_origin + 1),
                             frac_coords=[[0.5, 0.5, 0.5]] + [[0.0, 0.0, 0.0]] * n_origin)
        _check_against_dense(s, NeighborConfig(cutoff=6.0, max_neighbors=k), 0.5, seed=0)

    @staticmethod
    def passes(monkeypatch, s, cfg):
        """(images, searched sites) of each dense-kernel call one search makes."""
        calls = []
        dense = geometry._pairs_within

        def counted(sites, image_carts, cols, images, *args):
            calls.append((images.shape[1], cols.ravel().tolist()))
            return dense(sites, image_carts, cols, images, *args)

        monkeypatch.setattr(geometry, "_pairs_within", counted)
        _assert_same_list(build_neighbor_list(s, cfg), dense_neighbor_list(s, cfg))
        return calls

    def test_a_structure_that_falls_short_searches_its_whole_block_again(self, monkeypatch):
        s = straggler_cell()
        cfg = NeighborConfig(cutoff=8.0, max_neighbors=12)
        nl = dense_neighbor_list(s, cfg)
        kth = np.array([nl.dist[nl.src == i][-1] for i in range(s.n_sites)])
        radius = FIRST_PASS_SCALE * (3 * 13 * 7.5**3 / (4 * np.pi * 33)) ** (1 / 3)
        assert (kth[:32] < radius).all() and kth[32] > radius
        assert self.passes(monkeypatch, s, cfg) == [(27, list(range(33))), (125, list(range(33)))]

    def test_one_pass_when_every_source_finds_its_nearest(self, monkeypatch):
        rng = np.random.default_rng(1)
        s = CrystalStructure(lattice=np.diag([7.9, 8.3, 8.6]), atomic_numbers=[6] * 40,
                             frac_coords=rng.uniform(0.0, 1.0, (40, 3)))
        cfg = NeighborConfig(cutoff=8.0, max_neighbors=12)
        assert self.passes(monkeypatch, s, cfg) == [(27, list(range(40)))]

    def test_one_pass_over_the_whole_block_when_the_first_radius_covers_it(self, monkeypatch):
        s = CrystalStructure(lattice=np.diag([3.9, 4.1, 4.3]), atomic_numbers=[6] * 5,
                             frac_coords=np.random.default_rng(2).uniform(0.0, 1.0, (5, 3)))
        assert self.passes(monkeypatch, s, NeighborConfig(cutoff=8.0, max_neighbors=12)) == \
            [(125, list(range(5)))]


def straggler_cell():
    """A 7.5 A cube: 32 sites within 1.3 A of the origin and one at the centre, 5.2 A or more away.

    Each cluster site has its 12 nearest in the cluster; the lone site has
    them beyond the first radius, so its first pass falls short.
    """
    cluster = np.random.default_rng(0).uniform(0.0, 0.1, (32, 3))
    return CrystalStructure(lattice=7.5 * np.eye(3), atomic_numbers=[6] * 33,
                            frac_coords=np.vstack([cluster, [[0.5, 0.5, 0.5]]]))


def _random_cell(lattice, n, seed):
    return CrystalStructure(lattice=lattice, atomic_numbers=[6] * n,
                            frac_coords=np.random.default_rng(seed).uniform(0.0, 1.0, (n, 3)))


class TestSourceBlocks:
    def test_skewed_cell_with_a_short_axis_equals_dense_oracle(self):
        # 100 sites at 11.7 A^3 each, like the benchmark's triclinic cells:
        # the 3.6 A axis needs 7 images at the cutoff, so the whole block has
        # 63, and the cell, larger than a block, takes the screen
        s = _random_cell([[3.6, 0.0, 0.0], [1.2, 18.0, 0.0], [-1.0, 2.5, 18.0]], 100, 7)
        cfg = NeighborConfig()
        n_images = math.prod(2 * c + 1 for c in _image_counts(_axis_spans(s.lattice), cfg.cutoff))
        assert n_images == 63
        assert geometry.BLOCK_ELEMENTS // (s.n_sites * n_images) < s.n_sites // 2
        for kind in (0.0, 0.05, 0.5):
            _check_against_dense(s, cfg, kind, seed=0)

    @pytest.mark.parametrize("search", [
        lambda s: build_neighbor_list(s, NeighborConfig()),
        lambda s: candidate_list(s, NeighborConfig(), 0.05),
    ], ids=["build_neighbor_list", "candidate_list"])
    def test_peak_memory_does_not_grow_with_sites_times_images(self, search):
        # one dense pass would hold (320, 320, 27) float64 arrays, 22 MB each,
        # and (1080, 1080, 27) ones, 252 MB each; both cells take the screen
        for edge, n in ((15.66, 320), (1.5 * 15.66, 1080)):
            s = _random_cell(edge * np.eye(3), n, 0)
            tracemalloc.start()
            try:
                search(s)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 8 * 2**20, n


@st.composite
def toy_cells(draw):
    """The toy perovskite: its cubic symmetry ties distances at the 12th neighbor and beyond."""
    return toy_structure("Cs", "Ti", "O", draw(st.floats(3.5, 4.5)))


@st.composite
def toy_supercells(draw):
    """2 x 2 x 2 supercells of the toy cell, each site moved by up to 0.01 of the supercell."""
    s = draw(toy_cells())
    corners = np.array(list(itertools.product([0, 1], repeat=3)))
    frac = ((s.frac_coords[None] + corners[:, None]) / 2).reshape(-1, 3)
    jitter = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(-0.01, 0.01, frac.shape)
    return CrystalStructure(lattice=2 * s.lattice, atomic_numbers=np.tile(s.atomic_numbers, 8),
                            frac_coords=frac + jitter)


@st.composite
def cells_beyond_one_block(draw):
    """60 to 100 sites in a skewed cell with a 3.6 A axis: a first pass of several blocks."""
    return _random_cell([[3.6, 0.0, 0.0], [1.2, 18.0, 0.0], [-1.0, 2.5, 18.0]],
                        draw(st.integers(60, 100)), draw(st.integers(0, 2**32 - 1)))


_MIXED = st.lists(st.one_of(toy_cells(), toy_supercells(), triclinic_cells(),
                            one_site_cubic_cells(), isolated_site_cells(),
                            cells_beyond_one_block()), min_size=1, max_size=6)


def _assert_same_arrays(got, want, fields):
    for field in fields:
        a, b = getattr(got, field), getattr(want, field)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), field
        assert a.tobytes() == b.tobytes(), field


class TestManyStructures:
    """One search over a list of structures gives each the lists of a search of its own."""

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_MIXED, st.sampled_from([6.0, 8.0]), st.sampled_from([1, 12, 20]),
           st.sampled_from([0.0, 0.05, 0.5]))
    def test_lists_equal_one_structure_searches_and_the_dense_oracle(self, structures, cutoff,
                                                                      k, max_disp):
        cfg = NeighborConfig(cutoff=cutoff, max_neighbors=k)
        alone = [build_neighbor_list(s, cfg) for s in structures]
        alone_candidates = [candidate_list(s, cfg, max_disp) for s in structures]
        for s, nl in zip(structures, alone):
            _assert_same_arrays(nl, dense_neighbor_list(s, cfg), ("src", "dst", "dist", "image"))
        # the real block packs many small cells into one; a small one packs a
        # few, and screens the larger cells
        for block in (geometry.BLOCK_ELEMENTS, 2**12):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(geometry, "BLOCK_ELEMENTS", block)
                lists = build_neighbor_lists(structures, cfg)
                candidates = candidate_lists(structures, cfg, max_disp)
            assert len(lists) == len(candidates) == len(structures)
            for s, nl, want, c, c_want in zip(structures, lists, alone, candidates,
                                              alone_candidates):
                _assert_same_arrays(nl, want, ("src", "dst", "dist", "image"))
                assert (c.structure, c.cfg, c.max_disp) == (s, cfg, max_disp)
                _assert_same_arrays(c, c_want, ("inv_lattice", "src", "dst", "image",
                                                "n_candidates", "boundary", "counts",
                                                "image_carts"))

    def test_small_cells_share_kernel_blocks(self, monkeypatch):
        calls = []
        dense = geometry._pairs_within

        def counted(*args):
            calls.append(args)
            return dense(*args)

        monkeypatch.setattr(geometry, "_pairs_within", counted)
        cells = [toy_structure("Cs", "Ti", "O", 3.5 + i / 40) for i in range(40)]
        lists = build_neighbor_lists(cells, NeighborConfig())
        # 40 cells of 5 sites: a few blocks, not a search each
        assert len(lists) == 40 and 1 < len(calls) <= 4

    def test_a_run_that_falls_short_searches_its_own_structures_again(self, monkeypatch):
        # at 2**19 elements the 33-site straggler shares a run with two toy
        # cells, padded to (33, 33, 125) each, and the toy cells before and
        # after it make runs of their own; every whole block here has 125 images
        calls = []
        dense = geometry._pairs_within

        def counted(sites, image_carts, cols, images, *args):
            calls.append((images >= 0).sum(axis=1).tolist())
            return dense(sites, image_carts, cols, images, *args)

        monkeypatch.setattr(geometry, "_pairs_within", counted)
        monkeypatch.setattr(geometry, "BLOCK_ELEMENTS", 2**19)
        cells = [toy_structure("Cs", "Ti", "O", 4.0 + i / 20) for i in range(8)]
        cells.insert(4, straggler_cell())
        cfg = NeighborConfig()
        for s, nl in zip(cells, build_neighbor_lists(cells, cfg)):
            _assert_same_arrays(nl, dense_neighbor_list(s, cfg), ("src", "dst", "dist", "image"))
        # the straggler's run searches its three structures' whole blocks again
        assert calls == [[125] * 4, [27, 125, 125], [125] * 3, [125] * 2]

    @pytest.mark.parametrize("search", [
        lambda structures: build_neighbor_lists(structures, NeighborConfig()),
        lambda structures: candidate_lists(structures, NeighborConfig(), 0.05),
    ], ids=["build_neighbor_lists", "candidate_lists"])
    def test_peak_memory_does_not_grow_with_the_number_of_structures(self, search):
        def transient(n):
            """The search's peak memory beyond what its outputs hold at the end."""
            structures = [toy_structure("Cs", "Ti", "O", 3.5 + (i % 11) / 10) for i in range(n)]
            tracemalloc.start()
            try:
                lists = search(structures)
                outputs, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(lists) == n
            return peak - outputs

        # one block's arrays, about 1.5 MB, and a few hundred bytes of
        # bookkeeping per structure
        assert transient(400) < 1.1 * transient(20)

    @pytest.mark.parametrize("bad, index", [
        ({1: "thin", 3: "flat"}, 1), ({1: "flat", 3: "thin"}, 1), ({4: "thin"}, 4),
        ({2: "huge", 3: "thin"}, 2), ({5: "nan"}, 5)])
    def test_the_first_bad_structure_in_order_raises_before_any_search(self, monkeypatch, bad,
                                                                       index):
        calls = []
        monkeypatch.setattr(geometry, "_pairs_within", lambda *args: calls.append(args))
        thin = CrystalStructure(lattice=np.diag([5.0, 5.0, 1e-4]), atomic_numbers=[11],
                                frac_coords=[[0.0, 0.0, 0.0]])
        flat = CrystalStructure(lattice=np.diag([1e-5, 1e-5, 1e-3]), atomic_numbers=[11],
                                frac_coords=[[0.0, 0.0, 0.0]])
        # infinitely many images: the square of 1e200 overflows a float, and
        # the inverse of a lattice with a subnormal axis holds inf and NaN
        huge, nan = (CrystalStructure(lattice=np.diag(d), atomic_numbers=[11],
                                      frac_coords=[[0.0, 0.0, 0.0]])
                     for d in ([1e-200, 1e100, 1e100], [1e-310, 1e155, 1e155]))
        structures = [{"thin": thin, "flat": flat, "huge": huge, "nan": nan}[bad[i]] if i in bad
                      else cubic(4.0 + i / 10) for i in range(6)]
        for search in (build_neighbor_lists,
                       lambda structures, cfg: candidate_lists(structures, cfg, 0.05)):
            with pytest.raises(DegenerateCell) as info:
                search(structures, NeighborConfig())
            assert info.value.index == index
            assert str(info.value).startswith("cutoff 8.0 needs")
        assert calls == []


@st.composite
def screened_cells(draw):
    """Cells larger than one block, built to strain the screen's slabs and boxes.

    Skewed triclinic cells with a short axis; 3 x 3 x 3 supercells of the
    toy cell, exact, whose distances tie at the 12th neighbor and whose
    sites share coordinates on both sides of each slab boundary, or
    jittered; and cells whose sites lie on a few planes across their
    widest axis, so that many share the coordinate the slabs split.
    """
    kind = draw(st.sampled_from(["triclinic", "supercell", "jittered", "planes"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "triclinic":
        lattice = [[draw(st.floats(3.2, 4.5)), 0.0, 0.0],
                   [draw(st.floats(-2.0, 2.0)), draw(st.floats(14.0, 20.0)), 0.0],
                   [draw(st.floats(-2.0, 2.0)), draw(st.floats(-3.0, 3.0)), draw(st.floats(14.0, 20.0))]]
        return _random_cell(lattice, draw(st.integers(60, 110)), rng.integers(2**32))
    if kind == "planes":
        n = draw(st.integers(60, 100))
        frac = rng.uniform(0.0, 1.0, (n, 3))
        planes = draw(st.integers(2, 6))
        frac[:, 0] = rng.integers(0, planes, n) / planes
        lattice = np.diag([draw(st.floats(16.0, 20.0)), draw(st.floats(6.5, 8.0)),
                           draw(st.floats(6.5, 8.0))])
        return CrystalStructure(lattice=lattice, atomic_numbers=[6] * n, frac_coords=frac)
    s = draw(toy_cells())
    corners = np.array(list(itertools.product(range(3), repeat=3)))
    frac = ((s.frac_coords[None] + corners[:, None]) / 3).reshape(-1, 3)
    if kind == "jittered":
        frac += rng.uniform(-0.005, 0.005, frac.shape)
    return CrystalStructure(lattice=3 * s.lattice, atomic_numbers=np.tile(s.atomic_numbers, 27),
                            frac_coords=frac)


def _screened_sites(monkeypatch):
    """The number of sites of each structure the screen searches, in order, from here on."""
    sites = []
    screen = geometry._screened

    def counted(cart, *args):
        sites.append(len(cart))
        return screen(cart, *args)

    monkeypatch.setattr(geometry, "_screened", counted)
    return sites


class TestSlabScreen:
    """A structure larger than one block is screened by slab boxes, with the dense kernel's bits."""

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(screened_cells(), st.sampled_from([(8.0, 12), (6.0, 20), (10.0, 12)]),
           st.booleans())
    def test_lists_equal_the_dense_oracle_and_the_dense_path(self, s, config, with_toy):
        cfg = NeighborConfig(*config)
        structures = [toy_structure("Cs", "Ti", "O", 4.0), s] if with_toy else [s]
        with pytest.MonkeyPatch.context() as mp:
            screened = _screened_sites(mp)
            alone = build_neighbor_list(s, cfg)
            lists = build_neighbor_lists(structures, cfg)
            candidates = [candidate_lists(structures, cfg, d) for d in (0.0, 0.05, 0.5)]
        assert s.n_sites in screened
        _assert_same_arrays(alone, dense_neighbor_list(s, cfg), ("src", "dst", "dist", "image"))
        # a block this large takes every structure through the dense kernel
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geometry, "BLOCK_ELEMENTS", 2**40)
            screened = _screened_sites(mp)
            dense_lists = build_neighbor_lists(structures, cfg)
            dense_candidates = [candidate_lists(structures, cfg, d) for d in (0.0, 0.05, 0.5)]
        assert screened == []
        _assert_same_arrays(alone, dense_lists[-1], ("src", "dst", "dist", "image"))
        for nl, want in zip(lists, dense_lists):
            _assert_same_arrays(nl, want, ("src", "dst", "dist", "image"))
        for got, want in zip(candidates, dense_candidates):
            for c, c_want in zip(got, want):
                _assert_same_arrays(c, c_want, ("inv_lattice", "src", "dst", "image",
                                                "n_candidates", "boundary", "counts",
                                                "image_carts"))

    def test_a_tric_sized_cell_takes_the_screen_and_toy_and_super40_cells_do_not(self,
                                                                                 monkeypatch):
        toy = toy_structure("Cs", "Ti", "O", 4.0)
        corners = np.array(list(itertools.product([0, 1], repeat=3)))
        frac = ((toy.frac_coords[None] + corners[:, None]) / 2).reshape(-1, 3)
        super40 = CrystalStructure(
            lattice=2 * toy.lattice, atomic_numbers=np.tile(toy.atomic_numbers, 8),
            frac_coords=frac + np.random.default_rng(0).uniform(-0.005, 0.005, frac.shape))
        # 100 sites at 11.7 A^3 each with a 3.6 A axis, as the tric workload's
        tric = _random_cell([[3.6, 0.0, 0.0], [1.2, 18.0, 0.0], [-1.0, 2.5, 18.0]], 100, 7)
        screened = _screened_sites(monkeypatch)
        cfg = NeighborConfig()
        for searches in ([toy], [super40], [toy, super40] * 3):
            build_neighbor_lists(searches, cfg)
            for s in searches:
                build_neighbor_list(s, cfg)
            for max_disp in (0.0, 0.05, 0.5):
                candidate_lists(searches, cfg, max_disp)
        assert screened == []
        build_neighbor_list(tric, cfg)
        build_neighbor_lists([toy, tric, super40], cfg)
        candidate_lists([tric], cfg, 0.05)
        assert screened == [100, 100, 100]


class TestDenseKernelAgainstOracle:
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(triclinic_cells(max_sites=4, min_length=4.0, max_skew=1.0), st.floats(3.0, 8.0),
           st.integers(1, 14))
    def test_matches_supercell_oracle(self, s, cutoff, k):
        assume(max(_image_counts(_axis_spans(s.lattice), cutoff)) <= 2)
        full = supercell_neighbors(s.lattice, s.frac_coords, cutoff + 1e-6, 10_000)
        dist = np.array([e[3] for e in full])
        src = np.array([e[0] for e in full], dtype=np.int64)
        # fp noise may move a pair across the cutoff or a truncation tie
        assume(not np.any(np.abs(dist - cutoff) < 1e-9))
        for i in range(s.n_sites):
            d = np.sort(dist[src == i])
            assume(d.size <= k or d[k] - d[k - 1] >= 1e-9)
        expected = canonical_edges(supercell_neighbors(s.lattice, s.frac_coords, cutoff, k))
        nl = build_neighbor_list(s, NeighborConfig(cutoff=cutoff, max_neighbors=k))
        got = canonical_edges(zip(nl.src, nl.dst, nl.image, nl.dist))
        assert [e[:3] for e in got] == [e[:3] for e in expected]
        npt.assert_allclose([e[3] for e in got], [e[3] for e in expected], rtol=0.0, atol=1e-12)


class TestImagesPerAxis:
    def test_exact_ratio(self):
        # a 4 A cube at an 8 A cutoff: the sphere reaches exactly the second
        # plane along each axis, so two images each way, not three
        assert _image_counts(_axis_spans(4.0 * np.eye(3)), 8.0) == [2, 2, 2]

    @settings(max_examples=200, deadline=None)
    @given(triclinic_cells(max_sites=1), st.floats(0.5, 20.0))
    def test_matches_perpendicular_spacing(self, s, cutoff):
        # ceil(cutoff / spacing), spacing = volume / |cross product of the
        # other two cell vectors|; both sides round, so a ratio within
        # 1e-12 of an integer may land on either side of it
        counts = _image_counts(_axis_spans(s.lattice), cutoff)
        assert all(type(n) is int for n in counts)
        for n, spacing in zip(counts, _spacings(s.lattice)):
            ratio = cutoff / spacing
            assert math.ceil(ratio * (1 - 1e-12)) <= n <= math.ceil(ratio * (1 + 1e-12))

    def test_count_beyond_int64_is_rejected(self):
        # about 8e23 images each way along c do not fit in int64; the check
        # still counts them and raises before any array is built
        s = CrystalStructure(lattice=np.diag([1e6, 1e6, 1e-23]), atomic_numbers=[11],
                             frac_coords=[[0.0, 0.0, 0.0]])
        with pytest.raises(DegenerateCell) as info:
            build_neighbor_list(s, NeighborConfig(cutoff=8.0))
        n_images = int(re.search(r"needs (\d+) periodic images", str(info.value)).group(1))
        assert n_images > np.iinfo(np.int64).max
