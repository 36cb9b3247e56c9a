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
from xtalssl.augment import _perturb
from xtalssl.geometry import (
    FIRST_PASS_SCALE,
    DegenerateCell,
    NeighborConfig,
    SingularLattice,
    _check_lattice,
    _axis_spans,
    _image_counts,
    build_neighbor_list,
    candidate_list,
    view_neighbor_list,
)
from xtalssl.structure_io import CrystalStructure

from helpers import canonical_edges, draw_unambiguous_structure
from oracles import dense_neighbor_list, supercell_neighbors


def cubic(a, z=11):
    return CrystalStructure(lattice=a * np.eye(3), atomic_numbers=[z],
                            frac_coords=[[0.0, 0.0, 0.0]])


class TestCoordinates:
    def test_singular_lattice(self):
        bad = np.array([[1.0, 0, 0], [2.0, 0, 0], [0, 0, 1.0]])
        with pytest.raises(SingularLattice):
            _check_lattice(bad)

    def test_nan_lattice_is_singular(self):
        with pytest.raises(SingularLattice):
            _check_lattice(np.diag([4.0, 4.0, np.nan]))


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


def _check_views(s, cfg, kind, seed):
    max_disp = _displacement(kind, s)
    candidates = candidate_list(s, cfg, max_disp)
    rng = np.random.default_rng(seed)
    for _ in range(2):  # one list serves both views
        view, shift = _perturb(s, rng, max_disp)
        _assert_same_list(view_neighbor_list(candidates, view, shift),
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
        got = view_neighbor_list(candidate_list(s, cfg, delta), view, np.zeros((3, 3), np.int64))
        want = build_neighbor_list(view, cfg)
        assert want.dst[0] == 2  # the pair 3 * delta past i's nearest distance
        _assert_same_list(got, want)

    def test_ties_break_by_dst_then_image(self):
        # 32 neighbors in four shells of exact ties; 20 cut the sqrt(3) shell
        s = CrystalStructure(lattice=np.eye(3), atomic_numbers=[11], frac_coords=[[0.0, 0.0, 0.0]])
        cfg = NeighborConfig(cutoff=2.0, max_neighbors=20)
        want = supercell_neighbors(s.lattice, s.frac_coords, cfg.cutoff, cfg.max_neighbors)
        candidates = candidate_list(s, cfg, 0.0)
        for nl in (build_neighbor_list(s, cfg),
                   view_neighbor_list(candidates, s, np.zeros((1, 3), np.int64))):
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
            view, shift = _perturb(s, rng, 3.0)
            shifts.append(shift)
            _assert_same_list(view_neighbor_list(candidates, view, shift),
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
    view, shift = _perturb(s, np.random.default_rng(seed), max_disp)
    _assert_same_list(view_neighbor_list(candidates, view, shift), dense_neighbor_list(view, cfg))


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

    @staticmethod
    def passes(monkeypatch, s, cfg):
        """(images, source rows or None) of each dense-kernel call one search makes."""
        calls = []
        dense = geometry._pairs_within

        def counted(cart, image_carts, cutoff, rows=None):
            calls.append((image_carts.shape[0], None if rows is None else rows.tolist()))
            return dense(cart, image_carts, cutoff, rows)

        monkeypatch.setattr(geometry, "_pairs_within", counted)
        _assert_same_list(build_neighbor_list(s, cfg), dense_neighbor_list(s, cfg))
        return calls

    def test_second_pass_runs_only_on_the_rows_that_need_it(self, monkeypatch):
        # 32 sites within 1.3 A of the origin and one at the cell's centre,
        # 5.2 A or more from them: each cluster site has its 12 nearest in
        # the cluster, the lone site has them beyond the first radius
        rng = np.random.default_rng(0)
        cluster = rng.uniform(0.0, 0.1, (32, 3))
        s = CrystalStructure(lattice=7.5 * np.eye(3), atomic_numbers=[6] * 33,
                             frac_coords=np.vstack([cluster, [[0.5, 0.5, 0.5]]]))
        cfg = NeighborConfig(cutoff=8.0, max_neighbors=12)
        nl = dense_neighbor_list(s, cfg)
        kth = np.array([nl.dist[nl.src == i][-1] for i in range(s.n_sites)])
        radius = FIRST_PASS_SCALE * (3 * 13 * 7.5**3 / (4 * np.pi * 33)) ** (1 / 3)
        assert (kth[:32] < radius).all() and kth[32] > radius
        assert self.passes(monkeypatch, s, cfg) == [(27, None), (125, [32])]

    def test_one_pass_when_every_source_finds_its_nearest(self, monkeypatch):
        rng = np.random.default_rng(1)
        s = CrystalStructure(lattice=np.diag([7.9, 8.3, 8.6]), atomic_numbers=[6] * 40,
                             frac_coords=rng.uniform(0.0, 1.0, (40, 3)))
        cfg = NeighborConfig(cutoff=8.0, max_neighbors=12)
        assert self.passes(monkeypatch, s, cfg) == [(27, None)]

    def test_one_pass_over_the_whole_block_when_the_first_radius_covers_it(self, monkeypatch):
        s = CrystalStructure(lattice=np.diag([3.9, 4.1, 4.3]), atomic_numbers=[6] * 5,
                             frac_coords=np.random.default_rng(2).uniform(0.0, 1.0, (5, 3)))
        assert self.passes(monkeypatch, s, NeighborConfig(cutoff=8.0, max_neighbors=12)) == \
            [(125, None)]


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
