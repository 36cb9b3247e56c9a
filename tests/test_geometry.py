import time
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from xtalssl.geometry import (
    DegenerateCell,
    NeighborConfig,
    SingularLattice,
    build_neighbor_list,
    frac_to_cart,
    periodic_distance,
)
from xtalssl.structure_io import CrystalStructure

from helpers import canonical_edges, draw_unambiguous_structure
from oracles import supercell_neighbors


def cubic(a, z=11):
    return CrystalStructure(lattice=a * np.eye(3), atomic_numbers=[z],
                            frac_coords=[[0.0, 0.0, 0.0]])


class TestCoordinates:
    def test_frac_to_cart_triclinic(self):
        lattice = np.array([[4.0, 0.0, 0.0], [1.0, 3.0, 0.0], [0.0, 1.0, 5.0]])
        npt.assert_allclose(frac_to_cart(lattice, [0.5, 0.5, 0.5]), [2.5, 2.0, 2.5])

    def test_periodic_distance_zero_image(self):
        d = periodic_distance(4.0 * np.eye(3), [0, 0, 0], [0.5, 0.5, 0.5])
        assert d == pytest.approx(2.0 * np.sqrt(3.0), abs=1e-12)

    def test_periodic_distance_image(self):
        d = periodic_distance(4.0 * np.eye(3), [0, 0, 0], [0, 0, 0], image=(1, 0, 0))
        assert d == pytest.approx(4.0, abs=1e-12)

    def test_singular_lattice(self):
        bad = np.array([[1.0, 0, 0], [2.0, 0, 0], [0, 0, 1.0]])
        with pytest.raises(SingularLattice):
            frac_to_cart(bad, [0, 0, 0])

    def test_nan_lattice_is_singular(self):
        with pytest.raises(SingularLattice):
            frac_to_cart(np.diag([4.0, 4.0, np.nan]), [0, 0, 0])


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
