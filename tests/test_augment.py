import numpy as np
import numpy.testing as npt
import pytest

from xtalssl.augment import (
    AugmentConfig,
    NoAugmentationEnabled,
    _mask_count,
    make_views,
    mask_atoms,
    mask_edges,
    random_perturb,
    view_candidates,
)
from xtalssl import geometry
from xtalssl.featurize import GaussianBasis, build_graph
from xtalssl.geometry import NeighborConfig, build_neighbor_list
from xtalssl.structure_io import CrystalStructure

from oracles import periodic_distance


def perovskite(a=4.0):
    fr = [[0, 0, 0], [0.5, 0.5, 0.5], [0.5, 0.5, 0], [0.5, 0, 0.5], [0, 0.5, 0.5]]
    return CrystalStructure(lattice=a * np.eye(3), atomic_numbers=[55, 22, 8, 8, 8],
                            frac_coords=fr)


NCFG = NeighborConfig(cutoff=4.5, max_neighbors=12)
BASIS = GaussianBasis()


class TestAugmentConfig:
    def test_defaults(self):
        cfg = AugmentConfig()
        assert cfg.enable_perturb and cfg.enable_atom_mask and cfg.enable_edge_mask
        assert cfg.max_displacement == pytest.approx(0.05)
        assert cfg.mask_fraction == pytest.approx(0.10)
        assert cfg.any_enabled

    def test_validation(self):
        with pytest.raises(ValueError):
            AugmentConfig(max_displacement=-0.1)
        with pytest.raises(ValueError):
            AugmentConfig(mask_fraction=1.5)

    def test_any_enabled_false(self):
        cfg = AugmentConfig(enable_perturb=False, enable_atom_mask=False,
                            enable_edge_mask=False)
        assert not cfg.any_enabled


class TestRandomPerturb:
    def test_zero_displacement_is_identity(self):
        s = perovskite()
        s2 = random_perturb(s, np.random.default_rng(0), 0.0)
        npt.assert_array_equal(s2.frac_coords, s.frac_coords)

    def test_displacement_capped(self):
        s = perovskite()
        rng = np.random.default_rng(1)
        for _ in range(200):
            s2 = random_perturb(s, rng, 0.05)
            for i in range(s.n_sites):
                # nearest periodic copy of the original site
                best = min(
                    periodic_distance(s.lattice, s2.frac_coords[i], s.frac_coords[i],
                                      image=(i0, i1, i2))
                    for i0 in (-1, 0, 1) for i1 in (-1, 0, 1) for i2 in (-1, 0, 1)
                )
                assert best <= 0.05 + 1e-12

    def test_does_not_touch_input(self):
        s = perovskite()
        before = s.frac_coords.copy()
        random_perturb(s, np.random.default_rng(2), 0.05)
        npt.assert_array_equal(s.frac_coords, before)

    def test_deterministic_under_seed(self):
        s = perovskite()
        a = random_perturb(s, np.random.default_rng(7), 0.05)
        b = random_perturb(s, np.random.default_rng(7), 0.05)
        npt.assert_array_equal(a.frac_coords, b.frac_coords)

    def test_lattice_and_elements_unchanged(self):
        s = perovskite()
        s2 = random_perturb(s, np.random.default_rng(3), 0.05)
        npt.assert_array_equal(s2.lattice, s.lattice)
        npt.assert_array_equal(s2.atomic_numbers, s.atomic_numbers)


class TestMaskCount:
    def test_table_small_n(self):
        # max(1, round(fraction * n)) for every n in 1..50 at fraction 0.10
        for n in range(1, 51):
            expected = max(1, int(np.floor(0.10 * n + 0.5)))
            assert _mask_count(n, 0.10) == expected, n

    def test_zero_fraction(self):
        assert _mask_count(10, 0.0) == 0

    def test_zero_n(self):
        assert _mask_count(0, 0.10) == 0

    def test_rounding_is_half_up(self):
        assert _mask_count(5, 0.10) == 1
        assert _mask_count(15, 0.10) == 2  # 1.5 rounds up
        assert _mask_count(25, 0.10) == 3  # 2.5 rounds up


class TestMasking:
    def graph(self):
        s = perovskite()
        return build_graph(s, build_neighbor_list(s, NCFG), BASIS)

    def test_mask_atoms_changes_only_node_mask(self):
        g = self.graph()
        g2 = mask_atoms(g, np.random.default_rng(0), 0.10)
        assert int((g2.node_mask == 0).sum()) == 1
        npt.assert_array_equal(g2.node_elem, g.node_elem)
        npt.assert_array_equal(g2.edges, g.edges)
        npt.assert_array_equal(g2.edge_feat, g.edge_feat)
        npt.assert_array_equal(g2.edge_mask, g.edge_mask)

    def test_mask_edges_changes_only_edge_mask(self):
        g = self.graph()
        g2 = mask_edges(g, np.random.default_rng(0), 0.10)
        expected = _mask_count(g.n_edges, 0.10)
        assert int((g2.edge_mask == 0).sum()) == expected
        npt.assert_array_equal(g2.node_mask, g.node_mask)
        npt.assert_array_equal(g2.edge_feat, g.edge_feat)

    def test_masks_without_replacement(self):
        g = self.graph()
        for seed in range(20):
            g2 = mask_edges(g, np.random.default_rng(seed), 0.5)
            assert int((g2.edge_mask == 0).sum()) == _mask_count(g.n_edges, 0.5)


class TestMakeViews:
    def test_requires_an_augmentation(self):
        cfg = AugmentConfig(enable_perturb=False, enable_atom_mask=False,
                            enable_edge_mask=False)
        with pytest.raises(NoAugmentationEnabled):
            make_views(perovskite(), cfg, NCFG, BASIS, np.random.default_rng(0))
        with pytest.raises(NoAugmentationEnabled):
            view_candidates(perovskite(), cfg, NCFG)

    def test_views_differ(self):
        va, vb = make_views(perovskite(), AugmentConfig(), NCFG, BASIS,
                            np.random.default_rng(0))
        same_feat = (va.edge_feat.shape == vb.edge_feat.shape
                     and np.array_equal(va.edge_feat, vb.edge_feat))
        same_masks = (np.array_equal(va.node_mask, vb.node_mask)
                      and va.edge_mask.shape == vb.edge_mask.shape
                      and np.array_equal(va.edge_mask, vb.edge_mask))
        assert not (same_feat and same_masks)

    def test_deterministic_under_seed(self):
        # a candidate list built beforehand gives the views a search of their own gives
        cfg, s = AugmentConfig(), perovskite()
        a1, b1 = make_views(s, cfg, NCFG, BASIS, np.random.default_rng(42))
        a2, b2 = make_views(s, cfg, NCFG, BASIS, np.random.default_rng(42),
                            view_candidates(s, cfg, NCFG))
        for x, y in ((a1, a2), (b1, b2)):
            npt.assert_array_equal(x.node_mask, y.node_mask)
            npt.assert_array_equal(x.edge_mask, y.edge_mask)
            npt.assert_array_equal(x.edge_feat, y.edge_feat)

    def test_masks_only_preserves_geometry(self):
        cfg = AugmentConfig(enable_perturb=False)
        s = perovskite()
        base = build_graph(s, build_neighbor_list(s, NCFG), BASIS)
        va, vb = make_views(s, cfg, NCFG, BASIS, np.random.default_rng(5))
        for v in (va, vb):
            npt.assert_array_equal(v.edges, base.edges)
            npt.assert_array_equal(v.edge_feat, base.edge_feat)
            npt.assert_array_equal(v.node_elem, base.node_elem)
            assert (v.node_mask == 0).sum() == 1
            assert (v.edge_mask == 0).sum() == _mask_count(base.n_edges, 0.10)

    def test_single_augmentation_only_touches_its_target(self):
        s = perovskite()
        base = build_graph(s, build_neighbor_list(s, NCFG), BASIS)
        cfg = AugmentConfig(enable_perturb=False, enable_edge_mask=False)
        va, _ = make_views(s, cfg, NCFG, BASIS, np.random.default_rng(1))
        npt.assert_array_equal(va.edge_mask, base.edge_mask)
        assert (va.node_mask == 0).sum() == 1

    def test_augment_once_perturb_only(self):
        s = perovskite()
        cfg = AugmentConfig(enable_atom_mask=False, enable_edge_mask=False)
        for g in make_views(s, cfg, NCFG, BASIS, np.random.default_rng(3)):
            assert (g.node_mask == 1).all()
            assert (g.edge_mask == 1).all()

    def test_one_dense_search_per_structure(self, monkeypatch):
        # both views come from one candidate list, never from a search each
        calls = []
        dense = geometry._pairs_within

        def counted(*args):
            calls.append(args)
            return dense(*args)

        monkeypatch.setattr(geometry, "_pairs_within", counted)
        rng = np.random.default_rng(0)
        for cfg in (AugmentConfig(), AugmentConfig(max_displacement=0.0),
                    AugmentConfig(enable_perturb=False),
                    AugmentConfig(enable_atom_mask=False, enable_edge_mask=False)):
            for s in (perovskite(), perovskite(4.4)):
                calls.clear()
                make_views(s, cfg, NCFG, BASIS, rng)
                assert len(calls) == 1

    def test_views_match_fresh_search(self):
        # make_views draws what random_perturb draws, in the same order
        s = perovskite()
        cfg = AugmentConfig(max_displacement=0.3, enable_atom_mask=False,
                            enable_edge_mask=False)
        va, vb = make_views(s, cfg, NCFG, BASIS, np.random.default_rng(8))
        rng = np.random.default_rng(8)
        for v in (va, vb):
            p = random_perturb(s, rng, cfg.max_displacement)
            ref = build_graph(p, build_neighbor_list(p, NCFG), BASIS)
            npt.assert_array_equal(v.edges, ref.edges)
            npt.assert_array_equal(v.edge_feat, ref.edge_feat)
