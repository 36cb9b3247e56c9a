import re

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from xtalssl.augment import (
    MAX_DISPLACEMENT,
    AugmentConfig,
    NoAugmentationEnabled,
    _mask_count,
    batch_views,
    mask_atoms,
    mask_edges,
    random_perturb,
    view_candidates,
)
from xtalssl import geometry
from xtalssl.featurize import GaussianBasis, build_graph, merge_graphs
from xtalssl.geometry import NeighborConfig, _axis_spans, build_neighbor_list
from xtalssl.structure_io import CrystalStructure

from helpers import candidate_list, perturbed, view_neighbor_list, views_of
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
        with pytest.raises(ValueError, match="in \\[0, 1.0\\] angstrom"):
            AugmentConfig(max_displacement=MAX_DISPLACEMENT * 1.001)
        assert AugmentConfig(max_displacement=MAX_DISPLACEMENT).max_displacement == 1.0
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

    @pytest.mark.parametrize("max_disp", [0.0, 0.05, 3.0])
    def test_helpers_perturbed_draws_its_sites_and_their_shift(self, max_disp):
        # the geometry tests take a view and its wrapping shift from helpers.perturbed
        s, rng, helper_rng = perovskite(), np.random.default_rng(9), np.random.default_rng(9)
        view, shift = perturbed(s, helper_rng, max_disp)
        assert view.frac_coords.tobytes() == random_perturb(s, rng, max_disp).frac_coords.tobytes()
        assert rng.bit_generator.state == helper_rng.bit_generator.state
        moved = (view.frac_coords + shift - s.frac_coords) @ s.lattice
        assert np.linalg.norm(moved, axis=1).max() <= max_disp + 1e-9


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


class TestOneStructureViews:
    def test_requires_an_augmentation(self):
        cfg = AugmentConfig(enable_perturb=False, enable_atom_mask=False,
                            enable_edge_mask=False)
        with pytest.raises(NoAugmentationEnabled):
            batch_views([candidate_list(perovskite(), NCFG, 0.0)], cfg, BASIS,
                        np.random.default_rng(0))
        with pytest.raises(NoAugmentationEnabled):
            view_candidates([perovskite()], cfg, NCFG)

    def test_views_differ(self):
        (va, _), (vb, _) = views_of([perovskite()], AugmentConfig(), NCFG, BASIS,
                                    np.random.default_rng(0))
        same_feat = (va.edge_feat.shape == vb.edge_feat.shape
                     and np.array_equal(va.edge_feat, vb.edge_feat))
        same_masks = (np.array_equal(va.node_mask, vb.node_mask)
                      and va.edge_mask.shape == vb.edge_mask.shape
                      and np.array_equal(va.edge_mask, vb.edge_mask))
        assert not (same_feat and same_masks)

    def test_deterministic_under_seed(self):
        # lists from one search over several structures, each list serving two
        # calls, give the views of fresh lists searched one structure at a time
        cfg = AugmentConfig()
        skewed = CrystalStructure(lattice=[[4.2, 0.0, 0.0], [0.9, 4.6, 0.0], [-0.7, 0.4, 5.1]],
                                  atomic_numbers=[8, 14, 8],
                                  frac_coords=[[0.1, 0.2, 0.3], [0.5, 0.45, 0.6], [0.8, 0.9, 0.05]])
        structures = [perovskite(), skewed, perovskite(4.4)]
        shared = view_candidates(structures, cfg, NCFG)
        fresh = [view_candidates([s], cfg, NCFG)[0] for s in structures]
        want = batch_views(fresh, cfg, BASIS, np.random.default_rng(42))
        for _ in range(2):
            got = batch_views(shared, cfg, BASIS, np.random.default_rng(42))
            for (x, x_seg), (y, y_seg) in zip(got, want):
                for field in ("node_mask", "edges", "dist", "edge_mask"):
                    npt.assert_array_equal(getattr(x, field), getattr(y, field))
                npt.assert_array_equal(x_seg, y_seg)

    def test_masks_only_preserves_geometry(self):
        cfg = AugmentConfig(enable_perturb=False)
        s = perovskite()
        base = build_graph(s, build_neighbor_list(s, NCFG), BASIS)
        for v, _ in views_of([s], cfg, NCFG, BASIS, np.random.default_rng(5)):
            npt.assert_array_equal(v.edges, base.edges)
            npt.assert_array_equal(v.edge_feat, base.edge_feat)
            npt.assert_array_equal(v.node_elem, base.node_elem)
            assert (v.node_mask == 0).sum() == 1
            assert (v.edge_mask == 0).sum() == _mask_count(base.n_edges, 0.10)

    def test_single_augmentation_only_touches_its_target(self):
        s = perovskite()
        base = build_graph(s, build_neighbor_list(s, NCFG), BASIS)
        cfg = AugmentConfig(enable_perturb=False, enable_edge_mask=False)
        (va, _), _ = views_of([s], cfg, NCFG, BASIS, np.random.default_rng(1))
        npt.assert_array_equal(va.edge_mask, base.edge_mask)
        assert (va.node_mask == 0).sum() == 1

    def test_augment_once_perturb_only(self):
        s = perovskite()
        cfg = AugmentConfig(enable_atom_mask=False, enable_edge_mask=False)
        for g, _ in views_of([s], cfg, NCFG, BASIS, np.random.default_rng(3)):
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
                views_of([s], cfg, NCFG, BASIS, rng)
                assert len(calls) == 1

    @pytest.mark.parametrize("built_for, cfg, ncfg", [
        # a zero-skin list for views that move sites by up to 0.8 A
        (dict(ncfg=NeighborConfig(cutoff=4.0, max_neighbors=6), max_disp=0.0),
         AugmentConfig(max_displacement=0.8), NeighborConfig(cutoff=4.0, max_neighbors=6)),
    ], ids=["displacement"])
    def test_rejects_a_candidate_list_made_for_other_views(self, built_for, cfg, ncfg):
        s = perovskite()
        candidates = candidate_list(s, built_for["ncfg"], built_for["max_disp"])
        message = (f"built for max_disp {built_for['max_disp']} "
                   f"cannot serve views under max_disp {cfg.max_displacement}")
        with pytest.raises(ValueError, match=re.escape(message)):
            batch_views([candidates], cfg, BASIS, np.random.default_rng(0))
        with pytest.raises(ValueError, match=re.escape(message)):
            batch_views([*view_candidates([s], cfg, ncfg), candidates], cfg, BASIS,
                        np.random.default_rng(0))

    def test_accepts_a_list_with_a_wider_skin(self):
        # a list built for a larger displacement holds every pair of a smaller one
        s, cfg = perovskite(), AugmentConfig()
        wide = candidate_list(s, NCFG, 0.3)
        got = batch_views([wide], cfg, BASIS, np.random.default_rng(4))
        want = views_of([s], cfg, NCFG, BASIS, np.random.default_rng(4))
        for (g, _), (w, _) in zip(got, want):
            npt.assert_array_equal(g.edges, w.edges)
            npt.assert_array_equal(g.dist, w.dist)
            npt.assert_array_equal(g.edge_mask, w.edge_mask)

    def test_views_match_fresh_search(self):
        # batch_views draws what random_perturb draws, in the same order
        s = perovskite()
        cfg = AugmentConfig(max_displacement=0.3, enable_atom_mask=False,
                            enable_edge_mask=False)
        views = views_of([s], cfg, NCFG, BASIS, np.random.default_rng(8))
        rng = np.random.default_rng(8)
        for v, _ in views:
            p = random_perturb(s, rng, cfg.max_displacement)
            ref = build_graph(p, build_neighbor_list(p, NCFG), BASIS)
            npt.assert_array_equal(v.edges, ref.edges)
            npt.assert_array_equal(v.edge_feat, ref.edge_feat)


_FRAC = st.floats(0.0, 1.0, exclude_max=True)


@st.composite
def small_cells(draw):
    """One-site cubic cells, whose self images tie, or skewed cells of two to eight sites."""
    if draw(st.booleans()):
        return CrystalStructure(lattice=draw(st.floats(2.0, 4.0)) * np.eye(3),
                                atomic_numbers=[draw(st.integers(1, 100))],
                                frac_coords=[[draw(_FRAC) for _ in range(3)]])
    a, b, c = (draw(st.floats(3.0, 6.0)) for _ in range(3))
    bx, cx, cy = (draw(st.floats(-1.0, 1.0)) for _ in range(3))
    n = draw(st.integers(2, 8))
    return CrystalStructure(lattice=[[a, 0.0, 0.0], [bx, b, 0.0], [cx, cy, c]],
                            atomic_numbers=[draw(st.integers(1, 100)) for _ in range(n)],
                            frac_coords=[[draw(_FRAC) for _ in range(3)] for _ in range(n)])


def _public_chain(s, cfg, ncfg, basis, rng):
    """Two views through the public functions, in the draw order batch_views keeps."""
    candidates = view_candidates([s], cfg, ncfg)[0]
    views = []
    for _ in range(2):
        view = random_perturb(s, rng, cfg.max_displacement if cfg.enable_perturb else 0.0)
        # each site moved by less than half a cell, so this is the shift that wrapped it
        shift = np.rint(s.frac_coords - view.frac_coords).astype(np.int64)
        g = build_graph(view, view_neighbor_list(candidates, view.frac_coords, shift), basis)
        if cfg.enable_atom_mask:
            g = mask_atoms(g, rng, cfg.mask_fraction)
        if cfg.enable_edge_mask:
            g = mask_edges(g, rng, cfg.mask_fraction)
        views.append(g)
    return views


class TestViewsAreThePublicChain:
    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(small_cells(), st.booleans(), st.sampled_from([0.0, 0.05, 0.3]), st.booleans(),
           st.booleans(), st.sampled_from([0.0, 0.1, 1.0]), st.sampled_from([1.0, 3.0, 6.0]),
           st.integers(1, 16), st.integers(0, 2**32 - 1))
    def test_one_structure_batch_equals_the_chain(self, s, perturb, delta, atom_mask,
                                                  edge_mask, fraction, cutoff, k, seed):
        cfg = AugmentConfig(enable_perturb=perturb, max_displacement=delta,
                            enable_atom_mask=atom_mask, enable_edge_mask=edge_mask,
                            mask_fraction=fraction)
        assume(cfg.any_enabled)
        assume(delta * max(_axis_spans(s.lattice)) < 0.5)
        ncfg = NeighborConfig(cutoff=cutoff, max_neighbors=k)
        rng, chain_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = views_of([s], cfg, ncfg, BASIS, rng)
        want = _public_chain(s, cfg, ncfg, BASIS, chain_rng)
        for (g, _), w in zip(got, want):
            for field in ("node_elem", "node_mask", "edges", "dist", "edge_mask"):
                a, b = getattr(g, field), getattr(w, field)
                assert a.dtype == b.dtype and a.shape == b.shape, field
                assert a.tobytes() == b.tobytes(), field
            assert g.basis == w.basis
        assert rng.bit_generator.state == chain_rng.bit_generator.state

    def test_covers_a_cell_with_no_edge(self):
        # the 2 A cell's nearest self images lie beyond a 1 A cutoff, in every view
        s = CrystalStructure(lattice=2.0 * np.eye(3), atomic_numbers=[11],
                             frac_coords=[[0.1, 0.2, 0.3]])
        ncfg = NeighborConfig(cutoff=1.0, max_neighbors=4)
        for fraction in (0.0, 0.1, 1.0):
            cfg = AugmentConfig(max_displacement=0.3, mask_fraction=fraction)
            got = views_of([s], cfg, ncfg, BASIS, np.random.default_rng(0))
            want = _public_chain(s, cfg, ncfg, BASIS, np.random.default_rng(0))
            for (g, _), w in zip(got, want):
                assert g.n_edges == w.n_edges == 0
                npt.assert_array_equal(g.node_mask, w.node_mask)
                assert g.node_mask.tolist() == [0 if fraction else 1]


def _chain_batch(structures, cfg, ncfg, basis, rng):
    """Each side's ``merge_graphs`` of the public chain, entry by entry, view a then b."""
    sides = ([], [])
    for s in structures:
        for side in sides:
            view = random_perturb(s, rng, cfg.max_displacement) if cfg.enable_perturb else s
            g = build_graph(view, build_neighbor_list(view, ncfg), basis)
            if cfg.enable_atom_mask:
                g = mask_atoms(g, rng, cfg.mask_fraction)
            if cfg.enable_edge_mask:
                g = mask_edges(g, rng, cfg.mask_fraction)
            side.append(g)
    return [merge_graphs(side) for side in sides]


class TestBatchViews:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(small_cells(), min_size=1, max_size=6),
           st.sampled_from([None, 0.0, 0.05, 0.3]), st.booleans(), st.booleans(),
           st.sampled_from([0.0, 0.1, 1.0]), st.floats(1.0, 6.0), st.integers(1, 16),
           st.integers(0, 2**32 - 1))
    def test_equals_merge_graphs_of_the_public_chain(self, structures, delta, atom_mask,
                                                     edge_mask, fraction, cutoff, k, seed):
        # delta None: perturbation off
        cfg = AugmentConfig(enable_perturb=delta is not None, max_displacement=delta or 0.0,
                            enable_atom_mask=atom_mask, enable_edge_mask=edge_mask,
                            mask_fraction=fraction)
        assume(cfg.any_enabled)
        ncfg = NeighborConfig(cutoff=cutoff, max_neighbors=k)
        rng, chain_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = views_of(structures, cfg, ncfg, BASIS, rng)
        want = _chain_batch(structures, cfg, ncfg, BASIS, chain_rng)
        for (g, g_seg), (w, w_seg) in zip(got, want):
            fields = ("node_elem", "node_mask", "edges", "dist", "edge_mask")
            for a, b in [(getattr(g, f), getattr(w, f)) for f in fields] + [(g_seg, w_seg)]:
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()
            assert g.basis == w.basis
        assert rng.bit_generator.state == chain_rng.bit_generator.state

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(small_cells(), min_size=1, max_size=3),
           st.sampled_from([None, 0.0, 0.05, 0.3]), st.booleans(), st.booleans(),
           st.sampled_from([0.0, 0.1, 1.0]), st.floats(1.0, 6.0), st.integers(1, 16),
           st.sampled_from([0.0, 1e-9, 0.01, 0.2, 0.7]), st.floats(0.0, 1.0, exclude_max=True),
           st.integers(0, 2**32 - 1))
    def test_any_skin_from_the_displacement_up_gives_the_same_views(
            self, structures, delta, atom_mask, edge_mask, fraction, cutoff, k, wider,
            narrower, seed):
        # delta None: perturbation off; the skin is the displacement a list is built for
        cfg = AugmentConfig(enable_perturb=delta is not None, max_displacement=delta or 0.0,
                            enable_atom_mask=atom_mask, enable_edge_mask=edge_mask,
                            mask_fraction=fraction)
        assume(cfg.any_enabled)
        ncfg = NeighborConfig(cutoff=cutoff, max_neighbors=k)
        skin = (delta or 0.0) + wider
        rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = batch_views(geometry.candidate_lists(structures, ncfg, skin), cfg, BASIS, rng)
        want = batch_views([view_candidates([s], cfg, ncfg)[0] for s in structures], cfg, BASIS,
                           want_rng)
        for (g, g_seg), (w, w_seg) in zip(got, want):
            fields = ("node_elem", "node_mask", "edges", "dist", "edge_mask")
            for a, b in [(getattr(g, f), getattr(w, f)) for f in fields] + [(g_seg, w_seg)]:
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()
            assert g.basis == w.basis
        assert rng.bit_generator.state == want_rng.bit_generator.state
        if delta:
            short = geometry.candidate_lists(structures, ncfg, delta * narrower)
            with pytest.raises(ValueError, match="cannot serve views under max_disp"):
                batch_views(short, cfg, BASIS, np.random.default_rng(seed))

    def test_views_lose_boundary_candidates(self):
        # at a 3 A cutoff and 0.3 A, pairs from 2.4 to 3.6 A can cross the cutoff:
        # the perovskite's 2.83 A O-O and Cs-O pairs and its 3.46 A Cs-Ti pairs
        s = perovskite()
        cfg, ncfg = AugmentConfig(max_displacement=0.3), NeighborConfig(cutoff=3.0)
        candidates, = view_candidates([s], cfg, ncfg)
        assert candidates.boundary.size
        got = batch_views([candidates] * 8, cfg, BASIS, np.random.default_rng(2))
        want = _chain_batch([s] * 8, cfg, ncfg, BASIS, np.random.default_rng(2))
        for (g, seg), (w, _) in zip(got, want):
            for field in ("edges", "dist", "edge_mask", "node_mask"):
                npt.assert_array_equal(getattr(g, field), getattr(w, field))
            # edges per view: some views lose boundary candidates that others keep
            assert len(set(np.bincount(seg[g.edges[:, 0]], minlength=8).tolist())) > 1
