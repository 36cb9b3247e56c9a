import json
import time
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xtalssl.elements import MAX_Z
from xtalssl.featurize import (
    MAX_CENTERS,
    CrystalGraph,
    GaussianBasis,
    GraphFormatError,
    build_graph,
    gaussian_expand,
    graph_from_json,
    graph_to_json,
    merge_graphs,
    with_edge_mask,
    with_node_mask,
)
from xtalssl.geometry import NeighborConfig, build_neighbor_list
from xtalssl.structure_io import CrystalStructure


class TestGaussianBasis:
    def test_default_has_41_centers(self):
        basis = GaussianBasis()
        assert basis.n_centers == 41
        npt.assert_allclose(basis.centers, np.arange(0.0, 8.0 + 1e-9, 0.2), atol=1e-12)

    def test_center_count_rounding(self):
        assert GaussianBasis(d_min=0.0, d_max=1.0, step=0.5).n_centers == 3
        assert GaussianBasis(d_min=0.0, d_max=1.1, step=0.5).n_centers == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            GaussianBasis(d_min=2.0, d_max=1.0)
        with pytest.raises(ValueError):
            GaussianBasis(step=0.0)
        with pytest.raises(ValueError):
            GaussianBasis(var=-1.0)
        for bad in ({"step": np.nan}, {"var": np.nan}, {"d_max": np.inf}):
            with pytest.raises(ValueError):
                GaussianBasis(**bad)

    def test_center_count_is_bounded(self):
        assert GaussianBasis(d_max=MAX_CENTERS - 1.0, step=1.0).n_centers == MAX_CENTERS
        # a step of 1e-320 overflows the span to inf
        for bad in ({"d_max": float(MAX_CENTERS), "step": 1.0}, {"step": 1e-9}, {"step": 1e-320}):
            with pytest.raises(ValueError, match="centers"):
                GaussianBasis(**bad)


class TestGaussianExpand:
    def test_peak_and_width(self):
        basis = GaussianBasis(d_min=0.0, d_max=2.0, step=1.0, var=0.04)
        f = gaussian_expand(1.0, basis)
        assert f.shape == (3,)
        assert f[1] == pytest.approx(1.0)
        # one sigma away the value is exp(-1)
        f2 = gaussian_expand(1.0 + np.sqrt(0.04), basis)
        assert f2[1] == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_explicit_values(self):
        basis = GaussianBasis(d_min=0.0, d_max=8.0, step=0.2, var=0.04)
        f = gaussian_expand(2.5, basis)
        expected = np.exp(-((2.5 - basis.centers) ** 2) / 0.04)
        npt.assert_allclose(f, expected, rtol=1e-14)

    @pytest.mark.parametrize("dist", [2.5, np.linspace(0.1, 7.9, 13),
                                      np.linspace(0.1, 7.9, 12).reshape(3, 4)])
    def test_equals_the_plain_formula_bitwise(self, dist):
        basis = GaussianBasis(d_min=0.5, d_max=7.0, step=0.25, var=0.09)
        diff = np.asarray(dist)[..., None] - basis.centers
        expected = np.exp(-(diff * diff) / basis.var)
        got = gaussian_expand(dist, basis)
        assert got.shape == np.shape(dist) + (basis.n_centers,)
        assert got.tobytes() == expected.tobytes()

    def test_lipschitz_smoothness(self):
        # |df/dd| for one gaussian is at most sqrt(2/var) * exp(-1/2)
        basis = GaussianBasis()
        bound = np.sqrt(2.0 / basis.var) * np.exp(-0.5)
        d = np.linspace(0.0, 8.0, 2000)
        feats = np.stack([gaussian_expand(x, basis) for x in d])
        deriv = np.abs(np.diff(feats, axis=0) / np.diff(d)[:, None])
        assert deriv.max() <= bound + 1e-6


def rock_salt(a=5.64):
    fr = [[0, 0, 0], [0.5, 0.5, 0], [0.5, 0, 0.5], [0, 0.5, 0.5],
          [0.5, 0.5, 0.5], [0, 0, 0.5], [0, 0.5, 0], [0.5, 0, 0]]
    z = [11, 11, 11, 11, 17, 17, 17, 17]
    return CrystalStructure(lattice=a * np.eye(3), atomic_numbers=z, frac_coords=fr)


def skewed_graph(seed, n=6, basis=GaussianBasis()):
    """A triclinic cell whose edges have many distinct lengths."""
    rng = np.random.default_rng(seed)
    lattice = np.diag(rng.uniform(4.0, 5.0, 3)) + np.triu(rng.uniform(-0.8, 0.8, (3, 3)), 1)
    s = CrystalStructure(lattice=lattice, atomic_numbers=rng.integers(1, 90, n),
                         frac_coords=rng.uniform(0, 1, (n, 3)))
    return build_graph(s, build_neighbor_list(s, NeighborConfig()), basis)


class TestBuildGraph:
    def test_rock_salt_first_shell(self):
        s = rock_salt()
        nl = build_neighbor_list(s, NeighborConfig(cutoff=3.0, max_neighbors=6))
        g = build_graph(s, nl)
        assert g.n_nodes == 8
        assert g.n_edges == 48
        # every edge joins unlike elements at a/2
        za = g.node_elem[g.edges[:, 0]]
        zb = g.node_elem[g.edges[:, 1]]
        assert np.all(za != zb)
        peak = gaussian_expand(5.64 / 2, GaussianBasis())
        for row in g.edge_feat:
            npt.assert_allclose(row, peak, atol=1e-12)

    def test_masks_default_active(self):
        s = rock_salt()
        nl = build_neighbor_list(s, NeighborConfig(cutoff=3.0, max_neighbors=6))
        g = build_graph(s, nl)
        npt.assert_array_equal(g.node_mask, np.ones(8, dtype=np.int8))
        npt.assert_array_equal(g.edge_mask, np.ones(48, dtype=np.int8))

    def test_stores_distances_and_expands_on_read(self):
        s = rock_salt()
        nl = build_neighbor_list(s, NeighborConfig(cutoff=4.5, max_neighbors=18))
        basis = GaussianBasis(d_min=0.0, d_max=4.5, step=0.5)
        g = build_graph(s, nl, basis)
        assert g.basis == basis
        assert g.dist.tobytes() == nl.dist.tobytes()
        assert g.edge_feat.shape == (nl.n_edges, basis.n_centers)
        assert g.edge_feat.tobytes() == gaussian_expand(nl.dist, basis).tobytes()

    def test_permutation_relabels_consistently(self):
        s = rock_salt()
        cfg = NeighborConfig(cutoff=3.0, max_neighbors=6)
        perm = np.array([3, 7, 0, 5, 2, 6, 1, 4])
        s2 = CrystalStructure(lattice=s.lattice,
                              atomic_numbers=s.atomic_numbers[perm],
                              frac_coords=s.frac_coords[perm])
        g1 = build_graph(s, build_neighbor_list(s, cfg))
        g2 = build_graph(s2, build_neighbor_list(s2, cfg))
        # multiset of (z_src, z_dst, rounded feature) must agree
        def sig(g):
            return sorted(
                (int(g.node_elem[a]), int(g.node_elem[b]), tuple(np.round(f, 9)))
                for (a, b), f in zip(g.edges, g.edge_feat)
            )
        assert sig(g1) == sig(g2)

    def test_zero_edge_graph(self):
        s = CrystalStructure(lattice=5.0 * np.eye(3), atomic_numbers=[14],
                             frac_coords=[[0.2, 0.2, 0.2]])
        nl = build_neighbor_list(s, NeighborConfig(cutoff=1.0, max_neighbors=4))
        g = build_graph(s, nl)
        assert g.n_nodes == 1
        assert g.n_edges == 0
        assert g.edge_feat.shape == (0, 41)


class TestMasks:
    def g(self):
        s = rock_salt()
        nl = build_neighbor_list(s, NeighborConfig(cutoff=3.0, max_neighbors=6))
        return build_graph(s, nl)

    def test_with_node_mask(self):
        g = self.g()
        mask = np.ones(8, dtype=np.int8)
        mask[2] = 0
        g2 = with_node_mask(g, mask)
        npt.assert_array_equal(g2.node_mask, mask)
        npt.assert_array_equal(g.node_mask, np.ones(8, dtype=np.int8))
        assert g2.dist is g.dist

    def test_with_edge_mask(self):
        g = self.g()
        mask = np.ones(48, dtype=np.int8)
        mask[[0, 5]] = 0
        g2 = with_edge_mask(g, mask)
        npt.assert_array_equal(g2.edge_mask, mask)
        npt.assert_array_equal(g.edge_mask, np.ones(48, dtype=np.int8))

    def test_mask_validation(self):
        g = self.g()
        with pytest.raises(GraphFormatError, match="node_mask must hold integers in"):
            with_node_mask(g, np.full(8, 2, dtype=np.int8))
        with pytest.raises(GraphFormatError, match=r"edge_mask has shape \(5,\), not \(48,\)"):
            with_edge_mask(g, np.ones(5, dtype=np.int8))
        with pytest.raises(GraphFormatError, match=r"node_mask has shape \(3,\), not \(8,\)"):
            with_node_mask(g, np.ones(3, dtype=np.int8))
        with pytest.raises(GraphFormatError, match="edge_mask must hold integers in"):
            with_edge_mask(g, np.full(48, -1))


class TestMergeGraphs:
    def test_offsets_and_segments(self):
        s = rock_salt()
        nl = build_neighbor_list(s, NeighborConfig(cutoff=3.0, max_neighbors=6))
        g = build_graph(s, nl)
        merged, seg = merge_graphs([g, g, g])
        assert merged.n_nodes == 24
        assert merged.n_edges == 144
        npt.assert_array_equal(seg, np.repeat([0, 1, 2], 8))
        npt.assert_array_equal(merged.edges[48:96], g.edges + 8)
        npt.assert_array_equal(merged.edges[96:], g.edges + 16)
        npt.assert_array_equal(merged.node_elem, np.tile(g.node_elem, 3))
        npt.assert_allclose(merged.edge_feat, np.tile(g.edge_feat, (3, 1)))

    def test_merge_zero_edge_member(self):
        s1 = CrystalStructure(lattice=5.0 * np.eye(3), atomic_numbers=[14],
                              frac_coords=[[0, 0, 0]])
        g1 = build_graph(s1, build_neighbor_list(s1, NeighborConfig(cutoff=1.0, max_neighbors=4)))
        s2 = rock_salt()
        g2 = build_graph(s2, build_neighbor_list(s2, NeighborConfig(cutoff=3.0, max_neighbors=6)))
        merged, seg = merge_graphs([g1, g2])
        assert merged.n_nodes == 9
        assert merged.n_edges == 48
        npt.assert_array_equal(merged.edges, g2.edges + 1)
        npt.assert_array_equal(seg, np.array([0] + [1] * 8))

    def test_merge_empty_list(self):
        with pytest.raises(ValueError):
            merge_graphs([])

    def test_features_of_merge_equal_concatenated_features_bitwise(self):
        graphs = [skewed_graph(seed, n) for seed, n in ((1, 3), (2, 7), (3, 1), (4, 5))]
        merged, _ = merge_graphs(graphs)
        expected = np.concatenate([g.edge_feat for g in graphs])
        assert merged.edge_feat.tobytes() == expected.tobytes()

    def test_merge_rejects_mixed_bases(self):
        g1 = skewed_graph(1)
        g2 = skewed_graph(1, basis=GaussianBasis(d_max=6.0))
        with pytest.raises(ValueError, match="bases"):
            merge_graphs([g1, g2])


class TestGraphJson:
    def test_round_trip(self):
        s = rock_salt()
        nl = build_neighbor_list(s, NeighborConfig(cutoff=3.0, max_neighbors=6))
        g = build_graph(s, nl)
        mask = np.ones(8, dtype=np.int8)
        mask[0] = 0
        g = with_node_mask(g, mask)
        g2, gid = graph_from_json(graph_to_json(g, id="nacl"))
        assert gid == "nacl"
        npt.assert_array_equal(g2.node_elem, g.node_elem)
        npt.assert_array_equal(g2.node_mask, g.node_mask)
        npt.assert_array_equal(g2.edges, g.edges)
        npt.assert_array_equal(g2.edge_mask, g.edge_mask)
        assert g2.basis == g.basis
        assert g2.edge_feat.tobytes() == g.edge_feat.tobytes()

    def test_round_trip_features_are_bitwise(self):
        basis = GaussianBasis(d_min=0.5, d_max=7.0, step=0.25, var=0.09)
        for seed in range(4):
            g = skewed_graph(seed, basis=basis)
            g2, _ = graph_from_json(graph_to_json(g))
            assert g2.basis == basis
            assert g2.dist.tobytes() == g.dist.tobytes()
            assert g2.edge_feat.tobytes() == g.edge_feat.tobytes()

    def test_writes_distances_and_basis(self):
        record = json.loads(graph_to_json(skewed_graph(0), id="x"))
        assert set(record) == {"id", "node_elem", "node_mask", "edges", "dist", "basis",
                               "edge_mask"}
        assert record["basis"] == {"d_min": 0.0, "d_max": 8.0, "step": 0.2, "var": 0.04}

    def test_round_trip_zero_edges(self):
        g = CrystalGraph(node_elem=np.array([14], dtype=np.int64),
                         node_mask=np.ones(1, dtype=np.int8),
                         edges=np.zeros((0, 2), dtype=np.int64),
                         dist=np.zeros(0),
                         edge_mask=np.zeros(0, dtype=np.int8),
                         basis=GaussianBasis())
        g2, gid = graph_from_json(graph_to_json(g))
        assert gid is None
        assert g2.n_edges == 0
        assert g2.edge_feat.shape == (0, 41)

    def test_graph_validation(self):
        with pytest.raises(ValueError):
            CrystalGraph(node_elem=np.array([14], dtype=np.int64),
                         node_mask=np.ones(1, dtype=np.int8),
                         edges=np.array([[0, 1]], dtype=np.int64),
                         dist=np.ones(1),
                         edge_mask=np.ones(1, dtype=np.int8),
                         basis=GaussianBasis())
        with pytest.raises(ValueError):
            CrystalGraph(node_elem=np.array([14, 14], dtype=np.int64),
                         node_mask=np.ones(2, dtype=np.int8),
                         edges=np.array([[0, 1]], dtype=np.int64),
                         dist=np.ones(2),
                         edge_mask=np.ones(1, dtype=np.int8),
                         basis=GaussianBasis())

    def test_old_format_line_is_rejected(self):
        g = skewed_graph(0)
        record = json.loads(graph_to_json(g))
        del record["dist"], record["basis"]
        record.update(edge_feat_dim=41, edge_feat=g.edge_feat.tolist())
        with pytest.raises(GraphFormatError, match="old graphs.jsonl format"):
            graph_from_json(json.dumps(record))

    def test_huge_basis_is_rejected_before_allocating(self):
        # step 1e-9 would give 8e9 centers, 64 GB of features per edge
        record = json.loads(graph_to_json(build_graph(rock_salt(), build_neighbor_list(
            rock_salt(), NeighborConfig(cutoff=3.0, max_neighbors=6)))))
        record["basis"]["step"] = 1e-9
        line = json.dumps(record)
        tracemalloc.start()
        t0 = time.perf_counter()
        try:
            with pytest.raises(ValueError, match="centers"):
                graph_from_json(line)
            seconds = time.perf_counter() - t0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert seconds < 0.5
        assert peak < 1 << 20

    @pytest.mark.parametrize("field, value", [
        ("node_elem", 1.7), ("node_elem", 0), ("node_elem", 101), ("node_elem", 300),
        ("node_elem", "Na"), ("edges", [0.9, 1]), ("edges", [-1, 0]), ("edges", [0, 6]),
    ])
    def test_a_node_or_edge_value_that_is_not_a_valid_integer_is_rejected(self, field, value):
        # 1.7 and 0.9 used to read back truncated, as 1 and 0
        record = json.loads(graph_to_json(skewed_graph(0)))
        assert len(record["node_elem"]) == 6
        record[field][0] = value
        with pytest.raises(GraphFormatError, match=f"^{field} must hold integers in"):
            graph_from_json(json.dumps(record))
        record[field][0] = MAX_Z if field == "node_elem" else [0, 5]
        assert graph_from_json(json.dumps(record))[0].node_elem.dtype == np.int64

    @pytest.mark.parametrize("field, value", [
        ("node_elem", True), ("edges", [0, True]), ("edges", [False, 1]),
        ("node_mask", True), ("edge_mask", False),
    ])
    def test_a_boolean_among_integers_is_rejected(self, field, value):
        # numpy reads [True, 1] as the integers [1, 1]
        record = json.loads(graph_to_json(skewed_graph(0)))
        record[field][0] = value
        with pytest.raises(GraphFormatError, match=f"^{field} must hold integers in .*booleans"):
            graph_from_json(json.dumps(record))

    @pytest.mark.parametrize("field, value", [
        ("dist", "nan"), ("dist", "inf"), ("dist", -1.0), ("dist", "short"),
        ("node_mask", 2), ("edge_mask", 3), ("basis", {"step": 0.0}),
        ("basis", {"var": "nan"}),
    ])
    def test_bad_line_is_rejected(self, field, value):
        g = skewed_graph(0)
        record = json.loads(graph_to_json(g))
        if field == "dist":
            record["dist"] = (record["dist"][:-1] if value == "short"
                              else [float(value)] + record["dist"][1:])
        elif field == "basis":
            record["basis"].update({k: float(v) for k, v in value.items()})
        else:
            record[field][0] = value
        with pytest.raises(ValueError):
            graph_from_json(json.dumps(record))

    @pytest.mark.parametrize("mutate, message", [
        (lambda r: [], "^graph line must be a JSON object$"),
        (lambda r: "{" + json.dumps(r), "^graph line is not JSON"),
        (lambda r: "[" * 100_000, "^graph line is not JSON"),
        (lambda r: {k: v for k, v in r.items() if k != "edge_mask"}, "^graph line has no edge_mask$"),
        (lambda r: {**r, "basis": {k: v for k, v in r["basis"].items() if k != "d_min"}},
         "^basis must hold exactly"),
        (lambda r: {**r, "basis": {**r["basis"], "step": True}}, "^basis must hold finite"),
        (lambda r: {**r, "basis": {**r["basis"], "var": 10 ** 400}}, "^basis must hold finite"),
        (lambda r: {**r, "edges": [[0, 1, 1]], "dist": [1.0], "edge_mask": [1]},
         r"^edges has shape \(1, 3\), not \(1, 2\)$"),
        (lambda r: {**r, "node_mask": r["node_mask"][1:]}, "^node_mask has shape"),
        (lambda r: {**r, "edge_mask": r["edge_mask"] + [1]}, "^edge_mask has shape"),
        (lambda r: {**r, "node_elem": [[z] for z in r["node_elem"]]}, "^node_elem must be a"),
        (lambda r: {**r, "node_elem": 11}, "^node_elem must be a"),
        (lambda r: {**r, "id": 5}, "^id must be a string$"),
        (lambda r: {**r, "id": None}, "^id must be a string$"),
        (lambda r: {**r, "node_elem": [], "node_mask": [], "edges": [], "dist": [],
                    "edge_mask": []}, "^node_elem must be a nonempty list"),
        (lambda r: {**r, "dist": [True] + r["dist"][1:]}, "^dist must hold finite numbers$"),
        (lambda r: {**r, "dist": ["1.5"] + r["dist"][1:]}, "^dist must hold finite numbers$"),
        (lambda r: {**r, "dist": [10 ** 400] + r["dist"][1:]}, "^dist must hold finite numbers$"),
        (lambda r: {**r, "edges": [[0, 1], [0]] + r["edges"][2:]}, "^edges must hold integers"),
        (lambda r: {**r, "node_mask": [None] + r["node_mask"][1:]}, "^node_mask must hold"),
    ])
    def test_a_malformed_line_is_a_graph_format_error_naming_the_field(self, mutate, message):
        mutated = mutate(json.loads(graph_to_json(skewed_graph(0), id="x")))
        line = mutated if isinstance(mutated, str) else json.dumps(mutated)
        with pytest.raises(GraphFormatError, match=message):
            graph_from_json(line)

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_a_mutated_line_reads_as_what_it_says_or_raises_graph_format_error(self, data):
        line = data.draw(st.sampled_from(_BASE_LINES))
        for _ in range(data.draw(st.integers(1, 3))):
            line = _mutate(data, line)
        try:
            graph, gid = graph_from_json(line)
        except GraphFormatError:
            return
        # accepted: the line held exactly the graph read back, nothing coerced
        assert _typed(json.loads(graph_to_json(graph, gid))) == _typed(_as_written(json.loads(line)))


def _base_lines():
    """Valid graphs.jsonl lines: masked nodes and edges, and a cell with no edges."""
    s = CrystalStructure(lattice=3.1 * np.eye(3), atomic_numbers=[11, 17],
                         frac_coords=[[0, 0, 0], [0.5, 0.5, 0.5]])
    g = build_graph(s, build_neighbor_list(s, NeighborConfig(cutoff=3.0, max_neighbors=3)),
                    GaussianBasis(d_min=0.5, d_max=3.0, step=0.5, var=0.25))
    g = with_edge_mask(with_node_mask(g, np.array([1, 0], dtype=np.int8)),
                       (np.arange(g.n_edges) % 3 != 0).astype(np.int8))
    lone = CrystalStructure(lattice=9.0 * np.eye(3), atomic_numbers=[14], frac_coords=[[0, 0, 0]])
    edgeless = build_graph(lone, build_neighbor_list(lone, NeighborConfig(cutoff=3.0)))
    return [graph_to_json(g, id="nacl"), graph_to_json(g), graph_to_json(edgeless, id="si")]


_BASE_LINES = _base_lines()
_FIELDS = ("id", "node_elem", "node_mask", "edges", "dist", "basis", "edge_mask")
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 101) | st.integers() | st.floats()
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner,
                                                                max_size=3),
    max_leaves=6)


def _paths(value, path=()):
    """The path of ``value`` and of everything inside it."""
    yield path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, inner in items:
        yield from _paths(inner, path + (key,))


def _mutate(data, line: str) -> str:
    """``line`` with one edit drawn: to its text, or to a value anywhere in its JSON."""
    kind = data.draw(st.sampled_from(["text", "replace", "replace", "delete", "insert", "insert"]))
    try:
        record = json.loads(line)
    except ValueError:
        kind = "text"
    if kind == "text":
        at = data.draw(st.integers(0, len(line)))
        char = data.draw(st.sampled_from(list('0123456789-.,:[]{}" eEtfn')))
        return data.draw(st.sampled_from([line[:at], line[:at] + line[at + 1:],
                                          line[:at] + char + line[at:]]))
    path = data.draw(st.sampled_from(list(_paths(record))))
    # small numbers keep many edits valid: a value a field may hold, or one of another type
    value = data.draw(st.integers(0, 2) | st.floats(0.0, 5.0) | _JSON)
    if kind == "replace" and not path:
        return json.dumps(value)
    if kind == "insert" and isinstance(_at(record, path), (dict, list)):
        container = _at(record, path)
        if isinstance(container, dict):
            container[data.draw(st.sampled_from(list(_FIELDS) + ["extra"]))] = value
        else:
            container.insert(data.draw(st.integers(0, len(container))), value)
    elif path:
        parent = _at(record, path[:-1])
        if kind == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return json.dumps(record)


def _at(record, path):
    for key in path:
        record = record[key]
    return record


def _as_written(record: dict) -> dict:
    """What ``graph_to_json`` writes for the graph ``record`` describes, if it describes one.

    Keys it does not write are dropped, and integers in ``dist`` and
    ``basis`` become floats; booleans stay booleans.
    """
    out = {key: record[key] for key in _FIELDS if key in record}
    out["dist"] = [float(v) if type(v) is int else v for v in out["dist"]]
    out["basis"] = {k: float(v) if type(v) is int else v for k, v in out["basis"].items()}
    return out


def _typed(value):
    """``value`` with each number, boolean and string tagged with its type: 1, 1.0 and True differ."""
    if isinstance(value, dict):
        return {key: _typed(inner) for key, inner in value.items()}
    if isinstance(value, list):
        return [_typed(inner) for inner in value]
    return type(value).__name__, value
