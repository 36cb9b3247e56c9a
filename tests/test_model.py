import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from xtalssl.autodiff import ShapeMismatch, Tape, Tensor, sum_all
from xtalssl.featurize import (
    CrystalGraph,
    GaussianBasis,
    build_graph,
    merge_graphs,
    with_edge_mask,
    with_node_mask,
)
from xtalssl.geometry import NeighborConfig, build_neighbor_list
from xtalssl.model import (
    ConfigMismatch,
    CorruptCheckpoint,
    EmptyGraph,
    ModelConfig,
    encode,
    init_params,
    load_checkpoint,
    load_encoder_weights,
    check_encoder_compatible,
    params_from_arrays,
    project,
    regress,
    save_checkpoint,
)
from xtalssl.structure_io import CrystalStructure
from xtalssl.toydata import gen_toy_dataset

SMALL = ModelConfig(hidden_dim=5, n_conv=2, proj_dim=4, head_hidden=3, edge_feat_dim=41)


def single_atom_graph(a=1.0, z=29, cutoff=1.1):
    s = CrystalStructure(lattice=a * np.eye(3), atomic_numbers=[z],
                         frac_coords=[[0.0, 0.0, 0.0]])
    return build_graph(s, build_neighbor_list(s, NeighborConfig(cutoff=cutoff, max_neighbors=12)))


def random_graph(rng, n=4):
    s = CrystalStructure(lattice=np.diag(rng.uniform(4.4, 5.5, 3)),
                         atomic_numbers=rng.integers(1, 101, n),
                         frac_coords=rng.uniform(0, 1, (n, 3)))
    return build_graph(s, build_neighbor_list(s, NeighborConfig(cutoff=6.0, max_neighbors=8)))


def manual_encode(params, g, seg=None, n_graphs=1, edge_feat=None):
    """Dense numpy re-derivation of the encoder forward pass.

    ``edge_feat`` replaces the graph's expanded distances when given.
    """
    edge_feat = g.edge_feat if edge_feat is None else edge_feat
    seg = np.zeros(g.n_nodes, dtype=np.int64) if seg is None else np.asarray(seg)
    h = params.elem_embed.data[g.node_elem - 1] * g.node_mask[:, None].astype(np.float64)
    for conv in params.convs:
        if g.n_edges == 0:
            continue
        src, dst = g.edges[:, 0], g.edges[:, 1]
        e = edge_feat * g.edge_mask[:, None].astype(np.float64)
        z = np.concatenate([h[src], h[dst], e], axis=1)
        gate = 1.0 / (1.0 + np.exp(-(z @ conv.w_f.data + conv.b_f.data)))
        core = np.logaddexp(0.0, z @ conv.w_s.data + conv.b_s.data)
        agg = np.zeros_like(h)
        np.add.at(agg, src, gate * core)
        h = h + agg
    out = np.zeros((n_graphs, h.shape[1]))
    for gi in range(n_graphs):
        nodes = np.where(seg == gi)[0]
        active = nodes[g.node_mask[nodes] == 1]
        pick = active if active.size else nodes
        out[gi] = h[pick].mean(axis=0)
    return out


class TestModelConfig:
    def test_defaults(self):
        cfg = ModelConfig()
        assert (cfg.hidden_dim, cfg.n_conv, cfg.proj_dim) == (64, 3, 128)
        assert (cfg.head_hidden, cfg.edge_feat_dim) == (64, 41)

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(hidden_dim=0)
        with pytest.raises(ValueError):
            ModelConfig(n_conv=-1)


class TestInitParams:
    def test_shapes(self):
        p = init_params(SMALL, np.random.default_rng(0))
        assert p.elem_embed.shape == (100, 5)
        assert len(p.convs) == 2
        z_dim = 2 * 5 + 41
        assert p.convs[0].w_f.shape == (z_dim, 5)
        assert p.convs[0].b_f.shape == (5,)
        assert p.projector.w1.shape == (5, 4)
        assert p.projector.w2.shape == (4, 4)
        assert p.head.w1.shape == (5, 3)
        assert p.head.w2.shape == (3, 1)

    def test_uniform_bounds_and_zero_biases(self):
        p = init_params(SMALL, np.random.default_rng(1))
        assert np.abs(p.elem_embed.data).max() <= 1.0 / np.sqrt(100)
        z_dim = 2 * 5 + 41
        assert np.abs(p.convs[0].w_f.data).max() <= 1.0 / np.sqrt(z_dim)
        assert np.abs(p.projector.w1.data).max() <= 1.0 / np.sqrt(5)
        for conv in p.convs:
            npt.assert_array_equal(conv.b_f.data, np.zeros(5))
            npt.assert_array_equal(conv.b_s.data, np.zeros(5))
        npt.assert_array_equal(p.head.b2.data, np.zeros(1))

    def test_deterministic(self):
        a = init_params(SMALL, np.random.default_rng(3))
        b = init_params(SMALL, np.random.default_rng(3))
        for (na, ta), (nb, tb) in zip(a.named_tensors(), b.named_tensors()):
            assert na == nb
            npt.assert_array_equal(ta.data, tb.data)

    def test_encoder_draws_unaffected_by_heads(self):
        # same stream: skipping projector/head must not disturb encoder draws
        full = init_params(SMALL, np.random.default_rng(5))
        bare = init_params(SMALL, np.random.default_rng(5),
                           with_projector=False, with_head=False)
        assert bare.projector is None and bare.head is None
        npt.assert_array_equal(full.elem_embed.data, bare.elem_embed.data)
        for ca, cb in zip(full.convs, bare.convs):
            npt.assert_array_equal(ca.w_f.data, cb.w_f.data)
            npt.assert_array_equal(ca.w_s.data, cb.w_s.data)

    def test_named_tensor_order(self):
        p = init_params(SMALL, np.random.default_rng(0))
        names = [n for n, _ in p.named_tensors()]
        assert names[:5] == ["encoder.elem_embed", "encoder.conv0.w_f",
                             "encoder.conv0.b_f", "encoder.conv0.w_s",
                             "encoder.conv0.b_s"]
        assert names[-4:] == ["head.w1", "head.b1", "head.w2", "head.b2"]
        assert p.encoder_tensor_names() == names[:9]

    def test_layout_names_shapes_and_draws(self):
        # the checkpoint layout, written out: changing it breaks every saved model
        z = 2 * 5 + 41
        layout = [
            ("encoder.elem_embed", (100, 5)),
            ("encoder.conv0.w_f", (z, 5)), ("encoder.conv0.b_f", (5,)),
            ("encoder.conv0.w_s", (z, 5)), ("encoder.conv0.b_s", (5,)),
            ("encoder.conv1.w_f", (z, 5)), ("encoder.conv1.b_f", (5,)),
            ("encoder.conv1.w_s", (z, 5)), ("encoder.conv1.b_s", (5,)),
            ("projector.w1", (5, 4)), ("projector.b1", (4,)),
            ("projector.w2", (4, 4)), ("projector.b2", (4,)),
            ("head.w1", (5, 3)), ("head.b1", (3,)),
            ("head.w2", (3, 1)), ("head.b2", (1,)),
        ]
        p = init_params(SMALL, np.random.default_rng(7))
        assert [(n, t.shape) for n, t in p.named_tensors()] == layout
        rng = np.random.default_rng(7)
        for (name, shape), (_, t) in zip(layout, p.named_tensors()):
            if len(shape) == 1:
                want = np.zeros(shape)
            else:
                limit = 1.0 / np.sqrt(shape[0])  # fan-in
                want = rng.uniform(-limit, limit, size=shape)
            npt.assert_array_equal(t.data, want, err_msg=name)


class TestConvLayer:
    def test_zero_weight_additive_constant(self):
        # zeroed gate/filter weights: every edge contributes
        # sigmoid(0) * softplus(0) = 0.5 * ln 2 to its source node
        p = init_params(SMALL, np.random.default_rng(0))
        for conv in p.convs:
            for t in (conv.w_f, conv.w_s):
                t.data = np.zeros_like(t.data)
        g = single_atom_graph()  # 6 self-edges in a unit cube at cutoff 1.1
        assert g.n_edges == 6
        h0 = p.elem_embed.data[g.node_elem - 1]
        latent = encode(p, g)
        expected = h0 + 2 * 6 * 0.5 * np.log(2.0)  # two conv layers
        npt.assert_allclose(latent.data, expected, atol=1e-12)

    def test_no_edges_is_identity(self):
        p = init_params(SMALL, np.random.default_rng(1))
        g = single_atom_graph(a=5.0, cutoff=1.0)
        assert g.n_edges == 0
        h0 = p.elem_embed.data[g.node_elem - 1]
        npt.assert_array_equal(encode(p, g).data, h0)

    def test_latent_matches_manual_forward(self):
        rng = np.random.default_rng(7)
        p = init_params(SMALL, rng)
        for _ in range(5):
            g = random_graph(rng, n=int(rng.integers(1, 6)))
            npt.assert_allclose(encode(p, g).data, manual_encode(p, g),
                                rtol=1e-12, atol=1e-12)

    def test_masked_batch_matches_manual_forward(self):
        rng = np.random.default_rng(8)
        cfg = ModelConfig(hidden_dim=5, n_conv=3, proj_dim=4, head_hidden=3, edge_feat_dim=41)
        p = init_params(cfg, rng)
        graphs = [random_graph(rng, n=int(rng.integers(1, 6))) for _ in range(3)]
        merged, seg = merge_graphs(graphs)
        # drop edges and nodes at random and shuffle the edge rows, so
        # neither src nor dst is sorted
        order = rng.permutation(merged.n_edges)
        g = CrystalGraph(node_elem=merged.node_elem,
                         node_mask=(rng.uniform(size=merged.n_nodes) < 0.8).astype(np.int8),
                         edges=merged.edges[order], dist=merged.dist[order],
                         edge_mask=(rng.uniform(size=merged.n_edges) < 0.7).astype(np.int8),
                         basis=merged.basis)
        npt.assert_allclose(encode(p, g, seg=seg, n_graphs=3).data,
                            manual_encode(p, g, seg=seg, n_graphs=3),
                            rtol=1e-12, atol=1e-12)

    def test_one_tape_record_per_conv_layer(self):
        # guards against the layer falling back to a chain of small ops:
        # embedding gather and mask, one record per conv, readout scale and sum
        rng = np.random.default_rng(9)
        cfg = ModelConfig(hidden_dim=5, n_conv=3, proj_dim=4, head_hidden=3, edge_feat_dim=41)
        p = init_params(cfg, rng)
        g = random_graph(rng)
        assert g.n_edges > 0
        with Tape() as tape:
            encode(p, g)
        assert len(tape._records) == cfg.n_conv + 4

    def test_taped_encode_holds_three_floats_per_edge_and_width(self):
        # a conv record keeps gate, core and sigmoid(pre_s), 3 H floats per
        # edge; the rest is the one masked feature block, the stacked
        # weights and node rows.  Keeping the (E, 2H) pre-activations, or
        # a masked feature copy per layer, pushes this past 4.25 H.
        cfg = ModelConfig()
        p = init_params(cfg, np.random.default_rng(10))
        graphs = [build_graph(e.structure, build_neighbor_list(e.structure, NeighborConfig()))
                  for e in gen_toy_dataset(16, seed=0).entries]
        g, seg = merge_graphs(graphs)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with Tape() as tape:
                latent = encode(p, g, seg, len(graphs))
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(tape._records) == cfg.n_conv + 4 and latent.requires_grad
        assert held / (g.n_edges * cfg.n_conv) < 4.25 * 8 * cfg.hidden_dim


class TestMaskSemantics:
    def test_masked_edge_equals_zeroed_feature(self):
        rng = np.random.default_rng(11)
        p = init_params(SMALL, rng)
        g = random_graph(rng)
        mask = np.ones(g.n_edges, dtype=np.int8)
        mask[:2] = 0
        ga = with_edge_mask(g, mask)
        feat = g.edge_feat.copy()
        feat[:2] = 0.0
        # features come from distances, so the zeroed rows go to the dense forward pass
        npt.assert_allclose(encode(p, ga).data, manual_encode(p, g, edge_feat=feat),
                            rtol=1e-12, atol=1e-12)

    def test_masked_node_gets_zero_initial_embedding(self):
        rng = np.random.default_rng(12)
        p = init_params(SMALL, rng)
        g = random_graph(rng)
        mask = np.ones(g.n_nodes, dtype=np.int8)
        mask[0] = 0
        gm = with_node_mask(g, mask)
        npt.assert_allclose(encode(p, gm).data, manual_encode(p, gm),
                            rtol=1e-12, atol=1e-12)

    def test_all_masked_falls_back_to_all_nodes(self):
        rng = np.random.default_rng(13)
        p = init_params(SMALL, rng)
        g = random_graph(rng)
        gm = with_node_mask(g, np.zeros(g.n_nodes, dtype=np.int8))
        got = encode(p, gm).data
        npt.assert_allclose(got, manual_encode(p, gm), rtol=1e-12, atol=1e-12)
        assert np.isfinite(got).all()


class TestBatching:
    def test_batched_equals_individual(self):
        rng = np.random.default_rng(21)
        p = init_params(SMALL, rng)
        graphs = [random_graph(rng, n=int(rng.integers(1, 6))) for _ in range(4)]
        merged, seg = merge_graphs(graphs)
        batched = encode(p, merged, seg=seg, n_graphs=4).data
        singles = np.vstack([encode(p, g).data for g in graphs])
        npt.assert_allclose(batched, singles, rtol=1e-12, atol=1e-12)

    def test_empty_graph_raises(self):
        p = init_params(SMALL, np.random.default_rng(0))
        g = CrystalGraph(node_elem=np.zeros(0, dtype=np.int64),
                         node_mask=np.zeros(0, dtype=np.int8),
                         edges=np.zeros((0, 2), dtype=np.int64),
                         dist=np.zeros(0),
                         edge_mask=np.zeros(0, dtype=np.int8),
                         basis=GaussianBasis())
        with pytest.raises(EmptyGraph):
            encode(p, g)

    def test_bad_segment_shape(self):
        p = init_params(SMALL, np.random.default_rng(0))
        g = single_atom_graph()
        with pytest.raises(ShapeMismatch):
            encode(p, g, seg=np.zeros(3, dtype=np.int64), n_graphs=2)


class TestHeads:
    def test_project_matches_manual(self):
        p = init_params(SMALL, np.random.default_rng(31))
        x = np.random.default_rng(32).normal(size=(3, 5))
        got = project(p, Tensor(x)).data
        pr = p.projector
        hidden = np.logaddexp(0.0, x @ pr.w1.data + pr.b1.data)
        npt.assert_allclose(got, hidden @ pr.w2.data + pr.b2.data, rtol=1e-12)

    def test_regress_matches_manual(self):
        p = init_params(SMALL, np.random.default_rng(33))
        x = np.random.default_rng(34).normal(size=(2, 5))
        got = regress(p, Tensor(x)).data
        hd = p.head
        hidden = np.logaddexp(0.0, x @ hd.w1.data + hd.b1.data)
        npt.assert_allclose(got, hidden @ hd.w2.data + hd.b2.data, rtol=1e-12)
        assert got.shape == (2, 1)

    def test_missing_heads_raise(self):
        p = init_params(SMALL, np.random.default_rng(35),
                        with_projector=False, with_head=False)
        with pytest.raises(ShapeMismatch):
            project(p, Tensor(np.zeros((1, 5))))
        with pytest.raises(ShapeMismatch):
            regress(p, Tensor(np.zeros((1, 5))))

    def test_gradients_reach_all_params(self):
        rng = np.random.default_rng(36)
        p = init_params(SMALL, rng, with_projector=False)
        g = random_graph(rng)
        p.zero_grad()
        with Tape() as tape:
            loss = sum_all(regress(p, encode(p, g)))
            tape.backward(loss)
        for name, t in p.named_tensors():
            assert t.grad is not None, name


class TestCheckpoints:
    def test_round_trip_bitwise(self, tmp_path):
        p = init_params(SMALL, np.random.default_rng(41))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, p, extra={"label_mean": np.array(1.5),
                                        "label_std": np.array(0.25)})
        cfg, arrays = load_checkpoint(path)
        assert cfg == SMALL
        for name, t in p.named_tensors():
            npt.assert_array_equal(arrays[name], t.data)
        assert float(arrays["label_mean"]) == 1.5
        assert float(arrays["label_std"]) == 0.25

    def test_save_is_deterministic(self, tmp_path):
        p = init_params(SMALL, np.random.default_rng(42))
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(a, p)
        save_checkpoint(b, p)
        assert a.read_bytes() == b.read_bytes()

    def test_interrupted_save_keeps_the_earlier_checkpoint(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_params(SMALL, np.random.default_rng(45)))
        earlier = path.read_bytes()
        p = init_params(SMALL, np.random.default_rng(46))
        # the header and the first arrays are written before this one fails
        p.named_tensors()[-1][1].data = np.array(["not a number"])
        with pytest.raises(ValueError):
            save_checkpoint(path, p)
        assert path.read_bytes() == earlier
        assert sorted(q.name for q in tmp_path.iterdir()) == ["model.ckpt"]

    def test_params_from_arrays_round_trip(self, tmp_path):
        p = init_params(SMALL, np.random.default_rng(43))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, p)
        cfg, arrays = load_checkpoint(path)
        q = params_from_arrays(cfg, arrays, with_projector=True, with_head=True)
        for (na, ta), (nb, tb) in zip(p.named_tensors(), q.named_tensors()):
            assert na == nb
            npt.assert_array_equal(ta.data, tb.data)

    def test_encoder_only_checkpoint_has_no_head(self, tmp_path):
        p = init_params(SMALL, np.random.default_rng(44), with_head=False)
        path = tmp_path / "enc.ckpt"
        save_checkpoint(path, p)
        _, arrays = load_checkpoint(path)
        assert not any(name.startswith("head.") for name in arrays)
        with pytest.raises(CorruptCheckpoint):
            params_from_arrays(SMALL, arrays, with_projector=True, with_head=True)

    def test_misshapen_array_is_rejected_at_load(self, tmp_path):
        p = init_params(SMALL, np.random.default_rng(49))
        p.convs[1].b_f.data = np.zeros(7)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, p)
        cfg, arrays = load_checkpoint(path)
        with pytest.raises(CorruptCheckpoint,
                           match=r"'encoder\.conv1\.b_f' has shape \(7,\), expected \(5,\)"):
            params_from_arrays(cfg, arrays, with_projector=True, with_head=True)

    def test_bad_magic(self, tmp_path):
        p = init_params(SMALL, np.random.default_rng(45))
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, p)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"ZZZZ"
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptCheckpoint):
            load_checkpoint(path)

    def test_truncated(self, tmp_path):
        p = init_params(SMALL, np.random.default_rng(46))
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, p)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CorruptCheckpoint):
            load_checkpoint(path)

    def test_trailing_garbage(self, tmp_path):
        p = init_params(SMALL, np.random.default_rng(47))
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, p)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CorruptCheckpoint):
            load_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        p = init_params(SMALL, np.random.default_rng(48))
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, p)
        raw = bytearray(path.read_bytes())
        raw[4] = 99  # little-endian u32 version field
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptCheckpoint):
            load_checkpoint(path)


class TestEncoderTransfer:
    def test_load_encoder_weights_bitwise(self, tmp_path):
        donor = init_params(SMALL, np.random.default_rng(51), with_head=False)
        path = tmp_path / "enc.ckpt"
        save_checkpoint(path, donor)
        cfg, arrays = load_checkpoint(path)
        target = init_params(SMALL, np.random.default_rng(99), with_projector=False)
        head_before = target.head.w1.data.copy()
        check_encoder_compatible(cfg, target.config)
        load_encoder_weights(target, arrays)
        npt.assert_array_equal(target.elem_embed.data, donor.elem_embed.data)
        for ca, cb in zip(target.convs, donor.convs):
            npt.assert_array_equal(ca.w_f.data, cb.w_f.data)
            npt.assert_array_equal(ca.b_s.data, cb.b_s.data)
        npt.assert_array_equal(target.head.w1.data, head_before)

    def test_incompatible_config(self):
        other = ModelConfig(hidden_dim=6, n_conv=2, proj_dim=4, head_hidden=3,
                            edge_feat_dim=41)
        with pytest.raises(ConfigMismatch):
            check_encoder_compatible(SMALL, other)

    def test_shape_mismatch_on_load(self):
        target = init_params(SMALL, np.random.default_rng(52), with_projector=False)
        arrays = {name: np.zeros((2, 2)) for name in target.encoder_tensor_names()}
        with pytest.raises(ConfigMismatch):
            load_encoder_weights(target, arrays)

    def test_missing_array_on_load(self):
        target = init_params(SMALL, np.random.default_rng(53), with_projector=False)
        with pytest.raises(CorruptCheckpoint):
            load_encoder_weights(target, {})
