import contextlib
import dataclasses
import struct
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import numpy.testing as npt
import pytest

from xtalssl import autodiff
from xtalssl import model as model_module
from xtalssl.autodiff import (
    ShapeMismatch,
    Tape,
    Tensor,
    _EdgePlan,
    gated_conv,
    scaled_gather,
    scaled_segment_sum,
)
from xtalssl.featurize import (
    CrystalGraph,
    GaussianBasis,
    build_graph,
    merge_graphs,
    with_edge_mask,
    with_node_mask,
)
from xtalssl.geometry import NeighborConfig, build_neighbor_list
from xtalssl.loss import mse_loss
from xtalssl.model import (
    ConfigMismatch,
    CorruptCheckpoint,
    EmptyGraph,
    ModelConfig,
    _readout_weights,
    copy_encoder,
    copy_params,
    encode,
    init_params,
    load_checkpoint,
    load_encoder,
    load_model,
    project,
    regress,
    save_checkpoint,
)
from xtalssl.pipeline import Adam
from xtalssl.structure_io import CrystalStructure
from xtalssl.toydata import gen_toy_dataset

from oracles import (
    add,
    chain_scaled_gather,
    chain_scaled_segment_sum,
    chain_softplus_mlp,
    mul,
    sum_all,
)

SMALL = ModelConfig(hidden_dim=5, n_conv=2, proj_dim=4, head_hidden=3, edge_feat_dim=41)
TINY = np.finfo(np.float64).tiny  # DBL_MIN


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

    def test_no_edges_latent_is_the_embedding_readout_and_conv_gradients_are_zero(self):
        # the layers run on zero edges: the latent is bit for bit the readout
        # of the masked embedding, and every conv weight gets a zero gradient
        p = init_params(SMALL, np.random.default_rng(2))
        s = CrystalStructure(lattice=6.0 * np.eye(3), atomic_numbers=[8, 11, 17],
                             frac_coords=[[0.0, 0.0, 0.0], [0.5, 0.5, 0.5], [0.0, 0.5, 0.0]])
        one = build_graph(s, build_neighbor_list(s, NeighborConfig(cutoff=1.0, max_neighbors=12)))
        merged, seg = merge_graphs([one, single_atom_graph(a=5.0, cutoff=1.0)])
        g = with_node_mask(merged, np.array([1, 0, 1, 1], dtype=np.int8))
        assert g.n_edges == 0
        mask = g.node_mask.astype(np.float64)
        want = scaled_segment_sum(scaled_gather(p.elem_embed, g.node_elem - 1, mask),
                                  _readout_weights(g.node_mask, seg, 2), seg, 2).data
        with Tape() as tape:
            latent = encode(p, g, seg=seg, n_graphs=2)
            tape.backward(sum_all(latent))
        assert latent.data.tobytes() == want.tobytes()
        for conv in p.convs:
            for t in (conv.w_f, conv.b_f, conv.w_s, conv.b_s):
                assert t.grad is not None and not t.grad.any()
        assert p.elem_embed.grad.any()

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
        # the masked embedding, one record per conv, the masked-mean readout
        rng = np.random.default_rng(9)
        cfg = ModelConfig(hidden_dim=5, n_conv=3, proj_dim=4, head_hidden=3, edge_feat_dim=41)
        p = init_params(cfg, rng)
        g = random_graph(rng)
        assert g.n_edges > 0
        with Tape() as tape:
            encode(p, g)
        assert len(tape._records) == cfg.n_conv + 2

    def test_one_tape_record_per_head(self):
        # guards against either two-layer MLP falling back to a chain of small ops
        p = init_params(SMALL, np.random.default_rng(14))
        latent = Tensor(np.random.default_rng(15).normal(size=(3, SMALL.hidden_dim)))
        for head in (project, regress):
            with Tape() as tape:
                head(p, latent)
            assert len(tape._records) == 1

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
        assert len(tape._records) == cfg.n_conv + 2 and latent.requires_grad
        assert held / (g.n_edges * cfg.n_conv) < 4.25 * 8 * cfg.hidden_dim

    def test_encode_lays_the_edges_out_once_and_dst_only_under_a_tape(self, monkeypatch):
        # every layer reads one plan; the dst layouts serve only the backward
        main, plans, built_on = threading.current_thread(), [], {}
        plan_init, layout_init = autodiff._EdgePlan.__init__, autodiff._SegmentLayout.__init__

        def counted_plan(plan, *args, **kwargs):
            plans.append(plan)
            plan_init(plan, *args, **kwargs)

        def counted_layout(layout, *args):
            built_on[layout] = threading.current_thread() is main
            layout_init(layout, *args)

        monkeypatch.setattr(autodiff._EdgePlan, "__init__", counted_plan)
        monkeypatch.setattr(autodiff._SegmentLayout, "__init__", counted_layout)
        cfg = ModelConfig(n_conv=3)
        p = init_params(cfg, np.random.default_rng(11))
        graphs = [build_graph(e.structure, build_neighbor_list(e.structure, NeighborConfig()))
                  for e in gen_toy_dataset(4, seed=2).entries]
        g, seg = merge_graphs(graphs)
        with ThreadPoolExecutor(max_workers=1) as worker:
            for taped, with_worker in ((True, False), (False, False), (True, True), (False, True)):
                del plans[:]
                built_on.clear()
                with Tape() if taped else contextlib.nullcontext():
                    encode(p, g, seg, len(graphs), worker if with_worker else None)
                assert len(plans) == 1
                blocks = plans[0].layouts
                assert len(blocks) == (2 if with_worker else 1)
                assert all((dst is not None) == taped for _, dst in blocks)
                # each block's layouts, and only they, built on the block's thread
                on_main = [[built_on.pop(lay) for lay in block if lay is not None]
                           for block in blocks]
                assert on_main == [[True] * (1 + taped), [False] * (1 + taped)][:len(blocks)]
                assert not built_on


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


def subnormal_count(a):
    return int(((a != 0) & (np.abs(a) < TINY)).sum())


def subnormal_cells():
    # a one-site cubic cell at a = 5.38 A: its 6 edges at 5.38 A and 6 at
    # 7.61 A each reach one center so far off that the feature is subnormal
    graphs = [single_atom_graph(a=5.38, z=z, cutoff=8.0) for z in (29, 11)]
    assert [subnormal_count(g.edge_feat) for g in graphs] == [12, 12]
    merged, seg = merge_graphs(graphs)
    mask = np.ones(merged.n_edges, dtype=np.int8)
    mask[[0, 13]] = 0
    return with_edge_mask(merged, mask), seg


class TestSubnormalTails:
    def test_every_conv_layer_reads_no_subnormal_edge_feature(self, monkeypatch):
        seen = []

        def spy(h, plan, edge_feat, *rest):
            seen.append(subnormal_count(edge_feat))
            return gated_conv(h, plan, edge_feat, *rest)

        monkeypatch.setattr(model_module, "gated_conv", spy)
        g, seg = subnormal_cells()
        encode(init_params(SMALL, np.random.default_rng(44)), g, seg, 2)
        assert seen == [0] * SMALL.n_conv

    def test_outputs_and_adam_step_equal_the_unflushed_path(self):
        # the unflushed path feeds gated_conv the masked expansion as it is:
        # latent, loss and one Adam step are bitwise equal; a gradient entry
        # may differ only where both sides are below 1e-290
        g, seg = subnormal_cells()
        target = np.array([[0.3], [-1.2]])

        def unflushed_encode(p):
            h = scaled_gather(p.elem_embed, g.node_elem - 1, g.node_mask.astype(np.float64))
            feat = g.edge_feat * g.edge_mask[:, None]
            plan = _EdgePlan(g.edges[:, 0], g.edges[:, 1], g.n_nodes)
            for conv in p.convs:
                h = gated_conv(h, plan, feat, conv.w_f, conv.b_f, conv.w_s, conv.b_s)
            return scaled_segment_sum(h, _readout_weights(g.node_mask, seg, 2), seg, 2)

        def run(flushed):
            p = init_params(SMALL, np.random.default_rng(45), with_projector=False)
            with Tape() as tape:
                latent = encode(p, g, seg, 2) if flushed else unflushed_encode(p)
                loss = mse_loss(regress(p, latent), target)
                tape.backward(loss)
            grads = [t.grad for _, t in p.named_tensors()]
            Adam(p.trainable(), lr=1e-3).step()
            return latent.data, loss.data, grads, [t.data for _, t in p.named_tensors()]

        latent, loss, grads, weights = run(True)
        want_latent, want_loss, want_grads, want_weights = run(False)
        assert latent.tobytes() == want_latent.tobytes()
        assert loss.tobytes() == want_loss.tobytes()
        for a, b in zip(grads, want_grads, strict=True):
            assert ((a == b) | ((np.abs(a) < 1e-290) & (np.abs(b) < 1e-290))).all()
        # the unflushed path does carry subnormal gradient entries; this one none
        assert sum(map(subnormal_count, want_grads)) > 0
        assert sum(map(subnormal_count, grads)) == 0
        for a, b in zip(weights, want_weights, strict=True):
            assert a.tobytes() == b.tobytes()
        assert subnormal_count(g.edge_feat) == 24  # encode flushed its own copy only


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

    def test_encode_and_heads_equal_the_op_chain_bitwise(self):
        # the encoder and both heads as the chains of small tape ops they
        # once recorded (tests/oracles.py): same outputs and gradients
        def chain_encode(p, g, seg, n_graphs):
            h = chain_scaled_gather(p.elem_embed, g.node_elem - 1, g.node_mask.astype(np.float64))
            feat = g.edge_feat * g.edge_mask[:, None]
            plan = _EdgePlan(g.edges[:, 0], g.edges[:, 1], g.n_nodes)
            for conv in p.convs:
                h = gated_conv(h, plan, feat, conv.w_f, conv.b_f, conv.w_s, conv.b_s)
            return chain_scaled_segment_sum(h, _readout_weights(g.node_mask, seg, n_graphs),
                                            seg, n_graphs)

        def chain_mlp(mlp, x):
            return chain_softplus_mlp(x, mlp.w1, mlp.b1, mlp.w2, mlp.b2)

        rng = np.random.default_rng(37)
        merged, seg = merge_graphs([random_graph(rng, n=int(rng.integers(1, 6)))
                                    for _ in range(4)])
        edge_mask = (rng.uniform(size=merged.n_edges) < 0.8).astype(np.int8)
        node_mask = (rng.uniform(size=merged.n_nodes) < 0.7).astype(np.int8)
        node_mask[seg == 0] = 0  # graph 0 falls back to the mean over all its nodes
        g = with_node_mask(with_edge_mask(merged, edge_mask), node_mask)
        w_proj, w_pred = rng.normal(size=(4, SMALL.proj_dim)), rng.normal(size=(4, 1))

        def run(chained):
            p = init_params(SMALL, np.random.default_rng(38))
            with Tape() as tape:
                if chained:
                    latent = chain_encode(p, g, seg, 4)
                    z, pred = chain_mlp(p.projector, latent), chain_mlp(p.head, latent)
                else:
                    latent = encode(p, g, seg, 4)
                    z, pred = project(p, latent), regress(p, latent)
                tape.backward(add(sum_all(mul(z, Tensor(w_proj))),
                                  sum_all(mul(pred, Tensor(w_pred)))))
            return [latent.data, z.data, pred.data] + [t.grad for _, t in p.named_tensors()]

        for a, b in zip(run(False), run(True), strict=True):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestCheckpoints:
    def test_round_trip_bitwise(self, tmp_path):
        p = init_params(SMALL, np.random.default_rng(41))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, p, label_stats=(1.5, 0.25))
        cfg, arrays = load_checkpoint(path)
        assert cfg == SMALL
        for name, t in p.named_tensors():
            npt.assert_array_equal(arrays[name], t.data)
        assert list(arrays)[-2:] == ["label_mean", "label_std"]
        assert arrays["label_mean"].shape == arrays["label_std"].shape == ()
        assert load_model(path)[1] == (1.5, 0.25)

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

    def test_load_model_round_trip(self, tmp_path):
        p = init_params(SMALL, np.random.default_rng(43))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, p)
        q, label_stats = load_model(path)
        assert q.config == SMALL and label_stats is None
        assert q.projector is not None and q.head is not None
        for (na, ta), (nb, tb) in zip(p.named_tensors(), q.named_tensors(), strict=True):
            assert na == nb
            assert ta.data.tobytes() == tb.data.tobytes()

    def test_encoder_only_checkpoint_has_no_head(self, tmp_path):
        p = init_params(SMALL, np.random.default_rng(44), with_head=False)
        path = tmp_path / "enc.ckpt"
        save_checkpoint(path, p)
        _, arrays = load_checkpoint(path)
        assert not any(name.startswith("head.") for name in arrays)
        q, label_stats = load_model(path)
        assert q.head is None and q.projector is not None and label_stats is None

    def test_misshapen_array_is_rejected_at_load(self, tmp_path):
        p = init_params(SMALL, np.random.default_rng(49))
        p.convs[1].b_f.data = np.zeros(7)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, p)
        with pytest.raises(CorruptCheckpoint, match=r"m\.ckpt: checkpoint array "
                           r"'encoder\.conv1\.b_f' has shape \(7,\), expected \(5,\)"):
            load_model(path)

    @pytest.mark.parametrize("name", ["encoder.conv0.b_s", "head.w2"])
    def test_a_missing_array_is_named(self, tmp_path, name):
        p = init_params(SMALL, np.random.default_rng(54))
        del p._named[name]
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, p)
        with pytest.raises(CorruptCheckpoint, match=f"m.ckpt: checkpoint missing array '{name}'"):
            load_model(path)

    @pytest.mark.parametrize("label_stats, message", [
        ((np.zeros(2), 1.0), r"array 'label_mean' has shape \(2,\), expected \(\)"),
        ((0.0, np.ones((1, 1))), r"array 'label_std' has shape \(1, 1\), expected \(\)"),
        ((0.0,), "missing array 'label_std'"),
        ((np.inf, 1.0), "must be finite and label_std > 0, got inf and 1.0"),
        ((0.0, -1.0), "must be finite and label_std > 0, got 0.0 and -1.0"),
    ], ids=["mean-(2,)", "std-(1,1)", "no-std", "inf-mean", "negative-std"])
    def test_label_statistics_are_two_finite_scalars(self, tmp_path, label_stats, message):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, init_params(SMALL, np.random.default_rng(55)), label_stats)
        with pytest.raises(CorruptCheckpoint, match=f"m.ckpt: .*{message}"):
            load_model(path)

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

    @pytest.mark.parametrize("shape, message", [
        ((2**32, 2**32), "truncated checkpoint"),  # the element count overflows 64 bits
        ((2**63,), "truncated checkpoint"),  # past numpy's largest dimension
        ((0, 2**63), r"array 'encoder.elem_embed' has shape \(0, 9223372036854775808\)"),
    ], ids=["2^32x2^32", "2^63", "0x2^63"])
    def test_a_shape_the_file_cannot_hold_is_corrupt(self, tmp_path, shape, message):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, init_params(SMALL, np.random.default_rng(50)))
        raw = path.read_bytes()
        # the first array's rank and shape follow the 52-byte header and name
        path.write_bytes(raw[:52] + struct.pack(f"<B{len(shape)}Q", len(shape), *shape)
                         + raw[52 + 1 + 8 * 2:])
        with pytest.raises(CorruptCheckpoint, match=f"m.ckpt: {message}"):
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
    def test_load_encoder_bitwise(self, tmp_path):
        donor = init_params(SMALL, np.random.default_rng(51), with_head=False)
        path = tmp_path / "enc.ckpt"
        save_checkpoint(path, donor)
        target = init_params(SMALL, np.random.default_rng(99), with_projector=False)
        head_before = target.head.w1.data.copy()
        load_encoder(target, path)
        for name in target.encoder_tensor_names():
            assert target._named[name].data.tobytes() == donor._named[name].data.tobytes(), name
        npt.assert_array_equal(target.head.w1.data, head_before)

    @pytest.mark.parametrize("field, value", [("hidden_dim", 6), ("n_conv", 3),
                                              ("edge_feat_dim", 40)])
    def test_incompatible_config_names_the_checkpoint(self, tmp_path, field, value):
        other = dataclasses.replace(SMALL, **{field: value})
        path = tmp_path / "enc.ckpt"
        save_checkpoint(path, init_params(other, np.random.default_rng(52), with_head=False))
        target = init_params(SMALL, np.random.default_rng(53), with_projector=False)
        with pytest.raises(ConfigMismatch,
                           match=f"enc.ckpt: {field} differs: {getattr(SMALL, field)} vs {value}"):
            load_encoder(target, path)

    def test_other_projector_and_head_widths_load(self, tmp_path):
        other = dataclasses.replace(SMALL, proj_dim=3, head_hidden=2)
        donor = init_params(other, np.random.default_rng(56))
        path = tmp_path / "enc.ckpt"
        save_checkpoint(path, donor, label_stats=(0.0, 1.0))
        target = init_params(SMALL, np.random.default_rng(57), with_projector=False)
        load_encoder(target, path)
        assert target.elem_embed.data.tobytes() == donor.elem_embed.data.tobytes()

    def test_copy_encoder_copies_bitwise_and_leaves_the_donor_alone(self):
        donor = init_params(SMALL, np.random.default_rng(58), with_head=False)
        target = init_params(SMALL, np.random.default_rng(59), with_projector=False)
        head_before = target.head.w1.data.copy()
        copy_encoder(target, donor, "pretrained model")
        for name in target.encoder_tensor_names():
            mine, theirs = target._named[name].data, donor._named[name].data
            assert mine.tobytes() == theirs.tobytes() and not np.shares_memory(mine, theirs)
        npt.assert_array_equal(target.head.w1.data, head_before)

    @pytest.mark.parametrize("field, value", [("hidden_dim", 6), ("n_conv", 3),
                                              ("edge_feat_dim", 40)])
    def test_copy_encoder_names_the_source_of_a_mismatch(self, field, value):
        donor = init_params(dataclasses.replace(SMALL, **{field: value}),
                            np.random.default_rng(60), with_head=False)
        target = init_params(SMALL, np.random.default_rng(61), with_projector=False)
        with pytest.raises(ConfigMismatch, match=f"^pretrain arm RP seed 2: {field} differs: "
                                                 f"{getattr(SMALL, field)} vs {value}$"):
            copy_encoder(target, donor, "pretrain arm RP seed 2")


class TestCopyParams:
    def test_new_tensors_over_copies_without_gradients(self):
        params = init_params(SMALL, np.random.default_rng(62))
        for t in params.trainable():
            t.grad = np.ones_like(t.data)
        copy = copy_params(params)
        assert [n for n, _ in copy.named_tensors()] == [n for n, _ in params.named_tensors()]
        for (_, mine), (_, theirs) in zip(copy.named_tensors(), params.named_tensors()):
            assert mine is not theirs and mine.grad is None and mine.requires_grad
            assert mine.data.tobytes() == theirs.data.tobytes()
            assert not np.shares_memory(mine.data, theirs.data)
        assert copy.config == params.config
        assert copy.projector is not None and copy.head is not None
