import contextlib
import dataclasses
import json
import os
import subprocess
import sys
import threading
import time
import warnings
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np
import numpy.testing as npt
import pytest

from xtalssl import augment, geometry, pipeline
from xtalssl.augment import AugmentConfig, make_views
from xtalssl.autodiff import Tape, Tensor, active_tape
from xtalssl.featurize import CrystalGraph, GaussianBasis, merge_graphs
from xtalssl.geometry import DegenerateCell, NeighborConfig, SingularLattice
from xtalssl.loss import BatchTooSmall, LossConfig, bt_loss_from_embeddings
from xtalssl.model import (
    ConfigMismatch,
    CorruptCheckpoint,
    EmptyGraph,
    ModelConfig,
    encode,
    init_params,
    load_checkpoint,
    project,
    regress,
    save_checkpoint,
)
from xtalssl.pipeline import (
    ABLATION_ARMS,
    Adam,
    AblationRow,
    FinetuneConfig,
    InvalidLabelStats,
    MissingGradient,
    NonFiniteLoss,
    PretrainConfig,
    RunReport,
    UnlabeledDataset,
    _AUGMENT,
    _INIT,
    _batches,
    _encode_halves,
    _fit,
    _twin_embeddings,
    ablation_csv,
    ablation_run,
    ablation_runs_csv,
    evaluate,
    export_embeddings,
    finetune,
    pretrain,
    rng_for,
)
from xtalssl.structure_io import (
    CrystalStructure,
    Dataset,
    DatasetEntry,
    EmptyDataset,
    SplitSpec,
    split_dataset,
)
from xtalssl.toydata import gen_toy_dataset

from oracles import mul, scale, sum_all

# small enough that every pipeline test stays in the sub-second range
BASIS = GaussianBasis(d_min=0.0, d_max=4.5, step=0.5)
NEIGHBOR = NeighborConfig(cutoff=4.5, max_neighbors=8)
TINY = ModelConfig(hidden_dim=4, n_conv=1, proj_dim=4, head_hidden=4,
                   edge_feat_dim=BASIS.n_centers)


def tiny_pcfg(**kw):
    base = dict(lr=1e-3, batch=4, epochs=1, val_fraction=0.0,
                neighbor=NEIGHBOR, basis=BASIS, seed=0)
    base.update(kw)
    return PretrainConfig(**base)


def tiny_fcfg(**kw):
    base = dict(lr=1e-2, batch=4, epochs=2, split=(0.6, 0.2, 0.2),
                neighbor=NEIGHBOR, basis=BASIS, seed=0)
    base.update(kw)
    return FinetuneConfig(**base)


class TestAdam:
    def test_first_step_magnitude(self):
        # m_hat = g, v_hat = g*g after bias correction, so the first step
        # is lr * sign(g) up to eps
        t = Tensor(np.zeros((1,)), requires_grad=True)
        t.grad = np.ones(1)
        opt = Adam([t], lr=0.1)
        opt.step()
        npt.assert_allclose(t.data, [-0.1], atol=1e-8)

    def test_matches_reference_two_steps(self):
        rng = np.random.default_rng(0)
        w0 = rng.normal(size=(3, 2))
        g1, g2 = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))

        t = Tensor(w0.copy(), requires_grad=True)
        opt = Adam([t], lr=0.05)
        t.grad = g1.copy()
        opt.step()
        t.grad = g2.copy()
        opt.step()

        # independent reference
        m = np.zeros_like(w0)
        v = np.zeros_like(w0)
        w = w0.copy()
        for k, g in enumerate((g1, g2), start=1):
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            m_hat = m / (1 - 0.9 ** k)
            v_hat = v / (1 - 0.999 ** k)
            w = w - 0.05 * m_hat / (np.sqrt(v_hat) + 1e-8)
        npt.assert_allclose(t.data, w, atol=1e-15)

    def test_zero_gradient_leaves_params(self):
        t = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        t.grad = np.zeros(2)
        opt = Adam([t], lr=0.5)
        opt.step()
        npt.assert_array_equal(t.data, [1.0, -2.0])
        assert opt.step_count == 1

    def test_missing_gradient(self):
        t = Tensor(np.zeros(2), requires_grad=True)
        opt = Adam([t], lr=0.1)
        with pytest.raises(MissingGradient):
            opt.step()

    def test_lr_zero_is_identity(self):
        t = Tensor(np.array([3.0]), requires_grad=True)
        t.grad = np.array([7.0])
        Adam([t], lr=0.0).step()
        npt.assert_array_equal(t.data, [3.0])


class TestSeedFanOut:
    def test_deterministic(self):
        a = rng_for(7, 1).uniform(size=4)
        b = rng_for(7, 1).uniform(size=4)
        npt.assert_array_equal(a, b)

    def test_purposes_independent(self):
        a = rng_for(7, 1).uniform(size=4)
        b = rng_for(7, 2).uniform(size=4)
        assert not np.array_equal(a, b)

    def test_seeds_independent(self):
        a = rng_for(7, 1).uniform(size=4)
        b = rng_for(8, 1).uniform(size=4)
        assert not np.array_equal(a, b)


class TestBatches:
    def test_trailing_batch_dropped_when_below_two(self):
        out = _batches(np.arange(5), batch=2, drop_below=2)
        assert [len(b) for b in out] == [2, 2]

    def test_trailing_batch_kept_at_threshold(self):
        out = _batches(np.arange(6), batch=4, drop_below=2)
        assert [len(b) for b in out] == [4, 2]

    def test_finetune_keeps_singletons(self):
        out = _batches(np.arange(5), batch=2, drop_below=1)
        assert [len(b) for b in out] == [2, 2, 1]


class TestConfigs:
    def test_pretrain_batch_minimum(self):
        with pytest.raises(ValueError):
            tiny_pcfg(batch=1)

    def test_val_fraction_range(self):
        with pytest.raises(ValueError):
            tiny_pcfg(val_fraction=1.0)
        with pytest.raises(ValueError):
            tiny_pcfg(val_fraction=-0.1)

    def test_finetune_split_sum(self):
        with pytest.raises(ValueError):
            tiny_fcfg(split=(0.5, 0.2, 0.2))

    def test_epochs_minimum(self):
        with pytest.raises(ValueError):
            tiny_pcfg(epochs=0)
        with pytest.raises(ValueError):
            tiny_fcfg(epochs=0)


class TestBasisWidth:
    def test_mismatch_is_named_before_any_neighbor_search(self, monkeypatch):
        wide = GaussianBasis(d_min=0.0, d_max=4.5, step=0.4)
        assert wide.n_centers != TINY.edge_feat_dim
        calls = []
        dense = geometry._pairs_within

        def counted(*args):
            calls.append(args)
            return dense(*args)

        monkeypatch.setattr(geometry, "_pairs_within", counted)
        data = gen_toy_dataset(6, seed=40)
        params = init_params(TINY, np.random.default_rng(0), with_projector=False)
        runs = [lambda: pretrain(data, TINY, tiny_pcfg(basis=wide)),
                lambda: finetune(data, TINY, tiny_fcfg(basis=wide)),
                lambda: evaluate(params, data, 0.0, 1.0, neighbor=NEIGHBOR, basis=wide),
                lambda: export_embeddings(params, data, neighbor=NEIGHBOR, basis=wide)]
        message = f"edge_feat_dim {TINY.edge_feat_dim} != basis n_centers {wide.n_centers}"
        for run in runs:
            with pytest.raises(ConfigMismatch, match=message):
                run()
        assert calls == []


class TestRunReport:
    def report(self, **kw):
        base = dict(kind="pretrain", config={"a": 1}, epochs=[{"epoch": 1}],
                    best_epoch=1, n_train=10, n_val=2)
        base.update(kw)
        return RunReport(**base)

    def test_wall_clock_not_serialized(self):
        r = self.report(wall_clock_seconds=12.5)
        payload = json.loads(r.to_json())
        assert "wall_clock_seconds" not in payload
        assert r.wall_clock_seconds == 12.5

    def test_optional_fields_omitted(self):
        payload = json.loads(self.report().to_json())
        assert "n_test" not in payload and "test_mae" not in payload
        payload = json.loads(self.report(n_test=3, test_mae=0.5).to_json())
        assert payload["n_test"] == 3

    def test_byte_identical_for_equal_content(self):
        a = self.report(wall_clock_seconds=1.0).to_json()
        b = self.report(wall_clock_seconds=99.0).to_json()
        assert a == b
        assert a.endswith("\n")


class TestPretrain:
    def test_runs_and_reports(self, tmp_path):
        data = gen_toy_dataset(8, seed=1)
        result = pretrain(data, TINY, tiny_pcfg(epochs=2), out_dir=tmp_path)
        assert len(result.report.epochs) == 2
        assert result.report.n_train == 8 and result.report.n_val == 0
        assert result.params.projector is not None
        assert result.params.head is None
        assert os.path.exists(result.final_path)
        assert os.path.exists(result.best_path)

    def test_no_validation_means_best_is_final(self, tmp_path):
        data = gen_toy_dataset(6, seed=2)
        result = pretrain(data, TINY, tiny_pcfg(epochs=2), out_dir=tmp_path)
        with open(result.final_path, "rb") as fh:
            final = fh.read()
        with open(result.best_path, "rb") as fh:
            best = fh.read()
        assert final == best
        assert result.report.best_epoch == 2

    def test_validation_split_carved_first(self, tmp_path):
        data = gen_toy_dataset(12, seed=3)
        result = pretrain(data, TINY, tiny_pcfg(val_fraction=0.2, epochs=2),
                          out_dir=tmp_path)
        assert result.report.n_val == 2
        assert result.report.n_train == 10
        assert all(e["val_loss"] is not None for e in result.report.epochs)

    def test_deterministic_checkpoints_and_report(self, tmp_path):
        data = gen_toy_dataset(8, seed=4)
        pcfg = tiny_pcfg(epochs=2, val_fraction=0.25, seed=11)
        ra = pretrain(data, TINY, pcfg, out_dir=tmp_path / "a")
        rb = pretrain(data, TINY, pcfg, out_dir=tmp_path / "b")
        with open(ra.final_path, "rb") as fh:
            fa = fh.read()
        with open(rb.final_path, "rb") as fh:
            fb = fh.read()
        assert fa == fb
        assert ra.report.to_json() == rb.report.to_json()

    def test_identical_views_zero_loss(self):
        # perturbation enabled with zero amplitude: both views equal the
        # base graph, so C is exactly the identity and the loss vanishes
        data = gen_toy_dataset(4, seed=5)
        pcfg = tiny_pcfg(
            augment=AugmentConfig(enable_perturb=True, max_displacement=0.0,
                                  enable_atom_mask=False, enable_edge_mask=False),
            loss=LossConfig(lam=0.0, eps=0.0),
        )
        result = pretrain(data, TINY, pcfg)
        assert result.report.epochs[0]["train_loss"] < 1e-9

    def test_empty_dataset(self):
        with pytest.raises(EmptyDataset):
            pretrain(Dataset(entries=(), kind="unlabeled"), TINY, tiny_pcfg())

    def test_too_few_for_a_batch(self):
        data = gen_toy_dataset(1, seed=6)
        with pytest.raises(BatchTooSmall):
            pretrain(data, TINY, tiny_pcfg())

    def test_config_echoed_in_report(self):
        data = gen_toy_dataset(4, seed=7)
        result = pretrain(data, TINY, tiny_pcfg())
        cfg = result.report.config
        assert cfg["model"]["hidden_dim"] == 4
        assert cfg["lr"] == pytest.approx(1e-3)
        assert cfg["augment"]["mask_fraction"] == pytest.approx(0.1)


class TestFinetune:
    def test_runs_and_reports(self, tmp_path):
        data = gen_toy_dataset(10, seed=8)
        result = finetune(data, TINY, tiny_fcfg(), out_dir=tmp_path)
        assert result.report.n_train == 6
        assert result.report.n_val == 2
        assert result.report.n_test == 2
        assert result.report.test_mae is not None
        assert result.params.head is not None and result.params.projector is None
        cfg, arrays = load_checkpoint(result.checkpoint_path)
        assert float(arrays["label_mean"]) == pytest.approx(result.label_mean)
        assert float(arrays["label_std"]) == pytest.approx(result.label_std)

    def test_unlabeled_rejected(self):
        labeled = gen_toy_dataset(4, seed=9)
        unlabeled = Dataset(
            entries=tuple(DatasetEntry(id=e.id, structure=e.structure)
                          for e in labeled.entries),
            kind="unlabeled")
        with pytest.raises(UnlabeledDataset):
            finetune(unlabeled, TINY, tiny_fcfg())

    def test_empty_train_split(self):
        data = gen_toy_dataset(2, seed=10)
        with pytest.raises(EmptyDataset):
            finetune(data, TINY, tiny_fcfg(split=(0.0, 0.5, 0.5)))

    def test_constant_labels_guard(self):
        base = gen_toy_dataset(8, seed=11)
        data = Dataset(
            entries=tuple(DatasetEntry(id=e.id, structure=e.structure, label=2.5)
                          for e in base.entries),
            kind="labeled")
        result = finetune(data, TINY, tiny_fcfg(epochs=1))
        assert result.label_std == 1.0
        assert result.label_mean == pytest.approx(2.5)
        assert np.isfinite(result.report.test_mae)

    def test_label_standardization_stats(self):
        data = gen_toy_dataset(10, seed=12)
        result = finetune(data, TINY, tiny_fcfg(epochs=1, seed=12))
        train_d, _, _ = split_dataset(data, SplitSpec((0.6, 0.2, 0.2), seed=12))
        y = np.array([e.label for e in train_d.entries])
        assert result.label_mean == pytest.approx(float(y.mean()), rel=1e-12)
        assert result.label_std == pytest.approx(float(y.std()), rel=1e-12)

    def test_deterministic(self, tmp_path):
        data = gen_toy_dataset(10, seed=13)
        fcfg = tiny_fcfg(seed=21)
        ra = finetune(data, TINY, fcfg, out_dir=tmp_path / "a")
        rb = finetune(data, TINY, fcfg, out_dir=tmp_path / "b")
        with open(ra.checkpoint_path, "rb") as fh:
            ba = fh.read()
        with open(rb.checkpoint_path, "rb") as fh:
            bb = fh.read()
        assert ba == bb
        assert ra.report.to_json() == rb.report.to_json()

    def test_transfer_contract_via_lr_zero(self, tmp_path):
        # lr=0 freezes training, exposing initialization through the public
        # path: encoder must match the donor checkpoint bitwise, and the
        # head must match the seed's init stream with or without a donor
        pre = pretrain(gen_toy_dataset(6, seed=14), TINY, tiny_pcfg(),
                       out_dir=tmp_path)
        data = gen_toy_dataset(10, seed=15)
        ft = finetune(data, TINY,
                      tiny_fcfg(lr=0.0, epochs=1, seed=33,
                                init_checkpoint=pre.final_path))
        for (name, t_ft) in ft.params.named_tensors():
            if name.startswith("encoder."):
                donor = dict(pre.params.named_tensors())[name]
                npt.assert_array_equal(t_ft.data, donor.data)
        expected = init_params(TINY, rng_for(33, _INIT),
                               with_projector=False, with_head=True)
        npt.assert_array_equal(ft.params.head.w1.data, expected.head.w1.data)
        npt.assert_array_equal(ft.params.head.w2.data, expected.head.w2.data)


    def test_misshapen_init_checkpoint_is_named(self, tmp_path):
        params = init_params(TINY, np.random.default_rng(0), with_projector=True, with_head=False)
        params.convs[0].w_s.data = np.zeros((3, 4))
        save_checkpoint(tmp_path / "donor.ckpt", params)
        fcfg = tiny_fcfg(epochs=1, init_checkpoint=str(tmp_path / "donor.ckpt"))
        with pytest.raises(CorruptCheckpoint,
                           match=r"donor\.ckpt: checkpoint array 'encoder\.conv0\.w_s'"):
            finetune(gen_toy_dataset(6, seed=15), TINY, fcfg)

class TestEdgelessBatches:
    """A batch without a single edge trains: each conv layer is the identity there."""

    def test_pretrain_with_no_edge_in_any_batch_leaves_the_convs_at_init(self):
        pcfg = tiny_pcfg(epochs=2, neighbor=NeighborConfig(cutoff=1.0, max_neighbors=8))
        data = Dataset(entries=tuple(DatasetEntry(id=e.id, structure=e.structure)
                                     for e in gen_toy_dataset(12, seed=0).entries),
                       kind="unlabeled")
        assert all(pipeline.entry_graph(e, pcfg.neighbor, BASIS).n_edges == 0 for e in data.entries)
        init = init_params(TINY, rng_for(pcfg.seed, _INIT), with_projector=True, with_head=False)
        result = pretrain(data, TINY, pcfg)
        # Adam steps by zero on zero gradients
        for conv, conv0 in zip(result.params.convs, init.convs):
            for f in dataclasses.fields(conv):
                assert getattr(conv, f.name).data.tobytes() == getattr(conv0, f.name).data.tobytes()
        assert result.params.elem_embed.data.tobytes() != init.elem_embed.data.tobytes()

    def test_finetune_with_a_one_cell_batch_that_has_no_edge(self):
        lone = CrystalStructure(lattice=9.0 * np.eye(3), atomic_numbers=[11],
                                frac_coords=[[0.0, 0.0, 0.0]])
        data = Dataset(entries=(DatasetEntry(id="lone", structure=lone, label=0.25),
                                *gen_toy_dataset(8, seed=0).entries), kind="labeled")
        fcfg = tiny_fcfg(batch=1, seed=1)
        train, _, _ = split_dataset(data, SplitSpec(fractions=fcfg.split, seed=fcfg.seed))
        assert "lone" in [e.id for e in train.entries]
        assert pipeline.entry_graph(data.entries[0], NEIGHBOR, BASIS).n_edges == 0
        result = finetune(data, TINY, fcfg)
        assert np.isfinite(result.report.test_mae)


class TestEvaluateAndEmbeddings:
    def test_evaluate_counts_and_mae(self):
        data = gen_toy_dataset(8, seed=16)
        ft = finetune(data, TINY, tiny_fcfg(epochs=1))
        out = evaluate(ft.params, data, ft.label_mean, ft.label_std,
                       batch=4, neighbor=NEIGHBOR, basis=BASIS)
        assert out["n_entries"] == 8
        assert out["mae"] >= 0.0 and np.isfinite(out["mae"])

    def test_evaluate_rejects_unlabeled(self):
        labeled = gen_toy_dataset(4, seed=17)
        unlabeled = Dataset(
            entries=tuple(DatasetEntry(id=e.id, structure=e.structure)
                          for e in labeled.entries),
            kind="unlabeled")
        ft = finetune(labeled, TINY, tiny_fcfg(epochs=1))
        with pytest.raises(UnlabeledDataset):
            evaluate(ft.params, unlabeled, 0.0, 1.0)

    def test_export_embeddings_labeled(self):
        data = gen_toy_dataset(5, seed=18)
        params = init_params(TINY, rng_for(0, _INIT), with_projector=False,
                             with_head=False)
        csv = export_embeddings(params, data, neighbor=NEIGHBOR, basis=BASIS)
        lines = csv.strip().split("\n")
        assert lines[0] == "id,z0,z1,z2,z3,label"
        assert len(lines) == 6
        ids = [ln.split(",")[0] for ln in lines[1:]]
        assert ids == sorted(ids)
        float(lines[1].split(",")[1])  # parses

    def test_export_embeddings_unlabeled(self):
        labeled = gen_toy_dataset(3, seed=19)
        data = Dataset(
            entries=tuple(DatasetEntry(id=e.id, structure=e.structure)
                          for e in labeled.entries),
            kind="unlabeled")
        params = init_params(TINY, rng_for(0, _INIT), with_projector=False,
                             with_head=False)
        csv = export_embeddings(params, data, neighbor=NEIGHBOR, basis=BASIS)
        assert csv.startswith("id,z0,z1,z2,z3\n")


class TestAblation:
    def test_row_statistics(self):
        row = AblationRow(arm="RP", seeds=[0, 1, 2], maes=[0.2, 0.4, 0.6])
        assert row.mean == pytest.approx(0.4)
        assert row.std == pytest.approx(np.sqrt(((0.2 - 0.4) ** 2 + 0.0
                                                 + (0.6 - 0.4) ** 2) / 3.0))

    def test_csv_format(self):
        rows = [AblationRow(arm="RP", seeds=[0, 1], maes=[0.25, 0.75])]
        text = ablation_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "arm,n_seeds,mean_test_mae,std_test_mae"
        assert lines[1].startswith("RP,2,0.5,")
        runs = ablation_runs_csv(rows).strip().split("\n")
        assert runs[0] == "arm,seed,test_mae"
        assert runs[1] == "RP,0,0.25"

    def test_arm_definitions(self):
        assert set(ABLATION_ARMS) == {"RP", "AM+EM", "RP+AM+EM"}
        assert ABLATION_ARMS["RP"].enable_perturb
        assert not ABLATION_ARMS["RP"].enable_atom_mask
        assert not ABLATION_ARMS["AM+EM"].enable_perturb
        assert ABLATION_ARMS["AM+EM"].enable_edge_mask

    def test_end_to_end_tiny(self, tmp_path):
        pre_data = gen_toy_dataset(4, seed=20)
        fine_data = gen_toy_dataset(10, seed=21)
        arms = {"RP": ABLATION_ARMS["RP"], "RP+AM+EM": ABLATION_ARMS["RP+AM+EM"]}
        rows = ablation_run(pre_data, fine_data, TINY,
                            tiny_pcfg(), tiny_fcfg(epochs=1),
                            seeds=[0, 1], out_dir=tmp_path, arms=arms)
        assert [r.arm for r in rows] == ["RP", "RP+AM+EM"]
        for r in rows:
            assert len(r.maes) == 2
            assert all(np.isfinite(m) for m in r.maes)
        text = (tmp_path / "ablation.csv").read_text()
        assert text.startswith("arm,n_seeds,mean_test_mae,std_test_mae\n")
        assert len(text.strip().split("\n")) == 3
        assert (tmp_path / "ablation_runs.csv").exists()

    @pytest.mark.parametrize("split", [(0.5, 0.5, 0.0), (0.5, 0.5, 5e-10)])
    def test_an_empty_test_split_is_rejected_before_any_training(self, monkeypatch, split):
        calls = []

        def counting_pretrain(*args, **kwargs):
            calls.append(args)
            return pretrain(*args, **kwargs)

        monkeypatch.setattr(pipeline, "pretrain", counting_pretrain)
        with pytest.raises(ValueError, match="ablation requires a nonempty test split"):
            ablation_run(gen_toy_dataset(4, seed=20), gen_toy_dataset(10, seed=21), TINY,
                         tiny_pcfg(), tiny_fcfg(epochs=1, split=split), seeds=[0])
        assert calls == []

    def test_requires_seeds(self):
        with pytest.raises(ValueError):
            ablation_run(gen_toy_dataset(4, seed=0), gen_toy_dataset(6, seed=0),
                         TINY, tiny_pcfg(), tiny_fcfg(), seeds=[])


# 5 x 5 x 1e-4 A passes CrystalStructure but needs 9 x 90,001 images at a
# 4.5 A cutoff; 1e-5 x 1e-5 x 1e-3 A has volume 1e-13, below the singular bound
THIN = CrystalStructure(lattice=np.diag([5.0, 5.0, 1e-4]), atomic_numbers=[11],
                        frac_coords=[[0.0, 0.0, 0.0]])
FLAT = CrystalStructure(lattice=np.diag([1e-5, 1e-5, 1e-3]), atomic_numbers=[11],
                        frac_coords=[[0.0, 0.0, 0.0]])


def with_bad_entry(data, structure, entry_id="bad_cell"):
    entries = list(data.entries) + [DatasetEntry(id=entry_id, structure=structure, label=1.0)]
    return Dataset(entries=tuple(entries), kind="labeled")


class TestErrorsNameTheEntry:
    def test_pretrain(self, monkeypatch):
        # every crystal's neighbor search runs before the first step
        steps = []
        monkeypatch.setattr(pipeline, "_twin_embeddings", lambda *args: steps.append(args))
        data = with_bad_entry(gen_toy_dataset(6, seed=30), THIN)
        with pytest.raises(DegenerateCell, match="entry 'bad_cell': cutoff 4.5 needs"):
            pretrain(data, TINY, tiny_pcfg())
        assert steps == []

    def test_finetune(self):
        data = with_bad_entry(gen_toy_dataset(6, seed=31), THIN)
        with pytest.raises(DegenerateCell, match="entry 'bad_cell': cutoff 4.5 needs"):
            finetune(data, TINY, tiny_fcfg(epochs=1))

    def test_evaluate(self):
        data = with_bad_entry(gen_toy_dataset(3, seed=32), FLAT)
        params = init_params(TINY, rng_for(0, _INIT), with_projector=False, with_head=True)
        with pytest.raises(SingularLattice, match="entry 'bad_cell': lattice matrix is singular"):
            evaluate(params, data, 0.0, 1.0, neighbor=NEIGHBOR, basis=BASIS)

    def test_export_embeddings(self):
        data = with_bad_entry(gen_toy_dataset(3, seed=33), THIN)
        params = init_params(TINY, rng_for(0, _INIT), with_projector=False, with_head=False)
        with pytest.raises(DegenerateCell, match="entry 'bad_cell': cutoff 4.5 needs"):
            export_embeddings(params, data, neighbor=NEIGHBOR, basis=BASIS)


def listed_ids(exc) -> list[str]:
    return str(exc.value).split("on entries ")[1].split(", ")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestNonFiniteLoss:
    # the first step at lr=1e300 moves weights by about 1e300, so with every
    # training entry in one batch the second epoch's loss is the first to
    # overflow
    def test_pretrain_names_the_batch(self, tmp_path):
        data = gen_toy_dataset(12, seed=3)
        with pytest.raises(NonFiniteLoss, match=r"^pretrain epoch 2 batch 1: ") as info:
            pretrain(data, TINY, tiny_pcfg(lr=1e300, batch=16, epochs=3), out_dir=tmp_path)
        assert sorted(listed_ids(info)) == sorted(e.id for e in data.entries)
        assert not os.listdir(tmp_path)

    def test_finetune_names_the_batch(self, tmp_path):
        data = gen_toy_dataset(12, seed=3)
        with pytest.raises(NonFiniteLoss, match=r"^finetune epoch 2 batch 1: ") as info:
            finetune(data, TINY, tiny_fcfg(lr=1e300, batch=16, epochs=3, split=(1.0, 0.0, 0.0)),
                     out_dir=tmp_path)
        assert sorted(listed_ids(info)) == sorted(e.id for e in data.entries)
        assert not os.listdir(tmp_path)

    def test_names_a_later_batch(self):
        data = gen_toy_dataset(12, seed=3)
        with pytest.raises(NonFiniteLoss, match=r"^pretrain epoch 1 batch 2: ") as info:
            pretrain(data, TINY, tiny_pcfg(lr=1e300, batch=4, epochs=2))
        ids = listed_ids(info)
        assert len(ids) == 4 and set(ids) <= {e.id for e in data.entries}

    def test_validation_loss_is_checked(self):
        # 7 training entries in one batch, then a validation pass on the
        # weights that first step left behind
        data = gen_toy_dataset(12, seed=3)
        with pytest.raises(NonFiniteLoss, match=r"^finetune epoch 1: validation loss is nan"):
            finetune(data, TINY, tiny_fcfg(lr=1e300, batch=16, epochs=2))

    def test_diverging_runs_raise_no_numpy_warning(self):
        # the class filter ignores RuntimeWarning; here every warning is an error
        data = gen_toy_dataset(12, seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteLoss, match=r"^pretrain epoch 1 batch 2: "):
                pretrain(data, TINY, tiny_pcfg(lr=1e300, batch=4, epochs=2))
            with pytest.raises(NonFiniteLoss, match=r"^finetune epoch 1: validation loss"):
                finetune(data, TINY, tiny_fcfg(lr=1e300, batch=16, epochs=2))

    def test_gradient_is_checked_when_the_loss_is_finite(self):
        params = init_params(TINY, rng_for(0, _INIT), with_projector=False, with_head=False)
        tiny = Tensor(np.full(params.elem_embed.shape, 1e-300))
        entries = gen_toy_dataset(2, seed=0).entries

        def batch_loss(batch_idx):
            # finite in value, but d/dw = 1e-300 * 1e300 * 1e300 overflows
            return scale(scale(sum_all(mul(params.elem_embed, tiny)), 1e300), 1e300)

        with pytest.raises(NonFiniteLoss, match=r"^test epoch 1 batch 1: ") as info:
            _fit("test", params, tiny_fcfg(batch=2), entries, np.arange(2), 1,
                 batch_loss, lambda: None)
        assert sorted(listed_ids(info)) == ["toy_0000", "toy_0001"]


class InlineWorker:
    """Stands in for the second thread's worker: runs each job at once, on this thread."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future


class SpyWorker:
    """A real one-thread worker that keeps each job's future; jobs wait ``delay`` s first."""

    def __init__(self, delay=0.0):
        self.worker, self.delay, self.futures = ThreadPoolExecutor(max_workers=1), delay, []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.worker.shutdown()
        return False

    def submit(self, fn, *args):
        def delayed():
            time.sleep(self.delay)
            return fn(*args)

        self.futures.append(self.worker.submit(delayed))
        return self.futures[-1]


TWIN = ModelConfig(hidden_dim=4, n_conv=2, proj_dim=4, head_hidden=4,
                   edge_feat_dim=BASIS.n_centers)


class TestTwinViews:
    @staticmethod
    def params():
        return init_params(TWIN, rng_for(0, _INIT), with_projector=True, with_head=False)

    @staticmethod
    def merged(n=4):
        pcfg, rng = tiny_pcfg(), rng_for(0, _AUGMENT)
        views = [make_views(e.structure, pcfg.augment, NEIGHBOR, BASIS, rng)
                 for e in gen_toy_dataset(n, seed=0).entries]
        return [merge_graphs(list(side)) for side in zip(*views)]

    @staticmethod
    def empty():
        graph = CrystalGraph(node_elem=np.zeros(0, dtype=np.int64),
                             node_mask=np.zeros(0, dtype=np.int8),
                             edges=np.zeros((0, 2), dtype=np.int64), dist=np.zeros(0),
                             edge_mask=np.zeros(0, dtype=np.int8), basis=BASIS)
        return graph, np.zeros(0, dtype=np.int64)

    def test_checkpoints_do_not_depend_on_the_worker(self, tmp_path, monkeypatch):
        data = gen_toy_dataset(10, seed=8)
        pcfg = tiny_pcfg(epochs=2, val_fraction=0.3, seed=4)
        spy = SpyWorker()
        workers = {"threaded": lambda: spy, "inline": InlineWorker,
                   "none": contextlib.nullcontext}
        searched_on = {run: {} for run in workers}
        search = pipeline.view_candidates

        def recorded(run):
            def view_candidates(s, *args):
                searched_on[run][id(s)] = threading.current_thread()
                return search(s, *args)
            return view_candidates

        reports = {}
        for run, worker in workers.items():
            monkeypatch.setattr(pipeline, "_second_thread", worker)
            monkeypatch.setattr(pipeline, "view_candidates", recorded(run))
            reports[run] = pretrain(data, TWIN, pcfg, out_dir=tmp_path / run).report.to_json()
        # candidate lists, steps, backward walks and validation passes
        assert spy.futures
        # the first half of the crystals' lists on this thread, the second on the worker
        main = threading.current_thread()
        for run, on_main in (("threaded", [True] * 5 + [False] * 5), ("inline", [True] * 10),
                             ("none", [True] * 10)):
            assert [searched_on[run][id(e.structure)] is main for e in data.entries] == on_main
        for run in ("inline", "none"):
            for name in ("pretrain_final.ckpt", "pretrain_best.ckpt"):
                assert (tmp_path / "threaded" / name).read_bytes() == \
                    (tmp_path / run / name).read_bytes()
            assert reports[run] == reports["threaded"]

    @pytest.mark.parametrize("epochs", [1, 3])
    def test_one_candidate_list_per_crystal_per_call(self, monkeypatch, epochs):
        calls = []
        search = augment.candidate_list

        def counted(s, *args):
            calls.append(s)
            return search(s, *args)

        monkeypatch.setattr(augment, "candidate_list", counted)
        data = gen_toy_dataset(10, seed=8)
        pretrain(data, TWIN, tiny_pcfg(epochs=epochs, val_fraction=0.3, seed=4))
        assert sorted(map(id, calls)) == sorted(id(e.structure) for e in data.entries)

    @pytest.mark.parametrize("blas, cores, threaded", [
        (1, 2, True), (1, 8, True), (2, 2, True), (1, 1, False), (None, 8, False)])
    def test_the_worker_runs_only_where_both_views_blas_threads_fit(
            self, monkeypatch, blas, cores, threaded):
        # a BLAS found at ``blas`` threads (None: not found) runs one thread
        # per view during the call, whatever its count, and gets it back after
        sets = []
        found = None if blas is None else (lambda: blas, sets.append)
        monkeypatch.setattr(pipeline, "_blas_threads", lambda: found)
        monkeypatch.setattr(pipeline, "_usable_cores", lambda: cores)
        with pipeline._second_thread() as worker:
            assert isinstance(worker, ThreadPoolExecutor) == threaded
            assert threaded or worker is None
            assert sets == ([] if blas is None else [1])
        assert sets == ([] if blas is None else [1, blas])

    def test_blas_threads_follows_the_blas_thread_variable(self):
        code = ("from xtalssl.pipeline import _blas_threads\n"
                "found = _blas_threads()\n"
                "print(None if found is None else found[0]())\n")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.path.dirname(os.path.dirname(pipeline.__file__)))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout.strip()
        assert out in ("1", "None")  # None: a BLAS other than OpenBLAS

    def test_gradients_equal_those_of_one_tape_bitwise(self):
        params, merged = self.params(), self.merged()

        def run(embed):
            params.zero_grad()
            with Tape() as tape:
                loss = bt_loss_from_embeddings(*embed(), LossConfig())
                tape.backward(loss)
            return [loss.data.tobytes()] + [t.grad.tobytes() for t in params.trainable()]

        one_tape = run(lambda: [project(params, encode(params, g, seg, 4)) for g, seg in merged])
        with ThreadPoolExecutor(max_workers=1) as worker:
            assert run(lambda: _twin_embeddings(worker, params, merged, 4)) == one_tape
        assert run(lambda: _twin_embeddings(None, params, merged, 4)) == one_tape

    def test_concurrent_runs_keep_their_tapes_apart(self):
        # 4 callers, each with its own worker: 8 threads on fewer cores,
        # switching as often as the interpreter allows
        merged = self.merged()

        def grads():
            params = self.params()
            with ThreadPoolExecutor(max_workers=1) as worker, Tape() as tape:
                za, zb = _twin_embeddings(worker, params, merged, 4)
                tape.backward(bt_loss_from_embeddings(za, zb, LossConfig()))
            return [t.grad.tobytes() for t in params.trainable()]

        expected = grads()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as callers:
                runs = [callers.submit(grads) for _ in range(8)]
                results = [run.result(timeout=120) for run in runs]
        finally:
            sys.setswitchinterval(interval)
        assert all(r == expected for r in results)

    def test_the_callers_tape_gets_one_record(self):
        with ThreadPoolExecutor(max_workers=1) as worker, Tape() as tape:
            za, zb = _twin_embeddings(worker, self.params(), self.merged(), 4)
        assert [out for out, _ in tape._records] == [za]
        assert zb.requires_grad

    def test_a_worker_exception_reaches_the_caller(self):
        with SpyWorker() as spy:
            with Tape(), pytest.raises(EmptyGraph):
                _twin_embeddings(spy, self.params(), [self.merged()[0], self.empty()], 4)
            assert [f.done() for f in spy.futures] == [True]
            # idle, and its sub-tape is off its stack
            assert spy.worker.submit(active_tape).result(timeout=60) is None

    def test_the_caller_raises_once_the_worker_has_finished(self):
        with SpyWorker(delay=0.2) as spy:
            with Tape(), pytest.raises(EmptyGraph):
                _twin_embeddings(spy, self.params(), [self.empty(), self.merged()[1]], 4)
            assert [f.done() for f in spy.futures] == [True]
            assert spy.futures[0].exception() is None


def random_cells(n, atoms, seed):
    """Labeled entries ``cell_00``.. with random lattices and ``atoms`` sites each, cycled."""
    rng = np.random.default_rng(seed)
    entries = []
    for i in range(n):
        k = atoms[i % len(atoms)]
        lattice = np.diag(rng.uniform(3.0, 4.0, 3)) + rng.uniform(-0.3, 0.3, (3, 3))
        structure = CrystalStructure(lattice=lattice, atomic_numbers=rng.integers(1, 40, k),
                                     frac_coords=rng.uniform(0.0, 1.0, (k, 3)))
        entries.append(DatasetEntry(id=f"cell_{i:02d}", structure=structure,
                                    label=float(rng.normal())))
    return Dataset(entries=tuple(entries), kind="labeled")


def per_crystal_csv(params, data):
    """export_embeddings as one thread wrote it: each crystal encoded on its own."""
    lines = [",".join(["id"] + [f"z{i}" for i in range(params.config.hidden_dim)] + ["label"])]
    for e in sorted(data.entries, key=lambda e: e.id):
        z = encode(params, pipeline.entry_graph(e, NEIGHBOR, BASIS)).data[0]
        lines.append(",".join([e.id] + [repr(float(v)) for v in z] + [repr(float(e.label))]))
    return "\n".join(lines) + "\n"


def chunked_predictions(params, graphs, batch):
    """Standardized predictions as one thread made them: encode and head per chunk of ``batch``."""
    preds = []
    for lo in range(0, len(graphs), batch):
        merged, seg = merge_graphs(graphs[lo:lo + batch])
        preds.append(regress(params, encode(params, merged, seg, len(graphs[lo:lo + batch])))
                     .data[:, 0])
    return np.concatenate(preds)


class TestInferenceHalves:
    @staticmethod
    def params(with_head=True):
        return init_params(TWIN, rng_for(0, _INIT), with_projector=False, with_head=with_head)

    def test_outputs_do_not_depend_on_the_worker(self, tmp_path, monkeypatch):
        data = gen_toy_dataset(20, seed=9)
        fcfg = tiny_fcfg(epochs=2, batch=3, seed=5)  # validation and test: 4 crystals each
        params = self.params()
        spies = []

        def spy():
            spies.append(SpyWorker())
            return spies[-1]

        out = {}
        for run, worker in {"threaded": spy, "inline": InlineWorker,
                            "none": contextlib.nullcontext}.items():
            monkeypatch.setattr(pipeline, "_second_thread", worker)
            ft = finetune(data, TWIN, fcfg, out_dir=tmp_path / run)
            out[run] = (export_embeddings(params, data, NEIGHBOR, BASIS, 3),
                        evaluate(params, data, 0.5, 2.0, batch=3, neighbor=NEIGHBOR,
                                 basis=BASIS),
                        ft.report.to_json(),
                        (tmp_path / run / "finetune_model.ckpt").read_bytes())
        # finetune (validation and test), embed and evaluate each used their worker
        assert len(spies) == 3 and all(s.futures for s in spies)
        assert out["inline"] == out["threaded"] and out["none"] == out["threaded"]
        csv, metrics = out["none"][:2]
        assert csv == per_crystal_csv(params, data)
        # the head keeps one thread's chunks, whose rounding differs from the halves'
        graphs = [pipeline.entry_graph(e, NEIGHBOR, BASIS) for e in data.entries]
        expected = chunked_predictions(params, graphs, 3)
        with ThreadPoolExecutor(max_workers=1) as worker:
            assert pipeline._predict_std(worker, params, graphs, 3).tobytes() == \
                expected.tobytes()
        labels = np.array([e.label for e in data.entries])
        assert metrics == {"n_entries": 20,
                           "mae": float(np.mean(np.abs(expected * 2.0 + 0.5 - labels)))}

    @pytest.mark.parametrize("batch", [1, 3, 128])
    def test_latents_equal_per_crystal_encode_bitwise(self, batch):
        data = random_cells(15, atoms=range(2, 9), seed=batch)
        params = self.params(with_head=False)
        alone = [encode(params, pipeline.entry_graph(e, NEIGHBOR, BASIS)).data[0]
                 for e in data.entries]
        with ThreadPoolExecutor(max_workers=1) as worker:
            latents = _encode_halves(worker, params, list(data.entries), batch,
                                     lambda e: pipeline.entry_graph(e, NEIGHBOR, BASIS))
        assert latents.tobytes() == np.array(alone).tobytes()
        assert export_embeddings(params, data, NEIGHBOR, BASIS, batch) == \
            per_crystal_csv(params, data)

    def test_a_merged_one_atom_cell_differs_from_its_lone_latent_by_round_off(self):
        # a lone one-node graph multiplies one-row matrices, which BLAS
        # rounds differently from the same row inside a larger product
        params = self.params(with_head=False)
        data = random_cells(4, atoms=[3, 1], seed=2)
        one_atom = data.entries[1]
        alone = encode(params, pipeline.entry_graph(one_atom, NEIGHBOR, BASIS)).data[0]
        merged = _encode_halves(None, params, list(data.entries), 128,
                                lambda e: pipeline.entry_graph(e, NEIGHBOR, BASIS))[1]
        assert pipeline.entry_graph(one_atom, NEIGHBOR, BASIS).n_edges > 0
        assert merged.tobytes() != alone.tobytes()
        npt.assert_allclose(merged, alone, rtol=1e-13)
        # alone in its half, it is encoded alone
        halves = _encode_halves(None, params, [data.entries[0], one_atom], 128,
                                lambda e: pipeline.entry_graph(e, NEIGHBOR, BASIS))
        assert halves[1].tobytes() == alone.tobytes()

    @pytest.mark.parametrize("bad, named", [((3,), "toy_0003"), ((1, 4), "toy_0001")])
    def test_the_first_bad_entry_in_order_is_named(self, bad, named):
        toy = gen_toy_dataset(6, seed=34)  # halves: toy_0000-0002 and toy_0003-0005
        entries = tuple(dataclasses.replace(e, structure=THIN) if i in bad else e
                        for i, e in enumerate(toy.entries))
        data = Dataset(entries=entries, kind="labeled")
        params = self.params()
        message = f"^entry '{named}': cutoff 4.5 needs"
        with SpyWorker(delay=0.1) as spy:
            with pytest.raises(DegenerateCell, match=message):
                _encode_halves(spy, params, list(entries), 2,
                               lambda e: pipeline.entry_graph(e, NEIGHBOR, BASIS))
            assert [f.done() for f in spy.futures] == [True]
        for run in (lambda: export_embeddings(params, data, NEIGHBOR, BASIS, 2),
                    lambda: evaluate(params, data, 0.0, 1.0, 2, NEIGHBOR, BASIS)):
            with pytest.raises(DegenerateCell, match=message):
                run()

    @pytest.mark.parametrize("n, encoded", [
        (5, [(True, 2), (True, 1), (False, 2)]), (1, [(True, 1)]), (0, [])])
    def test_the_first_half_takes_the_odd_entry_and_an_empty_half_is_not_submitted(
            self, monkeypatch, n, encoded):
        calls, real = [], pipeline.encode  # (on the calling thread, graphs in the batch)

        def logged(params, graph, seg=None, n_graphs=1):
            calls.append((threading.current_thread() is threading.main_thread(), n_graphs))
            return real(params, graph, seg, n_graphs)

        monkeypatch.setattr(pipeline, "encode", logged)
        data = gen_toy_dataset(max(n, 1), seed=35)
        data = Dataset(entries=data.entries[:n], kind="labeled")
        params = self.params(with_head=False)
        with SpyWorker() as spy:
            latents = _encode_halves(spy, params, list(data.entries), 2,
                                     lambda e: pipeline.entry_graph(e, NEIGHBOR, BASIS))
        assert len(spy.futures) == (n > 1)
        assert sorted(calls, reverse=True) == encoded
        assert latents.shape == (n, TWIN.hidden_dim)

    @pytest.mark.parametrize("batch", [0, -1])
    def test_batch_below_one_is_rejected_before_any_neighbor_search(self, monkeypatch, batch):
        calls = []
        monkeypatch.setattr(geometry, "_pairs_within", lambda *args: calls.append(args))
        data = gen_toy_dataset(3, seed=36)
        params = self.params()
        for run in (lambda: evaluate(params, data, 0.0, 1.0, batch, NEIGHBOR, BASIS),
                    lambda: export_embeddings(params, data, NEIGHBOR, BASIS, batch)):
            with pytest.raises(ValueError, match=f"^batch must be >= 1, got {batch}$"):
                run()
        assert calls == []

    def test_evaluate_rejects_an_empty_dataset(self):
        with pytest.raises(EmptyDataset, match="evaluate needs a nonempty dataset"):
            evaluate(self.params(), Dataset(entries=(), kind="labeled"), 0.0, 1.0,
                     neighbor=NEIGHBOR, basis=BASIS)

    @pytest.mark.parametrize("mean, std", [
        (np.nan, 1.0), (np.inf, 1.0), (0.0, np.nan), (0.0, -np.inf), (0.0, np.inf),
        (0.0, 0.0), (0.0, -1.0)])
    def test_evaluate_rejects_bad_label_statistics(self, mean, std):
        with pytest.raises(InvalidLabelStats, match="label_std > 0, got"):
            evaluate(self.params(), gen_toy_dataset(3, seed=37), mean, std,
                     neighbor=NEIGHBOR, basis=BASIS)


@pytest.fixture
def blas_count():
    """The BLAS thread count getter; the count is 2 during the test and restored after it."""
    found = pipeline._blas_threads()
    if found is None:
        pytest.skip("numpy's BLAS exports no OpenBLAS thread-count functions to pin")
    get, set_ = found
    before = get()
    set_(2)
    yield get
    set_(before)


class TestBlasPin:
    @staticmethod
    def params():
        return init_params(TINY, rng_for(0, _INIT), with_projector=False, with_head=True)

    @pytest.mark.parametrize("fails", [False, True])
    @pytest.mark.parametrize("call", ["pretrain", "finetune", "evaluate", "export_embeddings"])
    def test_each_call_runs_one_blas_thread_and_restores_the_count(
            self, monkeypatch, blas_count, call, fails):
        seen, real = [], pipeline.encode

        def counted(*args):
            seen.append(blas_count())
            return real(*args)

        monkeypatch.setattr(pipeline, "encode", counted)
        # lr 1e300 raises NonFiniteLoss, as in TestNonFiniteLoss; a bad cell
        # that sorts last raises DegenerateCell once the first half is encoded
        lr = 1e300 if fails else 1e-3
        data, params = gen_toy_dataset(12, seed=3), self.params()
        infer = with_bad_entry(data, THIN, "zz_bad") if fails else data
        run, error = {
            "pretrain": (lambda: pretrain(data, TINY, tiny_pcfg(lr=lr, batch=4, epochs=2)),
                         NonFiniteLoss),
            "finetune": (lambda: finetune(data, TINY, tiny_fcfg(lr=lr, batch=16, epochs=2)),
                         NonFiniteLoss),
            "evaluate": (lambda: evaluate(params, infer, 0.0, 1.0, 4, NEIGHBOR, BASIS),
                         DegenerateCell),
            "export_embeddings": (lambda: export_embeddings(params, infer, NEIGHBOR, BASIS, 4),
                                  DegenerateCell),
        }[call]
        with pytest.raises(error) if fails else contextlib.nullcontext():
            run()
        assert seen and set(seen) == {1}
        assert blas_count() == 2

    def test_overlapping_calls_keep_one_thread_until_the_last_exits(self, monkeypatch, blas_count):
        inside, release, real = threading.Event(), threading.Event(), pipeline.encode
        data, params = gen_toy_dataset(4, seed=3), self.params()

        def held(*args):
            if threading.current_thread() is first:
                inside.set()
                assert release.wait(60)
            return real(*args)

        monkeypatch.setattr(pipeline, "encode", held)
        first, second = (threading.Thread(target=export_embeddings,
                                          args=(params, data, NEIGHBOR, BASIS)) for _ in "ab")
        first.start()
        try:
            assert inside.wait(60)
            assert blas_count() == 1
            second.start()
            second.join(60)
            assert not second.is_alive()
            assert blas_count() == 1  # the first call is still inside
        finally:
            release.set()
            first.join(60)
        assert not first.is_alive()
        assert blas_count() == 2

    def test_many_overlapping_calls_never_see_the_count_restored(self, monkeypatch, blas_count):
        # 6 callers, each with its own worker: 12 threads on fewer cores,
        # switching as often as the interpreter allows
        seen, real = [], pipeline.encode

        def counted(*args):
            seen.append(blas_count())
            return real(*args)

        monkeypatch.setattr(pipeline, "encode", counted)
        data, params = gen_toy_dataset(4, seed=3), self.params()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as callers:
                runs = [callers.submit(export_embeddings, params, data, NEIGHBOR, BASIS, 1)
                        for _ in range(18)]
                results = [run.result(timeout=120) for run in runs]
        finally:
            sys.setswitchinterval(interval)
        assert len(set(results)) == 1
        assert seen and set(seen) == {1}
        assert blas_count() == 2
