import json
import os
import subprocess
import sys

import numpy as np
import pytest

from xtalssl.cli import (
    InvalidConfig,
    build_run_config,
    main,
    parse_config_text,
)
from xtalssl.model import init_params, save_checkpoint
from xtalssl.structure_io import CrystalStructure, load_dataset, structure_to_cif
from xtalssl.toydata import gen_toy_dataset

TINY_SETTINGS = [
    "model.hidden_dim=4", "model.n_conv=1", "model.proj_dim=4",
    "model.head_hidden=4", "neighbor.cutoff=4.5", "neighbor.max_neighbors=8",
    "basis.d_max=4.5", "basis.step=0.5",
]


def tiny_args(*extra):
    out = []
    for s in TINY_SETTINGS + list(extra):
        out += ["--set", s]
    return out


class TestParseConfigText:
    def test_basic(self):
        kv = parse_config_text("a.b = 1\n# comment\n\nc.d= x # trailing\n")
        assert kv == {"a.b": "1", "c.d": "x"}

    def test_error_names_line(self):
        with pytest.raises(InvalidConfig, match="line 2"):
            parse_config_text("a.b = 1\nbogus line\n")

    def test_last_assignment_wins(self):
        kv = parse_config_text("seed = 1\nseed = 2\n")
        assert kv == {"seed": "2"}


class TestBuildRunConfig:
    def test_defaults(self):
        cfg = build_run_config({})
        assert cfg.seed == 0
        assert cfg.model.hidden_dim == 64
        assert cfg.model.edge_feat_dim == 41
        assert cfg.pretrain.lr == pytest.approx(1e-5)
        assert cfg.finetune.split == (0.6, 0.2, 0.2)
        assert cfg.ablate_seeds == [0, 1, 2]

    def test_sections_routed(self):
        cfg = build_run_config({
            "seed": "9",
            "model.hidden_dim": "8",
            "neighbor.cutoff": "5.5",
            "basis.step": "0.4",
            "augment.mask_fraction": "0.2",
            "loss.lambda": "0.01",
            "pretrain.batch": "8",
            "finetune.split": "0.8,0.1,0.1",
            "ablate.seeds": "3,4",
        })
        assert cfg.seed == 9
        assert cfg.model.hidden_dim == 8
        assert cfg.neighbor.cutoff == pytest.approx(5.5)
        assert cfg.basis.step == pytest.approx(0.4)
        assert cfg.pretrain.augment.mask_fraction == pytest.approx(0.2)
        assert cfg.pretrain.loss.lam == pytest.approx(0.01)
        assert cfg.pretrain.batch == 8
        assert cfg.pretrain.seed == 9
        assert cfg.finetune.split == (0.8, 0.1, 0.1)
        assert cfg.ablate_seeds == [3, 4]

    def test_edge_feat_dim_follows_basis(self):
        cfg = build_run_config({"basis.d_max": "4.0", "basis.step": "0.5"})
        assert cfg.model.edge_feat_dim == 9

    def test_unknown_key_named(self):
        with pytest.raises(InvalidConfig, match="model.hidden"):
            build_run_config({"model.hidden": "8"})

    def test_invalid_value_named(self):
        with pytest.raises(InvalidConfig, match="pretrain.batch"):
            build_run_config({"pretrain.batch": "four"})

    def test_semantic_error_wrapped(self):
        with pytest.raises(InvalidConfig):
            build_run_config({"pretrain.batch": "1"})  # below loss minimum

    def test_bool_parsing(self):
        cfg = build_run_config({"augment.enable_perturb": "false"})
        assert not cfg.pretrain.augment.enable_perturb
        with pytest.raises(InvalidConfig):
            build_run_config({"augment.enable_perturb": "nope"})


class TestExitCodes:
    def test_unknown_command(self, capsys):
        assert main(["transmogrify"]) == 2
        assert "unknown command" in capsys.readouterr().err

    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_invalid_config_key(self, tmp_path, capsys):
        assert main(["pretrain", "--set", "bogus.key=1",
                     "--data-root", str(tmp_path), "--out-dir", str(tmp_path)]) == 2
        assert "bogus.key" in capsys.readouterr().err

    def test_missing_data_root(self, tmp_path, capsys):
        assert main(["featurize", "--out-dir", str(tmp_path)]) == 2

    def test_nonexistent_data_root(self, tmp_path, capsys):
        missing = tmp_path / "nope"
        code = main(["featurize", "--data-root", str(missing),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 1

    @pytest.mark.parametrize("split", ["1.0", "0.2,0.2,0.3,0.3"])
    def test_split_needs_three_fractions(self, tmp_path, capsys, split):
        assert main(["finetune", "--data-root", str(tmp_path), "--out-dir", str(tmp_path),
                     "--set", f"finetune.split={split}"]) == 2
        assert "split needs three fractions" in capsys.readouterr().err

    def test_bad_log_level(self, monkeypatch, capsys):
        monkeypatch.setenv("CT_LOG_LEVEL", "verbose")
        assert main(["gen-toy", "--n", "2", "--out", "/tmp/unused"]) == 2
        assert "CT_LOG_LEVEL" in capsys.readouterr().err


class TestGenToy:
    def test_writes_dataset(self, tmp_path):
        out = tmp_path / "toys"
        assert main(["gen-toy", "--n", "5", "--seed", "3", "--out", str(out)]) == 0
        data = load_dataset(out, index_file=out / "index.csv")
        assert len(data) == 5
        reference = gen_toy_dataset(5, seed=3)
        for got, ref in zip(data.entries, reference.entries):
            assert got.id == ref.id
            assert got.label == pytest.approx(ref.label, rel=1e-15)

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["gen-toy", "--n", "4", "--seed", "1", "--out", str(a)])
        main(["gen-toy", "--n", "4", "--seed", "1", "--out", str(b)])
        assert (a / "index.csv").read_text() == (b / "index.csv").read_text()
        assert (a / "toy_0000.cif").read_text() == (b / "toy_0000.cif").read_text()


@pytest.fixture(scope="module")
def toy_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("toys")
    assert main(["gen-toy", "--n", "10", "--seed", "5", "--out", str(out)]) == 0
    return out


class TestCommands:
    def test_featurize(self, toy_dir, tmp_path):
        out = tmp_path / "feat"
        code = main(["featurize", "--data-root", str(toy_dir),
                     "--out-dir", str(out)] + tiny_args())
        assert code == 0
        lines = (out / "graphs.jsonl").read_text().strip().split("\n")
        assert len(lines) == 10
        rec = json.loads(lines[0])
        assert rec["id"] == "toy_0000"
        assert len(rec["node_elem"]) == 5

    def test_featurize_names_a_rejected_entry(self, toy_dir, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        (data / "toy_0000.cif").write_text((toy_dir / "toy_0000.cif").read_text())
        # a 1e-4 A axis needs 9 x 90,001 periodic images at the 4.5 A cutoff
        thin = CrystalStructure(lattice=np.diag([5.0, 5.0, 1e-4]), atomic_numbers=[11],
                                frac_coords=[[0.0, 0.0, 0.0]])
        (data / "thin.cif").write_text(structure_to_cif(thin, name="thin"))
        out = tmp_path / "feat"
        code = main(["featurize", "--data-root", str(data), "--out-dir", str(out)]
                    + tiny_args())
        assert code == 1
        assert "entry 'thin': cutoff 4.5 needs" in capsys.readouterr().err
        assert not (out / "graphs.jsonl").exists()

    def test_pretrain_then_finetune_then_evaluate_then_embed(self, toy_dir, tmp_path):
        pre = tmp_path / "pre"
        code = main(["pretrain", "--data-root", str(toy_dir),
                     "--index-file", str(toy_dir / "index.csv"),
                     "--out-dir", str(pre), "--seed", "2"]
                    + tiny_args("pretrain.epochs=1", "pretrain.batch=4",
                                "pretrain.val_fraction=0"))
        assert code == 0
        report = json.loads((pre / "report.json").read_text())
        assert report["kind"] == "pretrain"
        assert "wall_clock_seconds" not in report
        assert os.path.exists(pre / "pretrain_final.ckpt")

        fine = tmp_path / "fine"
        code = main(["finetune", "--data-root", str(toy_dir),
                     "--index-file", str(toy_dir / "index.csv"),
                     "--out-dir", str(fine), "--seed", "2",
                     "--init-checkpoint", str(pre / "pretrain_best.ckpt")]
                    + tiny_args("finetune.epochs=2", "finetune.batch=4"))
        assert code == 0
        report = json.loads((fine / "report.json").read_text())
        assert report["kind"] == "finetune"
        assert report["config"]["init_checkpoint"] == str(pre / "pretrain_best.ckpt")
        assert os.path.exists(fine / "finetune_model.ckpt")

        ev = tmp_path / "eval"
        code = main(["evaluate", "--data-root", str(toy_dir),
                     "--index-file", str(toy_dir / "index.csv"),
                     "--out-dir", str(ev),
                     "--checkpoint", str(fine / "finetune_model.ckpt")]
                    + tiny_args())
        assert code == 0
        metrics = json.loads((ev / "evaluation.json").read_text())
        assert metrics["n_entries"] == 10
        assert np.isfinite(metrics["mae"])

        emb = tmp_path / "emb"
        code = main(["embed", "--data-root", str(toy_dir),
                     "--index-file", str(toy_dir / "index.csv"),
                     "--out-dir", str(emb),
                     "--checkpoint", str(fine / "finetune_model.ckpt")]
                    + tiny_args())
        assert code == 0
        header = (emb / "embeddings.csv").read_text().split("\n")[0]
        assert header == "id,z0,z1,z2,z3,label"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_pretrain_stops_on_non_finite_loss(self, toy_dir, tmp_path, capsys):
        pre = tmp_path / "pre"
        code = main(["pretrain", "--data-root", str(toy_dir),
                     "--index-file", str(toy_dir / "index.csv"),
                     "--out-dir", str(pre), "--set", "pretrain.lr=1e300"]
                    + tiny_args("pretrain.epochs=3", "pretrain.batch=16",
                                "pretrain.val_fraction=0"))
        assert code == 1
        assert "pretrain epoch 2 batch 1: non-finite loss" in capsys.readouterr().err
        assert not pre.exists() or not os.listdir(pre)

    def test_evaluate_rejects_encoder_checkpoint(self, toy_dir, tmp_path):
        pre = tmp_path / "pre"
        main(["pretrain", "--data-root", str(toy_dir),
              "--index-file", str(toy_dir / "index.csv"),
              "--out-dir", str(pre)]
             + tiny_args("pretrain.epochs=1", "pretrain.batch=4",
                         "pretrain.val_fraction=0"))
        code = main(["evaluate", "--data-root", str(toy_dir),
                     "--index-file", str(toy_dir / "index.csv"),
                     "--out-dir", str(tmp_path / "ev"),
                     "--checkpoint", str(pre / "pretrain_final.ckpt")]
                    + tiny_args())
        assert code == 1

    def test_embed_names_a_misshapen_array(self, toy_dir, tmp_path, capsys):
        mcfg = build_run_config(dict(s.split("=") for s in TINY_SETTINGS)).model
        params = init_params(mcfg, np.random.default_rng(0), with_head=False)
        params.convs[0].b_f.data = np.zeros(7)
        save_checkpoint(tmp_path / "bad.ckpt", params)
        code = main(["embed", "--data-root", str(toy_dir), "--out-dir", str(tmp_path / "emb"),
                     "--checkpoint", str(tmp_path / "bad.ckpt")] + tiny_args())
        assert code == 1
        err = capsys.readouterr().err
        assert "'encoder.conv0.b_f' has shape (7,), expected (4,)" in err
        assert "bad.ckpt: checkpoint array" in err

    def test_evaluate_rejects_basis_mismatch(self, toy_dir, tmp_path):
        pre = tmp_path / "pre"
        main(["pretrain", "--data-root", str(toy_dir),
              "--index-file", str(toy_dir / "index.csv"),
              "--out-dir", str(pre)]
             + tiny_args("pretrain.epochs=1", "pretrain.batch=4",
                         "pretrain.val_fraction=0"))
        # default basis (41 centers) disagrees with the tiny checkpoint
        code = main(["embed", "--data-root", str(toy_dir),
                     "--index-file", str(toy_dir / "index.csv"),
                     "--out-dir", str(tmp_path / "emb"),
                     "--checkpoint", str(pre / "pretrain_final.ckpt")])
        assert code == 1

    def test_config_file_plus_set_override(self, toy_dir, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            "\n".join(s.replace("=", " = ") for s in TINY_SETTINGS)
            + "\npretrain.epochs = 1\npretrain.batch = 4\npretrain.val_fraction = 0\n"
            + "seed = 4\n")
        out = tmp_path / "out"
        code = main(["pretrain", "--config", str(config),
                     "--data-root", str(toy_dir),
                     "--index-file", str(toy_dir / "index.csv"),
                     "--out-dir", str(out),
                     "--set", "pretrain.epochs=2"])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["epochs"]) == 2  # --set beat the config file
        assert report["config"]["seed"] == 4

    def test_ablate(self, toy_dir, tmp_path):
        out = tmp_path / "abl"
        code = main(["ablate", "--data-root", str(toy_dir),
                     "--index-file", str(toy_dir / "index.csv"),
                     "--out-dir", str(out)]
                    + tiny_args("pretrain.epochs=1", "pretrain.batch=4",
                                "pretrain.val_fraction=0",
                                "finetune.epochs=1", "finetune.batch=4",
                                "ablate.seeds=0,1"))
        assert code == 0
        text = (out / "ablation.csv").read_text()
        lines = text.strip().split("\n")
        assert lines[0] == "arm,n_seeds,mean_test_mae,std_test_mae"
        assert len(lines) == 4  # three arms
        runs = (out / "ablation_runs.csv").read_text().strip().split("\n")
        assert len(runs) == 7  # header + 3 arms x 2 seeds


def test_console_entry_point(toy_dir, tmp_path):
    # one subprocess smoke test of the installed script
    proc = subprocess.run(
        [sys.executable, "-m", "xtalssl.cli", "gen-toy", "--n", "2",
         "--out", str(tmp_path / "t")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert (tmp_path / "t" / "index.csv").exists()
