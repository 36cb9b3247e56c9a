import json
import os
import re
import struct
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from xtalssl import pipeline
from xtalssl.augment import MAX_DISPLACEMENT
from xtalssl.cli import (
    _SCHEMA,
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


def _readme_config_keys():
    """Keys of the README "Configuration" table, with 'a.b/c' read as 'a.b' and 'a.c'."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    keys = []
    for row in section.splitlines():
        if not row.startswith("| `"):
            continue
        for cell in re.findall(r"`([^`]+)`", row.split("|")[1]):
            prefix, _, names = cell.rpartition(".")
            keys += [f"{prefix}.{name}" if prefix else name for name in names.split("/")]
    return keys


def test_the_readme_table_lists_every_config_key():
    keys = _readme_config_keys()
    assert len(keys) == len(set(keys))
    assert sorted(keys) == sorted(_SCHEMA)
    assert len(keys) == 32


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

    @pytest.mark.parametrize("setting", [
        "loss.eps=nan", "loss.eps=inf", "loss.lambda=nan", "loss.lambda=inf",
        "neighbor.cutoff=nan", "neighbor.cutoff=inf",
        "augment.max_displacement=nan", "augment.max_displacement=inf",
        "pretrain.lr=nan", "pretrain.lr=inf", "pretrain.lr=-1",
        "finetune.lr=nan", "finetune.lr=inf", "finetune.lr=-1", "finetune.split=nan,0.5,0.5",
    ])
    def test_float_settings_must_be_finite_and_in_range(self, tmp_path, capsys, setting):
        key, _, value = setting.partition("=")
        with pytest.raises(InvalidConfig, match="must be finite and"):
            build_run_config({key: value})
        assert main(["pretrain", "--data-root", str(tmp_path), "--out-dir", str(tmp_path),
                     "--set", setting]) == 2
        assert "invalid configuration" in capsys.readouterr().err

    @pytest.mark.parametrize("command, args, key", [
        ("pretrain", ["--seed", "-1"], "seed"),
        ("finetune", ["--set", "seed=-1"], "seed"),
        ("ablate", ["--set", "ablate.seeds=0,-2"], "ablate.seeds"),
        ("gen-toy", ["--n", "2", "--seed", "-1"], "seed"),
    ], ids=["pretrain", "finetune", "ablate", "gen-toy"])
    def test_negative_seeds_are_invalid(self, tmp_path, capsys, command, args, key):
        paths = (["--out", str(tmp_path)] if command == "gen-toy"
                 else ["--data-root", str(tmp_path), "--out-dir", str(tmp_path)])
        assert main([command, *paths, *args]) == 2
        assert f"error: invalid configuration: {key} must be >= 0" in capsys.readouterr().err

    def test_repeated_ablation_seeds_are_invalid(self, tmp_path, capsys):
        # a repeated seed reruns one bit-identical run and shrinks the reported std
        with pytest.raises(InvalidConfig, match=re.escape(
                "ablate.seeds must not repeat a seed, got [0, 1, 1]")):
            build_run_config({"ablate.seeds": "0,1,1"})
        assert main(["ablate", "--data-root", str(tmp_path), "--out-dir", str(tmp_path),
                     "--set", "ablate.seeds=0,1,1"]) == 2
        assert "invalid configuration: ablate.seeds must not repeat" in capsys.readouterr().err

    def test_a_displacement_above_the_cap_is_rejected_before_any_work(self, tmp_path, capsys):
        # 1000 A widens the skin's image block of 8 toy cells to about 7 GiB
        tracemalloc.start()
        t0 = time.perf_counter()
        try:
            code = main(["pretrain", "--data-root", str(tmp_path), "--out-dir", str(tmp_path),
                         "--set", "augment.max_displacement=1000"])
            seconds = time.perf_counter() - t0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert seconds < 0.5
        assert peak < 1 << 20
        assert (f"error: invalid configuration: max_displacement must be finite and in "
                f"[0, {MAX_DISPLACEMENT}] angstrom, got 1000.0") in capsys.readouterr().err
        build_run_config({"augment.max_displacement": str(MAX_DISPLACEMENT)})

    def test_a_config_file_that_is_not_utf8_is_invalid(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_bytes(b"seed = 1\n# caf\xe9\n")
        assert main(["pretrain", "--config", str(config), "--data-root", str(tmp_path),
                     "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {config}: not UTF-8 text: byte 0xe9 at offset 14\n")

    @pytest.mark.parametrize("text, sets, message", [
        ("seed = 1\nbogus line\n", [], "line 2: expected 'key = value', got 'bogus line'"),
        ("seed = 1\nbogus.key = 2\n", [], "unknown config key: 'bogus.key'"),
        ("seed = 1\n", ["bogus.key=2"], None),  # the flag's key is not the file's
    ], ids=["line", "file key", "flag key"])
    def test_a_config_file_error_names_the_file(self, tmp_path, capsys, text, sets, message):
        config = tmp_path / "run.cfg"
        config.write_text(text, encoding="utf-8")
        assert main(["pretrain", "--config", str(config), "--data-root", str(tmp_path),
                     "--out-dir", str(tmp_path), *(a for s in sets for a in ("--set", s))]) == 2
        expected = (f"{config}: {message}" if message is not None
                    else "unknown config key: 'bogus.key'")
        assert capsys.readouterr().err == f"error: {expected}\n"

    def test_gen_toy_rejects_an_empty_dataset(self, tmp_path, capsys):
        assert main(["gen-toy", "--n", "0", "--out", str(tmp_path)]) == 2
        assert "error: invalid configuration: n must be >= 1, got 0" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

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

    def test_featurize_names_a_cif_whose_image_count_overflows_a_float(
            self, toy_dir, tmp_path, capsys):
        # the one-site cell parses, of volume 1, but its inverse lattice squared is inf
        data = tmp_path / "data"
        data.mkdir()
        (data / "toy_0000.cif").write_text((toy_dir / "toy_0000.cif").read_text())
        (data / "huge.cif").write_text(
            "data_huge\n_cell_length_a 1e-200\n_cell_length_b 1e100\n_cell_length_c 1e100\n"
            "_cell_angle_alpha 90\n_cell_angle_beta 90\n_cell_angle_gamma 90\n"
            "loop_\n_atom_site_label\n_atom_site_type_symbol\n_atom_site_fract_x\n"
            "_atom_site_fract_y\n_atom_site_fract_z\nNa1 Na 0 0 0\n")
        out = tmp_path / "feat"
        code = main(["featurize", "--data-root", str(data), "--out-dir", str(out)] + tiny_args())
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "error: entry 'huge': cutoff 4.5 needs inf periodic images")
        assert not (out / "graphs.jsonl").exists()

    @pytest.mark.parametrize("tag, value", [("a", "0"), ("a", "-4.0"), ("c", "-4.0")])
    def test_featurize_names_a_cif_with_a_non_positive_cell_length(
            self, toy_dir, tmp_path, capsys, tag, value):
        data = tmp_path / "data"
        data.mkdir()
        for name in ("toy_0000.cif", "toy_0001.cif"):
            (data / name).write_text((toy_dir / name).read_text())
        bad = data / "toy_0001.cif"
        text = bad.read_text()
        line = next(l for l in text.splitlines() if l.startswith(f"_cell_length_{tag} "))
        bad.write_text(text.replace(line, f"_cell_length_{tag} {value}"))
        out = tmp_path / "feat"
        code = main(["featurize", "--data-root", str(data), "--out-dir", str(out)] + tiny_args())
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: cell lengths must be positive")
        assert not (out / "graphs.jsonl").exists()

    def test_featurize_names_a_cif_that_is_not_utf8_and_leaves_no_out_dir(
            self, toy_dir, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        for name in ("toy_0000.cif", "toy_0001.cif"):
            (data / name).write_bytes((toy_dir / name).read_bytes())
        bad = data / "toy_0001.cif"
        offset = bad.stat().st_size
        with open(bad, "ab") as fh:
            fh.write(b"\xff\xfe")
        out = tmp_path / "feat"
        code = main(["featurize", "--data-root", str(data), "--out-dir", str(out)] + tiny_args())
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {bad}: not UTF-8 text: byte 0xff at offset {offset}\n")
        assert not out.exists()

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

    def test_evaluate_rejects_encoder_checkpoint(self, toy_dir, tmp_path, capsys):
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
        assert f"error: {pre / 'pretrain_final.ckpt'}: not a fine-tuned model checkpoint" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("label_std", [float("nan"), 0.0])
    def test_evaluate_names_a_checkpoint_with_bad_label_statistics(
            self, toy_dir, tmp_path, capsys, label_std):
        mcfg = build_run_config(dict(s.split("=") for s in TINY_SETTINGS)).model
        params = init_params(mcfg, np.random.default_rng(0), with_projector=False)
        save_checkpoint(tmp_path / "bad.ckpt", params, label_stats=(0.0, label_std))
        code = main(["evaluate", "--data-root", str(toy_dir),
                     "--index-file", str(toy_dir / "index.csv"),
                     "--out-dir", str(tmp_path / "ev"),
                     "--checkpoint", str(tmp_path / "bad.ckpt")] + tiny_args())
        assert code == 1
        assert f"bad.ckpt: label_mean and label_std must be finite and label_std > 0, " \
            f"got 0.0 and {label_std}" in capsys.readouterr().err
        assert not (tmp_path / "ev" / "evaluation.json").exists()

    @pytest.mark.parametrize("mean_shape", [(2,), (1,), None], ids=["(2,)", "(1,)", "no-std"])
    def test_evaluate_names_misshapen_or_missing_label_statistics(
            self, toy_dir, tmp_path, capsys, mean_shape):
        mcfg = build_run_config(dict(s.split("=") for s in TINY_SETTINGS)).model
        params = init_params(mcfg, np.random.default_rng(0), with_projector=False)
        path = tmp_path / "bad.ckpt"
        save_checkpoint(path, params, label_stats=(np.zeros(mean_shape or ()), 1.0))
        if mean_shape is None:
            # drop the last array, the 0-d label_std, and count one array fewer
            raw = bytearray(path.read_bytes()[:-(2 + len("label_std") + 1 + 8)])
            raw[28:32] = struct.pack("<I", struct.unpack("<I", raw[28:32])[0] - 1)
            path.write_bytes(bytes(raw))
        code = main(["evaluate", "--data-root", str(toy_dir),
                     "--index-file", str(toy_dir / "index.csv"),
                     "--out-dir", str(tmp_path / "ev"), "--checkpoint", str(path)] + tiny_args())
        assert code == 1
        message = ("checkpoint missing array 'label_std'" if mean_shape is None
                   else f"checkpoint array 'label_mean' has shape {mean_shape}, expected ()")
        err = capsys.readouterr().err
        assert err == f"error: {path}: {message}\n"
        assert not (tmp_path / "ev" / "evaluation.json").exists()

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

    @pytest.mark.parametrize("command", ["embed", "evaluate", "finetune"])
    @pytest.mark.parametrize("offset, patch, message", [
        (8, b"\x00", "hidden_dim must be positive"),  # the header's first field
        (34, b"\xff", r"array name b'\xffncoder.elem_embed' is not UTF-8"),  # the first name
        # the first array's shape, whose element count overflows 64 bits
        (53, struct.pack("<2Q", 2**32, 2**32), "truncated checkpoint"),
        # the first array's rank and shape, one dimension past numpy's limit
        (52, struct.pack("<BQ", 1, 2**63), "truncated checkpoint"),
    ], ids=["header", "name", "shape-2^32x2^32", "shape-2^63"])
    def test_a_corrupt_header_or_array_name_names_the_checkpoint(
            self, toy_dir, tmp_path, capsys, command, offset, patch, message):
        mcfg = build_run_config(dict(s.split("=") for s in TINY_SETTINGS)).model
        path = tmp_path / "bad.ckpt"
        save_checkpoint(path, init_params(mcfg, np.random.default_rng(0), with_head=False))
        raw = bytearray(path.read_bytes())
        raw[offset:offset + len(patch)] = patch
        path.write_bytes(bytes(raw))
        flag = "--init-checkpoint" if command == "finetune" else "--checkpoint"
        code = main([command, "--data-root", str(toy_dir),
                     "--index-file", str(toy_dir / "index.csv"),
                     "--out-dir", str(tmp_path / "out"), flag, str(path)]
                    + tiny_args("finetune.epochs=1"))
        assert code == 1
        assert f"error: {path}: {message}" in capsys.readouterr().err

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


# default model widths, so that OpenBLAS splits the larger products over its
# threads when it may; 32 cells at batch 16 gave checkpoints that differed
# between 1 and 2 BLAS threads before calls pinned BLAS to one thread
BLAS_CHAIN = """
from xtalssl.cli import main
sets = [arg for s in ("pretrain.epochs=1", "pretrain.batch=16", "pretrain.val_fraction=0.2",
                      "finetune.epochs=2", "finetune.batch=16") for arg in ("--set", s)]
data = ["--data-root", "data", "--index-file", "data/index.csv"]
for step in (["gen-toy", "--n", "32", "--seed", "3", "--out", "data"],
             ["pretrain", *data, "--out-dir", "out/pre", *sets],
             ["finetune", *data, "--out-dir", "out/fine",
              "--init-checkpoint", "out/pre/pretrain_best.ckpt", *sets],
             ["evaluate", *data, "--out-dir", "out/eval",
              "--checkpoint", "out/fine/finetune_model.ckpt", *sets],
             ["embed", *data, "--out-dir", "out/embed",
              "--checkpoint", "out/pre/pretrain_best.ckpt", *sets]):
    assert main(step) == 0, step
"""


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    if pipeline._blas_threads() is None:
        pytest.skip("numpy's BLAS exports no OpenBLAS thread-count functions to pin")
    outputs = {}
    for threads in ("1", "2"):
        workdir = tmp_path / threads
        workdir.mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, CT_LOG_LEVEL="error",
                   PYTHONPATH=os.path.dirname(os.path.dirname(pipeline.__file__)))
        subprocess.run([sys.executable, "-c", BLAS_CHAIN], cwd=workdir, env=env, check=True)
        outputs[threads] = {str(p.relative_to(workdir)): p.read_bytes()
                            for p in sorted((workdir / "out").rglob("*")) if p.is_file()}
    assert sorted(outputs["1"]) == [
        "out/embed/embeddings.csv", "out/eval/evaluation.json", "out/fine/finetune_model.ckpt",
        "out/fine/report.json", "out/pre/pretrain_best.ckpt", "out/pre/pretrain_final.ckpt",
        "out/pre/report.json"]
    assert [name for name, data in outputs["1"].items() if outputs["2"][name] != data] == []


def test_console_entry_point(toy_dir, tmp_path):
    # one subprocess smoke test of the installed script
    proc = subprocess.run(
        [sys.executable, "-m", "xtalssl.cli", "gen-toy", "--n", "2",
         "--out", str(tmp_path / "t")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert (tmp_path / "t" / "index.csv").exists()
