import contextlib

import numpy as np
import numpy.testing as npt
import pytest

from xtalssl import toydata
from xtalssl.structure_io import Z_TO_SYMBOL, atomic_open, load_dataset
from xtalssl.toydata import (
    ELECTRONEGATIVITY,
    gen_toy_dataset,
    toy_label,
    toy_structure,
    write_toy_dataset,
)


class TestToyStructure:
    def test_perovskite_sites(self):
        s = toy_structure("Cs", "Ti", "O", 4.0)
        assert s.n_sites == 5
        npt.assert_array_equal(s.atomic_numbers, [55, 22, 8, 8, 8])
        npt.assert_allclose(s.lattice, 4.0 * np.eye(3))
        npt.assert_allclose(s.frac_coords[0], [0, 0, 0])
        npt.assert_allclose(s.frac_coords[1], [0.5, 0.5, 0.5])

    def test_label_formula(self):
        en = (ELECTRONEGATIVITY["Cs"] + ELECTRONEGATIVITY["Ti"]
              + 3 * ELECTRONEGATIVITY["O"]) / 5.0
        assert toy_label("Cs", "Ti", "O", 4.0) == pytest.approx(en)
        assert toy_label("Cs", "Ti", "O", 2.0) == pytest.approx(4.0 * en)

    def test_label_varies_with_cell(self):
        assert toy_label("Na", "Sn", "F", 3.6) > toy_label("Na", "Sn", "F", 4.4)


class TestGenToyDataset:
    def test_deterministic(self):
        a = gen_toy_dataset(12, seed=5)
        b = gen_toy_dataset(12, seed=5)
        for ea, eb in zip(a.entries, b.entries):
            assert ea.id == eb.id
            assert ea.label == eb.label
            npt.assert_array_equal(ea.structure.lattice, eb.structure.lattice)

    def test_seed_changes_content(self):
        a = gen_toy_dataset(12, seed=5)
        b = gen_toy_dataset(12, seed=6)
        assert any(ea.label != eb.label for ea, eb in zip(a.entries, b.entries))

    def test_ids_and_kind(self):
        d = gen_toy_dataset(3, seed=0)
        assert [e.id for e in d.entries] == ["toy_0000", "toy_0001", "toy_0002"]
        assert d.kind == "labeled"

    def test_labels_match_formula(self):
        for e in gen_toy_dataset(20, seed=9).entries:
            s = e.structure
            a = s.lattice[0, 0]
            z = s.atomic_numbers
            got = toy_label(Z_TO_SYMBOL[int(z[0])], Z_TO_SYMBOL[int(z[1])],
                            Z_TO_SYMBOL[int(z[2])], a)
            assert e.label == pytest.approx(got, rel=1e-12)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            gen_toy_dataset(0, seed=0)

    def test_rejects_a_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            gen_toy_dataset(1, seed=-1)


class TestWriteToyDataset:
    def test_round_trip_through_files(self, tmp_path):
        index = write_toy_dataset(gen_toy_dataset(8, seed=3), tmp_path)
        loaded = load_dataset(tmp_path, index_file=index)
        original = gen_toy_dataset(8, seed=3)
        assert len(loaded) == 8
        for le, oe in zip(loaded.entries, original.entries):
            assert le.id == oe.id
            assert le.label == pytest.approx(oe.label, rel=1e-15)
            npt.assert_allclose(le.structure.frac_coords, oe.structure.frac_coords,
                                atol=1e-11)
            npt.assert_array_equal(le.structure.atomic_numbers,
                                   oe.structure.atomic_numbers)

    @pytest.mark.parametrize("fail_at", [0, 5, 8], ids=["first-cif", "later-cif", "index"])
    def test_a_cut_off_write_leaves_no_index(self, tmp_path, monkeypatch, fail_at):
        write_toy_dataset(gen_toy_dataset(4, seed=1), tmp_path)
        opened = []

        class CutOff:
            def __init__(self, fh):
                self.fh = fh

            def write(self, data):
                self.fh.write(data[:len(data) // 2])
                raise OSError("no space left on device")

        @contextlib.contextmanager
        def cut_off_at(path):
            opened.append(path)
            with atomic_open(path) as fh:
                yield CutOff(fh) if len(opened) == fail_at + 1 else fh

        monkeypatch.setattr(toydata, "atomic_open", cut_off_at)
        with pytest.raises(OSError, match="no space left"):
            write_toy_dataset(gen_toy_dataset(8, seed=2), tmp_path)
        assert len(opened) == fail_at + 1
        # the earlier index would pair seed 1's labels with seed 2's structures
        assert not (tmp_path / "index.csv").exists()
        assert not list(tmp_path.glob(".*.tmp"))
        with pytest.raises(FileNotFoundError, match=r"index\.csv"):
            load_dataset(tmp_path, index_file=tmp_path / "index.csv")
