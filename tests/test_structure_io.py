import re

import numpy as np
import numpy.testing as npt
import pytest

from xtalssl.structure_io import (
    CrystalStructure,
    Dataset,
    DatasetEntry,
    DuplicateId,
    EmptyDataset,
    IndexReferencesMissingFile,
    InvalidEntryId,
    MalformedSymmetryOp,
    MissingAtomLoop,
    MissingCellParameter,
    SplitSpec,
    UnknownElementSymbol,
    UnparseableLabel,
    CifParseError,
    atomic_open,
    load_dataset,
    parse_cif,
    parse_symmetry_op,
    split_dataset,
    structure_to_cif,
    wrap_frac,
)

CUBIC_NA = """
data_na
_cell_length_a 4.0
_cell_length_b 4.0
_cell_length_c 4.0
_cell_angle_alpha 90.0
_cell_angle_beta 90.0
_cell_angle_gamma 90.0
loop_
_atom_site_label
_atom_site_type_symbol
_atom_site_fract_x
_atom_site_fract_y
_atom_site_fract_z
Na1 Na 0.0 0.0 0.0
"""

ROCK_SALT = """
data_nacl
_cell_length_a 5.64
_cell_length_b 5.64
_cell_length_c 5.64
_cell_angle_alpha 90
_cell_angle_beta 90
_cell_angle_gamma 90
loop_
_symmetry_equiv_pos_as_xyz
'x, y, z'
'x+1/2, y+1/2, z'
'x+1/2, y, z+1/2'
'x, y+1/2, z+1/2'
loop_
_atom_site_label
_atom_site_type_symbol
_atom_site_fract_x
_atom_site_fract_y
_atom_site_fract_z
Na1 Na 0.0 0.0 0.0
Cl1 Cl 0.5 0.5 0.5
"""


def assert_same_structure(a, b):
    npt.assert_array_equal(a.lattice, b.lattice)
    npt.assert_array_equal(a.atomic_numbers, b.atomic_numbers)
    npt.assert_array_equal(a.frac_coords, b.frac_coords)


class TestCrystalStructure:
    def test_wraps_and_validates(self):
        s = CrystalStructure(lattice=np.eye(3) * 2, atomic_numbers=[11],
                             frac_coords=[[-0.25, 1.25, 0.5]])
        npt.assert_allclose(s.frac_coords, [[0.75, 0.25, 0.5]])
        assert s.n_sites == 1
        assert np.linalg.det(s.lattice) == pytest.approx(8.0)

    def test_rejects_bad_structures(self):
        with pytest.raises(ValueError):
            CrystalStructure(lattice=np.eye(3), atomic_numbers=[], frac_coords=np.zeros((0, 3)))
        with pytest.raises(ValueError):
            CrystalStructure(lattice=-np.eye(3), atomic_numbers=[1], frac_coords=[[0, 0, 0]])
        with pytest.raises(ValueError):
            CrystalStructure(lattice=np.eye(3), atomic_numbers=[101], frac_coords=[[0, 0, 0]])

    def test_rejects_nan_lattice(self):
        with pytest.raises(ValueError, match="finite"):
            CrystalStructure(lattice=np.diag([4.0, 4.0, np.nan]), atomic_numbers=[11],
                             frac_coords=[[0.0, 0.0, 0.0]])

    def test_rejects_inf_lattice(self):
        with pytest.raises(ValueError, match="finite"):
            CrystalStructure(lattice=np.diag([4.0, np.inf, 4.0]), atomic_numbers=[11],
                             frac_coords=[[0.0, 0.0, 0.0]])

    def test_rejects_nan_coordinate(self):
        with pytest.raises(ValueError, match="finite"):
            CrystalStructure(lattice=4.0 * np.eye(3), atomic_numbers=[11, 17],
                             frac_coords=[[0.0, 0.0, 0.0], [0.5, np.nan, 0.5]])

    def test_wrap_frac_is_x_minus_floor(self):
        x = np.array([[-1.75, 0.0, 2.5]])
        npt.assert_array_equal(wrap_frac(x), x - np.floor(x))


class TestParseCif:
    def test_cubic_p1(self):
        s = parse_cif(CUBIC_NA)
        npt.assert_allclose(s.lattice, 4.0 * np.eye(3), atol=1e-12)
        npt.assert_array_equal(s.atomic_numbers, [11])
        npt.assert_allclose(s.frac_coords, [[0, 0, 0]])

    def test_identity_symmetry_op_no_duplication(self):
        text = CUBIC_NA.replace(
            "loop_\n_atom_site_label",
            "loop_\n_symmetry_equiv_pos_as_xyz\n'x, y, z'\nloop_\n_atom_site_label",
        ).replace("Na1 Na 0.0 0.0 0.0", "Cl1 Cl 0.5 0.5 0.5")
        s = parse_cif(text)
        assert s.n_sites == 1
        npt.assert_array_equal(s.atomic_numbers, [17])

    def test_rock_salt_symmetry_expansion(self):
        s = parse_cif(ROCK_SALT)
        assert s.n_sites == 8
        assert int((s.atomic_numbers == 11).sum()) == 4
        assert int((s.atomic_numbers == 17).sum()) == 4

    def test_current_and_legacy_symmetry_tags_agree(self):
        # P-1: the inversion pair turns a 2-site asymmetric unit into 4 sites
        legacy = CUBIC_NA.replace(
            "loop_\n_atom_site_label",
            "loop_\n_symmetry_equiv_pos_as_xyz\n'x, y, z'\n'-x, -y, -z'\n"
            "loop_\n_atom_site_label",
        ).replace("Na1 Na 0.0 0.0 0.0", "Na1 Na 0.1 0.2 0.3\nCl1 Cl 0.25 0.1 0.4")
        current = legacy.replace(
            "_symmetry_equiv_pos_as_xyz\n'x, y, z'\n'-x, -y, -z'",
            "_space_group_symop_id\n_space_group_symop_operation_xyz\n"
            "1 'x, y, z'\n2 '-x, -y, -z'",
        )
        assert current != legacy
        a, b = parse_cif(legacy), parse_cif(current)
        assert a.n_sites == 4
        npt.assert_array_equal(b.lattice, a.lattice)
        npt.assert_array_equal(b.atomic_numbers, a.atomic_numbers)
        npt.assert_array_equal(b.frac_coords, a.frac_coords)
        npt.assert_allclose(b.frac_coords[1], [0.9, 0.8, 0.7])

    @pytest.mark.parametrize("body", ["_cell_length_a 5.0 is not a tag here",
                                      "loop_\n_atom_site_fract_x\ndata_other"],
                             ids=["tag", "keywords"])
    def test_text_field_is_one_value(self, body):
        # nothing inside a ;-delimited field is a tag, loop_ or data_
        text = CUBIC_NA.replace(
            "loop_\n_atom_site_label",
            f"_publ_section_comment\n;\nText fields may hold anything:\n{body}\n;\n"
            "loop_\n_atom_site_label")
        assert_same_structure(parse_cif(text), parse_cif(CUBIC_NA))

    def test_value_on_a_later_line(self):
        text = (CUBIC_NA.replace("_cell_length_a 4.0", "_cell_length_a\n4.0")
                .replace("_cell_length_b 4.0", "_cell_length_b\n# comment\n\n;\n4.0\n;"))
        assert_same_structure(parse_cif(text), parse_cif(CUBIC_NA))

    def test_unclosed_text_field(self):
        with pytest.raises(CifParseError, match="line 9"):
            parse_cif(CUBIC_NA.replace("loop_", ";\nloop_"))

    def test_uncertainty_suffix_stripped(self):
        s = parse_cif(CUBIC_NA.replace("_cell_length_a 4.0", "_cell_length_a 4.000(2)"))
        assert s.lattice[0, 0] == pytest.approx(4.0)

    def test_missing_cell_parameter(self):
        with pytest.raises(MissingCellParameter):
            parse_cif(CUBIC_NA.replace("_cell_length_b 4.0\n", ""))

    def test_missing_atom_loop(self):
        head = CUBIC_NA.split("loop_")[0]
        with pytest.raises(MissingAtomLoop):
            parse_cif(head)

    def test_row_missing_a_value_is_rejected(self):
        with pytest.raises(CifParseError, match="loop on line 9 has 9 values"):
            parse_cif(CUBIC_NA + "Cl1 Cl 0.5 0.5\n")

    def test_symmetry_loop_missing_a_value_is_rejected(self):
        text = CUBIC_NA + "loop_\n_symmetry_equiv_pos_site_id\n_symmetry_equiv_pos_as_xyz\n1 'x, y, z'\n2\n"
        with pytest.raises(CifParseError, match="loop on line 16 has 3 values, not a multiple of its 2"):
            parse_cif(text)

    def test_short_unread_loop_is_ignored(self):
        s = parse_cif(CUBIC_NA + "loop_\n_publ_author_name\n_publ_author_address\n'A. Author'\n")
        assert s.n_sites == 1

    def test_unknown_element(self):
        with pytest.raises(UnknownElementSymbol):
            parse_cif(CUBIC_NA.replace("Na1 Na", "Qq1 Qq"))

    def test_malformed_symmetry_op(self):
        with pytest.raises(MalformedSymmetryOp):
            parse_cif(ROCK_SALT.replace("'x+1/2, y+1/2, z'", "'x+, y, z'"))

    def test_partial_occupancy_rejected(self):
        text = CUBIC_NA.replace(
            "_atom_site_fract_z\nNa1 Na 0.0 0.0 0.0",
            "_atom_site_fract_z\n_atom_site_occupancy\nNa1 Na 0.0 0.0 0.0 0.5",
        )
        with pytest.raises(CifParseError):
            parse_cif(text)

    def test_nan_fractional_coordinate_rejected(self):
        with pytest.raises(CifParseError, match="line"):
            parse_cif(CUBIC_NA.replace("Na1 Na 0.0 0.0 0.0", "Na1 Na nan 0.0 0.0"))

    def test_inf_cell_length_rejected(self):
        with pytest.raises(CifParseError, match="_cell_length_a"):
            parse_cif(CUBIC_NA.replace("_cell_length_a 4.0", "_cell_length_a inf"))

    def test_decorated_symbols(self):
        s = parse_cif(CUBIC_NA.replace("Na1 Na ", "Na1 Na+ "))
        npt.assert_array_equal(s.atomic_numbers, [11])

    def test_round_trip_triclinic(self):
        lattice = np.array([[3.1, 0.0, 0.0], [1.0, 2.2, 0.0], [0.5, 0.45, 4.3]])
        s = CrystalStructure(lattice=lattice, atomic_numbers=[11, 17, 8],
                             frac_coords=[[0.1, 0.2, 0.3], [0.5, 0.5, 0.5], [0.9, 0.05, 0.7]])
        s2 = parse_cif(structure_to_cif(s, name="t"))
        npt.assert_allclose(s2.lattice, s.lattice, rtol=1e-9, atol=1e-9)
        npt.assert_array_equal(s2.atomic_numbers, s.atomic_numbers)
        npt.assert_allclose(s2.frac_coords, s.frac_coords, rtol=1e-9, atol=1e-9)


class TestParseSymmetryOp:
    def test_identity(self):
        rot, trans = parse_symmetry_op("x, y, z")
        npt.assert_array_equal(rot, np.eye(3))
        npt.assert_array_equal(trans, np.zeros(3))

    def test_translation_and_sign(self):
        rot, trans = parse_symmetry_op("-x, y+1/2, 1/2-z")
        npt.assert_array_equal(rot, np.diag([-1.0, 1.0, -1.0]))
        npt.assert_allclose(trans, [0.0, 0.5, 0.5])

    def test_mixed_axes(self):
        rot, _ = parse_symmetry_op("x-y, x, z")
        npt.assert_array_equal(rot[0], [1.0, -1.0, 0.0])
        npt.assert_array_equal(rot[1], [1.0, 0.0, 0.0])

    def test_rejects_two_components(self):
        with pytest.raises(MalformedSymmetryOp):
            parse_symmetry_op("x, y")


def _write_cifs(tmp_path, names):
    for name in names:
        (tmp_path / f"{name}.cif").write_text(CUBIC_NA, encoding="utf-8")


class TestLoadDataset:
    def test_unlabeled(self, tmp_path):
        _write_cifs(tmp_path, ["b", "a", "c"])
        d = load_dataset(tmp_path)
        assert d.kind == "unlabeled"
        assert [e.id for e in d.entries] == ["a", "b", "c"]
        assert all(e.label is None for e in d.entries)

    def test_labeled(self, tmp_path):
        _write_cifs(tmp_path, ["s1", "s2"])
        index = tmp_path / "index.csv"
        index.write_text("s2,1.5\ns1,-0.58\n", encoding="utf-8")
        d = load_dataset(tmp_path, index_file=index)
        assert d.kind == "labeled"
        assert [e.id for e in d.entries] == ["s1", "s2"]
        assert d.entries[0].label == pytest.approx(-0.58)

    def test_missing_file(self, tmp_path):
        _write_cifs(tmp_path, ["s1"])
        index = tmp_path / "index.csv"
        index.write_text("s1,0.5\ns9,1.0\n", encoding="utf-8")
        with pytest.raises(IndexReferencesMissingFile):
            load_dataset(tmp_path, index_file=index)

    def test_duplicate_id(self, tmp_path):
        _write_cifs(tmp_path, ["s1"])
        index = tmp_path / "index.csv"
        index.write_text("s1,0.5\ns1,1.0\n", encoding="utf-8")
        with pytest.raises(DuplicateId):
            load_dataset(tmp_path, index_file=index)

    def test_unparseable_label(self, tmp_path):
        _write_cifs(tmp_path, ["s1"])
        index = tmp_path / "index.csv"
        index.write_text("s1,abc\n", encoding="utf-8")
        with pytest.raises(UnparseableLabel):
            load_dataset(tmp_path, index_file=index)

    @pytest.mark.parametrize("label", ["nan", "inf", "-Infinity"])
    def test_non_finite_label(self, tmp_path, label):
        _write_cifs(tmp_path, ["s1", "s2"])
        index = tmp_path / "index.csv"
        index.write_text(f"s1,0.5\ns2,{label}\n", encoding="utf-8")
        with pytest.raises(UnparseableLabel, match="'s2' on line 2"):
            load_dataset(tmp_path, index_file=index)

    def test_cif_error_names_the_file(self, tmp_path):
        _write_cifs(tmp_path, ["s1"])
        bad = tmp_path / "s2.cif"
        bad.write_text(CUBIC_NA.replace("Na1 Na", "Qq1 Qq"), encoding="utf-8")
        index = tmp_path / "index.csv"
        index.write_text("s1,0.5\ns2,1.0\n", encoding="utf-8")
        with pytest.raises(UnknownElementSymbol, match="s2.cif: unknown element symbol"):
            load_dataset(tmp_path, index_file=index)
        with pytest.raises(UnknownElementSymbol, match="s2.cif"):
            load_dataset(tmp_path)

    def test_short_atom_row_names_the_file_and_loop(self, tmp_path):
        (tmp_path / "s1.cif").write_text(CUBIC_NA + "Cl1 Cl 0.5 0.5\n", encoding="utf-8")
        with pytest.raises(CifParseError, match="s1.cif: loop on line 9"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("stem", ["a,b", "a\nb"])
    def test_stem_the_csv_outputs_cannot_hold_is_rejected_before_parsing(self, tmp_path, stem):
        # an id that would split a CSV row or field; the file is not even a CIF
        (tmp_path / f"{stem}.cif").write_text("not a cif\n", encoding="utf-8")
        with pytest.raises(InvalidEntryId, match=re.escape(f".cif: entry id {stem!r} holds")):
            load_dataset(tmp_path)

    def test_missing_root(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "absent")

    def test_empty_root(self, tmp_path):
        with pytest.raises(EmptyDataset):
            load_dataset(tmp_path)

    def test_empty_index(self, tmp_path):
        _write_cifs(tmp_path, ["s1"])
        index = tmp_path / "index.csv"
        index.write_text("\n", encoding="utf-8")
        with pytest.raises(EmptyDataset):
            load_dataset(tmp_path, index_file=index)


def _dataset(n):
    s = parse_cif(CUBIC_NA)
    return Dataset(entries=tuple(DatasetEntry(id=f"e{i}", structure=s) for i in range(n)),
                   kind="unlabeled")


class TestSplitDataset:
    def test_sizes_60_20_20(self):
        train, val, test = split_dataset(_dataset(10), SplitSpec((0.6, 0.2, 0.2), seed=1))
        assert (len(train), len(val), len(test)) == (6, 2, 2)

    def test_all_train(self):
        train, val, test = split_dataset(_dataset(10), SplitSpec((1.0, 0.0, 0.0), seed=1))
        assert (len(train), len(val), len(test)) == (10, 0, 0)

    def test_deterministic(self):
        d = _dataset(100)
        spec = SplitSpec((0.95, 0.05, 0.0), seed=7)
        a = split_dataset(d, spec)
        b = split_dataset(d, spec)
        for pa, pb in zip(a, b):
            assert [e.id for e in pa.entries] == [e.id for e in pb.entries]

    def test_disjoint_exhaustive(self):
        d = _dataset(23)
        parts = split_dataset(d, SplitSpec((0.6, 0.2, 0.2), seed=3))
        ids = [e.id for p in parts for e in p.entries]
        assert sorted(ids) == sorted(e.id for e in d.entries)
        assert len(set(ids)) == len(ids)

    def test_empty_dataset(self):
        with pytest.raises(EmptyDataset):
            split_dataset(Dataset(entries=(), kind="unlabeled"),
                          SplitSpec((0.6, 0.2, 0.2), seed=0))

    def test_bad_fractions(self):
        with pytest.raises(ValueError):
            SplitSpec((0.5, 0.2, 0.2), seed=0)
        with pytest.raises(ValueError):
            SplitSpec((1.2, -0.1, -0.1), seed=0)

    @pytest.mark.parametrize("fractions", [(1.0,), (0.2, 0.2, 0.3, 0.3)])
    def test_three_fractions(self, fractions):
        with pytest.raises(ValueError, match="three fractions"):
            SplitSpec(fractions, seed=0)


def test_dataset_invariants():
    s = parse_cif(CUBIC_NA)
    with pytest.raises(DuplicateId):
        Dataset(entries=(DatasetEntry(id="a", structure=s), DatasetEntry(id="a", structure=s)),
                kind="unlabeled")
    with pytest.raises(ValueError):
        Dataset(entries=(DatasetEntry(id="a", structure=s),), kind="labeled")
    with pytest.raises(ValueError):
        Dataset(entries=(DatasetEntry(id="a", structure=s, label=1.0),), kind="unlabeled")


class TestAtomicOpen:
    def test_replaces_the_file(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_bytes(b"earlier")
        with atomic_open(path) as fh:
            fh.write(b"later")
        assert path.read_bytes() == b"later"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]

    def test_error_halfway_keeps_the_earlier_file(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_bytes(b"earlier")
        with pytest.raises(RuntimeError):
            with atomic_open(path) as fh:
                fh.write(b"half of the ")
                raise RuntimeError("interrupted")
        assert path.read_bytes() == b"earlier"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]
