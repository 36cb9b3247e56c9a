import re
import tracemalloc
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from xtalssl import structure_io
from xtalssl.structure_io import (
    SYMMETRY_DEDUP_TOL,
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
    _CIF_TOKEN,
    _expand_symmetry,
    _lattice_from_parameters,
    _scan_cif,
)

from oracles import expand_symmetry_loop, scan_cif

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

    def test_holds_read_only_copies(self):
        # float64 and int64 arrays, which np.asarray would hand back as they are
        lattice, numbers = 4.0 * np.eye(3), np.array([11, 17])
        frac = np.array([[0.0, 0.0, 0.0], [0.5, 0.5, 0.5]])
        s = CrystalStructure(lattice=lattice, atomic_numbers=numbers, frac_coords=frac)
        for name in ("lattice", "atomic_numbers", "frac_coords"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(s, name)[0] = 0
        lattice[0, 0], numbers[0], frac[1, 0] = 0.0, 1, 0.75
        assert (s.lattice[0, 0], s.atomic_numbers[0], s.frac_coords[1, 0]) == (4.0, 11, 0.5)

    def test_wrap_frac_is_x_minus_floor(self):
        x = np.array([[-1.75, 0.0, 2.5]])
        npt.assert_array_equal(wrap_frac(x), x - np.floor(x))

    def test_tiny_negative_coordinate_wraps_to_zero(self):
        # -1e-17 - floor(-1e-17) = 1 - 1e-17 rounds to 1.0
        s = CrystalStructure(lattice=np.eye(3), atomic_numbers=[1],
                             frac_coords=[[-1e-17, 0.5, 0.25]])
        assert s.frac_coords.tolist() == [[0.0, 0.5, 0.25]]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                              st.floats(-1e-15, 0.0), st.integers(-3, 3).map(float)),
                    min_size=1, max_size=12))
    def test_wrap_frac_lands_in_the_unit_interval(self, values):
        x = np.array(values)
        got = wrap_frac(x)
        assert ((got >= 0.0) & (got < 1.0)).all()
        plain = x - np.floor(x)
        npt.assert_array_equal(got[plain < 1.0], plain[plain < 1.0])
        # idempotent, and bit for bit the old x - floor(x) applied twice
        assert wrap_frac(got).tobytes() == got.tobytes()
        assert (plain - np.floor(plain)).tobytes() == got.tobytes()


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

    def test_images_of_different_elements_on_one_site_are_rejected(self):
        # the translation puts Na's image on Cl and Cl's image on Na
        text = (ROCK_SALT.replace("'x+1/2, y+1/2, z'\n'x+1/2, y, z+1/2'\n'x, y+1/2, z+1/2'\n",
                                  "'x+1/2, y, z'\n")
                .replace("Cl1 Cl 0.5 0.5 0.5", "Cl1 Cl 0.5 0.0 0.0"))
        with pytest.raises(CifParseError, match="^atom sites 'Na1' and 'Cl1' have symmetry images "
                                                "of different elements within 0.001 angstrom$"):
            parse_cif(text)

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

    @pytest.mark.parametrize("tag, value", [("a", "0"), ("b", "-4.0"), ("c", "-4.0")])
    def test_non_positive_cell_length_rejected(self, tag, value):
        # a negative c once read as |c|: the cell's third row is (cx, cy, sqrt(cz^2))
        with pytest.raises(CifParseError, match="cell lengths must be positive"):
            parse_cif(CUBIC_NA.replace(f"_cell_length_{tag} 4.0", f"_cell_length_{tag} {value}"))

    def test_a_cell_the_structure_rejects_is_a_parse_error(self):
        # gamma = 270 degrees makes a left-handed cell, with a negative determinant
        with pytest.raises(CifParseError, match="^lattice determinant .* must be positive$"):
            parse_cif(CUBIC_NA.replace("_cell_angle_gamma 90.0", "_cell_angle_gamma 270"))

    def test_decorated_symbols(self):
        s = parse_cif(CUBIC_NA.replace("Na1 Na ", "Na1 Na+ "))
        npt.assert_array_equal(s.atomic_numbers, [11])

    def test_uncertainties_in_the_site_loop_are_stripped(self):
        plain = CUBIC_NA + "Cl1 Cl 0.5 0.5 0.5\n"
        text = plain.replace("Cl1 Cl 0.5 0.5 0.5", "Cl1 Cl 0.5(1) 0.5 0.5(12)")
        assert_same_structure(parse_cif(text), parse_cif(plain))

    @pytest.mark.parametrize("rows, error, message", [
        ("Na1 Na 0.0 bad 0.0\nQq1 Qq 0.5 0.5 0.5\n", CifParseError,
         "cannot parse numeric value 'bad' for _atom_site_fract (line 15)"),
        ("Na1 Qq 0.0 0.0 0.0\nCl1 Cl 0.5 bad 0.5\n", UnknownElementSymbol,
         "unknown element symbol 'Qq' on line 15"),
        ("Na1 Na 0.0 0.0 0.0\nCl1 Cl 0.5 0.5 inf\n", CifParseError,
         "non-finite numeric value 'inf' for _atom_site_fract (line 16)"),
    ], ids=["number-before-element", "element-before-number", "non-finite"])
    def test_the_first_bad_row_names_the_error(self, rows, error, message):
        # the site loop is read by columns; an error is the first row's, as
        # when it was read one row at a time
        text = CUBIC_NA.replace("Na1 Na 0.0 0.0 0.0\n", rows)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            parse_cif(text)

    PACKED = ("data_packed\n"
              "_cell_length_a 4.0 _cell_length_b 4.0 _cell_length_c 4.0\n"
              "_cell_angle_alpha 90 _cell_angle_beta 90 _cell_angle_gamma 90\n"
              "loop_\n"
              "_atom_site_label _atom_site_type_symbol _atom_site_fract_x _atom_site_fract_y "
              "_atom_site_fract_z\n"
              "Na1 Na 0 0 0 Cl1 Cl 0.5 bad 0.5\n")

    @pytest.mark.parametrize("text, error, message", [
        (PACKED, CifParseError, "cannot parse numeric value 'bad' for _atom_site_fract (line 6)"),
        (PACKED.replace("Cl1 Cl 0.5 bad", "Cl1 Cl\n0.5\nbad"), CifParseError,
         "cannot parse numeric value 'bad' for _atom_site_fract (line 8)"),
        (PACKED.replace("loop_", "_publ_section_comment\n;\ntwo\nlines\n;\nloop_")
         .replace("Cl1 Cl", "Cl1 Qq"), UnknownElementSymbol,
         "unknown element symbol 'Qq' on line 11"),
        (PACKED + "_chemical_name_common 'x y'\nloop_\n_a\n1\n", CifParseError,
         "cannot parse numeric value 'bad' for _atom_site_fract (line 6)"),
        (PACKED.replace("_atom_site_fract_z\n", "_atom_site_fract_z _atom_site_occupancy\n")
         .replace("0 0 0 Cl1", "0 0 0 1.0 Cl1").replace("bad 0.5", "0.5 0.5\n0.5"),
         CifParseError, "partial occupancy 0.5 on line 7 is not supported"),
    ], ids=["two-rows-on-a-line", "a-row-over-three-lines", "after-a-text-field", "more-after-the-loop",
            "occupancy"])
    def test_the_error_names_the_bad_values_line(self, text, error, message):
        # rows and tags need not have lines of their own
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            parse_cif(text)

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

    @pytest.mark.parametrize("op, why", [("x, x, z", "determinant 0"),
                                         ("0, y, z", "determinant 0"),
                                         ("2x, y, z", "determinant 2"),
                                         ("0.5x, y, z", "non-integer rotation")])
    def test_rejects_a_rotation_that_is_not_unimodular(self, op, why):
        # 'x, x, z' once turned a one-site CIF into two sites
        with pytest.raises(MalformedSymmetryOp, match=f"^symmetry op '{op}' has .*{why}"):
            parse_symmetry_op(op)

    def test_hexagonal_rows_are_unimodular(self):
        rot, _ = parse_symmetry_op("-y, x-y, z")
        npt.assert_array_equal(rot, [[0, -1, 0], [1, -1, 0], [0, 0, 1]])

    @pytest.mark.parametrize("op", ["x+1" + "0" * 400 + ",y,z",
                                    "x, y+1" + "0" * 400 + "-1" + "0" * 400 + ", z"],
                             ids=["inf", "nan"])
    def test_rejects_a_translation_past_float_range(self, op):
        # 1e400 reads as inf, and inf - inf as nan
        message = f"symmetry op {op!r} has a non-finite translation"
        with pytest.raises(MalformedSymmetryOp, match=f"^{re.escape(message)}$"):
            parse_symmetry_op(op)

    def test_rejects_coefficients_that_cancel_past_float_range(self):
        # 1e400x - 1e400x reads as inf - inf: nan, not a rotation row of 0
        op = "1" + "0" * 400 + "x-1" + "0" * 400 + "x, y, z"
        with pytest.raises(MalformedSymmetryOp, match="has a non-integer rotation$"):
            parse_symmetry_op(op)

    def test_a_file_with_an_overflowing_translation_names_the_op(self):
        # once wrap_frac warned "invalid value encountered in subtract" and the
        # structure rejected its non-finite coordinates without naming the op
        op = "x+1" + "0" * 400 + ", y, z"
        with pytest.raises(MalformedSymmetryOp,
                           match=f"^symmetry op '{re.escape(op)}' has a non-finite translation$"):
            parse_cif(ROCK_SALT.replace("'x+1/2, y+1/2, z'", f"'{op}'"))


_OP_SETS = {
    "P-1": ["x, y, z", "-x, -y, -z"],
    "P2_1/c": ["x, y, z", "-x, y+1/2, -z+1/2", "-x, -y, -z", "x, -y+1/2, z+1/2"],
    "P6": ["x, y, z", "-y, x-y, z", "-x+y, -x, z", "-x, -y, z", "y, -x+y, z", "x-y, x, z"],
    "cubic subset": ["x, y, z", "z, x, y", "y, z, x", "-x, -y, z", "x+1/2, y+1/2, z",
                     "-x, -y, -z"],
}
_ELEMENTS = (8, 11, 17)


@st.composite
def _lattices(draw):
    if draw(st.booleans()):
        return draw(st.floats(3.0, 10.0)) * np.eye(3)
    lengths = [draw(st.floats(3.0, 10.0)) for _ in range(3)]
    angles = [draw(st.floats(70.0, 110.0)) for _ in range(3)]
    try:
        return _lattice_from_parameters(*lengths, *angles)
    except CifParseError:  # angles with no positive-volume cell
        assume(False)


_COORDINATES = st.one_of(
    st.floats(0.0, 1.0, exclude_max=True),
    st.sampled_from([0.0, 0.25, 0.5, 0.75]),  # special positions
    st.floats(-1e-4, 1e-4),  # within 1e-4 of a cell face, wrapped
)


@st.composite
def _asymmetric_units(draw, lattice):
    """Sites plus same-element copies 0, 0.5 and 2 tolerances away from some of them."""
    n = draw(st.integers(1, 6))
    numbers = [draw(st.sampled_from(_ELEMENTS)) for _ in range(n)]
    fracs = [[draw(_COORDINATES) for _ in range(3)] for _ in range(n)]
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, n - 1))
        direction = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(3)])
        assume(np.linalg.norm(direction) > 0.1)
        shift = draw(st.sampled_from([0.0, 0.5, 2.0])) * SYMMETRY_DEDUP_TOL
        cart = direction / np.linalg.norm(direction) * shift
        numbers.append(numbers[k])
        fracs.append(np.asarray(fracs[k]) + cart @ np.linalg.inv(lattice))
    return np.array(numbers, dtype=np.int64), wrap_frac(np.array(fracs, dtype=np.float64))


def _image_pair_distances(lattice, numbers, fracs, ops):
    """Every pair of images as (distance, same element), by the loop's own formula."""
    images = [(z, wrap_frac(rot @ f + trans)) for z, f in zip(numbers, fracs) for rot, trans in ops]
    pairs = []
    for a, (za, pa) in enumerate(images):
        for zb, pb in images[:a]:
            delta = pa - pb
            delta -= np.round(delta)
            pairs.append((np.linalg.norm(delta @ lattice), za == zb))
    return pairs


class TestExpandSymmetry:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data(), _lattices(), st.sampled_from(sorted(_OP_SETS)))
    def test_matches_the_loop_bit_for_bit(self, data, lattice, op_set):
        numbers, fracs = data.draw(_asymmetric_units(lattice))
        ops = [parse_symmetry_op(op) for op in _OP_SETS[op_set]]
        labels = [f"S{k}" for k in range(len(numbers))]
        pairs = _image_pair_distances(lattice, numbers, fracs, ops)
        # the array code sums the distance in another order: the two may
        # differ by an ulp, which matters only at the tolerance itself
        assume(all(abs(d - SYMMETRY_DEDUP_TOL) > 1e-12 for d, _ in pairs))
        if any(d < SYMMETRY_DEDUP_TOL and not same for d, same in pairs):
            with pytest.raises(CifParseError, match="different elements"):
                _expand_symmetry(lattice, numbers, fracs, ops, labels)
            return
        want_numbers, want_fracs = expand_symmetry_loop(lattice, numbers, fracs, ops)
        # small blocks put near pairs across block boundaries
        block = data.draw(st.sampled_from([1, 7, structure_io._PAIR_BLOCK]))
        with mock.patch.object(structure_io, "_PAIR_BLOCK", block):
            got_numbers, got_fracs = _expand_symmetry(lattice, numbers, fracs, ops, labels)
        assert got_numbers.dtype == want_numbers.dtype and got_fracs.dtype == want_fracs.dtype
        assert np.array_equal(got_numbers, want_numbers)
        assert np.array_equal(got_fracs, want_fracs)

    def test_first_image_wins(self):
        # the second site lies 0.6 tolerances from the first and from its own
        # translated image, which is 1.2 tolerances from the first: the loop
        # keeps site 0 and the translated image of site 1
        lattice = 10.0 * np.eye(3)
        step = 0.6 * SYMMETRY_DEDUP_TOL / 10.0
        fracs = np.array([[0.1, 0.1, 0.1], [0.1 + step, 0.1, 0.1]])
        ops = [(np.eye(3), np.zeros(3)), (np.eye(3), np.array([step, 0.0, 0.0]))]
        numbers = np.array([8, 8])
        got = _expand_symmetry(lattice, numbers, fracs, ops, ["O1", "O2"])
        want = expand_symmetry_loop(lattice, numbers, fracs, ops)
        assert len(got[0]) == 2
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_temporaries_stay_bounded(self):
        # 500 general sites x 8 ops = 4,000 images: all pair distances at
        # once would take 4000 * 4000 * 3 * 8 bytes, 384 MB
        rng = np.random.default_rng(0)
        ops = [parse_symmetry_op(op) for op in
               ("x, y, z", "-x, -y, z", "-x, y, -z", "x, -y, -z",
                "-x, -y, -z", "x, y, -z", "x, -y, z", "-x, y, z")]
        fracs = rng.uniform(0.01, 0.49, (500, 3))
        numbers = rng.choice(_ELEMENTS, 500)
        tracemalloc.start()
        try:
            got_numbers, _ = _expand_symmetry(40.0 * np.eye(3), numbers, fracs, ops,
                                              [str(k) for k in range(500)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(got_numbers) == 4000
        assert peak < 4_000_000


_IDENTITY = [(np.eye(3), np.zeros(3))]
# P1 rock salt with Cl1 on Na1's site and Na3 on Na2's
COINCIDENT_P1 = CUBIC_NA + "Cl1 Cl 0.0 0.0 0.0\nNa2 Na 0.5 0.5 0.5\nNa3 Na 0.5 0.5 0.5\n"
TWO_BLOCKS = ROCK_SALT.replace("5.64", "4.0") + CUBIC_NA.replace("data_na", "data_b").replace(
    "4.0", "7.5")


def _p1_rows(text):
    """The fractional coordinates a P1 CIF lists, as written."""
    rows = text.split("_atom_site_fract_z\n", 1)[1].splitlines()
    return np.array([[float(v) for v in row.split()[2:5]] for row in rows])


@st.composite
def _p1_structures(draw):
    """Structures whose sites all lie more than 2 tolerances apart."""
    lattice = draw(_lattices())
    n = draw(st.integers(1, 8))
    numbers = np.array([draw(st.sampled_from(_ELEMENTS)) for _ in range(n)], dtype=np.int64)
    fracs = np.array([[draw(_COORDINATES) for _ in range(3)] for _ in range(n)])
    pairs = _image_pair_distances(lattice, numbers, wrap_frac(fracs), _IDENTITY)
    assume(all(d > 2 * SYMMETRY_DEDUP_TOL for d, _ in pairs))
    return CrystalStructure(lattice=lattice, atomic_numbers=numbers, frac_coords=fracs)


class TestP1Files:
    """A file with no symmetry loop is read as the identity op: the same merge and clash rule."""

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_p1_structures())
    def test_distinct_sites_parse_as_written_bit_for_bit(self, s):
        text = structure_to_cif(s)
        got = parse_cif(text)
        raw = _p1_rows(text)
        wrapped = CrystalStructure(lattice=got.lattice, atomic_numbers=s.atomic_numbers,
                                   frac_coords=wrap_frac(raw))
        assert_same_structure(got, wrapped)
        numbers, fracs = expand_symmetry_loop(got.lattice, s.atomic_numbers, wrap_frac(raw),
                                              _IDENTITY)
        oracle = CrystalStructure(lattice=got.lattice, atomic_numbers=numbers, frac_coords=fracs)
        assert_same_structure(got, oracle)
        assert got.atomic_numbers.dtype == oracle.atomic_numbers.dtype
        assert got.frac_coords.dtype == oracle.frac_coords.dtype

    def test_a_site_listed_again_one_cell_over_is_one_site(self):
        s = parse_cif(CUBIC_NA + "Na2 Na 1.0 0.0 0.0\nCl1 Cl 0.5 0.5 0.5\n")
        npt.assert_array_equal(s.atomic_numbers, [11, 17])
        npt.assert_array_equal(s.frac_coords, [[0.0, 0.0, 0.0], [0.5, 0.5, 0.5]])

    def test_coincident_sites_of_different_elements_are_rejected(self, tmp_path):
        message = ("atom sites 'Na1' and 'Cl1' have symmetry images of different elements "
                   "within 0.001 angstrom")
        with pytest.raises(CifParseError, match=f"^{message}$"):
            parse_cif(COINCIDENT_P1)
        path = tmp_path / "s1.cif"
        path.write_text(COINCIDENT_P1, encoding="utf-8")
        with pytest.raises(CifParseError, match=f"^{re.escape(str(path))}: {message}$"):
            load_dataset(tmp_path)


class TestOneBlock:
    def test_a_second_data_block_is_rejected_naming_its_line(self, tmp_path):
        message = "second data block 'data_b' on line 24; the file holds one structure, opened on line 2"
        with pytest.raises(CifParseError, match=f"^{message}$"):
            parse_cif(TWO_BLOCKS)
        path = tmp_path / "s1.cif"
        path.write_text(TWO_BLOCKS, encoding="utf-8")
        with pytest.raises(CifParseError, match=f"^{re.escape(str(path))}: {message}$"):
            load_dataset(tmp_path)


_READ_NAMES = ("_cell_length_a", "_cell_length_b", "_cell_length_c", "_cell_angle_alpha",
               "_cell_angle_beta", "_cell_angle_gamma", "_atom_site_type_symbol",
               "_atom_site_label", "_atom_site_fract_x", "_atom_site_fract_y",
               "_atom_site_fract_z", "_atom_site_occupancy", "_space_group_symop_operation_xyz",
               "_symmetry_equiv_pos_as_xyz")
# tags, the other keywords, and values: bare, quoted, with quotes in mid-token or a comment
_TAGS = ("_", "_publ_author_name", "_Publ_Note", "_CELL_LENGTH_B", "_Atom_Site_Fract_X",
         *_READ_NAMES)
_KEYWORDS = ("loop_", "LOOP_", "data_a", "Data_", *_TAGS)
_VALUES = ("4.0", "0.5(3)", "Na1", "Cl", "x,y,z", "loop_x", "a_b", "O'Brien", 'say"s',
           "'x, y, z'", '"-x, # y, z"', "'it''s'", "''", '"', "'open to the end",
           "'_cell_length_c'", '"loop_"', "'data_q'", "#", "# a comment 'x'", "a#b", ";", "x;")
_SPACES = st.sampled_from([" ", "  ", "\t", "\xa0"])


def _joined(draw, pieces):
    line = draw(st.sampled_from(["", " "]))
    for piece in pieces:
        line += piece + draw(_SPACES)
    return line


@st.composite
def _cif_lines(draw):
    """A ``;`` text field (closed, or left open), a loop, or a line of tokens."""
    kind = draw(st.integers(0, 9))
    if kind == 0:
        body = draw(st.lists(st.sampled_from(["", "text 'x", "_cell_length_a 5", "loop_",
                                              "data_c", "# not a comment", " ;"]), max_size=3))
        closed = draw(st.integers(0, 9)) > 0
        close = [draw(st.sampled_from([";", "; after the close"]))] if closed else []
        return [draw(st.sampled_from([";", ";first line"])), *body, *close]
    if kind < 4:
        header = draw(st.lists(st.sampled_from(_TAGS), max_size=3))
        rows = draw(st.lists(st.lists(st.sampled_from(_VALUES), max_size=4), max_size=4))
        return [draw(st.sampled_from(["loop_", "LOOP_"])), *header,
                *(_joined(draw, row) for row in rows)]
    pieces = st.sampled_from(_KEYWORDS + _VALUES + _VALUES)
    return [_joined(draw, draw(st.lists(pieces, max_size=6)))]


def _once(lines):
    """The lines with each read name that comes again as a piece renamed to an unread one."""
    seen, out = set(), []
    for line in lines:
        words = re.split(r"(\s)", line)
        for k, word in enumerate(words):
            if word.lower() in _READ_NAMES:
                if word.lower() in seen:
                    words[k] = "_unread_name"
                seen.add(word.lower())
        out.append("".join(words))
    return out


def _rows(body, width):
    return [body[j:j + width] for j in range(0, len(body), width)] if width else []


class TestScan:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(_cif_lines(), max_size=25), st.sampled_from(["\n", "\r\n"]))
    def test_matches_the_token_by_token_scan(self, chunks, newline):
        text = newline.join(_once([line for chunk in chunks for line in chunk]))
        try:
            values, loops = scan_cif(text)
        except CifParseError as exc:
            with pytest.raises(CifParseError, match=f"^{re.escape(str(exc))}$"):
                _scan_cif(text)
            return
        got_values, got_loops = _scan_cif(text)
        assert got_values == values
        assert [(header, _rows(body, len(header)), line) for header, body, line in got_loops] \
            == loops

    def test_the_regex_and_str_split_agree_on_whitespace(self):
        # so a line with no quote splits into the regex's bare tokens
        chars = "".join(map(chr, range(0xD800))) + "".join(map(chr, range(0xE000, 0x110000)))
        assert re.findall(r"\s", chars) == [c for c in chars if c.isspace()]

    @settings(max_examples=300, deadline=None)
    @given(st.text(st.sampled_from(list("ab_;#.,(1") + [" ", "\t", "\xa0", "\x1f", "\u3000"])))
    def test_a_line_with_no_quote_splits_into_the_regex_tokens(self, line):
        matches = list(_CIF_TOKEN.finditer(line))
        assert all(m.group(3) is not None for m in matches)
        assert line.split() == [m.group(3) for m in matches]


class TestRepeatedNames:
    """A data name the parser reads may appear once: as a tag or in one loop header."""

    @pytest.mark.parametrize("tag", _READ_NAMES[:6])
    def test_a_cell_parameter_given_twice(self, tag):
        # once the later value won silently: a second _cell_length_a 9 gave a = 9
        text = CUBIC_NA.replace("loop_", f"{tag} 9\nloop_")
        first = 3 + _READ_NAMES.index(tag)
        with pytest.raises(CifParseError,
                           match=f"^data name {tag} is given twice, on lines {first} and 9$"):
            parse_cif(text)

    def test_names_that_differ_in_case_are_one_name(self):
        text = CUBIC_NA.replace("loop_", "_CELL_Length_A 9\nloop_")
        with pytest.raises(CifParseError,
                           match="^data name _cell_length_a is given twice, on lines 3 and 9$"):
            parse_cif(text)

    @pytest.mark.parametrize("column", _READ_NAMES[6:12])
    def test_an_atom_site_column_given_twice(self, column):
        text = CUBIC_NA.replace("_atom_site_fract_z\nNa1 Na 0.0 0.0 0.0",
                                "_atom_site_fract_z\n_atom_site_occupancy\nNa1 Na 0.0 0.0 0.0 1.0")
        text += f"loop_\n{column}\nCl1\n"
        first = 10 + ("_atom_site_label", "_atom_site_type_symbol", "_atom_site_fract_x",
                      "_atom_site_fract_y", "_atom_site_fract_z",
                      "_atom_site_occupancy").index(column)
        with pytest.raises(CifParseError,
                           match=f"^data name {column} is given twice, on lines {first} and 18$"):
            parse_cif(text)

    def test_a_second_atom_site_loop(self):
        # once the second loop was ignored, and its Cl site with it
        text = CUBIC_NA + "loop_\n" + CUBIC_NA.split("loop_\n", 1)[1].replace("Na", "Cl")
        with pytest.raises(CifParseError, match="^data name _atom_site_label is given twice, "
                                                "on lines 10 and 17$"):
            parse_cif(text)

    @pytest.mark.parametrize("tag", _READ_NAMES[12:])
    def test_a_symmetry_tag_given_twice(self, tag):
        text = ROCK_SALT.replace("_symmetry_equiv_pos_as_xyz", tag) + f"loop_\n{tag}\n'x, y, z'\n"
        with pytest.raises(CifParseError,
                           match=f"^data name {tag} is given twice, on lines 10 and 24$"):
            parse_cif(text)

    @pytest.mark.parametrize("loops", [
        "loop_\n_space_group_symop_operation_xyz\n_symmetry_equiv_pos_as_xyz\n"
        "'x, y, z' 'x, y, z'\n'-x, -y, -z' 'x, y, z'\n",
        "loop_\n_space_group_symop_operation_xyz\n'x, y, z'\n'-x, -y, -z'\n"
        "loop_\n_symmetry_equiv_pos_as_xyz\n'x, y, z'\n",
    ], ids=["one-loop", "two-loops"])
    def test_the_current_and_the_legacy_symmetry_tag_together(self, loops):
        # the current tag's ops are the ones applied
        one = CUBIC_NA.replace("Na1 Na 0.0 0.0 0.0", "Na1 Na 0.1 0.2 0.3")
        s = parse_cif(one.replace("loop_\n_atom_site_label", f"{loops}loop_\n_atom_site_label"))
        npt.assert_allclose(s.frac_coords, [[0.1, 0.2, 0.3], [0.9, 0.8, 0.7]])

    def test_a_name_the_parser_does_not_read_may_come_again(self):
        text = CUBIC_NA.replace("loop_", "_publ_author_name A\n_publ_author_name B\nloop_", 1)
        assert_same_structure(parse_cif(text), parse_cif(CUBIC_NA))


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

    def test_a_cif_that_is_not_utf8_names_the_file(self, tmp_path):
        _write_cifs(tmp_path, ["s1"])
        bad = tmp_path / "s2.cif"
        bad.write_bytes(CUBIC_NA.encode("utf-8") + b"\xff\xfe")
        index = tmp_path / "index.csv"
        index.write_text("s1,0.5\ns2,1.0\n", encoding="utf-8")
        message = f"{bad}: not UTF-8 text: byte 0xff at offset {len(CUBIC_NA.encode('utf-8'))}"
        for kwargs in ({"index_file": index}, {}):
            with pytest.raises(CifParseError, match=f"^{re.escape(message)}$"):
                load_dataset(tmp_path, **kwargs)

    def test_an_index_that_is_not_utf8_names_the_file(self, tmp_path):
        _write_cifs(tmp_path, ["s1", "s2"])
        index = tmp_path / "index.csv"
        index.write_bytes(b"s1,0.5\ns\xff,1.0\n")
        message = f"{index}: not UTF-8 text: byte 0xff at offset 8"
        with pytest.raises(UnparseableLabel, match=f"^{re.escape(message)}$"):
            load_dataset(tmp_path, index_file=index)

    @pytest.mark.parametrize("old, new, message", [
        ("_cell_length_a 4.0", "_cell_length_a 0", "cell lengths must be positive"),
        ("_cell_length_a 4.0", "_cell_length_a -4.0", "cell lengths must be positive"),
        ("_cell_angle_gamma 90.0", "_cell_angle_gamma 270", "lattice determinant"),
    ], ids=["zero-a", "negative-a", "left-handed"])
    def test_a_rejected_cell_names_the_file(self, tmp_path, old, new, message):
        _write_cifs(tmp_path, ["s1"])
        (tmp_path / "s2.cif").write_text(CUBIC_NA.replace(old, new), encoding="utf-8")
        index = tmp_path / "index.csv"
        index.write_text("s1,0.5\ns2,1.0\n", encoding="utf-8")
        for kwargs in ({"index_file": index}, {}):
            with pytest.raises(CifParseError, match=re.escape(f"s2.cif: {message}")):
                load_dataset(tmp_path, **kwargs)

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

    @pytest.mark.parametrize("entry_id", ["../x", "a/b", ""])
    def test_index_id_must_name_a_file_in_the_data_root(self, tmp_path, entry_id):
        # each id would read a file that exists, but not one directly under the root
        root = tmp_path / "root"
        (root / "a").mkdir(parents=True)
        _write_cifs(root, ["s1", "a/b", ""])
        _write_cifs(tmp_path, ["x"])
        index = tmp_path / "index.csv"
        index.write_text(f"s1,0.5\n{entry_id},1.0\n", encoding="utf-8")
        with pytest.raises(InvalidEntryId, match=re.escape(
                f"line 2 of {index}: entry id {entry_id!r} names no file in the data root")):
            load_dataset(root, index)

    @pytest.mark.parametrize("stem", ["..", "a\\b"])
    def test_stem_that_names_no_file_in_the_root_is_rejected(self, tmp_path, stem):
        (tmp_path / f"{stem}.cif").write_text(CUBIC_NA, encoding="utf-8")
        with pytest.raises(InvalidEntryId, match=re.escape(f"entry id {stem!r} names no file")):
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
