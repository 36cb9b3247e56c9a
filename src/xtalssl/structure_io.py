"""Crystal structure data model, CIF subset parsing, dataset loading, atomic writes.

The CIF reader honours cell parameters, atom_site loops and explicit
symmetry operator lists (``_space_group_symop_operation_xyz`` or the older
``_symmetry_equiv_pos_as_xyz``); everything else in the file is ignored.
A ``;``-delimited text field is one value, and a tag's value may sit on a
later line.
Structures are stored as a 3x3 lattice matrix (rows are the cell vectors
a, b, c in angstrom) plus fractional coordinates wrapped into [0, 1).
"""

from __future__ import annotations

import contextlib
import math
import os
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .elements import MAX_Z, SYMBOL_TO_Z, Z_TO_SYMBOL


class CifParseError(ValueError):
    """Base class for CIF parsing failures."""


class MissingCellParameter(CifParseError):
    pass


class MissingAtomLoop(CifParseError):
    pass


class UnknownElementSymbol(CifParseError):
    pass


class MalformedSymmetryOp(CifParseError):
    pass


class IndexReferencesMissingFile(ValueError):
    pass


class DuplicateId(ValueError):
    pass


class InvalidEntryId(ValueError):
    pass


class UnparseableLabel(ValueError):
    pass


class EmptyDataset(ValueError):
    pass


# periodic images closer than this (in angstrom) are considered the same site
SYMMETRY_DEDUP_TOL = 1e-3

_CELL_TAGS = (
    "_cell_length_a",
    "_cell_length_b",
    "_cell_length_c",
    "_cell_angle_alpha",
    "_cell_angle_beta",
    "_cell_angle_gamma",
)


@dataclass(frozen=True)
class CrystalStructure:
    """A periodic crystal: lattice matrix plus fractional atomic sites.

    ``lattice`` rows are the cell vectors in angstrom; ``atomic_numbers``
    holds Z in [1, 100]; ``frac_coords`` components lie in [0, 1).
    """

    lattice: np.ndarray
    atomic_numbers: np.ndarray
    frac_coords: np.ndarray

    def __post_init__(self):
        lattice = np.asarray(self.lattice, dtype=np.float64).reshape(3, 3)
        numbers = np.asarray(self.atomic_numbers, dtype=np.int64).reshape(-1)
        frac = np.asarray(self.frac_coords, dtype=np.float64).reshape(-1, 3)
        if numbers.shape[0] < 1:
            raise ValueError("structure must contain at least one site")
        if numbers.shape[0] != frac.shape[0]:
            raise ValueError("atomic_numbers and frac_coords disagree in length")
        if not (np.isfinite(lattice).all() and np.isfinite(frac).all()):
            raise ValueError("lattice and fractional coordinates must be finite")
        if not np.linalg.det(lattice) > 0:
            raise ValueError("lattice determinant (cell volume) must be positive")
        if numbers.min() < 1 or numbers.max() > MAX_Z:
            raise ValueError(f"atomic numbers must lie in [1, {MAX_Z}]")
        frac = wrap_frac(frac)
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "atomic_numbers", numbers)
        object.__setattr__(self, "frac_coords", frac)

    @property
    def n_sites(self) -> int:
        return self.atomic_numbers.shape[0]


@dataclass(frozen=True)
class DatasetEntry:
    id: str
    structure: CrystalStructure
    label: float | None = None


@dataclass(frozen=True)
class Dataset:
    entries: tuple[DatasetEntry, ...]
    kind: str  # "labeled" | "unlabeled"

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        if self.kind not in ("labeled", "unlabeled"):
            raise ValueError(f"bad dataset kind {self.kind!r}")
        ids = [e.id for e in self.entries]
        if len(set(ids)) != len(ids):
            raise DuplicateId("dataset ids must be unique")
        for e in self.entries:
            if self.kind == "labeled" and e.label is None:
                raise ValueError(f"entry {e.id!r} in labeled dataset has no label")
            if self.kind == "unlabeled" and e.label is not None:
                raise ValueError(f"entry {e.id!r} in unlabeled dataset carries a label")

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class SplitSpec:
    fractions: tuple[float, float, float]
    seed: int

    def __post_init__(self):
        f = tuple(float(x) for x in self.fractions)
        if len(f) != 3:
            raise ValueError(f"split needs three fractions (train, val, test), got {len(f)}")
        if any(x < 0 for x in f):
            raise ValueError("split fractions must be nonnegative")
        if abs(sum(f) - 1.0) > 1e-9:
            raise ValueError(f"split fractions must sum to 1, got {sum(f)}")
        object.__setattr__(self, "fractions", f)


def wrap_frac(frac: np.ndarray) -> np.ndarray:
    """Wrap fractional coordinates into [0, 1) as x - floor(x)."""
    return np.asarray(frac, dtype=np.float64) - np.floor(frac)


# ---------------------------------------------------------------------------
# CIF parsing


def _strip_uncertainty(token: str) -> str:
    # CIF numbers may carry a parenthesised standard uncertainty: 4.021(3)
    return re.sub(r"\(\d+\)$", "", token)


def _parse_float(token: str, tag: str) -> float:
    try:
        value = float(_strip_uncertainty(token))
    except ValueError:
        raise CifParseError(f"cannot parse numeric value {token!r} for {tag}") from None
    if not math.isfinite(value):
        raise CifParseError(f"non-finite numeric value {token!r} for {tag}")
    return value


# a quoted value runs to the same quote or the end of the line; a bare one to whitespace
_CIF_TOKEN = re.compile(r"""(['"])(.*?)(?:\1|$)|(\S+)""")


def _cif_tokens(text: str):
    """Yield (value, line_no, bare) for each CIF token.

    A ``;``-delimited text field (``;`` in column 0 opens and closes it) is
    one token; it and quoted values are never bare, so nothing in them
    reads as a tag or a keyword.  ``#`` starts a comment outside text fields.
    """
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        if lines[i].startswith(";"):
            start = i
            i += 1
            while i < len(lines) and not lines[i].startswith(";"):
                i += 1
            if i == len(lines):
                raise CifParseError(f"text field opened on line {start + 1} is never closed")
            yield "\n".join([lines[start][1:], *lines[start + 1:i]]).strip(), start + 1, False
        else:
            for m in _CIF_TOKEN.finditer(lines[i].split("#", 1)[0]):
                yield m.group(3) or m.group(2), i + 1, m.group(3) is not None
        i += 1


def _element_from_symbol(raw: str, line_no: int) -> int:
    # type_symbol / label values carry decorations: "Na1", "Fe3+", "O2-"
    m = re.match(r"^([A-Z][a-z]?)", raw)
    if m and m.group(1) in SYMBOL_TO_Z:
        return SYMBOL_TO_Z[m.group(1)]
    # single capital followed by a capital ("CL1") occasionally shows up
    m = re.match(r"^([A-Za-z]+)", raw)
    if m:
        cand = m.group(1).capitalize()
        if cand in SYMBOL_TO_Z:
            return SYMBOL_TO_Z[cand]
        if len(cand) >= 1 and cand[0] in SYMBOL_TO_Z and cand[:2] not in SYMBOL_TO_Z:
            return SYMBOL_TO_Z[cand[0]]
    raise UnknownElementSymbol(f"unknown element symbol {raw!r} on line {line_no}")


_SYMOP_TERM = re.compile(
    r"(?P<sign>[+-]?)\s*(?:"
    r"(?P<coef>\d+(?:\.\d+)?)(?:\s*\*\s*)?(?P<var1>[xyzXYZ])"
    r"|(?P<var2>[xyzXYZ])"
    r"|(?P<num>\d+(?:\.\d+)?)(?:\s*/\s*(?P<den>\d+(?:\.\d+)?))?"
    r")\s*"
)


def parse_symmetry_op(op: str) -> tuple[np.ndarray, np.ndarray]:
    """Parse an xyz-style symmetry operation into (rotation, translation).

    Accepts forms like "x,y,z", "-x, y+1/2, -z", "1/2+x, x-y, z".
    """
    parts = op.split(",")
    if len(parts) != 3:
        raise MalformedSymmetryOp(f"symmetry op {op!r} does not have 3 components")
    rot = np.zeros((3, 3), dtype=np.float64)
    trans = np.zeros(3, dtype=np.float64)
    axis = {"x": 0, "y": 1, "z": 2}
    for row, part in enumerate(parts):
        s = part.strip()
        if not s:
            raise MalformedSymmetryOp(f"empty component in symmetry op {op!r}")
        pos = 0
        while pos < len(s):
            m = _SYMOP_TERM.match(s, pos)
            if m is None or m.end() == pos:
                raise MalformedSymmetryOp(f"cannot parse symmetry op {op!r} near {s[pos:]!r}")
            sign = -1.0 if m.group("sign") == "-" else 1.0
            if m.group("var1") is not None:
                rot[row, axis[m.group("var1").lower()]] += sign * float(m.group("coef"))
            elif m.group("var2") is not None:
                rot[row, axis[m.group("var2").lower()]] += sign
            else:
                value = float(m.group("num"))
                if m.group("den") is not None:
                    den = float(m.group("den"))
                    if den == 0:
                        raise MalformedSymmetryOp(f"zero denominator in symmetry op {op!r}")
                    value /= den
                trans[row] += sign * value
            pos = m.end()
    return rot, trans


def _lattice_from_parameters(a, b, c, alpha, beta, gamma) -> np.ndarray:
    """Standard crystallographic cell: a along x, b in the xy-plane."""
    ar, br, gr = math.radians(alpha), math.radians(beta), math.radians(gamma)
    cos_a, cos_b, cos_g = math.cos(ar), math.cos(br), math.cos(gr)
    sin_g = math.sin(gr)
    if abs(sin_g) < 1e-12:
        raise CifParseError("degenerate cell: gamma is 0 or 180 degrees")
    cx = c * cos_b
    cy = c * (cos_a - cos_b * cos_g) / sin_g
    cz_sq = c * c - cx * cx - cy * cy
    if cz_sq <= 0:
        raise CifParseError("cell angles do not define a positive-volume cell")
    return np.array(
        [
            [a, 0.0, 0.0],
            [b * cos_g, b * sin_g, 0.0],
            [cx, cy, math.sqrt(cz_sq)],
        ],
        dtype=np.float64,
    )


def _scan_cif(text: str):
    """One pass over the tokens: tag/value pairs plus all loops.

    A tag takes the next token as its value, on its own line or a later
    one, unless that token is a tag or keyword.  Returns (values, loops)
    where loops is a list of (header_tags, rows, loop_line_no).  When a
    loop's value count is not a multiple of its tag count its last row is
    short; ``_check_rows`` rejects that in the loops the parser reads.
    """
    tokens = list(_cif_tokens(text))

    def keyword(k: int) -> bool:
        value, _, bare = tokens[k]
        lowered = value.lower()
        return bare and (value.startswith("_") or lowered == "loop_" or lowered.startswith("data_"))

    values: dict[str, str] = {}
    loops: list[tuple[list[str], list[list[str]], int]] = []
    k = 0
    while k < len(tokens):
        value, line_no, bare = tokens[k]
        k += 1
        if bare and value.lower() == "loop_":
            header: list[str] = []
            while k < len(tokens) and tokens[k][2] and tokens[k][0].startswith("_"):
                header.append(tokens[k][0].lower())
                k += 1
            body: list[str] = []
            while k < len(tokens) and not keyword(k):
                body.append(tokens[k][0])
                k += 1
            width = len(header)
            rows = [body[j:j + width] for j in range(0, len(body), width)] if width else []
            loops.append((header, rows, line_no))
        elif bare and value.startswith("_") and k < len(tokens) and not keyword(k):
            values[value.lower()] = tokens[k][0]
            k += 1
    return values, loops


def _check_rows(header: list[str], rows: list[list[str]], line_no: int) -> None:
    """Reject a loop whose last row lacks values (a missing coordinate, say)."""
    if rows and len(rows[-1]) != len(header):
        n_values = len(header) * (len(rows) - 1) + len(rows[-1])
        raise CifParseError(f"loop on line {line_no} has {n_values} values, "
                            f"not a multiple of its {len(header)} tags")


def parse_cif(text: str) -> CrystalStructure:
    """Parse a CIF document (subset) into a CrystalStructure.

    Requires the six cell parameters and an atom_site loop with element
    symbols and fractional coordinates.  When a
    ``_symmetry_equiv_pos_as_xyz`` or ``_space_group_symop_operation_xyz``
    loop is present every listed operation is applied to every site and
    duplicates within ``SYMMETRY_DEDUP_TOL`` angstrom (periodic distance)
    are merged.
    """
    values, loops = _scan_cif(text)

    cell = []
    for tag in _CELL_TAGS:
        if tag not in values:
            raise MissingCellParameter(f"missing cell parameter {tag}")
        cell.append(_parse_float(values[tag], tag))
    lattice = _lattice_from_parameters(*cell)

    atom_loop = None
    atom_line = 0
    for header, rows, line_no in loops:
        if any(h.startswith("_atom_site_fract") for h in header):
            atom_loop = (header, rows)
            atom_line = line_no
            break
    if atom_loop is None:
        raise MissingAtomLoop("no atom_site loop with fractional coordinates found")
    header, rows = atom_loop
    _check_rows(header, rows, atom_line)

    def col(name: str) -> int | None:
        return header.index(name) if name in header else None

    c_type = col("_atom_site_type_symbol")
    c_label = col("_atom_site_label")
    c_x, c_y, c_z = col("_atom_site_fract_x"), col("_atom_site_fract_y"), col("_atom_site_fract_z")
    c_occ = col("_atom_site_occupancy")
    if c_x is None or c_y is None or c_z is None:
        raise MissingAtomLoop("atom_site loop lacks _atom_site_fract_x/y/z")
    if c_type is None and c_label is None:
        raise MissingAtomLoop("atom_site loop lacks type_symbol and label columns")
    if not rows:
        raise MissingAtomLoop("atom_site loop contains no rows")

    numbers = []
    fracs = []
    for k, row in enumerate(rows):
        line_no = atom_line + len(header) + k + 1
        sym = row[c_type] if c_type is not None else row[c_label]
        numbers.append(_element_from_symbol(sym, line_no))
        fracs.append([_parse_float(row[c], f"_atom_site_fract (line {line_no})") for c in (c_x, c_y, c_z)])
        if c_occ is not None:
            occ = _parse_float(row[c_occ], f"_atom_site_occupancy (line {line_no})")
            if abs(occ - 1.0) > 1e-3:
                raise CifParseError(
                    f"partial occupancy {occ} on line {line_no} is not supported"
                )
    numbers = np.array(numbers, dtype=np.int64)
    fracs = wrap_frac(np.array(fracs, dtype=np.float64))

    sym_ops = None
    for header, rows, line_no in loops:
        for name in ("_symmetry_equiv_pos_as_xyz", "_space_group_symop_operation_xyz"):
            if name in header:
                _check_rows(header, rows, line_no)
                j = header.index(name)
                sym_ops = [row[j] for row in rows]
        if sym_ops is not None:
            break

    if sym_ops:
        ops = [parse_symmetry_op(op) for op in sym_ops]
        numbers, fracs = _expand_symmetry(lattice, numbers, fracs, ops)

    return CrystalStructure(lattice=lattice, atomic_numbers=numbers, frac_coords=fracs)


def _expand_symmetry(lattice, numbers, fracs, ops):
    """Apply every op to every site, merging periodic duplicates."""
    out_numbers: list[int] = []
    out_fracs: list[np.ndarray] = []
    for z, f in zip(numbers, fracs):
        for rot, trans in ops:
            pos = wrap_frac(rot @ f + trans)
            dup = False
            for m, q in zip(out_numbers, out_fracs):
                if m != z:
                    continue
                delta = pos - q
                delta -= np.round(delta)
                if np.linalg.norm(delta @ lattice) < SYMMETRY_DEDUP_TOL:
                    dup = True
                    break
            if not dup:
                out_numbers.append(int(z))
                out_fracs.append(pos)
    return np.array(out_numbers, dtype=np.int64), np.array(out_fracs, dtype=np.float64)


def structure_to_cif(s: CrystalStructure, name: str = "structure") -> str:
    """Serialize a structure as a minimal P1 CIF (round-trips via parse_cif)."""
    a, b, c = (float(np.linalg.norm(s.lattice[i])) for i in range(3))

    def angle(u, v):
        cosang = float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))
        return math.degrees(math.acos(max(-1.0, min(1.0, cosang))))

    alpha = angle(s.lattice[1], s.lattice[2])
    beta = angle(s.lattice[0], s.lattice[2])
    gamma = angle(s.lattice[0], s.lattice[1])
    lines = [
        f"data_{name}",
        f"_cell_length_a {a:.12f}",
        f"_cell_length_b {b:.12f}",
        f"_cell_length_c {c:.12f}",
        f"_cell_angle_alpha {alpha:.12f}",
        f"_cell_angle_beta {beta:.12f}",
        f"_cell_angle_gamma {gamma:.12f}",
        "loop_",
        "_atom_site_label",
        "_atom_site_type_symbol",
        "_atom_site_fract_x",
        "_atom_site_fract_y",
        "_atom_site_fract_z",
    ]
    for k in range(s.n_sites):
        sym = Z_TO_SYMBOL[int(s.atomic_numbers[k])]
        x, y, z = s.frac_coords[k]
        lines.append(f"{sym}{k + 1} {sym} {x:.12f} {y:.12f} {z:.12f}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# datasets


@contextlib.contextmanager
def naming(source, *errors: type[Exception]):
    """Re-raise any of ``errors`` with ``f"{source}: "`` in front, keeping its type."""
    try:
        yield
    except errors as exc:
        raise type(exc)(f"{source}: {exc}") from None


def _read_cif(path: Path) -> CrystalStructure:
    """parse_cif on a file; a CifParseError keeps its type and gains the path."""
    with naming(path, CifParseError):
        return parse_cif(path.read_text(encoding="utf-8"))


def load_dataset(root: str | Path, index_file: str | Path | None = None) -> Dataset:
    """Load CIF files under ``root``; with an "id,label" CSV, attach labels.

    Without an index every ``*.cif`` in root becomes an unlabeled entry
    whose id is the file stem; a stem with a comma or line break is rejected.
    With an index only the referenced files are loaded.  Entries are sorted by id.
    """
    root = Path(root)
    if not root.is_dir():
        raise FileNotFoundError(f"data root {root} is not a directory")
    if index_file is None:
        entries = []
        for path in sorted(root.glob("*.cif")):
            if set(path.stem) & set(",\r\n"):
                raise InvalidEntryId(f"{path}: entry id {path.stem!r} holds a comma or line break")
            entries.append(DatasetEntry(id=path.stem, structure=_read_cif(path)))
        if not entries:
            raise EmptyDataset(f"no .cif files under {root}")
        return Dataset(entries=tuple(entries), kind="unlabeled")

    index_file = Path(index_file)
    seen: set[str] = set()
    entries = []
    for line_no, line in enumerate(index_file.read_text(encoding="utf-8").splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise UnparseableLabel(f"line {line_no} of {index_file} is not 'id,label'")
        entry_id, label_str = parts[0].strip(), parts[1].strip()
        if entry_id in seen:
            raise DuplicateId(f"duplicate id {entry_id!r} on line {line_no} of {index_file}")
        seen.add(entry_id)
        try:
            label = float(label_str)
        except ValueError:
            label = math.nan
        if not math.isfinite(label):
            raise UnparseableLabel(
                f"label {label_str!r} for id {entry_id!r} on line {line_no} is not a finite number"
            )
        cif_path = root / f"{entry_id}.cif"
        if not cif_path.is_file():
            raise IndexReferencesMissingFile(f"index references missing file {cif_path}")
        entries.append(DatasetEntry(id=entry_id, structure=_read_cif(cif_path), label=label))
    if not entries:
        raise EmptyDataset(f"index file {index_file} lists no entries")
    entries.sort(key=lambda e: e.id)
    return Dataset(entries=tuple(entries), kind="labeled")


def split_dataset(d: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset, Dataset]:
    """Deterministic shuffle-then-partition split.

    Train and val take floor(fraction * N) entries each; the remainder
    goes to test.  The same (dataset, spec) always produces the same
    partition.
    """
    n = len(d)
    if n == 0:
        raise EmptyDataset("cannot split an empty dataset")
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    perm = rng.permutation(n)
    n_train = int(math.floor(spec.fractions[0] * n))
    n_val = int(math.floor(spec.fractions[1] * n))
    picks = [perm[:n_train], perm[n_train : n_train + n_val], perm[n_train + n_val :]]
    parts = []
    for idx in picks:
        parts.append(Dataset(entries=tuple(d.entries[i] for i in idx), kind=d.kind))
    return parts[0], parts[1], parts[2]


# ---------------------------------------------------------------------------
# output files


@contextlib.contextmanager
def atomic_open(path):
    """Binary file handle whose bytes replace ``path`` only when the block completes.

    The bytes go to a temporary file in the same directory, which
    ``os.replace`` then renames over ``path``.  An error in the block
    removes the temporary file and leaves an earlier ``path`` as it was.
    """
    head, tail = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
