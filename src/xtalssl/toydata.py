"""Synthetic perovskite-like toy datasets with an analytically known label.

Each structure is a cubic ABX3 cell: A at the corner, B at the body center,
X on the three face centers, lattice constant a drawn uniform in [3.5, 4.5]
angstrom, site elements drawn from fixed palettes.  The label is

    label = en_mean * (4.0 / a)**2,
    en_mean = (en(A) + en(B) + 3 * en(X)) / 5,

with en() the Pauling electronegativity of the element (values tabulated
below).  The label is a smooth deterministic function of composition and
lattice constant, so a model that sees the structure can in principle fit it
exactly — which is what makes the overfitting sanity checks meaningful.
"""

from __future__ import annotations

import contextlib
import os

import numpy as np

from .elements import SYMBOL_TO_Z
from .structure_io import CrystalStructure, Dataset, DatasetEntry, atomic_open, structure_to_cif

ELECTRONEGATIVITY = {
    "Cs": 0.79, "Rb": 0.82, "K": 0.82, "Na": 0.93, "Ba": 0.89,
    "Ti": 1.54, "Zr": 1.33, "Sn": 1.96, "Pb": 2.33, "Ge": 2.01,
    "O": 3.44, "S": 2.58, "Se": 2.55, "F": 3.98, "Cl": 3.16,
}

A_SITE = ("Cs", "Rb", "K", "Na", "Ba")
B_SITE = ("Ti", "Zr", "Sn", "Pb", "Ge")
X_SITE = ("O", "S", "Se", "F", "Cl")

_FRAC_COORDS = np.array([
    [0.0, 0.0, 0.0],  # A
    [0.5, 0.5, 0.5],  # B
    [0.5, 0.5, 0.0],  # X
    [0.5, 0.0, 0.5],  # X
    [0.0, 0.5, 0.5],  # X
])


def toy_label(sym_a: str, sym_b: str, sym_x: str, a: float) -> float:
    en_mean = (ELECTRONEGATIVITY[sym_a] + ELECTRONEGATIVITY[sym_b]
               + 3.0 * ELECTRONEGATIVITY[sym_x]) / 5.0
    return en_mean * (4.0 / a) ** 2


def toy_structure(sym_a: str, sym_b: str, sym_x: str, a: float) -> CrystalStructure:
    numbers = np.array([SYMBOL_TO_Z[sym_a], SYMBOL_TO_Z[sym_b]] + [SYMBOL_TO_Z[sym_x]] * 3,
                       dtype=np.int64)
    return CrystalStructure(lattice=a * np.eye(3), atomic_numbers=numbers,
                            frac_coords=_FRAC_COORDS.copy())


def gen_toy_dataset(n: int, seed: int) -> Dataset:
    """n labeled entries, deterministic in seed; ids toy_0000, toy_0001, ..."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    entries = []
    for i in range(n):
        a = float(rng.uniform(3.5, 4.5))
        sym_a = A_SITE[int(rng.integers(len(A_SITE)))]
        sym_b = B_SITE[int(rng.integers(len(B_SITE)))]
        sym_x = X_SITE[int(rng.integers(len(X_SITE)))]
        entries.append(DatasetEntry(
            id=f"toy_{i:04d}",
            structure=toy_structure(sym_a, sym_b, sym_x, a),
            label=toy_label(sym_a, sym_b, sym_x, a),
        ))
    return Dataset(entries=tuple(entries), kind="labeled")


def write_toy_dataset(data: Dataset, out_dir) -> str:
    """Write each entry's CIF, then index.csv, under out_dir; returns the index path.

    An earlier index.csv is removed before the first CIF, and each file is
    replaced only once complete, the index last.  So a cut-off write leaves
    no half-written file and no index that names another run's structures.
    """
    os.makedirs(out_dir, exist_ok=True)
    index_path = os.path.join(out_dir, "index.csv")
    with contextlib.suppress(FileNotFoundError):
        os.remove(index_path)
    for entry in data.entries:
        with atomic_open(os.path.join(out_dir, f"{entry.id}.cif")) as fh:
            fh.write(structure_to_cif(entry.structure, name=entry.id).encode("utf-8"))
    with atomic_open(index_path) as fh:
        fh.write("".join(f"{entry.id},{entry.label!r}\n" for entry in data.entries).encode("utf-8"))
    return index_path
