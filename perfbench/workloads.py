"""Seeded benchmark workloads, written out as CIF files plus an id,label index.

Every workload is a pure function of (name, seed): the same pair always
gives byte-identical CIF text.  The program under test only ever sees the
files written by :func:`write_workload`.

- ``toy5``: 5-atom cubic ABX3 cells built by ``toydata``.
  Small graphs, so fixed per-step and per-call costs dominate.
- ``super40``: 2x2x2 supercells of the toy cells with a small seeded
  jitter, so pair distances are not tied.  Graph convolution dominates.
- ``tric``: about 100-atom skewed triclinic cells written as an asymmetric
  unit plus a ``-x,-y,-z`` symmetry loop.  One short axis forces many
  periodic images, so the dense neighbor search dominates.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from xtalssl.structure_io import CrystalStructure, structure_to_cif
from xtalssl.toydata import A_SITE, B_SITE, ELECTRONEGATIVITY, X_SITE, toy_label, toy_structure


@dataclass(frozen=True)
class Spec:
    """Sizes of one workload: dataset size, per-phase batch and epochs, and calls."""

    n_train: int  # pretrain and finetune training crystals
    batch: int
    pretrain_epochs: int
    finetune_epochs: int
    # back-to-back calls of pretrain, finetune, embed and featurize in one
    # untraced round; each phase then gets about a quarter of the run.  A fixed
    # order and count give every call the same predecessors, and so the same
    # allocator state, in every run; 1 or at least 3, so the median call is
    # never split between the first call of a group and the later ones.
    calls: tuple[int, int, int, int]

    @property
    def n_total(self) -> int:
        # two held out for pretrain validation views, and one each for the
        # finetune validation and test splits
        return self.n_train + 2


SPECS = {
    "toy5": Spec(n_train=48, batch=16, pretrain_epochs=2, finetune_epochs=4, calls=(1, 1, 7, 3)),
    "super40": Spec(n_train=16, batch=16, pretrain_epochs=2, finetune_epochs=2,
                    calls=(1, 3, 8, 3)),
    "tric": Spec(n_train=8, batch=8, pretrain_epochs=2, finetune_epochs=2, calls=(1, 3, 8, 3)),
}


@dataclass(frozen=True)
class Item:
    id: str
    cif: str
    label: float


def _rng(name: str, seed: int) -> np.random.Generator:
    tag = sum(ord(c) * 31 ** k for k, c in enumerate(name)) % (2 ** 31)
    return np.random.default_rng(np.random.SeedSequence([seed, tag]))


def _stratified(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    """n draws from [lo, hi], one per equal-width stratum, in random order.

    Every seed then gets the same mix of cells that need few and many
    periodic images, so seeds differ in their inputs but not in their work.
    """
    return lo + (hi - lo) * (rng.permutation(n) + rng.uniform(size=n)) / n


def _toy_cells(n: int, seed: int) -> list[tuple[CrystalStructure, float]]:
    # toydata's cells and labels, with its uniform [3.5, 4.5] lattice
    # constant drawn stratified
    rng = _rng("toy", seed)
    cells = []
    for a in _stratified(rng, n, 3.5, 4.5):
        syms = [palette[int(rng.integers(len(palette)))] for palette in (A_SITE, B_SITE, X_SITE)]
        cells.append((toy_structure(*syms, float(a)), toy_label(*syms, float(a))))
    return cells


def _toy5(n: int, seed: int) -> list[Item]:
    return [Item(f"toy5_{i:04d}", structure_to_cif(s, name=f"toy5_{i:04d}"), label)
            for i, (s, label) in enumerate(_toy_cells(n, seed))]


_SHIFTS = np.array([[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)], dtype=np.float64)


def _super40(n: int, seed: int) -> list[Item]:
    rng = _rng("super40", seed)
    items = []
    for i, (base, label) in enumerate(_toy_cells(n, seed)):
        lattice = 2.0 * base.lattice
        frac = ((base.frac_coords[None, :, :] + _SHIFTS[:, None, :]) / 2.0).reshape(-1, 3)
        numbers = np.tile(base.atomic_numbers, len(_SHIFTS))
        jitter = rng.normal(scale=0.02, size=frac.shape) @ np.linalg.inv(lattice)
        s = CrystalStructure(lattice=lattice, atomic_numbers=numbers, frac_coords=frac + jitter)
        name = f"super40_{i:04d}"
        items.append(Item(name, structure_to_cif(s, name=name), label))
    return items


_TRIC_ELEMENTS = ("Na", "K", "Ba", "Ti", "Zr", "Sn", "O", "S", "F", "Cl")
_TRIC_HALF = 50  # asymmetric-unit sites; inversion doubles them
_TRIC_VOLUME_PER_SITE = 12.0  # cubic angstrom
_TRIC_MIN_SEP = 0.9  # angstrom between any two expanded sites


def _lattice(a, b, c, alpha, beta, gamma) -> np.ndarray:
    # same orientation convention as the CIF parser: a along x, b in xy
    ca, cb, cg = (math.cos(math.radians(t)) for t in (alpha, beta, gamma))
    sg = math.sin(math.radians(gamma))
    cx = c * cb
    cy = c * (ca - cb * cg) / sg
    return np.array([[a, 0.0, 0.0], [b * cg, b * sg, 0.0],
                     [cx, cy, math.sqrt(c * c - cx * cx - cy * cy)]])


def _far_enough(frac: np.ndarray, placed: np.ndarray, lattice: np.ndarray) -> bool:
    if not len(placed):
        return True
    delta = placed - frac
    delta -= np.round(delta)
    # nearest of the 27 neighbouring translations; enough to keep sites apart
    shifts = np.array([[i, j, k] for i in (-1, 0, 1) for j in (-1, 0, 1) for k in (-1, 0, 1)])
    cart = (delta[:, None, :] + shifts[None, :, :]) @ lattice
    return float(np.sqrt((cart * cart).sum(axis=-1)).min()) >= _TRIC_MIN_SEP


def _tric_cif(name, params, symbols, fracs) -> str:
    lines = [f"data_{name}"]
    for tag, value in zip(("length_a", "length_b", "length_c",
                           "angle_alpha", "angle_beta", "angle_gamma"), params):
        lines.append(f"_cell_{tag} {value:.10f}")
    lines += ["loop_", "_symmetry_equiv_pos_as_xyz", "'x, y, z'", "'-x, -y, -z'",
              "loop_", "_atom_site_label", "_atom_site_type_symbol",
              "_atom_site_fract_x", "_atom_site_fract_y", "_atom_site_fract_z"]
    for k, (sym, (x, y, z)) in enumerate(zip(symbols, fracs)):
        lines.append(f"{sym}{k + 1} {sym} {x:.10f} {y:.10f} {z:.10f}")
    return "\n".join(lines) + "\n"


def _tric(n: int, seed: int) -> list[Item]:
    rng = _rng("tric", seed)
    items = []
    for i, a in enumerate(_stratified(rng, n, 3.5, 5.0)):
        alpha, beta, gamma = rng.uniform(60.0, 80.0, size=3)
        unit = _lattice(1.0, 1.0, 1.0, alpha, beta, gamma)
        shape_volume = abs(float(np.linalg.det(unit)))
        ratio = rng.uniform(0.8, 1.25)
        # b * c fixed by the target volume, b / c = ratio
        bc = 2 * _TRIC_HALF * _TRIC_VOLUME_PER_SITE / (a * shape_volume)
        b, c = math.sqrt(bc * ratio), math.sqrt(bc / ratio)
        params = (a, b, c, alpha, beta, gamma)
        # round exactly as the CIF text does, so separations hold after parsing
        lattice = _lattice(*(float(f"{p:.10f}") for p in params))
        placed = np.zeros((0, 3))
        fracs, symbols = [], []
        while len(fracs) < _TRIC_HALF:
            f = np.array([float(f"{x:.10f}") for x in rng.uniform(0.0, 1.0, size=3)])
            pair = np.stack([f, -f])
            if _far_enough(f, placed, lattice) and _far_enough(-f, placed, lattice) \
                    and _far_enough(f, -f[None, :], lattice):
                placed = np.concatenate([placed, pair])
                fracs.append(f)
                symbols.append(_TRIC_ELEMENTS[int(rng.integers(len(_TRIC_ELEMENTS)))])
        en = np.mean([ELECTRONEGATIVITY[s] for s in symbols])
        label = float(en * (_TRIC_VOLUME_PER_SITE * 2 * _TRIC_HALF) / (a * b * c * shape_volume))
        name = f"tric_{i:04d}"
        items.append(Item(name, _tric_cif(name, params, symbols, fracs), label))
    return items


_GENERATORS = {"toy5": _toy5, "super40": _super40, "tric": _tric}


def make_items(name: str, seed: int) -> list[Item]:
    """The workload's crystals as CIF text, deterministic in (name, seed)."""
    return _GENERATORS[name](SPECS[name].n_total, seed)


def write_workload(items: list[Item], out_dir: str) -> str:
    """Write one CIF per item plus index.csv; returns the index path."""
    os.makedirs(out_dir, exist_ok=True)
    for item in items:
        with open(os.path.join(out_dir, f"{item.id}.cif"), "w", encoding="utf-8") as fh:
            fh.write(item.cif)
    index_path = os.path.join(out_dir, "index.csv")
    with open(index_path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{item.id},{item.label!r}\n" for item in items)
    return index_path

