#!/usr/bin/env python3
"""Run the fixed-seed CLI chain from two checkouts and compare every output byte for byte.

    python3 tools/cli_chain.py --parent ../parent --change . [--one-core]

Both arguments are checkouts of this repository.  From each, in a fresh
working directory and at the same relative paths, every step runs as its
own ``python -m xtalssl.cli`` process on that checkout's ``src``:

    gen-toy --n 40 --seed 3, featurize, pretrain, finetune from
    pretrain_best.ckpt, evaluate, embed with each pretrain checkpoint, ablate,
    then featurize on three CIFs with symmetry loops, and on mixed cells

The toy CIFs are P1, which the parser expands by the identity op alone, so
the symmetry step is the one that compares the expansion under real
symmetry ops: the script writes a P-1, a P2_1/c and a P-3 cell (whose ops
have x-y rows), each with sites on special positions whose images merge,
into ``sym/`` before the chain starts.  The toy cells all have five sites,
so the last step is the one whose neighbor search mixes cell sizes: the
script also writes two toy cells, a one-atom cell, a jittered 2 x 2 x 2 toy
supercell, a 100-site triclinic cell and a straggler into ``mixed/``.  The
straggler is a 7.5 A cube with 32 sites near its origin and one at its
centre, whose nearest neighbors lie beyond its first-pass radius.  One
search packs the small cells into one kernel block, takes the 100-site
cell in blocks of rows, and searches the straggler's whole block again.

Each step runs with ``OPENBLAS_NUM_THREADS=1``.  Current versions pin the
BLAS to one thread inside each call anyway; the variable makes a checkout
from before that pin compute the same products, so the two still compare.

With ``--one-core`` each step of the change side runs pinned to one CPU
(``os.sched_setaffinity`` in the child before it starts the interpreter),
so its calls see one usable core and run without their worker thread.
Its outputs must still match the parent's byte for byte.

The script prints each file whose bytes differ or that only one side
wrote, and exits 1 if there is any; then it keeps the working directory
for inspection.  Otherwise it prints the number of identical files and
removes it.
"""

from __future__ import annotations

import argparse
import filecmp
import os
import random
import shutil
import subprocess
import sys
import tempfile

SIDES = ("parent", "change")
PRETRAIN = ["pretrain.epochs=2", "pretrain.batch=8", "pretrain.val_fraction=0.2"]
FINETUNE = ["finetune.epochs=3", "finetune.batch=8"]


def _sets(*settings: str) -> list[str]:
    return [arg for s in settings for arg in ("--set", s)]


_CIF_HEAD = """data_{name}
_cell_length_a {a}
_cell_length_b {b}
_cell_length_c {c}
_cell_angle_alpha {alpha}
_cell_angle_beta {beta}
_cell_angle_gamma {gamma}
loop_
_symmetry_equiv_pos_as_xyz
{ops}
loop_
_atom_site_label
_atom_site_type_symbol
_atom_site_fract_x
_atom_site_fract_y
_atom_site_fract_z
"""

# name: (a, b, c, alpha, beta, gamma), ops, sites; the first site of each
# lies on a special position, and P-3's (1/3, 2/3, z) is written to 6 digits,
# so its images merge only within the dedup tolerance
SYMMETRIC_CIFS = {
    "p-1": ((5.1, 5.6, 6.2, 78.0, 84.0, 71.0), ["x, y, z", "-x, -y, -z"],
            ["Na1 Na 0 0 0", "Cl1 Cl 0.31 0.22 0.47", "O1 O 0.71 0.13 0.19"]),
    "p21c": ((5.4, 6.3, 7.1, 90.0, 104.5, 90.0),
             ["x, y, z", "-x, y+1/2, -z+1/2", "-x, -y, -z", "x, -y+1/2, z+1/2"],
             ["Mg1 Mg 0.5 0 0.5", "Si1 Si 0.27 0.09 0.31", "O1 O 0.12 0.38 0.04"]),
    "p-3": ((5.0, 5.0, 5.5, 90.0, 90.0, 120.0),
            ["x, y, z", "-y, x-y, z", "-x+y, -x, z", "-x, -y, -z", "y, -x+y, -z", "x-y, x, -z"],
            ["Al1 Al 0 0 0", "O1 O 0.333333 0.666667 0.21", "Li1 Li 0.29 0.06 0.62"]),
}


def _mixed_cifs() -> dict:
    """Cells of 1, 5, 40, 100 and 33 sites, in ``SYMMETRIC_CIFS``' form; the same on every run."""
    rng = random.Random(7)
    toy = ["Cs 0 0 0", "Ti 0.5 0.5 0.5", "O 0.5 0.5 0", "O 0.5 0 0.5", "O 0 0.5 0.5"]

    def jittered(x: float, cells: int, width: float) -> str:
        return f"{(x + rng.uniform(-width, width)) / cells % 1.0:.6f}"

    supercell = [f"{z} {jittered(float(x) + i, 2, 0.01)} {jittered(float(y) + j, 2, 0.01)} "
                 f"{jittered(float(w) + k, 2, 0.01)}"
                 for i in (0, 1) for j in (0, 1) for k in (0, 1)
                 for z, x, y, w in (site.split() for site in toy)]
    triclinic = [f"{('Si', 'O', 'Mg', 'O')[(i + j + k) % 4]} {jittered(i + 0.5, 4, 0.08)} "
                 f"{jittered(j + 0.5, 5, 0.08)} {jittered(k + 0.5, 5, 0.08)}"
                 for i in range(4) for j in range(5) for k in range(5)]
    straggler = [f"C {rng.uniform(0.0, 0.1):.6f} {rng.uniform(0.0, 0.1):.6f} "
                 f"{rng.uniform(0.0, 0.1):.6f}" for _ in range(32)] + ["C 0.5 0.5 0.5"]
    cells = {
        "a-toy": ((4.1, 4.1, 4.1, 90.0, 90.0, 90.0), toy),
        "b-one-atom": ((3.2, 3.2, 3.2, 90.0, 90.0, 90.0), ["Na 0 0 0"]),
        "c-supercell": ((7.8, 7.8, 7.8, 90.0, 90.0, 90.0), supercell),
        "d-toy": ((4.4, 4.4, 4.4, 90.0, 90.0, 90.0), toy),
        "e-triclinic": ((6.1, 12.4, 15.2, 78.0, 97.0, 72.0), triclinic),
        "f-straggler": ((7.5, 7.5, 7.5, 90.0, 90.0, 90.0), straggler),
    }
    # P1, and each site labelled by its element and number
    return {name: (cell, ["x, y, z"], [f"{site.split()[0]}{i + 1} {site}"
                                       for i, site in enumerate(sites)])
            for name, (cell, sites) in cells.items()}


def write_cifs(out_dir: str, cifs: dict) -> None:
    """One CIF per entry of ``cifs``, which take ``SYMMETRIC_CIFS``' form."""
    os.makedirs(out_dir)
    for name, ((a, b, c, alpha, beta, gamma), ops, sites) in cifs.items():
        text = _CIF_HEAD.format(name=name, a=a, b=b, c=c, alpha=alpha, beta=beta, gamma=gamma,
                                ops="\n".join(f"'{op}'" for op in ops))
        with open(os.path.join(out_dir, f"{name}.cif"), "w", encoding="utf-8") as fh:
            fh.write(text + "\n".join(sites) + "\n")


STEPS = [
    ["gen-toy", "--n", "40", "--seed", "3", "--out", "data"],
    ["featurize", "--data-root", "data", "--out-dir", "featurize"],
    ["pretrain", "--data-root", "data", "--out-dir", "pretrain", *_sets(*PRETRAIN)],
    ["finetune", "--data-root", "data", "--index-file", "data/index.csv", "--out-dir", "finetune",
     "--init-checkpoint", "pretrain/pretrain_best.ckpt", *_sets(*FINETUNE)],
    ["evaluate", "--data-root", "data", "--index-file", "data/index.csv", "--out-dir", "evaluate",
     "--checkpoint", "finetune/finetune_model.ckpt"],
    ["embed", "--data-root", "data", "--out-dir", "embed_best",
     "--checkpoint", "pretrain/pretrain_best.ckpt"],
    ["embed", "--data-root", "data", "--out-dir", "embed_final",
     "--checkpoint", "pretrain/pretrain_final.ckpt"],
    ["ablate", "--data-root", "data", "--index-file", "data/index.csv", "--out-dir", "ablate",
     *_sets(*PRETRAIN, *FINETUNE)],
    ["featurize", "--data-root", "sym", "--out-dir", "featurize_sym"],
    ["featurize", "--data-root", "mixed", "--out-dir", "featurize_mixed"],
]


def run_chain(checkout: str, workdir: str, one_core: bool = False) -> None:
    """Every step from ``checkout`` in ``workdir``; with ``one_core``, each pinned to one CPU."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.path.join(checkout, "src"))
    os.makedirs(workdir)
    write_cifs(os.path.join(workdir, "sym"), SYMMETRIC_CIFS)
    write_cifs(os.path.join(workdir, "mixed"), _mixed_cifs())
    pin = None
    if one_core:
        cpu = min(os.sched_getaffinity(0))
        pin = lambda: os.sched_setaffinity(0, {cpu})  # noqa: E731
    for step in STEPS:
        cmd = [sys.executable, "-m", "xtalssl.cli", *step]
        proc = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True, text=True,
                              preexec_fn=pin)
        if proc.returncode != 0:
            raise RuntimeError(f"{checkout}: {' '.join(step)} exited with {proc.returncode}:\n"
                               f"{proc.stderr[-2000:]}")


def outputs(workdir: str) -> set[str]:
    return {os.path.relpath(os.path.join(root, name), workdir)
            for root, _, names in os.walk(workdir) for name in names}


def compare(workdirs: dict[str, str]) -> int:
    """Print each file whose bytes differ or that one side alone wrote; 1 if any, else 0.

    ``workdirs`` maps each of ``SIDES`` to its working directory.  When
    every file matches, it prints how many there are.
    """
    files = {side: outputs(workdirs[side]) for side in SIDES}
    differ = sorted(f for f in files["parent"] & files["change"]
                    if not filecmp.cmp(*(os.path.join(workdirs[s], f) for s in SIDES),
                                       shallow=False))
    for f in differ:
        print(f"differs: {f}")
    for side, other in (SIDES, SIDES[::-1]):
        for f in sorted(files[side] - files[other]):
            print(f"only in {side}: {f}")
    if differ or files["parent"] != files["change"]:
        return 1
    print(f"all {len(files['change'])} files identical")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--one-core", action="store_true",
                        help="run each step of the change side pinned to one CPU")
    args = parser.parse_args(argv)
    root = tempfile.mkdtemp(prefix="cli_chain_")
    workdirs = {side: os.path.join(root, side) for side in SIDES}
    for side in SIDES:
        run_chain(os.path.abspath(getattr(args, side)), workdirs[side],
                  args.one_core and side == "change")

    status = compare(workdirs)
    if status:
        print(f"outputs kept in {root}")
    else:
        shutil.rmtree(root)
    return status


if __name__ == "__main__":
    sys.exit(main())
