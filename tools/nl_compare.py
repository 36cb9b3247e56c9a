#!/usr/bin/env python3
"""Run the neighbor search from two checkouts and compare every array it returns, byte for byte.

    python3 tools/nl_compare.py --parent ../parent --change .

Both arguments are checkouts of this repository.  The script writes its
inputs once, as CIF files in a temporary directory: every benchmark
workload's crystals at seeds 0, 1 and 2 (``perfbench/workloads.py``) and
the mixed cells of ``tools/cli_chain.py``.  Then, from each checkout in
turn, one ``python3 tools/nl_compare.py --dump`` process on that
checkout's ``src`` parses them and searches them under each of
``CONFIGS``:

- ``build_neighbor_list``, one structure at a time
- ``build_neighbor_lists``, every structure in one call
- ``candidate_lists``, every structure in one call, at each of
  ``DISPLACEMENTS``

It prints how many arrays differ in dtype, shape or bytes, or are on one
side only, names the first few, and exits 1 if any do.  Each process runs
with ``OPENBLAS_NUM_THREADS=1``, as the CLI chain's steps do.
"""

from __future__ import annotations

import argparse
import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
CONFIGS = ((8.0, 12), (6.0, 20))
DISPLACEMENTS = (0.0, 0.05, 0.5)
SEEDS = (0, 1, 2)
ROOT = Path(__file__).resolve().parents[1]
LIST_FIELDS = ("src", "dst", "dist", "image")
CANDIDATE_FIELDS = ("inv_lattice", "src", "dst", "image", "n_candidates", "boundary", "counts",
                    "image_carts")
SHOWN = 10  # differing arrays named in the report


def write_inputs(out_dir: str) -> None:
    """One CIF per benchmark crystal of ``SEEDS`` and per mixed cell of the CLI chain."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tools")]
    import cli_chain
    import workloads

    cli_chain.write_cifs(out_dir, cli_chain._mixed_cifs())
    for name in workloads.SPECS:
        for seed in SEEDS:
            for item in workloads.make_items(name, seed):
                with open(os.path.join(out_dir, f"{item.id}-seed{seed}.cif"), "w",
                          encoding="utf-8") as fh:
                    fh.write(item.cif)


def dump(cif_dir: str) -> dict:
    """Every array the searches return for the CIFs in ``cif_dir``, by name; runs in a side's process."""
    from xtalssl.geometry import (NeighborConfig, build_neighbor_list, build_neighbor_lists,
                                  candidate_lists)
    from xtalssl.structure_io import parse_cif

    names = sorted(os.listdir(cif_dir))
    structures = []
    for name in names:
        with open(os.path.join(cif_dir, name), encoding="utf-8") as fh:
            structures.append(parse_cif(fh.read()))
    arrays = {}

    def add(prefix, values, fields):
        for name, value in zip(names, values):
            for field in fields:
                arrays[f"{prefix}/{name}/{field}"] = getattr(value, field)

    for cutoff, k in CONFIGS:
        cfg = NeighborConfig(cutoff=cutoff, max_neighbors=k)
        tag = f"cutoff={cutoff},k={k}"
        add(f"{tag}/one_by_one", [build_neighbor_list(s, cfg) for s in structures], LIST_FIELDS)
        add(f"{tag}/batched", build_neighbor_lists(structures, cfg), LIST_FIELDS)
        for max_disp in DISPLACEMENTS:
            add(f"{tag}/candidates,max_disp={max_disp}",
                candidate_lists(structures, cfg, max_disp), CANDIDATE_FIELDS)
    return arrays


def run_dump(checkout: str, cif_dir: str, out_file: str) -> dict:
    """``dump`` in a fresh process on ``checkout``'s ``src``."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.path.join(checkout, "src"))
    cmd = [sys.executable, os.path.abspath(__file__), "--dump", cif_dir, out_file]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: dump exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    with open(out_file, "rb") as fh:
        return pickle.load(fh)


def compare(dumps: dict[str, dict]) -> int:
    """Print how many arrays differ or are on one side only, naming the first few; 1 if any, else 0.

    ``dumps`` maps each of ``SIDES`` to its arrays by name.
    """
    parent, change = (dumps[side] for side in SIDES)
    differ = sorted(
        name for name in parent.keys() & change.keys()
        if (parent[name].dtype, parent[name].shape) != (change[name].dtype, change[name].shape)
        or parent[name].tobytes() != change[name].tobytes())
    one_side = sorted(parent.keys() ^ change.keys())
    for name in differ[:SHOWN]:
        print(f"differs: {name}")
    for name in one_side[:SHOWN]:
        print(f"on one side only: {name}")
    print(f"{len(differ)} of {len(parent.keys() | change.keys())} arrays differ, "
          f"{len(one_side)} on one side only")
    return 1 if differ or one_side else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", help="checkout of the parent commit")
    parser.add_argument("--change", help="checkout of the change")
    parser.add_argument("--dump", nargs=2, metavar=("CIF_DIR", "OUT"),
                        help="search the CIFs in CIF_DIR and pickle the arrays to OUT")
    args = parser.parse_args(argv)
    if args.dump:
        arrays = dump(args.dump[0])
        with open(args.dump[1], "wb") as fh:
            pickle.dump(arrays, fh, protocol=pickle.HIGHEST_PROTOCOL)
        return 0
    if not (args.parent and args.change):
        parser.error("give --parent and --change, or --dump")
    with tempfile.TemporaryDirectory(prefix="nl_compare_") as root:
        cif_dir = os.path.join(root, "cifs")
        write_inputs(cif_dir)
        dumps = {side: run_dump(os.path.abspath(getattr(args, side)), cif_dir,
                                os.path.join(root, f"{side}.pkl")) for side in SIDES}
    return compare(dumps)


if __name__ == "__main__":
    sys.exit(main())
