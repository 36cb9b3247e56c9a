"""The comparison ``tools/cli_chain.py`` makes between the two sides' outputs, and its inputs.

These tests build the two working directories by hand; none runs the chain.
"""

import importlib.util
from pathlib import Path

import pytest

from xtalssl import geometry
from xtalssl.geometry import NeighborConfig, build_neighbor_lists
from xtalssl.structure_io import parse_cif

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "cli_chain.py"
_spec = importlib.util.spec_from_file_location("cli_chain", SCRIPT)
cli_chain = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_chain)


def workdirs(tmp_path):
    """Both sides with the same three files, one of them in a subdirectory."""
    dirs = {}
    for side in cli_chain.SIDES:
        root = tmp_path / side
        (root / "pretrain").mkdir(parents=True)
        (root / "pretrain" / "report.json").write_text('{"best_epoch": 2}\n')
        (root / "pretrain" / "pretrain_best.ckpt").write_bytes(bytes(range(256)))
        (root / "graphs.jsonl").write_text("{}\n")
        dirs[side] = str(root)
    return dirs


def test_identical_trees_exit_0(tmp_path, capsys):
    assert cli_chain.compare(workdirs(tmp_path)) == 0
    assert capsys.readouterr().out == "all 3 files identical\n"


@pytest.mark.parametrize("side", ["parent", "change"])
def test_one_differing_byte_is_named(tmp_path, capsys, side):
    dirs = workdirs(tmp_path)
    ckpt = Path(dirs[side]) / "pretrain" / "pretrain_best.ckpt"
    blob = bytearray(ckpt.read_bytes())
    blob[100] ^= 1
    ckpt.write_bytes(bytes(blob))
    assert cli_chain.compare(dirs) == 1
    assert capsys.readouterr().out == "differs: pretrain/pretrain_best.ckpt\n"


@pytest.mark.parametrize("side", ["parent", "change"])
def test_a_file_on_one_side_only_is_named(tmp_path, capsys, side):
    dirs = workdirs(tmp_path)
    (Path(dirs[side]) / "pretrain" / "pretrain_final.ckpt").write_bytes(b"XTSL")
    assert cli_chain.compare(dirs) == 1
    assert capsys.readouterr().out == f"only in {side}: pretrain/pretrain_final.ckpt\n"


def test_the_mixed_straggler_searches_its_whole_block_again(tmp_path, monkeypatch):
    # the chain's only input whose first pass falls short: 33 sites kept by
    # the parser, a first pass of 27 images, then the whole block of 125
    cli_chain.write_cifs(str(tmp_path / "mixed"), cli_chain._mixed_cifs())
    s = parse_cif((tmp_path / "mixed" / "f-straggler.cif").read_text())
    assert s.n_sites == 33
    calls = []
    dense = geometry._pairs_within

    def counted(sites, image_carts, cols, images, *args):
        calls.append(images.shape[1])
        return dense(sites, image_carts, cols, images, *args)

    monkeypatch.setattr(geometry, "_pairs_within", counted)
    build_neighbor_lists([s], NeighborConfig())
    assert calls == [27, 125]


def test_the_dressed_cell_parses_as_its_plain_twin(tmp_path):
    # comments, quotes, a text field, a value on a later line, uncertainties,
    # an occupancy column and decorated symbols change no bit of the structure
    cli_chain.write_sym(str(tmp_path / "sym"))
    assert sorted(p.name for p in (tmp_path / "sym").iterdir()) == [
        "dressed.cif", "p-1.cif", "p-3.cif", "p21c.cif"]
    ops = ["x, y, z", "-y, x-y, z", "-x+y, -x, z", "-x, -y, -z", "y, -x+y, -z", "x-y, x, -z"]
    plain = {"plain": ((5.035, 5.035, 13.772, 90, 90, 120.0), ops,
                       ["Fe1 Fe 0 0 0.35530", "O1 O 0.3059 0 0.25"])}
    cli_chain.write_cifs(str(tmp_path / "plain"), plain)
    got = parse_cif((tmp_path / "sym" / "dressed.cif").read_text())
    want = parse_cif((tmp_path / "plain" / "plain.cif").read_text())
    assert got.n_sites == 8
    for name in ("lattice", "atomic_numbers", "frac_coords"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
