"""The comparison ``tools/nl_compare.py`` makes between the two sides' dumps.

These tests build the two dumps in memory; none runs a search in a subprocess.
"""

import importlib.util
from pathlib import Path

import numpy as np

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "nl_compare.py"
_spec = importlib.util.spec_from_file_location("nl_compare", SCRIPT)
nl_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(nl_compare)


def dumps():
    """Both sides with the same three arrays, of three dtypes."""
    return {side: {"a/src": np.arange(6, dtype=np.int64),
                   "a/dist": np.linspace(1.0, 2.0, 6),
                   "b/src": np.arange(4, dtype=np.int32)} for side in nl_compare.SIDES}


def test_equal_dumps_exit_0(capsys):
    assert nl_compare.compare(dumps()) == 0
    assert capsys.readouterr().out == "0 of 3 arrays differ, 0 on one side only\n"


def test_one_byte_apart_is_named(capsys):
    sides = dumps()
    raw = bytearray(sides["change"]["a/dist"].tobytes())
    raw[13] ^= 1
    sides["change"]["a/dist"] = np.frombuffer(bytes(raw), dtype=np.float64)
    assert nl_compare.compare(sides) == 1
    assert capsys.readouterr().out == "differs: a/dist\n1 of 3 arrays differ, 0 on one side only\n"


def test_equal_values_of_another_dtype_or_shape_differ(capsys):
    sides = dumps()
    sides["change"]["a/src"] = sides["change"]["a/src"].astype(np.int32)
    sides["change"]["b/src"] = sides["change"]["b/src"].reshape(2, 2)
    assert nl_compare.compare(sides) == 1
    assert capsys.readouterr().out == ("differs: a/src\ndiffers: b/src\n"
                                       "2 of 3 arrays differ, 0 on one side only\n")


def test_an_array_on_one_side_only_is_named(capsys):
    sides = dumps()
    del sides["parent"]["b/src"]
    assert nl_compare.compare(sides) == 1
    assert capsys.readouterr().out == ("on one side only: b/src\n"
                                       "0 of 3 arrays differ, 1 on one side only\n")
