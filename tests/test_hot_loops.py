"""Functions run per walk step keep no cell variables.

A local that a nested function or (before Python 3.12) a comprehension
reads becomes a cell, and every access to it then goes through the cell
instead of the fast local slot.  Cells that crept into the recorder's
step once made it measurably slower, so the per-step functions (the
one-pass recorder, ``records._record_walk``, and the local-cover trial
loop, ``cover.local_cover_time``, among them), the check every outside
walk passes step by step, and the scalar walk's row law
(``StepTable.law`` and ``walks._normalized``, run once per compiled
row, tens of thousands of times per reconstruction-fuzz pass) write
such code as plain loops.
The walk-tree enumeration runs no Python per node: its rows are compiled
a level at a time as arrays.
"""
import pytest

from walklab.cover import _cover_group, local_cover_time
from walklab.records import _record_walk, check_walk
from walklab.walks import PaddedRows, StepTable, _normalized

HOT = [
    _record_walk, check_walk, StepTable.steps, StepTable.law, _normalized,
    PaddedRows.draw, _cover_group, local_cover_time,
]


@pytest.mark.parametrize("fn", HOT, ids=lambda fn: fn.__qualname__)
def test_hot_function_has_no_cell_variables(fn):
    assert fn.__code__.co_cellvars == ()
