"""The event stream's row blocks and the graphical walk's chunks, set in
turn for the tests that must read the same values under each.

``CHUNK_SIZES`` pairs a ``kmc._CHUNK_CELLS`` with a ``kmc._WALK_ROWS``.
Cells: 4 draws one clock per block, 2^15 is the library's value, and 2^40
draws every box in one block.  Rows: 1 and 3 end chunks inside every
window, 4096 is the library's value.  The pairs take each value once, not
every product: a window's values do not depend on its blocks, so the walk
never sees them, and the one-clock blocks are the slow case.
"""

import pytest

from isingkit import kmc

CHUNK_SIZES = ((4, 3), (1 << 15, 4096), (1 << 40, 1))


def chunk_sizes():
    """Set each pair of ``CHUNK_SIZES`` in turn, yielding it; the library's
    values are back once the loop ends."""
    for cells, rows in CHUNK_SIZES:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kmc, "_CHUNK_CELLS", cells)
            patch.setattr(kmc, "_WALK_ROWS", rows)
            yield cells, rows
