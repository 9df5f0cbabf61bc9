"""Cache-sized row blocks for the whole-population array passes.

At 10⁵–10⁶ participants a ``population × dims`` pass streams through DRAM
once per numpy call, and every intermediate is another matrix of that
size.  The array planes instead walk their matrices a block of rows at a
time: the few passes one step needs run back to back over rows that are
still in cache, and the temporaries are one block, not one population.
The block is fixed in *bytes*, so the row count follows the row width.
"""

from __future__ import annotations

from typing import Iterator

__all__ = ["BLOCK_BYTES", "block_rows", "row_blocks"]

#: One block: 128 KiB, the measured optimum of the gossip exchange, which
#: holds two (one per side): 64–256 KiB run within 10 % of it, 16 KiB and
#: 1 MiB or more 1.3–1.8× slower (docs/PERFORMANCE.md, "Population plane").
BLOCK_BYTES = 1 << 17


def block_rows(row_bytes: int) -> int:
    """Rows of ``row_bytes`` bytes per block (at least one)."""
    return max(1, BLOCK_BYTES // row_bytes)


def row_blocks(count: int, row_bytes: int) -> Iterator[slice]:
    """Consecutive slices covering ``range(count)``, one block each."""
    rows = block_rows(row_bytes)
    for start in range(0, count, rows):
        yield slice(start, start + rows)
