"""How every pass over tensors cuts them into blocks, and how per-block sums
add back up to a tensor's sum.

A pass reads, works on and writes at most `BLOCK` values at a time, so its
working memory is one block, whatever the size of the tensors. The cuts are
those of numpy's pairwise summation: `np.sum` over a contiguous float64
array of m > 128 values adds the sum of its first m//2 - (m//2) % 8 values
to the sum of the rest, recursively, down to leaves of at most 128 values.
A tensor's blocks are the nodes of that tree that hold at most `BLOCK`
values and whose parent holds more (a tensor of at most `BLOCK` values is
one block). So adding the `np.sum` of each block back up the same tree
(`TensorSum`) gives the bits of one `np.sum` over the whole tensor;
`tests/test_numpy_dependencies.py` pins the tree.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

BLOCK = 65_536


class Block(NamedTuple):
    """Values [start, stop) of tensor `name`, which holds `size` values."""

    name: str
    start: int
    stop: int
    size: int


def _half(count: int) -> int:
    """Where numpy's pairwise sum splits a node of `count` values."""
    return count // 2 - (count // 2) % 8


def blocks(name: str, size: int) -> Iterator[Block]:
    """The blocks of tensor `name` of `size` values, in order; a tensor of
    no values is one empty block."""

    def node(start: int, count: int) -> Iterator[Block]:
        if count <= BLOCK:
            yield Block(name, start, start + count, size)
            return
        half = _half(count)
        yield from node(start, half)
        yield from node(start + half, count - half)

    return node(0, size)


class TensorSum:
    """A tensor's `np.sum`, from the `np.sum` of each of its blocks, fed in
    order."""

    def __init__(self) -> None:
        self._partials: list[float] = []

    def add(self, block: Block, partial: float) -> float | None:
        """Take one block's sum; at the tensor's last block, return the
        tensor's sum, else None."""
        self._partials.append(partial)
        if block.stop < block.size:
            return None
        partials, self._partials = iter(self._partials), []

        def node(count: int) -> float:
            if count <= BLOCK:
                return next(partials)
            half = _half(count)
            return node(half) + node(count - half)

        return node(block.size)
