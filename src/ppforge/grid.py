"""A sorted product grid of parameter tuples, held as its factors.

A sweep's grid is every (tag, d, k, u, v, r, c) tuple of a product: per
(tag, d, k, u, v) combo, every r and, within each r, every c.  Grid keeps it
as blocks (combo, rs, cs), with rs and cs sorted lists, neither empty.  It
has the tuple count as its length, iterates the same tuples in the same
order, and a slice by tuple index is a Grid of sub-blocks.  A slice cuts a
block into at most three that are again products: the tail of one r's c
list, whole r rows, and the head of one r's c list.  So a slice holds and
pickles its blocks' factors, never its tuples.
"""

from bisect import bisect_right
from itertools import accumulate, groupby
from operator import itemgetter


class Grid:
    __slots__ = ("blocks", "_starts")

    def __init__(self, blocks):
        self.blocks = blocks
        # each block's first tuple index, then the tuple count
        self._starts = list(accumulate((len(rs) * len(cs) for _, rs, cs in blocks), initial=0))

    @classmethod
    def of(cls, tuples):
        """The Grid of a sorted list of 7-tuples: one block per run of
        consecutive tuples that share (combo, r)."""
        return cls([(key[:5], [key[5]], [tup[6] for tup in run])
                    for key, run in groupby(tuples, itemgetter(0, 1, 2, 3, 4, 5))])

    def __len__(self):
        return self._starts[-1]

    def __iter__(self):
        for combo, rs, cs in self.blocks:
            for r in rs:
                for c in cs:
                    yield (*combo, r, c)

    def __getitem__(self, index):
        """The Grid of the tuples in the slice index, whose step must be 1."""
        start, stop, step = index.indices(len(self))
        if step != 1:
            raise ValueError("a Grid slices with step 1 only")
        blocks = []
        for i in range(bisect_right(self._starts, start) - 1, len(self.blocks)):
            base, end = self._starts[i], self._starts[i + 1]
            lo, hi = max(start, base), min(stop, end)
            if lo >= hi:
                break
            combo, rs, cs = self.blocks[i]
            ra, ca = divmod(lo - base, len(cs))
            rb, cb = divmod(hi - base, len(cs))
            if ra == rb:
                blocks.append((combo, rs[ra:ra + 1], cs[ca:cb]))
                continue
            if ca:
                blocks.append((combo, rs[ra:ra + 1], cs[ca:]))
                ra += 1
            if ra < rb:
                blocks.append((combo, rs[ra:rb], cs))
            if cb:
                blocks.append((combo, rs[rb:rb + 1], cs[:cb]))
        return Grid(blocks)

    def chunks(self, size):
        """The contiguous slices of size tuples that cover the grid, in
        order, the last one short."""
        return [self[i:i + size] for i in range(0, len(self), size)]
