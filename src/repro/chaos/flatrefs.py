"""Flat CSR form for per-processor index lists.

The CHAOS layers pass "one list per processor" data around constantly
(reference lists, translations, localized indices).  ``FlatRefs`` is the
shared flat representation: ``(P + 1,)`` CSR bounds over one value
stream, so hot paths operate on single arrays while list consumers
slice zero-copy segments.  It lives below both ``ttable`` and
``localize`` so either layer can flatten or segment without duplicating
the conversion.

A stream is either *materialised* (one concatenated value array) or
*gathered* (each member read through an index array at the positions
of one iteration partition, the way an inspector's reference stream is
defined).  Both are read the same way, a block of positions at a time
(:meth:`FlatRefs.block`), so a consumer that walks the stream in
processor strips never needs the whole gathered stream in memory.
"""

from __future__ import annotations

import numpy as np


class FlatRefs:
    """Per-processor reference lists in flat CSR form.

    The stream stacks ``members`` lists back to back, every one laid out
    by the same ``bounds``: inside a member, processor ``p``'s slice is
    ``[bounds[p]:bounds[p+1]]`` of its ``bounds[-1]`` values.  One list
    per processor is the ``members == 1`` case; a coalesced pattern
    group (every pattern a gather over one iteration partition) has one
    member per pattern.

    A materialised stream holds ``values`` (every member, back to back);
    a gathered one (:meth:`gathered`) holds ``sources`` and
    ``positions`` instead, and its ``values`` is ``None``.
    """

    __slots__ = ("values", "bounds", "members", "sources", "positions")

    def __init__(self, values: np.ndarray, bounds: np.ndarray, members: int = 1):
        self.values = np.asarray(values, dtype=np.int64)
        self.bounds = np.asarray(bounds, dtype=np.int64)
        self.members = members
        self.sources = None
        self.positions = None

    @classmethod
    def gathered(
        cls, sources: list, positions: np.ndarray, bounds: np.ndarray
    ) -> "FlatRefs":
        """The stream whose member ``j`` holds ``sources[j][positions]``
        (``positions`` itself where ``sources[j]`` is ``None``), never
        assembled: :meth:`block` gathers the positions it is asked for."""
        refs = cls.__new__(cls)
        refs.values = None
        refs.bounds = np.asarray(bounds, dtype=np.int64)
        refs.members = len(sources)
        refs.sources = sources
        refs.positions = positions
        return refs

    @classmethod
    def from_lists(cls, ref_lists: "list[np.ndarray] | FlatRefs") -> "FlatRefs":
        if isinstance(ref_lists, FlatRefs):
            return ref_lists
        arrays = [np.asarray(r, dtype=np.int64) for r in ref_lists]
        bounds = np.zeros(len(arrays) + 1, dtype=np.int64)
        np.cumsum([a.size for a in arrays], out=bounds[1:])
        values = (
            np.concatenate(arrays) if bounds[-1] else np.empty(0, dtype=np.int64)
        )
        return cls(values, bounds)

    def check(self) -> None:
        """Raise ``ValueError`` unless ``bounds`` is a CSR over one member
        and the stream has the size it implies."""
        b = self.bounds
        if b.ndim != 1 or not b.size or b[0] != 0 or (b[1:] < b[:-1]).any():
            raise ValueError(
                f"reference bounds must start at 0 and never decrease; got {b}"
            )
        if self.values is None:
            if self.members < 1 or self.positions.shape != (b[-1],):
                raise ValueError(
                    f"{self.positions.size} gather positions for {self.members} "
                    f"member(s) of {int(b[-1])} references each (bounds[-1])"
                )
            sizes = [s.size for s in self.sources if s is not None]
            pos = self.positions
            if sizes and pos.size and (pos.min() < 0 or pos.max() >= min(sizes)):
                raise ValueError(
                    f"gather positions span [{int(pos.min())}, {int(pos.max())}]; "
                    f"the shortest source holds {min(sizes)} values"
                )
        elif self.members < 1 or self.values.shape != (self.members * b[-1],):
            raise ValueError(
                f"{self.values.size} reference values for {self.members} "
                f"member(s) of {int(b[-1])} references each (bounds[-1])"
            )

    @property
    def n_procs(self) -> int:
        return len(self.bounds) - 1

    def sizes(self) -> np.ndarray:
        """References each processor holds in *one* member."""
        return np.diff(self.bounds)

    def block(self, lo: int, hi: int) -> np.ndarray:
        """Every member's values at positions ``[lo, hi)``, as a
        ``(members, hi - lo)`` array: a view of a materialised stream, a
        fresh gather of a gathered one.  Read-only use."""
        if self.values is not None:
            return self.values.reshape(self.members, -1)[:, lo:hi]
        pos = self.positions[lo:hi]
        out = np.empty((self.members, pos.size), dtype=np.int64)
        for row, source in zip(out, self.sources):
            if source is None:
                row[:] = pos
            else:
                # in range: check() bounded the positions by every source
                np.take(source, pos, out=row, mode="clip")
        return out
