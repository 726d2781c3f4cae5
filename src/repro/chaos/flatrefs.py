"""Flat CSR form for per-processor index lists.

The CHAOS layers pass "one list per processor" data around constantly
(reference lists, translations, localized indices).  ``FlatRefs`` is the
shared flat representation: one concatenated value array plus ``(P + 1,)``
CSR bounds, so hot paths operate on single arrays while list consumers
slice zero-copy segments.  It lives below both ``ttable`` and
``localize`` so either layer can flatten or segment without duplicating
the conversion.
"""

from __future__ import annotations

import numpy as np


class FlatRefs:
    """Per-processor reference lists in flat CSR form.

    ``values`` stacks ``members`` lists back to back, every one laid out
    by the same ``bounds``: inside a member, processor ``p``'s slice is
    ``[bounds[p]:bounds[p+1]]`` of its ``bounds[-1]`` values.  One list
    per processor is the ``members == 1`` case; a coalesced pattern
    group (every pattern a gather over one iteration partition) has one
    member per pattern.  ``requesters``, when the caller already holds
    it, is the processor id of each position of one member.
    """

    __slots__ = ("values", "bounds", "members", "requesters")

    def __init__(
        self, values: np.ndarray, bounds: np.ndarray, members: int = 1, requesters=None
    ):
        self.values = np.asarray(values, dtype=np.int64)
        self.bounds = np.asarray(bounds, dtype=np.int64)
        self.members = members
        self.requesters = requesters

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
        and ``values`` / ``requesters`` have the sizes it implies."""
        b = self.bounds
        if b.ndim != 1 or not b.size or b[0] != 0 or (b[1:] < b[:-1]).any():
            raise ValueError(
                f"reference bounds must start at 0 and never decrease; got {b}"
            )
        if self.members < 1 or self.values.shape != (self.members * b[-1],):
            raise ValueError(
                f"{self.values.size} reference values for {self.members} "
                f"member(s) of {int(b[-1])} references each (bounds[-1])"
            )
        if self.requesters is not None and self.requesters.shape != (b[-1],):
            raise ValueError(
                f"{self.requesters.size} requester ids for {int(b[-1])} "
                "references per member (bounds[-1])"
            )

    @property
    def n_procs(self) -> int:
        return len(self.bounds) - 1

    def sizes(self) -> np.ndarray:
        """References each processor holds in *one* member."""
        return np.diff(self.bounds)
