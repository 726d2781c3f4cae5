"""Fortran D templates: DECOMPOSITION / DISTRIBUTE / ALIGN.

A ``Decomposition`` is the named template of the paper's Figure 3/4: it
fixes a size and carries the current distribution; distributed arrays are
*aligned* with it and are remapped together when it is redistributed.
The actual data movement of a redistribution is performed by
``repro.chaos.remap`` (driven from ``repro.core``); this class only tracks
the template/alignment relationships and distribution identity.  The
relationship is one-way: the template lists its arrays, and an array
does not point back at its template, so a dropped program's arrays are
freed by reference counting rather than kept as a cycle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.distribution.base import Distribution

if TYPE_CHECKING:  # pragma: no cover
    from repro.distribution.distarray import DistArray


class Decomposition:
    """A distribution template that arrays align with."""

    def __init__(self, name: str, size: int):
        if size < 0:
            raise ValueError(f"negative decomposition size {size}")
        self.name = name
        self.size = int(size)
        self.distribution: Distribution | None = None
        self.arrays: list["DistArray"] = []

    # -- DISTRIBUTE ---------------------------------------------------------
    def distribute(self, dist: Distribution) -> None:
        """Set the template's (initial) distribution.

        Aligned arrays must not exist yet, or must already match; moving
        live data is ``REDISTRIBUTE``'s job, not ``DISTRIBUTE``'s.
        """
        if dist.size != self.size:
            raise ValueError(
                f"distribution size {dist.size} != decomposition {self.name!r} "
                f"size {self.size}"
            )
        for arr in self.arrays:
            if arr.distribution != dist:
                raise ValueError(
                    f"array {arr.name!r} is already aligned with {self.name!r}; "
                    "use REDISTRIBUTE to move live data"
                )
        self.distribution = dist

    # -- ALIGN ----------------------------------------------------------------
    def align(self, array: "DistArray") -> None:
        """Align a distributed array with this template."""
        if array.size != self.size:
            raise ValueError(
                f"array {array.name!r} has size {array.size}, decomposition "
                f"{self.name!r} has size {self.size}"
            )
        if self.distribution is None:
            raise ValueError(f"decomposition {self.name!r} has no distribution yet")
        if array.distribution != self.distribution:
            raise ValueError(
                f"array {array.name!r} distribution differs from decomposition "
                f"{self.name!r}; create it from the decomposition's distribution"
            )
        if array not in self.arrays:
            self.arrays.append(array)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = self.distribution.kind if self.distribution else "undistributed"
        return (
            f"Decomposition({self.name!r}, size={self.size}, {kind}, "
            f"{len(self.arrays)} arrays)"
        )
