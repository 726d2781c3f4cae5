"""Distributed arrays: flat segmented storage with content-versioned views.

Layout
------
A ``DistArray`` stores every virtual processor's segment in **one
contiguous backing array** laid out CSR-style: processor ``p``'s segment
is ``backing[offsets[p]:offsets[p+1]]`` where ``offsets`` are the
distribution's cached :meth:`~repro.distribution.base.Distribution.flat_offsets`.
``local(p)`` hands out a *live slice view* of the backing (writes through
it hit the array), so the CHAOS runtime can pack/unpack/scatter with a
single fancy-index over the backing instead of a Python loop over
processors.

Versioning contract
-------------------
``version`` is a monotonically increasing content counter.  Every
mutating API bumps it: ``from_global``/``set_global``, ``global_set``,
``rebind_flat``, the runtime's direct backing writes
(schedule scatter, remap apply, executor merge), and — via a write
barrier on the view class — indexed assignment, in-place operators and
``ufunc``/``ufunc.at`` writes through views obtained from ``local(p)``.
``global_view()`` returns the assembled global array as a cached
*read-only* array; every bump drops the cached one (no inspection can
read a superseded view), so it is rebuilt only after ``version`` moved;
``to_global()`` returns a fresh writable copy of it.  The one documented
hole in the barrier: laundering a ``local(p)`` view through
``np.asarray``/``.view(np.ndarray)`` before writing bypasses the bump —
runtime code never does that, and external callers should mutate through
the documented APIs.

The inspector reads its indirection arrays through ``global_read()``:
the read-only backing itself when the layout is the identity (an array
on a BLOCK template is never assembled or copied), ``global_view()``
otherwise.  It finishes reading before anything writes the array.

The convenience accessors (``to_global`` / ``from_global`` /
``global_get`` / ``global_set``) exist for construction, verification
and tests, and deliberately charge *nothing* to the simulated machine.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.distribution.base import Distribution
from repro.machine.machine import Machine

_uid_counter = itertools.count(1)


class LocalSegmentView(np.ndarray):
    """A live, writable slice of a ``DistArray``'s backing storage.

    Acts as the write barrier of the versioning contract: indexed
    assignment, in-place operators, ufunc calls with this view as an
    ``out=`` target, and ``ufunc.at`` scatter updates all bump the
    owning array's content version.  Derived views (slices of slices)
    inherit the barrier through ``__array_finalize__``.
    """

    _owner: "DistArray | None"

    def __array_finalize__(self, obj) -> None:
        self._owner = getattr(obj, "_owner", None)

    def _touch(self) -> None:
        owner = self._owner
        if owner is not None:
            owner._bump()

    def __setitem__(self, key, value):
        self._touch()
        super().__setitem__(key, value)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        out = kwargs.get("out")
        writes = method == "at" and inputs and inputs[0] is self
        if out is not None:
            outs = out if isinstance(out, tuple) else (out,)
            writes = writes or any(o is self for o in outs)
        if writes:
            self._touch()

        # strip the barrier subclass and run the ufunc on plain views so
        # results don't inherit it (and ndarray's default dispatch, which
        # bails on mixed-override operands, is never consulted)
        def strip(x):
            return x.view(np.ndarray) if isinstance(x, LocalSegmentView) else x

        inputs = tuple(strip(x) for x in inputs)
        if out is not None:
            stripped = tuple(
                strip(o) for o in (out if isinstance(out, tuple) else (out,))
            )
            kwargs["out"] = stripped if isinstance(out, tuple) else stripped[0]
        return getattr(ufunc, method)(*inputs, **kwargs)


class DistArray:
    """A 1-D distributed array on a simulated machine (flat-backed)."""

    def __init__(
        self,
        machine: Machine,
        distribution: Distribution,
        dtype=np.float64,
        name: str | None = None,
        fill=0,
    ):
        if distribution.n_procs != machine.n_procs:
            raise ValueError(
                f"distribution spans {distribution.n_procs} processors, machine "
                f"has {machine.n_procs}"
            )
        self.machine = machine
        self.distribution = distribution
        self.dtype = np.dtype(dtype)
        self.uid = next(_uid_counter)
        self.name = name if name is not None else f"arr{self.uid}"
        self._offsets = distribution.flat_offsets()
        self._data = np.full(distribution.size, fill, dtype=self.dtype)
        self._version = 0
        #: global_view's cache; every content-version bump drops it
        self._global_cache: np.ndarray | None = None

    # -- construction ---------------------------------------------------------
    @classmethod
    def from_global(
        cls,
        machine: Machine,
        distribution: Distribution,
        values,
        name: str | None = None,
    ) -> "DistArray":
        """Scatter a global NumPy array into local segments (no cost charged)."""
        values = np.asarray(values)
        if values.ndim != 1:
            raise ValueError(f"expected a 1-D array, got shape {values.shape}")
        if values.size != distribution.size:
            raise ValueError(
                f"value count {values.size} != distribution size {distribution.size}"
            )
        arr = cls(machine, distribution, dtype=values.dtype, name=name)
        arr.set_global(values)
        return arr

    def set_global(self, values: np.ndarray) -> None:
        """Fill the backing from a global array (one permuted fancy-index)."""
        dist = self.distribution
        if dist.global_perm_is_identity():
            self._data[:] = values
        else:
            self._data[:] = values[dist.global_perm()]
        self._bump()

    # -- basic properties -------------------------------------------------------
    @property
    def size(self) -> int:
        return self.distribution.size

    @property
    def itemsize(self) -> int:
        return self.dtype.itemsize

    @property
    def version(self) -> int:
        """Content version: bumped by every mutation (see module docstring)."""
        return self._version

    def _bump(self) -> None:
        self._version += 1
        self._global_cache = None

    # -- local segment access ---------------------------------------------------
    def _check_proc(self, p: int) -> None:
        if not 0 <= p < self.machine.n_procs:
            raise ValueError(
                f"processor id {p} out of range [0, {self.machine.n_procs})"
            )

    def local(self, p: int) -> np.ndarray:
        """The local segment of processor ``p`` — a live, *writable* view.

        Writes through the returned view (indexed assignment, in-place
        ops, ``ufunc.at``) bump the content version via the
        :class:`LocalSegmentView` write barrier.
        """
        self._check_proc(p)
        view = self._data[self._offsets[p] : self._offsets[p + 1]].view(
            LocalSegmentView
        )
        view._owner = self
        return view

    # -- flat backing access (runtime internals) --------------------------------
    @property
    def backing_ro(self) -> np.ndarray:
        """Read-only view of the whole flat backing array."""
        view = self._data[:]
        view.flags.writeable = False
        return view

    def backing_mut(self) -> np.ndarray:
        """The writable flat backing; bumps the content version.

        Callers (schedule scatter, remap apply, executor merge) mutate
        the returned array directly — the bump here is their barrier.
        """
        self._bump()
        return self._data

    # -- global views (test/verification helpers; charge nothing) -------------
    def global_view(self) -> np.ndarray:
        """The assembled global array as a cached **read-only** view.

        Recomputed lazily only when the content version moved; while the
        array is unmutated this is O(1) (the same object every call),
        which is what lets inspectors read indirection arrays once per
        run instead of re-assembling them per loop.  A write drops the
        cached view, so a superseded one lives only as long as a caller
        still holds it.
        """
        if self._global_cache is None:
            dist = self.distribution
            if dist.global_perm_is_identity():
                out = self._data.copy()
            else:
                out = self._data[dist.global_perm_inverse()]
            out.flags.writeable = False
            self._global_cache = out
        return self._global_cache

    def global_read(self) -> np.ndarray:
        """The global array for a read that ends before the next write:
        the read-only backing itself when the layout is the identity (no
        copy), else :meth:`global_view`.  The inspector reads its
        indirection arrays so."""
        if self.distribution.global_perm_is_identity():
            return self.backing_ro
        return self.global_view()

    def to_global(self) -> np.ndarray:
        """Assemble the global array (fresh writable copy of the cache)."""
        return self.global_view().copy()

    def global_get(self, gidx) -> np.ndarray:
        """Read values at global indices, regardless of owner."""
        g = self.distribution._check_gidx(gidx)
        if self.distribution.global_perm_is_identity():
            return self._data[g]
        return self._data[self.distribution.global_perm_inverse()[g]]

    def global_set(self, gidx, values) -> None:
        """Write values at global indices, regardless of owner."""
        g = self.distribution._check_gidx(gidx)
        vals = np.broadcast_to(np.asarray(values, dtype=self.dtype), g.shape)
        if self.distribution.global_perm_is_identity():
            self._data[g] = vals
        else:
            self._data[self.distribution.global_perm_inverse()[g]] = vals
        self._bump()

    # -- rebinding (used by CHAOS remap) ---------------------------------------
    def rebind_flat(self, distribution: Distribution, flat: np.ndarray) -> None:
        """Replace distribution and backing after a remap.

        ``flat`` is the new backing in segmented order.  Callers
        (``repro.chaos.remap``) are responsible for having moved the
        data and charged the machine; this only swaps the bindings,
        validating shapes.
        """
        if distribution.size != self.size:
            raise ValueError(
                f"remap changed array size: {self.size} -> {distribution.size}"
            )
        if distribution.n_procs != self.machine.n_procs:
            raise ValueError("remap distribution spans a different machine size")
        flat = np.ascontiguousarray(flat, dtype=self.dtype)
        if flat.shape != (self.size,):
            raise ValueError(
                f"flat backing has shape {flat.shape}, expected ({self.size},)"
            )
        self.distribution = distribution
        self._offsets = distribution.flat_offsets()
        self._data = flat
        self._bump()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DistArray({self.name!r}, size={self.size}, dtype={self.dtype}, "
            f"{self.distribution.kind})"
        )
