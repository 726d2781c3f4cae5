"""Shared cache-key vocabulary for content-addressed host-side caches.

Every wall-clock cache in the runtime -- the persistent
:class:`~repro.chaos.transcache.TranslationCache` and
``DistArray.global_view`` (dropped by every version bump) -- keys cached
work the same way (and the
iteration partitioner groups its per-call owner rows by the same
distribution key):

* a **distribution key**: :meth:`Distribution.signature` -- ``(kind,
  size, n_procs)`` plus a content digest for irregular/explicit
  distributions, so remapping changes the key (the paper's DAD
  condition 1/2);
* a **content key**: a :class:`ContentKey` ``(uid, version)`` of the
  :class:`DistArray` providing values.  ``uid`` is the array's
  process-unique allocation id (never reused, unlike ``id()``),
  ``version`` the monotonic mutation counter PR 3 introduced -- every
  write path (``set_array_elements``, executor scatters through segment
  views, ``rebind_flat`` on redistribution) bumps it, which makes
  invalidation *exact*: equal keys imply bit-identical content (the
  paper's DAD condition 3).  A version never goes back, so a content
  key whose version is no longer the array's current one can never be
  built again: :meth:`TranslationCache.prune
  <repro.chaos.transcache.TranslationCache.prune>` finds such keys in
  its versions by type and drops their entries.

This module centralizes that vocabulary so the keying discipline is
written once; prior to PR 9 each cache hand-rolled its own
``(signature, version)`` pairs.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["ContentKey", "content_key", "dist_key", "source_key"]


class ContentKey(NamedTuple):
    """``(uid, version)`` of one ``DistArray``; compares and hashes like
    the plain tuple, and is told apart from other key parts by type."""

    uid: int
    version: int


def content_key(arr) -> ContentKey:
    """Identity + content token of one ``DistArray``: ``(uid, version)``.

    Equal keys guarantee bit-identical element values; any mutation
    (element writes, executor scatters, redistribution rebinds) bumps
    ``version`` and so changes the key.
    """
    return ContentKey(arr.uid, arr.version)


def dist_key(dist) -> tuple:
    """Layout token of one ``Distribution`` (its :meth:`signature`).

    Regular kinds are fully described by ``(kind, size, n_procs)``;
    irregular/explicit signatures append a content digest of the
    owner/offset maps, so two keys are equal iff every global index
    translates identically.
    """
    return dist.signature()


def source_key(arrays: dict, ref) -> tuple:
    """Token for the reference stream one ``ArrayRef`` generates.

    ``x(edge(i))`` dereferences ``edge``'s *values* against ``x``'s
    *distribution*; a direct reference ``x(i)`` dereferences the
    iteration index itself.  The token pins both inputs:
    ``("ind", content_key(edge), dist_key(x.dist))`` or
    ``("direct", dist_key(x.dist))``.  Two equal tokens make the owner
    row (and any translation derived from it) bit-identical.
    """
    dist = arrays[ref.array].distribution
    if ref.index is None:
        return ("direct", dist_key(dist))
    return ("ind", content_key(arrays[ref.index]), dist_key(dist))
