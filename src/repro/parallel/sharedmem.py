"""Shared-memory ndarray broadcast for the parallel probe backend.

One :class:`SharedArrayStore` owns a single ``multiprocessing``
shared-memory block holding every array of a broadcast — the frozen
model state plus the pinned probe batches — packed back to back at
64-byte-aligned offsets.  The layout is described by a JSON-able
*manifest* (``[{key, dtype, shape, offset}, ...]``) that travels over
the command queue; workers attach by name and rebuild zero-copy ndarray
views from the manifest.

The block is reused across broadcasts as long as the layout signature
(keys, dtypes, shapes) is unchanged — the common case, since a CCQ
model's parameter set is fixed — so steady-state broadcast cost is one
``memcpy`` of the state into an already-mapped block, with no
allocation, no pickling of array payloads, and no per-worker copy.
"""

from __future__ import annotations

from multiprocessing import shared_memory
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = ["SharedArrayStore", "attach_arrays", "views_from"]

# Offsets are aligned generously so every array starts on a cache-line
# (and any-dtype) boundary regardless of the preceding array's size.
_ALIGN = 64

Manifest = List[Dict[str, object]]


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _layout_signature(
    arrays: Dict[str, np.ndarray]
) -> Tuple[Tuple[str, str, Tuple[int, ...]], ...]:
    return tuple(
        (key, a.dtype.str, tuple(a.shape)) for key, a in arrays.items()
    )


class SharedArrayStore:
    """Parent-side owner of one shared-memory broadcast block."""

    def __init__(self) -> None:
        self._shm: Optional[shared_memory.SharedMemory] = None
        self._layout: Optional[tuple] = None
        self._manifest: Manifest = []

    @property
    def name(self) -> Optional[str]:
        return self._shm.name if self._shm is not None else None

    @property
    def manifest(self) -> Manifest:
        return self._manifest

    def ensure(
        self, arrays: Dict[str, np.ndarray]
    ) -> Tuple[str, Manifest, bool]:
        """Pack ``arrays`` into the block, (re)creating it only on a
        layout change.

        Returns ``(shm_name, manifest, remapped)``; ``remapped`` tells
        the caller the block is a *new* segment (workers must re-attach
        instead of reusing their existing views).
        """
        contiguous = {
            key: np.ascontiguousarray(a) for key, a in arrays.items()
        }
        layout = _layout_signature(contiguous)
        remapped = self._shm is None or layout != self._layout
        if remapped:
            self.unlink()
            manifest: Manifest = []
            offset = 0
            for key, a in contiguous.items():
                offset = _aligned(offset)
                manifest.append({
                    "key": key,
                    "dtype": a.dtype.str,
                    "shape": list(a.shape),
                    "offset": offset,
                })
                offset += a.nbytes
            self._shm = shared_memory.SharedMemory(
                create=True, size=max(offset, 1)
            )
            self._layout = layout
            self._manifest = manifest
        assert self._shm is not None
        for entry, a in zip(self._manifest, contiguous.values()):
            view = np.ndarray(
                a.shape, dtype=a.dtype,
                buffer=self._shm.buf, offset=int(entry["offset"]),
            )
            np.copyto(view, a)
            del view  # release the buffer export before any future close
        return self._shm.name, self._manifest, remapped

    def unlink(self) -> None:
        """Close and remove the segment (safe to call repeatedly)."""
        if self._shm is None:
            return
        try:
            self._shm.close()
        except (OSError, BufferError):
            pass
        try:
            self._shm.unlink()
        except (FileNotFoundError, OSError):
            pass
        self._shm = None
        self._layout = None
        self._manifest = []

    def __del__(self) -> None:  # best-effort: the pool also unlinks
        try:
            self.unlink()
        except Exception:
            pass


def attach_arrays(
    name: str, manifest: Manifest
) -> Tuple[shared_memory.SharedMemory, Dict[str, np.ndarray]]:
    """Worker-side attach: map the named segment and rebuild the views.

    Returns the mapped segment (the caller must keep it alive while the
    views are in use, and ``close()`` it afterwards) and a ``{key:
    ndarray}`` dict of zero-copy views per the manifest.
    """
    try:
        # ``track=False`` (3.13+) keeps the attaching process's resource
        # tracker out of a segment it does not own; the creating parent
        # is the sole unlinker.
        shm = shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        # Pre-3.13 the attach registers the segment with the resource
        # tracker.  Workers fork after the pool started the parent's
        # tracker, so that is the parent's own tracker: registering a
        # name twice is a no-op there, and the parent's unlink drops
        # it.  Unregistering here would drop the parent's registration
        # and make that unlink fail in the tracker with a KeyError.
        shm = shared_memory.SharedMemory(name=name)
    return shm, views_from(shm, manifest)


def views_from(
    shm: shared_memory.SharedMemory, manifest: Manifest
) -> Dict[str, np.ndarray]:
    """Rebuild the manifest's ndarray views over an already-mapped segment."""
    return {
        str(entry["key"]): np.ndarray(
            tuple(entry["shape"]),
            dtype=np.dtype(str(entry["dtype"])),
            buffer=shm.buf,
            offset=int(entry["offset"]),
        )
        for entry in manifest
    }
