"""Checkpoint serialization: save/load module state as ``.npz`` files.

Long CCQ runs (the `paper` scale) want restartable checkpoints.  A
checkpoint bundles the model's parameters and buffers (via
``Module.state_dict``) together with the per-layer bit configuration and
each quantizer's remaining state (LQ-Nets' fitted levels, LSQ's and
QIL's initialization flags), so a mixed-precision model reloads exactly
as it was saved.

Writes are crash-safe: the archive is serialized to a temporary file in
the target directory and renamed into place with ``os.replace``, so a
kill mid-write can never leave a torn ``.npz`` behind — the old
checkpoint (if any) survives intact until the new one is fully on disk.

Writes are also *integrity-checked*: every archive gets a ``.sha256``
sidecar (``sha256sum -c`` compatible), and :func:`verify_archive`
detects silent payload corruption — a flipped bit on disk, a truncated
copy — before a resume trusts the data.  Archives without a sidecar
(written before this scheme existed) are accepted as-is.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional, Union

import numpy as np

from .modules import Module
from .tensor import Tensor

__all__ = [
    "CheckpointError",
    "save_checkpoint",
    "load_checkpoint",
    "atomic_savez",
    "named_state_arrays",
    "digest_path",
    "file_sha256",
    "verify_archive",
]

_BITS_KEY = "__bit_config_json__"
# Archive keys "<prefix><layer>.<weight|act>.<attribute>" hold the
# quantizers' array state; their scalar state rides in the JSON meta.
_QUANTIZER_PREFIX = "__quantizer__."

DIGEST_SUFFIX = ".sha256"


class CheckpointError(RuntimeError):
    """A checkpoint cannot be restored into the given model.

    Raised with a human-readable description of the mismatch (e.g. the
    layer names / bit widths present on one side but not the other)
    instead of letting a bare ``KeyError`` escape from deep inside the
    state-dict machinery.
    """


def atomic_savez(path: Union[str, Path], **arrays: np.ndarray) -> None:
    """``np.savez_compressed`` with atomic-rename semantics.

    The archive is written to a temporary file in the same directory
    (same filesystem, so the rename is atomic), fsynced, and moved into
    place with ``os.replace``.  Readers either see the old complete file
    or the new complete file, never a partial write.
    """
    path = Path(path)
    directory = path.parent if str(path.parent) else Path(".")
    fd, tmp_name = tempfile.mkstemp(
        dir=str(directory), prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as f:
            # Writing to the file object (not a path) stops numpy from
            # appending its own ".npz" suffix to the temp name.
            np.savez_compressed(f, **arrays)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp_name, str(path))
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    # Sidecar after the rename: a crash in the gap leaves a fresh
    # archive with a stale/missing sidecar, which verification treats
    # as corrupt — the reader then falls back to the previous
    # generation instead of trusting unverifiable bytes.
    _write_digest(path)


def digest_path(path: Union[str, Path]) -> Path:
    """The ``.sha256`` sidecar path belonging to ``path``."""
    path = Path(path)
    return path.with_name(path.name + DIGEST_SUFFIX)


def file_sha256(path: Union[str, Path]) -> str:
    """Streaming sha256 hex digest of a file's contents."""
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_digest(path: Path) -> None:
    # ``sha256sum -c``-compatible: "<hex>  <filename>\n".  Written
    # atomically so the sidecar itself can never be torn.
    line = f"{file_sha256(path)}  {path.name}\n"
    sidecar = digest_path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=str(sidecar.parent), prefix=sidecar.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.write(line)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp_name, str(sidecar))
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def verify_archive(path: Union[str, Path]) -> Optional[bool]:
    """Check ``path`` against its ``.sha256`` sidecar.

    Returns ``True`` on a match, ``False`` on a mismatch (the archive
    or sidecar is corrupt) and ``None`` when no sidecar exists — a
    legacy archive predating the digest scheme, which callers accept.
    Raises :class:`CheckpointError` if the archive itself is missing.
    """
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"archive {path} does not exist")
    sidecar = digest_path(path)
    if not sidecar.exists():
        return None
    recorded = sidecar.read_text(encoding="utf-8").split()
    if not recorded:
        return False
    return file_sha256(path) == recorded[0]


def named_state_arrays(model: Module) -> Dict[str, np.ndarray]:
    """The model's parameters and buffers as *live* (uncopied) ndarrays.

    Same key scheme as ``Module.state_dict`` (buffers carry a
    ``buffer.`` prefix) but zero-copy: the returned arrays alias the
    model's storage.  This is the broadcast format of the parallel
    probe backend — the arrays are packed straight into shared memory
    without an intermediate copy.  Callers must not mutate them.
    """
    state: Dict[str, np.ndarray] = {}
    for name, p in model.named_parameters():
        state[name] = p.data
    for name, b in model.named_buffers():
        state[f"buffer.{name}"] = b
    return state


def save_checkpoint(
    model: Module,
    path: Union[str, Path],
    extra: Optional[Dict[str, float]] = None,
) -> None:
    """Write parameters, buffers, the bit configuration and the
    quantizers' state to ``path``.

    Quantizer state is :meth:`~repro.quantization.base.Quantizer
    .save_state` minus the parameters, which the state dict already
    holds: arrays go into the archive, scalars into its JSON meta.
    ``extra`` is a flat dict of scalars (e.g. the baseline accuracy) kept
    alongside the arrays.  The write is atomic (see :func:`atomic_savez`).
    """
    from ..quantization.qmodules import (
        get_bit_config, named_quantizers, quantized_layers,
    )

    state = model.state_dict()
    quantizers: Dict[str, Dict[str, Any]] = {}
    for key, quantizer in named_quantizers(quantized_layers(model)):
        scalars = quantizers[key] = {}
        for attr, value in quantizer.save_state().items():
            if isinstance(getattr(quantizer, attr), Tensor):
                continue
            if isinstance(value, np.ndarray):
                state[f"{_QUANTIZER_PREFIX}{key}.{attr}"] = value
            else:
                scalars[attr] = value
    meta = {
        "bits": {
            name: list(pair) for name, pair in get_bit_config(model).items()
        } if list(quantized_layers(model)) else {},
        "quantizers": quantizers,
        "extra": extra or {},
    }
    state[_BITS_KEY] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    ).copy()
    atomic_savez(path, **state)


def _check_bit_config_compatible(
    checkpoint_bits: Dict[str, tuple],
    model_layers: Dict[str, object],
    path: Union[str, Path],
) -> None:
    """Raise :class:`CheckpointError` if the saved bit config cannot be
    applied to the model's quantized layers, listing the mismatch."""
    saved = set(checkpoint_bits)
    present = set(model_layers)
    missing_in_model = sorted(saved - present)
    missing_in_ckpt = sorted(present - saved)
    if not missing_in_model and not missing_in_ckpt:
        return
    lines = [
        f"checkpoint {path} bit configuration does not match the "
        f"model's quantized layers:"
    ]
    if missing_in_model:
        lines.append(
            "  layers in checkpoint but not in model: "
            + ", ".join(
                f"{name} ({_fmt_bits(checkpoint_bits[name])})"
                for name in missing_in_model
            )
        )
    if missing_in_ckpt:
        lines.append(
            "  quantized layers in model but not in checkpoint: "
            + ", ".join(missing_in_ckpt)
        )
    raise CheckpointError("\n".join(lines))


def _fmt_bits(pair) -> str:
    w_bits, a_bits = tuple(pair)
    w = "fp" if w_bits is None else f"{w_bits}b"
    a = "fp" if a_bits is None else f"{a_bits}b"
    return f"w={w}, a={a}"


def load_checkpoint(
    model: Module, path: Union[str, Path]
) -> Dict[str, float]:
    """Restore a checkpoint into ``model``; returns the ``extra`` dict.

    The bit configuration and the quantizers' state are re-applied to
    the model's quantized layers (if any were saved), so the loaded
    network evaluates exactly as it was saved.  A checkpoint whose bit
    configuration names different layers than the model raises
    :class:`CheckpointError` listing the mismatch, as does a
    parameter/buffer name mismatch.
    """
    from ..quantization.qmodules import (
        load_quantizer_states, quantized_layers, quantizer_states,
        set_bit_config,
    )

    with np.load(str(path)) as archive:
        state = {key: archive[key] for key in archive.files}
    meta_bytes = state.pop(_BITS_KEY, None)
    quantizer_arrays: Dict[str, Dict[str, np.ndarray]] = {}
    for name in [k for k in state if k.startswith(_QUANTIZER_PREFIX)]:
        key, attr = name[len(_QUANTIZER_PREFIX):].rsplit(".", 1)
        quantizer_arrays.setdefault(key, {})[attr] = state.pop(name)
    meta = (
        json.loads(bytes(meta_bytes.tolist()).decode("utf-8"))
        if meta_bytes is not None
        else {}
    )
    bits = {
        name: tuple(pair) for name, pair in meta.get("bits", {}).items()
    }
    layers = quantized_layers(model)
    if bits or layers:
        _check_bit_config_compatible(bits, dict(layers), path)
    saved = meta.get("quantizers")
    if saved is None and bits:
        # An archive from before quantizer state was saved holds only
        # the bits: apply them first, so the parameter load below
        # overwrites whatever the bit setters re-derive.
        set_bit_config(model, bits)
    try:
        model.load_state_dict(state)
    except (KeyError, ValueError) as err:
        raise CheckpointError(
            f"checkpoint {path} state does not match the model: {err}"
        ) from err
    # The quantizers' parameters are loaded; put the rest back.
    states = quantizer_states(layers)
    for key, restored in states.items():
        if saved is not None:
            restored.update(saved.get(key, {}))
            restored.update(quantizer_arrays.get(key, {}))
        elif "_initialized" in restored:
            # Legacy archive: mark the quantizer initialized so its next
            # forward does not re-derive the loaded parameters.
            restored["_initialized"] = True
    load_quantizer_states(layers, states)
    return dict(meta.get("extra", {}))
