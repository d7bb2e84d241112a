"""Result persistence: deterministic array bundles.

:func:`save_array_bundle` / :func:`load_array_bundle` write and read
npz-compatible archives whose bytes depend only on their contents —
zip timestamps are pinned — so the content-addressed sweep store (see
:mod:`repro.sweeps.store`) can compare results file-by-file across
runs and machines.
"""

from __future__ import annotations

import io as _io
import json
import zipfile
from typing import Any, Dict, Mapping, Optional

import numpy as np

#: Reserved entry name carrying the JSON metadata of an array bundle.
_BUNDLE_METADATA_KEY = "__bundle_metadata__"


def save_array_bundle(
    path: str,
    arrays: Mapping[str, np.ndarray],
    metadata: Optional[Mapping[str, Any]] = None,
) -> None:
    """Write named arrays to an npz-compatible archive, deterministically.

    Unlike ``np.savez``, the output bytes depend only on the array
    contents: entries are written in sorted name order with a fixed zip
    timestamp.  ``metadata`` (JSON-serialisable) is stored as an extra
    entry and returned by :func:`load_array_bundle`.
    """
    payload: Dict[str, np.ndarray] = {
        name: np.asanyarray(value) for name, value in arrays.items()
    }
    if _BUNDLE_METADATA_KEY in payload:
        raise ValueError(f"array name {_BUNDLE_METADATA_KEY!r} is reserved")
    meta_json = json.dumps(
        dict(metadata) if metadata is not None else {},
        sort_keys=True,
        separators=(",", ":"),
    )
    payload[_BUNDLE_METADATA_KEY] = np.array(meta_json)
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as archive:
        for name in sorted(payload):
            buffer = _io.BytesIO()
            np.lib.format.write_array(buffer, payload[name], allow_pickle=False)
            info = zipfile.ZipInfo(f"{name}.npy", date_time=(1980, 1, 1, 0, 0, 0))
            info.compress_type = zipfile.ZIP_DEFLATED
            archive.writestr(info, buffer.getvalue())


def load_array_bundle(path: str) -> "tuple[Dict[str, np.ndarray], Dict[str, Any]]":
    """Load ``(arrays, metadata)`` written by :func:`save_array_bundle`."""
    arrays: Dict[str, np.ndarray] = {}
    metadata: Dict[str, Any] = {}
    with np.load(path, allow_pickle=False) as archive:
        for name in archive.files:
            if name == _BUNDLE_METADATA_KEY:
                metadata = json.loads(str(archive[name]))
            else:
                arrays[name] = archive[name]
    return arrays, metadata


__all__ = [
    "save_array_bundle",
    "load_array_bundle",
]
