"""Content-addressed, resumable on-disk result store.

Each completed scenario is persisted under its content digest as a
pair of files inside the store root:

* ``<id>.json`` — the JSON record (overrides + metrics), written with
  sorted keys and compact separators so its bytes are a pure function
  of its contents;
* ``<id>.npz`` — the raw correlation sets as a deterministic array
  bundle (see :func:`repro.acquisition.io.save_array_bundle`).

The JSON file is written *after* the bundle via an atomic rename, so
its presence is the completion marker: a sweep killed mid-scenario
leaves at worst an orphaned bundle or temp file, never a half-result
that :meth:`SweepStore.has` would wrongly count as done.  Re-running a
sweep (or a *different* sweep that happens to share scenarios) executes
only the missing digests.

Durability: every publish fsyncs the data file before the rename and
the store directory after it, so "record present" implies "record
*durably* complete" across power loss, not just process death — the
invariant the lease scheduler (:mod:`repro.sweeps.scheduler`) builds
on.  :meth:`SweepStore.scrub` removes the residue a crash can leave
behind (orphaned ``.tmp-*`` files and ``.npz`` bundles with no
completion record); it must only run while no writer is active on the
root, so it is an explicit operation (CLI ``sweep --scrub``), never
automatic.

The class is deliberately generic — a directory of (record, arrays)
pairs keyed by digest with atomic, deterministic writes — and it
holds all the state a sweep keeps on disk: the artifact cache
(:mod:`repro.experiments.artifacts`) lives in memory only.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Dict, Iterator, List, Mapping, Optional

import numpy as np

from repro.acquisition.io import load_array_bundle, save_array_bundle
from repro.sweeps.faultinject import fault_point
from repro.sweeps.spec import canonical_json


def _fsync_file(path: str) -> None:
    """Flush one file's contents to stable storage."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _fsync_dir(path: str) -> None:
    """Flush a directory entry table (makes renames durable)."""
    fd = os.open(path, os.O_RDONLY | getattr(os, "O_DIRECTORY", 0))
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class SweepStore:
    """Directory of scenario results keyed by content digest."""

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)

    # -- paths -------------------------------------------------------------

    def record_path(self, scenario_id: str) -> str:
        return os.path.join(self.root, f"{scenario_id}.json")

    def arrays_path(self, scenario_id: str) -> str:
        return os.path.join(self.root, f"{scenario_id}.npz")

    # -- queries -----------------------------------------------------------

    def has(self, scenario_id: str) -> bool:
        """True when the scenario completed (record file present)."""
        return os.path.exists(self.record_path(scenario_id))

    def ids(self) -> List[str]:
        """Sorted digests of every completed scenario."""
        return sorted(
            entry[: -len(".json")]
            for entry in os.listdir(self.root)
            if entry.endswith(".json") and not entry.startswith(".tmp-")
        )

    def __len__(self) -> int:
        return len(self.ids())

    def __contains__(self, scenario_id: str) -> bool:
        return self.has(scenario_id)

    def __iter__(self) -> Iterator[str]:
        return iter(self.ids())

    # -- I/O ---------------------------------------------------------------

    def _atomic_write(self, path: str, data: bytes) -> None:
        handle, tmp = tempfile.mkstemp(
            dir=self.root, prefix=".tmp-", suffix=os.path.basename(path)
        )
        try:
            with os.fdopen(handle, "wb") as stream:
                stream.write(data)
                stream.flush()
                os.fsync(stream.fileno())
            os.replace(tmp, path)
            _fsync_dir(self.root)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def put(
        self,
        scenario_id: str,
        record: Mapping[str, object],
        arrays: Optional[Mapping[str, np.ndarray]] = None,
    ) -> None:
        """Persist one completed scenario (bundle first, record last).

        Each publish is fsync-then-rename-then-dir-fsync, so once the
        record file exists the whole result survives power loss.  The
        write is idempotent: re-putting the same scenario atomically
        replaces both files with identical bytes, which is what lets
        retries and duplicated lease executions converge.
        """
        if arrays:
            fault_point("store.put_arrays")
            bundle = tempfile.mkstemp(
                dir=self.root, prefix=".tmp-", suffix=".npz"
            )
            os.close(bundle[0])
            try:
                save_array_bundle(
                    bundle[1], arrays, metadata={"scenario_id": scenario_id}
                )
                _fsync_file(bundle[1])
                os.replace(bundle[1], self.arrays_path(scenario_id))
                # No directory fsync here: the record write below ends
                # with one, which flushes both renames together (same
                # directory), so the record entry can never be durable
                # without the bundle entry.
            except BaseException:
                if os.path.exists(bundle[1]):
                    os.unlink(bundle[1])
                raise
        fault_point("store.put_record")
        payload = (canonical_json(dict(record)) + "\n").encode()
        self._atomic_write(self.record_path(scenario_id), payload)

    def get(self, scenario_id: str) -> Dict[str, object]:
        """Load one scenario's JSON record."""
        with open(self.record_path(scenario_id)) as handle:
            return json.load(handle)

    def get_arrays(self, scenario_id: str) -> Dict[str, np.ndarray]:
        """Load one scenario's correlation sets (empty if none saved)."""
        path = self.arrays_path(scenario_id)
        if not os.path.exists(path):
            return {}
        arrays, _ = load_array_bundle(path)
        return arrays

    def records(self) -> List[Dict[str, object]]:
        """Every completed record, in digest order."""
        return [self.get(scenario_id) for scenario_id in self.ids()]

    # -- hygiene -----------------------------------------------------------

    def scrub(self) -> List[str]:
        """Remove crash residue; returns the paths removed.

        Residue is anything a killed writer can leave at the top level
        of the root: ``.tmp-*`` staging files and ``.npz`` bundles
        whose completion record never landed (the bundle is published
        before the record, so a crash in between orphans it).
        Completed ``(record, bundle)`` pairs are never touched.

        Only call while no writer is active on this root — an in-flight
        writer's staging file looks identical to a dead one's.
        """
        removed: List[str] = []
        for entry in sorted(os.listdir(self.root)):
            path = os.path.join(self.root, entry)
            if not os.path.isfile(path):
                continue
            orphaned_bundle = entry.endswith(".npz") and not os.path.exists(
                self.record_path(entry[: -len(".npz")])
            )
            if entry.startswith(".tmp-") or orphaned_bundle:
                os.unlink(path)
                removed.append(path)
        if removed:
            _fsync_dir(self.root)
        return removed


__all__ = ["SweepStore"]
