"""Disk persistence for calibration tables.

The paper's calibration is a one-time per-device characterization whose
statistics are "reusable"; this module makes that literal: run the skeleton
sweeps once, save the table, and let later sessions (or CI, or the worker
processes of the parallel experiment engine) load it instead of
re-measuring.  Building the default table runs ~80 placements (~14 s);
loading it back costs well under a millisecond.

JSON format (from :meth:`CalibrationTable.to_dict`) wrapped with metadata::

    {"version": 1, "device": "aws-f1", "seed": 2020, "smooth_passes": 1,
     "curves": {"add_i32": [[1, 0.78], ...], ...}}

The metadata is *provenance*: a table measured on a different device, with
a different placement seed, or with different smoothing is a different
table, and silently substituting one would change every downstream
schedule.  :func:`load_calibration` therefore validates whatever subset of
the provenance the caller pins, and :func:`resolve_calibration` pins all
of it.

Storage is the shared store's (:mod:`repro.store`): tables are written
atomically, and :func:`get_or_build_calibration` and
:func:`resolve_calibration` serialize the build-or-load decision through
the store's compute-once lock next to the table, so N workers starting at
once produce exactly one characterization run — the first worker builds
while the rest block, then load the saved file.
"""

from __future__ import annotations

import json
import os
from contextlib import AbstractContextManager
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro import hashing
from repro.delay.calibrated import CalibrationTable
from repro.delay.calibration import build_default_calibration
from repro.errors import ReproError
from repro.obs.journal import emit_event
from repro.store import MemoryLru, atomic_write, default_cache_dir, key_lock

FORMAT_VERSION = 1


@dataclass(frozen=True)
class CalibrationProvenance:
    """What a stored table was measured with — its identity, not just tags."""

    device: str
    seed: int
    smooth_passes: int
    version: int = FORMAT_VERSION

    def mismatches(self, other: "CalibrationProvenance") -> Dict[str, Tuple]:
        """Fields where ``self`` (stored) differs from ``other`` (wanted)."""
        diffs: Dict[str, Tuple] = {}
        for name in ("version", "device", "seed", "smooth_passes"):
            stored, wanted = getattr(self, name), getattr(other, name)
            if stored != wanted:
                diffs[name] = (stored, wanted)
        return diffs

    def digest(self) -> str:
        """Canonical content digest of this provenance.

        The flow-compilation service folds this into its request digests
        (see :mod:`repro.service.request`), so a request compiled against
        one characterization identity can never alias a result compiled
        against another.  Uses the shared :mod:`repro.hashing` recipe.
        """
        return hashing.content_digest(
            {
                "kind": "calibration-provenance",
                "device": self.device,
                "seed": self.seed,
                "smooth_passes": self.smooth_passes,
                "version": self.version,
            }
        )


def save_calibration(
    table: CalibrationTable,
    path: str,
    device: str,
    seed: int = 2020,
    smooth_passes: int = 1,
) -> None:
    """Write a calibration table plus provenance metadata to ``path``.

    The write is atomic (temp file + rename) so a reader that does not hold
    the lock can never observe a half-written table.
    """
    payload = {
        "version": FORMAT_VERSION,
        "device": device,
        "seed": seed,
        "smooth_passes": smooth_passes,
        "curves": table.to_dict(),
    }
    atomic_write(path, json.dumps(payload, indent=2, sort_keys=True).encode())


def read_provenance(path: str) -> CalibrationProvenance:
    """The provenance block of a saved table, without loading the curves."""
    with open(path) as handle:
        payload = json.load(handle)
    return _provenance_of(payload, path)


def _provenance_of(payload: dict, path: str) -> CalibrationProvenance:
    try:
        return CalibrationProvenance(
            device=str(payload["device"]),
            seed=int(payload["seed"]),
            smooth_passes=int(payload["smooth_passes"]),
            version=int(payload.get("version", -1)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ReproError(
            f"calibration file {path!r} is missing provenance metadata: {exc}"
        ) from exc


def load_calibration(
    path: str,
    device: Optional[str] = None,
    seed: Optional[int] = None,
    smooth_passes: Optional[int] = None,
) -> CalibrationTable:
    """Load a saved table, validating its provenance.

    The format version is always checked; ``device``, ``seed`` and
    ``smooth_passes`` are checked when the caller pins them.  A stale table
    that silently changed downstream schedules would be far worse than the
    :class:`ReproError` raised here.
    """
    with open(path) as handle:
        payload = json.load(handle)
    stored = _provenance_of(payload, path)
    wanted = CalibrationProvenance(
        device=stored.device if device is None else device,
        seed=stored.seed if seed is None else seed,
        smooth_passes=stored.smooth_passes if smooth_passes is None else smooth_passes,
    )
    diffs = stored.mismatches(wanted)
    if diffs:
        detail = ", ".join(
            f"{name}: stored {got!r}, need {want!r}"
            for name, (got, want) in sorted(diffs.items())
        )
        raise ReproError(
            f"calibration file {path!r} does not match the requested "
            f"provenance ({detail}); re-characterize or point at the right file"
        )
    return CalibrationTable.from_dict(payload["curves"])


# ---------------------------------------------------------------------------
# Cache location and locking
# ---------------------------------------------------------------------------
def default_calibration_path(
    device: str, seed: int = 2020, smooth_passes: int = 1
) -> str:
    """Auto cache path; the full provenance is encoded in the file name, so
    distinct characterizations never collide."""
    name = f"calibration-v{FORMAT_VERSION}-{device}-seed{seed}-smooth{smooth_passes}.json"
    return os.path.join(default_cache_dir(), name)


def calibration_lock(path: str) -> "AbstractContextManager[None]":
    """Exclusive lock guarding the build-or-load of ``path``.

    Concurrent engine workers serialize here: exactly one pays for the
    characterization, the rest block and then load the saved file.  The
    lock is per table, so different devices characterize in parallel.
    """
    return key_lock(path)


#: ``source`` values :func:`resolve_calibration` can report.
SOURCE_MEMORY = "memory"
SOURCE_DISK = "disk"
SOURCE_BUILT = "built"


def _load_or_build(
    path: str, device: str, seed: int, smooth_passes: int
) -> Tuple[CalibrationTable, str]:
    """Load ``path``, or characterize and save it, under its lock."""
    with calibration_lock(path):
        if os.path.exists(path):
            table = load_calibration(
                path, device=device, seed=seed, smooth_passes=smooth_passes
            )
            return table, SOURCE_DISK
        table = build_default_calibration(
            device, seed=seed, smooth_passes=smooth_passes
        )
        save_calibration(
            table, path, device=device, seed=seed, smooth_passes=smooth_passes
        )
        emit_event(
            "calibration.build",
            device=device,
            seed=seed,
            smooth_passes=smooth_passes,
            path=path,
        )
        return table, SOURCE_BUILT


def get_or_build_calibration(
    path: str,
    device: str = "aws-f1",
    seed: int = 2020,
    smooth_passes: int = 1,
) -> CalibrationTable:
    """Load ``path`` if present, otherwise characterize and save — under the
    file lock, so concurrent callers characterize exactly once.

    The workhorse for scripts and CI: the first run pays for the skeleton
    sweeps, every later run starts instantly.
    """
    return _load_or_build(path, device, seed, smooth_passes)[0]


#: In-process memo over :func:`resolve_calibration` (keyed by full identity),
#: so one process never re-reads the file it just loaded.
_MEMORY = MemoryLru()


def resolve_calibration(
    device: str,
    seed: int = 2020,
    smooth_passes: int = 1,
    path: Optional[str] = None,
) -> Tuple[CalibrationTable, str]:
    """The one-stop calibration lookup the flow and engine workers use.

    Resolution order: in-process memo → on-disk cache (``path`` or the auto
    path under :func:`~repro.store.default_cache_dir`) → build and save.
    Returns the table plus where it came from (``"memory"``/``"disk"``/
    ``"built"``) so callers can report cache effectiveness.
    """
    target = path or default_calibration_path(device, seed, smooth_passes)
    key = (device, seed, smooth_passes, os.path.abspath(target))
    table = _MEMORY.get(key)
    if table is not None:
        return table, SOURCE_MEMORY
    table, source = _load_or_build(target, device, seed, smooth_passes)
    _MEMORY.put(key, table)
    return table, source
