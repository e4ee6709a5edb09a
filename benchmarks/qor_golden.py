"""Golden QoR fingerprints: Table 1 at seed 2020 plus the §4.1 tables.

``benchmarks/qor_golden.json`` pins, for each of the nine Table 1 designs
under BASELINE and FULL, the Fmax, the critical-path class and the final
cell and net counts, plus a sha256 of each device's calibration table.
``tests/test_qor_golden.py`` recomputes the same document and requires
equality, so a change that moves any of these numbers fails the suite
until it is re-pinned on purpose.

    python benchmarks/qor_golden.py            # compare, exit 1 on drift
    python benchmarks/qor_golden.py --repin    # overwrite the golden file

A re-pin must be logged in CHANGES.md with the numbers that moved and why.
The document is computed in a fresh temporary cache directory, so neither
a warm developer cache nor a stale stage artifact can hide a change.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import sys
import tempfile
from typing import Any, Dict, List

GOLDEN_PATH = pathlib.Path(__file__).parent / "qor_golden.json"
SCHEMA = "repro-qor-golden/1"
SEED = 2020
DEVICES = ("aws-f1", "zc706", "alveo-u50", "virtex-7")
#: The fingerprint fields pinned per (design, config).
FIELDS = ("fmax_mhz", "critical_path_class", "cells", "nets")


def compute() -> Dict[str, Any]:
    """Compile Table 1 and characterize every device, in a cold cache."""
    previous = os.environ.get("REPRO_CACHE_DIR")
    with tempfile.TemporaryDirectory(prefix="qor-golden-") as cache_dir:
        os.environ["REPRO_CACHE_DIR"] = cache_dir
        try:
            return _compute()
        finally:
            if previous is None:
                os.environ.pop("REPRO_CACHE_DIR", None)
            else:
                os.environ["REPRO_CACHE_DIR"] = previous


def _compute() -> Dict[str, Any]:
    from repro.delay.cache import resolve_calibration
    from repro.engine import Engine
    from repro.experiments.table1 import run_table1
    from repro.flow import Flow

    calibration = {}
    for device in DEVICES:
        table, _source = resolve_calibration(
            device, seed=SEED, smooth_passes=Flow.SMOOTH_PASSES
        )
        calibration[device] = hashlib.sha256(
            table.to_json().encode()
        ).hexdigest()
    designs: Dict[str, Dict[str, Dict[str, Any]]] = {}
    for entry in run_table1(engine=Engine(jobs=1, flow=Flow(seed=SEED))):
        designs[entry.design] = {
            result.config_label: {
                name: result.fingerprint()[name] for name in FIELDS
            }
            for result in (entry.orig, entry.opt)
        }
    return {
        "schema": SCHEMA,
        "seed": SEED,
        "designs": designs,
        "calibration_sha256": calibration,
    }


def load() -> Dict[str, Any]:
    return json.loads(GOLDEN_PATH.read_text())


def diff(golden: Dict[str, Any], current: Dict[str, Any]) -> List[str]:
    """Human-readable differences, empty when ``current`` matches."""
    lines = []
    for key in ("schema", "seed"):
        if golden.get(key) != current.get(key):
            lines.append(f"{key}: {golden.get(key)!r} -> {current.get(key)!r}")
    for design in sorted(set(golden["designs"]) | set(current["designs"])):
        want = golden["designs"].get(design, {})
        got = current["designs"].get(design, {})
        for config in sorted(set(want) | set(got)):
            for name in FIELDS:
                a = want.get(config, {}).get(name)
                b = got.get(config, {}).get(name)
                if a != b:
                    lines.append(f"{design}/{config} {name}: {a!r} -> {b!r}")
    want = golden["calibration_sha256"]
    got = current["calibration_sha256"]
    for device in sorted(set(want) | set(got)):
        if want.get(device) != got.get(device):
            lines.append(
                f"calibration {device}: {want.get(device)} -> {got.get(device)}"
            )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--repin",
        action="store_true",
        help="overwrite qor_golden.json with the current numbers "
        "(log the re-pin in CHANGES.md)",
    )
    args = parser.parse_args(argv)
    current = compute()
    if args.repin:
        GOLDEN_PATH.write_text(json.dumps(current, indent=2, sort_keys=True) + "\n")
        print(f"re-pinned {GOLDEN_PATH}")
        return 0
    lines = diff(load(), current)
    for line in lines:
        print(line)
    print("QoR matches the golden file" if not lines else f"{len(lines)} QoR drifts")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
