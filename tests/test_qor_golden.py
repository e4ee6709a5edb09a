"""Table 1 QoR and the §4.1 tables match ``benchmarks/qor_golden.json``.

Performance work on the physical layer (placement, allocation, timing)
must leave every pinned number where it was.  A deliberate change re-pins
through ``python benchmarks/qor_golden.py --repin`` and is logged in
CHANGES.md; this test never rewrites the file.
"""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

GENERATOR = pathlib.Path(__file__).parent.parent / "benchmarks" / "qor_golden.py"


def _generator():
    spec = importlib.util.spec_from_file_location("qor_golden", GENERATOR)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def qor():
    return _generator()


def test_golden_file_covers_table1_and_every_device(qor):
    from repro.designs import design_names

    golden = qor.load()
    assert golden["schema"] == qor.SCHEMA
    assert golden["seed"] == 2020
    assert sorted(golden["designs"]) == sorted(design_names())
    for configs in golden["designs"].values():
        assert len(configs) == 2
        for fields in configs.values():
            assert sorted(fields) == sorted(qor.FIELDS)
    assert sorted(golden["calibration_sha256"]) == sorted(qor.DEVICES)


def test_qor_matches_golden(qor):
    drift = qor.diff(qor.load(), qor.compute())
    assert not drift, "QoR moved (re-pin only on purpose):\n" + "\n".join(drift)
