"""Shared fixtures.

The expensive artifact is the §4.1 calibration (dozens of placements).
Most tests use the synthetic :class:`CalibrationTable` from
:mod:`repro.testing`; the few exercising real characterization restrict
their factor sweeps.
"""

from __future__ import annotations

import copyreg
import io
import json
import os
import pickle

import pytest

from repro.delay.calibrated import CalibratedDelayModel, CalibrationTable
from repro.flow import Flow
from repro.ir.program import Design
from repro.rtl.netlist import Netlist
from repro.testing import (
    stream_to_buffer_design,
    synthetic_calibration,
    unrolled_broadcast_design,
)


def make_synthetic_table() -> CalibrationTable:
    return synthetic_calibration()


def make_mini_stream_design(depth: int = 8192, unroll: int = 1) -> Design:
    return stream_to_buffer_design(depth=depth, unroll=unroll)


def make_unrolled_compute_design(unroll: int = 16) -> Design:
    return unrolled_broadcast_design(unroll=unroll)


@pytest.fixture(scope="session", autouse=True)
def _isolated_calibration_cache(tmp_path_factory):
    """Point the persistent calibration cache at a session temp dir.

    Tests must neither read a developer's warm ``~/.cache/repro`` (hiding
    cold-path bugs) nor write to it (polluting real state).
    """
    cache_dir = tmp_path_factory.mktemp("repro-cache")
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    yield
    if previous is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = previous


@pytest.fixture(scope="session")
def synthetic_table() -> CalibrationTable:
    return make_synthetic_table()


@pytest.fixture(scope="session")
def calibrated_model(synthetic_table) -> CalibratedDelayModel:
    return CalibratedDelayModel(synthetic_table)


@pytest.fixture()
def flow(synthetic_table) -> Flow:
    """A flow wired to the synthetic calibration (fast and deterministic)."""
    return Flow(calibration=synthetic_table)


@pytest.fixture()
def mini_design() -> Design:
    return make_mini_stream_design()


@pytest.fixture()
def unrolled_design() -> Design:
    return make_unrolled_compute_design()


class _SchemaOnePickler(pickle.Pickler):
    """Pickles netlists the way stage-store and result-store schema ``/1``
    did: the whole instance ``__dict__``, cells and nets as objects."""

    def reducer_override(self, obj):
        if isinstance(obj, Netlist):
            state = {k: v for k, v in vars(obj).items() if k != "mutations"}
            return copyreg.__newobj__, (Netlist,), state
        return NotImplemented


def schema_one_pickle(obj: object) -> bytes:
    """``obj`` pickled with any netlists in it in the schema-``/1`` layout,
    which today's :class:`Netlist` cannot unpickle."""
    buffer = io.BytesIO()
    _SchemaOnePickler(buffer, protocol=4).dump(obj)
    return buffer.getvalue()


def plant_schema_one_result(store, digest: str) -> None:
    """Rewrite result-store entry ``digest`` as schema ``/1`` wrote it:
    same request digest, ``/1`` sidecar, object-graph netlist payload."""
    result = store.load_result(digest)
    with open(store._meta_path(digest)) as handle:
        meta = json.load(handle)
    meta["schema"] = "repro-result-store/1"
    payload = schema_one_pickle(
        {"schema": "repro-result-store/1", "meta": meta, "result": result}
    )
    with pytest.raises(KeyError):
        pickle.loads(payload)  # what a hit would have done
    with open(store._payload_path(digest), "wb") as handle:
        handle.write(payload)
    with open(store._meta_path(digest), "w") as handle:
        json.dump(meta, handle)
