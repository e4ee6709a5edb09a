"""The benchmark's span hooks still find every entry point they wrap.

``perfbench/spans.py`` wraps ``repro`` functions and methods by name
(``owner.__dict__[attr]``).  Deleting or renaming one of them breaks only
a traced benchmark run, which the unit suite never starts, so this test
checks the hook table against the code and round-trips the installer.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    # Registered while it runs: its dataclasses resolve their module by name.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.modules.pop(spec.name, None)


def _hooked(spans):
    return [(owner, attr) for owner, attr, *_rest in spans._targets()] + [
        (owner, attr) for owner, attr, _name in spans._counted()
    ]


def test_every_hooked_name_exists(spans):
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr in _hooked(spans)
        if attr not in vars(owner)
    ]
    assert not missing, f"perfbench hooks name missing entry points: {missing}"


def test_install_then_uninstall_restores_originals(spans):
    hooked = _hooked(spans)
    originals = {id(vars(owner)[attr]) for owner, attr in hooked}
    # Every binding of an original: the owners themselves plus every
    # loaded repro module that imported a hooked function by name.
    namespaces = [owner for owner, _attr in hooked] + [
        module
        for name, module in sys.modules.items()
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]
    bindings = [
        (namespace, key, value)
        for namespace in namespaces
        for key, value in list(vars(namespace).items())
        if id(value) in originals
    ]
    assert bindings

    uninstall = spans.install(spans.Recorder("t"))
    try:
        unwrapped = [
            key for namespace, key, value in bindings
            if vars(namespace)[key] is value
        ]
        assert not unwrapped, f"install left {unwrapped} unwrapped"
    finally:
        uninstall()

    for namespace, key, value in bindings:
        assert vars(namespace)[key] is value, f"{key} not restored"
