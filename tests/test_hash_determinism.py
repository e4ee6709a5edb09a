"""A compile must not depend on the string-hash seed.

Iterating a ``set`` or a hash-ordered structure anywhere in the flow would
make placement, and so Fmax, vary with ``PYTHONHASHSEED``.  Each
subprocess compiles ``hbm_stencil`` Orig cold into its own cache
directory, then again warm from the stage artifacts it just wrote (so the
netlist encoder and decoder are covered too), and prints both result
digests; every digest must agree across hash seeds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

PROGRAM = """
import json
from repro.designs import build_design
from repro.flow import Flow
from repro.opt import BASELINE

cold = Flow().run(build_design("hbm_stencil"), BASELINE)
warm = Flow().run(build_design("hbm_stencil"), BASELINE)
assert all(j["action"] == "skipped" for j in warm.journal if j["cacheable"])
print(json.dumps({"fmax_mhz": cold.fmax_mhz,
                  "digests": [cold.result_digest(), warm.result_digest()]}))
"""


def _compile(hash_seed: str, cache_dir: str) -> dict:
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env["PYTHONHASHSEED"] = hash_seed
    env["REPRO_CACHE_DIR"] = cache_dir
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", PROGRAM],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_result_digest_is_independent_of_the_hash_seed(tmp_path):
    runs = {
        seed: _compile(seed, str(tmp_path / f"cache-{seed}"))
        for seed in ("0", "1")
    }
    digests = {d for run in runs.values() for d in run["digests"]}
    assert len(digests) == 1, runs
    assert runs["0"]["fmax_mhz"] == runs["1"]["fmax_mhz"]
