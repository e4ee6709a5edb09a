"""Start ``repro serve`` for the service-mixed workload.

Usage: ``python3 perfbench/daemon.py [--trace-dir DIR] serve --port N ...``

Everything after the launcher's own option is handed to the ``repro``
command line unchanged.  With ``--trace-dir`` each compile worker the
daemon forks records spans around the ``repro`` entry points (see
:mod:`trace`) and writes them, keyed by the request digest, to
``DIR/<digest>-<pid>.json`` when its job ends, so the benchmark can merge
worker-side layer time into its own trace.
"""

from __future__ import annotations

import functools
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _traced_entry(original, trace_dir: str):
    @functools.wraps(original)
    def entry(request_dict, store_root, conn):
        from repro.service.request import FlowRequest
        from repro.service.worker import TELEMETRY_KEY

        import spans

        wire = {k: v for k, v in request_dict.items() if k != TELEMETRY_KEY}
        digest = FlowRequest.from_dict(wire).digest()
        rec = spans.Recorder(f"worker-{os.getpid()}")
        uninstall = spans.install(rec)
        try:
            original(request_dict, store_root, conn)
        finally:
            uninstall()
            path = os.path.join(trace_dir, f"{digest}-{os.getpid()}.json")
            with open(path, "w") as handle:
                json.dump({"digest": digest, **rec.export()}, handle)
    return entry


def main(argv) -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    trace_dir = None
    if argv[:1] == ["--trace-dir"]:
        trace_dir, argv = argv[1], argv[2:]
    if trace_dir is not None:
        from repro.service import daemon, worker

        daemon.worker_entry = _traced_entry(worker.worker_entry, trace_dir)
    from repro.__main__ import main as repro_main

    return repro_main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
