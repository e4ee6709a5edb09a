"""Equivalence proof: stage reuse across a sweep never changes an answer.

For every registered design × {BASELINE, FULL} × perturbation, a flow
backed by a stage store that already holds the original operating point's
artifacts must produce bit-identical fingerprints and result digests to a
fresh flow compiling the perturbed point from scratch with the stage cache
off.  The perturbations are the three single-knob sweep moves:

* **clock-bump** — same design, new clock target (everything upstream of
  scheduling is served from the store);
* **pragma-flip** — one loop's pipeline pragma toggled (the design digest
  changes, so every stage re-runs);
* **calibration-swap** — a perturbed calibration table injected
  (scheduling and downstream re-run; pragma/sync-pruning are skipped).
"""

from __future__ import annotations

import pytest

from repro.designs import build_design, design_names
from repro.flow import Flow
from repro.opt import BASELINE, FULL
from repro.pipeline import StageArtifactStore

CONFIGS = {"orig": BASELINE, "full": FULL}
SCENARIOS = ("clock-bump", "pragma-flip", "calibration-swap")

#: Off every design's default operating point (registry designs pin 300 or
#: 333 MHz in their meta) — a bump to a design's own default is a no-op
#: the stage store would rightly skip end-to-end.
BUMPED_CLOCK_MHZ = 217


def _flip_pragma(design):
    """Toggle the pipeline pragma of the design's first loop."""
    loop = design.kernels[0].loops[0]
    loop.pipeline = not loop.pipeline
    return design


def _perturbed_table(table):
    """A copy-by-reconstruction of ``table`` with one extra curve point."""
    from repro.delay.calibrated import CalibrationTable

    other = CalibrationTable()
    for key in table.keys():
        for factor, delay in table.points(key):
            other.add(key, factor, delay)
    key = table.keys()[0]
    factor, delay = table.points(key)[-1]
    other.add(key, factor * 2, delay * 1.5)
    return other


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("config_key", sorted(CONFIGS))
@pytest.mark.parametrize("design_name", design_names())
def test_incremental_matches_scratch(
    design_name, config_key, scenario, synthetic_table, tmp_path
):
    config = CONFIGS[config_key]
    inc = Flow(
        calibration=synthetic_table,
        stage_cache=StageArtifactStore(root=str(tmp_path / "stages")),
    )
    inc.run(build_design(design_name), config)  # seed the stage store

    scratch_kwargs = dict(calibration=synthetic_table, stage_cache=False)
    perturb = lambda design: design  # noqa: E731 — per-scenario hook
    if scenario == "clock-bump":
        inc.clock_mhz = BUMPED_CLOCK_MHZ
        scratch_kwargs["clock_mhz"] = BUMPED_CLOCK_MHZ
    elif scenario == "pragma-flip":
        perturb = _flip_pragma
    else:
        table = _perturbed_table(synthetic_table)
        inc.calibration = table
        scratch_kwargs["calibration"] = table

    warm = inc.run(perturb(build_design(design_name)), config)
    scratch = Flow(**scratch_kwargs).run(
        perturb(build_design(design_name)), config
    )

    assert warm.fingerprint() == scratch.fingerprint()
    assert warm.result_digest() == scratch.result_digest()


def test_clock_bump_skips_upstream_of_scheduling(synthetic_table, tmp_path):
    """A clock-only change re-runs scheduling but skips everything above.

    Pragma lowering and synchronization pruning do not read the clock;
    their stored artifacts must serve the bumped run from disk.
    """
    inc = Flow(
        calibration=synthetic_table,
        stage_cache=StageArtifactStore(root=str(tmp_path / "stages")),
    )
    inc.run(build_design("genome"), FULL)
    inc.clock_mhz = BUMPED_CLOCK_MHZ
    result = inc.run(build_design("genome"), FULL)
    actions = {e["stage"]: e["action"] for e in result.journal}
    assert actions["pragmas"] == "skipped"
    assert actions["sync-pruning"] == "skipped"
    assert actions["scheduling"] == "run"
    assert actions["timing"] == "run"
    skipped = [e for e in result.journal if e["action"] == "skipped"]
    assert all(e["source"] == "disk" for e in skipped)
