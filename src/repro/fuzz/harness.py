"""Differential, metamorphic and cache-determinism checks.

Four invariants, each a family of checks over one generated program:

* **oracle** — the cycle-stepped :class:`~repro.sim.dataflow.DataflowSim`
  must produce exactly the outputs (and final buffer contents) of the
  sequential reference executor.  FIFO depths, firing interleavings and
  stalls may only ever change *timing*.
* **passes** — every IR transform the flow applies (pragma lowering /
  unrolling, DCE, CSE, synchronization pruning, broadcast-tree insertion)
  must be semantics-preserving: the transformed design, simulated on the
  same stimuli, must match the untransformed one.
* **cache** — compiling the same program cold, warm (stage-artifact store
  hit) and with caching disabled must yield identical
  :meth:`~repro.flow.FlowResult.result_digest` values.
* **incremental** — recompiling at a bumped clock on a flow whose stage
  store already holds the spec'd clock's artifacts (everything upstream
  of scheduling is reused) must be bit-identical to compiling the bumped
  clock from scratch with the stage cache off.

:func:`run_campaign` drives a whole seeded campaign, shrinks every failure
to a minimal reproducer and writes it to the corpus directory.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.flow import Flow
from repro.ir.broadcast_tree import build_broadcast_tree
from repro.ir.passes import apply_pragmas, cse, dce
from repro.ir.program import Design
from repro.opt import CONFIG_LABELS
from repro.pipeline.store import StageArtifactStore
from repro.sim.dataflow import DataflowSim
from repro.sync.pruning import prune_synchronization
from repro.testing import synthetic_calibration

from repro.fuzz.gen import generate_spec
from repro.fuzz.reference import run_reference
from repro.fuzz.shrink import shrink
from repro.fuzz.spec import ProgramSpec, SpecError, build_program

#: Schema tag of corpus reproducer documents.
CORPUS_SCHEMA = "repro-fuzz-corpus/1"

#: Check groups accepted by :func:`run_checks` / the ``repro fuzz`` CLI.
CHECK_GROUPS = ("oracle", "passes", "cache", "incremental")


@dataclass
class Divergence:
    """One invariant violation on one program."""

    program: str
    check: str
    detail: str
    spec: ProgramSpec
    shrunk: Optional[ProgramSpec] = None
    corpus_path: str = ""

    def summary(self) -> str:
        size = (self.shrunk or self.spec).size()
        return (
            f"{self.program} [{self.check}] {self.detail}"
            + (f" (shrunk to {size[0]} ops)" if self.shrunk else "")
        )


@dataclass
class CampaignReport:
    """Outcome of one fuzzing campaign."""

    seed: int
    requested: int
    checks: Tuple[str, ...]
    programs: int = 0
    divergences: List[Divergence] = field(default_factory=list)
    elapsed_s: float = 0.0
    budget_exhausted: bool = False

    @property
    def ok(self) -> bool:
        return not self.divergences

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": "repro-fuzz-report/1",
            "seed": self.seed,
            "requested": self.requested,
            "programs": self.programs,
            "checks": list(self.checks),
            "elapsed_s": round(self.elapsed_s, 3),
            "budget_exhausted": self.budget_exhausted,
            "divergences": [
                {
                    "program": d.program,
                    "check": d.check,
                    "detail": d.detail,
                    "corpus_path": d.corpus_path,
                }
                for d in self.divergences
            ],
        }


# ----------------------------------------------------------------------
# comparison helpers
def _first_diff(a: Sequence[object], b: Sequence[object]) -> str:
    if len(a) != len(b):
        return f"length {len(a)} vs {len(b)}"
    for k, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return f"element {k}: {x!r} vs {y!r}"
    return "equal"


def _diff_maps(
    kind: str, a: Dict[str, List[object]], b: Dict[str, List[object]]
) -> Optional[str]:
    for name in sorted(set(a) | set(b)):
        left, right = list(a.get(name, [])), list(b.get(name, []))
        if left != right:
            return f"{kind} {name!r}: {_first_diff(left, right)}"
    return None


# ----------------------------------------------------------------------
# the three check families
def check_oracle(spec: ProgramSpec) -> List[Divergence]:
    """Sequential reference vs. concurrent dataflow simulation."""
    built = build_program(spec)
    reference = run_reference(built.design, built.stimuli, params=built.params)
    sim = DataflowSim(
        build_program(spec).design,
        {k: list(v) for k, v in built.stimuli.items()},
        params=built.params,
    )
    trace = sim.run()
    mismatch = _diff_maps("output", reference.outputs, trace.outputs)
    if mismatch is None:
        sim_buffers = {k: list(v) for k, v in sim.evaluator.buffers.items()}
        mismatch = _diff_maps("buffer", reference.buffers, sim_buffers)
    if mismatch is None:
        return []
    return [Divergence(spec.name, "oracle", mismatch, spec)]


def _transform_pragmas(design: Design) -> Optional[Design]:
    return apply_pragmas(design)


def _transform_dce(design: Design) -> Optional[Design]:
    clone = design.clone()
    for _kernel, loop in clone.all_loops():
        dce(loop.body)
    return clone


def _transform_cse(design: Design) -> Optional[Design]:
    clone = design.clone()
    for _kernel, loop in clone.all_loops():
        cse(loop.body)
    return clone


def _transform_prune(design: Design) -> Optional[Design]:
    return prune_synchronization(design)[0]


def _transform_broadcast(design: Design) -> Optional[Design]:
    """Insert a register tree under the highest-fanout value, if any."""
    clone = design.clone()
    best = None
    for _kernel, loop in clone.all_loops():
        for value in loop.body.values.values():
            fanout = len(value.uses)
            if fanout >= 2 and (best is None or fanout > best[2]):
                best = (loop.body, value, fanout)
    if best is None:
        return None  # nothing to tree up; skip
    build_broadcast_tree(best[0], best[1], arity=2)
    return clone


def _library_transform(name: str) -> Callable[[Design], Optional[Design]]:
    """A metamorphic check for one transform-library pass.

    Applies the pass's first enumerated candidate (candidate order is
    deterministic for a given design), or skips the program when the pass
    finds nothing applicable.  Candidates carry their own applicability
    guards (trip divisibility, FIFO depth vs. merged-firing rate, buffer
    privacy), so an applicable candidate must preserve behaviour — any
    divergence is a transform bug, not a bad program.
    """

    def apply_first(design: Design) -> Optional[Design]:
        from repro.ir.transforms import transform_type

        candidates = transform_type(name).candidates(design)
        if not candidates:
            return None
        return candidates[0].apply(design)

    return apply_first


#: Metamorphic transforms: name → design transform (None return = skip).
PASS_TRANSFORMS: Dict[str, Callable[[Design], Optional[Design]]] = {
    "pragmas": _transform_pragmas,
    "dce": _transform_dce,
    "cse": _transform_cse,
    "prune": _transform_prune,
    "broadcast": _transform_broadcast,
    "unroll": _library_transform("unroll"),
    "tile": _library_transform("tile"),
    "widen": _library_transform("widen"),
    "stream": _library_transform("stream"),
    "reuse": _library_transform("reuse"),
}


def check_passes(spec: ProgramSpec) -> List[Divergence]:
    """Each IR transform must leave simulated behaviour unchanged."""
    divergences: List[Divergence] = []
    for name, transform in PASS_TRANSFORMS.items():
        base = build_program(spec)
        transformed = transform(build_program(spec).design)
        if transformed is None:
            continue
        sim_a = DataflowSim(
            base.design,
            {k: list(v) for k, v in base.stimuli.items()},
            params=base.params,
        )
        sim_b = DataflowSim(
            transformed,
            {k: list(v) for k, v in base.stimuli.items()},
            params=base.params,
        )
        trace_a, trace_b = sim_a.run(), sim_b.run()
        mismatch = _diff_maps("output", trace_a.outputs, trace_b.outputs)
        if mismatch is None:
            mismatch = _diff_maps(
                "buffer",
                {k: list(v) for k, v in sim_a.evaluator.buffers.items()},
                {k: list(v) for k, v in sim_b.evaluator.buffers.items()},
            )
        if mismatch is not None:
            divergences.append(
                Divergence(spec.name, f"passes:{name}", mismatch, spec)
            )
    return divergences


def check_cache(
    spec: ProgramSpec,
    store: Optional[StageArtifactStore] = None,
    calibration=None,
) -> List[Divergence]:
    """Cold, warm and cache-disabled compiles must agree bit-for-bit."""
    calibration = calibration or synthetic_calibration()
    config = CONFIG_LABELS.get(spec.config)
    if config is None:
        raise SpecError(f"{spec.name}: unknown config label {spec.config!r}")
    if store is None:
        store = StageArtifactStore(
            root=tempfile.mkdtemp(prefix="repro-fuzz-stages-")
        )
    cached_flow = Flow(
        clock_mhz=spec.clock_mhz,
        seed=2020,
        calibration=calibration,
        stage_cache=store,
    )
    cold = cached_flow.run(build_program(spec).design, config=config)
    warm = cached_flow.run(build_program(spec).design, config=config)
    uncached_flow = Flow(
        clock_mhz=spec.clock_mhz,
        seed=2020,
        calibration=calibration,
        stage_cache="off",
    )
    off = uncached_flow.run(build_program(spec).design, config=config)
    digests = {"cold": cold.result_digest(), "warm": warm.result_digest(),
               "off": off.result_digest()}
    if len(set(digests.values())) == 1:
        return []
    detail = "result digests differ: " + ", ".join(
        f"{k}={v[:12]}" for k, v in digests.items()
    )
    return [Divergence(spec.name, "cache", detail, spec)]


def check_incremental(spec: ProgramSpec, calibration=None) -> List[Divergence]:
    """A clock bump on a warm stage store must match a scratch compile.

    One flow, backed by a fresh temporary stage store, compiles the program
    at its spec'd clock and then at a bumped clock; the second run reuses
    every stored stage whose input digest the clock does not reach.  A
    scratch flow with the stage cache off compiles the bumped clock; the
    two bumped-clock results must agree bit-for-bit.
    """
    calibration = calibration or synthetic_calibration()
    config = CONFIG_LABELS.get(spec.config)
    if config is None:
        raise SpecError(f"{spec.name}: unknown config label {spec.config!r}")
    bumped = spec.clock_mhz + 83  # off the spec'd clock, off common targets
    with tempfile.TemporaryDirectory(prefix="repro-fuzz-stages-") as root:
        warm_flow = Flow(
            clock_mhz=spec.clock_mhz,
            seed=2020,
            calibration=calibration,
            stage_cache=StageArtifactStore(root=root),
        )
        warm_flow.run(build_program(spec).design, config=config)
        warm_flow.clock_mhz = bumped
        warm = warm_flow.run(build_program(spec).design, config=config)
    scratch_flow = Flow(
        clock_mhz=bumped,
        seed=2020,
        calibration=calibration,
        stage_cache="off",
    )
    scratch = scratch_flow.run(build_program(spec).design, config=config)
    digests = {
        "incremental": warm.result_digest(),
        "scratch": scratch.result_digest(),
    }
    if len(set(digests.values())) == 1:
        return []
    detail = "result digests differ: " + ", ".join(
        f"{k}={v[:12]}" for k, v in digests.items()
    )
    return [Divergence(spec.name, "incremental", detail, spec)]


def run_checks(
    spec: ProgramSpec,
    checks: Sequence[str] = CHECK_GROUPS,
    store: Optional[StageArtifactStore] = None,
    calibration=None,
) -> List[Divergence]:
    """Run the selected check groups on one program.

    :class:`SpecError` from building the *input* spec propagates (the
    caller sent an invalid program); any other exception inside a check is
    itself a reportable divergence (``error:<check>``) — invariants must
    not only hold, checking them must not crash.
    """
    build_program(spec)  # surface SpecError before blaming a check
    divergences: List[Divergence] = []
    for check in checks:
        if check not in CHECK_GROUPS:
            raise ReproError(
                f"unknown fuzz check {check!r} (expected one of {CHECK_GROUPS})"
            )
        try:
            if check == "oracle":
                divergences.extend(check_oracle(spec))
            elif check == "passes":
                divergences.extend(check_passes(spec))
            elif check == "cache":
                divergences.extend(
                    check_cache(spec, store=store, calibration=calibration)
                )
            elif check == "incremental":
                divergences.extend(
                    check_incremental(spec, calibration=calibration)
                )
        except Exception as exc:  # noqa: BLE001 — crash == finding
            divergences.append(
                Divergence(
                    spec.name,
                    f"error:{check}",
                    f"{type(exc).__name__}: {exc}",
                    spec,
                )
            )
    return divergences


# ----------------------------------------------------------------------
# campaign driver
def _write_corpus_entry(
    corpus_dir: str, divergence: Divergence
) -> str:
    os.makedirs(corpus_dir, exist_ok=True)
    spec = divergence.shrunk or divergence.spec
    safe_check = divergence.check.replace(":", "_").replace("/", "_")
    path = os.path.join(corpus_dir, f"{spec.name}__{safe_check}.json")
    head, _sep, tail = divergence.check.partition(":")
    group = tail if head == "error" else head
    document = {
        "schema": CORPUS_SCHEMA,
        "note": f"auto-shrunk reproducer for {divergence.check}: "
                f"{divergence.detail}",
        "checks": [group],
        "program": spec.to_dict(),
    }
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def run_campaign(
    seed: int,
    count: int,
    checks: Sequence[str] = CHECK_GROUPS,
    budget_s: Optional[float] = None,
    corpus_dir: Optional[str] = None,
    shrink_failures: bool = True,
    calibration=None,
    log: Optional[Callable[[str], None]] = None,
) -> CampaignReport:
    """Generate and check ``count`` programs from ``seed``.

    One stage-artifact store is shared across the whole campaign, so the
    warm-path check also proves different programs never collide in the
    content-addressed store.  Failures are shrunk (greedy, see
    :mod:`repro.fuzz.shrink`) and written to ``corpus_dir``.
    """
    say = log or (lambda _msg: None)
    checks = tuple(checks)
    report = CampaignReport(seed=seed, requested=count, checks=checks)
    calibration = calibration or synthetic_calibration()
    store = (
        StageArtifactStore(root=tempfile.mkdtemp(prefix="repro-fuzz-stages-"))
        if "cache" in checks
        else None
    )
    started = time.perf_counter()
    for index in range(count):
        if budget_s is not None and time.perf_counter() - started > budget_s:
            report.budget_exhausted = True
            say(f"budget of {budget_s:.0f}s exhausted after {index} programs")
            break
        spec = generate_spec(seed, index)
        found = run_checks(spec, checks=checks, store=store, calibration=calibration)
        report.programs += 1
        for divergence in found:
            say(f"DIVERGENCE {divergence.summary()}")
            if shrink_failures:
                target = divergence.check

                def still_fails(candidate: ProgramSpec, _target=target) -> bool:
                    return any(
                        d.check == _target
                        for d in run_checks(
                            candidate,
                            checks=checks,
                            store=store,
                            calibration=calibration,
                        )
                    )

                divergence.shrunk = shrink(spec, still_fails)
            if corpus_dir is not None:
                divergence.corpus_path = _write_corpus_entry(corpus_dir, divergence)
                say(f"  reproducer: {divergence.corpus_path}")
            report.divergences.append(divergence)
    report.elapsed_s = time.perf_counter() - started
    return report
