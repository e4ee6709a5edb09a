"""The pass manager: executes the stage DAG with content-addressed skips.

For every stage, in order:

1. open the stage's observability span (so every entry point — CLI,
   engine, service — gets the identical trace skeleton);
2. compute the stage's params and chain its input digest from the digests
   of the keys it consumes;
3. look the digest up — memory overlay first (:class:`MemoryStageStore`,
   shared across the runs of one ``Flow.compare``/sweep), then the on-disk
   :class:`StageArtifactStore` (shared across processes and sessions);
4. on a hit: unpickle a fresh copy of the stored outputs, replay the
   stored span snapshot (attrs, counters, gauges, histogram samples, child
   spans — see :mod:`repro.obs.snapshot`), mark the span ``cached`` and
   count ``pipeline.stages_skipped``;
5. on a miss: run the stage, snapshot its span, and store the pickled
   output bundle *immediately* — before any later stage can mutate the
   live objects in place — counting ``pipeline.stages_run``.

Every output key then inherits the stage's digest, which is how a change
invalidates exactly the downstream stages that transitively consume it.

The manager also keeps a journal — one record per stage with its digest,
whether it ran or was skipped, and where the hit came from.  The journal
rides on :attr:`FlowResult.journal <repro.flow.FlowResult.journal>`; the
service surfaces it per job, which is how the resume smoke proves a
retried worker picked up from its dead predecessor's checkpoints.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.pipeline.digest import design_digest
from repro.pipeline.stage import Stage
from repro.pipeline.store import (
    STAGE_STORE_SCHEMA,
    MemoryStageStore,
    StageArtifactStore,
    encode_outputs,
)

#: Journal ``action`` values.
ACTION_RUN = "run"
ACTION_SKIPPED = "skipped"


class _LazyContext(dict):
    """Context dict that materializes skipped-stage outputs on first read.

    A store hit used to unpickle its output bundle immediately; on a warm
    re-run where most stages skip, most of those bundles are superseded by
    a later stage's bundle before anyone reads them (three stages bundle
    ``lowered``, four bundle ``gen``).  Deferring the unpickle to the first
    actual read makes a fully-warm run pay only for the *final* producer of
    each key it consumes.

    ``defer`` registers a store entry as the pending producer of a set of
    keys; any read of such a key loads the bundle once and materializes
    every key still pending on that entry.  A later write (a stage that
    ran, or a newer skipped producer) simply supersedes the pending entry.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._pending: Dict[str, Any] = {}

    def defer(self, keys: Sequence[str], entry: Any) -> None:
        for key in keys:
            super().pop(key, None)
            self._pending[key] = entry

    def _materialize(self, key: str) -> None:
        entry = self._pending.get(key)
        if entry is None:
            return
        outputs = entry.load()
        for name, value in outputs.items():
            if self._pending.get(name) is entry:
                del self._pending[name]
                super().__setitem__(name, value)

    def _materialize_all(self) -> None:
        for key in list(self._pending):
            self._materialize(key)

    def __getitem__(self, key: str) -> Any:
        self._materialize(key)
        return super().__getitem__(key)

    def get(self, key: str, default: Any = None) -> Any:
        self._materialize(key)
        return super().get(key, default)

    def __contains__(self, key: object) -> bool:
        return super().__contains__(key) or key in self._pending

    def __setitem__(self, key: str, value: Any) -> None:
        self._pending.pop(key, None)
        super().__setitem__(key, value)

    def update(self, *args: Any, **kwargs: Any) -> None:  # type: ignore[override]
        for key, value in dict(*args, **kwargs).items():
            self[key] = value

    # Whole-dict views must see pending values too.
    def keys(self):  # type: ignore[override]
        self._materialize_all()
        return super().keys()

    def values(self):  # type: ignore[override]
        self._materialize_all()
        return super().values()

    def items(self):  # type: ignore[override]
        self._materialize_all()
        return super().items()


class PassManager:
    """Executes a stage list over a shared context dict.

    Args:
        stages: The stages, in DAG order (see
            :func:`repro.pipeline.stages.build_stages`).
        store: On-disk artifact store, or ``None`` to disable persistence.
        overlay: In-process store consulted before ``store`` and written
            alongside it; ``Flow.compare`` shares one across its two runs.
    """

    def __init__(
        self,
        stages: Sequence[Stage],
        store: Optional[StageArtifactStore] = None,
        overlay: Optional[MemoryStageStore] = None,
    ) -> None:
        self.stages = list(stages)
        self.store = store
        self.overlay = overlay

    def _lookup(self, digest: str) -> Tuple[Optional[Any], Optional[str]]:
        if self.overlay is not None:
            hit = self.overlay.get(digest)
            if hit is not None:
                return hit, "overlay"
        if self.store is not None:
            hit = self.store.get(digest)
            if hit is not None:
                return hit, "disk"
        return None, None

    def execute(
        self, flow, config, ctx: Dict[str, Any]
    ) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
        """Run the pipeline; returns ``(ctx, journal)``.

        ``ctx`` must hold the ``design`` (and any flow-level scalars stages
        parameterize on, e.g. ``clock_ns``); it is updated in place with
        every stage's outputs.
        """
        tracer = obs.current_tracer()
        caching = self.store is not None or self.overlay is not None
        if caching and not isinstance(tracer, obs.Tracer):
            # Untraced run that will store artifacts: activate a private
            # tracer so every artifact still carries a replayable span
            # snapshot (stage internals report through the *active*
            # tracer) — a later, traced warm run replays the producer's
            # attrs and counters from it.
            with obs.activate(obs.Tracer()) as shadow:
                return self._execute(shadow, flow, config, ctx, caching)
        return self._execute(tracer, flow, config, ctx, caching)

    def _execute(
        self, tracer, flow, config, ctx: Dict[str, Any], caching: bool
    ) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
        journal: List[Dict[str, Any]] = []
        key_digests: Dict[str, str] = {"design": design_digest(ctx["design"])}
        if not isinstance(ctx, _LazyContext):
            ctx = _LazyContext(ctx)
        for stage in self.stages:
            started = time.perf_counter()
            with tracer.span(stage.name) as span:
                params = stage.params(flow, config, ctx)
                digest = stage.input_digest(params, key_digests)
                hit = source = None
                if stage.cacheable and caching:
                    hit, source = self._lookup(digest)
                if hit is not None:
                    # Defer the unpickle: a later skipped stage often
                    # supersedes these keys before anyone reads them, in
                    # which case this bundle is never loaded at all.
                    ctx.defer(stage.outputs, hit)
                    obs.replay_span(span, hit.meta.get("span") or {})
                    span.set("cached", True)
                    tracer.add("pipeline.stages_skipped")
                    action = ACTION_SKIPPED
                else:
                    outputs = dict(stage.run(flow, config, ctx, span) or {})
                    ctx.update(outputs)
                    if stage.cacheable and caching:
                        # Snapshot and pickle *now*: later stages mutate
                        # these objects in place (scheduling edits loop
                        # bodies, replication rewrites the netlist), and
                        # the stored artifact must be this stage's view.
                        payload = encode_outputs(stage.name, outputs)
                        meta = {
                            "schema": STAGE_STORE_SCHEMA,
                            "stage": stage.name,
                            "span": obs.snapshot_span(span),
                        }
                        if self.overlay is not None:
                            self.overlay.put(digest, payload, meta)
                        if self.store is not None:
                            self.store.put(digest, payload, meta)
                    tracer.add("pipeline.stages_run")
                    action = ACTION_RUN
            for key in stage.outputs:
                key_digests[key] = digest
            duration_ms = round((time.perf_counter() - started) * 1e3, 3)
            journal.append(
                {
                    "stage": stage.name,
                    "digest": digest,
                    "action": action,
                    "source": source,
                    "cacheable": stage.cacheable,
                    "duration_ms": duration_ms,
                }
            )
            if stage.cacheable and caching:
                obs.emit_event(
                    "stage.hit" if action == ACTION_SKIPPED else "stage.miss",
                    stage=stage.name,
                    digest=digest,
                    cache=source,  # "memory"/"disk" ("source" names the emitter)
                    duration_ms=duration_ms,
                )
        return ctx, journal
