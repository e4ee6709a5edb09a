"""The Stage protocol of the staged pass pipeline.

A stage is one step of the flow DAG with an explicit data contract:

* ``inputs`` — the context keys it reads (``"design"``, ``"lowered"``,
  ``"gen"``, ...);
* ``outputs`` — the keys it (re)binds.  Outputs that alias mutated inputs
  are declared too: scheduling re-binds ``lowered`` because broadcast-aware
  scheduling edits loop bodies in place, and its stored artifact must
  bundle the edited design with the schedules that point into it;
* ``params`` — everything else that can change the result (clock period,
  seeds, config knobs, calibration identity);
* ``cacheable`` — stages with environment-dependent behavior (calibration
  resolution) opt out of artifact storage while still participating in
  digest chaining.

:meth:`Stage.input_digest` is the content identity used by the
:class:`~repro.pipeline.manager.PassManager`: stage name + version +
params + the digests of the consumed keys.  Because every output key
inherits the digest of the stage that produced it, a change propagates to
exactly the downstream stages that (transitively) consume it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Tuple

from repro.errors import ReproError
from repro.hashing import content_digest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.flow import Flow
    from repro.opt import OptimizationConfig

#: Version tag of the stage digest recipe.
STAGE_DIGEST_SCHEMA = "repro-stage-digest/1"


class Stage:
    """One step of the flow pipeline.  Subclasses override the class
    attributes and :meth:`run` (plus :meth:`params` when parameterized)."""

    #: Stage name — also the observability span name.
    name: str = "stage"
    #: Bump when the stage's algorithm changes output-relevantly; stored
    #: artifacts from older versions then stop matching.
    version: int = 1
    #: Context keys consumed.
    inputs: Tuple[str, ...] = ()
    #: Context keys produced/re-bound.
    outputs: Tuple[str, ...] = ()
    #: Whether the manager may store/skip this stage.
    cacheable: bool = True

    def params(
        self, flow: "Flow", config: "OptimizationConfig", ctx: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Digest-relevant parameters (canonical-JSON-able values only)."""
        return {}

    def run(
        self, flow: "Flow", config: "OptimizationConfig", ctx: Dict[str, Any], span
    ) -> Dict[str, Any]:
        """Execute the stage; returns the output bindings."""
        raise NotImplementedError

    def input_digest(
        self, params: Dict[str, Any], key_digests: Dict[str, str]
    ) -> str:
        """The content identity of this stage execution."""
        try:
            inputs = {key: key_digests[key] for key in self.inputs}
        except KeyError as exc:
            raise ReproError(
                f"stage {self.name!r} consumes {exc.args[0]!r} but no "
                f"earlier stage produced it (have: {sorted(key_digests)})"
            ) from None
        return content_digest(
            {
                "schema": STAGE_DIGEST_SCHEMA,
                "stage": self.name,
                "version": self.version,
                "params": params,
                "inputs": inputs,
            }
        )
