"""Staged pass pipeline: content-addressed stages with partial re-execution.

The pipeline decomposes the flow into eleven :class:`Stage` steps executed
by a :class:`PassManager` over a shared context dict.  Each stage carries a
content digest chained from the design structure, its parameters, and its
producers' digests; a matching artifact in the :class:`StageArtifactStore`
(``$REPRO_CACHE_DIR/stages/``) or a :class:`MemoryStageStore` overlay lets
the manager skip the stage and replay its recorded trace instead.

See ``DESIGN.md`` §7 for the DAG, digest propagation, and invalidation
semantics.
"""

from repro.pipeline.digest import (
    DESIGN_DIGEST_SCHEMA,
    TABLE_DIGEST_SCHEMA,
    design_digest,
    table_digest,
)
from repro.pipeline.manager import ACTION_RUN, ACTION_SKIPPED, PassManager
from repro.pipeline.stage import STAGE_DIGEST_SCHEMA, Stage
from repro.pipeline.stages import (
    CalibrationStage,
    IIAnalysisStage,
    PlacementStage,
    PragmasStage,
    ReplicationStage,
    RetimingStage,
    RtlGenStage,
    SchedulingStage,
    SpreadingStage,
    SyncPruningStage,
    TimingStage,
    build_stages,
)
from repro.pipeline.store import (
    DEFAULT_MAX_ENTRIES,
    STAGE_STORE_SCHEMA,
    MemoryStageStore,
    StageArtifactStore,
    StoredStage,
    decode_outputs,
    encode_outputs,
)

__all__ = [
    "ACTION_RUN",
    "ACTION_SKIPPED",
    "CalibrationStage",
    "DEFAULT_MAX_ENTRIES",
    "DESIGN_DIGEST_SCHEMA",
    "IIAnalysisStage",
    "MemoryStageStore",
    "PassManager",
    "PlacementStage",
    "PragmasStage",
    "ReplicationStage",
    "RetimingStage",
    "RtlGenStage",
    "STAGE_DIGEST_SCHEMA",
    "STAGE_STORE_SCHEMA",
    "SchedulingStage",
    "SpreadingStage",
    "Stage",
    "StageArtifactStore",
    "StoredStage",
    "SyncPruningStage",
    "TABLE_DIGEST_SCHEMA",
    "TimingStage",
    "build_stages",
    "decode_outputs",
    "design_digest",
    "encode_outputs",
    "table_digest",
]
