"""The cluster router: one submit surface over a fleet of flow daemons.

Routing is pure arithmetic: the router builds the same canonical
:class:`~repro.service.request.FlowRequest` a node would and consistent-
hash-maps its digest onto the membership ring — the primary owner gets
the submit, the backup replica is the failover target.  Because identity
is content-addressed end to end, the whole cluster behaves like one big
coalescing cache: the same request always lands on the same node, where
it either coalesces onto the in-flight job, hits that node's store, or
compiles exactly once.

Three mechanisms keep tail latency down:

* **hot-digest LRU cache** — terminal ("done") records are cached at the
  router keyed by digest, so a repeat of a hot request is answered from
  router memory without touching any node (``served_from:
  "router-cache"``);
* **failover** — a connection-level failure against the primary marks it
  dead in the membership (the ring re-hashes) and re-submits to the
  backup replica; the retry resumes from whatever checkpointed stage
  artifacts the dead node shared (``cluster.failover`` journal event,
  ``cluster.failovers`` counter).  HTTP 429 (backpressure) spills to the
  backup too, without declaring anyone dead;
* **peer fetch** — the backup's own store miss consults the ring owners
  (see :mod:`repro.cluster.peer`), so failover never recompiles a digest
  the fleet already has.

Aggregation: :meth:`status` merges every node's ``/health`` vitals with
the membership table; :meth:`metrics_text` scrapes each node's
``/metrics`` and re-exposes every sample with a ``node=<id>`` label plus
the router's own counters.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Any, Dict, List, Optional

from repro import obs
from repro.cluster.membership import Membership, NodeInfo
from repro.obs.exposition import Family, Sample
from repro.obs.journal import EventJournal, emit_event
from repro.service.client import ServiceBusyError, ServiceError
from repro.service.request import FlowRequest
from repro.store import MemoryLru

#: Hot-digest cache bound: a record is a small JSON dict (~1 KB), so even
#: thousands are cheap; 512 covers any realistic hot set.
DEFAULT_CACHE_ENTRIES = 512


class ClusterRouter:
    """Routes content-addressed submissions across the membership ring."""

    def __init__(
        self,
        membership: Membership,
        cache_entries: int = DEFAULT_CACHE_ENTRIES,
        journal: Optional[EventJournal] = None,
    ) -> None:
        self.membership = membership
        self.journal = journal
        self.cache_entries = cache_entries
        self._cache = MemoryLru(cache_entries)
        self._lock = threading.Lock()
        self.created_s = time.time()
        self.requests = 0
        self.cache_hits = 0
        self.failovers = 0
        self.busy_redirects = 0

    # -- plumbing --------------------------------------------------------
    def _emit(self, event: str, **fields: Any) -> None:
        if self.journal is not None:
            try:
                self.journal.emit(event, **fields)
            except OSError:
                pass
        else:
            emit_event(event, **fields)

    def _count(self, name: str, amount: float = 1) -> None:
        obs.global_registry().add(name, amount)

    # -- the hot-digest cache --------------------------------------------
    def _cache_get(self, digest: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            record = self._cache.get(digest)
        return None if record is None else dict(record)

    def _cache_put(self, digest: str, record: Dict[str, Any]) -> None:
        with self._lock:
            self._cache.put(digest, dict(record))

    def cache_len(self) -> int:
        with self._lock:
            return len(self._cache)

    # -- submit ----------------------------------------------------------
    def request_for(
        self,
        design: str,
        config: Any = "orig",
        params: Optional[Dict[str, Any]] = None,
        clock_mhz: Optional[float] = None,
        seed: int = 2020,
        calibration_path: Optional[str] = None,
        plan: Optional[Any] = None,
    ) -> FlowRequest:
        """The canonical request — byte-identical to what a node builds
        from the same submit body, so router and fleet agree on digests."""
        return FlowRequest.make(
            design,
            config=config,
            clock_mhz=clock_mhz,
            seed=seed,
            smooth_passes=1,
            calibration_path=calibration_path,
            plan=plan,
            **dict(params or {}),
        )

    def submit(
        self,
        design: str,
        config: Any = "orig",
        params: Optional[Dict[str, Any]] = None,
        priority: str = "normal",
        wait: bool = True,
        wait_timeout_s: Optional[float] = None,
        timeout_s: Optional[float] = None,
        clock_mhz: Optional[float] = None,
        seed: int = 2020,
        calibration_path: Optional[str] = None,
        plan: Optional[Any] = None,
    ) -> Dict[str, Any]:
        """Route one submission; returns the node's job record annotated
        with ``node`` (who served it) and ``served_from``.

        Raises :class:`ServiceError` with ``status=0`` when every replica
        of the digest is unreachable, and propagates semantic errors
        (bad request, unknown design, failed job) from the serving node
        untouched.
        """
        self.requests += 1
        self._count("cluster.requests")
        request = self.request_for(
            design,
            config=config,
            params=params,
            clock_mhz=clock_mhz,
            seed=seed,
            calibration_path=calibration_path,
            plan=plan,
        )
        digest = request.digest()

        cached = self._cache_get(digest)
        if cached is not None:
            self.cache_hits += 1
            self._count("cluster.router_cache_hits")
            cached["served_from"] = "router-cache"
            return cached

        owners = self.membership.owners(digest)
        if not owners:
            raise ServiceError("cluster has no alive nodes", status=0)
        last_error: Optional[ServiceError] = None
        for index, info in enumerate(owners):
            client = self.membership.client(info)
            try:
                record = client.submit(
                    design,
                    config=config,
                    params=params,
                    priority=priority,
                    wait=wait,
                    wait_timeout_s=wait_timeout_s,
                    timeout_s=timeout_s,
                    clock_mhz=clock_mhz,
                    seed=seed,
                    calibration_path=calibration_path,
                    plan=request.plan_spec(),
                )
            except ServiceBusyError as exc:
                # Backpressure spills to the backup; the node is healthy.
                last_error = exc
                self.busy_redirects += 1
                self._count("cluster.busy_redirects")
                continue
            except ServiceError as exc:
                if exc.status != 0:
                    raise  # a real answer (bad request, failed job)
                last_error = exc
                self.membership.mark_dead(
                    info.node_id, reason="submit connection failed"
                )
                backups = [o.node_id for o in owners[index + 1:]]
                if backups:
                    self.failovers += 1
                    self._count("cluster.failovers")
                    self._emit(
                        "cluster.failover",
                        digest=digest,
                        design=design,
                        dead_node=info.node_id,
                        backup_node=backups[0],
                    )
                continue
            record["node"] = info.node_id
            record.setdefault("served_from", "compile")
            if record.get("state") == "done" and record.get("result_digest"):
                self._cache_put(digest, record)
            return record
        raise last_error if last_error is not None else ServiceError(
            "cluster submit failed", status=0
        )

    # -- aggregation -----------------------------------------------------
    def status(self) -> Dict[str, Any]:
        """The cluster-wide status document: membership + per-node health
        vitals + router counters (``repro cluster status`` / ``repro
        status --cluster``)."""
        nodes: List[Dict[str, Any]] = []
        for info in self.membership.members():
            record = info.record()
            if info.alive:
                try:
                    record["vitals"] = self.membership.probe_client(info).health()
                except ServiceError:
                    record["vitals"] = dict(info.vitals)  # last heartbeat's
            nodes.append(record)
        return {
            "schema": "repro-cluster-status/1",
            "ring_version": self.membership.version,
            "replicas": self.membership.replicas,
            "nodes": nodes,
            "router": {
                "requests": self.requests,
                "cache_hits": self.cache_hits,
                "cache_entries": self.cache_len(),
                "failovers": self.failovers,
                "busy_redirects": self.busy_redirects,
                "uptime_s": round(time.time() - self.created_s, 3),
            },
        }

    def metrics_text(self) -> str:
        """One exposition document for the whole fleet.

        Every node's ``/metrics`` samples are re-labeled with
        ``node=<id>``; the router appends its own counter families.  Nodes
        that fail to answer are skipped (their absence is visible through
        ``repro_cluster_nodes_alive``).
        """
        from repro.obs.exposition import parse_exposition

        families: "OrderedDict[str, Family]" = OrderedDict()

        def family_for(name: str, types: Dict[str, str]) -> Family:
            base = name
            if base not in types:
                for suffix in ("_total", "_count", "_sum", "_min", "_max"):
                    if base.endswith(suffix) and base[: -len(suffix)] in types:
                        base = base[: -len(suffix)]
                        break
            family = families.get(base)
            if family is None:
                family = Family(name=base, kind=types.get(base, "untyped"))
                families[base] = family
            return family

        for info in self.membership.alive():
            try:
                text = self.membership.probe_client(info).metrics()
                document = parse_exposition(text)
            except (ServiceError, ValueError):
                continue
            for (name, labels), value in sorted(document.samples.items()):
                family_for(name, document.types).samples.append(
                    Sample(name, value, labels + (("node", info.node_id),))
                )

        own = [
            ("repro_cluster_requests_total", "counter", self.requests),
            ("repro_cluster_router_cache_hits_total", "counter", self.cache_hits),
            ("repro_cluster_failovers_total", "counter", self.failovers),
            ("repro_cluster_busy_redirects_total", "counter", self.busy_redirects),
            ("repro_cluster_nodes_alive", "gauge", len(self.membership.ring)),
        ]
        lines: List[str] = []
        for family in families.values():
            lines.extend(family.render())
        for name, kind, value in own:
            base = name[: -len("_total")] if name.endswith("_total") else name
            lines.append(f"# TYPE {base} {kind}")
            lines.append(Sample(name, value).render())
        return "\n".join(lines) + "\n"
