"""Summary statistics and correctness bookkeeping for the benchmark.

Pure functions over plain numbers and strings, so they can be tested
without compiling anything.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Optional, Tuple

#: Percentiles a tail latency may be reported at, lowest first.  A fixed
#: ladder keeps the reported percentile the same between runs whose sample
#: counts differ a little.
PERCENTILE_LADDER: Tuple[float, ...] = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: A tail percentile must leave at least this many samples above it.
MIN_SAMPLES_BEYOND = 10


def tail_percentile(n: int, beyond: int = MIN_SAMPLES_BEYOND) -> Optional[float]:
    """The highest percentile of ``n`` samples whose nearest-rank sample
    has at least ``beyond`` samples above it.

    That is the highest rung of :data:`PERCENTILE_LADDER` that qualifies;
    with fewer than ``2 * beyond`` samples no rung does, and it is the
    exact rank that leaves ``beyond`` samples above (below the median for
    small samples, which is what the rule gives).  ``None`` when ``n`` is
    no more than ``beyond``.
    """
    if n <= beyond:
        return None
    for pct in reversed(PERCENTILE_LADDER):
        if n - max(1, math.ceil(pct / 100.0 * n)) >= beyond:
            return pct
    return 100.0 * (n - beyond) / n


def harrell_davis(values: Iterable[float], pct: float) -> float:
    """Harrell-Davis estimate of the ``pct`` percentile.

    A weighted mean of all order statistics, weighted by a Beta((n+1)p,
    (n+1)(1-p)) distribution over their ranks.  A single order statistic of
    a small sample of unequal requests (18 Table 1 compiles) jumps to
    another request whenever two neighbours swap; this estimate moves
    smoothly instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("percentile of an empty sample")
    p = pct / 100.0
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def pdf(t: float) -> float:
        if t <= 0.0 or t >= 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))

    steps = 16  # Simpson's rule per rank interval; even
    weights = []
    for i in range(n):
        lo, h = i / n, 1.0 / (n * steps)
        total = pdf(lo) + pdf(lo + steps * h)
        total += sum((4 if k % 2 else 2) * pdf(lo + k * h) for k in range(1, steps))
        weights.append(total * h / 3)
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    if not values or min(values) <= 0:
        raise ValueError("geometric mean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


class DigestBook:
    """Counts results whose digest differs from the compiled reference.

    :meth:`compiled` records the digest a point's compile produced;
    :meth:`served` checks a warm- or store-served result against it.  A
    served result for a point that was never compiled in the run is
    counted as ``unreferenced``, not as a match.
    """

    def __init__(self) -> None:
        self.reference: Dict[str, str] = {}
        self.checked = 0
        self.mismatches: List[Tuple[str, str, str]] = []
        self.unreferenced = 0

    def compiled(self, point: str, digest: str) -> bool:
        """Record a compile; a second compile of a point must agree."""
        first = self.reference.setdefault(point, digest)
        if first != digest:
            self.mismatches.append((point, first, digest))
            return False
        return True

    def served(self, point: str, digest: str) -> bool:
        self.checked += 1
        reference = self.reference.get(point)
        if reference is None:
            self.unreferenced += 1
            return False
        if reference != digest:
            self.mismatches.append((point, reference, digest))
            return False
        return True

    @property
    def mismatch_count(self) -> int:
        return len(self.mismatches)
