"""Workload definitions, input generation and the read-only answer check."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from perfbench import stats

N = 100_000
DIM = 50
K = 10
#: Distinct queries per run; the closed loops cycle through them.
POOL = 1024
#: Relative tolerance on a returned distance against the exact one.
DIST_RTOL = 1e-6
#: Seeds each workload's data set: the distribution's shape (mixture
#: centres, subspace basis) and the 100k indexed points.  Like a real
#: corpus the data set is part of the workload; ``--seed`` draws the
#: queries and the writes.  Drawing the data from ``--seed`` too made the
#: index's own sampled initial-radius estimate, and with it the work per
#: query, swing by a third from seed to seed on ``lib-lowid``.
DATA_SEED = 20220101
#: The projection seed: the index, like the data set, is fixed per workload.
INDEX_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    data: str  # "clustered" (gaussian_mixture) or "lowid" (low_intrinsic_dim)
    t: int
    #: Fixed tail percentiles: the highest of ``stats.TAIL_LADDER`` that
    #: leaves >= 20 samples beyond it in a 12 s run, so the rule's ten
    #: still hold in a 20 s run if a change cuts the rate by two thirds.
    #: http-mixed's is lower: its p95 rests on compaction and fsync
    #: stalls and spread 0.18 of its median over ten runs, twice p90's.
    tail_pct: float
    batch: int = 1  # queries per library call
    connections: int = 0  # HTTP query connections; 0 = in-process library
    write_rate: float = 0.0  # open-loop writes per second (http-mixed)
    compact_every: int = 0  # --compact-threshold (pending mutations)
    write_tail_pct: float = 90.0

    @property
    def http(self) -> bool:
        return self.connections > 0


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("lib-clustered", "clustered", t=400, tail_pct=80.0, batch=16),
        Workload("lib-lowid", "lowid", t=16, tail_pct=98.0),
        Workload("http-mixed", "clustered", t=400, tail_pct=90.0, connections=1,
                 write_rate=25.0, compact_every=300),
    )
}


def index_params(wl: Workload) -> dict:
    return dict(c=1.5, l_spaces=5, k_per_space=10, t=wl.t,
                auto_initial_radius=True, seed=INDEX_SEED)


def make_inputs(wl: Workload, seed: int, extra: int = 0
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(data, queries, fresh)``: the workload's data set, and from ``seed``
    a pool of queries and ``extra`` fresh points to insert.

    The distributions are those of ``repro.data.generators``'
    ``gaussian_mixture`` (10 clusters, spread 10, std 1) and
    ``low_intrinsic_dim`` (an 8-flat, scale 5, noise 0.01).  The program
    only ever sees these arrays.
    """
    fixed = np.random.default_rng(DATA_SEED)
    if wl.data == "clustered":
        centers = fixed.standard_normal((10, DIM)) * 10.0

        def draw(rng, m):
            return centers[rng.integers(0, 10, size=m)] + rng.standard_normal((m, DIM))
    else:
        basis = fixed.standard_normal((8, DIM)) / np.sqrt(8)

        def draw(rng, m):
            return (rng.standard_normal((m, 8)) * 5.0 @ basis
                    + rng.standard_normal((m, DIM)) * 0.01)
    rng = np.random.default_rng(seed)
    return draw(fixed, N), draw(rng, POOL), draw(rng, extra)


def fit(wl: Workload, data: np.ndarray):
    from repro import DBLSH

    return DBLSH(**index_params(wl)).fit(data)


class ReadOnlyCheck:
    """Checks answers over a fixed point set and scores their recall.

    Every answer must be well formed, hold only ids of the data, report
    each id's exact distance, and repeat exactly whenever the same query
    is asked again.
    """

    def __init__(self, data: np.ndarray, queries: np.ndarray, truth: np.ndarray) -> None:
        self.data = data
        self.queries = queries
        self.truth = truth
        self.first: Dict[int, List[int]] = {}
        self.recalls: List[float] = []
        self.problem: Optional[str] = None

    def add(self, qi: int, ids, dists) -> None:
        if self.problem is not None:
            return
        ids = [int(i) for i in ids]
        problem = stats.malformed(ids, dists, K)
        if problem is None and not all(0 <= i < self.data.shape[0] for i in ids):
            problem = "id outside the data"
        if problem is None:
            exact = np.linalg.norm(self.data[ids] - self.queries[qi], axis=1)
            if not np.allclose(dists, exact, rtol=DIST_RTOL, atol=1e-9):
                problem = "returned distances differ from the exact ones"
        if problem is None and self.first.setdefault(qi, ids) != ids:
            problem = "a repeated query returned different ids"
        if problem is not None:
            self.problem = f"query {qi}: {problem}"
            return
        self.recalls.append(stats.recall(ids, self.truth[qi, :K]))

    @property
    def recall(self) -> float:
        return float(np.mean(self.recalls)) if self.recalls else 0.0

    @property
    def digest(self) -> str:
        return stats.digest(self.first)
