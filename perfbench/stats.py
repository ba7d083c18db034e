"""Sample statistics, failure accounting and answer checks.

Pure helpers with no I/O, so ``perfbench/tests`` can pin them directly.
"""

from __future__ import annotations

import hashlib
import http.client
import math
import socket
from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: Percentiles a tail may be reported at.  A tail is reported at the
#: highest of these that leaves at least :data:`MIN_BEYOND` samples
#: beyond it, so its value rests on more than one or two slow calls.
TAIL_LADDER = (50.0, 75.0, 80.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9)
MIN_BEYOND = 10


def rank(n: int, pct: float) -> int:
    """1-based nearest-rank position of the ``pct`` percentile of ``n`` samples."""
    return max(1, math.ceil(pct / 100.0 * n))


def samples_beyond(n: int, pct: float) -> int:
    """Samples strictly after the nearest-rank ``pct`` percentile."""
    return n - rank(n, pct)


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (an observed sample, never interpolated)."""
    if len(values) == 0:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    return float(ordered[rank(len(ordered), pct) - 1])


def tail_percentile(n: int, preferred: Optional[float] = None) -> Optional[float]:
    """Highest ladder percentile, at most ``preferred``, with >= 10 samples beyond.

    ``None`` when even the median leaves fewer than ten.
    """
    best = None
    for pct in TAIL_LADDER:
        if preferred is not None and pct > preferred:
            break
        if samples_beyond(n, pct) >= MIN_BEYOND:
            best = pct
    return best


def latency_summary(seconds: Sequence[float], preferred_tail: float) -> Dict[str, float]:
    """Median and tail of a latency sample, in ms, with the sample counts.

    The tail is taken at ``preferred_tail`` (the workload's fixed
    percentile) unless the sample is too small for it, in which case the
    highest percentile the rule still allows is used and reported.
    """
    n = len(seconds)
    if n == 0:
        raise ValueError("no latency samples")
    pct = tail_percentile(n, preferred_tail)
    if pct is None:
        pct = 50.0
    return {
        "n": n,
        "p50_ms": percentile(seconds, 50.0) * 1e3,
        "tail_ms": percentile(seconds, pct) * 1e3,
        "tail_pct": pct,
        "tail_beyond": samples_beyond(n, pct),
    }


def median(values: Iterable[float]) -> float:
    return float(np.median(np.asarray(list(values), dtype=np.float64)))


# ----------------------------------------------------------------------
# Failures
# ----------------------------------------------------------------------


def classify(status: Optional[int] = None, error: Optional[BaseException] = None) -> str:
    """Name one operation's outcome: ``"ok"`` or the kind of failure.

    Any status but 200 fails (429 shed, 504 deadline, 5xx), and so do a
    timeout, a refused connection and any other connection error.
    """
    if error is not None:
        if isinstance(error, (socket.timeout, TimeoutError)):
            return "timeout"
        if isinstance(error, ConnectionRefusedError):
            return "refused"
        if isinstance(error, (OSError, http.client.HTTPException)):
            return "connection"
        raise error
    if status == 200:
        return "ok"
    return f"http_{status}"


class Outcomes:
    """Operations attempted and failed, across every operation type."""

    def __init__(self) -> None:
        self.kinds: Counter = Counter()

    def add(self, kind: str) -> None:
        self.kinds[kind] += 1

    @property
    def attempted(self) -> int:
        return sum(self.kinds.values())

    @property
    def failed(self) -> int:
        return self.attempted - self.kinds["ok"]

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# ----------------------------------------------------------------------
# Answer checks
# ----------------------------------------------------------------------


def malformed(ids: Sequence[int], dists: Sequence[float], k: int) -> Optional[str]:
    """Why an answer is structurally wrong, or ``None`` when it is well formed."""
    if len(ids) != k or len(dists) != k:
        return f"expected {k} neighbours, got {len(ids)} ids / {len(dists)} distances"
    d = np.asarray(dists, dtype=np.float64)
    if not np.all(np.isfinite(d)) or np.any(d < 0):
        return "non-finite or negative distance"
    if np.any(np.diff(d) < 0):
        return "distances are not sorted ascending"
    if len(set(int(i) for i in ids)) != len(ids):
        return "duplicate ids"
    return None


def recall(ids: Sequence[int], truth: Sequence[int]) -> float:
    return len(set(int(i) for i in ids) & set(int(t) for t in truth)) / len(truth)


def live_recall(
    ids: Sequence[int],
    k: int,
    n_base: int,
    base_ranked: Sequence[Tuple[float, int]],
    insert_dist: Dict[int, float],
    ops: Sequence[Tuple[str, int]],
    lo: int,
    hi: int,
) -> Tuple[float, Optional[str]]:
    """Recall of one answer against the live set, with writes in flight.

    ``ops`` is the single writer's sequence of ``("insert"|"delete", id)``.
    The server answered from a state in which the first ``j`` writes are
    applied, for some ``lo <= j <= hi``: ``lo`` writes were acked before
    the query was sent and writes ``lo..hi-1`` were in flight while it
    ran, each counting as applied or not.  ``base_ranked`` lists
    ``(distance, id)`` of the base points nearest the query, deep enough
    to survive every delete; ``insert_dist`` maps inserted ids to their
    distance from the query.

    Returns the best recall over the consistent states, and an error when
    the answer holds an id that is live in none of them (a deleted id,
    an id never inserted, or one outside the base).
    """
    best: Optional[float] = None
    answer = [int(i) for i in ids]
    for j in range(lo, hi + 1):
        deleted = {pid for op, pid in ops[:j] if op == "delete"}
        inserted = {pid for op, pid in ops[:j] if op == "insert"} - deleted
        if not all(
            i in inserted or (0 <= i < n_base and i not in deleted) for i in answer
        ):
            continue
        pool = [(d, i) for d, i in base_ranked if i not in deleted][:k]
        pool += [(insert_dist[i], i) for i in inserted]
        truth = [i for _, i in sorted(pool)[:k]]
        score = recall(answer, truth)
        best = score if best is None else max(best, score)
    if best is None:
        return 0.0, f"answer {answer} holds an id live in no state consistent with writes {lo}..{hi}"
    return best, None


def digest(answers: Dict[int, List[int]]) -> str:
    """Short sha256 over ``{pool index: ids}`` in pool order."""
    h = hashlib.sha256()
    for key in sorted(answers):
        h.update(np.asarray([key, *answers[key]], dtype=np.int64).tobytes())
    return h.hexdigest()[:16]
