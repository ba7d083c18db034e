"""Flattened, array-backed traversal form of the R*-tree.

The pointer-chasing :class:`~repro.index.rstar.RStarTree` traversal costs
one Python iteration (plus several small numpy calls) per node — for the
window queries DB-LSH issues at every radius, interpreter overhead
dominates the geometry.  :class:`FlatRStarTree` freezes a built tree into
contiguous arrays and answers the same window queries with one vectorised
mask per *level* instead of per node:

* each internal level stores its nodes' MBRs as stacked ``low`` / ``high``
  matrices plus a CSR-style ``child_start`` / ``child_end`` pair mapping a
  node to the contiguous block of its children on the next level (the
  nodes are laid out in BFS order, which makes every child block
  contiguous);
* the leaf level stores stacked leaf MBRs, a ``leaf_ptr`` offset array,
  and the concatenated per-leaf id / coordinate arrays.

``window_query_iter`` descends level-by-level — test the frontier's
MBRs against the window, expand the surviving nodes' child ranges,
repeat — then tests every candidate leaf's MBR in one pass, expands the
hit leaves' point ranges once, and lazily yields the matching ids in
chunks of that index array.  Every test is the negated comparison (a box
misses the window iff some stored ``[low, -high]`` component exceeds the
window's ``[w_high, -w_low]``; a point is outside iff some ``[x, -x]``
component is below ``[w_low, -w_high]``), reduced per row by OR-ing the
bool matrix's columns viewed as packed ``uint32`` / ``uint16`` words (see
:func:`_clear_rows`).  Chunks are sized in points of hit leaves, starting
at the caller's ``first_chunk`` and doubling up to ``chunk_points``.
Laziness preserves the incremental-generator contract Algorithm 1 needs:
a caller that stops after ``2tL + k`` verified candidates never pays for
the remaining point tests (the descent and the leaf pass are eager, but
they touch a ~1/M fraction of the rows the point test does).

Chunks enumerate candidates in exactly the order the pointer-based
``RStarTree.window_query_iter`` produces them (its explicit stack visits
children last-to-first, i.e. descending BFS order), so the two traversals
are drop-in interchangeable even where candidate *order* matters —
budget-truncated queries return identical results on either path.

The freeze is traversal-only: the source tree remains the mutable,
insertable structure, and must be re-frozen after updates (see
``RStarTree.freeze``).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.index.rstar import RStarTree, RTreeStats

#: Maximum number of points per yielded chunk (merged across leaves).
DEFAULT_CHUNK_POINTS = 4096

#: First-chunk target; subsequent chunks double up to ``chunk_points``.
_INITIAL_CHUNK_POINTS = 256


def concat_ranges(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(s, e)`` for each range, fully vectorised.

    ``starts`` / ``ends`` are equal-length int64 arrays; empty ranges are
    allowed.  This is the CSR expansion primitive of the level-wise
    descent (child blocks of the surviving frontier) and of the leaf
    gather (point blocks of the surviving leaves).
    """
    counts = ends - starts
    offsets = np.cumsum(counts)
    total = int(offsets[-1]) if offsets.shape[0] else 0
    if total == 0:
        return np.empty(0, dtype=np.int64)
    # ``offsets - counts`` is each range's start in the output.
    return np.repeat(starts - (offsets - counts), counts) + np.arange(total, dtype=np.int64)


def _word_dtype(dim: int) -> type:
    """Widest unsigned word that tiles a ``2 * dim``-byte bool row."""
    return np.uint32 if (2 * dim) % 4 == 0 else np.uint16


def _clear_rows(violations: np.ndarray, word: type) -> np.ndarray:
    """Rows of an ``(m, 2K)`` bool matrix with no ``True`` entry.

    The C-contiguous bool rows are viewed as packed ``word`` columns and
    OR-ed together column by column: a handful of full-length integer
    ORs instead of numpy's per-row short-axis ``.all(axis=1)``, which
    costs several times the comparison it reduces.
    """
    words = violations.view(word)
    acc = words[:, 0].copy()
    for column in words.T[1:]:
        acc |= column
    return acc == 0


class FlatRStarTree:
    """Frozen array-backed form of a built :class:`RStarTree`.

    Supports the read-only query surface (window queries, id enumeration);
    mutation stays on the source tree.
    """

    __slots__ = (
        "dim",
        "count",
        "height",
        "stats",
        "_levels",
        "leaf_ptr",
        "leaf_ids",
        "_leaf_cat",
        "_coords_cat",
        "chunk_points",
    )

    def __init__(self, tree: RStarTree, chunk_points: int = DEFAULT_CHUNK_POINTS) -> None:
        if chunk_points < 1:
            raise ValueError(f"chunk_points must be >= 1, got {chunk_points}")
        self.dim = tree.dim
        self.count = tree.count
        self.height = tree.height
        self.chunk_points = int(chunk_points)
        self.stats = RTreeStats()

        # BFS flattening: children of consecutive parents land consecutively,
        # so each parent's child block is a contiguous [start, end) range.
        nodes = [tree.root]
        levels: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        while not nodes[0].is_leaf:
            lows = np.stack([nd.low for nd in nodes])
            highs = np.stack([nd.high for nd in nodes])
            counts = np.fromiter(
                (len(nd.children) for nd in nodes), dtype=np.int64, count=len(nodes)
            )
            ends = np.cumsum(counts)
            starts = ends - counts
            # ``[low, -high]`` side by side: the two-sided intersection
            # test becomes a single comparison and row test (_clear_rows).
            levels.append((np.hstack([lows, -highs]), starts, ends))
            nodes = [child for nd in nodes for child in nd.children]
        self._levels = levels

        sizes = np.fromiter(
            (len(nd.ids) for nd in nodes), dtype=np.int64, count=len(nodes)
        )
        self.leaf_ptr = np.concatenate(([np.int64(0)], np.cumsum(sizes)))
        self._leaf_cat = np.hstack(
            [np.stack([nd.low for nd in nodes]), -np.stack([nd.high for nd in nodes])]
        )
        if self.leaf_ptr[-1] > 0:
            self.leaf_ids = np.concatenate([nd.ids for nd in nodes])
            coords = np.concatenate([nd.coords for nd in nodes])
        else:
            self.leaf_ids = np.empty(0, dtype=np.int64)
            coords = np.empty((0, self.dim), dtype=np.float64)
        # Only the concatenated [x, -x] forms are stored; the plain views
        # below slice them back out, so coordinates exist once per sign.
        self._coords_cat = np.hstack([coords, -coords])

    @property
    def leaf_coords(self) -> np.ndarray:
        """Concatenated per-leaf coordinates (a view, no copy)."""
        return self._coords_cat[:, : self.dim]

    @property
    def leaf_low(self) -> np.ndarray:
        """Stacked leaf MBR lower bounds (a view, no copy)."""
        return self._leaf_cat[:, : self.dim]

    @property
    def leaf_high(self) -> np.ndarray:
        """Stacked leaf MBR upper bounds."""
        return -self._leaf_cat[:, self.dim :]

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_arrays(self, mirrored: bool = False) -> Dict[str, np.ndarray]:
        """The frozen traversal as a flat dict of numpy arrays.

        Everything needed to answer window queries is captured:
        per-internal-level ``[low, -high]`` matrices and CSR child ranges,
        the leaf MBRs, pointers, ids and coordinates.  By default the
        concatenated ``[x, -x]`` coordinate form is stored single-sided
        (``leaf_coords``) and re-mirrored by :meth:`from_arrays`, so a
        snapshot costs the same bytes as the raw points.  With
        ``mirrored=True`` the pre-mirrored ``coords_cat`` matrix is stored
        instead — 2x the disk for that member, but :meth:`from_arrays` can
        then adopt it without any copy, which is what keeps arena-snapshot
        loads zero-copy.  Scalar shape metadata rides along as 0-d arrays,
        which keeps the whole dict ``np.savez``-ready.
        """
        arrays: Dict[str, np.ndarray] = {
            "meta": np.array(
                [self.dim, self.count, self.height, self.chunk_points, len(self._levels)],
                dtype=np.int64,
            ),
            "leaf_ptr": self.leaf_ptr,
            "leaf_ids": self.leaf_ids,
            "leaf_cat": self._leaf_cat,
        }
        if mirrored:
            arrays["coords_cat"] = self._coords_cat
        else:
            arrays["leaf_coords"] = self.leaf_coords
        for j, (cat, starts, ends) in enumerate(self._levels):
            arrays[f"level{j}_cat"] = cat
            arrays[f"level{j}_start"] = starts
            arrays[f"level{j}_end"] = ends
        return arrays

    @classmethod
    def from_build(
        cls,
        *,
        dim: int,
        count: int,
        height: int,
        levels: List[Tuple[np.ndarray, np.ndarray, np.ndarray]],
        leaf_ptr: np.ndarray,
        leaf_ids: np.ndarray,
        leaf_cat: np.ndarray,
        coords_cat: np.ndarray,
        chunk_points: int = DEFAULT_CHUNK_POINTS,
    ) -> "FlatRStarTree":
        """Adopt arrays produced by an array-native builder (no tree walk).

        ``levels`` is the root-first ``(cat, child_start, child_end)``
        list, ``leaf_cat`` the stacked ``[low, -high]`` leaf MBRs and
        ``coords_cat`` the concatenated per-leaf coordinates already in
        ``[x, -x]`` mirrored form.  Used by
        :func:`repro.index.str_build.build_flat_str`, which constructs
        these arrays straight from the points being packed.
        """
        if chunk_points < 1:
            raise ValueError(f"chunk_points must be >= 1, got {chunk_points}")
        flat = cls.__new__(cls)
        flat.dim = int(dim)
        flat.count = int(count)
        flat.height = int(height)
        flat.chunk_points = int(chunk_points)
        flat.stats = RTreeStats()
        flat._levels = list(levels)
        flat.leaf_ptr = leaf_ptr
        flat.leaf_ids = leaf_ids
        flat._leaf_cat = leaf_cat
        flat._coords_cat = coords_cat
        return flat

    @classmethod
    def from_arrays(cls, arrays: Dict[str, np.ndarray]) -> "FlatRStarTree":
        """Rebuild a frozen traversal from :meth:`to_arrays` output.

        No tree construction happens — the arrays are adopted as-is.  When
        the dict carries the pre-mirrored ``coords_cat`` member (arena
        snapshots) nothing is copied at all; with the single-sided legacy
        ``leaf_coords`` member the coordinate mirror is the only copy.
        Loading a snapshot therefore costs O(bytes) at worst — never an
        STR bulk load — and O(1) from a mapped arena.
        """
        meta = np.asarray(arrays["meta"], dtype=np.int64).reshape(-1)
        if meta.shape[0] != 5:
            raise ValueError("flat-tree meta must have 5 entries")
        dim, count, height, chunk_points, n_levels = (int(v) for v in meta)
        flat = cls.__new__(cls)
        flat.dim = dim
        flat.count = count
        flat.height = height
        flat.chunk_points = max(1, chunk_points)
        flat.stats = RTreeStats()
        flat._levels = [
            (
                np.ascontiguousarray(arrays[f"level{j}_cat"], dtype=np.float64),
                np.ascontiguousarray(arrays[f"level{j}_start"], dtype=np.int64),
                np.ascontiguousarray(arrays[f"level{j}_end"], dtype=np.int64),
            )
            for j in range(n_levels)
        ]
        flat.leaf_ptr = np.ascontiguousarray(arrays["leaf_ptr"], dtype=np.int64)
        flat.leaf_ids = np.ascontiguousarray(arrays["leaf_ids"], dtype=np.int64)
        flat._leaf_cat = np.ascontiguousarray(arrays["leaf_cat"], dtype=np.float64)
        if "coords_cat" in arrays:
            flat._coords_cat = np.ascontiguousarray(arrays["coords_cat"], dtype=np.float64)
        else:
            coords = np.ascontiguousarray(arrays["leaf_coords"], dtype=np.float64)
            flat._coords_cat = np.hstack([coords, -coords])
        return flat

    # ------------------------------------------------------------------
    # Window queries
    # ------------------------------------------------------------------

    def _candidate_leaves(self, w_cat: np.ndarray, word: type) -> Tuple[np.ndarray, int]:
        """Leaf indices reachable through intersecting internal MBRs.

        Runs the level-wise vectorised descent over the *internal* levels
        and returns ``(leaves, visits)``: the children of the last
        surviving internal nodes, and the number of internal nodes whose
        box met the window.  ``w_cat`` is the window in concatenated
        ``[w_high, -w_low]`` form: a stored box ``[low, -high]`` misses
        the window iff some component is ``> w_cat``, which
        :func:`_clear_rows` tests as one packed bitmask per row.
        """
        frontier: np.ndarray | None = None
        visits = 0
        for cat, starts, ends in self._levels:
            if frontier is None:  # root level: test every (single) node
                hit = np.flatnonzero(_clear_rows(np.greater(cat, w_cat), word))
            else:
                rows = np.take(cat, frontier, axis=0)
                hit = frontier[_clear_rows(np.greater(rows, w_cat), word)]
            visits += int(hit.shape[0])
            if hit.shape[0] == 0:
                return np.empty(0, dtype=np.int64), visits
            frontier = concat_ranges(starts[hit], ends[hit])
        if frontier is None:  # the root itself is the only leaf
            frontier = np.arange(self.num_leaves, dtype=np.int64)
        return frontier, visits

    def window_query_iter(
        self,
        w_low: np.ndarray,
        w_high: np.ndarray,
        first_chunk: Optional[int] = None,
        counts: Optional[RTreeStats] = None,
    ) -> Iterator[np.ndarray]:
        """Stream ids inside the window in geometrically growing chunks.

        Chunk *contents* follow the pointer-based traversal's candidate
        order (descending leaf, ascending within each leaf); only the
        chunk boundaries differ.  The candidate leaves' MBRs are tested
        in one pass and the hit leaves' point ranges expanded once; the
        point test then streams over that index array in chunks of
        ``first_chunk`` hit-leaf points (default
        ``_INITIAL_CHUNK_POINTS``) doubling up to ``chunk_points``, so a
        consumer that knows how much it can still verify — DB-LSH passes
        its remaining budget scaled by the scanned-points-per-id ratio —
        stops after few passes while full scans proceed in large
        vectorised strides.

        ``counts``, when given, receives this walk's node, leaf and point
        counters in addition to the tree-wide :attr:`stats` (which are
        shared, and race under concurrent walks).  Bounds must be finite:
        the negated bitmask test would read a NaN bound as unbounded.
        """
        w_low = np.asarray(w_low, dtype=np.float64).reshape(-1)
        w_high = np.asarray(w_high, dtype=np.float64).reshape(-1)
        if w_low.shape[0] != self.dim or w_high.shape[0] != self.dim:
            raise ValueError("window bounds must match tree dimensionality")
        # Concatenated forms: box-meets-window and point-in-window each
        # become one comparison against the stored [x, -x] arrays.
        w_cat = np.concatenate([w_high, -w_low])
        if not np.isfinite(w_cat).all():
            raise ValueError("window bounds must be finite")
        if self.count == 0:
            return
        w_pt = np.concatenate([w_low, -w_high])
        word = _word_dtype(self.dim)
        candidates, visits = self._candidate_leaves(w_cat, word)
        self.stats.node_visits += visits
        if counts is not None:
            counts.node_visits += visits
        if candidates.shape[0] == 0:
            return
        order = candidates[::-1]  # match the stack traversal's LIFO leaf order
        rows = np.take(self._leaf_cat, order, axis=0)
        hit = order[_clear_rows(np.greater(rows, w_cat), word)]
        self.stats.leaf_visits += int(hit.shape[0])
        if counts is not None:
            counts.leaf_visits += int(hit.shape[0])
        if hit.shape[0] == 0:
            return
        idx = concat_ranges(self.leaf_ptr[hit], self.leaf_ptr[hit + 1])
        if first_chunk is None:
            first_chunk = _INITIAL_CHUNK_POINTS
        target = min(max(int(first_chunk), 1), self.chunk_points)
        pos = 0
        total = idx.shape[0]
        while pos < total:
            block = idx[pos : pos + target]
            self.stats.points_scanned += int(block.shape[0])
            if counts is not None:
                counts.points_scanned += int(block.shape[0])
            rows = np.take(self._coords_cat, block, axis=0)
            inside = _clear_rows(np.less(rows, w_pt), word)
            ids = self.leaf_ids[block[inside]]
            if ids.shape[0]:
                yield ids
            pos += target
            target = min(target * 2, self.chunk_points)

    def window_query(self, w_low: np.ndarray, w_high: np.ndarray) -> np.ndarray:
        """All point ids inside ``[w_low, w_high]`` (inclusive)."""
        chunks = list(self.window_query_iter(w_low, w_high))
        if not chunks:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(chunks)

    def window_count(self, w_low: np.ndarray, w_high: np.ndarray) -> int:
        """Number of points inside the window."""
        return sum(len(chunk) for chunk in self.window_query_iter(w_low, w_high))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self.count

    @property
    def num_leaves(self) -> int:
        return int(self.leaf_ptr.shape[0] - 1)

    def num_nodes(self) -> int:
        return sum(level[0].shape[0] for level in self._levels) + self.num_leaves

    def all_ids(self) -> np.ndarray:
        """Every stored id (order unspecified); used by invariant tests."""
        return self.leaf_ids.copy()
