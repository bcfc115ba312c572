"""Segment arithmetic shared by the vectorized BN write path.

The BN builder's pair enumeration and the network's batched mutation both
reduce flat contribution arrays over variable-length segments (one segment
per ``(value, epoch)`` group, or per typed edge).  Three primitives keep
that fully in numpy:

* :func:`segment_arange` — per-segment ``0..len-1`` ramps via the
  repeat/cumsum-offset trick, which lays out the pair enumeration's
  triangular index;
* :func:`segment_fold_sum` — a **sequential** left-to-right fold per
  segment.  ``np.add.reduceat`` uses pairwise summation internally, so its
  sums differ from the reference implementations' ``+=`` loops in the last
  ulp; this fold reproduces the exact IEEE-754 accumulation order of the
  pinned Python loops, which is what keeps the batch build bit-exact
  (see ``docs/PERFORMANCE.md``);
* :func:`sorted_unique_pairs` / :func:`sorted_unique_triples` —
  lexicographically sorted distinct rows (the pairs optionally with each
  row's first position, which is what ranks a window job's groups by first
  occurrence).  The fast path packs columns into one int64 composite key;
  when the span product would overflow int64 they fall back to a stable
  ``lexsort``, so adversarially large uid/value/epoch spans stay correct
  instead of silently wrapping.  :func:`boundaries` is the run-start mask
  both dedup on.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "INT64_SAFE_SPAN",
    "segment_arange",
    "segment_fold_sum",
    "segment_fold_max",
    "boundaries",
    "sorted_unique_pairs",
    "sorted_unique_triples",
]

#: Composite keys stay below this bound so intermediate products (span
#: products plus the final additions) can never reach the int64 limit.
#: Shared by every packed-key fast path (here and in ``bn.add_weights``);
#: span products at or above it must take a lexicographic fallback.
INT64_SAFE_SPAN = 2**62

_INT64_SAFE = INT64_SAFE_SPAN


def segment_arange(counts: np.ndarray) -> np.ndarray:
    """Concatenated ``[0..c)`` ramps, one per segment of length ``c``.

    ``segment_arange([2, 3]) == [0, 1, 0, 1, 2]``.  Implemented as a global
    ``arange`` minus each element's segment offset (repeat/cumsum), so the
    cost is O(total) array ops with no Python loop.
    """
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.repeat(np.cumsum(counts) - counts, counts)
    return np.arange(total, dtype=np.int64) - offsets


def segment_fold_sum(
    values: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """Left-to-right sequential sum of each segment (bit-exact vs ``+=``).

    ``values`` holds all segments back to back; segment ``k`` spans
    ``values[starts[k] : starts[k] + lengths[k]]`` and folds as ``(v0 + v1)
    + v2 ...`` — what a reference loop accumulating from ``0.0`` computes
    for finite values, since ``0.0 + x == x``.  The batch build reduces its
    whole contribution stream with it; a window job's batch folds each
    segment onto its record in the apply walk instead
    (:meth:`~repro.network.bn.BehaviorNetwork.apply_weight_groups`).

    Vectorized as rounds over segment positions: round ``r`` adds element
    ``r`` of every still-active segment, so total work is O(total values)
    with one array op per round (max segment length rounds).
    """
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    out = values[starts].astype(np.float64, copy=True) if len(starts) else np.empty(0)
    round_index = 1
    active = np.flatnonzero(lengths > round_index)
    while active.size:
        out[active] = out[active] + values[starts[active] + round_index]
        round_index += 1
        active = active[lengths[active] > round_index]
    return out


def segment_fold_max(
    values: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """Per-segment maximum (max is associative, so ``reduceat`` is exact)."""
    if len(starts) == 0:
        return np.empty(0, dtype=np.float64)
    return np.maximum.reduceat(values, np.asarray(starts, dtype=np.int64))


def boundaries(*columns: np.ndarray) -> np.ndarray:
    """Mask of the rows that differ from the row before them (row 0 always).

    On lexicographically sorted, non-empty columns: the first row of every
    run of equal rows.
    """
    mask = np.empty(len(columns[0]), dtype=bool)
    mask[0] = True
    np.not_equal(columns[0][1:], columns[0][:-1], out=mask[1:])
    for column in columns[1:]:
        mask[1:] |= column[1:] != column[:-1]
    return mask


def sorted_unique_pairs(
    a: np.ndarray, b: np.ndarray, return_index: bool = False
) -> tuple[np.ndarray, ...]:
    """Distinct ``(a, b)`` rows sorted lexicographically (``a`` major).

    With ``return_index`` a third array gives the position each distinct row
    first occurs at.  One stable sort: of the packed composite key
    ``(a - min a) * span_b + (b - min b)`` when it provably fits int64,
    otherwise a ``lexsort`` of the columns (same order, no wraparound).
    """
    if len(a) == 0:
        return (a, b, a) if return_index else (a, b)
    a0, b0 = int(np.minimum.reduce(a)), int(np.minimum.reduce(b))
    span_b = int(np.maximum.reduce(b)) - b0 + 1
    if (int(np.maximum.reduce(a)) - a0 + 1) * span_b < _INT64_SAFE:
        order = ((a - a0) * span_b + (b - b0)).argsort(kind="stable")
    else:
        order = np.lexsort((b, a))
    sa, sb = a[order], b[order]
    keep = boundaries(sa, sb)
    if return_index:
        return sa[keep], sb[keep], order[keep]
    return sa[keep], sb[keep]


def sorted_unique_triples(
    a: np.ndarray, b: np.ndarray, c: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct ``(a, b, c)`` rows sorted lexicographically (``a`` major).

    All columns must be non-negative int64.  Packs into one int64 composite
    key when ``span_a * span_b * span_c`` fits; otherwise a stable
    ``lexsort`` + boundary dedup keeps adversarially large spans exact.
    """
    if len(a) == 0:
        return a, b, c
    span_b = int(b.max()) + 1
    span_c = int(c.max()) + 1
    if (int(a.max()) + 1) * span_b * span_c < _INT64_SAFE:
        combo = np.unique((a * span_b + b) * span_c + c)
        bc = combo % (span_b * span_c)
        return combo // (span_b * span_c), bc // span_c, bc % span_c
    order = np.lexsort((c, b, a))
    sa, sb, sc = a[order], b[order], c[order]
    keep = boundaries(sa, sb, sc)
    return sa[keep], sb[keep], sc[keep]
