"""Levenshtein edit distance on strings, with a batched variant."""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from .base import DistanceFunction


def levenshtein(x: str, y: str) -> int:
    """Classic dynamic-programming edit distance (insert/delete/substitute)."""
    if x == y:
        return 0
    if not x:
        return len(y)
    if not y:
        return len(x)
    previous = list(range(len(y) + 1))
    current = [0] * (len(y) + 1)
    for i, char_x in enumerate(x, start=1):
        current[0] = i
        for j, char_y in enumerate(y, start=1):
            cost = 0 if char_x == char_y else 1
            current[j] = min(
                previous[j] + 1,        # deletion
                current[j - 1] + 1,     # insertion
                previous[j - 1] + cost,  # substitution
            )
        previous, current = current, previous
    return previous[len(y)]


def string_codes(strings: Sequence[str], width: int = 0) -> Tuple[np.ndarray, np.ndarray]:
    """Strings as a code-point matrix: one row per string padded with -1, plus lengths.

    The matrix is as wide as the longest string, and at least ``width``.  The
    batch is encoded once (UTF-32, so a non-BMP character is one code) and
    scattered into the padded rows — no per-string array is built.
    """
    lengths = np.fromiter(map(len, strings), dtype=np.int64, count=len(strings))
    codes = np.full((len(strings), max(width, int(lengths.max(initial=0)))), -1, dtype=np.int32)
    codes[np.arange(codes.shape[1]) < lengths[:, None]] = np.frombuffer(
        "".join(strings).encode("utf-32-le", "surrogatepass"), dtype="<i4"
    )
    return codes, lengths


def levenshtein_codes(
    x: np.ndarray,
    codes: np.ndarray,
    lengths: np.ndarray,
    threshold: Optional[int] = None,
    x_lengths: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Edit distances from query codes to every row of a padded code matrix.

    ``x`` is one code vector, compared with every row, or a ``(count, m)``
    matrix of per-row query codes padded with -1, whose lengths are
    ``x_lengths``: row ``r`` is then compared with its own query ``x[r]``.

    One dynamic program runs for all rows at once, on ``e[j] = d[j] - j`` so
    the column offsets cancel: the insertion recurrence
    ``d[j] = min(b[j], d[j-1] + 1)`` unrolls to a prefix minimum,
    ``e[j] = min(i, min_{k<=j}(b[k] - k))`` with
    ``b[k] - k = min(e_prev[k-1] - [x_i == y_k], e_prev[k] + 1)`` — so the only
    Python loop is over the query positions.  ``codes`` may be wider than
    the longest row: pad columns (-1) match nothing and each distance is read
    at its own row's length.  Per-row queries share the loop over the longest
    of them; a row's distance is read after its own query's last code, once
    per distinct query length.

    With ``threshold`` the DP stops as soon as every row's minimum (a lower
    bound on its final distance, non-decreasing across rows) exceeds it;
    entries whose true distance exceeds ``threshold`` are then only guaranteed
    to be reported as some value ``> threshold``.
    """
    count, width = codes.shape
    per_row = x.ndim == 2
    size = x.shape[-1]
    if size == 0 or width == 0:
        return np.maximum(lengths, x_lengths if per_row else size)
    if per_row:
        # A row's query ends after step ``x_lengths[r]``: rows sorted by it,
        # ``ends[i]`` of them end at step i or before.
        steps = np.ascontiguousarray(x.T)
        order = np.argsort(x_lengths, kind="stable")
        ends = np.searchsorted(x_lengths[order], np.arange(size + 1), side="right").tolist()
        out = lengths.astype(np.int64)  # an empty query is its row's length away
    else:
        steps = x.tolist()
    # Candidates run along the contiguous axis, so each prefix-minimum step is
    # one vector operation across all of them.
    codes = np.ascontiguousarray(codes.T)
    columns = np.arange(width + 1, dtype=np.int32)[:, None]
    previous = np.zeros((width + 1, count), dtype=np.int32)
    current = np.empty_like(previous)
    for i, code in enumerate(steps, start=1):
        current[0] = i
        best = current[1:]
        np.subtract(previous[:-1], codes == code, out=best)
        np.minimum(best, previous[1:] + 1, out=best)
        np.minimum.accumulate(best, axis=0, out=best)
        np.minimum(best, i, out=best)
        previous, current = current, previous
        stop = threshold is not None and (previous + columns).min() > threshold
        if per_row and (stop or ends[i] > ends[i - 1]):
            done = order[ends[i - 1] : count if stop else ends[i]]
            out[done] = previous[lengths[done], done] + lengths[done]
        if stop:
            break
    if per_row:
        return out
    return previous[lengths, np.arange(count)] + lengths


def batch_levenshtein(
    x: str, candidates: Sequence[str], threshold: Optional[int] = None
) -> np.ndarray:
    """Edit distances from ``x`` to every candidate: encode, then :func:`levenshtein_codes`."""
    codes, lengths = string_codes(candidates)
    return levenshtein_codes(string_codes([x])[0][0], codes, lengths, threshold)


class EditDistance(DistanceFunction):
    """Levenshtein distance between strings."""

    name = "edit"
    integer_valued = True

    def distance(self, x: str, y: str) -> float:
        return float(levenshtein(x, y))

    def distances_to(self, x: str, dataset: Sequence[str]) -> np.ndarray:
        return batch_levenshtein(str(x), [str(record) for record in dataset]).astype(np.float64)

    def cross_distances(self, queries: Sequence[str], dataset: Sequence[str]) -> np.ndarray:
        """(n_queries, n_records) edit distances: both sides encoded once, then
        one batched DP per query."""
        codes, lengths = string_codes([str(record) for record in dataset])
        if len(queries) == 0:
            return np.zeros((0, len(lengths)))
        query_codes, query_lengths = string_codes([str(query) for query in queries])
        return np.stack(
            [
                levenshtein_codes(row[:length], codes, lengths).astype(np.float64)
                for row, length in zip(query_codes, query_lengths)
            ]
        )
