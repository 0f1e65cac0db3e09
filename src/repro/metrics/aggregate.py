"""Aggregation helpers used by the evaluation harness.

The paper reports per-workload unfairness and STP normalised to the stock
Linux configuration, and averages reductions across workloads.  These helpers
keep that arithmetic in one place (geometric means for ratio quantities,
normalisation, percentage improvements).
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Sequence

import numpy as np

from repro.errors import ReproError

__all__ = [
    "geometric_mean",
    "normalise",
    "percent_reduction",
    "average_percent_reduction",
    "normalised_series",
    "short_mean",
    "RollingMeanRing",
]


def short_mean(values: Iterable[float]) -> float:
    """Arithmetic mean of a short sequence, bit-identical to ``np.mean``.

    NumPy's reduction is sequential below eight elements (it switches to an
    unrolled pairwise scheme from eight onwards), so for the short rolling
    windows the online monitors keep, a plain Python loop produces the same
    bits at a fraction of the array-conversion cost.  Longer inputs fall back
    to ``np.mean`` itself.  The equivalence is pinned by the test suite.
    """
    values = list(values)
    n = len(values)
    if n == 0:
        raise ReproError("mean of an empty sequence")
    if n < 8:
        total = 0.0
        for value in values:
            total += value
        return total / n
    return float(np.mean(values))


class RollingMeanRing:
    """Rolling means of ``columns`` series over one window, in a flat ring.

    The online monitors consult two rolling averages per application
    (LLCMPKC and stall fraction) over the *same* window of samples on every
    sample, and each must be bit-identical to ``np.mean`` over the window.
    A classic running sum (add the new sample, subtract the evicted one)
    would not be: float addition does not associate, and ``np.mean`` below
    eight elements is a strict left-to-right reduction.  So this structure
    keeps one running partial sum per live window start, and stores the
    samples and those partial sums for all ``columns`` side by side in two
    ``(maxlen, columns)`` arrays laid out as a ring:

    * slot ``(start + j) % maxlen`` holds the ``j``-th oldest live sample and
      the partial sum of the window beginning at that sample;
    * appending evicts the oldest partial when full, adds the new sample once
      to every live partial (one float addition per window start, as in
      the one-column deque oracle, so every mean stays bit-identical to
      ``np.mean`` over the window) and seeds a fresh partial with
      ``0.0 + value`` (normalising -0.0, mirroring the reduction's
      zero-initialised accumulator);
    * ``means()`` is one vector divide: ``partials[start] / len``.

    Windows of :data:`_PAIRWISE_CUTOVER` (eight) or more samples fall back
    to :func:`short_mean` per column per read, because NumPy's pairwise
    reduction cannot be maintained incrementally.  The per-column
    equivalence with the one-column deque oracle
    (``tests/oracles.RollingMeanWindow``) is pinned by the test suite.
    """

    __slots__ = ("maxlen", "columns", "_values", "_partials", "_start", "_live")

    #: Window length below which NumPy reduces strictly left-to-right.
    _PAIRWISE_CUTOVER = 8

    def __init__(self, maxlen: int, columns: int = 2) -> None:
        if maxlen < 1:
            raise ReproError(f"window length must be >= 1, got {maxlen}")
        if columns < 1:
            raise ReproError(f"column count must be >= 1, got {columns}")
        self.maxlen = maxlen
        self.columns = columns
        self._values = np.zeros((maxlen, columns))
        self._partials = np.zeros((maxlen, columns))
        self._start = 0  # ring slot of the oldest live sample / partial
        self._live = 0  # number of live samples (== live partials)

    def __len__(self) -> int:
        return self._live

    @property
    def full(self) -> bool:
        return self._live == self.maxlen

    def append(self, sample: Sequence[float]) -> None:
        """Ingest one sample row (one float per column)."""
        row = np.asarray(sample, dtype=float)
        maxlen = self.maxlen
        if self._live == maxlen:
            # The evicted sample's window start dies with it.
            self._start = (self._start + 1) % maxlen
            self._live -= 1
        # One addition per live partial per column — identical arithmetic to
        # a per-column deque loop.  The live slots form a contiguous range
        # modulo maxlen, so at most two slice adds cover them.
        start, live = self._start, self._live
        end = start + live
        if end <= maxlen:
            self._partials[start:end] += row
        else:
            self._partials[start:] += row
            self._partials[: end - maxlen] += row
        slot = end % maxlen
        self._partials[slot] = row + 0.0
        self._values[slot] = row
        self._live += 1

    def clear(self) -> None:
        self._start = 0
        self._live = 0

    def window(self, column: int) -> list:
        """The live samples of ``column``, oldest first."""
        order = (self._start + np.arange(self._live)) % self.maxlen
        return [float(v) for v in self._values[order, column]]

    def means(self) -> np.ndarray:
        """Per-column means of the current window; raises when empty."""
        if self._live == 0:
            raise ReproError("mean of an empty window")
        if self.maxlen < self._PAIRWISE_CUTOVER:
            return self._partials[self._start] / self._live
        return np.array([short_mean(self.window(c)) for c in range(self.columns)])

    def mean(self, column: int) -> float:
        """Mean of one column of the current window; raises when empty."""
        if self._live == 0:
            raise ReproError("mean of an empty window")
        if self.maxlen < self._PAIRWISE_CUTOVER:
            return float(self._partials[self._start, column]) / self._live
        return short_mean(self.window(column))


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean (used for completion times in the paper's methodology)."""
    array = np.asarray(list(values), dtype=float)
    if array.size == 0:
        raise ReproError("geometric mean of an empty sequence")
    if np.any(array <= 0):
        raise ReproError("geometric mean requires positive values")
    return float(np.exp(np.mean(np.log(array))))


def normalise(value: float, baseline: float) -> float:
    """Ratio of ``value`` to ``baseline`` (e.g. unfairness vs stock Linux)."""
    if baseline <= 0:
        raise ReproError(f"baseline must be positive, got {baseline}")
    return value / baseline


def percent_reduction(value: float, baseline: float) -> float:
    """Percentage reduction of ``value`` relative to ``baseline``.

    Positive numbers mean improvement for lower-is-better metrics such as
    unfairness (the paper's "20.5% reduction in unfairness" figures).
    """
    if baseline <= 0:
        raise ReproError(f"baseline must be positive, got {baseline}")
    return 100.0 * (baseline - value) / baseline


def average_percent_reduction(
    values: Mapping[str, float], baselines: Mapping[str, float]
) -> float:
    """Mean percentage reduction across workloads (keys must match)."""
    if set(values) != set(baselines):
        raise ReproError("values and baselines must cover the same workloads")
    if not values:
        raise ReproError("cannot average over zero workloads")
    reductions = [percent_reduction(values[k], baselines[k]) for k in values]
    return float(np.mean(reductions))


def normalised_series(
    values: Mapping[str, float], baselines: Mapping[str, float]
) -> Dict[str, float]:
    """Normalise a per-workload series to a per-workload baseline."""
    if set(values) != set(baselines):
        raise ReproError("values and baselines must cover the same workloads")
    return {key: normalise(values[key], baselines[key]) for key in values}
