"""Distributed randomized rounding of continuous caching vectors.

A node's caching vector y is laid out as consecutive bars on unit-length
lines (ascending item order, wrapping at length 1, bars may span the line
boundary); sampling one uniform position u and taking every item whose bar
crosses u yields a cache decision whose per-item expectation is exactly y
and whose size never deviates from sum(y) by 1 or more.

The layout is computed for every node at once from one cumulative sum per
node column, so a (C, V) strategy is rounded by one ``build_bar_map`` and
one ``sample_decision`` with a position per node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BarMap:
    """Bar layout of caching vectors y, shaped (C,) for one node or (C, V)
    with one node per column.

    Item k's bar starts on line ``line[k]`` and covers the positions
    lo[k] <= u < hi[k] there; a bar that wraps also covers u < tail[k] on
    the next line (tail is 0 otherwise).  An item with y = 0 covers nothing.
    """

    y: np.ndarray
    line: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    tail: np.ndarray

    @property
    def intervals(self):
        """Per item of a one-node map, its (line, start, end) half-open
        spans; their total length equals y[k]."""
        out = []
        for k in range(self.y.shape[0]):
            spans = ()
            if self.y[k] > 0:
                line = int(self.line[k])
                spans = ((line, float(self.lo[k]), float(self.hi[k])),)
                if self.tail[k] > 0:
                    spans += ((line + 1, 0.0, float(self.tail[k])),)
            out.append(spans)
        return tuple(out)

    def evaluate(self, u):
        """P(u): the set of items whose bar crosses horizontal position u."""
        return set(np.flatnonzero(sample_decision(self, u)).tolist())


def build_bar_map(y):
    """Lay out bars of length y[k] in ascending item order, per column.

    Bars continue from the previous bar's end and wrap to a new line at
    length 1 (a bar may be split across the boundary).  A bar starting
    within 1e-12 below a line boundary starts on the next line, and one
    ending within 1e-12 past a boundary does not wrap.  Items with y = 0
    produce no interval and never appear in P(u).
    """
    y = np.asarray(y, dtype=float)
    if ((y < 0) | (y > 1)).any():
        raise ValueError("caching fractions must lie in [0, 1]")
    end = np.cumsum(y, axis=0)
    start = np.zeros_like(end)
    start[1:] = end[:-1]
    line = np.floor(start + 1e-12)
    lo = start - line
    e_local = end - line
    wraps = e_local > 1.0 + 1e-12
    has_bar = y > 0
    hi = np.where(has_bar, np.where(wraps, 1.0, np.minimum(e_local, 1.0)), 0.0)
    tail = np.where(has_bar & wraps, e_local - 1.0, 0.0)
    return BarMap(y=y, line=line, lo=lo, hi=hi, tail=tail)


def sample_decision(bar_map, u):
    """Binary cache decision from uniform draws: x[k] = 1 iff k in P(u).

    ``u`` is one position for a one-node map, or one per node (column) of a
    (C, V) map; position 1 wraps to 0 because the spans are half-open.
    """
    u = np.asarray(u, dtype=float)
    if ((u < 0.0) | (u > 1.0)).any():
        raise ValueError("sample position must lie in [0, 1]")
    u = np.where(u == 1.0, 0.0, u)
    m = bar_map
    hit = ((m.lo <= u) & (u < m.hi)) | (u < m.tail)
    return hit.astype(np.int8)


def slot_uniforms(master_seed, period, slot, num_nodes):
    """One uniform position per node for one slot, all drawn from one
    generator seeded by (master_seed, period, slot): deterministic, and
    independent across slots."""
    rng = np.random.default_rng((int(master_seed), int(period), int(slot)))
    return rng.random(num_nodes)
