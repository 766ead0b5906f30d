"""Distributed randomized rounding of continuous caching vectors.

A node's caching vector y is laid out as consecutive bars on unit-length
lines (ascending item order, wrapping at length 1, bars may span the line
boundary); sampling one uniform position u and taking every item whose bar
crosses u yields a cache decision whose per-item expectation is exactly y
and whose size never deviates from sum(y) by 1 or more.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BarMap:
    """Interval layout of one node's caching vector.

    intervals[k] is a tuple of (line, start, end) half-open horizontal
    spans covering item k; total covered length per item equals y[k].
    """

    y: np.ndarray
    intervals: tuple
    total: float

    def evaluate(self, u):
        """P(u): the set of items whose bar crosses horizontal position u."""
        if not 0.0 <= u <= 1.0:
            raise ValueError("sample position must lie in [0, 1]")
        if u == 1.0:
            u = 0.0  # intervals are half-open; position 1 wraps to 0
        out = set()
        for k, spans in enumerate(self.intervals):
            for _, start, end in spans:
                if start <= u < end:
                    out.add(k)
                    break
        return out


def build_bar_map(y):
    """Lay out bars of length y[k] in ascending item order.

    Bars continue from the previous bar's end and wrap to a new line at
    length 1 (a bar may be split across the boundary).  Items with y = 0
    produce no interval and never appear in P(u).
    """
    y = np.asarray(y, dtype=float)
    if ((y < 0) | (y > 1)).any():
        raise ValueError("caching fractions must lie in [0, 1]")
    intervals = []
    offset = 0.0
    for k in range(y.shape[0]):
        spans = []
        length = float(y[k])
        if length > 0:
            start = offset
            end = offset + length
            line = int(np.floor(start + 1e-12))
            s_local = start - line
            e_local = end - line
            if e_local <= 1.0 + 1e-12:
                spans.append((line, s_local, min(e_local, 1.0)))
            else:
                spans.append((line, s_local, 1.0))
                spans.append((line + 1, 0.0, e_local - 1.0))
        offset += length
        intervals.append(tuple(spans))
    return BarMap(y=y, intervals=tuple(intervals), total=float(y.sum()))


def sample_decision(bar_map, u):
    """Binary cache decision from one uniform draw: x[k] = 1 iff k in P(u)."""
    chosen = bar_map.evaluate(u)
    x = np.zeros(bar_map.y.shape[0], dtype=np.int8)
    for k in chosen:
        x[k] = 1
    return x


def slot_uniform(master_seed, node, period, slot):
    """Deterministic per-(node, period, slot) uniform draw from a splittable
    master seed."""
    rng = np.random.default_rng((int(master_seed), int(node), int(period), int(slot)))
    return float(rng.random())
