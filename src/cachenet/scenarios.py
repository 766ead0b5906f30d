"""Scenario generation (synthetic topologies, Zipf demand, cost parameters)
and scenario/topology file formats.

Topology families follow the experiment catalog: connected Erdos-Renyi,
2-D grids, full a-ary trees, fog (tree plus linearly chained siblings),
small-world rings, and file-loaded graphs.  Demand draws |R| distinct
(requester, item) pairs with uniform requesters and Zipf-weighted items,
one uniformly random designated server per item, and uniform rates.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np
import yaml

from .errors import ConfigurationError, StructuralError
from .network import (
    CostModel,
    Demand,
    Scenario,
    Topology,
    linear_cache_costs,
    linear_link_costs,
    poly3_link_costs,
)


@dataclass
class ScenarioSpec:
    topology: str = "grid"            # grid | full-tree | fog | er | small-world | file
    size: tuple = (5, 5)              # grid: (w, h); trees: (arity, depth);
                                      # er: (n,); small-world: (n,)
    catalog: int = 30
    requests: int = 100
    zipf: float = 1.0
    rate_range: tuple = (1.0, 5.0)
    link_cost_range: tuple = (0.1, 0.1)
    cache_price_range: tuple = (10.0, 10.0)
    link_cost_kind: str = "poly3"     # poly3 | linear
    er_p: float = 0.07
    path: str = ""                    # for topology == "file"
    name: str = ""


# -- topology builders ------------------------------------------------------


def grid_links(w, h):
    links = []
    for r in range(h):
        for c in range(w):
            i = r * w + c
            if c + 1 < w:
                links += [(i, i + 1), (i + 1, i)]
            if r + 1 < h:
                links += [(i, i + w), (i + w, i)]
    return w * h, links


def full_tree_links(arity, depth):
    """Full a-ary tree with ``depth`` levels (root is level 1)."""
    if depth < 1:
        raise ConfigurationError("tree depth must be >= 1")
    n = (arity**depth - 1) // (arity - 1) if arity > 1 else depth
    links = []
    for i in range(n):
        for c in range(arity * i + 1, min(arity * i + arity, n - 1) + 1):
            links += [(i, c), (c, i)]
    return n, links


def fog_links(arity, depth):
    """Full a-ary tree plus linear chains between children of one parent."""
    n, links = full_tree_links(arity, depth)
    for i in range(n):
        children = [c for c in range(arity * i + 1, arity * i + arity + 1) if c < n]
        for a, b in zip(children, children[1:]):
            links += [(a, b), (b, a)]
    return n, links


def connected_er_links(n, p, rng):
    """Erdos-Renyi with bidirectional links, resampled until connected."""
    if not 0.0 < p <= 1.0:
        raise ConfigurationError(f"ER link probability p must lie in (0, 1], got {p}")
    for _ in range(10_000):
        links = []
        adj = [[] for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p:
                    links += [(i, j), (j, i)]
                    adj[i].append(j)
                    adj[j].append(i)
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        if len(seen) == n:
            return n, links
    raise ConfigurationError("could not sample a connected ER graph")


def small_world_links(n, rng, target=None, tolerance=0.1):
    """Ring plus per-node distance-2 and random long-range shortcuts.

    Resampled until the undirected link count is within ``tolerance`` of
    ``target`` (default: the 3n construction value).
    """
    target = target if target is not None else 3 * n
    for _ in range(1000):
        pairs = set()
        for i in range(n):
            pairs.add(frozenset((i, (i + 1) % n)))
            pairs.add(frozenset((i, (i + 2) % n)))
        for i in range(n):
            j = int(rng.integers(n))
            if j != i and abs(i - j) not in (1, 2, n - 1, n - 2):
                pairs.add(frozenset((i, j)))
        if abs(len(pairs) - target) <= tolerance * target:
            links = []
            for pair in pairs:
                a, b = sorted(pair)
                links += [(a, b), (b, a)]
            return n, links
    raise ConfigurationError("could not hit the small-world edge budget")


def zipf_weights(catalog, exponent):
    """Normalized Zipf weights, w_k proportional to 1/k^s."""
    ranks = np.arange(1, catalog + 1, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # checked by the caller
        w = ranks ** (-exponent)
        return w / w.sum()


def build_topology(spec, rng):
    """(Topology, link d, cache b) of ``spec``; d and b are None unless the
    topology comes from a file."""
    if spec.topology == "file":
        return load_topology_file(spec.path)
    # each generated family: the number of size values it takes, its builder
    families = {
        "grid": (2, grid_links), "full-tree": (2, full_tree_links),
        "fog": (2, fog_links), "small-world": (1, lambda n: small_world_links(n, rng)),
        "er": (1, lambda n: connected_er_links(n, spec.er_p, rng)),
    }
    if spec.topology not in families:
        raise ConfigurationError(f"unknown topology kind {spec.topology!r}")
    length, build = families[spec.topology]
    if len(spec.size) != length or min(spec.size, default=0) < 1:
        raise ConfigurationError(f"{spec.topology} takes a size of length {length}, "
                                 f"each value at least 1, got {tuple(spec.size)}")
    return Topology(*build(*(int(x) for x in spec.size))), None, None


def generate_scenario(spec, seed):
    """Deterministic scenario from (spec, seed).

    Per-link cost parameters are drawn per undirected pair and assigned
    symmetrically; requests are |R| distinct (node, item) pairs with
    Zipf-weighted items; each item gets one uniformly random server.
    """
    if seed < 0:
        raise ConfigurationError(f"seed must be non-negative, got {seed}")
    R, C = int(spec.requests), int(spec.catalog)
    if R < 0:
        raise ConfigurationError(f"requests must be non-negative, got {R}")
    if C < 1:
        raise ConfigurationError(f"catalog must hold at least one item, got {C}")
    rng = np.random.default_rng(seed)
    top, file_d, file_b = build_topology(spec, rng)
    n = top.num_nodes
    if R > n * C:
        raise ConfigurationError(
            f"cannot draw {R} distinct pairs from {n} nodes x {C} items"
        )

    servers = [{int(rng.integers(n))} for _ in range(C)]
    weights = zipf_weights(C, spec.zipf)
    if not (np.isfinite(weights).all() and (weights >= 0).all()):
        raise ConfigurationError(
            f"zipf exponent {spec.zipf} must give finite, non-negative item weights")
    # rng.choice(C, p=weights) per draw, without re-checking p each time:
    # numpy's own formula, so the same random stream and the same items
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    rates = np.zeros((C, n))
    chosen = set()
    while len(chosen) < R:
        i = int(rng.integers(n))
        k = int(cdf.searchsorted(rng.random(), side="right"))
        if (i, k) in chosen or i in servers[k]:
            continue
        chosen.add((i, k))
        rates[k, i] = rng.uniform(*spec.rate_range)
    dem = Demand(C, servers, rates)

    if file_d is not None:
        d = file_d
    else:
        # one draw per undirected pair, in the order of its first link
        # (src < dst, as links sort by (src, dst)), copied onto the reverse
        up = np.flatnonzero(top.src < top.dst)
        d = np.empty(top.num_links)
        d[up] = rng.uniform(*spec.link_cost_range, size=up.size)
        d[top.rev[up]] = d[up]
    link = poly3_link_costs(d) if spec.link_cost_kind == "poly3" else linear_link_costs(d)

    if file_b is not None:
        b = file_b
    else:
        b = rng.uniform(*spec.cache_price_range, size=n)
    cost = CostModel(link=link, cache=linear_cache_costs(b))
    return Scenario(
        topology=top, demand=dem, cost=cost, name=spec.name or spec.topology,
        meta={"seed": int(seed), "link_d": d, "cache_b": np.asarray(b, float)},
    )


TABLE_PRESETS = {
    "connected-ER": ScenarioSpec("er", (50,), 80, 200, 1.0, (1, 5), (0.05, 0.1), (5, 10)),
    "grid-100": ScenarioSpec("grid", (10, 10), 100, 400, 1.0, (1, 5), (0.05, 0.1), (20, 40)),
    "full-tree": ScenarioSpec("full-tree", (2, 6), 50, 150, 1.0, (1, 5), (0.05, 0.1), (20, 30)),
    "fog": ScenarioSpec("fog", (3, 4), 50, 200, 1.0, (1, 5), (0.05, 0.1), (30, 50)),
    "small-world": ScenarioSpec("small-world", (120,), 100, 400, 1.0, (1, 5), (0.05, 0.1), (10, 20)),
    "grid-25": ScenarioSpec("grid", (5, 5), 30, 100, 1.0, (1, 5), (0.1, 0.1), (10, 10)),
}


# -- topology file format ---------------------------------------------------
#
#   # comment
#   nodes 22
#   edge 0 1 0.05        (directed link with linear-marginal d)
#   cache 0 12.0         (optional per-node unit cache price)
#
# Missing reverse edges are auto-completed (the model requires symmetry).


def load_topology_file(path):
    """Parse a topology file; returns (Topology, d per link, b per node)."""
    n = None
    edges = {}
    cache = {}
    with open(path, "r", encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            try:
                if parts[0] == "nodes" and len(parts) == 2:
                    n = int(parts[1])
                elif parts[0] == "edge" and len(parts) == 4:
                    i, j, d = int(parts[1]), int(parts[2]), float(parts[3])
                    if (i, j) in edges:
                        raise StructuralError(f"line {ln}: duplicate edge ({i},{j})")
                    edges[(i, j)] = d
                elif parts[0] == "cache" and len(parts) == 3:
                    cache[int(parts[1])] = float(parts[2])
                else:
                    raise StructuralError(f"line {ln}: unrecognized record {line!r}")
            except (ValueError, IndexError):
                raise StructuralError(f"line {ln}: cannot parse {line!r}") from None
    if n is None:
        raise StructuralError("topology file missing a 'nodes' record")
    asym = [(i, j) for (i, j) in edges if (j, i) not in edges]
    if asym:
        import warnings

        warnings.warn(
            f"{len(asym)} edges missing their reverse; auto-completing symmetrically",
            stacklevel=2,
        )
        for i, j in asym:
            edges[(j, i)] = edges[(i, j)]
    top = Topology(n, edges.keys())
    d = np.array([edges[e] for e in top.links])
    b = np.array([cache.get(i, 0.0) for i in range(n)])
    return top, d, b


# -- scenario document (YAML) ----------------------------------------------


def scenario_to_document(scenario):
    top, dem = scenario.topology, scenario.demand
    d = scenario.meta.get("link_d")
    b = scenario.meta.get("cache_b")
    if d is None or b is None:
        raise ConfigurationError("scenario lacks serializable cost parameters")
    doc = {
        "name": scenario.name,
        "nodes": top.num_nodes,
        "link_cost_kind": "poly3" if scenario.cost.link.kind == "poly" and
                          scenario.cost.link.params.shape[1] == 3 else "linear",
        "links": [
            {"src": int(i), "dst": int(j), "d": float(d[e])}
            for e, (i, j) in enumerate(top.links)
        ],
        "catalog": dem.num_items,
        "servers": [sorted(int(s) for s in srv) for srv in dem.servers],
        "demands": [
            {"node": int(i), "item": int(k), "rate": float(dem.rates[k, i])}
            for k in range(dem.num_items)
            for i in range(top.num_nodes)
            if dem.rates[k, i] > 0
        ],
        "cache_price": [float(x) for x in b],
    }
    return doc


def save_scenario(path, scenario):
    doc = scenario_to_document(scenario)
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(doc, fh, sort_keys=True, default_flow_style=False)


def load_scenario(path):
    with open(path, "r", encoding="utf-8") as fh:
        doc = yaml.safe_load(fh)
    try:
        n = int(doc["nodes"])
        links = [(rec["src"], rec["dst"]) for rec in doc["links"]]
        top = Topology(n, links)
        d = np.zeros(top.num_links)
        for rec in doc["links"]:
            d[top.edge_index[(rec["src"], rec["dst"])]] = float(rec["d"])
        C = int(doc["catalog"])
        rates = np.zeros((C, n))
        for rec in doc["demands"]:
            rates[int(rec["item"]), int(rec["node"])] = float(rec["rate"])
        dem = Demand(C, [set(s) for s in doc["servers"]], rates)
        b = np.asarray(doc["cache_price"], dtype=float)
        kind = doc.get("link_cost_kind", "poly3")
        link = poly3_link_costs(d) if kind == "poly3" else linear_link_costs(d)
        cost = CostModel(link=link, cache=linear_cache_costs(b))
    except (KeyError, TypeError) as exc:
        raise StructuralError(f"malformed scenario document: {exc}") from None
    return Scenario(
        topology=top, demand=dem, cost=cost, name=str(doc.get("name", "")),
        meta={"link_d": d, "cache_b": b},
    )
