"""Scenario generation, Table-style topology counts, and file formats."""

import numpy as np
import pytest

from cachenet.errors import ConfigurationError, StructuralError
from cachenet.scenarios import (
    ScenarioSpec,
    TABLE_PRESETS,
    build_topology,
    fog_links,
    full_tree_links,
    generate_scenario,
    grid_links,
    load_scenario,
    load_topology_file,
    save_scenario,
    small_world_links,
    zipf_weights,
)

from helpers import reference_generate_scenario, save_topology_file


class TestTopologyCounts:
    def test_grid_5x5(self):
        n, links = grid_links(5, 5)
        assert n == 25
        assert len(links) == 80

    def test_full_binary_tree_depth_6(self):
        n, links = full_tree_links(2, 6)
        assert n == 63
        assert len(links) == 124

    def test_fog_3ary_depth_4(self):
        n, links = fog_links(3, 4)
        assert n == 40
        assert len(links) == 130

    def test_small_world_120(self):
        rng = np.random.default_rng(0)
        n, links = small_world_links(120, rng)
        assert n == 120
        assert abs(len(links) - 720) <= 72

    def test_er_connected(self):
        rng = np.random.default_rng(1)
        spec = ScenarioSpec("er", (50,), er_p=0.07)
        top, _, _ = build_topology(spec, rng)
        assert top.num_nodes == 50
        # connectivity: BFS from 0 reaches everything
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in top.neighbors[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        assert len(seen) == 50


class TestZipf:
    def test_weights_proportional(self):
        w = zipf_weights(4, 1.0)
        expected = np.array([1, 1 / 2, 1 / 3, 1 / 4])
        assert np.allclose(w, expected / expected.sum())

    def test_sampling_matches_weights(self):
        rng = np.random.default_rng(7)
        C = 10
        w = zipf_weights(C, 1.0)
        n = 1_000_000
        draws = rng.choice(C, size=n, p=w)
        counts = np.bincount(draws, minlength=C)
        for k in range(C):
            se = np.sqrt(n * w[k] * (1 - w[k]))
            assert abs(counts[k] - n * w[k]) <= 3 * se


class TestGenerateScenario:
    def test_deterministic(self):
        spec = TABLE_PRESETS["grid-25"]
        a = generate_scenario(spec, seed=3)
        b = generate_scenario(spec, seed=3)
        assert np.array_equal(a.demand.rates, b.demand.rates)
        assert a.demand.servers == b.demand.servers
        assert np.array_equal(a.meta["link_d"], b.meta["link_d"])

    def test_request_count_and_ranges(self):
        spec = TABLE_PRESETS["grid-25"]
        scen = generate_scenario(spec, seed=5)
        nz = scen.demand.rates[scen.demand.rates > 0]
        assert nz.size == spec.requests
        assert (nz >= 1.0).all() and (nz <= 5.0).all()
        assert np.allclose(scen.meta["link_d"], 0.1)
        assert np.allclose(scen.meta["cache_b"], 10.0)

    def test_impossible_spec_rejected(self):
        spec = ScenarioSpec("grid", (2, 2), catalog=2, requests=100)
        with pytest.raises(ConfigurationError):
            generate_scenario(spec, seed=0)

    def test_negative_seed_or_requests_rejected(self):
        spec = ScenarioSpec("grid", (2, 2), catalog=2, requests=3)
        with pytest.raises(ConfigurationError, match="seed"):
            generate_scenario(spec, seed=-1)
        spec.requests = -5
        with pytest.raises(ConfigurationError, match="requests"):
            generate_scenario(spec, seed=0)

    @pytest.mark.parametrize("topology, size", [
        ("grid", (5,)), ("grid", (2, 2, 2)), ("full-tree", (3,)),
        ("fog", (3,)), ("er", (3, 3)), ("small-world", (20, 2)),
        ("er", ()), ("er", (0,)), ("grid", (0, 5)), ("full-tree", (2, 0)),
    ])
    def test_size_of_wrong_length_or_below_one_rejected(self, topology, size):
        spec = ScenarioSpec(topology, size, catalog=2, requests=0)
        with pytest.raises(ConfigurationError, match="size of length"):
            generate_scenario(spec, seed=1)

    @pytest.mark.parametrize("catalog", [0, -2])
    def test_empty_catalog_rejected(self, catalog):
        spec = ScenarioSpec("grid", (3, 3), catalog=catalog, requests=0)
        with pytest.raises(ConfigurationError, match="catalog"):
            generate_scenario(spec, seed=1)

    @pytest.mark.parametrize("preset", sorted(TABLE_PRESETS))
    def test_same_scenarios_as_one_choice_call_per_draw(self, preset):
        # the item draw inverts the Zipf CDF as rng.choice(C, p=w) does,
        # so it takes the same random stream and returns the same items
        spec = TABLE_PRESETS[preset]
        for seed in range(1, 21):
            got = generate_scenario(spec, seed)
            ref = reference_generate_scenario(spec, seed)
            assert got.topology.links == ref.topology.links
            assert got.demand.servers == ref.demand.servers
            assert got.demand.rates.tobytes() == ref.demand.rates.tobytes()
            for key in ("link_d", "cache_b"):
                assert got.meta[key].tobytes() == ref.meta[key].tobytes()

    @pytest.mark.parametrize("zipf", [float("nan"), -1e6])
    def test_zipf_without_weights_rejected(self, zipf):
        spec = ScenarioSpec("grid", (3, 3), catalog=5, requests=10, zipf=zipf)
        with pytest.raises(ConfigurationError, match="zipf"):
            generate_scenario(spec, seed=1)

    @pytest.mark.parametrize("p", [float("nan"), -0.1, 0.0, 1.5])
    def test_er_probability_outside_unit_interval_rejected(self, p):
        spec = ScenarioSpec("er", (50,), catalog=5, requests=10, er_p=p)
        with pytest.raises(ConfigurationError, match="probability p"):
            generate_scenario(spec, seed=1)

    def test_symmetric_link_costs(self):
        spec = ScenarioSpec("grid", (3, 3), catalog=5, requests=10,
                            link_cost_range=(0.05, 0.1))
        scen = generate_scenario(spec, seed=2)
        d = scen.meta["link_d"]
        top = scen.topology
        for e in range(top.num_links):
            assert d[e] == d[top.rev[e]]


class TestTopologyFile:
    def test_round_trip_and_symmetrization(self, tmp_path):
        p = tmp_path / "topo.txt"
        p.write_text("# two nodes\nnodes 2\nedge 0 1 0.5\ncache 0 3.0\n")
        with pytest.warns(UserWarning):
            top, d, b = load_topology_file(p)
        assert top.num_nodes == 2
        assert top.num_links == 2
        assert d[top.edge_index[(1, 0)]] == 0.5
        assert b[0] == 3.0 and b[1] == 0.0

    def test_duplicate_edge_names_line(self, tmp_path):
        p = tmp_path / "topo.txt"
        p.write_text("nodes 2\nedge 0 1 0.5\nedge 0 1 0.7\nedge 1 0 0.5\n")
        with pytest.raises(StructuralError, match="line 3"):
            load_topology_file(p)

    def test_geant_scale_file(self, tmp_path):
        # 22 nodes / 66 directed links, the published GEANT scale
        rng = np.random.default_rng(11)
        pairs = set()
        # ring for connectivity plus random chords
        for i in range(22):
            pairs.add((i, (i + 1) % 22))
        while len(pairs) < 33:
            a, b = rng.integers(22, size=2)
            if a != b and (b, a) not in pairs:
                pairs.add((int(a), int(b)))
        lines = ["nodes 22"]
        for a, b in sorted(pairs):
            lines.append(f"edge {a} {b} 0.07")
            lines.append(f"edge {b} {a} 0.07")
        p = tmp_path / "geant.txt"
        p.write_text("\n".join(lines) + "\n")
        top, d, _ = load_topology_file(p)
        assert top.num_nodes == 22
        assert top.num_links == 66

    def test_save_load_round_trip(self, tmp_path):
        spec = ScenarioSpec("grid", (2, 3), catalog=3, requests=4)
        scen = generate_scenario(spec, seed=9)
        p = tmp_path / "t.txt"
        save_topology_file(p, scen.topology, scen.meta["link_d"],
                           scen.meta["cache_b"])
        top, d, b = load_topology_file(p)
        assert top.links == scen.topology.links
        assert np.allclose(d, scen.meta["link_d"])
        assert np.allclose(b, scen.meta["cache_b"])


class TestScenarioDocument:
    def test_yaml_round_trip(self, tmp_path):
        spec = ScenarioSpec("grid", (3, 3), catalog=4, requests=6)
        scen = generate_scenario(spec, seed=1)
        p = tmp_path / "scenario.yaml"
        save_scenario(p, scen)
        loaded = load_scenario(p)
        assert loaded.topology.links == scen.topology.links
        assert np.allclose(loaded.demand.rates, scen.demand.rates)
        assert loaded.demand.servers == scen.demand.servers
        assert np.allclose(loaded.meta["link_d"], scen.meta["link_d"])
        assert loaded.cost.link.kind == "poly"

    def test_byte_identical_documents(self, tmp_path):
        spec = TABLE_PRESETS["grid-25"]
        a, b = tmp_path / "a.yaml", tmp_path / "b.yaml"
        save_scenario(a, generate_scenario(spec, seed=4))
        save_scenario(b, generate_scenario(spec, seed=4))
        assert a.read_bytes() == b.read_bytes()
