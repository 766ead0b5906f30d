"""Experiment CLI: flags, CSV contracts, determinism, sweeps."""

import pytest
import yaml

from cachenet.cli import main
from cachenet.scenarios import ScenarioSpec, generate_scenario, scenario_to_document


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, rows


class TestFlowLevel:
    def test_gp_row_count_contract(self, tmp_path):
        out = tmp_path / "gp"
        rc = main([
            "--topology", "grid", "--size", "3x3", "--catalog", "4",
            "--requests", "8", "--algorithm", "gp", "--seed", "1",
            "--periods", "40", "--tol", "1e-12", "--out", str(out),
        ])
        assert rc == 0
        header, rows = read_csv(f"{out}.csv")
        assert header[0] == "period"
        assert len(rows) == 40  # tol unreachable: exactly --periods rows
        totals = [float(r[1]) for r in rows]
        assert all(b <= a + 1e-9 for a, b in zip(totals, totals[1:]))

    def test_gcfw_with_sp_routing(self, tmp_path):
        out = tmp_path / "gc"
        rc = main([
            "--topology", "grid", "--size", "3x3", "--catalog", "4",
            "--requests", "8", "--algorithm", "gcfw",
            "--N", "100", "--seed", "2", "--out", str(out),
        ])
        assert rc == 0
        _, rows = read_csv(f"{out}_summary.csv")
        assert len(rows) == 1
        _, hist = read_csv(f"{out}.csv")
        assert len(hist) == 101  # y^(0..N)

    def test_zero_weight_links(self, tmp_path):
        # free links tie the server distances; the shortest-path start and
        # the fixed routes must still be loop-free
        argv = [
            "--topology", "grid", "--size", "4x4", "--catalog", "5",
            "--requests", "10", "--link-cost-range", "0,0", "--periods", "20",
            "--N", "10",
        ]
        for algorithm in ("gp", "gcfw"):
            out = tmp_path / algorithm
            assert main(argv + ["--algorithm", algorithm, "--out", str(out)]) == 0

    def test_eviction_requires_simulate(self, tmp_path, capsys):
        rc = main([
            "--topology", "grid", "--size", "3x3", "--catalog", "3",
            "--requests", "5", "--algorithm", "sp-lru",
            "--out", str(tmp_path / "x"),
        ])
        assert rc == 2
        assert "simulate" in capsys.readouterr().err

    def test_deterministic_output_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        argv = [
            "--topology", "grid", "--size", "3x3", "--catalog", "4",
            "--requests", "8", "--algorithm", "gp", "--seed", "7",
            "--periods", "25",
        ]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert (a.parent / "a.csv").read_bytes() == (b.parent / "b.csv").read_bytes()

    def test_cache_price_sweep_monotone_cache_size(self, tmp_path):
        out = tmp_path / "sweep"
        rc = main([
            "--topology", "grid", "--size", "3x3", "--catalog", "4",
            "--requests", "10", "--algorithm", "gp", "--seed", "3",
            "--periods", "400", "--link-cost", "linear",
            "--rate-range", "1,5",
            "--sweep-cache-price", "0.05,0.5,5",
            "--out", str(out),
        ])
        assert rc == 0
        _, rows = read_csv(f"{out}_summary.csv")
        sizes = [float(r[4]) for r in rows]
        assert sizes == sorted(sizes, reverse=True)


class TestPacketLevel:
    def test_sim_csv_schema(self, tmp_path):
        out = tmp_path / "sim"
        rc = main([
            "--topology", "grid", "--size", "2x2", "--catalog", "2",
            "--requests", "3", "--algorithm", "sp-lru", "--capacity", "1",
            "--simulate", "--periods", "3", "--slot-duration", "2",
            "--slots-per-period", "2", "--seed", "5", "--out", str(out),
        ])
        assert rc == 0
        header, rows = read_csv(f"{out}.csv")
        assert header == [
            "period", "slot", "measured_link_cost", "measured_cache_cost",
            "measured_total", "theoretical_total", "total_cache_size",
            "unroutable_count", "messages",
        ]
        assert len(rows) == 6  # one row per monitor window

    def test_trace_file_written(self, tmp_path):
        out = tmp_path / "tr"
        trace = tmp_path / "events.log"
        rc = main([
            "--topology", "grid", "--size", "2x2", "--catalog", "2",
            "--requests", "3", "--algorithm", "sp-lru", "--simulate",
            "--periods", "2", "--slot-duration", "2", "--slots-per-period", "2",
            "--seed", "5", "--trace", str(trace), "--out", str(out),
        ])
        assert rc == 0
        lines = trace.read_text().strip().splitlines()
        assert lines and any(("fwd" in l or "server" in l) for l in lines)

    def test_gp_simulation_messages_column(self, tmp_path):
        out = tmp_path / "gps"
        rc = main([
            "--topology", "grid", "--size", "2x2", "--catalog", "2",
            "--requests", "3", "--algorithm", "gp", "--simulate",
            "--periods", "3", "--slot-duration", "2", "--slots-per-period", "2",
            "--seed", "5", "--out", str(out),
        ])
        assert rc == 0
        header, rows = read_csv(f"{out}.csv")
        msgs = [int(r[8]) for r in rows]
        # |C| * |E| = 2 * 8 broadcast messages at each update boundary
        assert 16 in msgs


class TestErrors:
    def test_zero_periods_is_reported(self, tmp_path, capsys):
        for run in (["--requests", "8", "--algorithm", "gp"],
                    ["--requests", "6", "--algorithm", "sp-lru", "--simulate"]):
            rc = main([
                "--topology", "grid", "--size", "3x3", "--catalog", "4",
                *run, "--periods", "0", "--out", str(tmp_path / "z"),
            ])
            assert rc == 2, run
            err = capsys.readouterr().err
            assert "error:" in err and "Traceback" not in err

    @pytest.mark.parametrize("bad", [
        ["--alpha", "nan"], ["--alpha", "inf"], ["--tol", "nan"],
        ["--alpha", "-1", "--simulate"], ["--alpha", "nan", "--simulate"],
    ])
    def test_non_finite_or_negative_step_is_reported(self, tmp_path, capsys, bad):
        rc = main([
            "--topology", "grid", "--size", "3x3", "--catalog", "4",
            "--requests", "8", "--algorithm", "gp", "--periods", "3", *bad,
            "--out", str(tmp_path / "a"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
        assert "finite and positive" in err

    @pytest.mark.parametrize("bad", [
        ["--N", "1"], ["--N", "0"], ["--N", "1", "--simulate"],
    ])
    def test_bad_gcfw_iteration_count_is_reported(self, tmp_path, capsys, bad):
        rc = main([
            "--topology", "grid", "--size", "3x3", "--catalog", "4",
            "--requests", "8", "--algorithm", "gcfw", "--periods", "3", *bad,
            "--out", str(tmp_path / "n"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
        assert "integer N >= 2" in err

    @pytest.mark.parametrize("bad", [
        ["--size", "5xa"], ["--size", "3x3x3"], ["--size", ""],
        ["--rate-range", "a,b"], ["--rate-range", "5,1"],
        ["--link-cost-range", "1"], ["--link-cost-range", "0.1,0.2,0.3"],
        ["--cache-price-range", "5"], ["--cache-price-range", "nan,5"],
        ["--zipf", "nan"], ["--zipf", "inf"], ["--cache-price", "nan"],
        ["--sweep-load", "1,x"],
        ["--seed", "-1"], ["--requests", "-5"], ["--jobs", "0"], ["--jobs", "-2"],
    ])
    def test_malformed_numbers_are_reported(self, tmp_path, capsys, bad):
        # rejected while parsing the command line, as argparse exits
        with pytest.raises(SystemExit) as exc:
            main([
                "--topology", "grid", "--size", "3x3", "--catalog", "4",
                "--requests", "8", "--algorithm", "gp", "--periods", "3",
                *bad, "--out", str(tmp_path / "m"),
            ])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument {bad[0]}" in err and "Traceback" not in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("bad", [
        ["--size", "5"], ["--topology", "full-tree", "--size", "3"],
        ["--topology", "er", "--size", "3x3"], ["--topology", "er", "--size", "0"],
        ["--catalog", "0", "--requests", "0"],
        ["--catalog", "-2", "--requests", "0"], ["--capacity", "-1"],
    ])
    def test_bad_scenario_shape_is_reported(self, tmp_path, capsys, bad):
        # a size of the wrong length for its family, an empty catalog and a
        # negative capacity end in one error line, not a traceback
        try:
            rc = main([*bad, "--periods", "3", "--out", str(tmp_path / "b")])
        except SystemExit as exc:   # rejected while parsing the command line
            rc = exc.code
        assert rc == 2
        err = capsys.readouterr().err
        assert sum("error:" in line for line in err.splitlines()) == 1
        assert "Traceback" not in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("bad", ["nan", "-0.1", "0", "1.5"])
    def test_er_probability_outside_unit_interval_is_reported(self, tmp_path,
                                                              capsys, bad):
        # rejected while parsing, before any graph is drawn
        with pytest.raises(SystemExit) as exc:
            main(["--topology", "er", "--size", "50", "--er-p", bad,
                  "--out", str(tmp_path / "p")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument --er-p" in err and "Traceback" not in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("bad", ["nan", "inf", "0", "-1"])
    def test_bad_slot_duration_is_reported(self, tmp_path, capsys, bad):
        rc = main([
            "--topology", "grid", "--size", "3x3", "--catalog", "4",
            "--requests", "8", "--algorithm", "sp-lru", "--simulate",
            "--periods", "2", "--slot-duration", bad,
            "--out", str(tmp_path / "d"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
        assert "finite and positive" in err

    def test_bad_spec_is_reported(self, tmp_path, capsys):
        rc = main([
            "--topology", "grid", "--size", "2x2", "--catalog", "1",
            "--requests", "100", "--out", str(tmp_path / "e"),
        ])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_topology_file_missing_path(self, tmp_path, capsys):
        rc = main(["--topology", "file", "--out", str(tmp_path / "e")])
        assert rc == 2

    def test_scenario_file_server_out_of_range(self, tmp_path, capsys):
        spec = ScenarioSpec("grid", (3, 3), 4, 8, 1.0, (1, 5), (0.05, 0.1),
                            (5, 10))
        doc = scenario_to_document(generate_scenario(spec, 1))
        doc["servers"][0] = [99]
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(doc))
        rc = main(["--scenario-file", str(path), "--algorithm", "gp",
                   "--periods", "3", "--out", str(tmp_path / "s")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err and "server 99" in err
