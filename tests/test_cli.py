"""Experiment CLI: flags, CSV contracts, determinism, sweeps."""

from cachenet.cli import main


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
            "--requests", "8", "--algorithm", "gcfw", "--fixed-routing", "sp",
            "--N", "100", "--seed", "2", "--out", str(out),
        ])
        assert rc == 0
        _, rows = read_csv(f"{out}_summary.csv")
        assert len(rows) == 1
        _, hist = read_csv(f"{out}.csv")
        assert len(hist) == 101  # y^(0..N)

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
        rc = main([
            "--topology", "grid", "--size", "3x3", "--catalog", "4",
            "--requests", "8", "--algorithm", "gp", "--periods", "0",
            "--out", str(tmp_path / "z"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

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
