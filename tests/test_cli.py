"""CLI subcommands via main()."""

from __future__ import annotations

import pytest

from repro.cli import _server_config, build_parser, main


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMachines:
    def test_lists_catalog(self, capsys):
        code, out, _ = run_cli(capsys, "machines")
        assert code == 0
        assert "GTX 580" in out and "i7-950" in out and "Keckler" in out


class TestDescribe:
    def test_describe_known(self, capsys):
        code, out, _ = run_cli(capsys, "describe", "gtx580-double")
        assert code == 0
        assert "B_tau" in out and "race-to-halt" in out

    def test_describe_unknown_fails_cleanly(self, capsys):
        code, _, err = run_cli(capsys, "describe", "nonexistent")
        assert code == 1
        assert "error:" in err

    def test_describe_missing_json_path_fails_cleanly(self, capsys):
        """A machine-file path that does not exist: one line, no traceback."""
        code, _, err = run_cli(capsys, "describe", "no/such/machine.json")
        assert code == 1
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_describe_machine_json_file(self, capsys, tmp_path):
        import json

        from repro.machines.catalog import get_machine

        machine = get_machine("gtx580-double")
        path = tmp_path / "custom.json"
        path.write_text(json.dumps({
            "name": "Custom GTX",
            "tau_flop": machine.tau_flop,
            "tau_mem": machine.tau_mem,
            "eps_flop": machine.eps_flop,
            "eps_mem": machine.eps_mem,
            "pi0": machine.pi0,
        }))
        code, out, _ = run_cli(capsys, "describe", str(path))
        assert code == 0
        assert "Custom GTX" in out


class TestCurves:
    def test_all_curves(self, capsys):
        code, out, _ = run_cli(capsys, "curves", "keckler-fermi")
        assert code == 0
        assert "Roofline" in out and "Arch line" in out and "powerline" in out

    def test_single_kind(self, capsys):
        code, out, _ = run_cli(capsys, "curves", "gtx580-double", "--kind", "archline")
        assert code == 0
        assert "Arch line" in out and "Roofline" not in out

    def test_csv_export(self, capsys, tmp_path):
        target = tmp_path / "curves.csv"
        code, out, _ = run_cli(
            capsys, "curves", "gtx580-double", "--csv", str(target)
        )
        assert code == 0
        assert target.exists()
        assert target.read_text().startswith("series,intensity,value")

    def test_svg_export(self, capsys, tmp_path):
        import xml.etree.ElementTree as ET

        target = tmp_path / "chart.svg"
        code, _, _ = run_cli(
            capsys, "curves", "keckler-fermi", "--svg", str(target)
        )
        assert code == 0
        ET.parse(target)


class TestExperiments:
    def test_list(self, capsys):
        code, out, _ = run_cli(capsys, "experiment", "list")
        assert code == 0
        for eid in ("table2", "fig2", "greenup"):
            assert eid in out

    def test_run_analytic(self, capsys):
        code, out, _ = run_cli(capsys, "experiment", "run", "table2")
        assert code == 0
        assert "Table II" in out

    def test_run_unknown(self, capsys):
        code, _, err = run_cli(capsys, "experiment", "run", "fig99")
        assert code == 1
        assert "unknown experiment" in err

    def test_run_with_output_archive(self, capsys, tmp_path):
        import json

        out_dir = tmp_path / "results"
        code, out, _ = run_cli(
            capsys, "experiment", "run", "table2", "--output", str(out_dir)
        )
        assert code == 0
        assert (out_dir / "table2.txt").exists()
        payload = json.loads((out_dir / "table2.json").read_text())
        assert payload["values"]["b_eps"] == pytest.approx(14.4, abs=0.01)
        assert "archived" in out

    def test_run_multiple_ids_in_order(self, capsys):
        code, out, _ = run_cli(capsys, "experiment", "run", "table2", "table3")
        assert code == 0
        assert "Table II" in out and "Table III" in out
        assert out.index("Table II") < out.index("Table III")

    def test_run_with_jobs(self, capsys):
        code, out, _ = run_cli(
            capsys, "experiment", "run", "table2", "table3", "--jobs", "2"
        )
        assert code == 0
        assert "Table II" in out and "Table III" in out

    def test_run_with_cache_dir(self, capsys, tmp_path):
        import json

        cache = tmp_path / "cache"
        code, _, _ = run_cli(
            capsys, "experiment", "run", "table2", "--cache-dir", str(cache)
        )
        assert code == 0
        entries = list(cache.glob("*.json"))
        assert len(entries) == 1
        # Second run replays from the cache: poison the entry and observe
        # the sentinel surfacing in the report.
        payload = json.loads(entries[0].read_text())
        payload["text"] = "CACHE-REPLAY-OK"
        entries[0].write_text(json.dumps(payload))
        code, out, _ = run_cli(
            capsys, "experiment", "run", "table2", "--cache-dir", str(cache)
        )
        assert code == 0
        assert "CACHE-REPLAY-OK" in out

    def test_run_rejects_bad_jobs(self, capsys):
        code, _, err = run_cli(
            capsys, "experiment", "run", "table2", "--jobs", "0"
        )
        assert code == 1
        assert "error:" in err

    def test_run_fmm_with_max_variants(self, capsys):
        """The CI smoke invocation: a trimmed fmm study end to end."""
        code, out, _ = run_cli(
            capsys, "experiment", "run", "fmm", "--max-variants", "8",
            "--jobs", "2",
        )
        assert code == 0
        assert "FMM U-list energy study: 9 variants" in out  # 8 + reference
        assert "pJ/B" in out

    def test_max_variants_ignored_by_other_experiments(self, capsys):
        code, out, _ = run_cli(
            capsys, "experiment", "run", "table2", "--max-variants", "4"
        )
        assert code == 0
        assert "Table II" in out


class TestFit:
    def test_fit_from_csv(self, capsys, tmp_path):
        # Build a tiny synthetic dataset satisfying eq. (9) exactly.
        rows = ["work,traffic,time,energy,double"]
        eps_s, eps_mem, pi0, delta = 1e-10, 5e-10, 50.0, 1e-10
        for double in (0, 1):
            for intensity in (0.5, 1.0, 2.0, 4.0, 8.0):
                work = 1e10
                traffic = work / intensity
                time = max(work / 1e12, traffic / 2e11)
                energy = work * (eps_s + delta * double) + traffic * eps_mem + pi0 * time
                rows.append(f"{work},{traffic},{time},{energy},{double}")
        path = tmp_path / "samples.csv"
        path.write_text("\n".join(rows))

        code, out, _ = run_cli(capsys, "fit", str(path))
        assert code == 0
        assert "eps_mem" in out and "R^2" in out

    def test_fit_missing_columns(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        code, _, err = run_cli(capsys, "fit", str(path))
        assert code == 1
        assert "columns" in err


class TestTradeoff:
    def test_frontier_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "tradeoff", "gtx580-double", "--intensity", "0.5",
            "--m", "2", "4",
        )
        assert code == 0
        assert "f* eq.(10)" in out
        assert out.count("\n") >= 3


class TestFitErrors:
    def test_fit_missing_file_fails_cleanly(self, capsys):
        """Environmental failures get one line on stderr, exit 1."""
        code, _, err = run_cli(capsys, "fit", "no/such/samples.csv")
        assert code == 1
        assert err.startswith("error:")
        assert "Traceback" not in err


class TestBenchServe:
    def test_small_run_reports_serving_numbers(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench-serve", "--requests", "64", "--concurrency", "16",
            "--max-batch", "8",
        )
        assert code == 0
        assert "throughput" in out
        assert "p99" in out
        assert "batch sizes" in out
        assert "capped/energy_per_flop" in out

    def test_unknown_machine_fails_cleanly(self, capsys):
        code, _, err = run_cli(
            capsys, "bench-serve", "--requests", "8", "--concurrency", "2",
            "--machines", "warp-drive",
        )
        assert code == 1
        assert err.startswith("error:")

    def test_cache_mode_with_repeats(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench-serve", "--requests", "64", "--concurrency", "8",
            "--max-batch", "8", "--cache-size", "256", "--repeat-intensities",
        )
        assert code == 0
        assert "cache" in out


class TestServeParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 8733
        assert args.max_batch == 64
        assert args.flush_window_ms == 1.0
        assert args.cache_size == 2048
        assert args.queue_limit == 1024
        assert args.access_log is False

    def test_serve_overrides(self):
        args = build_parser().parse_args([
            "serve", "--port", "0", "--max-batch", "1",
            "--flush-window-ms", "0.5", "--cache-size", "0",
            "--default-timeout-ms", "250", "--access-log",
        ])
        assert args.port == 0
        assert args.max_batch == 1
        assert args.default_timeout_ms == 250.0
        assert args.access_log is True

    def test_bench_serve_defaults_isolate_batching(self):
        args = build_parser().parse_args(["bench-serve"])
        assert args.cache_size == 0
        assert args.model == "capped"
        assert args.metric == "energy_per_flop"
        assert args.machines == ["gtx580-double", "i7-950-double"]


#: One non-default value per server flag ``serve`` and ``bench-serve``
#: share; the ``ServerConfig`` field is the flag minus ``--``/``-ms``.
SHARED_SERVER_FLAGS = [
    ("--max-batch", "8"),
    ("--flush-window-ms", "0.5"),
    ("--cache-size", "7"),
    ("--workers", "2"),
    ("--plan-cache-size", "0"),
    ("--admission", "cost"),
    ("--work-budget", "0.5"),
    ("--deadline-batching",),
]


class TestSharedServerFlags:
    def test_serve_defaults_are_the_server_defaults(self):
        from repro.service import ServerConfig

        args = build_parser().parse_args(["serve"])
        assert _server_config(args, port=args.port) == ServerConfig(port=8733)

    @pytest.mark.parametrize(
        "flag", SHARED_SERVER_FLAGS, ids=lambda flag: flag[0]
    )
    def test_flag_sets_the_same_field_for_serve_and_bench_serve(self, flag):
        field = flag[0][2:].removesuffix("-ms").replace("-", "_")
        parser = build_parser()
        configs = {
            command: _server_config(parser.parse_args([command, *flag]))
            for command in ("serve", "bench-serve")
        }
        unset = _server_config(parser.parse_args(["serve"]))
        value = getattr(configs["serve"], field)
        assert getattr(configs["bench-serve"], field) == value
        assert value != getattr(unset, field)


class TestBenchServeTarget:
    """``--target`` drives a server configured elsewhere: every server
    flag is refused before any connection is attempted (nothing listens
    on port 9 here)."""

    @pytest.mark.parametrize(
        "flags",
        [
            ("--workers", "2"),
            ("--max-batch", "1"),
            ("--admission", "cost", "--work-budget", "0"),
        ],
    )
    def test_server_flags_are_refused(self, capsys, flags):
        code, _, err = run_cli(
            capsys, "bench-serve", "--requests", "8", "--wire", "ndjson",
            "--target", "127.0.0.1:9", *flags,
        )
        assert code == 1
        assert err.startswith("error: bench-serve --target")
        assert "could not connect" not in err


class TestConfigErrors:
    """Configuration mistakes print one ``error:`` line, no traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("serve", "--port", "0", "--admission", "cost"),
            ("bench-serve", "--requests", "8", "--wire", "ndjson",
             "--target", "nonsense"),
        ],
        ids=["cost-without-budget", "bad-target"],
    )
    def test_one_line_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err


class TestParser:
    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["machines"])
        assert args.command == "machines"

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])
