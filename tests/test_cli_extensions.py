"""The ``dvfs`` CLI subcommand."""

from __future__ import annotations

from repro.cli import main


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDvfs:
    def test_sweep_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "dvfs", "i7-950-double", "--intensity", "0.5",
        )
        assert code == 0
        assert "energy-optimal s" in out
        assert out.count("\n") >= 8  # header + 7 sweep rows + verdict

    def test_verdict_depends_on_static_fraction(self, capsys):
        _, crawl_out, _ = run_cli(
            capsys, "dvfs", "i7-950-double", "--intensity", "0.5",
            "--static-fraction", "0.0",
        )
        assert "crawl" in crawl_out
        _, race_out, _ = run_cli(
            capsys, "dvfs", "i7-950-double", "--intensity", "64",
            "--static-fraction", "1.0",
        )
        assert "race-to-halt" in race_out

