"""CLI tests for the system-level commands (tiny scale, slowish)."""

from __future__ import annotations

import pytest

from repro.cli import main


class TestServeCommand:
    def test_serve_prints_telemetry(self, capsys):
        code = main(
            ["--scale", "0.06", "--seed", "3", "serve", "--requests", "5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "requests=5" in out
        assert "prediction" in out

    def test_serve_without_cache(self, capsys):
        code = main(
            [
                "--scale",
                "0.06",
                "--seed",
                "3",
                "serve",
                "--requests",
                "3",
                "--no-cache",
            ]
        )
        assert code == 0
        assert "requests=3" in capsys.readouterr().out


class TestAbtestCommand:
    def test_abtest_prints_ratios(self, capsys):
        code = main(["--scale", "0.06", "--seed", "3", "abtest"])
        assert code == 0
        out = capsys.readouterr().out
        assert "baseline fraud ratio" in out
        assert "online precision" in out


class TestLambdaCommand:
    def test_lambda_reports_both_passes(self, capsys):
        code = main(
            ["--scale", "0.06", "--seed", "3", "lambda", "--requests", "5", "--refresh"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "deploy pass: mode=full" in out
        assert "refresh pass: mode=incremental" in out
        assert "served: lambda=" in out

    def test_materializer_is_not_selectable(self, capsys):
        """How a pass is computed is not an option: the old flags are gone."""
        for flag in ("--full-graph", "--no-incremental", "--parity"):
            with pytest.raises(SystemExit) as excinfo:
                main(["--scale", "0.06", "lambda", flag])
            assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
