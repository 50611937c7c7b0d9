"""Smoke tests: every example script runs to completion."""

import pathlib
import runpy
import sys

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def run_example(monkeypatch, capsys, name, argv=()):
    monkeypatch.setattr(sys, "argv", [name, *argv])
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, monkeypatch, capsys):
        out = run_example(monkeypatch, capsys, "quickstart.py")
        assert "CERTIFIED" in out
        assert "safe to post the patch" in out

    def test_patch_audit(self, monkeypatch, capsys):
        out = run_example(monkeypatch, capsys, "patch_audit.py")
        assert "lines-not-compiled" in out
        assert "allmodconfig" in out
        assert "architectures that helped" in out

    def test_janitor_survey(self, monkeypatch, capsys):
        out = run_example(monkeypatch, capsys, "janitor_survey.py")
        assert "Table I" in out
        assert "Table II" in out
        assert "recovered" in out

    def test_evaluation_replay_small(self, monkeypatch, capsys):
        out = run_example(monkeypatch, capsys, "evaluation_replay.py",
                          ["--commits", "50", "--seed", "example-smoke"])
        assert "Table III" in out
        assert "Fig 5" in out
        assert "CDF" in out

    def test_zero_day_bot_small(self, monkeypatch, capsys):
        out = run_example(monkeypatch, capsys, "zero_day_bot.py",
                          ["--commits", "30", "--configs", "2"])
        assert "0-day bot" in out
        assert "JMake" in out

    def test_fleet_watch_small(self, monkeypatch, capsys):
        out = run_example(monkeypatch, capsys, "fleet_watch.py",
                          ["--commits", "30", "--seed", "example-fleet"])
        assert "watch drained" in out
        assert "janitor view" in out
        assert "file_cv=" in out

    def test_undertaker_scan(self, monkeypatch, capsys):
        out = run_example(monkeypatch, capsys, "undertaker_scan.py")
        assert "dead" in out
        assert "arch-dependent" in out
        assert "ground truth" in out
