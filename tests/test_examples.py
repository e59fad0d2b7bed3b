"""Smoke tests that run the shipped examples' entry points."""

import pathlib
import runpy

EXAMPLES = pathlib.Path(__file__).resolve().parents[1] / "examples"


def test_design_space_sweep_onchip(capsys):
    example = runpy.run_path(str(EXAMPLES / "design_space.py"))
    example["sweep_onchip"]()
    out = capsys.readouterr().out
    assert "18 MB" in out and "NO (spills)" in out
    assert "66 MB" in out and "0.73" in out
