"""Smoke tests of the public surface: every name the package exports
resolves, and every demo script runs to completion in-process."""

import runpy
import tempfile
from pathlib import Path

import pytest

import covdecomp as cd

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_every_export_resolves():
    assert len(set(cd.__all__)) == len(cd.__all__)
    assert [name for name in cd.__all__ if not hasattr(cd, name)] == []


def test_all_demos_found():
    assert len(DEMOS) == 7


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, tmp_path, monkeypatch, capsys):
    # demos that write files do so under the working or temporary directory
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
    assert not list(tmp_path.glob("covdecomp_demo_*"))
