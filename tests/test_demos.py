"""Smoke tests of the public surface: every name the package exports
resolves and is named in the README, every demo script runs to
completion in-process, and so do the README's Python examples."""

import re
import runpy
import tempfile
from pathlib import Path

import pytest

import covdecomp as cd

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_export_resolves():
    assert len(set(cd.__all__)) == len(cd.__all__)
    assert [name for name in cd.__all__ if not hasattr(cd, name)] == []


def test_readme_names_every_export():
    readme = (ROOT / "README.md").read_text()
    assert [name for name in cd.__all__
            if not re.search(r"\b%s\b" % re.escape(name), readme)] == []


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


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    # the blocks build on each other, so they share one namespace
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                        re.DOTALL | re.MULTILINE)
    assert len(blocks) >= 2
    monkeypatch.chdir(tmp_path)
    namespace = {"__name__": "__main__"}
    for k, block in enumerate(blocks):
        exec(compile(block, "README.md python block %d" % k, "exec"), namespace)
        results = [v for v in namespace.values() if isinstance(v, cd.SolveResult)]
        assert all(r.converged for r in results)
    assert capsys.readouterr().out.strip()
