"""Every demo runs to the end and writes nothing into the working directory."""

import pathlib
import runpy
import tempfile

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_and_leaves_cwd_empty(demo, tmp_path, monkeypatch, capsys):
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    # demos may keep their own scratch directories; keep them out of cwd
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.chdir(cwd)
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out
    assert sorted(p.name for p in cwd.iterdir()) == []
