"""scripts/regenerate_figures.py: each figure written, read back and compared."""

import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import mirrorphase
from mirrorphase import Dataset, figure_preset, run_sweep
from mirrorphase.datafiles import FORMATS

from oracles import reference_csv, reference_json

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "regenerate_figures.py"


@pytest.mark.parametrize("fmt", FORMATS)
def test_regenerates_one_figure(tmp_path, fmt):
    proc = subprocess.run([sys.executable, str(SCRIPT), "--only", "3", "--outdir",
                           str(tmp_path), "--format", fmt], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    path = tmp_path / f"fig3.{fmt}"
    assert proc.stdout.startswith(f"figure 3: 380 rows -> {path} (")
    reference = reference_csv if fmt == "csv" else reference_json
    assert path.read_text() == reference(run_sweep(figure_preset(3)))


def test_read_back_mismatch_exits_1(tmp_path, monkeypatch, capsys):
    def read_one_row_short(path):
        dataset = run_sweep(figure_preset(3))
        return Dataset(columns=dataset.columns, rows=dataset.rows[:-1],
                       metadata=dataset.metadata)

    monkeypatch.setattr(mirrorphase, "read_dataset_csv", read_one_row_short)
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--only", "3", "--outdir", str(tmp_path)])
    with pytest.raises(SystemExit) as caught:
        runpy.run_path(str(SCRIPT), run_name="__main__")
    assert caught.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"figure 3: {tmp_path / 'fig3.csv'} does not read back as "
                            "the rows written\n")


@pytest.mark.parametrize("fmt", FORMATS)
def test_metadata_mismatch_exits_1(tmp_path, monkeypatch, capsys, fmt):
    """A file that reads back the rows written but other metadata is reported."""
    reader = f"read_dataset_{fmt}"
    read = getattr(mirrorphase, reader)

    def read_without_target(path):
        back = read(path)
        metadata = {key: value for key, value in back.metadata.items() if key != "target"}
        return Dataset(columns=back.columns, rows=back.rows, metadata=metadata)

    monkeypatch.setattr(mirrorphase, reader, read_without_target)
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--only", "3", "--outdir", str(tmp_path),
                                      "--format", fmt])
    with pytest.raises(SystemExit) as caught:
        runpy.run_path(str(SCRIPT), run_name="__main__")
    assert caught.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"figure 3: {tmp_path / f'fig3.{fmt}'} does not read back as "
                            "the metadata written\n")
