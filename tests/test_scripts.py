"""The drivers under scripts/ run end to end on small arguments.

Each script imports ergolab's public names; one that a refactor removed or
renamed would otherwise only fail when someone ran the script by hand."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SCRIPTS = {
    "joining_oracle_scan.py": (["--starts", "20", "--n", "10", "--kmax", "1"],
                               "json"),
    "square_average_scan.py": (["--kmax", "1", "--n", "2000"], "csv"),
    "seminorm_ladder_report.py": (["--kmax", "2", "--outer-h", "5"], "json"),
}


@pytest.mark.parametrize("script", SCRIPTS)
def test_script_runs_and_writes_its_output(script, tmp_path):
    args, fmt = SCRIPTS[script]
    out = tmp_path / f"out.{fmt}"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args,
                    "--out", str(out)], check=True, cwd=tmp_path, env=env,
                   capture_output=True, timeout=120)
    text = out.read_text()
    if fmt == "json":
        payload = json.loads(text)
        if script == "joining_oracle_scan.py":
            assert len(payload["rows"]) == 9      # the |k| <= 1 box at d = 2
            assert payload["worst_error"] >= 0.0
        else:
            assert len(payload) == 4          # its four (system, f) cases
            assert all(len(entry["ladder"]) == 2 for entry in payload)
    else:
        rows = list(csv.DictReader(text.splitlines()))
        assert rows and set(rows[0]) == {"k1", "k2", "K", "M", "limit", "N",
                                         "value_re", "value_im"}
        assert {(r["k1"], r["k2"]) for r in rows} == \
            {(str(a), str(b)) for a in (-1, 0, 1) for b in (-1, 0, 1)}
