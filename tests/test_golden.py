"""Golden bytes: identical configs give identical bytes, across changes.

scripts/golden.py runs a fixed set of configs, one per CLI mode and system
kind, and hashes their artifacts; tests/golden.json holds the digests per
host fingerprint (numpy version, machine, np.exp's dispatch target).  A
change that moves one emitted bit fails here.  On a host with no entry the
test skips and names the fingerprint, so that `scripts/golden.py --write`
can record it."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _golden():
    spec = importlib.util.spec_from_file_location(
        "golden_script", ROOT / "scripts" / "golden.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


golden = _golden()


def test_artifact_digests_match_golden():
    data = json.loads(golden.GOLDEN_JSON.read_text())
    assert set(data["layers"]) == set(golden.CASES) | {"suite-vdc"}
    fp = golden.fingerprint()
    want = data["digests"].get(fp)
    if want is None:
        pytest.skip(f"no golden digests for host fingerprint {fp!r}")
    got = golden.digests()
    moved = sorted(name for name in want if got.get(name) != want[name])
    assert set(got) == set(want)
    assert not moved, f"digests moved on {fp!r}: {moved}"
