import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ergolab
from ergolab.averaging import square_trajectory
from ergolab.config import format_config, parse_config
from ergolab.errors import ValidationError
from ergolab.joinings import empirical_self_joining, fiber_integrals
from ergolab.observables import Observable
from ergolab.phases import MeanAccumulator
from ergolab.rng import SplitMix64
from ergolab.runner import run_experiment
from ergolab.seminorms import hk_seminorm
from ergolab.systems import cat_map

BASE_CFG = """
[system]
kind = rotation
alpha = 0.61803398874989479

[observables]
f1 = 1,0:1
f2 = 1,0:-1

[run]
mode = average
scheme = square
checkpoints = 1000 10000 100000
start = 0.25
out_csv = sq.csv
"""


def run_cli(*args):
    # the subprocess imports the same ergolab as this test process
    src = str(Path(ergolab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "ergolab", *args],
                          capture_output=True, text=True, env=env)


# ---------------------------------------------------------------------------
# Config round trips and validation


def test_roundtrip_identity():
    cfg = parse_config(BASE_CFG)
    assert parse_config(format_config(cfg)) == cfg


def test_roundtrip_every_mode():
    texts = [
        BASE_CFG,
        """[system]
kind = heisenberg
alpha = 0.41421356237309515
beta = 0.73205080756887719
[run]
mode = certify
search_bound = 25
""",
        """[system]
kind = automorphism
matrix = 2 1 1 1
[observables]
f1 = 1,0:1,0
[run]
mode = seminorm
order = 2
outer_h = 30
start = 0.5 0.5
""",
        """[system]
kind = rotation
alpha = 0.61803398874989479
[run]
mode = vdc
vdc_family = quadratic
inner_n = 1000
outer_h = 50
""",
        """[system]
kind = skew
base_alpha = 0.61803398874989479
cocycle_linear = 1
cocycle_const = 0
[observables]
f1 = 1,0:1,1
[run]
mode = average
scheme = birkhoff
checkpoints = 100 1000
start = haar
seed = 5
""",
    ]
    for text in texts:
        cfg = parse_config(text)
        assert parse_config(format_config(cfg)) == cfg


def test_missing_seed_is_validation_error():
    bad = BASE_CFG.replace("start = 0.25", "start = haar")
    with pytest.raises(ValidationError):
        parse_config(bad)


def test_unknown_keys_rejected():
    with pytest.raises(ValidationError):
        parse_config(BASE_CFG + "\nwat = 7\n")


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("# leading comment\n" +
                       BASE_CFG.replace("[run]", "# note\n\n[run]"))
    assert cfg.mode == "average"


# ---------------------------------------------------------------------------
# Runner behavior (library level)


def test_average_csv_shape(tmp_path):
    cfg = parse_config(BASE_CFG)
    summary = run_experiment(cfg, tmp_path)
    rows = (tmp_path / "sq.csv").read_text().strip().splitlines()
    assert rows[0] == "scheme,N,value_re,value_im,oscillation"
    assert len(rows) == 4      # header + one row per checkpoint
    assert summary["checkpoints"] == 3


def test_csv_matches_direct_library_call(tmp_path):
    # the CLI layer is a thin adapter: values equal the library's output
    cfg = parse_config(BASE_CFG)
    run_experiment(cfg, tmp_path)
    rows = (tmp_path / "sq.csv").read_text().strip().splitlines()[1:]
    fs = [Observable.character(1), Observable.character(-1)]
    traj = square_trajectory(cfg.system, fs, np.array([0.25]),
                             (1000, 10000, 100000))
    for row, (n, v) in zip(rows, traj.checkpoints):
        _, ncol, re, im, _ = row.split(",")
        assert int(ncol) == n
        assert float(re) == v.real and float(im) == v.imag


@pytest.mark.parametrize("checkpoints,tail_fraction", [
    ("1000", "0.5"), ("1000 2000", "0.5"), ("1000 2000", "0.25")])
def test_average_csv_oscillation_column(tmp_path, checkpoints, tail_fraction):
    # row i holds the max pairwise distance of the values at N >= (1 - tail)
    # * N_i among the first i + 1 checkpoints, and 0 below two such values
    text = BASE_CFG.replace("checkpoints = 1000 10000 100000",
                            f"checkpoints = {checkpoints}\n"
                            f"tail_fraction = {tail_fraction}")
    cfg = parse_config(text)
    run_experiment(cfg, tmp_path)
    fs = [Observable.character(1), Observable.character(-1)]
    ns = cfg.checkpoints
    vals = [v for _, v in square_trajectory(cfg.system, fs, np.array([0.25]),
                                            ns).checkpoints]
    osc = [0.0] * len(vals)
    if len(vals) == 2 and tail_fraction == "0.5":
        osc[1] = abs(vals[0] - vals[1])
        assert osc[1] > 0.0
    expect = ["scheme,N,value_re,value_im,oscillation"] + [
        f"square,{n},{v.real:.17g},{v.imag:.17g},{o:.17g}"
        for n, v, o in zip(ns, vals, osc)]
    assert (tmp_path / "sq.csv").read_text() == "\n".join(expect) + "\n"


def test_seminorm_json_fields(tmp_path):
    text = """[system]
kind = automorphism
matrix = 2 1 1 1
[observables]
f1 = 1,0:1,0
[run]
mode = seminorm
order = 2
outer_h = 30
start = 0.5 0.5
"""
    cfg = parse_config(text)
    run_experiment(cfg, tmp_path)
    payload = json.loads((tmp_path / "seminorms.json").read_text())
    assert payload[0]["exact"] is True
    assert payload[0]["value"] == hk_seminorm(
        cat_map(), Observable.character((1, 0)), 2, 30).value
    assert set(payload[0]) == {"order", "value", "H", "N", "exact", "system",
                               "observable"}


def test_identical_runs_are_byte_identical(tmp_path):
    text = """[system]
kind = rotation
alpha = 0.61803398874989479
[run]
mode = joining
d = 2
sample_count = 40
checkpoints = 60
seed = 11
freq_box = 1
"""
    cfg = parse_config(text)
    run_experiment(cfg, tmp_path / "a")
    run_experiment(cfg, tmp_path / "b")
    assert (tmp_path / "a/joining.json").read_bytes() == \
        (tmp_path / "b/joining.json").read_bytes()


def test_orbit_mode(tmp_path):
    text = """[system]
kind = heisenberg
alpha = 0.41421356237309515
beta = 0.73205080756887719
[run]
mode = orbit
checkpoints = 25
start = 0 0 0
"""
    run_experiment(parse_config(text), tmp_path)
    rows = (tmp_path / "orbit.csv").read_text().strip().splitlines()
    assert rows[0] == "n,x1,x2,x3"
    assert len(rows) == 26


# ---------------------------------------------------------------------------
# CLI process behavior


def test_cli_runs_and_exits_zero(tmp_path):
    cfg = tmp_path / "avg.cfg"
    cfg.write_text(BASE_CFG)
    proc = run_cli("average", "--config", str(cfg), "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "sq.csv").exists()


def test_cli_validation_exit_code(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(BASE_CFG.replace("start = 0.25", "start = haar"))
    proc = run_cli("average", "--config", str(cfg), "--out", str(tmp_path))
    assert proc.returncode == 2
    assert "seed" in proc.stderr


def test_cli_rejects_tol_keys(tmp_path):
    # tol_* keys are unknown run keys like any other: exit 2, nothing written
    cfg = tmp_path / "tol.cfg"
    cfg.write_text(BASE_CFG + "tol_oracle = 1e-09\n")
    proc = run_cli("average", "--config", str(cfg), "--out", str(tmp_path))
    assert proc.returncode == 2
    assert "tol_oracle" in proc.stderr
    assert [f.name for f in tmp_path.iterdir()] == ["tol.cfg"]


def test_cli_resource_cap_exit_code(tmp_path):
    text = """[system]
kind = rotation
alpha = 0.61803398874989479
[observables]
f1 = 1,0:1
f2 = 1,0:1
f3 = 1,0:1
f4 = 1,0:1
f5 = 1,0:1
f6 = 1,0:1
f7 = 1,0:1
f8 = 1,0:1
f9 = 1,0:1
f10 = 1,0:1
f11 = 1,0:1
f12 = 1,0:1
f13 = 1,0:1
f14 = 1,0:1
f15 = 1,0:1
f16 = 1,0:1
f17 = 1,0:1
f18 = 1,0:1
f19 = 1,0:1
f20 = 1,0:1
f21 = 1,0:1
f22 = 1,0:1
f23 = 1,0:1
f24 = 1,0:1
f25 = 1,0:1
f26 = 1,0:1
f27 = 1,0:1
f28 = 1,0:1
f29 = 1,0:1
f30 = 1,0:1
f31 = 1,0:1
[run]
mode = average
scheme = cube
order = 5
checkpoints = 4
start = 0.25
"""
    cfg = tmp_path / "cube5.cfg"
    cfg.write_text(text)
    proc = run_cli("average", "--config", str(cfg), "--out", str(tmp_path))
    assert proc.returncode == 3
    assert "cube order" in proc.stderr or "cap" in proc.stderr


def test_cli_seed_override(tmp_path):
    text = """[system]
kind = rotation
alpha = 0.61803398874989479
[observables]
f1 = 1,0:1
[run]
mode = average
scheme = birkhoff
checkpoints = 50 200
start = haar
seed = 3
out_csv = b.csv
"""
    cfg = tmp_path / "b.cfg"
    cfg.write_text(text)
    p1 = run_cli("average", "--config", str(cfg), "--out", str(tmp_path / "1"))
    p2 = run_cli("average", "--config", str(cfg), "--out", str(tmp_path / "2"),
                 "--seed", "4")
    assert p1.returncode == 0 and p2.returncode == 0
    assert (tmp_path / "1/b.csv").read_text() != \
        (tmp_path / "2/b.csv").read_text()


def test_cli_batch_threads(tmp_path):
    texts = []
    for i, k in enumerate((1, 2)):
        t = f"""[system]
kind = rotation
alpha = 0.61803398874989479
[observables]
f1 = 1,0:{k}
[run]
mode = average
scheme = birkhoff
checkpoints = 100
start = 0.25
out_csv = out{i}.csv
"""
        p = tmp_path / f"c{i}.cfg"
        p.write_text(t)
        texts.append(str(p))
    proc = run_cli("average", "--config", texts[0], "--config", texts[1],
                   "--out", str(tmp_path), "--threads", "2")
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out0.csv").exists() and (tmp_path / "out1.csv").exists()


CERTIFY_CFG = """[system]
{system}
[run]
mode = certify
search_bound = {bound}
out_json = cert.json
"""


def _certify(system, bound="5"):
    return CERTIFY_CFG.format(system=system, bound=bound)


# (subcommand, config text, key that holds the malformed number)
MALFORMED_NUMBERS = [
    ("average", BASE_CFG.replace("alpha = 0.61803398874989479", "alpha = abc"),
     "alpha"),
    ("certify", _certify("kind = automorphism\nmatrix = 2 1 x 1"), "matrix"),
    ("certify", _certify("kind = skew\nbase_alpha = 0.5\ncocycle_linear = 1\n"
                         "cocycle_const = zz"), "cocycle_const"),
    ("certify", _certify("kind = rotation\nalpha = 0.5", bound="five"),
     "search_bound"),
    ("average", BASE_CFG.replace("checkpoints = 1000 10000 100000",
                                 "checkpoints = 10 x"), "checkpoints"),
    ("average", BASE_CFG.replace("start = 0.25", "start = 0.1 zz"), "start"),
    ("average", BASE_CFG + "tail_fraction = abc\n", "tail_fraction"),
]


@pytest.mark.parametrize("command,text,key", MALFORMED_NUMBERS,
                         ids=[case[2] for case in MALFORMED_NUMBERS])
def test_cli_malformed_number_names_key(tmp_path, command, text, key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    proc = run_cli(command, "--config", str(cfg), "--out", str(tmp_path))
    assert proc.returncode == 2, proc.stderr
    assert key in proc.stderr and "Traceback" not in proc.stderr
    assert [f.name for f in tmp_path.iterdir()] == ["bad.cfg"]


def test_cli_rejects_nonfinite_system_parameter(tmp_path):
    # 1e400 parses to inf; a NaN alpha used to certify as ergodic
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(_certify("kind = rotation\nalpha = nan 1e400"))
    proc = run_cli("certify", "--config", str(cfg), "--out", str(tmp_path))
    assert proc.returncode == 2, proc.stderr
    assert "non-finite" in proc.stderr
    assert [f.name for f in tmp_path.iterdir()] == ["bad.cfg"]


def test_cli_wrong_mode_for_subcommand(tmp_path):
    cfg = tmp_path / "avg.cfg"
    cfg.write_text(BASE_CFG)
    proc = run_cli("seminorm", "--config", str(cfg))
    assert proc.returncode == 2


def test_cli_suite_command():
    proc = run_cli("suite", "folner")
    assert proc.returncode == 0, proc.stderr
    assert "criterion 9" in proc.stdout
    assert "PASS" in proc.stdout and "FAIL" not in proc.stdout


def test_cli_batch_rejects_shared_artifact(tmp_path):
    paths = []
    for i, k in enumerate((1, 2, 3, 4)):
        p = tmp_path / f"c{i}.cfg"
        p.write_text(f"""[system]
kind = rotation
alpha = 0.61803398874989479
[observables]
f1 = 1,0:{k}
[run]
mode = average
scheme = birkhoff
checkpoints = 100
start = 0.25
""")
        paths += ["--config", str(p)]
    out = tmp_path / "out"
    for threads in ("1", "2"):
        proc = run_cli("average", *paths, "--out", str(out),
                       "--threads", threads)
        assert proc.returncode == 2
        assert "both write" in proc.stderr and "averages.csv" in proc.stderr
        assert proc.stdout == ""
        assert not out.exists()


def test_cli_rejects_one_file_named_two_ways(tmp_path):
    paths = []
    for i, name in enumerate(("x.json", "sub/../x.json")):
        p = tmp_path / f"v{i}.cfg"
        p.write_text(f"""[system]
kind = rotation
alpha = 0.61803398874989479
[run]
mode = vdc
vdc_family = linear
inner_n = 100
outer_h = 5
out_json = {name}
""")
        paths += ["--config", str(p)]
    proc = run_cli("vdc", *paths, "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert "both write" in proc.stderr
    assert not (tmp_path / "out").exists()


def test_cli_rejects_joining_json_and_bin_on_one_file(tmp_path):
    p = tmp_path / "j.cfg"
    p.write_text("""[system]
kind = rotation
alpha = 0.61803398874989479
[run]
mode = joining
d = 2
sample_count = 4
checkpoints = 10
seed = 1
freq_box = 1
out_json = cloud.out
out_bin = cloud.out
""")
    proc = run_cli("joining", "--config", str(p), "--out", str(tmp_path / "o"))
    assert proc.returncode == 2
    assert "both write" in proc.stderr
    assert not (tmp_path / "o").exists()


def test_joining_barycenter_is_of_the_written_cloud(tmp_path):
    text = """[system]
kind = rotation
alpha = 0.61803398874989479
[observables]
f1 = 1,0:-2
f2 = 0.5,0.25:1
[run]
mode = joining
d = 2
sample_count = 30
checkpoints = 80
seed = 19
freq_box = 1
"""
    cfg = parse_config(text)
    run_experiment(cfg, tmp_path)
    bary = json.loads((tmp_path / "joining.json").read_text())["barycenter"]
    cloud = empirical_self_joining(cfg.system, 2, 30, 80, SplitMix64(19))
    acc = MeanAccumulator()
    for v in fiber_integrals(cloud, list(cfg.observables)):
        acc.add_scalar(v)
    expect = acc.mean()
    assert (bary["re"], bary["im"]) == (expect.real, expect.imag)
    assert bary["exact_match"] is True
