import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ergolab
from ergolab import cli, config, runner
from ergolab.averaging import GRID_CAP, square_trajectory
from ergolab.config import MODES, format_config, parse_config
from ergolab.errors import ValidationError
from ergolab.joinings import _cloud_means, empirical_self_joining
from ergolab.observables import Observable
from ergolab.phases import CHUNK
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


def test_other_checkpoints_leave_a_row_s_bytes(tmp_path):
    # the N = 100,000 row reads the same bytes, value and oscillation, with
    # or without the checkpoints before it
    rows = []
    for cps in ("1000 10000 100000", "100000"):
        cfg = tmp_path / f"{len(cps)}.cfg"
        cfg.write_text(BASE_CFG.replace("1000 10000 100000", cps))
        out = tmp_path / f"out{len(cps)}"
        assert cli.main(["average", "--config", str(cfg), "--out",
                         str(out)]) == 0
        rows.append((out / "sq.csv").read_bytes().splitlines()[-1])
    assert rows[0] == rows[1] and rows[0].startswith(b"square,100000,")


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


ORBIT_KINDS = [
    ("kind = rotation\nalpha = 0.61803398874989479 0.41421356237309515",
     "0.25 0"),
    ("kind = heisenberg\nalpha = 0.41421356237309515\n"
     "beta = 0.73205080756887719", "0 0.5 0.125"),
    ("kind = automorphism\nmatrix = 2 1 1 1", "0.3 0.7"),
]
# 26217 / 2**18 * 10**17 is a half-integer with an even floor: half to even
# and half up round it apart
ORBIT_SPECIAL = [0.0, -0.0, 5e-324, 1e-5, math.nextafter(1e-4, 0.0), 1e-4,
                 1.0 - 2.0 ** -53, 26217 / 2.0 ** 18] + [
    v for k in (1, 2, 3, 4) for t in (10.0 ** -k,)
    for v in (math.nextafter(t, 0.0), t, math.nextafter(t, 1.0))]
# one, two and three CHUNK batches of rows
ORBIT_ROWS = (300, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 5)


def _csv_of(pts):
    """runner._orbit_csv's bytes for the rows of pts."""
    return b"".join(runner._orbit_csv(*pts.shape,
                                      lambda lo, m: pts[lo:lo + m]))


def _csv_by_value(pts):
    """The orbit CSV with f"{v:.17g}" applied to each value."""
    want = ["n," + ",".join(f"x{i + 1}" for i in range(pts.shape[1]))]
    want += [str(i) + "," + ",".join(f"{v:.17g}" for v in row)
             for i, row in enumerate(pts.tolist())]
    return ("\n".join(want) + "\n").encode()


@pytest.mark.parametrize("system,start", ORBIT_KINDS)
def test_orbit_csv_bytes_match_per_value_formatting(tmp_path, monkeypatch,
                                                    system, start):
    """The orbit CSV writer gives the bytes of formatting each value with
    f"{v:.17g}", on the orbit and on special values planted in whole rows
    and in every batch, at one to three batches of rows."""
    orbit = runner.orbit_points

    def special(system, x, stride, n0, count, **kwargs):
        # the same rows of the whole orbit, whichever batch asks for them
        pts = orbit(system, x, stride, n0, count, **kwargs).copy()
        step = (rows - len(ORBIT_SPECIAL)) // len(ORBIT_SPECIAL)
        for i, v in enumerate(ORBIT_SPECIAL):
            for row, col in ((i, slice(None)),
                             (len(ORBIT_SPECIAL) + i * step,
                              i % pts.shape[1])):
                if n0 <= row < n0 + count:
                    pts[row - n0, col] = v
        return pts

    for rows in ORBIT_ROWS:
        cfg = parse_config(f"[system]\n{system}\n[run]\nmode = orbit\n"
                           f"checkpoints = {rows}\nstart = {start}\n")
        for name, fn in (("orbit", orbit), ("special", special)):
            monkeypatch.setattr(runner, "orbit_points", fn)
            run_experiment(cfg, tmp_path / f"{name}{rows}")
            pts = fn(cfg.system, np.asarray(cfg.start), 1, 0, rows,
                     coords="state")
            assert (tmp_path / f"{name}{rows}" / "orbit.csv").read_bytes() \
                == _csv_by_value(pts)


def test_orbit_csv_row_indices_across_widths():
    """Row indices keep their digits across 9 -> 10, 9999 -> 10000 and
    99999 -> 100000 and across batches, with values that fall back to
    per-value formatting next to the width changes."""
    pts = np.random.default_rng(3).random((100_001, 1))
    pts[[9, 10, 9999, 10000, 99_999, 100_000], 0] = \
        [-0.0, 1e-5, 2.5, 0.0, float("nan"), -1e300]
    for rows in (10, 11, 10_000, 10_001, 100_000, 100_001):
        assert _csv_of(pts[:rows]) == _csv_by_value(pts[:rows])


def _float_of_bits(bits):
    return float(np.uint64(bits).view(np.float64))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(
    # uniform bit patterns below 1.0: every binade of [0, 1), subnormals too
    st.integers(0, 0x3FEFFFFFFFFFFFFF).map(_float_of_bits),
    # odd / 2**18 in [0.1, 1): x * 10**17 is an exact half-integer
    st.integers(13107, 131071).map(lambda k: (2 * k + 1) / 2.0 ** 18)),
    min_size=1, max_size=40))
def test_orbit_csv_formatter_matches_fstring(values):
    pts = np.array(values).reshape(-1, 1)
    assert _csv_of(pts) == _csv_by_value(pts)


def _heisenberg_orbit_peak(rows, outdir):
    cfg = parse_config(
        "[system]\nkind = heisenberg\nalpha = 0.41421356237309515\n"
        "beta = 0.73205080756887719\n[run]\nmode = orbit\n"
        f"checkpoints = {rows}\nstart = 0 0.5 0.125\n")
    tracemalloc.start()
    try:
        run_experiment(cfg, outdir)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_orbit_run_memory_is_bounded_by_its_batches(tmp_path):
    """A 2**18-row Heisenberg orbit run peaks below twice its CSV's size:
    the rows are written one batch at a time, not held as strings."""
    peak = _heisenberg_orbit_peak(2 ** 18, tmp_path)
    assert peak < 2 * (tmp_path / "orbit.csv").stat().st_size


def test_orbit_run_peak_does_not_grow_with_its_rows(tmp_path):
    """Each batch's rows are generated when the batch is written, so four
    times the rows (2**16 -> 2**18, 1.5 -> 6.3 MB of orbit) add less than
    1 MB to the peak; holding the whole orbit first added 4.5 MB."""
    small = _heisenberg_orbit_peak(2 ** 16, tmp_path / "small")
    large = _heisenberg_orbit_peak(2 ** 18, tmp_path / "large")
    assert large - small < 2 ** 20


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


@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
def test_cli_unreadable_config_is_validation_error(tmp_path, capsys, kind):
    cfg = tmp_path / "bad.cfg"
    if kind == "directory":
        cfg.mkdir()
    elif kind == "not-utf8":
        cfg.write_bytes(BASE_CFG.encode() + b"# \xff\xfe\n")
    out = tmp_path / "out"
    assert cli.main(["average", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and str(cfg) in err
    assert not out.exists()


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


def test_cli_unknown_suite_exits_2():
    proc = run_cli("suite", "no-such-suite")
    assert proc.returncode == 2
    assert "invalid choice: 'no-such-suite'" in proc.stderr


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
    fibers = _cloud_means(cloud, [list(cfg.observables)])[0].tolist()
    expect = complex(math.fsum(v.real for v in fibers) / len(fibers),
                     math.fsum(v.imag for v in fibers) / len(fibers))
    assert (bary["re"], bary["im"]) == (expect.real, expect.imag)
    assert bary["exact_match"] is True


# ---------------------------------------------------------------------------
# The run-key table: ranges, requirements, round trips, docs

JOINING_CFG = """[system]
kind = rotation
alpha = {alpha}
[run]
mode = joining
d = 2
sample_count = 50
checkpoints = 100
seed = 3
freq_box = {freq_box}
"""

ORBIT_CFG = """[system]
kind = rotation
alpha = 0.61803398874989479
[run]
mode = orbit
checkpoints = {checkpoints}
start = haar
seed = {seed}
"""

VDC_CFG = """[system]
kind = rotation
alpha = 0.61803398874989479
[run]
mode = vdc
vdc_family = {family}
inner_n = {inner_n}
outer_h = {outer_h}
"""

FOLNER_CFG = """[system]
kind = rotation
alpha = 0.61803398874989479
[observables]
f1 = 1,0:1
[run]
mode = average
scheme = folner
box = {box}
powers = {powers}
checkpoints = 1
start = 0.25
"""

CUBE_CFG = """[system]
kind = rotation
alpha = 0.61803398874989479
[observables]
f1 = 1,0:1
f2 = 1,0:-2
{f3}
[run]
mode = average
scheme = cube
{order}
checkpoints = 10 40
start = 0.25
"""


def _joining(alpha="0.61803398874989479", freq_box="1", extra=""):
    return JOINING_CFG.format(alpha=alpha, freq_box=freq_box) + extra


def _orbit(checkpoints="5", seed="1"):
    return ORBIT_CFG.format(checkpoints=checkpoints, seed=seed)


def _vdc(family="linear", inner_n="100", outer_h="5"):
    return VDC_CFG.format(family=family, inner_n=inner_n, outer_h=outer_h)


def _seminorm(order):
    return f"""[system]
kind = automorphism
matrix = 2 1 1 1
[observables]
f1 = 1,0:1,0
[run]
mode = seminorm
order = {order}
outer_h = 30
start = 0.5 0.5
"""


HAAR_AVG = BASE_CFG.replace("start = 0.25", "start = haar\nseed = 3")

# (id, subcommand, config text, key named on stderr, extra CLI arguments)
REJECTED_INPUTS = [
    ("freq_box=0", "joining", _joining(freq_box="0"), "freq_box", ()),
    ("freq_box=-1", "joining", _joining(freq_box="-1"), "freq_box", ()),
    ("freq_box=100", "joining", _joining(freq_box="100"), "freq_box", ()),
    ("tail_fraction=nan", "average", BASE_CFG + "tail_fraction = nan\n",
     "tail_fraction", ()),
    ("tail_fraction=0", "average", BASE_CFG + "tail_fraction = 0\n",
     "tail_fraction", ()),
    ("tail_fraction=7", "average", BASE_CFG + "tail_fraction = 7\n",
     "tail_fraction", ()),
    ("checkpoints=0", "orbit", _orbit(checkpoints="0"), "checkpoints", ()),
    ("checkpoints=-3", "orbit", _orbit(checkpoints="-3"), "checkpoints", ()),
    ("seed=2^64+1", "orbit", _orbit(seed=str(2 ** 64 + 1)), "seed", ()),
    ("seed=-1", "orbit", _orbit(seed="-1"), "seed", ()),
    ("--seed -1", "average", HAAR_AVG, "seed", ("--seed", "-1")),
    ("--seed 2^64", "average", HAAR_AVG, "seed", ("--seed", str(2 ** 64))),
    ("mode", "average", BASE_CFG.replace("mode = average", "mode = sideways"),
     "mode", ()),
    ("scheme", "average",
     BASE_CFG.replace("scheme = square", "scheme = spiral"), "scheme", ()),
    ("order=0", "seminorm", _seminorm("0"), "order", ()),
    ("cube observables", "average", CUBE_CFG.format(f3="", order="order = 2"),
     "order", ()),
    ("cube without order", "average",
     CUBE_CFG.format(f3="f3 = 1,0:1", order=""), "order", ()),
    ("outer_h=0", "vdc", _vdc(outer_h="0"), "outer_h", ()),
    ("inner_n=0", "vdc", _vdc(inner_n="0"), "inner_n", ()),
    ("vdc_family", "vdc", _vdc(family="cubic"), "vdc_family", ()),
    ("sample_count=0", "joining",
     _joining().replace("sample_count = 50", "sample_count = 0"),
     "sample_count", ()),
    ("d=0", "joining", _joining().replace("d = 2", "d = 0"), "d", ()),
    ("search_bound=0", "certify",
     _certify("kind = rotation\nalpha = 0.5", "0"), "search_bound", ()),
    ("box=5", "average", FOLNER_CFG.format(box="5", powers="1 2"), "box", ()),
    ("box=0 5", "average", FOLNER_CFG.format(box="0 5", powers="1 2"), "box",
     ()),
    ("powers", "average", FOLNER_CFG.format(box="5 5", powers="1 2 3"),
     "powers", ()),
    # parse-level defects: empty number lists and repeated keys
    ("alpha=", "certify", _certify("kind = rotation\nalpha ="), "alpha", ()),
    ("base_alpha=", "certify",
     _certify("kind = skew\nbase_alpha =\ncocycle_linear = 1"), "base_alpha",
     ()),
    ("scheme twice", "average", BASE_CFG + "scheme = birkhoff\n", "scheme",
     ()),
    ("alpha twice", "certify",
     _certify("kind = rotation\nalpha = 0.5\nalpha = 0.25"), "alpha", ()),
    # keys and sections the parser does not read
    ("[system] beta for rotation", "certify",
     _certify("kind = rotation\nalpha = 0.5\nbeta = 3"), "beta", ()),
    ("[system] misspelt cocycle_const", "certify",
     _certify("kind = skew\nbase_alpha = 0.5\ncocycle_linear = 1\n"
              "cocycle_cnst = 0.25"), "cocycle_cnst", ()),
    ("[observables] key g2", "average",
     BASE_CFG.replace("f2 = ", "g2 = "), "g2", ()),
    ("[observables] key f02", "average",
     BASE_CFG.replace("f2 = ", "f02 = "), "f02", ()),
    ("[observable] section", "joining",
     _joining().replace("[run]", "[observable]\nf1 = 1,0:1\n[run]"),
     "observable]", ()),
]


REJECTED_IDS = [r[0] for r in REJECTED_INPUTS]
REJECTED_CASES = [r[1:] for r in REJECTED_INPUTS]
# rows for options only the CLI reads
CLI_REJECTED_INPUTS = [
    ("--threads -3", "average", BASE_CFG, "--threads", ("--threads", "-3")),
]


@pytest.mark.parametrize(
    "command,text,key,extra",
    REJECTED_CASES + [r[1:] for r in CLI_REJECTED_INPUTS],
    ids=REJECTED_IDS + [r[0] for r in CLI_REJECTED_INPUTS])
def test_cli_rejects_out_of_range_input(tmp_path, capsys, command, text, key,
                                         extra):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(cfg), "--out", str(out),
                     *extra]) == 2
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command,text,key,extra", REJECTED_CASES,
                         ids=REJECTED_IDS)
def test_validate_rejects_out_of_range(command, text, key, extra):
    # the library entry points reject what the CLI rejects, before any run
    with pytest.raises(ValidationError, match=key):
        cfg = parse_config(text)
        if extra:
            dataclasses.replace(cfg, seed=int(extra[1])).validate()


ROUNDTRIP_CASES = {
    "cube": CUBE_CFG.format(f3="f3 = 0.5,0:1", order="order = 2"),
    "folner": FOLNER_CFG.format(box="30 40", powers="1 3"),
    "joining": _joining(freq_box="2", extra="out_bin = cloud.bin\n"),
    "orbit seed 0": _orbit(seed="0"),
    "orbit seed 2^64-1": _orbit(seed=str(2 ** 64 - 1)),
    "tail_fraction": BASE_CFG + "tail_fraction = 1\n",
}


@pytest.mark.parametrize("text", ROUNDTRIP_CASES.values(),
                         ids=ROUNDTRIP_CASES.keys())
def test_roundtrip_run_keys(text):
    cfg = parse_config(text)
    formatted = format_config(cfg)
    assert parse_config(formatted) == cfg
    # a key holding its default is omitted
    for key, default in (("start", "haar"), ("freq_box", 3),
                         ("tail_fraction", 0.5), ("powers", (1, 2))):
        assert (f"\n{key} = " in formatted) == (getattr(cfg, key) != default)


@pytest.mark.parametrize("seed", ["0", str(2 ** 64 - 1)])
def test_cli_seed_bounds_accepted(tmp_path, seed):
    cfg = tmp_path / "o.cfg"
    cfg.write_text(_orbit())
    assert cli.main(["orbit", "--config", str(cfg), "--out", str(tmp_path),
                     "--seed", seed]) == 0
    assert len((tmp_path / "orbit.csv").read_text().splitlines()) == 6


HEIS_ORBIT = ORBIT_CFG.replace(
    "kind = rotation\nalpha = 0.61803398874989479",
    "kind = heisenberg\nalpha = 0.41421356237309515\n"
    "beta = 0.73205080756887719")
# (command, config, exit code): orbits and vdc sequences are held whole, so
# one value over GRID_CAP (orbit rows x coordinates, inner_n + outer_h
# terms) exits 3 before anything is allocated; 10**13 once failed in numpy
VALUE_CAP_CASES = {
    "orbit small": ("orbit", _orbit(checkpoints="5"), 0),
    "orbit over cap": ("orbit", _orbit(checkpoints=str(GRID_CAP + 1)), 3),
    "heisenberg orbit over cap": (
        "orbit", HEIS_ORBIT.format(checkpoints=GRID_CAP // 3 + 1, seed=1), 3),
    "orbit 10**13": ("orbit", _orbit(checkpoints=str(10 ** 13)), 3),
    "vdc small": ("vdc", _vdc(family="quadratic"), 0),
    "vdc over cap": ("vdc", _vdc(family="quadratic",
                                 inner_n=str(GRID_CAP - 4)), 3),
    "vdc 10**13": ("vdc", _vdc(family="quadratic", inner_n=str(10 ** 13)), 3),
}


@pytest.mark.parametrize("command,text,code", VALUE_CAP_CASES.values(),
                         ids=VALUE_CAP_CASES.keys())
def test_cli_orbit_and_vdc_value_cap(tmp_path, capsys, command, text, code):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code:
        assert "GRID_CAP" in err and "Traceback" not in err
        assert not out.exists()
    else:
        assert len(list(out.iterdir())) == 1


def test_one_mode_list():
    # the runner's writers and the CLI's subcommands follow config.MODES
    assert tuple(runner._MODES) == MODES
    parser = cli._build_parser()
    for mode in MODES:
        assert parser.parse_args([mode, "--config", "c"]).command == mode


def test_cli_main_twice_in_one_process(tmp_path):
    # main builds its parser once per process; a certify run and then an
    # orbit run through it exit 0 and write what separate processes write
    cfgs = {"certify": (_certify("kind = automorphism\nmatrix = 2 1 1 1"),
                        "cert.json"),
            "orbit": (_orbit(checkpoints="5 40", seed="3"), "orbit.csv")}
    for mode, (text, _) in cfgs.items():
        (tmp_path / f"{mode}.cfg").write_text(text)
        (tmp_path / "one" / mode).mkdir(parents=True)
        (tmp_path / "own" / mode).mkdir(parents=True)
    for mode in cfgs:
        assert cli.main([mode, "--config", str(tmp_path / f"{mode}.cfg"),
                         "--out", str(tmp_path / "one" / mode)]) == 0
    for mode, (_, name) in cfgs.items():
        proc = run_cli(mode, "--config", str(tmp_path / f"{mode}.cfg"),
                       "--out", str(tmp_path / "own" / mode))
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "one" / mode / name).read_bytes() == \
            (tmp_path / "own" / mode / name).read_bytes()
    assert cli._build_parser() is cli._build_parser()


def _doc_line(key, row):
    default = config._DEFAULTS[key]
    line = key
    if default not in (None, (), dataclasses.MISSING):
        shown = " ".join(map(str, default)) if isinstance(default, tuple) \
            else str(default)
        line += f" = {shown}"
    line += f": {row.rule}"
    if row.required_for:
        line += "; required for " + ", ".join(row.required_for)
    return line


def test_docs_list_every_run_key():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    for doc in (config.__doc__, readme.read_text()):
        flat = " ".join(doc.split())
        for key, row in config._RUN_KEYS.items():
            assert _doc_line(key, row) in flat, key


def _joining_rows(out, alpha):
    out.mkdir()
    cfg = out / "j.cfg"
    cfg.write_text(_joining(alpha=alpha, freq_box="2"))
    assert cli.main(["joining", "--config", str(cfg), "--out", str(out)]) == 0
    return json.loads((out / "joining.json").read_text())["tensor_integrals"]


def test_joining_oracle_only_for_certified_rotations(tmp_path):
    # alpha = 1/2: k = (2, -2) has M = -2 and M alpha is an integer, so its
    # integral is 1, not the subtorus oracle's 0; no oracle may be written
    rows = _joining_rows(tmp_path / "half", "0.5")
    (row,) = [r for r in rows if r["k"] == [2, -2]]
    assert abs(row["value_re"] - 1.0) < 1e-12
    assert not any("oracle" in r or "abs_error" in r for r in rows)
    rows = _joining_rows(tmp_path / "golden", "0.61803398874989479")
    assert all(r["abs_error"] < 0.5 for r in rows)


def test_observables_ordered_by_index():
    # f1..f15 written out of order: the integer i of f<i> orders them, so f2
    # comes before f10, and format -> parse gives the config back
    order = [10, 2, 15, 1, 11, 3, 9, 4, 14, 5, 12, 6, 13, 7, 8]
    text = ("[system]\nkind = rotation\nalpha = 0.61803398874989479\n"
            "[observables]\n"
            + "".join(f"f{i} = 1:{i}\n" for i in order)
            + "[run]\nmode = average\nscheme = cube\norder = 4\n"
              "checkpoints = 10\nstart = 0.25\n")
    cfg = parse_config(text)
    assert [f.terms[0][0] for f in cfg.observables] == \
        [(i,) for i in range(1, 16)]
    assert parse_config(format_config(cfg)) == cfg


def test_suite_runtime_budget_fails_the_criterion(monkeypatch):
    # run_criterion appends the runtime row from the CRITERIA budget, so a
    # criterion past its budget fails the suite however its checks went
    from ergolab import suites
    passing = suites.CheckResult("a check", True, 1.0)
    monkeypatch.setitem(suites.CRITERIA, 99, ("slow", lambda: [passing], -1.0))
    monkeypatch.setitem(suites.SUITES, "slow", (99,))
    title, rows = suites.run_criterion(99)
    assert title == "slow" and rows[0] is passing
    assert rows[-1].name == "slow runtime" and not rows[-1].passed
    lines = []
    assert suites.run_suite("slow", lines.append) is False
    assert lines[0] == "== criterion 99: slow FAIL"
    budgets = {cid: row[2] for cid, row in suites.CRITERIA.items()}
    assert budgets == {1: 120.0, 2: 60.0, 3: 120.0, 4: 10.0, 5: 60.0,
                       6: 30.0, 7: 180.0, 8: 120.0, 9: 60.0, 99: -1.0}
