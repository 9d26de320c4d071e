"""Execute an ExperimentConfig and write its artifacts.

The CLI subcommands are thin wrappers over `run_experiment`; every numerical
decision lives in the library modules.  Output files are written with fixed
float formatting (17 significant digits) and sorted JSON keys, so re-running
an identical config reproduces identical bytes.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .averaging import (GRID_CAP, AverageTrajectory, FolnerBox, IteratedMap,
                        cube_average, cube_eps_index, folner_average,
                        linear_trajectory, square_trajectory, tail_oscillation)
from .config import ExperimentConfig
from .errors import ResourceCapError, ValidationError
from .joinings import (ap_subtorus_integral, character_box, decompose_cloud,
                       dump_cloud, empirical_self_joining, integrate_tensors)
from .observables import Observable, format_observable
from .rng import SplitMix64
from .seminorms import hk_seminorm, van_der_corput_check, vdc_family
from .systems import (Rotation, ergodicity_certificate, orbit_points,
                      system_to_kv)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _resolve_start(cfg: ExperimentConfig, rng: SplitMix64 | None) -> np.ndarray:
    if cfg.start == "haar":
        return cfg.system.haar_block(rng, 1)[0]
    return cfg.system.check_point(np.asarray(cfg.start, dtype=np.float64))


def _write(path: Path, text: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def _json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def artifact_paths(cfg: ExperimentConfig, outdir: Path) -> list[Path]:
    """The files run_experiment(cfg, outdir) writes, main artifact first."""
    _, field, default = _MODES[cfg.mode]
    names = [getattr(cfg, field) or default]
    if cfg.mode == "joining" and cfg.out_bin:
        names.append(cfg.out_bin)
    return [Path(outdir) / name for name in names]


def run_experiment(cfg: ExperimentConfig, outdir: Path) -> dict:
    """Run one experiment; returns a summary dict with artifact paths.

    The mode's writer returns the main artifact's text and its summary
    entries; extra artifacts (the joining cloud dump) it writes itself."""
    cfg.validate()
    rng = SplitMix64(cfg.seed) if cfg.seed is not None else None
    writer, field, _ = _MODES[cfg.mode]
    path, *extra = artifact_paths(cfg, outdir)
    text, summary = writer(cfg, rng, *extra)
    _write(path, text)
    return {"mode": cfg.mode, field.removeprefix("out_"): str(path), **summary}


def _run_orbit(cfg, rng):
    n = cfg.checkpoints[-1]
    if n * cfg.system.dim > GRID_CAP:     # held whole: guard before allocating
        raise ResourceCapError(f"an orbit of {n} rows exceeds GRID_CAP = "
                               f"{GRID_CAP} values")
    x = _resolve_start(cfg, rng)
    pts = orbit_points(cfg.system, x, 1, 0, n, coords="state")
    row = "%d" + ",%.17g" * pts.shape[1]       # _fmt's digits, one template
    rows = ["n," + ",".join(f"x{i+1}" for i in range(pts.shape[1]))]
    rows += [row % (i, *p) for i, p in enumerate(pts.tolist())]
    return "\n".join(rows) + "\n", {"rows": n}


def _run_average(cfg, rng):
    x = _resolve_start(cfg, rng)
    fs = list(cfg.observables)
    if cfg.scheme in ("birkhoff", "linear"):
        traj = linear_trajectory(cfg.system, fs, x, cfg.checkpoints)
    elif cfg.scheme == "square":
        traj = square_trajectory(cfg.system, fs, x, cfg.checkpoints)
    elif cfg.scheme == "cube":
        eps = cube_eps_index(cfg.order)
        vals = [(n, cube_average(cfg.system, dict(zip(eps, fs)), x, n))
                for n in cfg.checkpoints]
        traj = AverageTrajectory("cube", tuple(vals))
    else:
        maps = (IteratedMap(cfg.system, cfg.powers[0]),
                IteratedMap(cfg.system, cfg.powers[1]))
        box = FolnerBox(*cfg.box)
        vals = [(box.size, folner_average(maps, fs[0], x, box))]
        traj = AverageTrajectory("folner", tuple(vals))
    rows = ["scheme,N,value_re,value_im,oscillation"]
    for i, (n, v) in enumerate(traj.checkpoints):
        osc, _ = tail_oscillation(traj.checkpoints[:i + 1], cfg.tail_fraction)
        rows.append(f"{traj.scheme},{n},{_fmt(v.real)},{_fmt(v.imag)},{_fmt(osc)}")
    return "\n".join(rows) + "\n", {"scheme": traj.scheme,
                                     "checkpoints": len(traj.checkpoints)}


def _run_seminorm(cfg, rng):
    reports = []
    for f in cfg.observables:
        est = hk_seminorm(cfg.system, f, cfg.order, cfg.outer_h,
                          inner_n=cfg.inner_n, rng=rng)
        reports.append({
            "order": est.order,
            "value": est.value,
            "H": est.outer_h,
            "N": est.inner_n,
            "exact": est.exact,
            "system": system_to_kv(cfg.system),
            "observable": format_observable(f),
        })
    return _json_text(reports), {"count": len(reports)}


def _run_vdc(cfg, rng):
    basis = cfg.system.phase_basis()
    if basis is None:
        raise ValidationError("vdc families are built from a rotation number")
    if (terms := cfg.inner_n + cfg.outer_h) > GRID_CAP:
        raise ResourceCapError(f"a vdc sequence of {terms} terms exceeds "
                               f"GRID_CAP = {GRID_CAP} values")
    seq = vdc_family(cfg.vdc_family, cfg.inner_n, cfg.outer_h, basis[0])
    rep = van_der_corput_check(seq, cfg.outer_h)
    payload = {"family": cfg.vdc_family, "lhs": rep.lhs, "rhs": rep.rhs,
               "margin": rep.margin, "N": rep.n_used, "H": rep.outer_h}
    return _json_text(payload), {"margin": rep.margin}


def _has_subtorus_oracle(cfg) -> bool:
    """Whether `ap_subtorus_integral` is the limit of every character in the
    box.  For a rotation by alpha the cloud integrates
    e(sum_j k_j . (x + j n alpha)); over Haar x it vanishes unless
    K = sum_j k_j = 0, and then the mean over n of e(n M . alpha), with
    M = sum_j (j - 1) k_j, tends to 1 if M . alpha is an integer and to 0
    otherwise.  The oracle assumes the latter for every M != 0.  Each
    coordinate of M is at most freq_box * (0 + 1 + ... + (d - 1)) =
    freq_box * d (d - 1) / 2 in absolute value, so an `ergodic` certificate
    at that search bound (at least 1) proves the oracle for the whole box."""
    if not isinstance(cfg.system, Rotation):
        return False
    bound = max(1, cfg.freq_box * cfg.d * (cfg.d - 1) // 2)
    return ergodicity_certificate(cfg.system, bound).verdict == "ergodic"


def _run_joining(cfg, rng, bin_path=None):
    n = cfg.checkpoints[-1]
    cloud = empirical_self_joining(cfg.system, cfg.d, cfg.sample_count, n, rng)
    has_oracle = _has_subtorus_oracle(cfg)
    rows = []
    box = character_box(cfg.d, cfg.freq_box, dim=cfg.system.obs_dim)
    values = integrate_tensors(
        cloud, [[Observable.character(k) for k in ks] for ks in box])
    for ks, v in zip(box, values):
        row = {"k": [list(k) if hasattr(k, "__len__") else k for k in ks],
               "value_re": v.real, "value_im": v.imag}
        if has_oracle:
            o = ap_subtorus_integral(ks)
            row["oracle"] = o.real
            row["abs_error"] = abs(v - o)
        rows.append(row)
    # the first d observables, padded with the last (default e(x_1))
    fs = list(cfg.observables) or [
        Observable.character((1,) + (0,) * (cfg.system.obs_dim - 1))]
    rep = decompose_cloud(cloud, (fs + fs[-1:] * cfg.d)[:cfg.d])
    payload = {
        "d": cfg.d, "starts": cfg.sample_count, "n": n,
        "tensor_integrals": rows,
        "barycenter": {"re": rep.barycenter.real, "im": rep.barycenter.imag,
                       "exact_match": rep.exact_match,
                       "dispersion": rep.dispersion},
    }
    if bin_path is None:
        return _json_text(payload), {}
    bin_path.parent.mkdir(parents=True, exist_ok=True)
    dump_cloud(cloud, bin_path)
    return _json_text(payload), {"bin": str(bin_path)}


def _run_certify(cfg, rng):
    cert = ergodicity_certificate(cfg.system, cfg.search_bound)
    payload = {"system": system_to_kv(cfg.system), "verdict": cert.verdict,
               "witness": cert.witness, "search_bound": cert.search_bound}
    return _json_text(payload), {"verdict": cert.verdict}


# mode -> (writer, config field naming the artifact, default file name)
_MODES = {
    "orbit": (_run_orbit, "out_csv", "orbit.csv"),
    "average": (_run_average, "out_csv", "averages.csv"),
    "seminorm": (_run_seminorm, "out_json", "seminorms.json"),
    "vdc": (_run_vdc, "out_json", "vdc.json"),
    "joining": (_run_joining, "out_json", "joining.json"),
    "certify": (_run_certify, "out_json", "certificate.json"),
}
