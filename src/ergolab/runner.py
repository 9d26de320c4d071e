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

from .averaging import (FolnerBox, IteratedMap, cube_average,
                        cube_eps_index, folner_average, linear_trajectory,
                        square_trajectory, tail_oscillation)
from .config import ExperimentConfig
from .errors import ValidationError
from .joinings import (ap_subtorus_integral, character_box, decompose_cloud,
                       dump_cloud, empirical_self_joining, integrate_tensor)
from .observables import format_observable
from .rng import SplitMix64
from .seminorms import hk_seminorm, van_der_corput_check, vdc_family
from .systems import ergodicity_certificate, orbit_points, system_to_kv


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _resolve_start(cfg: ExperimentConfig, rng: SplitMix64 | None) -> np.ndarray:
    if cfg.start == "haar":
        if rng is None:
            raise ValidationError("haar start needs a seed")
        return cfg.system.haar_block(rng, 1)[0]
    return cfg.system.check_point(np.asarray(cfg.start, dtype=np.float64))


def _write(path: Path, text: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def _json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# mode -> (config field naming the artifact, default file name)
_ARTIFACTS = {
    "orbit": ("out_csv", "orbit.csv"),
    "average": ("out_csv", "averages.csv"),
    "seminorm": ("out_json", "seminorms.json"),
    "vdc": ("out_json", "vdc.json"),
    "joining": ("out_json", "joining.json"),
    "certify": ("out_json", "certificate.json"),
}


def artifact_paths(cfg: ExperimentConfig, outdir: Path) -> list[Path]:
    """The files run_experiment(cfg, outdir) writes, main artifact first."""
    field, default = _ARTIFACTS[cfg.mode]
    paths = [Path(outdir) / (getattr(cfg, field) or default)]
    if cfg.mode == "joining" and cfg.out_bin:
        paths.append(Path(outdir) / cfg.out_bin)
    return paths


def run_experiment(cfg: ExperimentConfig, outdir: Path) -> dict:
    """Run one experiment; returns a summary dict with artifact paths."""
    cfg.validate()
    outdir = Path(outdir)
    rng = SplitMix64(cfg.seed) if cfg.seed is not None else None
    if cfg.mode == "orbit":
        return _run_orbit(cfg, outdir, rng)
    if cfg.mode == "average":
        return _run_average(cfg, outdir, rng)
    if cfg.mode == "seminorm":
        return _run_seminorm(cfg, outdir, rng)
    if cfg.mode == "vdc":
        return _run_vdc(cfg, outdir)
    if cfg.mode == "joining":
        return _run_joining(cfg, outdir, rng)
    if cfg.mode == "certify":
        return _run_certify(cfg, outdir)
    raise ValidationError(f"unknown mode {cfg.mode!r}")


def _run_orbit(cfg, outdir, rng):
    x = _resolve_start(cfg, rng)
    n = cfg.checkpoints[-1]
    pts = orbit_points(cfg.system, x, 1, 0, n, coords="state")
    rows = ["n," + ",".join(f"x{i+1}" for i in range(pts.shape[1]))]
    for i in range(n):
        rows.append(str(i) + "," + ",".join(_fmt(v) for v in pts[i]))
    path = _write(artifact_paths(cfg, outdir)[0], "\n".join(rows) + "\n")
    return {"mode": "orbit", "rows": n, "csv": str(path)}


def _run_average(cfg, outdir, rng):
    x = _resolve_start(cfg, rng)
    fs = list(cfg.observables)
    if cfg.scheme in ("birkhoff", "linear"):
        traj = linear_trajectory(cfg.system, fs, x, cfg.checkpoints)
    elif cfg.scheme == "square":
        traj = square_trajectory(cfg.system, fs, x, cfg.checkpoints)
    elif cfg.scheme == "cube":
        k = cfg.order
        if k is None:
            raise ValidationError("cube scheme needs order (the cube dimension)")
        eps = cube_eps_index(k)
        if len(fs) != len(eps):
            raise ValidationError(
                f"cube of order {k} needs {len(eps)} observables, got {len(fs)}")
        vals = [(n, cube_average(cfg.system, dict(zip(eps, fs)), x, n))
                for n in cfg.checkpoints]
        from .averaging import AverageTrajectory
        traj = AverageTrajectory("cube", tuple(vals))
    elif cfg.scheme == "folner":
        maps = (IteratedMap(cfg.system, cfg.powers[0]),
                IteratedMap(cfg.system, cfg.powers[1]))
        box = FolnerBox(*cfg.box)
        vals = [(box.size, folner_average(maps, fs[0], x, box))]
        from .averaging import AverageTrajectory
        traj = AverageTrajectory("folner", tuple(vals))
    else:
        raise ValidationError(f"unknown scheme {cfg.scheme!r}")
    rows = ["scheme,N,value_re,value_im,oscillation"]
    for i, (n, v) in enumerate(traj.checkpoints):
        osc, _ = tail_oscillation(traj.checkpoints[:i + 1], cfg.tail_fraction)
        rows.append(f"{traj.scheme},{n},{_fmt(v.real)},{_fmt(v.imag)},{_fmt(osc)}")
    path = _write(artifact_paths(cfg, outdir)[0], "\n".join(rows) + "\n")
    return {"mode": "average", "scheme": traj.scheme,
            "checkpoints": len(traj.checkpoints), "csv": str(path)}


def _run_seminorm(cfg, outdir, rng):
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
    path = _write(artifact_paths(cfg, outdir)[0], _json_text(reports))
    return {"mode": "seminorm", "count": len(reports), "json": str(path)}


def _run_vdc(cfg, outdir):
    basis = cfg.system.phase_basis()
    if basis is None:
        raise ValidationError("vdc families are built from a rotation number")
    seq = vdc_family(cfg.vdc_family, cfg.inner_n, cfg.outer_h, basis[0])
    rep = van_der_corput_check(seq, cfg.outer_h)
    payload = {"family": cfg.vdc_family, "lhs": rep.lhs, "rhs": rep.rhs,
               "margin": rep.margin, "N": rep.n_used, "H": rep.outer_h}
    path = _write(artifact_paths(cfg, outdir)[0], _json_text(payload))
    return {"mode": "vdc", "margin": rep.margin, "json": str(path)}


def _run_joining(cfg, outdir, rng):
    from .observables import Observable
    from .systems import Rotation

    n = cfg.checkpoints[-1]
    cloud = empirical_self_joining(cfg.system, cfg.d, cfg.sample_count, n, rng)
    has_oracle = isinstance(cfg.system, Rotation)
    n_tuples = (2 * cfg.freq_box + 1) ** (cfg.system.obs_dim * cfg.d)
    if n_tuples > 20000:
        raise ValidationError(
            f"frequency box of {n_tuples} tensor characters is too large; "
            "reduce freq_box")
    rows = []
    for ks in character_box(cfg.d, cfg.freq_box, dim=cfg.system.obs_dim):
        fs = [Observable.character(k) for k in ks]
        v = integrate_tensor(cloud, fs)
        row = {"k": [list(k) if hasattr(k, "__len__") else k for k in ks],
               "value_re": v.real, "value_im": v.imag}
        if has_oracle:
            o = ap_subtorus_integral(ks)
            row["oracle"] = o.real
            row["abs_error"] = abs(v - o)
        rows.append(row)
    if cfg.observables:
        tensor_fs = list(cfg.observables)[: cfg.d]
        while len(tensor_fs) < cfg.d:
            tensor_fs.append(tensor_fs[-1])
    else:
        tensor_fs = [Observable.character((1,) + (0,) * (cfg.system.obs_dim - 1))
                     ] * cfg.d
    rep = decompose_cloud(cloud, tensor_fs)
    payload = {
        "d": cfg.d, "starts": cfg.sample_count, "n": n,
        "tensor_integrals": rows,
        "barycenter": {"re": rep.barycenter.real, "im": rep.barycenter.imag,
                       "exact_match": rep.exact_match,
                       "dispersion": rep.dispersion},
    }
    json_path, *bin_path = artifact_paths(cfg, outdir)
    path = _write(json_path, _json_text(payload))
    summary = {"mode": "joining", "json": str(path)}
    if bin_path:
        dump_cloud(cloud, bin_path[0])
        summary["bin"] = str(bin_path[0])
    return summary


def _run_certify(cfg, outdir):
    cert = ergodicity_certificate(cfg.system, cfg.search_bound)
    payload = {"system": system_to_kv(cfg.system), "verdict": cert.verdict,
               "witness": cert.witness, "search_bound": cert.search_bound}
    path = _write(artifact_paths(cfg, outdir)[0], _json_text(payload))
    return {"mode": "certify", "verdict": cert.verdict, "json": str(path)}
