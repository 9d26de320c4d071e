"""Execute an ExperimentConfig and write its artifacts.

The CLI subcommands are thin wrappers over `run_experiment`; every numerical
decision lives in the library modules.  Output files are written with fixed
float formatting (17 significant digits) and sorted JSON keys, so re-running
an identical config reproduces identical bytes.

Orbit CSVs hold the bytes of f"{v:.17g}" for every value, but no Python
string is built per value or per row: `_orbit_csv` computes the digits of
up to CHUNK rows at a time in integer and float arrays (exactly, see the
note above `_fill_values`), lays the row indices, values, commas and
newlines out in one NUL-padded buffer per batch, drops the NUL bytes, and
the run streams each batch to the file.  Values outside [1e-4, 1) other
than +0.0 are formatted one at a time.  Each batch's rows are generated
when the batch is written, so an orbit run holds about one batch's orbit
and buffers, whatever its length.
"""

from __future__ import annotations

import functools
import json
import math
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .averaging import (GRID_CAP, AverageTrajectory, FolnerBox, IteratedMap,
                        cube_average, cube_eps_index, folner_average,
                        linear_trajectory, square_trajectory, tail_oscillation)
from .config import ExperimentConfig
from .errors import ResourceCapError, ValidationError
from .joinings import (ap_subtorus_integral, character_box, decompose_cloud,
                       dump_cloud, empirical_self_joining, integrate_tensors)
from .observables import Observable, format_observable
from .phases import CHUNK, chunk_ranges
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


def _write(path: Path, data: str | Iterable[bytes]) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(data, str):
        path.write_text(data)
    else:                                   # the orbit CSV's batches
        with path.open("wb") as fh:
            fh.writelines(data)
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

    The mode's writer returns the main artifact's text (for an orbit, an
    iterator of byte batches) and its summary entries; extra artifacts (the
    joining cloud dump) it writes itself."""
    cfg.validate()
    rng = SplitMix64(cfg.seed) if cfg.seed is not None else None
    writer, field, _ = _MODES[cfg.mode]
    path, *extra = artifact_paths(cfg, outdir)
    text, summary = writer(cfg, rng, *extra)
    _write(path, text)
    return {"mode": cfg.mode, field.removeprefix("out_"): str(path), **summary}


def _run_orbit(cfg, rng):
    n = cfg.checkpoints[-1]
    if n * cfg.system.dim > GRID_CAP:     # a run's cap, as on grid walks
        raise ResourceCapError(f"an orbit of {n} rows exceeds GRID_CAP = "
                               f"{GRID_CAP} values")
    x = _resolve_start(cfg, rng)
    # orbit bits depend only on the index, so each batch is its own block
    rows = functools.partial(orbit_points, cfg.system, x, 1)
    return _orbit_csv(n, cfg.system.dim, rows), {"rows": n}


# %.17g without a string per value.  A double x in [1e-4, 1) prints as "0.",
# -e-1 zeros and the 17 digits of D = round_half_even(x * 10**(16 - e)) less
# their trailing zeros, where 10**e <= x < 10**(e + 1).  e is exact:
# x >= 10**-k iff x >= the least double >= 10**-k (`_DECADES`, k = 4..1).
# 10**p is exact for p <= 22, and Dekker's product splits x * 10**p into
# hi + lo exactly; hi >= 10**16 > 2**53 is an even integer, so hi + rint(lo)
# rounds half to even.  D < 10**17: the doubles closest below 1, 0.1, 0.01
# and 0.001 lie more than half a unit of the 17th digit away
# (x * 10**(16 - e) <= 10**17 - 11).
def _least_double_at_least_tenth_power(k: int) -> float:
    """The least double >= 10**-k, for k >= 0."""
    x = 10.0 ** -k
    num, den = x.as_integer_ratio()
    return x if num * 10 ** k >= den else math.nextafter(x, math.inf)


_DECADES = np.array([_least_double_at_least_tenth_power(k)
                     for k in (4, 3, 2, 1)])
# 10**(21 - s) and its Veltkamp halves, s = the number of decades <= x
_SPLIT = 134217729.0                                   # 2**27 + 1
_SCALE = [0.0] + [float(10 ** (21 - s)) for s in (1, 2, 3, 4)]
_SCALE_HI = [c * _SPLIT - (c * _SPLIT - c) for c in _SCALE]
_SCALE_LO = np.array([c - h for c, h in zip(_SCALE, _SCALE_HI)])
_SCALE, _SCALE_HI = np.array(_SCALE), np.array(_SCALE_HI)


def _words(text: bytes) -> np.ndarray:
    return np.frombuffer(text, np.uint32)


_COMMA_POINT, _COMMA_ZERO, _NEWLINE = _words(b",0.\0,0\0\0\n\0\0\0")
# words per value: "," and the longest %.17g, "-2.2250738585072014e-308"
_FIELD = 7


@functools.cache
def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """uint32 words of four ASCII bytes: "0000".."9999"; and at 10 (s - 1) + d,
    the 4 - s zeros after "0." of a value with s decades <= x, then D's first
    digit d, NUL in front (NUL bytes are dropped on output).  Built on the
    first orbit written, so runs that write none do not hold them."""
    digits4 = _words(b"".join(b"%04d" % i for i in range(10000)))
    head = _words(b"".join(b"\0" * (s - 1) + b"0" * (4 - s) + b"%d" % d
                           for s in (1, 2, 3, 4) for d in range(10)))
    return digits4, head


def _digit_words(d: np.ndarray, out: np.ndarray) -> None:
    """Write the zero-padded ASCII digits of integers d >= 0 into the words
    of out's last axis, four digits each, most significant first."""
    digits4 = _digit_tables()[0]
    for j in range(out.shape[-1] - 1, 0, -1):
        d, r = np.divmod(d, 10000)
        out[..., j] = digits4[r]
    out[..., 0] = digits4[d]


def _fill_values(x: np.ndarray, out: np.ndarray) -> None:
    """Write "," and f"{v:.17g}" of each value of x, NUL-padded, into the
    _FIELD words of out's last axis.  Values outside [1e-4, 1) other than
    +0.0 (-0.0, tiny, negative, >= 1, non-finite) go through the f-string
    one at a time."""
    ok = (x >= _DECADES[0]) & (x < 1.0)
    v = np.where(ok, x, 0.5)
    s = np.searchsorted(_DECADES, v, side="right")
    hi = v * _SCALE[s]                         # Dekker: v * c = hi + lo
    t = v * _SPLIT
    vh = t - (t - v)
    vl = v - vh
    ch, cl = _SCALE_HI[s], _SCALE_LO[s]
    lo = vl * cl - (((hi - vh * ch) - vl * ch) - vh * cl)
    first, rest = np.divmod(hi.astype(np.int64) + np.rint(lo).astype(np.int64),
                            10 ** 16)
    out[..., 0] = _COMMA_POINT
    out[..., 1] = _digit_tables()[1][10 * s + first - 10]
    _digit_words(rest, out[..., 2:6])
    out[..., 6] = 0
    b = out.view(np.uint8)
    i, j = np.nonzero(b[..., 23] == 48)                # trailing zeros -> NUL
    col = 23                                           # (byte 7, D's first
    while i.size:                                      # digit, is not "0")
        b[i, j, col] = 0
        col -= 1
        keep = b[i, j, col] == 48
        i, j = i[keep], j[keep]
    zero = (x == 0.0) & ~np.signbit(x)
    out[zero] = 0
    out[zero, 0] = _COMMA_ZERO
    other = ~(ok | zero)
    texts = [f",{y:.17g}".encode().ljust(4 * _FIELD, b"\0")
             for y in x[other].tolist()]
    b[other] = np.frombuffer(b"".join(texts), np.uint8).reshape(-1, 4 * _FIELD)


def _orbit_csv(n: int, dim: int, rows) -> Iterator[bytes]:
    """The CSV of n rows of dim values: the header `n,x1,..`, then per row
    its index and f"{v:.17g}" of each value, in batches of at most CHUNK
    rows, `rows(lo, m)` giving rows lo..lo+m-1 of a batch.  Each batch is
    one buffer of uint32 words whose NUL bytes are dropped."""
    yield ("n," + ",".join(f"x{i + 1}" for i in range(dim)) + "\n").encode()
    groups = -(-len(str(n - 1)) // 4)
    for lo, m in chunk_ranges(0, n):
        buf = np.empty((m, groups + dim * _FIELD + 1), np.uint32)
        _digit_words(np.arange(lo, lo + m), buf[:, :groups])
        index = buf[:, :groups].view(np.uint8)
        top = lo                                       # leading zeros -> NUL
        while top < lo + m:
            digits = len(str(top))
            end = min(lo + m, 10 ** digits)
            index[top - lo:end - lo, :4 * groups - digits] = 0
            top = end
        _fill_values(rows(lo, m), buf[:, groups:-1].reshape(m, dim, _FIELD))
        buf[:, -1] = _NEWLINE
        b = buf.view(np.uint8)
        yield b[b != 0].tobytes()


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
