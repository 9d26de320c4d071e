"""The three benchmark workloads: seeded inputs, jobs and their oracles.

A workload is a fixed list of jobs generated from the benchmark seed.  Each
job computes through ergolab's public API (or its CLI), checks the result
against an independent reference and returns; the harness in run.py runs
the jobs one after another in a closed loop.  Inputs are plain Python data
(frequencies, coefficients, start coordinates, config text); ergolab objects
are built inside the jobs from the module handle `lib`, so a re-imported
package never meets objects of an older import.

Job costs are kept independent of the seed: the seed moves frequencies,
coefficients and starts, never the shape of the work (scheme, arity, cloud
size, orbit length), so run-to-run spread measures the machine, not the
inputs.
"""

from __future__ import annotations

import cmath
import io
import itertools
import json
import math
import struct
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SQRT2_M1 = math.sqrt(2.0) - 1.0
SQRT3_M1 = math.sqrt(3.0) - 1.0

# ---------------------------------------------------------------------------
# Seeded inputs


class SplitMix64:
    """The counter-based SplitMix64 stream as ergolab's README specifies it,
    written out here so that the starts the program draws can be replayed
    independently of the program's own generator."""

    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.seed = seed & self.MASK
        self.counter = 0

    def u64(self) -> int:
        self.counter += 1
        z = (self.seed + self.counter * 0x9E3779B97F4A7C15) & self.MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1FCE4E5B) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)

    def unit(self) -> float:
        return (self.u64() >> 11) * 2.0 ** -53

    def below(self, n: int) -> int:
        return self.u64() % n

    def int_in(self, lo: int, hi: int) -> int:
        return lo + self.below(hi - lo + 1)

    def coeff(self) -> complex:
        """A coefficient of modulus in [0.3, 1) and uniform phase."""
        mod = 0.3 + 0.7 * self.unit()
        return mod * cis(self.unit())


# ---------------------------------------------------------------------------
# Exact helpers shared by the oracles


def cis(t: float) -> complex:
    """e(t) = exp(2 pi i t)."""
    return cmath.exp(2j * math.pi * t)


def frac_q(q: Fraction) -> float:
    """q mod 1 reduced exactly, rounded once, in [0, 1)."""
    r = float(q - (q.numerator // q.denominator))
    return 0.0 if r >= 1.0 else r


def circ(a: float, b: float) -> float:
    """Distance of two points of the circle R/Z."""
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


def geo_closed(rate: Fraction, n: int) -> complex:
    """(1/n) sum_{m<n} e(m * rate) in closed form, phases reduced exactly."""
    if rate.denominator == 1:
        return 1.0 + 0.0j
    return (1.0 - cis(frac_q(n * rate))) / (n * (1.0 - cis(frac_q(rate))))


def char_sum(terms, p) -> complex:
    """f(p) for f = sum c e(k . p), evaluated term by term in plain floats."""
    return sum(c * cis(math.fsum(ki * float(pi) for ki, pi in zip(k, p)))
               for k, c in terms)


def real17(x: float) -> str:
    return f"{float(x):.16e}"


def obs_literal(terms) -> str:
    """ergolab's observable literal for [(k, c), ...]."""
    return " ; ".join(f"{real17(c.real)},{real17(c.imag)}:"
                      + ",".join(str(v) for v in k) for k, c in terms)


def pack_complex(*values) -> bytes:
    return b"".join(struct.pack("<dd", complex(v).real, complex(v).imag)
                    for v in values)


# ---------------------------------------------------------------------------
# The per-job correctness gate


class JobContext:
    """Collects one job's verdict, emitted values and artifact bytes.

    `inject` plants a fault for the benchmark's self-test: "reference"
    perturbs the first reference value the job compares against, "missing"
    points the first artifact read at a file that does not exist.  A gate
    that works counts either as a failed job."""

    def __init__(self, inject: str | None = None):
        self.inject = inject
        self.failures: list[str] = []
        self.emitted: list = []   # bytes or C-contiguous arrays
        self.artifact_bytes = 0

    def _take(self, kind: str) -> bool:
        if self.inject == kind:
            self.inject = None
            return True
        return False

    def emit(self, *values) -> None:
        self.emitted.append(pack_complex(*values))

    def close(self, what: str, got, want, tol: float) -> None:
        if self._take("reference"):
            want = want + 1.0
        err = abs(got - want)
        if not err <= tol:  # also catches nan
            self.failures.append(f"{what}: |{got} - {want}| = {err:.3e} > {tol:.1e}")

    def at_most(self, what: str, got: float, bound: float) -> None:
        if self._take("reference"):
            bound = -1.0
        if not got <= bound:
            self.failures.append(f"{what}: {got!r} > {bound!r}")

    def same(self, what: str, got, want) -> None:
        if self._take("reference"):
            want = ("not", want)
        if got != want:
            self.failures.append(f"{what}: {got!r} != {want!r}")

    def read(self, path: Path) -> bytes:
        if self._take("missing"):
            path = path.with_name(path.name + ".missing")
        data = path.read_bytes()
        self.artifact_bytes += len(data)
        self.emitted.append(data)
        return data


@dataclass
class Job:
    name: str
    run: Callable  # run(lib, state, ctx); state is shared by one pass's jobs


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    # Wall time of one pass on the reference machine (2-core x86-64
    # sandbox, Python 3.11, numpy 2.4); a run makes round(seconds / pass_s)
    # passes, so the work per run does not depend on the speed of the code.
    pass_s: float
    state: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# stream-rotation: long streamed averages against closed forms

STREAM_N = 10 ** 6
STREAM_TOL = 1e-9


def _char(rng: SplitMix64, kmax: int = 6):
    """A random character as in acceptance criterion 1: (k, c), k != 0."""
    k = 0
    while k == 0:
        k = rng.int_in(-kmax, kmax)
    return ((k,), rng.coeff())


def _distinct_chars(rng: SplitMix64, count: int, rates) -> list:
    """Characters whose geometric-sum rates are pairwise distinct, so every
    job streams the same number of geometric sums whatever the seed."""
    while True:
        chars = [_char(rng) for _ in range(count)]
        rs = rates([k for (k,), _ in chars])
        if len(set(rs)) == len(rs):
            return chars


def _cube_rates(k: int):
    eps_list = sorted(tuple((m >> i) & 1 for i in range(k))
                      for m in range(1, 1 << k))

    def rates(ks):
        return [sum(kv for kv, eps in zip(ks, eps_list) if eps[i])
                for i in range(k)]
    return eps_list, rates


def _stream_job(api: str, closed: str, x: float, chars, eps_list):
    """The streamed average `api` against `exact.<closed>` at N = 10^6.
    Birkhoff takes one observable, cubes take them keyed by vertex."""
    def run(lib, state, ctx):
        g, xv = lib.golden_rotation(), np.array([x])
        fs = [lib.Observable.character(k, c) for k, c in chars]
        if eps_list is not None:
            fs = dict(zip(eps_list, fs))
        elif api == "birkhoff_average":
            (fs,) = fs
        v = getattr(lib, api)(g, fs, xv, STREAM_N)
        ref = getattr(lib.exact, closed)(g, fs, xv, STREAM_N)
        ctx.close(f"{api} vs exact.{closed}", v, ref, STREAM_TOL)
        ctx.emit(v, ref)
    return run


def stream_rotation(seed: int, workdir: Path) -> Workload:
    rng = SplitMix64(seed)

    def square_rates(ks):
        return [sum(ks), sum(j * kj for j, kj in enumerate(ks))]
    specs = [("birkhoff", "birkhoff_average", "birkhoff_closed",
              [_char(rng)], None)]
    specs += [(f"linear-d{d}", "multilinear_average_linear", "linear_closed",
               [_char(rng) for _ in range(d)], None) for d in (2, 3, 4)]
    specs += [(f"square-d{d}", "multilinear_average_square", "square_closed",
               _distinct_chars(rng, d, square_rates), None) for d in (2, 3, 4)]
    for k in (1, 2, 3):
        eps_list, rates = _cube_rates(k)
        specs.append((f"cube-k{k}", "cube_average", "cube_closed",
                      _distinct_chars(rng, len(eps_list), rates), eps_list))
    jobs = [Job(name, _stream_job(api, closed, rng.unit(), chars, eps))
            for name, api, closed, chars, eps in specs]
    return Workload("stream-rotation", jobs, pass_s=3.6)


# ---------------------------------------------------------------------------
# joining-cloud: many tiny blocks against the progression-subtorus oracle

# 5000 Haar starts keep the Monte Carlo error of the marginal characters
# (K != 0, M = 0, where the oracle is 0 and nothing but the start sample
# contributes) under the 0.05 tolerance at every seed: the error is a
# Rayleigh variable with P(> 0.05) = exp(-0.05^2 * S) = 4e-6 per character.
# Criterion 7's 1000 starts fail that tolerance at about half of all seeds.
CLOUD_STARTS = 5000
CLOUD_N = 100
CLOUD_BOXES = ((2, 2), (3, 1))   # (d, kmax): the |k| <= kmax character box
FIBER_N = 2000
SUBTORUS_TOL = 0.05
EXACT_TOL = 1e-9


def _fiber_ks(rng: SplitMix64, d: int) -> tuple[int, ...]:
    """Frequencies with sum_j (j+1) k_j = 0, not all zero: the fiber
    integral then converges to e(K x) with no finite-N remainder."""
    while True:
        rest = [rng.int_in(-3, 3) for _ in range(d - 1)]
        if d == 2:
            ks = (-2 * rest[0], rest[0])
        else:
            ks = (-2 * rest[0] - 3 * rest[1], rest[0], rest[1])
        if any(ks):
            return ks


def joining_cloud(seed: int, workdir: Path) -> Workload:
    rng = SplitMix64(seed)
    alpha = Fraction(GOLDEN)
    jobs = []
    for d, kmax in CLOUD_BOXES:
        cloud_seed = rng.u64()
        replay = SplitMix64(cloud_seed)
        starts = np.array([replay.unit() for _ in range(CLOUD_STARTS)])
        samples = [(rng.below(CLOUD_STARTS), rng.below(CLOUD_N), rng.below(d))
                   for _ in range(64)]

        def build(lib, state, ctx, d=d, cloud_seed=cloud_seed, starts=starts,
                  samples=samples):
            g = lib.golden_rotation()
            cloud = lib.empirical_self_joining(
                g, d, CLOUD_STARTS, CLOUD_N, lib.SplitMix64(cloud_seed))
            pts = cloud.points
            ctx.same("cloud shape", pts.shape, (CLOUD_STARTS, CLOUD_N, d, 1))
            ctx.same("cloud starts replay SplitMix64",
                     all(np.array_equal(pts[:, 0, j, 0], starts)
                         for j in range(d)), True)
            ctx.same("cloud inside [0, 1)",
                     bool(np.all((pts >= 0.0) & (pts < 1.0))), True)
            worst = max(circ(pts[s, n, j, 0],
                             frac_q(Fraction(starts[s]) + (j + 1) * n * alpha))
                        for s, n, j in samples)
            ctx.at_most("cloud points vs exact T^{jn} x", worst, 1e-12)
            state["cloud"] = cloud
            ctx.emitted.append(pts)
        jobs.append(Job(f"cloud-d{d}", build))

        for ks in itertools.product(range(-kmax, kmax + 1), repeat=d):
            K = sum(ks)
            R = sum((j + 1) * kj for j, kj in enumerate(ks))
            amp = complex(np.mean(np.exp(2j * np.pi * (K * starts))))
            finite = amp * geo_closed(R * alpha, CLOUD_N)

            def tensor(lib, state, ctx, ks=ks, finite=finite):
                fs = [lib.Observable.character(k) for k in ks]
                v = lib.integrate_tensor(state["cloud"], fs)
                ctx.close("tensor integral vs ap_subtorus_integral", v,
                          lib.ap_subtorus_integral(ks), SUBTORUS_TOL)
                ctx.close("tensor integral vs finite-cloud closed form", v,
                          finite, EXACT_TOL)
                ctx.emit(v)
            jobs.append(Job(f"tensor-d{d}", tensor))

    for d in (2, 3):
        for _ in range(3):
            x, ks = rng.unit(), _fiber_ks(rng, d)

            def fiber(lib, state, ctx, d=d, x=x, ks=ks):
                g = lib.golden_rotation()
                m = lib.fiber_measure(g, np.array([x]), d, FIBER_N)
                v = lib.integrate_tensor(m, [lib.Observable.character(k)
                                             for k in ks])
                ref = lib.ap_fiber_integral(list(ks), x)
                ctx.close("fiber integral vs ap_fiber_integral", v, ref,
                          EXACT_TOL)
                ctx.emit(v, ref)
            jobs.append(Job(f"fiber-d{d}", fiber))

    return Workload("joining-cloud", jobs, pass_s=16.0)


# ---------------------------------------------------------------------------
# config-batch: generated configs through the CLI, artifacts re-read

TRAJ_CHECKPOINTS = (1000, 10000, 100000, 1000000)
HEIS_ORBIT_ROWS = 20000
CAT_ORBIT_ROWS = 3000
ROT_ORBIT_ROWS = 50000
ORBIT_SAMPLES = 40
SEM_H = 20
MC_H, MC_N = 60, 2000
VDC_N, VDC_H = 10 ** 5, 100

# Certificate verdicts known by hand (acceptance criterion 8).
ERGODIC_HEIS = ((SQRT2_M1, SQRT3_M1), (GOLDEN, SQRT2_M1),
                (math.sqrt(5) - 2, math.sqrt(7) - 2))
RESONANT_HEIS = ((0.5, SQRT3_M1), (GOLDEN, GOLDEN), (0.25, 0.75))


def _config(system: str, run: str, observables=()) -> str:
    parts = ["[system]", system.strip()]
    if observables:
        parts += ["", "[observables]"]
        parts += [f"f{i} = {obs_literal(t)}"
                  for i, t in enumerate(observables, start=1)]
    parts += ["", "[run]", run.strip()]
    return "\n".join(parts) + "\n"


def _cli(lib, mode: str, cfg: Path, out: Path) -> None:
    sink = io.StringIO()
    with redirect_stdout(sink), redirect_stderr(sink):
        rc = lib.cli.main([mode, "--config", str(cfg), "--out", str(out),
                           "--threads", "1"])
    if rc != 0:
        raise RuntimeError(f"ergolab {mode} exited {rc}: {sink.getvalue()}")


def _csv_rows(data: bytes, header: str) -> list[list[str]]:
    lines = data.decode("ascii").splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"unexpected CSV header {lines[:1]!r}")
    return [ln.split(",") for ln in lines[1:]]


def _trajectory_ref(lib, system, fs_terms, x, strides, n) -> complex:
    """(1/n) sum_{m<n} prod_j f_j(T^{s_j m} x) from exact per-point powers."""
    re, im = [], []
    for m in range(n):
        v = 1.0 + 0.0j
        for terms, s in zip(fs_terms, strides):
            v *= char_sum(terms, lib.step(system, x, s * m))
        re.append(v.real)
        im.append(v.imag)
    return complex(math.fsum(re) / n, math.fsum(im) / n)


def _seminorm3_rotation(terms, alpha: float, H: int) -> float:
    """Order-3 Host-Kra seminorm of sum_a c_a e(a x) under x -> x + alpha at
    truncation H, from the closed form of the recursion's inner integral:

        int D_h2 D_h1 f = sum_{a-b=c-d} c_a conj(c_b) conj(c_c) c_d
                                        e(-(h1 (b-d) + h2 (c-d)) alpha).
    """
    quads = [(ca * cb.conjugate() * cc.conjugate() * cd, b - d, c - d)
             for (a,), ca in terms for (b,), cb in terms
             for (c,), cc in terms for (d,), cd in terms if a - b == c - d]
    w = np.array([q[0] for q in quads])
    u = np.array([q[1] for q in quads], dtype=np.float64)
    v = np.array([q[2] for q in quads], dtype=np.float64)
    h = np.arange(1, H + 1, dtype=np.float64)[:, None]
    e1 = np.exp(-2j * np.pi * (h * u * alpha))
    e2 = np.exp(-2j * np.pi * (h * v * alpha))
    inner = (e1 * w) @ e2.T
    return float(np.mean(np.abs(inner) ** 2)) ** (1.0 / 8.0)


def config_batch(seed: int, workdir: Path) -> Workload:
    rng = SplitMix64(seed)
    cfgdir, outdir = workdir / "configs", workdir / "out"
    cfgdir.mkdir(parents=True, exist_ok=True)
    outdir.mkdir(parents=True, exist_ok=True)
    jobs = []

    def add(name: str, mode: str, text: str, check) -> None:
        path = cfgdir / f"{name}.cfg"
        path.write_text(text)

        def run(lib, state, ctx):
            _cli(lib, mode, path, outdir)
            check(lib, ctx)
        jobs.append(Job(name, run))

    def starts(n):
        return tuple(rng.unit() for _ in range(n))

    cps = " ".join(str(n) for n in TRAJ_CHECKPOINTS)

    # Heisenberg Birkhoff trajectory of a base-character sum.
    x = starts(3)
    terms = []
    while len(terms) < 3:
        k = (rng.int_in(-3, 3), rng.int_in(-3, 3))
        if any(k) and k not in [t[0] for t in terms]:
            terms.append((k, rng.coeff()))
    heis = f"kind = heisenberg\nalpha = {real17(SQRT2_M1)}\nbeta = {real17(SQRT3_M1)}"
    text = _config(heis, f"mode = average\nscheme = birkhoff\n"
                   f"checkpoints = {cps}\nstart = {' '.join(map(real17, x))}\n"
                   "out_csv = heis-birkhoff.csv", [terms])

    def check_heis(lib, ctx, x=x, terms=terms):
        rows = _csv_rows(ctx.read(outdir / "heis-birkhoff.csv"),
                         "scheme,N,value_re,value_im,oscillation")
        ctx.same("heisenberg rows", [(r[0], int(r[1])) for r in rows],
                 [("birkhoff", n) for n in TRAJ_CHECKPOINTS])
        vals = [complex(float(r[2]), float(r[3])) for r in rows]
        ref = _trajectory_ref(lib, lib.default_heisenberg(), [terms],
                              np.array(x), (1,), TRAJ_CHECKPOINTS[0])
        ctx.close("heisenberg first checkpoint vs exact steps", vals[0], ref,
                  1e-9)
        fa, fb = Fraction(SQRT2_M1), Fraction(SQRT3_M1)
        n = TRAJ_CHECKPOINTS[-1]
        closed = sum(c * cis(k[0] * x[0] + k[1] * x[1])
                     * geo_closed(k[0] * fa + k[1] * fb, n) for k, c in terms)
        ctx.close("heisenberg final checkpoint vs closed form", vals[-1],
                  closed, 1e-9)
    add("heis-birkhoff", "average", text, check_heis)

    # Skew product (x, y) -> (x + alpha, y + x): Fraction-anchored fiber.
    x = starts(2)
    fs = []
    for _ in range(2):
        p, q = 0, 0
        while p == 0 and q == 0:
            p, q = rng.int_in(-2, 2), rng.int_in(-2, 2)
        fs.append([((p, q), rng.coeff())])
    text = _config(
        f"kind = skew\nbase_alpha = {real17(GOLDEN)}\ncocycle_linear = 1\n"
        f"cocycle_const = {real17(0.0)}", f"mode = average\nscheme = linear\n"
        f"checkpoints = {cps}\nstart = {' '.join(map(real17, x))}\n"
        "out_csv = skew-linear.csv", fs)

    def check_skew(lib, ctx, x=x, fs=fs):
        rows = _csv_rows(ctx.read(outdir / "skew-linear.csv"),
                         "scheme,N,value_re,value_im,oscillation")
        ctx.same("skew rows", [(r[0], int(r[1])) for r in rows],
                 [("linear", n) for n in TRAJ_CHECKPOINTS])
        v0 = complex(float(rows[0][2]), float(rows[0][3]))
        ref = _trajectory_ref(lib, lib.standard_skew(), fs, np.array(x),
                              (1, 2), TRAJ_CHECKPOINTS[0])
        ctx.close("skew first checkpoint vs exact steps", v0, ref, 1e-9)
        bound = math.prod(abs(t[0][1]) for t in fs)
        ctx.at_most("skew |average| vs sup bound",
                    max(abs(complex(float(r[2]), float(r[3]))) for r in rows),
                    bound + 1e-12)
    add("skew-linear", "average", text, check_skew)

    def orbit_case(name, system_text, make_system, dim, rows, exact):
        x = starts(dim)
        picks = sorted(rng.below(rows) for _ in range(ORBIT_SAMPLES))
        text = _config(system_text, f"mode = orbit\ncheckpoints = {rows}\n"
                       f"start = {' '.join(map(real17, x))}\n"
                       f"out_csv = {name}.csv")

        def check(lib, ctx):
            header = "n," + ",".join(f"x{i + 1}" for i in range(dim))
            table = _csv_rows(ctx.read(outdir / f"{name}.csv"), header)
            ctx.same(f"{name} row count", len(table), rows)
            system = make_system(lib)
            worst = 0.0
            for m in picks:
                row = table[m]
                if int(row[0]) != m:
                    raise ValueError(f"{name}: row {m} is labelled {row[0]}")
                want = lib.step(system, np.array(x), m)
                got = [float(v) for v in row[1:]]
                if exact:
                    ctx.same(f"{name} row {m} vs exact step", got,
                             [float(v) for v in want])
                else:
                    worst = max(worst, max(circ(a, b) for a, b in zip(got, want)))
            if not exact:
                ctx.at_most(f"{name} sampled rows vs exact step", worst, 1e-9)
        add(name, "orbit", text, check)

    # Heisenberg orbit in state coordinates: exercises the central coordinate.
    orbit_case("heis-orbit", heis, lambda lib: lib.default_heisenberg(), 3,
               HEIS_ORBIT_ROWS, exact=False)
    # Cat map: exact integer matrix powers on both sides, so bit-equal rows.
    orbit_case("cat-orbit", "kind = automorphism\nmatrix = 2 1 1 1",
               lambda lib: lib.cat_map(), 2, CAT_ORBIT_ROWS, exact=True)

    # Seminorms: order 3 on the rotation (multi-term, closed form), order 2
    # on the cat map (exactly 0), and an overflow that falls back to Monte
    # Carlo.
    rot = f"kind = rotation\nalpha = {real17(GOLDEN)}"
    # Fixed frequency sets (the cost of the recursion grows with the number
    # of distinct differences a - b); the seed draws the coefficients.
    sem_fs = [[((k,), rng.coeff()) for k in ks]
              for ks in ((-4, -1, 1, 3), (-3, 0, 2, 4), (-2, -1, 3, 4))]
    # The seed is required by the config format (start = haar) and unused
    # on the exact path.
    text = _config(rot, f"mode = seminorm\norder = 3\nouter_h = {SEM_H}\n"
                   f"seed = {rng.u64()}\nout_json = seminorm-rotation.json",
                   sem_fs)

    def check_sem_rot(lib, ctx, sem_fs=sem_fs):
        recs = json.loads(ctx.read(outdir / "seminorm-rotation.json"))
        ctx.same("rotation seminorm records", len(recs), len(sem_fs))
        for rec, terms in zip(recs, sem_fs):
            ctx.same("rotation seminorm exact flag", rec["exact"], True)
            ctx.close("rotation order-3 seminorm vs closed form", rec["value"],
                      _seminorm3_rotation(terms, GOLDEN, SEM_H), 1e-9)
    add("seminorm-rotation", "seminorm", text, check_sem_rot)

    cat = "kind = automorphism\nmatrix = 2 1 1 1"

    def cat_char():
        k = (0, 0)
        while k == (0, 0):
            k = (rng.int_in(-3, 3), rng.int_in(-3, 3))
        return [(k, rng.coeff())]
    cat_fs = [cat_char() for _ in range(3)]
    text = _config(cat, f"mode = seminorm\norder = 2\nouter_h = 30\n"
                   f"seed = {rng.u64()}\nout_json = seminorm-cat.json", cat_fs)

    def check_sem_cat(lib, ctx):
        recs = json.loads(ctx.read(outdir / "seminorm-cat.json"))
        ctx.same("cat seminorm records", len(recs), 3)
        for rec in recs:
            ctx.same("cat seminorm exact flag", rec["exact"], True)
            ctx.at_most("cat order-2 seminorm of a character (= 0)",
                        rec["value"], 1e-12)
    add("seminorm-cat", "seminorm", text, check_sem_cat)

    mc_f = cat_char()
    text = _config(cat, f"mode = seminorm\norder = 2\nouter_h = {MC_H}\n"
                   f"inner_n = {MC_N}\nseed = {rng.u64()}\n"
                   "out_json = seminorm-fallback.json", [mc_f])

    def check_sem_mc(lib, ctx, c=mc_f[0][1]):
        (rec,) = json.loads(ctx.read(outdir / "seminorm-fallback.json"))
        ctx.same("fallback path taken", (rec["exact"], rec["N"], rec["H"]),
                 (False, MC_N, MC_H))
        # Each inner Birkhoff mean is of a nonconstant character along a
        # cat-map orbit, with variance |c|^4 / N; the mean of H such squared
        # moduli concentrates there (standard deviation 1/sqrt(H) of it).
        ctx.at_most("Monte Carlo seminorm^4 vs 3 |c|^4 / N",
                    rec["value"] ** 4, 3.0 * abs(c) ** 4 / MC_N)
    add("seminorm-fallback", "seminorm", text, check_sem_mc)

    # van der Corput: the constant family is the equality case; the
    # quadratic family is criterion 6's slow case.
    text = _config(rot, "mode = vdc\nvdc_family = constant\ninner_n = 10000\n"
                   "outer_h = 20\nout_json = vdc-constant.json")

    def check_vdc_const(lib, ctx):
        rep = json.loads(ctx.read(outdir / "vdc-constant.json"))
        ctx.close("vdc constant lhs", rep["lhs"], 1.0, 1e-12)
        ctx.close("vdc constant equality (margin)", rep["margin"], 0.0, 1e-9)
    add("vdc-constant", "vdc", text, check_vdc_const)

    text = _config(rot, f"mode = vdc\nvdc_family = quadratic\n"
                   f"inner_n = {VDC_N}\nouter_h = {VDC_H}\n"
                   "out_json = vdc-quadratic.json")

    def check_vdc_quad(lib, ctx):
        rep = json.loads(ctx.read(outdir / "vdc-quadratic.json"))
        ctx.same("vdc quadratic sizes", (rep["N"], rep["H"]), (VDC_N, VDC_H))
        ctx.at_most("vdc quadratic -margin", -rep["margin"], 1e-3)
        ctx.at_most("vdc quadratic max(lhs, rhs)", max(rep["lhs"], rep["rhs"]),
                    1e-2)
    add("vdc-quadratic", "vdc", text, check_vdc_quad)

    for verdict, cases in (("ergodic", ERGODIC_HEIS),
                           ("non-ergodic", RESONANT_HEIS)):
        a, b = cases[rng.below(len(cases))]
        name = f"certify-{verdict}"
        text = _config(f"kind = heisenberg\nalpha = {real17(a)}\n"
                       f"beta = {real17(b)}",
                       f"mode = certify\nsearch_bound = 50\nout_json = {name}.json")

        def check_cert(lib, ctx, name=name, verdict=verdict):
            rep = json.loads(ctx.read(outdir / f"{name}.json"))
            ctx.same("certificate verdict", rep["verdict"], verdict)
        add(name, "certify", text, check_cert)

    # A long rotation orbit dump: CSV formatting and writing.
    orbit_case("rotation-orbit",
               f"kind = rotation\nalpha = {real17(GOLDEN)} {real17(SQRT2_M1)}",
               lambda lib: lib.Rotation((GOLDEN, SQRT2_M1)), 2,
               ROT_ORBIT_ROWS, exact=False)

    return Workload("config-batch", jobs, pass_s=3.8)


WORKLOADS = {
    "stream-rotation": stream_rotation,
    "joining-cloud": joining_cloud,
    "config-batch": config_batch,
}
