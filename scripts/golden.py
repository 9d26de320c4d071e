#!/usr/bin/env python3
"""Golden digests: ergolab's artifacts for a fixed set of configs, hashed.

The contract is that identical configs give identical bytes and that a
speed-up moves no emitted bit.  Each case below is one config run through
`ergolab.cli.main` in its own directory; its digest is the SHA-256 of every
file the run writes, in name order.  Together the cases cover every CLI mode
and every system kind; each lists the layers it reaches.  `suite-vdc` hashes
criterion 6's rows (name and margin bits, not the runtime check).

The bits of `np.exp` depend on the CPU features numpy dispatches on, so a
digest is defined per host fingerprint: numpy version, machine, and the
target numpy dispatches float64 `np.exp` to (the SIMD level
`numpy.show_runtime()` reports).  tests/golden.json maps fingerprints to
digests; tests/test_golden.py recomputes them and skips, naming the
fingerprint, on a host that has no entry.

    PYTHONPATH=src python scripts/golden.py            # print the digests
    PYTHONPATH=src python scripts/golden.py --write    # record this host's

A change that moves bits on purpose rewrites this host's entry with
--write and says in CHANGES.md which digest moved and why.
"""

import argparse
import hashlib
import io
import json
import platform
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from ergolab import cli
from ergolab.suites import criterion_vdc_families

GOLDEN_JSON = Path(__file__).resolve().parents[1] / "tests" / "golden.json"

ROTATION = "kind = rotation\nalpha = 0.61803398874989479 0.41421356237309503"
GOLDEN_ROTATION = "kind = rotation\nalpha = 0.61803398874989479"
SKEW = ("kind = skew\nbase_alpha = 0.61803398874989479 0.73205080756887719\n"
        "cocycle_linear = 1 2 0 -3\ncocycle_const = 0.125 0.41421356237309503")
HEISENBERG = ("kind = heisenberg\nalpha = 0.41421356237309503\n"
              "beta = 0.73205080756887719")
CAT = "kind = automorphism\nmatrix = 2 1 1 1"

# name -> (layers reached, mode, [system], [observables], [run])
CASES = {
    "orbit-rotation": (
        "systems._rotate over a CHUNK anchor, runner CSV", "orbit",
        ROTATION, "", "checkpoints = 20000\nstart = 0.25 0.5"),
    "orbit-skew": (
        "skew base (_rotate) and fiber from exact pieces on _slabs",
        "orbit", SKEW, "", "checkpoints = 3000\nstart = haar\nseed = 5"),
    "orbit-heisenberg": (
        "Heisenberg x/y (_rotate) and z from exact pieces on _slabs", "orbit",
        HEISENBERG, "", "checkpoints = 3000\nstart = haar\nseed = 6"),
    "orbit-heisenberg-batches": (
        "runner CSV writer over three batches, row indices to 5 digits",
        "orbit", HEISENBERG, "", "checkpoints = 40000\nstart = haar\n"
        "seed = 15"),
    "orbit-automorphism": (
        "_power_rows, the uint64 power table", "orbit", CAT, "",
        "checkpoints = 3000\nstart = haar\nseed = 7"),
    "average-linear-heisenberg": (
        "orbit_block streams, evaluate, chunk_means, exact_row_sums",
        "average", HEISENBERG, "f1 = 1:1,0\nf2 = 0.5,-1:1,1;0.25:0,-2",
        "scheme = linear\ncheckpoints = 100 20000\nstart = haar\nseed = 8"),
    "average-square-rotation": (
        "factorized path: phase_table, geometric_mean_streamed",
        "average", GOLDEN_ROTATION, "f1 = 1:1;0.5,0.5:2\nf2 = 1:-1;1:3",
        "scheme = square\ncheckpoints = 1000 20000\nstart = 0.25"),
    "average-cube-skew": (
        "direct grid walk (_grid_direct), exact_row_sums over rows",
        "average", SKEW, "f1 = 1:1,0,1,0\nf2 = 1:0,1,0,-1\nf3 = 1:1,1,0,0",
        "scheme = cube\norder = 2\ncheckpoints = 10 30\nstart = haar\n"
        "seed = 9"),
    "average-folner-automorphism": (
        "folner_average on exact cat-map rows", "average", CAT,
        "f1 = 1:1,0;0.5:1,1", "scheme = folner\nbox = 30 40\npowers = 1 2\n"
        "checkpoints = 1\nstart = haar\nseed = 10"),
    "average-folner-heisenberg": (
        "folner_average on Heisenberg rows: HeisenbergTranslation.step for "
        "the S2 starts and the commutation check", "average", HEISENBERG,
        "f1 = 1:1,0;0.5,-0.5:1,1", "scheme = folner\nbox = 30 40\n"
        "powers = 1 2\ncheckpoints = 1\nstart = haar\nseed = 18"),
    "seminorm-rotation": (
        "exact seminorm recursion (CompositionRow, product_integral)",
        "seminorm", GOLDEN_ROTATION, "f1 = 1:1;0.5,-0.5:2;0.25:-3",
        "order = 3\nouter_h = 20\nseed = 14"),
    "seminorm-heisenberg": (
        "exact seminorm recursion on the Heisenberg base characters",
        "seminorm", HEISENBERG,
        "f1 = 1:1,0;0.5,-0.5:0,1;0.25:-1,2\nf2 = 0.75,0.25:1,1;-0.5:2,-1",
        "order = 3\nouter_h = 20\nseed = 16"),
    "seminorm-cat-exact": (
        "exact seminorm on the automorphism (composer, matrix powers A^h); "
        "A^T (1,0) = (2,1), so the value is nonzero",
        "seminorm", CAT, "f1 = 1:1,0;0.5:2,1", "order = 2\nouter_h = 30\n"
        "seed = 17"),
    "seminorm-cat-fallback": (
        "Monte Carlo seminorm (_raised_mc) after frequency overflow",
        "seminorm", CAT, "f1 = 1:1,0", "order = 2\nouter_h = 60\n"
        "inner_n = 500\nstart = haar\nseed = 11"),
    "vdc-quadratic": (
        "vdc_family's skew-product orbit, the van der Corput lag buffer",
        "vdc",
        GOLDEN_ROTATION, "", "vdc_family = quadratic\ninner_n = 20000\n"
        "outer_h = 20"),
    "joining-rotation": (
        "empirical_self_joining, integrate_tensors, decompose_cloud, "
        "dump_cloud", "joining", GOLDEN_ROTATION, "",
        "d = 2\nsample_count = 50\ncheckpoints = 40\nfreq_box = 2\n"
        "seed = 12\nout_bin = cloud.bin"),
    "joining-heisenberg": (
        "cloud of Heisenberg obs coordinates", "joining", HEISENBERG, "",
        "d = 2\nsample_count = 30\ncheckpoints = 25\nfreq_box = 1\n"
        "seed = 13"),
    "certify-every-kind": (
        "each kind's certify, resonance scans", "certify",
        [ROTATION, SKEW, CAT, HEISENBERG], "", "search_bound = 20"),
}


def fingerprint() -> str:
    """numpy version, machine and float64 np.exp's dispatch target."""
    try:
        from numpy.lib.introspect import opt_func_info
        info = opt_func_info(func_name="^exp$", signature="^float64$")
        target = info["exp"]["dd"]["current"]
    except (ImportError, KeyError):
        target = "unknown"
    return f"numpy {np.__version__} / {platform.machine()} / exp {target}"


def _config(system: str, observables: str, run: str, mode: str) -> str:
    parts = ["[system]", system]
    if observables:
        parts += ["[observables]", observables]
    return "\n".join(parts + ["[run]", f"mode = {mode}", run]) + "\n"


def _suite_vdc() -> str:
    return "".join(f"{r.name} {r.passed} {r.margin.hex()}\n"
                   for r in criterion_vdc_families())


def digests() -> dict[str, str]:
    """The digest of every case, plus criterion 6's rows."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (_, mode, systems, obs, run) in CASES.items():
            work = Path(tmp) / name
            work.mkdir()
            systems = systems if isinstance(systems, list) else [systems]
            paths = []
            for i, system in enumerate(systems):      # a batch: one file each
                own = f"\nout_json = {i}.json" if len(systems) > 1 else ""
                cfg = work / f"{i}.cfg"
                cfg.write_text(_config(system, obs, run + own, mode))
                paths += ["--config", str(cfg)]
            with redirect_stdout(io.StringIO()):
                code = cli.main([mode, *paths, "--out", str(work / "out")])
            if code:
                raise RuntimeError(f"golden case {name} exited {code}")
            h = hashlib.sha256()
            for f in sorted((work / "out").iterdir()):
                h.update(f.name.encode() + b"\0" + f.read_bytes())
            out[name] = h.hexdigest()
    out["suite-vdc"] = hashlib.sha256(_suite_vdc().encode()).hexdigest()
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true",
                    help=f"record this host's digests in {GOLDEN_JSON.name}")
    args = ap.parse_args()
    fp, got = fingerprint(), digests()
    if not args.write:
        print(json.dumps({fp: got}, indent=1, sort_keys=True))
        return 0
    data = (json.loads(GOLDEN_JSON.read_text()) if GOLDEN_JSON.exists()
            else {"layers": {}, "digests": {}})
    data["layers"] = {name: case[0] for name, case in CASES.items()}
    data["layers"]["suite-vdc"] = "criterion 6 rows: vdc_family, lag buffer"
    data["digests"][fp] = got
    GOLDEN_JSON.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(got)} digests for {fp!r} to {GOLDEN_JSON}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
