#!/usr/bin/env python3
"""Compare empirical self-joining integrals against the subtorus oracle.

Builds the d-fold tuple cloud of the golden rotation from Haar starts and
tabulates, for every tensor character in a frequency box, the empirical
integral, the exact limit, and the deviation.  Also reports the fiber
dispersion picture behind the barycenter identity.
"""

import argparse
import json
from pathlib import Path

from ergolab import (Observable, SplitMix64, ap_subtorus_integral,
                     character_box, decomposition_consistency,
                     empirical_self_joining, golden_rotation,
                     integrate_tensors)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--d", type=int, default=2)
    ap.add_argument("--starts", type=int, default=1000)
    ap.add_argument("--n", type=int, default=100)
    ap.add_argument("--kmax", type=int, default=3)
    ap.add_argument("--seed", type=int, default=20251007)
    ap.add_argument("--out", type=Path, default=Path("joining_scan.json"))
    args = ap.parse_args()

    system = golden_rotation()
    cloud = empirical_self_joining(system, args.d, args.starts, args.n,
                                   SplitMix64(args.seed))
    rows = []
    worst = 0.0
    box = character_box(args.d, args.kmax)
    values = integrate_tensors(
        cloud, [[Observable.character(k) for k in ks] for ks in box])
    for ks, v in zip(box, values):
        o = ap_subtorus_integral(ks)
        err = abs(v - o)
        worst = max(worst, err)
        rows.append({"k": list(ks), "empirical_re": v.real,
                     "empirical_im": v.imag, "oracle": o.real, "error": err})
    rep = decomposition_consistency(
        system, args.starts // 10 or 1, args.d, args.n,
        [Observable.character(-2), Observable.character(1)] +
        [Observable.character(1)] * (args.d - 2),
        SplitMix64(args.seed + 1))
    payload = {
        "d": args.d, "starts": args.starts, "n": args.n,
        "worst_error": worst,
        "rows": rows,
        "barycenter": {"exact_match": rep.exact_match,
                       "dispersion": rep.dispersion},
    }
    args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}; worst |empirical - oracle| = {worst:.4f}")


if __name__ == "__main__":
    main()
