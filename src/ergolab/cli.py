"""Command-line runner.

Subcommands mirror the library surface: orbit, average, seminorm, vdc,
joining, certify run config-driven experiments; suite drives a named check
family.  Exit codes: 0 success, 2 validation error, 3 resource-cap error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

from .config import MODES, parse_config
from .errors import ResourceCapError, ValidationError
from .runner import artifact_paths, run_experiment
from .suites import SUITES, run_suite

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RESOURCE = 3


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process (parse_args leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="ergolab",
        description="Ergodic-average experiments with exact character oracles")
    sub = parser.add_subparsers(dest="command", required=True)
    for mode in MODES:
        p = sub.add_parser(mode, help=f"run a config in {mode} mode")
        p.add_argument("--config", action="append", required=True,
                       metavar="PATH", help="config file (repeatable)")
        p.add_argument("--out", default=".", metavar="DIR",
                       help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--threads", type=int, default=1,
                       help="parallel experiments for a batch (0 = auto)")
    p = sub.add_parser("suite", help="run a named check family")
    p.add_argument("name", choices=sorted(SUITES))
    return parser


def _load(path: str, mode: str, seed_override):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from None
    cfg = parse_config(text)
    if cfg.mode != mode:
        raise ValidationError(
            f"config {path} has mode {cfg.mode!r}, expected {mode!r}")
    if seed_override is not None:
        cfg = replace(cfg, seed=seed_override)
        cfg.validate()
    return cfg


def _check_distinct_artifacts(paths, cfgs, outdir: Path) -> None:
    """Reject a batch in which two artifacts resolve to the same file."""
    owner = {}
    for path, cfg in zip(paths, cfgs):
        for art in artifact_paths(cfg, outdir):
            key = art.resolve()
            if key in owner:
                raise ValidationError(
                    f"{owner[key]} and {path} both write {art}")
            owner[key] = path


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "suite":
            return EXIT_OK if run_suite(args.name) else 1
        if args.threads < 0:
            raise ValidationError(f"--threads must be >= 0, got {args.threads}")
        cfgs = [_load(p, args.command, args.seed) for p in args.config]
        outdir = Path(args.out)
        _check_distinct_artifacts(args.config, cfgs, outdir)
        workers = args.threads if args.threads > 0 else None
        if len(cfgs) == 1 or args.threads == 1:
            summaries = [run_experiment(c, outdir) for c in cfgs]
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                summaries = list(pool.map(
                    lambda c: run_experiment(c, outdir), cfgs))
        for path, summary in zip(args.config, summaries):
            parts = " ".join(f"{k}={v}" for k, v in sorted(summary.items()))
            print(f"ok {path}: {parts}")
        return EXIT_OK
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
