"""Line-oriented experiment configuration.

The format is sections of `key = value` lines:

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
    start = haar
    seed = 42

Blank lines and `#` comments are ignored.  All reals are written with 17
significant digits so that parse -> serialize -> parse is the identity.
Randomized runs (start = haar, joining modes, Monte Carlo seminorms) must
carry an explicit seed; a missing seed is a validation error, never a
silent default.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError
from .phases import format_real
from .observables import Observable, format_observable, parse_observable
from .systems import (DynamicalSystem, parse_number, parse_numbers,
                      system_from_kv, system_to_kv)

MODES = ("orbit", "average", "seminorm", "vdc", "joining", "certify")
SCHEMES = ("birkhoff", "linear", "square", "cube", "folner")
VDC_FAMILIES = ("constant", "linear", "quadratic")


@dataclass(frozen=True)
class ExperimentConfig:
    system: DynamicalSystem
    mode: str
    observables: tuple[Observable, ...] = ()
    scheme: str | None = None
    checkpoints: tuple[int, ...] = ()
    start: tuple[float, ...] | str = "haar"
    seed: int | None = None
    order: int | None = None
    outer_h: int | None = None
    inner_n: int | None = None
    sample_count: int | None = None
    search_bound: int | None = None
    freq_box: int = 3
    d: int | None = None
    tail_fraction: float = 0.5
    vdc_family: str | None = None
    box: tuple[int, int] | None = None
    powers: tuple[int, int] = (1, 2)
    out_csv: str | None = None
    out_json: str | None = None
    out_bin: str | None = None

    def needs_seed(self) -> bool:
        if self.mode in ("joining",):
            return True
        if self.start == "haar" and self.mode in ("orbit", "average", "seminorm"):
            return True
        return False

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ValidationError(f"unknown mode {self.mode!r}")
        if self.mode == "average":
            if self.scheme not in SCHEMES:
                raise ValidationError(f"average mode needs a scheme from {SCHEMES}")
            if not self.observables:
                raise ValidationError("average mode needs observables")
            if not self.checkpoints:
                raise ValidationError("average mode needs checkpoints")
        if self.mode == "seminorm":
            if not self.observables or self.order is None or self.outer_h is None:
                raise ValidationError(
                    "seminorm mode needs an observable, order and outer_h")
        if self.mode == "vdc":
            if self.vdc_family not in VDC_FAMILIES:
                raise ValidationError(
                    f"vdc mode needs vdc_family from {VDC_FAMILIES}")
            if self.inner_n is None or self.outer_h is None:
                raise ValidationError("vdc mode needs inner_n and outer_h")
        if self.mode == "joining":
            if self.d is None or self.sample_count is None or not self.checkpoints:
                raise ValidationError(
                    "joining mode needs d, sample_count and checkpoints")
        if self.mode == "certify" and self.search_bound is None:
            raise ValidationError("certify mode needs search_bound")
        if self.mode == "orbit" and not self.checkpoints:
            raise ValidationError("orbit mode needs checkpoints (orbit length)")
        if self.needs_seed() and self.seed is None:
            raise ValidationError(
                "this experiment draws random samples and must declare a seed")
        if self.scheme == "folner" and self.box is None:
            raise ValidationError("folner scheme needs a box")


def _parse_sections(text: str) -> dict[str, dict[str, str]]:
    sections: dict[str, dict[str, str]] = {}
    current: dict[str, str] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            current = sections.setdefault(name, {})
            continue
        if "=" not in line or current is None:
            raise ValidationError(f"config line {lineno}: expected key = value "
                                  f"inside a [section], got {raw!r}")
        key, val = line.split("=", 1)
        current[key.strip()] = val.strip()
    if "system" not in sections:
        raise ValidationError("config needs a [system] section")
    if "run" not in sections:
        raise ValidationError("config needs a [run] section")
    return sections


def parse_config(text: str) -> ExperimentConfig:
    sections = _parse_sections(text)
    system = system_from_kv(sections["system"])
    run = dict(sections["run"])

    def pop_int(key):
        return parse_number(key, run.pop(key), int) if key in run else None

    def pop_float(key, default=None):
        return parse_number(key, run.pop(key)) if key in run else default

    def pop_pair(key, what):
        if key not in run:
            return None
        parts = parse_numbers(key, run.pop(key), int)
        if len(parts) != 2:
            raise ValidationError(f"{key} needs two {what}")
        return (parts[0], parts[1])

    obs = tuple(parse_observable(v, system.obs_dim)
                for _, v in sorted(sections.get("observables", {}).items()))
    mode = run.pop("mode", None)
    if mode is None:
        raise ValidationError("run section needs a mode")
    scheme = run.pop("scheme", None)
    checkpoints = tuple(parse_numbers("checkpoints", run.pop("checkpoints", ""),
                                      int))
    start_raw = run.pop("start", "haar")
    start = "haar" if start_raw == "haar" else tuple(
        parse_numbers("start", start_raw))
    box = pop_pair("box", "side lengths")
    powers = pop_pair("powers", "integers") or (1, 2)
    cfg = ExperimentConfig(
        system=system,
        mode=mode,
        observables=obs,
        scheme=scheme,
        checkpoints=checkpoints,
        start=start,
        seed=pop_int("seed"),
        order=pop_int("order"),
        outer_h=pop_int("outer_h"),
        inner_n=pop_int("inner_n"),
        sample_count=pop_int("sample_count"),
        search_bound=pop_int("search_bound"),
        freq_box=pop_int("freq_box") or 3,
        d=pop_int("d"),
        tail_fraction=pop_float("tail_fraction", 0.5),
        vdc_family=run.pop("vdc_family", None),
        box=box,
        powers=powers,
        out_csv=run.pop("out_csv", None),
        out_json=run.pop("out_json", None),
        out_bin=run.pop("out_bin", None),
    )
    if run:
        raise ValidationError(f"unknown run keys: {sorted(run)}")
    cfg.validate()
    return cfg


def format_config(cfg: ExperimentConfig) -> str:
    lines = ["[system]"]
    for k, v in system_to_kv(cfg.system).items():
        lines.append(f"{k} = {v}")
    if cfg.observables:
        lines.append("")
        lines.append("[observables]")
        for i, f in enumerate(cfg.observables, start=1):
            lines.append(f"f{i} = {format_observable(f)}")
    lines.append("")
    lines.append("[run]")
    lines.append(f"mode = {cfg.mode}")
    if cfg.scheme is not None:
        lines.append(f"scheme = {cfg.scheme}")
    if cfg.checkpoints:
        lines.append("checkpoints = " + " ".join(str(n) for n in cfg.checkpoints))
    if cfg.start == "haar":
        lines.append("start = haar")
    else:
        lines.append("start = " + " ".join(format_real(v) for v in cfg.start))
    for key in ("seed", "order", "outer_h", "inner_n", "sample_count",
                "search_bound", "d"):
        val = getattr(cfg, key)
        if val is not None:
            lines.append(f"{key} = {val}")
    if cfg.freq_box != 3:
        lines.append(f"freq_box = {cfg.freq_box}")
    lines.append(f"tail_fraction = {format_real(cfg.tail_fraction)}")
    if cfg.vdc_family is not None:
        lines.append(f"vdc_family = {cfg.vdc_family}")
    if cfg.box is not None:
        lines.append(f"box = {cfg.box[0]} {cfg.box[1]}")
    if cfg.powers != (1, 2):
        lines.append(f"powers = {cfg.powers[0]} {cfg.powers[1]}")
    for key in ("out_csv", "out_json", "out_bin"):
        val = getattr(cfg, key)
        if val is not None:
            lines.append(f"{key} = {val}")
    return "\n".join(lines) + "\n"
