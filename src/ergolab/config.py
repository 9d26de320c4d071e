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
    seed = 42

Blank lines and `#` comments are ignored, and a key may appear once per
section.  These three sections are the only ones, and each rejects a key
it does not read: `[system]` holds `kind` and that kind's keys,
`[observables]` holds keys f<i> (i >= 1, no leading zero), ordered by the
integer i, so f2 comes before f10.  `format_config` writes reals with 17
significant digits and omits every run key that holds its default, so
parse -> format -> parse is the identity.

Each run key is one row of `_RUN_KEYS`, named like its `ExperimentConfig`
field.  The row holds the key's parser, the range `validate` checks and the
runs that must set it; the default is the field's.  Randomized runs must
carry an explicit seed: a missing seed is a validation error, never a
silent default.

    mode: orbit | average | seminorm | vdc | joining | certify; required for
        every run
    scheme: birkhoff | linear | square | cube | folner; required for average
    checkpoints: integers >= 1; required for orbit, average, joining
    start = haar: haar or coordinates
    seed: 0 <= seed < 2^64; required for joining, orbit with start=haar,
        average with start=haar, seminorm with start=haar
    order: >= 1, and 2^order - 1 observables for cube; required for
        seminorm, cube
    outer_h: >= 1; required for seminorm, vdc
    inner_n: >= 1; required for vdc
    sample_count: >= 1; required for joining
    search_bound: >= 1; required for certify
    d: >= 1; required for joining
    freq_box = 3: >= 1, and (2 freq_box + 1)^(dim d) <= 20000 for joining
    tail_fraction = 0.5: 0 < tail_fraction <= 1
    vdc_family: constant | linear | quadratic; required for vdc
    box: two side lengths >= 1; required for folner
    powers = 1 2: two integers
    out_csv: file name
    out_json: file name
    out_bin: file name

Average and seminorm runs also need at least one observable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from typing import Callable

from .errors import ValidationError
from .phases import format_real
from .observables import Observable, format_observable, parse_observable
from .systems import (DynamicalSystem, parse_number, parse_numbers,
                      system_from_kv, system_to_kv)

MODES = ("orbit", "average", "seminorm", "vdc", "joining", "certify")
SCHEMES = ("birkhoff", "linear", "square", "cube", "folner")
VDC_FAMILIES = ("constant", "linear", "quadratic")
_SECTIONS = ("system", "observables", "run")
# Tensor characters a joining run integrates at most.
_JOINING_BOX_CAP = 20_000


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

    def validate(self) -> None:
        """Check every run key against its row of `_RUN_KEYS`, in order."""
        tags = {"every run", self.mode, self.scheme, f"start={self.start}"}
        for key, row in _RUN_KEYS.items():
            value = getattr(self, key)
            if value is None or value == ():
                need = [r for r in row.required_for
                        if tags.issuperset(r.split(" with "))]
                if need:
                    raise ValidationError(f"{key} is required for {need[0]}")
            elif row.ok is not None and not row.ok(value, self):
                raise ValidationError(
                    f"{key} = {_format_value(value)} is out of range "
                    f"({row.rule})")
        if self.mode in ("average", "seminorm") and not self.observables:
            raise ValidationError(f"{self.mode} mode needs observables")


@dataclass(frozen=True)
class _RunKey:
    parse: Callable             # (key, text) -> value
    rule: str                   # the range, as documented
    ok: Callable | None = None  # (value, config) -> value is in range
    required_for: tuple[str, ...] = ()   # modes or schemes, "X with Y" = both


def _int(key, text):
    return parse_number(key, text, int)


def _ints(key, text):
    return tuple(parse_numbers(key, text, int))


def _start(key, text):
    return text if text == "haar" else tuple(parse_numbers(key, text))


def _text(key, text):
    return text


def _int_row(*required_for):
    return _RunKey(_int, ">= 1", lambda v, c: v >= 1, required_for)


def _choice_row(choices, *required_for):
    return _RunKey(_text, " | ".join(choices), lambda v, c: v in choices,
                   required_for)


def _order_ok(order, cfg):
    # min() keeps the power small; no config has 2^64 observables
    return order >= 1 and (cfg.scheme != "cube" or
                           len(cfg.observables) == 2 ** min(order, 64) - 1)


def _freq_box_ok(freq_box, cfg):
    if freq_box < 1 or cfg.mode != "joining":
        return freq_box >= 1
    # d is checked first; 3^15 already exceeds the cap, so min() keeps the
    # power small
    chars = (2 * freq_box + 1) ** min(cfg.system.obs_dim * cfg.d, 15)
    return chars <= _JOINING_BOX_CAP


_RUN_KEYS = {
    "mode": _choice_row(MODES, "every run"),
    "scheme": _choice_row(SCHEMES, "average"),
    "checkpoints": _RunKey(_ints, "integers >= 1", lambda v, c: min(v) >= 1,
                           ("orbit", "average", "joining")),
    "start": _RunKey(_start, "haar or coordinates"),
    "seed": _RunKey(_int, "0 <= seed < 2^64",
                    lambda v, c: 0 <= v < 2 ** 64,
                    ("joining", "orbit with start=haar",
                     "average with start=haar", "seminorm with start=haar")),
    "order": _RunKey(_int, ">= 1, and 2^order - 1 observables for cube",
                     _order_ok, ("seminorm", "cube")),
    "outer_h": _int_row("seminorm", "vdc"),
    "inner_n": _int_row("vdc"),
    "sample_count": _int_row("joining"),
    "search_bound": _int_row("certify"),
    "d": _int_row("joining"),
    "freq_box": _RunKey(_int,
                        ">= 1, and (2 freq_box + 1)^(dim d) <= "
                        f"{_JOINING_BOX_CAP} for joining", _freq_box_ok),
    "tail_fraction": _RunKey(parse_number, "0 < tail_fraction <= 1",
                             lambda v, c: 0 < v <= 1),
    "vdc_family": _choice_row(VDC_FAMILIES, "vdc"),
    "box": _RunKey(_ints, "two side lengths >= 1",
                   lambda v, c: len(v) == 2 and min(v) >= 1, ("folner",)),
    "powers": _RunKey(_ints, "two integers", lambda v, c: len(v) == 2),
    "out_csv": _RunKey(_text, "file name"),
    "out_json": _RunKey(_text, "file name"),
    "out_bin": _RunKey(_text, "file name"),
}
_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)}


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return " ".join(_format_value(v) for v in value)
    return format_real(value) if isinstance(value, float) else str(value)


def _observable_index(key: str) -> int:
    """i of an [observables] key f<i>; observables run in the order of i."""
    if re.fullmatch(r"f[1-9][0-9]*", key) is None:
        raise ValidationError(
            f"[observables] key {key!r} is not f<i> with an integer i >= 1")
    return int(key[1:])


def _parse_sections(text: str) -> dict[str, dict[str, str]]:
    sections: dict[str, dict[str, str]] = {}
    current: dict[str, str] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ValidationError(
                    f"config line {lineno}: unknown section [{name}]; "
                    "expected [system], [observables] or [run]")
            current = sections.setdefault(name, {})
            continue
        if "=" not in line or current is None:
            raise ValidationError(f"config line {lineno}: expected key = value "
                                  f"inside a [section], got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key in current:
            raise ValidationError(
                f"config line {lineno}: {key} repeats in [{name}]")
        current[key] = val
    if "system" not in sections:
        raise ValidationError("config needs a [system] section")
    if "run" not in sections:
        raise ValidationError("config needs a [run] section")
    return sections


def parse_config(text: str) -> ExperimentConfig:
    sections = _parse_sections(text)
    system = system_from_kv(sections["system"])
    run = sections["run"]
    unknown = sorted(set(run) - set(_RUN_KEYS))
    if unknown:
        raise ValidationError(f"unknown run keys: {unknown}")
    given = sections.get("observables", {})
    obs = tuple(parse_observable(given[key], system.obs_dim)
                for key in sorted(given, key=_observable_index))
    values = {key: _RUN_KEYS[key].parse(key, val) for key, val in run.items()}
    cfg = ExperimentConfig(system, values.pop("mode", None), obs, **values)
    cfg.validate()
    return cfg


def format_config(cfg: ExperimentConfig) -> str:
    lines = ["[system]"]
    lines += [f"{k} = {v}" for k, v in system_to_kv(cfg.system).items()]
    if cfg.observables:
        lines += ["", "[observables]"]
        lines += [f"f{i} = {format_observable(f)}"
                  for i, f in enumerate(cfg.observables, start=1)]
    lines += ["", "[run]"]
    lines += [f"{key} = {_format_value(getattr(cfg, key))}"
              for key in _RUN_KEYS if getattr(cfg, key) != _DEFAULTS[key]]
    return "\n".join(lines) + "\n"
