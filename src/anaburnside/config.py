"""Runtime configuration: bound constants, engine caps, output policy."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields

ENV_VAR = "BURNSIDE_CONFIG"


@dataclass(frozen=True)
class Config:
    """Constants and caps shared by the bounds engine, catalog, and group engine.

    The bound formulas carry unspecified constants; they are surfaced here so
    every report can state exactly which configuration produced its numbers.
    """

    c: float = 2.0            # main recursion constant, must be >= 2
    c1: float = 1.0           # Lie grid cutoff: q^(c1*k) <= l
    c2: float = 1.0           # Lie grid cutoff: k <= c2*ln(l)
    c3: float = 1.0           # Lie closed form, outer factor
    c4: float = 1.0           # Lie closed form, inner exponent
    c_lower: float = 1.0      # law-length lower bound constant
    sporadic_max: str = "E_1(100)"   # single order placeholder for all 26 sporadic groups
    cayley_cap: int = 100_000        # max order for indexed-group normal-structure work
    exhaust_cap: int = 100_000_000   # max evaluations for exhaustive law checks
    degree_cap: int = 64             # max permutation degree
    seed: int = 20260816             # seed for sampled modes, recorded in reports
    precision: int = 60              # working decimal digits for tower indexes

    def __post_init__(self) -> None:
        for f in fields(self):
            value, kind = getattr(self, f.name), type(f.default)
            kinds = (int, float) if kind is float else (kind,)
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise ValueError(f"config key {f.name} must be {kind.__name__}, "
                                 f"not {type(value).__name__}")
            if kind is float:
                # one configuration, one byte form: {"c": 4} echoes as 4.0
                try:
                    object.__setattr__(self, f.name, float(value))
                except OverflowError:
                    raise ValueError(f"config key {f.name} is too large for a float") from None
        if self.c < 2:
            raise ValueError("constant c must be >= 2")
        for name in ("c1", "c2", "c3", "c4", "c_lower"):
            if getattr(self, name) <= 0:
                raise ValueError(f"constant {name} must be positive")
        for name in ("cayley_cap", "exhaust_cap", "degree_cap"):
            if getattr(self, name) <= 0:
                raise ValueError(f"cap {name} must be positive")
        if self.precision < 50:
            raise ValueError("precision must be at least 50 digits")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def load_config(path: str | None = None) -> Config:
    """Build a Config from defaults, a JSON file, or the BURNSIDE_CONFIG env var.

    The env var holds a path to a JSON object whose keys are Config field
    names; unknown keys are rejected so typos do not silently vanish.
    """
    if path is None:
        path = os.environ.get(ENV_VAR)
    if not path:
        return Config()
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    known = {f.name for f in fields(Config)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    return Config(**data)
