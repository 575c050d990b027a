"""Run configuration: the inputs that choose a run.

A run is fixed by the Hamiltonian (a preset or explicit coefficients), the
level parameter epsilon, the pole-sampling seed and the number of levels of
the resonance scan.  These five values round-trip through one JSON file and
are recorded in the validation report; CLI flags override individual keys.
Each value is checked when a config is built, so a bad one is a usage
error naming its key rather than a failure deep in the numerics.
Numerical tolerances and grid sizes are not run inputs: they are the
keyword defaults of the functions that use them.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace

PRESETS = {
    # Coefficients of the planar factor of the Hamiltonian.  `validated`
    # flips the sign of d so the origin is a saddle of the planar factor
    # (requires c*d < 0); `paper-figure` keeps d positive and serves as a
    # structural counterexample throughout the validation suite.
    "validated": {"a": -5.0 / 3.0, "b": -3.0 / 2.0, "c": 1.0, "d": -1.0 / 8.0},
    "paper-figure": {"a": -5.0 / 3.0, "b": -3.0 / 2.0, "c": 1.0, "d": 1.0 / 8.0},
}


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_finite(v) -> bool:
    return (_is_int(v) or isinstance(v, float)) and math.isfinite(v)


@dataclass
class RunConfig:
    preset: str = "validated"
    epsilon: float = 0.5
    coefficients: dict | None = None  # explicit {a,b,c,d} overrides preset
    seed: int = 0  # pole sampling of the stereographic projection
    scan_levels: int = 64  # levels of the resonance scan

    def __post_init__(self):
        """Reject a value no run can use, naming its key (ValueError)."""
        coeffs = self.coefficients
        if coeffs is not None:
            if not isinstance(coeffs, dict) \
                    or set(coeffs) != {"a", "b", "c", "d"}:
                raise ValueError("coefficients must have exactly the keys "
                                 f"a, b, c, d, got {coeffs!r}")
            bad = sorted(k for k, v in coeffs.items() if not _is_finite(v))
            if bad:
                raise ValueError(f"coefficients {', '.join(bad)} must be "
                                 f"finite numbers, got {coeffs!r}")
        elif not (isinstance(self.preset, str) and self.preset in PRESETS):
            raise ValueError(f"unknown preset {self.preset!r}")
        if not (_is_finite(self.epsilon) and self.epsilon > 0):
            raise ValueError("epsilon must be a finite number > 0, got "
                             f"{self.epsilon!r}")
        if not _is_int(self.seed):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if not (_is_int(self.scan_levels) and self.scan_levels >= 1):
            raise ValueError("scan_levels must be an integer >= 1, got "
                             f"{self.scan_levels!r}")

    def coefficient_dict(self) -> dict:
        if self.coefficients is not None:
            return dict(self.coefficients)
        return dict(PRESETS[self.preset])

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    def with_overrides(self, **kwargs) -> "RunConfig":
        kwargs = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **kwargs)
