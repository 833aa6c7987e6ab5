"""Run configuration shared by the command line subcommands."""

import json
import math
import os

from dataclasses import dataclass

from .errors import ValidationError
from .fourier import SampleGrid, json_fields, json_integer, json_real
from .pullback import read_cutoff

config_env_var = "HHP_CONFIG"
_fields = ("cutoff", "grid_size", "spectral_tol", "matrix_tol", "seed", "out")


@dataclass(frozen=True)
class RunConfig:
    """Knobs every subcommand reads before touching its inputs.

    Attributes
    ----------
    cutoff : int
        Truncation order N for operators and period matrices.
    grid_size : int
        Sample count M >= 4; pullbacks refuse a grid below 4 x their
        reach, M >= 4N for block matrices.
    spectral_tol : float
        Pass tolerance for coefficient-level checks (energy, kernels).
    matrix_tol : float
        Pass tolerance for matrix-level checks (Siegel, equivariance).
    seed : int
        Seed for every randomized trial set; fixes report bytes.
    out : str
        Default output path, or None for stdout only.
    """

    cutoff: int = 32
    grid_size: int = 4096
    spectral_tol: float = 1e-8
    matrix_tol: float = 1e-6
    seed: int = 0
    out: str = None

    def __post_init__(self):
        object.__setattr__(self, "cutoff", read_cutoff(self.cutoff))
        object.__setattr__(self, "grid_size", SampleGrid(self.grid_size).size)
        object.__setattr__(self, "seed", json_integer(self.seed, "seed"))
        for name in ("spectral_tol", "matrix_tol"):
            value = json_real(getattr(self, name), name)
            if not value > 0.0:
                raise ValidationError("%s must be positive" % name)
            object.__setattr__(self, name, value)
        if self.seed < 0:
            raise ValidationError("seed must be a nonnegative integer")
        if self.out is not None and not isinstance(self.out, str):
            raise ValidationError("out must be a path string or None")


def config_from_json(obj):
    """Build a RunConfig from a dict; missing fields keep defaults."""
    if not isinstance(obj, dict):
        raise ValidationError("RunConfig object must be a JSON object")
    json_fields(obj, _fields, "RunConfig")
    try:
        return RunConfig(**obj)
    except ValidationError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError("malformed RunConfig object: %s" % exc)


def _finite(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("non-finite number %s" % text)
    return value


def json_argument(value, name):
    """Inline JSON when the value starts with '{', else a file path.

    NaN, Infinity and numbers that overflow to infinity are refused
    like any other malformed input.
    """
    strict = {"parse_constant": _finite, "parse_float": _finite}
    if value.lstrip().startswith("{"):
        try:
            return json.loads(value, **strict)
        except ValueError as exc:
            raise ValidationError("%s is not valid JSON: %s" % (name, exc))
    try:
        with open(value) as handle:
            return json.load(handle, **strict)
    except OSError as exc:
        raise ValidationError("cannot read %s file: %s" % (name, exc))
    except ValueError as exc:
        raise ValidationError(
            "%s file %s is not valid JSON: %s" % (name, value, exc)
        )


def config_from_env(environ=None):
    """Default config, overridden by HHP_CONFIG.

    The variable holds either inline JSON (leading brace) or the path
    of a JSON file, read as the command line flags are.
    """
    environ = os.environ if environ is None else environ
    value = environ.get(config_env_var, "")
    if not value:
        return RunConfig()
    return config_from_json(json_argument(value, config_env_var))
