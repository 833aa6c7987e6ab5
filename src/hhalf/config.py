"""Run configuration shared by the command line subcommands."""

import json
import os

from dataclasses import dataclass

from .errors import GridError, ValidationError
from .fourier import SampleGrid, json_fields, json_integer, json_real
from .pullback import read_cutoff

config_env_var = "HHP_CONFIG"
max_grid_size = 2**20  # 16 MB of e^{i lift} samples per map
_fields = ("cutoff", "grid_size", "spectral_tol", "matrix_tol", "seed")


@dataclass(frozen=True)
class RunConfig:
    """Knobs every subcommand reads before touching its inputs.

    Attributes
    ----------
    cutoff : int
        Truncation order N for operators and period matrices.
    grid_size : int
        Sample count 4 <= M <= max_grid_size; pullbacks refuse a grid
        below 4 x their reach, M >= 4N for block matrices.
    spectral_tol : float
        Pass tolerance for coefficient-level checks (energy, kernels).
    matrix_tol : float
        Pass tolerance for matrix-level checks (Siegel, equivariance).
    seed : int
        Seed for every randomized trial set; fixes report bytes.

    The report path is not part of it: `--out` is a flag only.
    """

    cutoff: int = 32
    grid_size: int = 4096
    spectral_tol: float = 1e-8
    matrix_tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "cutoff", read_cutoff(self.cutoff))
        object.__setattr__(self, "grid_size", SampleGrid(self.grid_size).size)
        if self.grid_size > max_grid_size:
            raise GridError("grid size must be at most %d" % max_grid_size)
        object.__setattr__(self, "seed", json_integer(self.seed, "seed", 0))
        for name in ("spectral_tol", "matrix_tol"):
            value = json_real(getattr(self, name), name)
            if not value > 0.0:
                raise ValidationError("%s must be positive" % name)
            object.__setattr__(self, name, value)


def config_from_json(obj):
    """Build a RunConfig from a dict; missing fields keep defaults."""
    if not isinstance(obj, dict):
        raise ValidationError("RunConfig object must be a JSON object")
    json_fields(obj, _fields, "RunConfig")
    return RunConfig(**obj)


def json_argument(value, name):
    """Inline JSON when the value starts with '{', else a file path.

    NaN, Infinity and numbers that overflow to infinity parse as
    floats; the field reader of each value refuses them by name.  Text
    nested too deeply for the parser is invalid JSON too.
    """
    if value.lstrip().startswith("{"):
        try:
            return json.loads(value)
        except (ValueError, RecursionError) as exc:
            raise ValidationError("%s is not valid JSON: %s" % (name, exc))
    try:
        with open(value) as handle:
            return json.load(handle)
    except OSError as exc:
        raise ValidationError("cannot read %s file: %s" % (name, exc))
    except (ValueError, RecursionError) as exc:
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
