"""Plain-text experiment configuration.

One `key = value` pair per line, `#` starts a comment.  The key set is
closed: unknown keys are rejected so a typo cannot silently fall back to a
default.  emit_config writes the canonical form, and parsing that text
reproduces the config exactly (floats go through repr).
"""

from dataclasses import dataclass, fields

from .assim import SOLVERS
from .grid import Grid, build_tiles

FORMULATIONS = SOLVERS + ("dd4dvar",)

_REQUIRED = object()


@dataclass
class ExperimentConfig:
    # grid
    nx: int = _REQUIRED
    ny: int = _REQUIRED
    dt: float = 0.2
    n_steps: int = 6
    # model
    model: str = "linear"
    boundary: str = "prescribed"
    advect_u: float = 0.7
    advect_v: float = -0.4
    viscosity: float = 0.15
    # background covariance
    sigma_x: float = 0.5
    length_x: float = 2.0
    sigma_f: float = 0.05
    length_f: float = 2.0
    sigma_b: float = 0.1
    length_b: float = 2.0
    # observations
    n_obs: int = 12
    sigma_o: float = 0.1
    obs_file: str = ""
    # decomposition
    ntile_i: int = 1
    ntile_j: int = 1
    halo: int = 2
    n_t: int = 1
    # solve
    formulation: str = _REQUIRED
    n_outer: int = 1
    n_inner: int = 25
    solver_tol: float = 1e-10
    # domain decomposition
    n_bar: int = 50
    tau_dd: float = 1e-10
    inner_tol: float = 1e-4
    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 1.0
    omega: float = 1.0
    # diagnostics
    impact: bool = False
    impact_col: int = -1
    impact_n_avg: int = -1
    # run
    seed: int = _REQUIRED
    out_dir: str = "runs"

    def validate(self):
        """Check every field; raise ValueError naming the first bad one."""
        def bad(name, why):
            raise ValueError(f"config field {name}: {why}")

        for f in fields(self):
            if getattr(self, f.name) is _REQUIRED:
                bad(f.name, "mandatory key is missing")
        if self.nx < 4 or self.ny < 4:
            bad("nx" if self.nx < 4 else "ny", "grid needs at least 4 points")
        if self.dt <= 0:
            bad("dt", "must be > 0")
        if self.n_steps < 1:
            bad("n_steps", "must be >= 1")
        if self.model not in ("linear", "burgers"):
            bad("model", f"unknown model {self.model!r}")
        if self.boundary not in ("periodic", "prescribed"):
            bad("boundary", f"unknown boundary {self.boundary!r}")
        if self.viscosity < 0:
            bad("viscosity", "must be >= 0")
        for name in ("sigma_x", "length_x", "sigma_f", "length_f", "sigma_b",
                     "length_b", "sigma_o"):
            if getattr(self, name) <= 0:
                bad(name, "must be > 0")
        if self.n_obs < 1:
            bad("n_obs", "must be >= 1")
        if self.ntile_i < 1:
            bad("ntile_i", "must be >= 1")
        if self.ntile_j < 1:
            bad("ntile_j", "must be >= 1")
        if self.halo < 1:
            bad("halo", "must be >= 1")
        if self.n_t < 1:
            bad("n_t", "must be >= 1")
        if self.n_t > self.n_steps:
            bad("n_t", f"cannot exceed n_steps={self.n_steps}")
        if self.formulation not in FORMULATIONS:
            bad("formulation", f"unknown formulation {self.formulation!r}, "
                f"pick from {FORMULATIONS}")
        if self.n_outer < 1:
            bad("n_outer", "must be >= 1")
        if self.formulation == "dd4dvar" and self.n_outer > 1:
            bad("n_outer", "dd4dvar runs one outer loop (it does not "
                "relinearize); set n_outer = 1")
        if self.n_inner < 1:
            bad("n_inner", "must be >= 1")
        if self.solver_tol <= 0:
            bad("solver_tol", "must be > 0")
        if self.n_bar < 1:
            bad("n_bar", "must be >= 1")
        if self.tau_dd <= 0:
            bad("tau_dd", "must be > 0")
        if self.inner_tol <= 0:
            bad("inner_tol", "must be > 0")
        if self.alpha <= 0:
            # the preconditioner scales the prior by 1 / alpha: zero
            # divides by zero, a negative value makes it negative definite
            bad("alpha", "must be > 0")
        if not 0.0 < self.omega < 2.0:
            bad("omega", "must lie in (0, 2)")
        if self.formulation == "dd4dvar" and self.boundary == "periodic" \
                and self.ntile_i * self.ntile_j > 1:
            bad("boundary", "periodic runs cannot be decomposed into "
                "multiple tiles")
        if self.formulation == "dd4dvar":
            if self.ntile_i > self.nx:
                bad("ntile_i", f"cannot exceed nx={self.nx}")
            if self.ntile_j > self.ny:
                bad("ntile_j", f"cannot exceed ny={self.ny}")
            try:
                build_tiles(Grid(nx=self.nx, ny=self.ny), self.ntile_i,
                            self.ntile_j, self.halo)
            except ValueError as exc:
                bad("halo", str(exc))
        if self.impact_col != -1 and not 0 <= self.impact_col < self.nx:
            bad("impact_col", f"must be -1 or inside [0, {self.nx})")
        if self.impact_n_avg != -1 and not 1 <= self.impact_n_avg <= self.n_steps:
            bad("impact_n_avg", f"must be -1 or inside [1, {self.n_steps}]")
        return self


_BOOLS = {"true": True, "false": False}


def _convert(key, raw, target, lineno):
    try:
        if target is bool:
            if raw not in _BOOLS:
                raise ValueError
            return _BOOLS[raw]
        if target is int:
            return int(raw)
        if target is float:
            return float(raw)
        return raw
    except ValueError:
        raise ValueError(f"line {lineno}: invalid value {raw!r} for key "
                         f"{key!r} (expected {target.__name__})") from None


def parse_config(text):
    """Parse `key = value` text into a validated ExperimentConfig."""
    types = {f.name: f.type for f in fields(ExperimentConfig)}
    casts = {"int": int, "float": float, "str": str, "bool": bool}
    seen = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected `key = value`, got "
                             f"{line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in types:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        target = casts[types[key]] if isinstance(types[key], str) \
            else types[key]
        seen[key] = _convert(key, raw, target, lineno)
    cfg = ExperimentConfig(**seen)
    missing = [f.name for f in fields(cfg) if getattr(cfg, f.name) is _REQUIRED]
    if missing:
        raise ValueError(f"missing mandatory key {missing[0]!r}")
    return cfg.validate()


def emit_config(cfg):
    """Canonical text form; parse_config(emit_config(c)) == c."""
    lines = []
    for f in fields(cfg):
        val = getattr(cfg, f.name)
        if isinstance(val, bool):
            text = "true" if val else "false"
        elif isinstance(val, float):
            text = repr(val)
        else:
            text = str(val)
        lines.append(f"{f.name} = {text}")
    return "\n".join(lines) + "\n"
