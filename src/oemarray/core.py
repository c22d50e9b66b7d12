"""Domain types, unit conventions, coupling profiles, and shared diagnostics.

All rates and frequencies are dimensionless multiples of a single reference
linewidth ``kappa_ref``; the reference itself is carried in the config purely
for bookkeeping.

The steps other modules share live here once: ``_read_doc`` reads config
files for ``load_config`` and the CLI, and ``_write_csv`` and ``_write_json``
fix the two data-file formats.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConfigError",
    "SingularMatrixError",
    "SpectrumError",
    "SiteParams",
    "CouplingProfile",
    "ArrayConfig",
    "FrequencyGrid",
    "materialize_sites",
    "adiabaticity_margin",
    "classical_cooperativity",
    "gamma_linear_profile",
    "config_to_dict",
    "config_from_dict",
    "load_config",
    "SCHEMA_VERSION",
]

SCHEMA_VERSION = "1"


class ConfigError(ValueError):
    """A config document failed validation or could not be parsed."""


class SingularMatrixError(ArithmeticError):
    """A matrix inversion hit an (exactly or numerically) singular system."""


class SpectrumError(RuntimeError):
    """A spectrum was too degenerate or under-resolved to analyze."""


def _number(name: str, value, *, ge=-math.inf, gt=-math.inf, le=math.inf, lt=math.inf):
    """``value`` if it is finite, >= ge, > gt, <= le and < lt, else a ValueError
    naming field ``name`` and the value.  NaN fails every comparison, and the
    defaults of ``gt`` and ``lt`` are the infinities, so any non-finite value fails."""
    if ge <= value <= le and gt < value < lt:
        return value
    bounds = "".join(f" and {op} {bound}" for op, bound in
                     ((">=", ge), (">", gt), ("<=", le), ("<", lt)) if abs(bound) < math.inf)
    raise ValueError(f"{name} must be finite{bounds}, got {value}")


def _count(name: str, value, minimum: int = 1):
    """``value`` if it is an integer >= ``minimum``, else a ValueError naming field
    ``name`` and the value.  A float (2.5, NaN, even 3.0) fails here, not in numpy."""
    integral = isinstance(value, numbers.Integral)
    if integral and value >= minimum:
        return value
    need = ("a positive integer" if minimum == 1 else
            f">= {minimum}" if integral else f"an integer >= {minimum}")
    raise ValueError(f"{name} must be {need}, got {value!r}")


def _write_csv(path, header: str, rows) -> None:
    """CSV with LF endings: the header line, then each row of numbers at 12
    significant digits, formatted by one ``%.12g`` line per row.  That
    prints a float, int or numpy scalar as ``f"{x:.12g}"`` does, fastest
    for Python floats (so callers pass ``.tolist()`` columns); a row whose
    width is not the header's raises TypeError.  ``rows`` may be a
    generator; rows are written as they come, to a temporary file beside
    ``path`` that replaces it only after the last row.  If producing or
    formatting a row fails, the temporary file is removed and ``path`` is
    left as it was."""
    line = ",".join(["%.12g"] * (header.count(",") + 1)) + "\n"
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline="\n") as fh:
            fh.write(header + "\n")
            fh.writelines(line % tuple(row) for row in rows)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _write_json(path, doc, sort_keys: bool = False) -> str:
    """Two-space indented JSON text of ``doc``; written with a final LF when
    ``path`` is given."""
    text = json.dumps(doc, indent=2, sort_keys=sort_keys)
    if path is not None:
        with open(path, "w", newline="\n") as fh:
            fh.write(text + "\n")
    return text


@dataclass(frozen=True)
class SiteParams:
    """Physical rates of one transducer, in units of kappa_ref.

    g1/g2 are the electro- and optomechanical coupling rates, kappa1/kappa2
    the microwave and optical cavity linewidths, gamma the mechanical
    linewidth (gamma = 0 is the lossless-mechanics limit).
    """

    g1: float
    g2: float
    kappa1: float
    kappa2: float
    gamma: float = 0.0

    def __post_init__(self) -> None:
        _number("g1", self.g1, ge=0)
        _number("g2", self.g2, ge=0)
        _number("kappa1", self.kappa1, gt=0)
        _number("kappa2", self.kappa2, gt=0)
        _number("gamma", self.gamma, ge=0)


@dataclass(frozen=True)
class CouplingProfile:
    """Rule generating per-site coupling rates.

    kind is one of "linear", "tanh", "explicit".  The linear rule places
    g1 = j*g_bar1/N and g2 = g_bar2*(1 - j/N) at site j.  The tanh rule acts
    in effective-rate space: with sigma(d) = (tanh(beta*(d - 1/2)) + 1)/2 and
    the padded position d = j/(N+1), the effective rates are
    Gamma1 = (g_bar1**2/kappa1_end)*sigma and
    Gamma2 = (g_bar2**2/kappa2_start)*(1 - sigma), converted back through
    g = sqrt(Gamma*kappa) at each site.  Explicit profiles list (g1, g2)
    pairs directly.
    """

    kind: str
    g_bar1: float = 0.0
    g_bar2: float = 0.0
    beta: float = 4.5
    explicit_values: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("linear", "tanh", "explicit"):
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if self.kind == "explicit":
            if not self.explicit_values:
                raise ValueError("explicit profile needs explicit_values")
            for i, pair in enumerate(self.explicit_values):
                if len(pair) != 2:
                    raise ValueError("explicit_values must be (g1, g2) pairs")
                for k, g in enumerate(pair):
                    _number(f"explicit_values[{i}][{k}]", g, ge=0)
        else:
            _number("g_bar1", self.g_bar1, ge=0)
            _number("g_bar2", self.g_bar2, ge=0)
            if self.kind == "tanh":
                _number("beta", self.beta, gt=0)

    @classmethod
    def linear(cls, g_bar1: float, g_bar2: float | None = None) -> "CouplingProfile":
        g_bar2 = g_bar1 if g_bar2 is None else g_bar2
        return cls(kind="linear", g_bar1=g_bar1, g_bar2=g_bar2)

    @classmethod
    def tanh(cls, g_bar1: float, g_bar2: float | None = None, beta: float = 4.5) -> "CouplingProfile":
        g_bar2 = g_bar1 if g_bar2 is None else g_bar2
        return cls(kind="tanh", g_bar1=g_bar1, g_bar2=g_bar2, beta=beta)

    @classmethod
    def explicit(cls, pairs) -> "CouplingProfile":
        return cls(kind="explicit", explicit_values=tuple((float(a), float(b)) for a, b in pairs))


def _as_ramp(value, name: str = "linewidth") -> tuple[float, float]:
    """Normalize a linewidth spec (scalar or (start, end)) to endpoints; any
    other length is a ValueError naming field ``name``."""
    ends = (value, value) if isinstance(value, (int, float)) else tuple(value)
    if len(ends) != 2:
        raise ValueError(f"{name} must be a number or a (start, end) pair, got {value!r}")
    return float(ends[0]), float(ends[1])


@dataclass(frozen=True)
class ArrayConfig:
    """Array size, coupling profile, linewidth rules, and bath parameters.

    kappa1 and kappa2 accept either a scalar (constant across the array) or a
    (start, end) pair that is interpolated linearly from site 1 to site N.
    """

    n_sites: int
    profile: CouplingProfile
    kappa1: float | tuple[float, float] = 1.0
    kappa2: float | tuple[float, float] = 1.0
    gamma: float = 0.0
    n_bar: float = 0.0
    kappa_ref: float = 1.0

    def __post_init__(self) -> None:
        _count("n_sites", self.n_sites)
        for name in ("kappa1", "kappa2"):
            for k in _as_ramp(getattr(self, name), name):
                _number(name, k, gt=0)
        _number("gamma", self.gamma, ge=0)
        _number("n_bar", self.n_bar, ge=0)
        _number("kappa_ref", self.kappa_ref, gt=0)
        if self.profile.kind == "explicit" and len(self.profile.explicit_values) != self.n_sites:
            raise ValueError(
                f"explicit profile lists {len(self.profile.explicit_values)} sites, "
                f"config says {self.n_sites}"
            )


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform Fourier-frequency grid relative to cavity resonance."""

    omega_min: float
    omega_max: float
    n_points: int

    def __post_init__(self) -> None:
        _number("omega_max", self.omega_max, gt=_number("omega_min", self.omega_min))
        _count("n_points", self.n_points, 2)

    def points(self) -> np.ndarray:
        return np.linspace(self.omega_min, self.omega_max, self.n_points)


def _linewidths(ramp, n: int) -> np.ndarray:
    """Per-site linewidths for a constant or endpoint-to-endpoint rule."""
    start, end = _as_ramp(ramp)
    if n == 1:
        # a lone site sits at the midpoint of the declared ramp
        return np.array([0.5 * (start + end)])
    return start + (end - start) * np.arange(n) / (n - 1)


def materialize_sites(config: ArrayConfig) -> list[SiteParams]:
    """Expand a config into its per-site physical parameters.

    Deterministic and pure: equal configs produce equal site lists.
    """
    n = config.n_sites
    k1 = _linewidths(config.kappa1, n)
    k2 = _linewidths(config.kappa2, n)
    prof = config.profile
    j = np.arange(1, n + 1)

    if prof.kind == "linear":
        g1 = j * prof.g_bar1 / n
        g2 = prof.g_bar2 * (1.0 - j / n)
    elif prof.kind == "tanh":
        d = j / (n + 1)
        sigma = 0.5 * (np.tanh(prof.beta * (d - 0.5)) + 1.0)
        # effective rates are pinned at the end where each coupling peaks:
        # g1 peaks at site N, g2 at site 1
        gamma_bar1 = _peak_rate(prof, "g_bar1", k1[-1])
        gamma_bar2 = _peak_rate(prof, "g_bar2", k2[0])
        g1 = np.sqrt(gamma_bar1 * sigma * k1)
        g2 = np.sqrt(gamma_bar2 * (1.0 - sigma) * k2)
    else:
        pairs = np.asarray(prof.explicit_values, dtype=float)
        g1 = pairs[:, 0]
        g2 = pairs[:, 1]

    gamma = float(config.gamma)
    return [SiteParams(*rates, gamma) for rates in
            zip(g1.tolist(), g2.tolist(), k1.tolist(), k2.tolist())]


def _peak_rate(prof: CouplingProfile, name: str, kappa) -> float:
    """The tanh profile's effective rate ``g_bar ** 2 / kappa`` for its field
    ``name``; a square that overflows names the field."""
    g_bar = getattr(prof, name)
    try:
        return g_bar ** 2 / kappa
    except OverflowError:  # a Python float squared
        raise OverflowError(f"profile.{name} = {g_bar!r} is too large: "
                            "its square overflows") from None


def adiabaticity_margin(config: ArrayConfig) -> float:
    """min_i of g_bar_i*sqrt(N)/kappa_i; > 1 marks the adiabatic regime.

    For varying linewidths or explicit profiles the most conservative
    combination (peak coupling, largest linewidth) is used per field.
    """
    n = config.n_sites
    sites = materialize_sites(config)
    if config.profile.kind == "explicit":
        gb1 = max(s.g1 for s in sites)
        gb2 = max(s.g2 for s in sites)
    else:
        gb1 = config.profile.g_bar1
        gb2 = config.profile.g_bar2
    k1 = max(s.kappa1 for s in sites)
    k2 = max(s.kappa2 for s in sites)
    root_n = math.sqrt(n)
    return min(gb1 * root_n / k1, gb2 * root_n / k2)


def classical_cooperativity(g: float, kappa: float, gamma: float) -> float:
    """4 g**2 / (kappa*gamma); gamma = 0 has the matrix limits instead."""
    _number("g", g, ge=0)
    _number("kappa", kappa, gt=0)
    _number("gamma", gamma, gt=0)
    return 4.0 * g * g / (kappa * gamma)


def gamma_linear_profile(n_sites: int, gamma_total: float,
                         kappa1: float = 1.0, kappa2: float = 1.0) -> CouplingProfile:
    """Linear coupling ramp parameterized by the summed conversion rate.

    ``gamma_total`` is the summed effective rate 2g^2/kappa of the
    reference transducer; the per-lane couplings ramp as g1_j = g*j/N and
    g2_j = g*(1 - j/N), so the last site decouples from lane 2 entirely.
    The single-site array is the balanced transducer (the ramp endpoints
    are unused at N = 1).
    """
    _count("n_sites", n_sites)
    _number("gamma_total", gamma_total, gt=0)
    _number("kappa1", kappa1, gt=0)
    _number("kappa2", kappa2, gt=0)
    g1_ref = np.sqrt(gamma_total * kappa1 / 2)
    g2_ref = np.sqrt(gamma_total * kappa2 / 2)
    if n_sites == 1:
        return CouplingProfile.explicit([(g1_ref, g2_ref)])
    j = np.arange(1, n_sites + 1)
    pairs = np.stack([g1_ref * j / n_sites, g2_ref * (1 - j / n_sites)], axis=1)
    return CouplingProfile.explicit(pairs)


# ---------------------------------------------------------------------------
# config (de)serialization

def _profile_to_dict(p: CouplingProfile) -> dict:
    if p.kind == "explicit":
        return {"kind": "explicit", "pairs": [list(pair) for pair in p.explicit_values]}
    d = {"kind": p.kind, "g_bar1": p.g_bar1, "g_bar2": p.g_bar2}
    if p.kind == "tanh":
        d["beta"] = p.beta
    return d


def _profile_from_dict(d: dict) -> CouplingProfile:
    if not isinstance(d, dict) or "kind" not in d:
        raise ConfigError("profile must be an object with a 'kind' field")
    kind = d["kind"]
    try:
        if kind == "explicit":
            return CouplingProfile.explicit(d["pairs"])
        if kind in ("linear", "tanh"):
            g1, g2 = (_as_float(d[k], f"profile.{k}") for k in ("g_bar1", "g_bar2"))
            if kind == "linear":
                return CouplingProfile.linear(g1, g2)
            return CouplingProfile.tanh(g1, g2, beta=_as_float(d.get("beta", 4.5),
                                                               "profile.beta"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {kind!r} profile: {exc}") from exc
    raise ConfigError(f"unknown profile kind {kind!r}")


def _ramp_to_json(value):
    start, end = _as_ramp(value)
    return start if start == end else [start, end]


def _as_int(value, name: str) -> int:
    """``int(value)``; a boolean, a string, a float that is not a whole number
    (3.7, NaN, an infinity; ``10.0`` passes) or a value ``int`` cannot
    convert (null) is a ConfigError naming field ``name``."""
    if isinstance(value, (bool, str)) or (isinstance(value, float)
                                          and not value.is_integer()):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name} must be an integer: {exc}") from exc


def _as_float(value, name: str) -> float:
    """``float(value)``; a boolean, a string or a value ``float`` cannot
    convert (null, an integer beyond the float range) is a ConfigError naming
    field ``name``."""
    if isinstance(value, (bool, str)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError) as exc:  # float(10**400) overflows
        raise ConfigError(f"{name} must be a number: {exc}") from exc


def _ramp_from_json(value, name: str):
    if isinstance(value, (int, float)):
        return _as_float(value, name)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return tuple(_as_float(v, f"{name}[{i}]") for i, v in enumerate(value))
    raise ConfigError(f"{name} must be a number or a [start, end] pair")


def config_to_dict(config: ArrayConfig) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "n_sites": config.n_sites,
        "profile": _profile_to_dict(config.profile),
        "kappa1": _ramp_to_json(config.kappa1),
        "kappa2": _ramp_to_json(config.kappa2),
        "gamma": config.gamma,
        "n_bar": config.n_bar,
        "kappa_ref": config.kappa_ref,
    }


def _check_schema(doc) -> dict:
    """``doc`` itself, once it is a JSON object of the supported schema."""
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION!r})"
        )
    return doc


def _read_doc(path) -> dict:
    """Parse a JSON config file and check its schema; every failure is a
    ConfigError (malformed JSON with its line and column)."""
    try:
        with open(path, "r", encoding="utf-8") as fp:
            doc = json.load(fp)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return _check_schema(doc)


def config_from_dict(doc: dict) -> ArrayConfig:
    _check_schema(doc)
    for key in ("n_sites", "profile"):
        if key not in doc:
            raise ConfigError(f"config is missing required field {key!r}")
    try:
        return ArrayConfig(
            n_sites=_as_int(doc["n_sites"], "n_sites"),
            profile=_profile_from_dict(doc["profile"]),
            kappa1=_ramp_from_json(doc.get("kappa1", 1.0), "kappa1"),
            kappa2=_ramp_from_json(doc.get("kappa2", 1.0), "kappa2"),
            gamma=_as_float(doc.get("gamma", 0.0), "gamma"),
            n_bar=_as_float(doc.get("n_bar", 0.0), "n_bar"),
            kappa_ref=_as_float(doc.get("kappa_ref", 1.0), "kappa_ref"),
        )
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:  # float(10**400) overflows
        raise ConfigError(str(exc)) from exc


def load_config(path) -> ArrayConfig:
    """Read and validate a JSON config file."""
    return config_from_dict(_read_doc(path))
