"""Declarative run configuration: one JSON file plus flag overrides.

Loading re-validates every module invariant by constructing the parameter
dataclasses; a canonical hash of the merged configuration is echoed into
every output so runs can be traced back to their inputs.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

from .adversary import STRATEGY_IDS
from .channel import ChannelParams
from .protocol import ProtocolParams

FORMATS = ("csv", "json")
# json.dumps builds an encoder per call when given a non-default argument
_CANONICAL_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class RunConfig:
    """Validated parameters for one CLI invocation."""

    protocol: ProtocolParams
    seed: int
    channel: ChannelParams | None = None
    trials: int = 10000
    fmt: str = "csv"
    out: str | None = None
    figure: str = "report"
    strategy: str = "heterodyne_split"
    grid: dict = field(default_factory=dict)
    rejection_samples: int = 2000

    def __post_init__(self):
        if self.fmt not in FORMATS:
            raise ValueError(f"format must be one of {FORMATS}")
        if self.trials < 0:
            raise ValueError("trials must be nonnegative")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        if self.strategy not in STRATEGY_IDS:
            raise ValueError(f"strategy must be one of {STRATEGY_IDS}")
        if self.rejection_samples < 1:
            raise ValueError("rejection_samples must be positive")

    def to_dict(self) -> dict:
        return {
            # asdict's flat dict for these dataclasses of scalars, without its deep copies
            "protocol": dict(vars(self.protocol)),
            "channel": None if self.channel is None else dict(vars(self.channel)),
            "seed": self.seed,
            "trials": self.trials,
            "format": self.fmt,
            "figure": self.figure,
            "strategy": self.strategy,
            "grid": self.grid,
            "rejection_samples": self.rejection_samples,
        }


def config_hash(config: RunConfig) -> str:
    """Short digest of the canonical configuration (output path excluded)."""
    canonical = _CANONICAL_ENCODER.encode(config.to_dict())
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _integer(raw: dict, key: str) -> int:
    """``raw[key]`` as an int; booleans, NaN, infinities and non-integral
    numbers fail with a message naming the key."""
    value = raw[key]
    try:
        if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
            raise ValueError
        return int(value)
    except (TypeError, ValueError):
        raise ValueError(f"{key} must be an integer, got {value!r}") from None


def _number(raw: dict, key: str, default=None) -> float:
    """``raw[key]`` as a float; null, booleans, lists, objects and ints past the
    float range fail naming the key (NaN and infinities are left to the validators)."""
    value = raw.get(key, default)
    try:
        if isinstance(value, bool):
            raise ValueError
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{key} must be a number, got {value!r}") from None


def _build_protocol(raw) -> ProtocolParams:
    if not isinstance(raw, dict):
        raise ValueError("protocol must be a JSON object")
    required = ("msg_len", "num_modes", "max_errors", "alpha", "squeezing")
    missing = [k for k in required if k not in raw]
    if missing:
        raise ValueError(f"protocol config missing keys: {', '.join(missing)}")
    return ProtocolParams(
        msg_len=_integer(raw, "msg_len"),
        num_modes=_integer(raw, "num_modes"),
        max_errors=_integer(raw, "max_errors"),
        alpha=_number(raw, "alpha"),
        squeezing=_number(raw, "squeezing"),
        codec_scheme=str(raw.get("codec_scheme", "oracle")),
    )


def _build_channel(raw) -> ChannelParams | None:
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise ValueError("channel must be a JSON object")
    if "transmittance" not in raw:
        raise ValueError("channel config needs a transmittance")
    return ChannelParams(
        transmittance=_number(raw, "transmittance"),
        excess_noise=_number(raw, "excess_noise", 0.0),
        convention=str(raw.get("convention", "paper")),
    )


def load_config(path, overrides: dict | None = None) -> RunConfig:
    """Parse and validate a JSON config file, applying flag overrides. The
    file is read as UTF-8, as RFC 8259 has JSON, whatever the locale, by os
    calls: open() adds a buffered reader and fstat, isatty and lseek calls."""
    data = bytearray()
    fd = os.open(path, os.O_RDONLY)
    try:
        while chunk := os.read(fd, 1 << 16):
            data += chunk
    except OSError as exc:
        # os.read's error names no file (a directory's EISDIR)
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    finally:
        os.close(fd)
    try:
        raw = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ValueError(f"config file {path} is not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError("config file must hold a JSON object")
    if "protocol" not in raw:
        raise ValueError("config file must define a 'protocol' section")
    merged = dict(raw)
    for key, value in (overrides or {}).items():
        if value is not None:
            merged[key] = value
    if "seed" not in merged:
        raise ValueError("config must define a seed (or pass --seed)")
    if "grid" in merged and not isinstance(merged["grid"], dict):
        raise ValueError("grid must be a JSON object mapping names to value ranges")
    out = merged.get("out")
    if out is not None and not isinstance(out, str):
        raise ValueError(f"out must be a file path string, got {out!r}")
    chosen = {
        "protocol": _build_protocol(merged["protocol"]),
        "channel": _build_channel(merged.get("channel")),
        "seed": _integer(merged, "seed"),
        "out": out,
    }
    # a key the config leaves out takes RunConfig's default
    for key in ("trials", "rejection_samples"):
        if key in merged:
            chosen[key] = _integer(merged, key)
    for key, name in (("format", "fmt"), ("figure", "figure"), ("strategy", "strategy")):
        if key in merged:
            chosen[name] = str(merged[key])
    if "grid" in merged:
        chosen["grid"] = merged["grid"]
    return RunConfig(**chosen)
