"""Declarative run configuration: one JSON file plus flag overrides.

Loading re-validates every module invariant by constructing the parameter
dataclasses; a canonical hash of the merged configuration is echoed into
every output so runs can be traced back to their inputs. Every number is
read by ``bounds.read_number`` or ``bounds.read_integer``, the rule the
figure grids read theirs by, so a number in quotes is refused. A top-level
key outside CONFIG_KEYS is refused; the protocol and channel sections ignore
keys they do not read.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

from .adversary import STRATEGY_IDS
from .bounds import FIGURE_IDS, read_integer, read_number
from .channel import ChannelParams
from .protocol import ProtocolParams

FORMATS = ("csv", "json")
FIGURES = ("report", *FIGURE_IDS)
# the top-level keys of a config file; any other key is refused
CONFIG_KEYS = frozenset(
    "protocol channel seed trials format out figure strategy grid rejection_samples".split()
)
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
        if self.figure not in FIGURES:
            raise ValueError(f"figure must be one of {FIGURES}")
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


def _build_protocol(raw) -> ProtocolParams:
    if not isinstance(raw, dict):
        raise ValueError("protocol must be a JSON object")
    required = ("msg_len", "num_modes", "max_errors", "alpha", "squeezing")
    missing = [k for k in required if k not in raw]
    if missing:
        raise ValueError(f"protocol config missing keys: {', '.join(missing)}")
    return ProtocolParams(
        msg_len=read_integer(raw["msg_len"], "msg_len"),
        num_modes=read_integer(raw["num_modes"], "num_modes"),
        max_errors=read_integer(raw["max_errors"], "max_errors"),
        alpha=read_number(raw["alpha"], "alpha"),
        squeezing=read_number(raw["squeezing"], "squeezing"),
        codec_scheme=raw.get("codec_scheme", "oracle"),
    )


def _build_channel(raw) -> ChannelParams:
    if not isinstance(raw, dict):
        raise ValueError("channel must be a JSON object")
    if "transmittance" not in raw:
        raise ValueError("channel config needs a transmittance")
    return ChannelParams(
        transmittance=read_number(raw["transmittance"], "transmittance"),
        excess_noise=read_number(raw.get("excess_noise", 0.0), "excess_noise"),
        convention=raw.get("convention", "paper"),
    )


def load_config(path, overrides: dict | None = None) -> RunConfig:
    """Parse and validate a JSON config file, applying flag overrides. The
    file is read as UTF-8, as RFC 8259 has JSON, whatever the locale, by os
    calls: open() adds a buffered reader and fstat, isatty and lseek calls.
    A key outside CONFIG_KEYS, a number of the wrong type (a string, a
    bool, null) and an unknown figure, format or strategy raise ValueError
    naming the key; NaN and the infinities are left to the validators of
    the parameter dataclasses."""
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
    for key, value in (overrides or {}).items():
        if value is not None:
            raw[key] = value
    if not CONFIG_KEYS.issuperset(raw):
        key = next(key for key in raw if key not in CONFIG_KEYS)
        raise ValueError(f"{key} must be one of the config keys: {', '.join(sorted(CONFIG_KEYS))}")
    if "seed" not in raw:
        raise ValueError("config must define a seed (or pass --seed)")
    if "grid" in raw and not isinstance(raw["grid"], dict):
        raise ValueError("grid must be a JSON object mapping names to value ranges")
    if not isinstance(raw.get("out"), (str, type(None))):
        raise ValueError(f"out must be a file path string, got {raw['out']!r}")
    # raw becomes RunConfig's fields; a key the config leaves out takes its default
    if "format" in raw:
        raw["fmt"] = raw.pop("format")
    raw["protocol"] = _build_protocol(raw["protocol"])
    if raw.get("channel") is not None:
        raw["channel"] = _build_channel(raw["channel"])
    for key in ("seed", "trials", "rejection_samples"):
        if key in raw:
            raw[key] = read_integer(raw[key], key)
    return RunConfig(**raw)
