"""Serialization: CSV for grid fields, JSON for reports and manifests.

Conventions
-----------
* CSV floats are written with ``repr``, which round-trips exactly in
  binary64, so a written field can be compared bit-for-bit.
* JSON is written with sorted keys and a stable indent, so identical
  inputs produce identical bytes.
* Every CLI result carries a ``manifest`` with a SHA-256 of the
  canonicalized configuration plus run metadata.  Wall-clock times live
  only under the manifest's ``timing`` key; determinism comparisons
  should drop that key (see :func:`strip_timing`) and compare the rest
  byte-for-byte.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
from typing import Any, Optional

import numpy as np

__all__ = [
    "SCHEMA_VERSION",
    "ConfigError",
    "json_default",
    "dump_json",
    "load_config",
    "config_sha256",
    "make_manifest",
    "strip_timing",
    "field_to_dict",
    "stats_to_dict",
    "write_field_csv",
    "read_field_csv",
]

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """A configuration file is missing, malformed or has bad values."""


def json_default(obj: Any):
    """Encoder fallback: numpy scalars/arrays, complex, dataclasses, sets."""
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return dataclasses.asdict(obj)
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def dump_json(obj: Any, path: Optional[str] = None) -> str:
    """Serialize deterministically (sorted keys); optionally write a file."""
    text = json.dumps(obj, sort_keys=True, indent=2, default=json_default)
    text += "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def load_config(path: str) -> dict:
    """Read a JSON configuration and validate its schema version."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    version = cfg.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"config schema_version must be {SCHEMA_VERSION}, got {version!r}")
    return cfg


def config_sha256(config: dict) -> str:
    """SHA-256 of the canonical (sorted-keys) JSON form of a config."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"),
                       default=json_default)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def make_manifest(command: str, config: dict,
                  extra: Optional[dict] = None) -> dict:
    """Run manifest: schema, command, config hash and run metadata."""
    from . import __version__

    manifest = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config_sha256": config_sha256(config),
        "package_version": __version__,
    }
    if extra:
        manifest.update(extra)
    return manifest


def strip_timing(manifest: dict) -> dict:
    """Copy of a manifest without the ``timing`` key, for determinism
    comparisons (wall times are the only run-to-run varying entries)."""
    return {k: v for k, v in manifest.items() if k != "timing"}


def _derivative_suffix(key: tuple) -> str:
    if not any(key):
        return ""
    return "_d" + "".join(str(int(k)) for k in key)


def field_to_dict(field) -> dict:
    """JSON-ready form of a grid field; wall time moves under ``timing``."""
    meta = dict(field.meta)
    timing = {}
    for name in ("wall_time",):
        if name in meta:
            timing[name] = meta.pop(name)
    values = {}
    for key in sorted(field.values):
        arr = np.asarray(field.values[key], dtype=complex)
        values[",".join(str(int(k)) for k in key)] = {
            "re": arr.real.tolist(),
            "im": arr.imag.tolist(),
        }
    out = {
        "points": [np.asarray(p, dtype=float).tolist() for p in field.points],
        "values": values,
        "meta": meta,
    }
    if timing:
        out["timing"] = timing
    return out


def stats_to_dict(stats) -> dict:
    """JSON-ready form of streaming Monte Carlo moments."""
    mean = np.asarray(stats.mean, dtype=complex)
    out = {
        "n": int(stats.n),
        "mean_re": mean.real.tolist(),
        "mean_im": mean.imag.tolist(),
        "std_error": np.asarray(stats.std_error, dtype=float).tolist(),
        "failures": [
            {"index": int(idx), "error": str(err)}
            for idx, err in stats.failures
        ],
    }
    if getattr(stats, "pairs", ()):
        cov = np.asarray(stats.autocovariance, dtype=complex)
        out["autocovariance"] = {
            "pairs": [[int(p), int(q)] for p, q in stats.pairs],
            "re": cov.real.tolist(),
            "im": cov.imag.tolist(),
        }
    return out


def write_field_csv(field, path: str) -> None:
    """Write a grid field as CSV.

    One row per grid point: the ``x`` column first, then ``re`` / ``im``
    columns for the value and ``re_d<k>`` / ``im_d<k>`` for any derivative
    entries.  Floats are written with ``repr`` so they parse back to the
    identical binary64 values.
    """
    (xs,) = field.points
    xs = np.asarray(xs, dtype=float)
    keys = sorted(field.values)
    header = ["x"]
    columns = []
    for key in keys:
        suffix = _derivative_suffix(key)
        header += [f"re{suffix}", f"im{suffix}"]
        columns.append(np.broadcast_to(np.asarray(field.values[key], dtype=complex),
                                       xs.shape))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, x in enumerate(xs):
            row = [repr(float(x))]
            for col in columns:
                val = complex(col[i])
                row += [repr(val.real), repr(val.imag)]
            writer.writerow(row)


def read_field_csv(path: str) -> dict:
    """Read a CSV written by :func:`write_field_csv`.

    Returns ``{"header": [...], "columns": {name: float array}}``.
    """
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(cell) for cell in row] for row in reader]
    data = np.asarray(rows, dtype=float) if rows else np.zeros((0, len(header)))
    return {
        "header": header,
        "columns": {name: data[:, j] for j, name in enumerate(header)},
    }
