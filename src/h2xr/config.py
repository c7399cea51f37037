"""Job configuration: strict flat key/value schema, text or JSON encoding.

A config is a flat mapping: `kind`, that kind's metric keys only (see
_KIND_SCHEMAS), then the job's own parameters.  Unknown keys, another
kind's keys and out-of-range values are rejected by name, and defaults
fill anything omitted, so load -> echo -> load is the identity.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import DomainError
from .hyperbolic import HPoint
from .metrics import KINDS, MetricSpec


def _positive(x):
    return x > 0.0 and math.isfinite(x)


# (type, default, predicate or None, description of the constraint)
_KIND = {"kind": ("str", "Product", lambda s: s in KINDS, f"one of {KINDS}")}
_KIND_SCHEMAS = {
    "Product": {"L": ("float", 1.0, _positive, "> 0")},
    "Warped": {
        "eps": ("float", 0.1, _positive, "> 0"),
        "center_x": ("float", 0.0, math.isfinite, "finite"),
        "center_y": ("float", 1.0, _positive, "> 0"),
        "r0": ("float", 0.5, _positive, "> 0"),
        "r1": ("float", 0.75, _positive, "> 0"),
    },
    "Twisted": {
        "alpha": ("float", 1e-3, math.isfinite, "finite"),
        "potential": ("str", "log_y", None, ""),
    },
}

_POINT = {
    "q0_x": ("float", 0.0, math.isfinite, "finite"),
    "q0_y": ("float", 1.0, _positive, "> 0"),
    "q0_t": ("float", 0.0, math.isfinite, "finite"),
}
_DIRECTION = {
    "v0_x": ("float", 0.0, math.isfinite, "finite"),
    "v0_y": ("float", 0.0, math.isfinite, "finite"),
    "v0_t": ("float", 0.0, math.isfinite, "finite"),
}
_BOX = {
    "box_x0": ("float", -1.0, math.isfinite, "finite"),
    "box_x1": ("float", 1.0, math.isfinite, "finite"),
    "box_y0": ("float", 0.5, _positive, "> 0"),
    "box_y1": ("float", 2.0, _positive, "> 0"),
    "box_t0": ("float", 0.0, math.isfinite, "finite"),
    "box_t1": ("float", 1.0, math.isfinite, "finite"),
}
_SEED = {"seed": ("int", 0, None, "")}

JOB_SCHEMAS = {
    "scan-conjugate": {
        **_SEED,
        "count": ("int", 200, lambda n: n >= 1, ">= 1"),
        "Tmax": ("float", 50.0, _positive, "> 0"),
        "step": ("float", 1e-3, _positive, "> 0"),
    },
    "jacobi": {
        **_SEED, **_POINT, **_DIRECTION,
        "v0_x": ("float", 1.0, math.isfinite, "finite"),  # default: horizontal run
        "T": ("float", 10.0, _positive, "> 0"),
        "step": ("float", 1e-3, _positive, "> 0"),
    },
    "riccati-stable": {
        **_SEED, **_POINT, **_DIRECTION,
        "v0_y": ("float", 1.0, math.isfinite, "finite"),  # default: upward run
        "T": ("float", 40.0, _positive, "> 0"),
        "anchor": ("float", 20.0, _positive, "> 0"),
        "step": ("float", 1e-3, _positive, "> 0"),
    },
    "riccati-average": {
        **_SEED, **_BOX, **_POINT,
        "N": ("int", 100, lambda n: n >= 1, ">= 1"),
        "anchor": ("float", 20.0, _positive, "> 0"),
        "step": ("float", 1e-2, _positive, "> 0"),
        "sampler": ("str", "box", lambda s: s in ("box", "point"), "box or point"),
    },
    "busemann": {
        **_SEED, **_POINT,
        "s_max": ("float", 40.0, _positive, "> 0"),
        "s_count": ("int", 40, lambda n: n >= 2, ">= 2"),
    },
    "volume-growth": {
        **_SEED,
        "R_max": ("float", 30.0, lambda r: r >= 20.0, ">= 20"),
        "R_count": ("int", 16, lambda n: n >= 2, ">= 2"),
        "kappa": ("float", 1.0, _positive, "> 0"),
    },
    "spectrum": {
        **_SEED,
        "sigma_file": ("str", None, None, "required"),
        "cutoff": ("float", 10.0, _positive, "> 0"),
    },
    "length-spectrum": {
        **_SEED,
        "generators_file": ("str", None, None, "required"),
        "max_word": ("int", 4, lambda n: 0 <= n <= 8, "in [0, 8]"),
        "n_max": ("int", 1, lambda n: n >= 0, ">= 0"),
    },
    "isoperimetric": {
        **_SEED,
        "r_list": ("floats", (0.5, 1.0, 2.0), lambda v: all(x > 0 for x in v), "all > 0"),
        "w_list": ("floats", (0.5, 1.0), lambda v: all(x > 0 for x in v), "all > 0"),
        "ell": ("float", 2.0, _positive, "> 0"),
        "v_list": ("floats", (), lambda v: all(x >= 0 for x in v), "all >= 0"),
    },
    "curvature-deviation": {
        **_SEED, **_BOX,
        "N": ("int", 1000, lambda n: n >= 100, ">= 100"),
    },
    "gap-constant": {
        **_SEED,
        "lambda1": ("float", 2.0, _positive, "> 0"),
        "diam": ("float", 1.0, _positive, "> 0"),
    },
    "moduli-dim": {
        **_SEED,
        "genus": ("int", 2, lambda n: n >= 2, ">= 2"),
    },
    "ledger": {**_SEED},
}

SUBCOMMANDS = tuple(sorted(JOB_SCHEMAS))


@dataclass(frozen=True)
class JobConfig:
    """Validated job description: subcommand, metric, parameters."""

    job: str
    metric: MetricSpec
    params: dict
    echo: dict

    def seeded(self, seed: int | None) -> "JobConfig":
        if seed is None:
            return self
        params = dict(self.params, seed=int(seed))
        echo = dict(self.echo, seed=int(seed))
        return JobConfig(self.job, self.metric, params, echo)


def _parse_value(key, kind, raw):
    if isinstance(raw, str):
        raw = raw.strip()
    try:
        if kind == "int":
            if isinstance(raw, bool) or isinstance(raw, float) and raw != int(raw):
                raise ValueError("not an integer")
            if isinstance(raw, str) and not raw.lstrip("+-").isdigit():
                raise ValueError("not an integer")
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "floats":
            if isinstance(raw, (list, tuple)):
                return tuple(float(x) for x in raw)
            if raw == "":
                return ()
            return tuple(float(x) for x in raw.split(","))
        return str(raw)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"config key {key!r}: cannot parse {raw!r} as {kind}") from exc


def _read_mapping(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DomainError(f"malformed JSON config {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise DomainError(f"JSON config {path} must encode an object")
        return data
    data = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise DomainError(f"{path}:{lineno}: expected 'key: value', got {line!r}")
        key, _, value = line.partition(":")
        key = key.strip()
        if key in data:
            raise DomainError(f"{path}:{lineno}: duplicate key {key!r}")
        data[key] = value.strip()
    return data


def build_config(data: dict, job: str | None = None) -> JobConfig:
    """Validate a flat mapping against the schema of its job."""
    data = dict(data)
    file_job = data.pop("job", None)
    if file_job is not None and job is not None and file_job != job:
        raise DomainError(
            f"config key 'job': file says {file_job!r} but the subcommand is {job!r}"
        )
    job = job or file_job
    if job is None:
        raise DomainError("no job given: pass a subcommand or a 'job' config key")
    if job not in JOB_SCHEMAS:
        raise DomainError(f"unknown job {job!r}; expected one of {SUBCOMMANDS}")

    # an unknown kind has no keys of its own and fails the range check of 'kind'
    kind = _parse_value("kind", "str", data.get("kind", _KIND["kind"][1]))
    metric_schema = {**_KIND, **_KIND_SCHEMAS.get(kind, {})}
    schema = {**metric_schema, **JOB_SCHEMAS[job]}
    values = {}
    for key, (typ, default, check, constraint) in schema.items():
        if key in data:
            val = _parse_value(key, typ, data[key])
        elif default is None:
            raise DomainError(f"config key {key!r} is required for job {job!r}")
        else:
            val = default
        if check is not None and not check(val):
            raise DomainError(f"config key {key!r}: value {val!r} out of range ({constraint})")
        values[key] = val

    for key in sorted(set(data) - set(schema)):
        owner = [k for k, keys in _KIND_SCHEMAS.items() if key in keys]
        if owner:
            raise DomainError(f"config key {key!r} belongs to kind {owner[0]!r}, not {kind!r}")
        raise DomainError(f"unknown config key {key!r} for job {job!r}")
    if kind == "Warped" and not values["r0"] < values["r1"]:
        raise DomainError("config key 'r0': must satisfy r0 < r1")

    metric = _build_metric(values)
    params = {k: values[k] for k in JOB_SCHEMAS[job]}
    echo = {"job": job}
    echo.update({k: values[k] for k in metric_schema})
    echo.update(params)
    return JobConfig(job=job, metric=metric, params=params, echo=echo)


def _build_metric(v: dict) -> MetricSpec:
    kind = v["kind"]
    if kind == "Product":
        return MetricSpec.product(v["L"])
    if kind == "Warped":
        return MetricSpec.warped(v["eps"], HPoint(v["center_x"], v["center_y"]), v["r0"], v["r1"])
    return MetricSpec.twisted(v["alpha"], v["potential"])


def load_config(path, job: str | None = None) -> JobConfig:
    """Read, parse and validate a config file (text or JSON encoding)."""
    return build_config(_read_mapping(path), job)
