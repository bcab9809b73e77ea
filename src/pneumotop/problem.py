"""Problem-file schema, validation, and the resolved problem specification.

A problem is one JSON document; every physical quantity carries its unit in
the key name (``h_m``, ``P_in_pa``, ``k_out_n_per_m``). The schema rejects
unknown keys so silent typos cannot change a run.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path

import jsonschema

from .adjoint import ObjectiveSpec
from .errors import ConfigError
from .grid import REGION_ROLES, BoundaryRegion, GridSpec
from .materials import FlowParams, MaterialSet, drainage_for_wall

CLOSURE_MODES = ("none", "heuristic", "skin", "energy_penalty")

_BOX = {
    "type": "array",
    "minItems": 2,
    "maxItems": 2,
    "items": {
        "type": "array",
        "minItems": 2,
        "maxItems": 3,
        "items": {"type": "number"},
    },
}

SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["grid", "regions", "materials", "flow", "volume_fractions"],
    "properties": {
        "name": {"type": "string"},
        "grid": {
            "type": "object",
            "additionalProperties": False,
            "required": ["dim", "nel", "h_m"],
            "properties": {
                "dim": {"enum": [2, 3]},
                "nel": {
                    "type": "array",
                    "minItems": 2,
                    "maxItems": 3,
                    "items": {"type": "integer", "minimum": 1},
                },
                "h_m": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "regions": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["role", "box_m"],
                "properties": {
                    "role": {"enum": list(REGION_ROLES)},
                    "box_m": _BOX,
                    "direction": {
                        "type": "array",
                        "minItems": 2,
                        "maxItems": 3,
                        "items": {"type": "number"},
                    },
                    "k_out_n_per_m": {"type": "number", "minimum": 0},
                    "name": {"type": "string"},
                },
            },
        },
        "materials": {
            "type": "object",
            "additionalProperties": False,
            "required": ["E_pa"],
            "properties": {
                "E_pa": {
                    "type": "array",
                    "minItems": 1,
                    "maxItems": 3,
                    "items": {"type": "number", "exclusiveMinimum": 0},
                },
                "E_min_pa": {"type": "number", "exclusiveMinimum": 0},
                "nu": {"type": "number", "minimum": 0, "exclusiveMaximum": 0.5},
                "penalty": {"type": "number", "minimum": 1},
            },
        },
        "flow": {
            "type": "object",
            "additionalProperties": False,
            "required": ["P_in_pa"],
            "properties": {
                "P_in_pa": {"type": "number"},
                "p_atm_pa": {"type": "number"},
                "K_v": {"type": "number", "exclusiveMinimum": 0},
                "K_s": {"type": "number", "exclusiveMinimum": 0},
                "beta_kappa": {"type": "number", "exclusiveMinimum": 0},
                "eta_kappa": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                "beta_drain": {"type": "number", "exclusiveMinimum": 0},
                "eta_drain": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                "drain_ratio": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                "D_s": {"type": "number", "minimum": 0},
            },
        },
        "volume_fractions": {
            "type": "array",
            "minItems": 1,
            "maxItems": 3,
            "items": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
        },
        "objective": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "variant": {"enum": ["baseline", "energy_penalty"]},
                "n": {"type": "number", "minimum": 1},
                "s": {"anyOf": [{"type": "number", "exclusiveMinimum": 0}, {"const": "auto"}]},
            },
        },
        "filter": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "r_min_elems": {"type": "number", "exclusiveMinimum": 0},
                "eta_p": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                "beta_p_initial": {"type": "number", "minimum": 1},
                "beta_p_max": {"type": "number", "minimum": 1},
                "beta_p_double_every": {"type": "integer", "minimum": 1},
            },
        },
        "optimizer": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "max_iters": {"type": "integer", "minimum": 0},
                "move_limit": {"type": "number", "exclusiveMinimum": 0, "maximum": 0.5},
                "change_tol": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "closure": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "mode": {"enum": list(CLOSURE_MODES)},
                "skin_thickness_elems": {"type": "integer", "minimum": 1},
            },
        },
        "passive": {
            "type": "array",
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["tag", "box_m"],
                "properties": {
                    "tag": {"enum": ["solid", "void"]},
                    "material": {"type": "integer", "minimum": 1, "maximum": 3},
                    "box_m": _BOX,
                },
            },
        },
    },
}


@dataclass(frozen=True)
class FilterSpec:
    r_min_elems: float
    eta_p: float = 0.5
    beta_p_initial: float = 1.0
    beta_p_max: float = 16.0
    beta_p_double_every: int = 40


@dataclass(frozen=True)
class OptSettings:
    max_iters: int = 300
    move_limit: float = 0.2
    change_tol: float = 0.01

    def __post_init__(self):
        if not 0 < self.move_limit <= 0.5:
            raise ConfigError(f"move limit must be in (0, 0.5], got {self.move_limit}")
        if not self.change_tol > 0:
            raise ConfigError(f"change tolerance must be > 0, got {self.change_tol}")
        if self.max_iters < 0:
            raise ConfigError(f"max_iters must be >= 0, got {self.max_iters}")


@dataclass(frozen=True)
class ClosureSpec:
    mode: str = "none"
    skin_thickness_elems: int = 1


@dataclass(frozen=True)
class PassiveBox:
    tag: str  # "solid" | "void"
    box: tuple
    material: int = 1


@dataclass(frozen=True)
class ProblemSpec:
    """Fully validated problem with all defaults resolved.

    The rules that span sections are checked here, so a spec changed by
    ``dataclasses.replace`` is checked again; messages name the file keys.

    Pressures are bounded: ``|P_in|`` and ``|p_atm|`` at most 1e150 Pa and
    the gauge ``P_in - p_atm`` at least 1e-100 Pa. The energies and the
    solvers' norms and inner products are quadratic in the pressure, so
    they overflow past about 1e154 Pa and underflow below about 1e-145 Pa
    on the packaged fixtures (to a silent ``u_out`` of 0 in 2-D); the
    lower bound keeps the wider margin, since the moduli and ``h`` scale
    those squares down.
    """

    name: str
    grid: GridSpec
    regions: tuple
    materials: MaterialSet
    flow: FlowParams
    volume_fractions: tuple
    objective: ObjectiveSpec
    filter: FilterSpec
    optimizer: OptSettings = field(default_factory=OptSettings)
    closure: ClosureSpec = field(default_factory=ClosureSpec)
    passive: tuple = ()

    def __post_init__(self):
        vf = tuple(float(v) for v in self.volume_fractions)
        object.__setattr__(self, "volume_fractions", vf)
        dim, n_mat = self.grid.dim, self.materials.n_channels
        if len(vf) != n_mat:
            raise ConfigError(
                f"$.volume_fractions: expected {n_mat} entries (one per material), "
                f"got {len(vf)}"
            )
        if not all(v > 0 for v in vf):
            raise ConfigError(f"$.volume_fractions: each must be > 0, got {vf}")
        if not sum(vf) <= 1.0 + 1e-12:
            raise ConfigError(f"$.volume_fractions: sum {sum(vf):.4g} exceeds 1")

        flow = self.flow
        for key, value in (("P_in_pa", flow.P_in), ("p_atm_pa", flow.p_atm)):
            if not abs(value) <= 1e150:
                raise ConfigError(f"$.flow.{key}: |{value:g}| Pa exceeds 1e150 Pa")
        if not flow.P_in - flow.p_atm >= 1e-100:
            raise ConfigError(
                f"$.flow.P_in_pa: gauge P_in - p_atm = {flow.P_in - flow.p_atm:g} Pa "
                f"is below 1e-100 Pa"
            )

        for i, r in enumerate(self.regions):
            if any(len(b) != dim for b in r.box):
                raise ConfigError(f"$.regions[{i}].box_m: expected {dim} coordinates")
            if r.direction is not None and len(r.direction) != dim:
                raise ConfigError(f"$.regions[{i}].direction: expected {dim} components")
        roles = [r.role for r in self.regions]
        if "pressure_inlet" not in roles:
            raise ConfigError("$.regions: no pressure_inlet region defined")
        if roles.count("output") != 1:
            raise ConfigError(
                f"$.regions: exactly one output region required, found "
                f"{roles.count('output')}"
            )
        if "fixed_support" not in roles:
            raise ConfigError("$.regions: no fixed_support region defined")

        for i, p in enumerate(self.passive):
            if any(len(b) != dim for b in p.box):
                raise ConfigError(f"$.passive[{i}].box_m: expected {dim} coordinates")
            if p.tag == "solid" and p.material > n_mat:
                raise ConfigError(
                    f"$.passive[{i}]: material {p.material} exceeds the "
                    f"{n_mat} defined materials"
                )


# File keys that differ from their spec field names; every other key is
# its field's name.
FIELD_NAMES = {
    "h_m": "h",
    "box_m": "box",
    "k_out_n_per_m": "k_out",
    "E_pa": "E",
    "E_min_pa": "E_min",
    "P_in_pa": "P_in",
    "p_atm_pa": "p_atm",
    "beta_kappa": "beta_k",
    "eta_kappa": "eta_k",
    "beta_drain": "beta_d",
    "eta_drain": "eta_d",
}


def fixture_path(name: str) -> Path:
    """Path of a packaged fixture problem file."""
    ref = resources.files("pneumotop") / "fixtures" / f"{name}.json"
    with resources.as_file(ref) as p:
        if not p.exists():
            raise ConfigError(f"unknown fixture {name!r}")
        return Path(p)


def available_fixtures() -> list[str]:
    ref = resources.files("pneumotop") / "fixtures"
    return sorted(p.name[:-5] for p in ref.iterdir() if p.name.endswith(".json"))


def load_problem(
    path_or_name: str | Path, *, closure: str | None = None, max_iters: int | None = None
) -> ProblemSpec:
    """Load, schema-validate, and resolve a problem file or fixture name.

    ``closure`` and ``max_iters``, when given, replace the file's closure
    mode and iteration limit before validation, so the schema checks them
    and a closure of ``energy_penalty`` selects that objective variant.
    """
    path = Path(path_or_name)
    if not path.exists() and not path.suffix:
        path = fixture_path(str(path_or_name))
    if not path.exists():
        raise ConfigError(f"problem file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except (OSError, ValueError) as exc:  # ValueError covers JSON and decoding errors
        raise ConfigError(f"{path}: cannot read problem file ({exc})") from exc
    for section, key, value in (("closure", "mode", closure),
                                ("optimizer", "max_iters", max_iters)):
        # a section that is not an object is left for the schema to reject
        if value is not None and isinstance(raw, dict) and isinstance(
            raw.setdefault(section, {}), dict
        ):
            raw[section][key] = value
    return parse_problem(raw, default_name=path.stem)


def _non_finite_path(node, path: str = "$") -> str | None:
    """JSON path of the first NaN or infinite number in a document, or None.

    The schema's bounds are comparisons, and comparisons with NaN are false."""
    if isinstance(node, float) and not math.isfinite(node):
        return path
    if isinstance(node, (dict, list)):
        keyed = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in keyed:
            sub = f"{path}.{key}" if isinstance(node, dict) else f"{path}[{key}]"
            found = _non_finite_path(value, sub)
            if found is not None:
                return found
    return None


def _fields(section: dict) -> dict:
    """A file section as keyword arguments of its spec dataclass: keys
    renamed by FIELD_NAMES, arrays turned into tuples. A key the file
    leaves out takes the dataclass default."""
    return {FIELD_NAMES.get(k, k): _tuples(v) for k, v in section.items()}


def _tuples(value):
    return tuple(_tuples(v) for v in value) if isinstance(value, list) else value


def parse_problem(raw: dict, default_name: str = "problem") -> ProblemSpec:
    """Validate a problem dictionary and build the resolved ProblemSpec."""
    bad = _non_finite_path(raw)
    if bad is not None:
        raise ConfigError(f"{bad}: numbers must be finite")
    validator = jsonschema.Draft202012Validator(SCHEMA)
    errors = sorted(validator.iter_errors(raw), key=lambda e: list(e.absolute_path))
    if errors:
        lines = [f"  {err.json_path}: {err.message}" for err in errors]
        raise ConfigError("problem file is invalid:\n" + "\n".join(lines))

    dim, nel = raw["grid"]["dim"], raw["grid"]["nel"]
    if len(nel) != dim:
        raise ConfigError(f"$.grid.nel: expected {dim} entries, got {len(nel)}")
    # keys that would be silently ignored
    for i, r in enumerate(raw["regions"]):
        for key in ("direction", "k_out_n_per_m"):
            if key in r and r["role"] != "output":
                raise ConfigError(f"$.regions[{i}].{key}: only an output region takes it")
    for i, p in enumerate(raw.get("passive", [])):
        if "material" in p and p["tag"] == "void":
            raise ConfigError(f"$.passive[{i}].material: a void box holds no material")
    if "drain_ratio" in raw["flow"] and "D_s" in raw["flow"]:
        raise ConfigError("$.flow.drain_ratio: only derives D_s, which the file gives")

    grid = GridSpec(**_fields(raw["grid"]))
    filt = FilterSpec(**{"r_min_elems": 1.5 if dim == 2 else 2.5,
                         **_fields(raw.get("filter", {}))})
    flow_fields = _fields(raw["flow"])
    drain_ratio = flow_fields.pop("drain_ratio", 0.01)
    flow = FlowParams(**flow_fields)
    if "D_s" not in flow_fields:  # the drainage that leaves drain_ratio across a wall
        wall = filt.r_min_elems * grid.h
        flow = replace(flow, D_s=drainage_for_wall(flow.K_s, wall, drain_ratio))

    closure = ClosureSpec(**_fields(raw.get("closure", {})))
    objective = _fields(raw.get("objective", {}))
    if objective.get("s") == "auto":
        del objective["s"]
    if closure.mode == "energy_penalty":
        objective["variant"] = "energy_penalty"

    return ProblemSpec(
        name=raw.get("name", default_name),
        grid=grid,
        regions=tuple(BoundaryRegion(**_fields(r)) for r in raw["regions"]),
        materials=MaterialSet(**_fields(raw["materials"])),
        flow=flow,
        volume_fractions=tuple(raw["volume_fractions"]),
        objective=ObjectiveSpec(**objective),
        filter=filt,
        optimizer=OptSettings(**_fields(raw.get("optimizer", {}))),
        closure=closure,
        passive=tuple(PassiveBox(**_fields(p)) for p in raw.get("passive", [])),
    )
