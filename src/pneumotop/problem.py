"""Problem-file schema, validation, and the resolved problem specification.

A problem is one JSON document; every physical quantity carries its unit in
the key name (``h_m``, ``P_in_pa``, ``k_out_n_per_m``). The schema rejects
unknown keys so silent typos cannot change a run.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
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
    """Fully validated problem with all defaults resolved."""

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


def _default_r_min_elems(dim: int) -> float:
    return 1.5 if dim == 2 else 2.5


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

    g = raw["grid"]
    if len(g["nel"]) != g["dim"]:
        raise ConfigError(
            f"$.grid.nel: expected {g['dim']} entries, got {len(g['nel'])}"
        )
    grid_spec = GridSpec(dim=g["dim"], nel=tuple(g["nel"]), h=g["h_m"])

    m = raw["materials"]
    mats = MaterialSet(
        E=tuple(m["E_pa"]),
        E_min=m.get("E_min_pa", 100.0),
        nu=m.get("nu", 0.3),
        penalty=m.get("penalty", 3.0),
    )

    vf = tuple(float(v) for v in raw["volume_fractions"])
    if len(vf) != mats.n_materials:
        raise ConfigError(
            f"$.volume_fractions: expected {mats.n_materials} entries "
            f"(one per material), got {len(vf)}"
        )
    if sum(vf) > 1.0 + 1e-12:
        raise ConfigError(f"$.volume_fractions: sum {sum(vf):.4g} exceeds 1")

    regions = []
    for i, r in enumerate(raw["regions"]):
        box = tuple(tuple(float(v) for v in b) for b in r["box_m"])
        for b in box:
            if len(b) != grid_spec.dim:
                raise ConfigError(
                    f"$.regions[{i}].box_m: expected {grid_spec.dim} coordinates"
                )
        direction = r.get("direction")
        if r["role"] == "output" and direction is not None:
            if len(direction) != grid_spec.dim:
                raise ConfigError(
                    f"$.regions[{i}].direction: expected {grid_spec.dim} components"
                )
        regions.append(
            BoundaryRegion(
                role=r["role"],
                box=box,
                direction=tuple(direction) if direction is not None else None,
                k_out=r.get("k_out_n_per_m", 0.0),
                name=r.get("name", ""),
            )
        )
    roles = [r.role for r in regions]
    if "pressure_inlet" not in roles:
        raise ConfigError("$.regions: no pressure_inlet region defined")
    if roles.count("output") != 1:
        raise ConfigError(
            f"$.regions: exactly one output region required, found "
            f"{roles.count('output')}"
        )
    if "fixed_support" not in roles:
        raise ConfigError("$.regions: no fixed_support region defined")

    fspec_raw = raw.get("filter", {})
    filt = FilterSpec(
        r_min_elems=fspec_raw.get(
            "r_min_elems", _default_r_min_elems(grid_spec.dim)
        ),
        eta_p=fspec_raw.get("eta_p", 0.5),
        beta_p_initial=fspec_raw.get("beta_p_initial", 1.0),
        beta_p_max=fspec_raw.get("beta_p_max", 16.0),
        beta_p_double_every=fspec_raw.get("beta_p_double_every", 40),
    )

    fl = raw["flow"]
    k_s = fl.get("K_s", 1e-7)
    d_s = fl.get("D_s")
    if d_s is None:
        r_min_phys = filt.r_min_elems * grid_spec.h
        d_s = drainage_for_wall(k_s, r_min_phys, fl.get("drain_ratio", 0.01))
    flow = FlowParams(
        P_in=fl["P_in_pa"],
        p_atm=fl.get("p_atm_pa", 0.0),
        K_v=fl.get("K_v", 1.0),
        K_s=k_s,
        beta_k=fl.get("beta_kappa", 10.0),
        eta_k=fl.get("eta_kappa", 0.2),
        D_s=d_s,
        beta_d=fl.get("beta_drain", 10.0),
        eta_d=fl.get("eta_drain", 0.3),
    )

    obj_raw = raw.get("objective", {})
    closure_raw = raw.get("closure", {})
    closure = ClosureSpec(
        mode=closure_raw.get("mode", "none"),
        skin_thickness_elems=closure_raw.get("skin_thickness_elems", 1),
    )
    variant = obj_raw.get("variant", "baseline")
    if closure.mode == "energy_penalty":
        variant = "energy_penalty"
    s_raw = obj_raw.get("s", "auto")
    objective = ObjectiveSpec(
        variant=variant,
        n=obj_raw.get("n", 8.0),
        s=None if s_raw == "auto" else s_raw,
    )

    opt_raw = raw.get("optimizer", {})
    settings = OptSettings(
        max_iters=opt_raw.get("max_iters", 300),
        move_limit=opt_raw.get("move_limit", 0.2),
        change_tol=opt_raw.get("change_tol", 0.01),
    )

    passive = tuple(
        PassiveBox(
            tag=p["tag"],
            box=tuple(tuple(float(v) for v in b) for b in p["box_m"]),
            material=p.get("material", 1),
        )
        for p in raw.get("passive", [])
    )
    for i, p in enumerate(passive):
        if p.tag == "solid" and p.material > mats.n_materials:
            raise ConfigError(
                f"$.passive[{i}]: material {p.material} exceeds the "
                f"{mats.n_materials} defined materials"
            )

    return ProblemSpec(
        name=raw.get("name", default_name),
        grid=grid_spec,
        regions=tuple(regions),
        materials=mats,
        flow=flow,
        volume_fractions=vf,
        objective=objective,
        filter=filt,
        optimizer=settings,
        closure=closure,
        passive=passive,
    )
