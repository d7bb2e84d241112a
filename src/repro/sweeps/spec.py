"""Declarative scenario sweeps over :class:`CampaignConfig` axes.

The paper demonstrates its claims at one operating point (one noise
level, one trace budget, one fleet).  A :class:`SweepSpec` describes a
whole *surface*: a cartesian grid (:class:`GridAxis`) and/or random
samples (:class:`RandomAxis`) over campaign-config fields — noise
sigma, the n1/n2 trace budgets, ADC resolution, process variation,
watermarked vs. plain fleets, the simulation engine, the workload
``design`` (paper IPs or an imported circuit) and the ``attack``, a
netlist transform from :mod:`repro.attacks` applied to every DUT
before measurement.

Expanding a spec (:func:`expand_scenarios`) yields fully resolved
:class:`Scenario` objects.  Every scenario carries

* a flat override mapping (base overrides + its axis assignment + the
  derived per-scenario seeds), which :func:`scenario_config` turns into
  a runnable :class:`~repro.experiments.runner.CampaignConfig`;
* a content digest (:attr:`Scenario.scenario_id`) over a canonical JSON
  encoding of those overrides.  The digest is what makes sweeps
  resumable and extendable: two scenarios with the same overrides are
  the same work unit, whichever spec they came from.

**Validation.**  A spec is checked in two steps, each raising before
any worker starts.  Building it checks every field name and every
value's JSON type against :data:`CONFIG_FIELDS`.  Expanding it builds
every scenario's config, so the config's own constructors check every
domain and the paper's expressions (1) ``n1 >= k`` and (2)
``n2 >= k*m``: a scenario whose config does not build raises
:class:`SpecValidationError` naming its axis values, and so does a spec whose random draws
repeat a scenario.  Random axes are checked on the values they draw.

Seeding is derived *deterministically from the spec*: unless an axis or
the base overrides pin them, each scenario's fleet / measurement /
analysis seeds are mixed from ``spec.seed`` and the axis values of
their own tiers (the tier table is
:data:`repro.experiments.artifacts.TIERS`; a dotted path takes its
head's tier).
``fleet_seed`` mixes the fleet-tier values, ``measurement_seed`` the
fleet- and measurement-tier values, and ``analysis_seed`` all of them.
``engine`` joins none: it joins no measurement base key, so an
``engine`` axis runs every engine on one campaign.  Results therefore
do not depend on worker count or execution order, and repeat-style
sweeps are an explicit axis over ``measurement_seed``, which keeps
their repeats independent.

**Artifact sharing.**  Every sweep shares manufactured fleets and
acquired trace matrices between scenarios whose fleet and measurement
tiers agree.  Each process keeps one measurement group's traces, so
:func:`repro.sweeps.run` runs the scenarios of one measurement base
key back to back, largest trace ceiling first.  Because the derived
seeds are tier-scoped, scenarios that differ only in ceiling or
analysis axes share silicon and noise (common random numbers), so
their differences are paired.  Scenario digests cover the final
override values, derived seeds included, so a change to how seeds are
derived gives the moved scenarios new ids and never serves a stored
record to a different campaign.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.attacks.removal import FLEET_TRANSFORMS
from repro.experiments.artifacts import TIERS
from repro.experiments.runner import CampaignConfig
from repro.hdl.simulator import ENGINES

#: Version stamped into every scenario digest; bump when the scenario
#: encoding or the result payload changes incompatibly.  Version 2: a
#: campaign draws each DUT's ``A_DUT,m`` once for all four references.
SCHEMA_VERSION = 2

#: The field naming the DUT netlist transform (see
#: :data:`repro.attacks.FLEET_TRANSFORMS`), the service's default row
#: axis.
ATTACK_FIELD = "attack"

#: Overridable campaign-config paths (dotted = nested dataclass field)
#: and the JSON values each takes: ``bool``, ``int`` (not a bool),
#: ``float`` (any finite number), ``str``, ``None`` (``null`` only: the
#: stage is off) or a tuple of names.  A spec is checked against it when
#: built, so a bad value fails before any worker process starts.
CONFIG_FIELDS: Mapping[str, object] = {
    "watermarked": bool,
    "single_reference": bool,
    "engine": ENGINES,
    "design": str,
    "fleet_seed": int,
    "measurement_seed": int,
    "analysis_seed": int,
    "adc": None,
    "variation": None,
    "waveform": None,
    "parameters.k": int,
    "parameters.m": int,
    "parameters.n1": int,
    "parameters.n2": int,
    "noise.sigma": float,
    "noise.drift_sigma": float,
    "adc.bits": int,
    "adc.headroom": float,
    "variation.gain_sigma": float,
    "variation.offset_sigma": float,
    "variation.component_sigma": float,
    ATTACK_FIELD: tuple(FLEET_TRANSFORMS),
}

#: Seeds derived per scenario when not pinned by base/axes, each with
#: the tiers (:data:`~repro.experiments.artifacts.TIERS`) whose axis
#: values it mixes.
_DERIVED_SEEDS: Mapping[str, Tuple[str, ...]] = {
    "fleet_seed": ("fleet",),
    "measurement_seed": ("fleet", "measurement"),
    "analysis_seed": ("fleet", "measurement", "ceiling", "analysis"),
}


def canonical_json(value: object) -> str:
    """Canonical (sorted, compact) JSON encoding used for digests."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


class SpecValidationError(ValueError):
    """A sweep-spec JSON payload failed validation.

    ``path`` names the offending location inside the payload
    (``"grid[1].values"``, ``"base.noise.sigma"``, ``"schema_version"``,
    or ``"$"`` for the payload root), so wire-format errors — the
    sweep service returns them verbatim as HTTP 400 detail — point at
    the field to fix instead of at a Python traceback.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        self.detail = message
        super().__init__(f"{path}: {message}")


def _check_field(name: str) -> None:
    if name not in CONFIG_FIELDS:
        raise KeyError(
            f"unknown sweep field {name!r}; valid fields: "
            f"{sorted(CONFIG_FIELDS)}"
        )


def _check_value(field_name: str, value: object) -> None:
    """Reject a value ``field_name`` does not take; never coerce one, so
    every valid spec keeps its scenario digests."""
    kind = CONFIG_FIELDS[field_name]
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    # NaN and the infinities are not JSON values: canonical_json would
    # write them into digests and records as bare tokens.
    if number and not _finite(value):
        raise ValueError(f"{field_name!r} takes finite numbers, not {value!r}")
    if isinstance(kind, tuple):
        valid = isinstance(value, str) and value in kind
    elif kind in (int, float):
        valid = number and (kind is float or isinstance(value, int))
    else:
        valid = value is None if kind is None else isinstance(value, kind)
    if not valid:
        if isinstance(kind, type):
            kind = kind.__name__
        raise TypeError(f"{field_name!r} takes {kind or 'null'}, not {value!r}")


def _finite(number: float) -> bool:
    """True when ``number`` converts to a finite float.

    An integer beyond the float range is not: it would only fail inside
    a campaign, where a float-valued field such as ``noise.sigma``
    converts it.
    """
    try:
        return math.isfinite(number)
    except OverflowError:
        return False


@dataclass(frozen=True)
class GridAxis:
    """One swept dimension with an explicit value list."""

    field: str
    values: Tuple[object, ...]

    def __post_init__(self) -> None:
        _check_field(self.field)
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ValueError(f"axis {self.field!r} has no values")
        for value in self.values:
            _check_value(self.field, value)
        if len(set(map(repr, self.values))) != len(self.values):
            raise ValueError(f"axis {self.field!r} has duplicate values")


@dataclass(frozen=True)
class RandomAxis:
    """One dimension sampled uniformly (optionally log-uniform) per draw."""

    field: str
    low: float
    high: float
    log: bool = False
    integer: bool = False

    def __post_init__(self) -> None:
        _check_field(self.field)
        kind = CONFIG_FIELDS[self.field]
        if not (kind is float or (kind is int and self.integer)):
            raise ValueError(
                f"axis {self.field!r} cannot be randomly sampled"
                + (" without integer set" if kind is int else "")
            )
        # NumPy draws no uniform value over a range beyond the floats.
        if not (
            _finite(self.low) and _finite(self.high) and _finite(self.high - self.low)
        ):
            raise ValueError(
                f"axis {self.field!r}: bounds {self.low} and {self.high} "
                "and their range must be finite"
            )
        if not self.low < self.high:
            raise ValueError(
                f"axis {self.field!r}: low {self.low} must be < high {self.high}"
            )
        if self.log and self.low <= 0:
            raise ValueError(f"axis {self.field!r}: log sampling needs low > 0")

    def sample(self, rng: np.random.Generator) -> object:
        if self.log:
            value = float(
                np.exp(rng.uniform(np.log(self.low), np.log(self.high)))
            )
        else:
            value = float(rng.uniform(self.low, self.high))
        return int(round(value)) if self.integer else value


@dataclass(frozen=True)
class SweepSpec:
    """A declarative description of one scenario sweep.

    ``grid`` axes are crossed (cartesian product); ``random`` axes are
    jointly drawn ``n_random`` times and crossed with the grid.  ``base``
    overrides apply to every scenario (axes win on conflict).  ``seed``
    feeds both the random-axis sampling and the per-scenario derived
    seeds.
    """

    name: str
    grid: Tuple[GridAxis, ...] = ()
    random: Tuple[RandomAxis, ...] = ()
    n_random: int = 0
    base: Mapping[str, object] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "grid", tuple(self.grid))
        object.__setattr__(self, "random", tuple(self.random))
        object.__setattr__(self, "base", dict(self.base))
        if not self.name:
            raise ValueError("a sweep needs a name")
        for key, value in self.base.items():
            _check_field(key)
            _check_value(key, value)
        fields = [axis.field for axis in self.grid] + [
            axis.field for axis in self.random
        ]
        duplicates = {f for f in fields if fields.count(f) > 1}
        if duplicates:
            raise ValueError(f"field(s) swept twice: {sorted(duplicates)}")
        if self.random and self.n_random <= 0:
            raise ValueError("random axes need n_random > 0")
        if self.n_random and not self.random:
            raise ValueError("n_random > 0 needs at least one random axis")
        if self.random and self.seed < 0:
            # It seeds a NumPy generator, which takes no negative seed.
            raise ValueError("random axes need a seed >= 0")

    @property
    def n_scenarios(self) -> int:
        """Number of scenarios the spec expands to."""
        total = 1
        for axis in self.grid:
            total *= len(axis.values)
        if self.random:
            total *= self.n_random
        return total

    # -- JSON wire format ------------------------------------------------

    def to_json_dict(self) -> Dict[str, object]:
        """The spec's JSON wire format (see :meth:`from_json_dict`).

        Carries an explicit ``schema_version`` so embedders (the sweep
        service, saved spec files) can detect incompatible encodings
        the moment the scenario digest scheme is ever bumped, instead
        of silently re-deriving different digests.
        """
        return {
            "schema_version": SCHEMA_VERSION,
            "name": self.name,
            "grid": [
                {"field": axis.field, "values": list(axis.values)}
                for axis in self.grid
            ],
            "random": [
                {
                    "field": axis.field,
                    "low": axis.low,
                    "high": axis.high,
                    "log": axis.log,
                    "integer": axis.integer,
                }
                for axis in self.random
            ],
            "n_random": self.n_random,
            "base": dict(self.base),
            "seed": self.seed,
        }

    @classmethod
    def from_json_dict(cls, payload: object) -> "SweepSpec":
        """Rebuild a spec from :meth:`to_json_dict` output.

        The round trip is lossless: the rebuilt spec expands to the
        same scenarios with the same content digests.  Malformed
        payloads raise :class:`SpecValidationError` naming the
        offending path; a missing or unsupported ``schema_version``
        is rejected the same way (this is the compatibility hook a
        future digest-affecting schema bump keys on).
        """
        if not isinstance(payload, Mapping):
            raise SpecValidationError("$", "expected a JSON object")
        known = {
            "schema_version",
            "name",
            "grid",
            "random",
            "n_random",
            "base",
            "seed",
        }
        for key in payload:
            if key not in known:
                raise SpecValidationError(str(key), "unknown field")
        if "schema_version" not in payload:
            raise SpecValidationError("schema_version", "required field")
        version = payload["schema_version"]
        if version != SCHEMA_VERSION:
            raise SpecValidationError(
                "schema_version",
                f"unsupported value {version!r} "
                f"(this build speaks version {SCHEMA_VERSION})",
            )
        name = payload.get("name")
        if not isinstance(name, str) or not name:
            raise SpecValidationError("name", "expected a non-empty string")
        grid = tuple(
            _grid_axis_from_json(entry, f"grid[{i}]")
            for i, entry in enumerate(_json_list(payload, "grid"))
        )
        random_axes = tuple(
            _random_axis_from_json(entry, f"random[{i}]")
            for i, entry in enumerate(_json_list(payload, "random"))
        )
        n_random = payload.get("n_random", 0)
        if not isinstance(n_random, int) or isinstance(n_random, bool):
            raise SpecValidationError("n_random", "expected an integer")
        base = payload.get("base", {})
        if not isinstance(base, Mapping):
            raise SpecValidationError("base", "expected an object")
        for key, value in base.items():
            if key not in CONFIG_FIELDS:
                raise SpecValidationError(
                    f"base.{key}", "unknown campaign-config field"
                )
            try:
                _check_value(key, value)
            except (TypeError, ValueError) as error:
                raise SpecValidationError(f"base.{key}", str(error)) from None
        seed = payload.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise SpecValidationError("seed", "expected an integer")
        try:
            return cls(
                name=name,
                grid=grid,
                random=random_axes,
                n_random=n_random,
                base=dict(base),
                seed=seed,
            )
        except (KeyError, ValueError, TypeError) as error:
            message = error.args[0] if error.args else str(error)
            raise SpecValidationError("$", str(message)) from error


def _json_list(payload: Mapping[str, object], key: str) -> List[object]:
    value = payload.get(key, [])
    if not isinstance(value, (list, tuple)):
        raise SpecValidationError(key, "expected a list")
    return list(value)


def _axis_payload(entry: object, path: str, fields: "set[str]") -> Mapping:
    if not isinstance(entry, Mapping):
        raise SpecValidationError(path, "expected an object")
    for key in entry:
        if key not in fields:
            raise SpecValidationError(f"{path}.{key}", "unknown field")
    field_name = entry.get("field")
    if not isinstance(field_name, str) or not field_name:
        raise SpecValidationError(f"{path}.field", "expected a field name")
    if field_name not in CONFIG_FIELDS:
        raise SpecValidationError(
            f"{path}.field", f"unknown campaign-config field {field_name!r}"
        )
    return entry


def _grid_axis_from_json(entry: object, path: str) -> GridAxis:
    entry = _axis_payload(entry, path, {"field", "values"})
    values = entry.get("values")
    if not isinstance(values, (list, tuple)):
        raise SpecValidationError(f"{path}.values", "expected a list")
    try:
        return GridAxis(field=str(entry["field"]), values=tuple(values))
    except (ValueError, TypeError) as error:
        message = error.args[0] if error.args else str(error)
        raise SpecValidationError(
            f"{path}.values", str(message)
        ) from error


def _random_axis_from_json(entry: object, path: str) -> RandomAxis:
    entry = _axis_payload(
        entry, path, {"field", "low", "high", "log", "integer"}
    )
    for bound in ("low", "high"):
        value = entry.get(bound)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise SpecValidationError(f"{path}.{bound}", "expected a number")
    for flag in ("log", "integer"):
        if flag in entry and not isinstance(entry[flag], bool):
            raise SpecValidationError(f"{path}.{flag}", "expected a boolean")
    try:
        return RandomAxis(
            field=str(entry["field"]),
            low=float(entry["low"]),
            high=float(entry["high"]),
            log=bool(entry.get("log", False)),
            integer=bool(entry.get("integer", False)),
        )
    except (ValueError, OverflowError) as error:
        message = error.args[0] if error.args else str(error)
        raise SpecValidationError(path, str(message)) from error


@dataclass(frozen=True)
class Scenario:
    """One fully resolved point of a sweep."""

    scenario_id: str
    overrides: Mapping[str, object]
    assignment: Mapping[str, object]


def _derive_seed(spec_seed: int, assignment_json: str, slot: str) -> int:
    digest = hashlib.sha256(
        f"{SCHEMA_VERSION}:{spec_seed}:{slot}:{assignment_json}".encode()
    ).digest()
    return int.from_bytes(digest[:4], "big")


def _seed_tier(path: str) -> Optional[str]:
    """The tier of a sweep field, as its derived seeds read it.

    A dotted path takes its head's tier unless :data:`TIERS` lists it
    whole.  ``engine`` has none: it joins no measurement base key, so
    it re-seeds nothing.
    """
    if path == "engine":
        return None
    return TIERS.get(path) or TIERS[path.partition(".")[0]]


def _make_scenario(
    spec: SweepSpec, assignment: Dict[str, object]
) -> Scenario:
    overrides: Dict[str, object] = dict(spec.base)
    overrides.update(assignment)
    for slot, slot_tiers in _DERIVED_SEEDS.items():
        if slot not in overrides:
            scoped = {
                path: value
                for path, value in assignment.items()
                if _seed_tier(path) in slot_tiers
            }
            overrides[slot] = _derive_seed(spec.seed, canonical_json(scoped), slot)
    scenario_id = hashlib.sha256(
        canonical_json(
            {"schema": SCHEMA_VERSION, "overrides": overrides}
        ).encode()
    ).hexdigest()[:24]
    return Scenario(
        scenario_id=scenario_id, overrides=overrides, assignment=assignment
    )


def expand_scenarios(spec: SweepSpec) -> List[Scenario]:
    """Expand a spec into its ordered scenario list.

    Grid order is the cartesian product in axis-declaration order
    (rightmost axis fastest); random draws come last.  Neighbouring
    scenarios tend to share a fleet structure, which keeps the
    process-wide activity/program caches hot in the process running
    them, inline or in a reused attempt worker.  A scenario whose config
    does not build raises :class:`SpecValidationError` (path ``base``
    for a spec without axes, else ``$``) naming its assignment.
    """
    grid_values = [
        [(axis.field, value) for value in axis.values] for axis in spec.grid
    ]
    if spec.random:
        rng = np.random.default_rng(spec.seed)
        draws = [
            {axis.field: axis.sample(rng) for axis in spec.random}
            for _ in range(spec.n_random)
        ]
    else:
        draws = [{}]
    scenarios: List[Scenario] = []
    for combo in itertools.product(*grid_values):
        for draw in draws:
            assignment: Dict[str, object] = dict(combo)
            assignment.update(draw)
            scenario = _make_scenario(spec, assignment)
            try:
                scenario_config(scenario)
            except ValueError as error:
                raise SpecValidationError(
                    "$" if spec.grid or spec.random else "base",
                    f"scenario {canonical_json(assignment)}: {error}",
                ) from error
            scenarios.append(scenario)
    ids = [s.scenario_id for s in scenarios]
    if len(set(ids)) != len(ids):
        raise SpecValidationError(
            "$", "sweep expands to duplicate scenarios; check axis values"
        )
    return scenarios


def scenario_config(scenario: Scenario) -> CampaignConfig:
    """Build the runnable campaign config of one scenario.

    A dotted path sets one field of a nested config on its default.  A
    value the configs reject, or a nested config set both whole and by
    field, raises ``ValueError``.
    """
    top: Dict[str, object] = {}
    nested: Dict[str, Dict[str, object]] = {}
    for path, value in scenario.overrides.items():
        head, dot, leaf = path.partition(".")
        if dot:
            nested.setdefault(head, {})[leaf] = value
        else:
            top[path] = value
    config = CampaignConfig()
    for head, leaves in nested.items():
        if head in top:
            leaf = f"{head}.{next(iter(leaves))}"
            raise ValueError(f"cannot set both {head!r} and {leaf!r}")
        top[head] = replace(getattr(config, head), **leaves)
    return replace(config, **top)


__all__ = [
    "ATTACK_FIELD",
    "CONFIG_FIELDS",
    "SCHEMA_VERSION",
    "GridAxis",
    "RandomAxis",
    "SpecValidationError",
    "SweepSpec",
    "Scenario",
    "canonical_json",
    "expand_scenarios",
    "scenario_config",
]
