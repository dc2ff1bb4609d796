"""Experiment configuration: JSON schema, validation, model assembly.

Configs are plain JSON files with four sections (``model``, ``bath``,
``initial_state``, ``time_grid``) plus optional ``transform`` and
``outputs``.  Validation is strict: unknown keys are rejected, and every
error names the dotted path of the offending entry.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ValidationError
from .metropolis import AnnealSchedule, MetropolisConfig
from .models import GHZ_PER_KELVIN, MODEL_BUILDERS, ModelInstance

# Per model: its parameter keys, and each bath key it takes mapped to the
# builder keyword that key sets (``beta`` sets ``t_bath`` to 1/beta).  A
# model whose bath takes ``temperature_kelvin`` reads every temperature in
# Kelvin, the thermal initial state's too.
_SPIN_BATH = {"temperature": "t_bath", "beta": "t_bath", "gamma": "gamma"}
_KELVIN_BATH = {"temperature_kelvin": "t_bath_kelvin"}
_MODELS = {
    "single_qubit": ({"omega"}, _SPIN_BATH),
    "tfim": ({"length", "coupling", "h_field"}, {**_SPIN_BATH, "statistics": "statistics"}),
    "two_level_atom": ({"epsilon", "gamma"}, _KELVIN_BATH),
    "quantum_dot": ({"epsilon", "e_charging", "gamma", "energy_resolved"}, _KELVIN_BATH),
}
_STATE_KINDS = {"bloch", "thermal", "random-mixed", "pure-plus", "file"}
_TRANSFORM_KINDS = {"none", "exact", "unitary-metropolis", "swap-metropolis"}
_METRO_KEYS = {"cooling_tau", "threshold_eps", "target_modes", "seed", "max_total_iterations"}
_UNITARY_KEYS = {"nano_n", "micro_m", "macro_m", "fermionic"}


@dataclass(frozen=True)
class InitialStateSpec:
    """``temperature`` is in the model's energy units (Kelvin converted at parse time)."""

    kind: str
    bloch: tuple | None = None
    temperature: float | None = None
    n_samples: int | None = None
    seed: int | None = None
    path: str | None = None


@dataclass(frozen=True)
class TransformSpec:
    kind: str
    metropolis: AnnealSchedule | None = None
    fermionic: bool = False


@dataclass(frozen=True)
class TimeGridSpec:
    """``n_points`` times spaced linearly from 0 to ``t_max`` (just ``t_max`` for one point)."""

    t_max: float
    n_points: int = 200

    def times(self) -> np.ndarray:
        if self.n_points == 1:
            return np.array([self.t_max])
        return np.linspace(0.0, self.t_max, self.n_points)


@dataclass(frozen=True)
class OutputSpec:
    directory: str = "out"
    dump_states: bool = False
    gnuplot: bool = False


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelInstance
    initial_state: InitialStateSpec
    transform: TransformSpec
    time_grid: TimeGridSpec
    outputs: OutputSpec

    def build_model(self) -> ModelInstance:
        """The model built at parse time (a method, so perfbench's traced runs can wrap it)."""
        return self.model


def _expect_mapping(node, path):
    if not isinstance(node, dict):
        raise ConfigError(path, f"expected an object, got {type(node).__name__}")


def _check_keys(node, path, allowed, required=()):
    _expect_mapping(node, path)
    for key in node:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}" if path else key, "unknown key")
    for key in required:
        if key not in node:
            raise ConfigError(path, f"missing required key {key!r}")


def _number(node, path, *, positive=False, integer=False):
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise ConfigError(path, "expected a number")
    if isinstance(node, float) and not math.isfinite(node):  # json reads NaN and Infinity
        raise ConfigError(path, "expected a finite number")
    if integer and int(node) != node:
        raise ConfigError(path, "expected an integer")
    if positive and node <= 0:
        raise ConfigError(path, "must be positive")
    return int(node) if integer else float(node)


def _seed(node, path):
    """The optional ``seed`` of ``node``, 0 if absent; numpy's generators refuse negative seeds."""
    seed = _number(node.get("seed", 0), path, integer=True)
    if seed < 0:
        raise ConfigError(path, "must be a non-negative integer")
    return seed


def _boolean(node, path):
    if not isinstance(node, bool):
        raise ConfigError(path, "expected true or false")
    return node


def load_config(path) -> ExperimentConfig:
    """Read and validate a JSON experiment configuration."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError("", f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError("", f"config is not valid JSON: {exc}")
    return parse_config(raw)


def parse_config(raw: dict) -> ExperimentConfig:
    _check_keys(
        raw, "", {"model", "bath", "initial_state", "transform", "time_grid", "outputs"},
        required=("model", "initial_state", "time_grid"),
    )

    model_node = raw["model"]
    _expect_mapping(model_node, "model")
    if "name" not in model_node:
        raise ConfigError("model", "missing required key 'name'")
    name = model_node["name"]
    if not isinstance(name, str) or name not in _MODELS:
        raise ConfigError("model.name", f"unknown model {name!r}; choose from {sorted(_MODELS)}")
    model_keys, bath_keywords = _MODELS[name]
    kwargs = {}
    for key, value in model_node.items():
        if key == "name":
            continue
        path = f"model.{key}"
        if key not in model_keys:
            raise ConfigError(path, f"unknown parameter for model {name!r}")
        kwargs[key] = (_boolean(value, path) if key == "energy_resolved"
                       else _number(value, path, integer=key == "length"))

    bath_node = raw.get("bath", {})
    _expect_mapping(bath_node, "bath")
    if "temperature" in bath_node and "beta" in bath_node:
        raise ConfigError("bath", "give temperature or beta, not both")
    for key, value in bath_node.items():
        path = f"bath.{key}"
        if key not in bath_keywords:
            raise ConfigError(path, f"model {name!r} takes the bath keys {sorted(bath_keywords)}")
        if key != "statistics":
            # temperatures and beta are inverted, so they must be positive
            value = _number(value, path, positive=key != "gamma")
        kwargs[bath_keywords[key]] = 1.0 / value if key == "beta" else value

    state = _parse_initial_state(raw["initial_state"], kelvin="temperature_kelvin" in bath_keywords)
    transform = _parse_transform(raw.get("transform", {"kind": "none"}))
    grid = _parse_time_grid(raw["time_grid"])
    outputs = _parse_outputs(raw.get("outputs", {}))
    try:
        model = MODEL_BUILDERS[name](**kwargs)
    except ValidationError as exc:
        raise ConfigError("model", str(exc))
    return ExperimentConfig(
        model=model, initial_state=state, transform=transform, time_grid=grid, outputs=outputs,
    )


def _parse_initial_state(node, kelvin: bool) -> InitialStateSpec:
    _expect_mapping(node, "initial_state")
    kind = node.get("kind")
    if not isinstance(kind, str) or kind not in _STATE_KINDS:
        raise ConfigError("initial_state.kind", f"expected one of {sorted(_STATE_KINDS)}")
    if kind == "bloch":
        _check_keys(node, "initial_state", {"kind", "r"}, required=("r",))
        r = node["r"]
        if not (isinstance(r, list) and len(r) == 3):
            raise ConfigError("initial_state.r", "expected a 3-component list")
        vec = tuple(_number(x, "initial_state.r") for x in r)
        if math.sqrt(sum(x * x for x in vec)) > 1 + 1e-12:
            raise ConfigError("initial_state.r", "Bloch vector norm exceeds 1")
        return InitialStateSpec(kind=kind, bloch=vec)
    if kind == "thermal":
        _check_keys(node, "initial_state", {"kind", "temperature"}, required=("temperature",))
        temperature = _number(node["temperature"], "initial_state.temperature", positive=True)
        if kelvin:
            temperature *= GHZ_PER_KELVIN
        return InitialStateSpec(kind=kind, temperature=temperature)
    if kind == "random-mixed":
        _check_keys(node, "initial_state", {"kind", "n_samples", "seed"}, required=("n_samples",))
        return InitialStateSpec(
            kind=kind,
            n_samples=_number(node["n_samples"], "initial_state.n_samples", positive=True, integer=True),
            seed=_seed(node, "initial_state.seed"),
        )
    if kind == "file":
        _check_keys(node, "initial_state", {"kind", "path"}, required=("path",))
        return InitialStateSpec(kind=kind, path=str(node["path"]))
    _check_keys(node, "initial_state", {"kind"})
    return InitialStateSpec(kind=kind)


def _parse_transform(node) -> TransformSpec:
    _expect_mapping(node, "transform")
    kind = node.get("kind", "none")
    if not isinstance(kind, str) or kind not in _TRANSFORM_KINDS:
        raise ConfigError("transform.kind", f"expected one of {sorted(_TRANSFORM_KINDS)}")
    if kind in ("none", "exact"):
        _check_keys(node, "transform", {"kind"})
        return TransformSpec(kind=kind)
    # the swap walk has no nano loops and no Jordan-Wigner strings
    unitary_keys = _UNITARY_KEYS if kind == "unitary-metropolis" else set()
    _check_keys(node, "transform", _METRO_KEYS | unitary_keys | {"kind"},
                required=("cooling_tau", "threshold_eps", "target_modes"))
    modes = node["target_modes"]
    if not (isinstance(modes, list) and modes and all(isinstance(k, int) for k in modes)):
        raise ConfigError("transform.target_modes", "expected a nonempty list of mode indices")
    if min(modes) < 2:
        raise ConfigError("transform.target_modes", "target modes are 1-based decaying modes (k >= 2)")
    schedule = dict(
        cooling_tau=_number(node["cooling_tau"], "transform.cooling_tau", positive=True),
        threshold_eps=_number(node["threshold_eps"], "transform.threshold_eps", positive=True),
        target_modes=tuple(modes),
        seed=_seed(node, "transform.seed"),
        max_total_iterations=_number(
            node.get("max_total_iterations", 1_000_000),
            "transform.max_total_iterations", positive=True, integer=True,
        ),
    )
    try:
        if kind == "swap-metropolis":
            metro = AnnealSchedule(**schedule)
        else:
            metro = MetropolisConfig(
                **schedule,
                nano_n=_number(node.get("nano_n", 200), "transform.nano_n", positive=True, integer=True),
                micro_m=_number(node.get("micro_m", 20), "transform.micro_m", positive=True, integer=True),
                macro_big_m=_number(node.get("macro_m", 20), "transform.macro_m", positive=True, integer=True),
            )
    except ValidationError as exc:
        raise ConfigError("transform", str(exc))
    fermionic = _boolean(node.get("fermionic", False), "transform.fermionic")
    return TransformSpec(kind=kind, metropolis=metro, fermionic=fermionic)


def _parse_time_grid(node) -> TimeGridSpec:
    _check_keys(node, "time_grid", {"t_max", "n_points"}, required=("t_max",))
    return TimeGridSpec(
        t_max=_number(node["t_max"], "time_grid.t_max", positive=True),
        n_points=_number(node.get("n_points", 200), "time_grid.n_points", positive=True, integer=True),
    )


def _parse_outputs(node) -> OutputSpec:
    _check_keys(node, "outputs", {"directory", "dump_states", "gnuplot"})
    return OutputSpec(
        directory=str(node.get("directory", "out")),
        dump_states=_boolean(node.get("dump_states", False), "outputs.dump_states"),
        gnuplot=_boolean(node.get("gnuplot", False), "outputs.gnuplot"),
    )
