"""Experiment runner: build a model, decompose its generator, evolve,
transform, and export the demonstration datasets.

Subcommands: ``spectrum``, ``evolve``, ``mpemba``, ``metropolis``.
Exit codes: 0 ok, 2 config error, 3 numerical failure, 4 optimizer
non-convergence.  The output directory comes from the config, overridden by
the ``MPEMBA_OUT`` environment variable, overridden by ``--out``; nothing
is ever written outside it.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig, load_config
from .errors import ConfigError, ValidationError
from .metropolis import population_weights, swap_metropolis, unitary_metropolis
from .models import ModelInstance, build_generator
from .operators import DensityMatrix, HermitianOperator, as_state, bloch_to_state, random_mixed_state, thermal_state
from .spectral import decompose, energy_diagonal, evolve_spectral, spectral_gap
from .thermo import compute_trajectory, fit_decay_rate, noneq_free_energy
from .transform import MpembaCertificate, detect_crossing, exact_transform, verify_overlap_elimination
from .utils import write_csv

ENV_OUT = "MPEMBA_OUT"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_NO_CONVERGENCE = 4


class _NonConvergence(RuntimeError):
    pass


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _NonConvergence as exc:
        print(f"optimizer did not converge: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (ValidationError, RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built on first use and shared by every later call in the process;
    # parse_args keeps no state on the parser, so no flag leaks between calls
    parser = argparse.ArgumentParser(
        prog="mpemba",
        description="Davies-map thermalization and quantum Mpemba experiments",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, doc in (
        ("spectrum", cmd_spectrum, "decompose the generator and dump its eigenvalue table"),
        ("evolve", cmd_evolve, "evolve the configured state(s) and export trajectories"),
        ("mpemba", cmd_mpemba, "run a transformation and emit a Mpemba certificate"),
        ("metropolis", cmd_metropolis, "run the configured annealer and export its trace"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", required=True, help="path to a JSON experiment config")
        p.add_argument("--out", default=None, help="output directory (overrides env and config)")
        p.add_argument("--seed", type=_seed, default=None, help="override all configured seeds")
        p.set_defaults(func=func)
    return parser


def _seed(text: str) -> int:
    """``--seed``: a non-negative integer, since numpy's generators refuse negative seeds."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


# ---------------------------------------------------------------------------
# shared assembly steps
# ---------------------------------------------------------------------------


def _setup(args) -> tuple[ExperimentConfig, ModelInstance, Path]:
    cfg = load_config(args.config)
    model = cfg.build_model()
    out = Path(args.out or os.environ.get(ENV_OUT) or cfg.outputs.directory)
    out.mkdir(parents=True, exist_ok=True)
    return cfg, model, out


def _initial_state(cfg: ExperimentConfig, model: ModelInstance, args) -> DensityMatrix:
    spec = cfg.initial_state
    basis = model.basis()
    if spec.kind == "bloch":
        if model.hamiltonian.dim != 2:
            raise ConfigError("initial_state", "bloch states need a two-level model")
        return bloch_to_state(list(spec.bloch))
    if spec.kind == "thermal":
        return thermal_state(basis, 1.0 / spec.temperature)
    if spec.kind == "random-mixed":
        seed = args.seed if args.seed is not None else spec.seed
        return random_mixed_state(model.hamiltonian.dim, spec.n_samples, seed)
    if spec.kind == "pure-plus":
        d = model.hamiltonian.dim
        v = np.full(d, 1.0 / math.sqrt(d), dtype=complex)
        return DensityMatrix(np.outer(v, v.conj()))
    try:
        return as_state(np.load(spec.path), model.hamiltonian.dim)
    except (OSError, ValueError) as exc:  # ValidationError is a ValueError
        raise ConfigError("initial_state.path", f"{spec.path}: {exc}") from exc


def _state_pair(cfg: ExperimentConfig, model: ModelInstance, spectrum, args, kind: str):
    """The run's pair: the initial state and its ``kind`` transform (None for ``"none"``),
    each pinched by ``spectrum.project_physical`` so that a superselected model acts
    only on physical states, and the annealer's trace or None."""
    rho = spectrum.project_physical(_initial_state(cfg, model, args))
    rho_prime, trace = _apply_transform(kind, cfg, spectrum, rho, args)
    if rho_prime is not None:
        rho_prime = spectrum.project_physical(rho_prime)
    return rho, rho_prime, trace


def _apply_transform(kind, cfg, spectrum, rho, args):
    """Returns (rho_transformed, trace_or_None) for the transform ``kind``."""
    basis = spectrum.basis
    if kind == "none":
        return None, None
    if kind == "exact":
        rho_prime, _ = exact_transform(rho, basis)
        return rho_prime, None
    metro = cfg.transform.metropolis
    top = max(metro.target_modes)
    if top > spectrum.n_modes:  # the mode count is first known after the decomposition
        raise ConfigError("transform.target_modes", f"mode {top} outside 2..{spectrum.n_modes}")
    if args.seed is not None:
        metro = dataclasses.replace(metro, seed=args.seed)
    if kind == "unitary-metropolis":
        rho_prime, _, trace = unitary_metropolis(
            spectrum, rho, metro, fermionic=cfg.transform.fermionic
        )
        return rho_prime, trace
    # the swap walk's preconditions are fixed by the config: check them before it starts
    for k in metro.target_modes:
        if population_weights(spectrum, k) is None:
            raise ConfigError(
                "transform.target_modes", f"mode {k} is not a population mode; swap-metropolis needs diagonal modes"
            )
    rho_e = basis.to_eigenbasis(rho.entries)
    if not energy_diagonal(rho_e):  # the walk drops coherences: only rotation rounding may go
        raise ConfigError(
            "initial_state",
            "swap-metropolis needs a state diagonal in the energy eigenbasis "
            f"(off-diagonal weight {np.abs(rho_e - np.diag(np.diag(rho_e))).max():.2e})",
        )
    p_best, trace = swap_metropolis(spectrum, np.real(np.diag(rho_e)), metro)
    rho_prime = DensityMatrix(basis.from_eigenbasis(np.diag(p_best).astype(complex)))
    return rho_prime, trace


def _evolve(spectrum, states, times, beta) -> list:
    """Each state's ``(grid, trajectory)`` on ``times``."""
    grids = [evolve_spectral(spectrum, state, times) for state in states]
    return [(grid, compute_trajectory(grid, spectrum.basis, beta)) for grid in grids]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_spectrum(args) -> int:
    cfg, model, out = _setup(args)
    spectrum = decompose(build_generator(model))
    gap = spectral_gap(spectrum)
    path = out / "spectrum.tsv"
    lams = spectrum.eigenvalues
    is_gap = np.abs(np.abs(lams.real) - gap.value) <= 1e-12 * max(1.0, gap.value)
    is_gap[0] = False  # mode 1, the steady state
    write_csv(
        path,
        f"# model={model.name} gap={gap.value:.17g} "
        f"classification={'complex-pair' if gap.complex_pair else 'real'}\nk\tre\tim\tgap",
        (np.arange(1, lams.size + 1), lams.real, lams.imag, is_gap), "%d\t%.17g\t%.17g\t%d\n",
    )
    print(f"wrote {path} ({spectrum.n_modes} modes, gap {gap.value:.6g}, "
          f"{'complex pair' if gap.complex_pair else 'real'})")
    return EXIT_OK


def cmd_evolve(args) -> int:
    cfg, model, out = _setup(args)
    spectrum = decompose(build_generator(model))
    rho, rho_prime, trace = _state_pair(cfg, model, spectrum, args, cfg.transform.kind)
    if trace is not None and not trace.converged:
        raise _NonConvergence(f"best cost {trace.best_cost:.3e}")
    states = [rho] if rho_prime is None else [rho, rho_prime]
    _write_trajectories(out, _evolve(spectrum, states, cfg.time_grid.times(), model.beta), cfg)
    print(f"wrote {out}/trajectory.csv" + (" and transformed twin" if rho_prime is not None else ""))
    return EXIT_OK


def cmd_mpemba(args) -> int:
    cfg, model, out = _setup(args)
    times = cfg.time_grid.times()
    fit_window = 0.5 * times[-1]
    if np.count_nonzero(times >= fit_window) < 3:
        raise ConfigError("time_grid", "the decay-rate fit needs at least 3 grid points at or after t_max/2")
    spectrum = decompose(build_generator(model))
    beta = model.beta
    h_lab = HermitianOperator(spectrum.basis.hamiltonian())
    kind = cfg.transform.kind if cfg.transform.kind != "none" else "exact"
    rho, rho_prime, trace = _state_pair(cfg, model, spectrum, args, kind)
    if trace is not None:
        trace.to_csv(out / "transform_trace.csv")
        if not trace.converged:
            raise _NonConvergence(f"best cost {trace.best_cost:.3e}")

    gain = noneq_free_energy(rho_prime, h_lab, beta) - noneq_free_energy(rho, h_lab, beta)
    overlaps = verify_overlap_elimination(spectrum, rho_prime)
    if cfg.transform.metropolis is not None:
        amps = spectrum.amplitudes(rho_prime)
        for k in cfg.transform.metropolis.target_modes:
            overlaps[k] = float(abs(amps[k - 1]))

    status, notes, crossing, rates = "not-applicable", "", None, None
    if np.abs(rho.entries - spectrum.steady_state.entries).max() < 1e-12:
        notes = "initial state is the fixed point; no genuine effect is claimable"
    elif np.abs(rho.entries - rho_prime.entries).max() < 1e-12:
        notes = "state is already inverted-diagonal; the transform is the identity"
    else:
        status = "ok"
        runs = _evolve(spectrum, [rho, rho_prime], times, beta)
        traj_a, traj_b = (traj for _, traj in runs)
        if gain > 0:
            crossing = detect_crossing(traj_a, traj_b)
        else:
            # a stochastic transform may land below the original free energy;
            # a speedup is still reportable but no genuine crossing is claimable
            notes = "transform did not raise the free energy; crossing not applicable"
        rates = tuple(fit_decay_rate(times, traj.l1, t_min=fit_window) for traj in (traj_a, traj_b))
        _write_trajectories(out, runs, cfg)
    cert = MpembaCertificate(
        status=status, residual_overlaps=overlaps, free_energy_gain=gain,
        crossing_time=crossing, fitted_rates=rates, notes=notes,
    )
    with open(out / "certificate.txt", "w") as fh:
        fh.write(cert.to_text())
    print(f"wrote {out}/certificate.txt (status: {cert.status})")
    return EXIT_OK


def cmd_metropolis(args) -> int:
    cfg, model, out = _setup(args)
    if cfg.transform.kind not in ("unitary-metropolis", "swap-metropolis"):
        raise ConfigError("transform.kind", "the metropolis command needs a metropolis transform")
    spectrum = decompose(build_generator(model))
    _, rho_prime, trace = _state_pair(cfg, model, spectrum, args, cfg.transform.kind)
    trace.to_csv(out / "trace.csv")
    np.save(out / "state_transformed.npy", rho_prime.entries)
    print(
        f"wrote {out}/trace.csv ({len(trace)} iterations, best cost {trace.best_cost:.3e}, "
        f"{'converged' if trace.converged else 'NOT converged'})"
    )
    if not trace.converged:
        raise _NonConvergence(f"best cost {trace.best_cost:.3e} after {len(trace)} iterations")
    return EXIT_OK


# ---------------------------------------------------------------------------
# writers
# ---------------------------------------------------------------------------


def _write_trajectories(out: Path, runs, cfg) -> None:
    """The original's and the transformed twin's trajectory files, as configured."""
    for stem, (grid, traj) in zip(("trajectory", "trajectory_transformed"), runs):
        traj.to_csv(out / f"{stem}.csv")
        if cfg.outputs.dump_states:
            np.save(out / f"{stem}_states.npy", grid.entries)
        if cfg.outputs.gnuplot:
            (out / f"{stem}.gp").write_text(
                "set datafile separator ','\n"
                "set key autotitle columnhead\n"
                "set logscale y\n"
                f"plot '{stem}.csv' using 1:3 with lines title 'D', \\\n"
                f"     '{stem}.csv' using 1:4 with lines title 'P', \\\n"
                f"     '{stem}.csv' using 1:5 with lines title 'C'\n"
            )
