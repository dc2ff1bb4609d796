"""The three benchmark workloads and their untimed correctness checks.

Each workload is one caller in one process running a closed loop: the next
op starts only when the previous one has returned.  ``setup`` builds what
every op reuses; ``op`` is the timed unit; ``check`` validates an op's
outputs afterwards and returns two lists: problems (wrong outputs; empty
when correct) and shortfalls (correct outputs that fall short of the
paper's claim, such as a search that did not converge).

The workload seed drives every random state and annealer seed through
``op_seeds``; the program only ever receives the generated inputs.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import mpemba as mp
import mpemba.cli
from mpemba.cli import EXIT_NO_CONVERGENCE, EXIT_OK
from mpemba.config import ExperimentConfig
from mpemba.metropolis import OptimizationTrace
from mpemba.models import ModelInstance
from mpemba.thermo import ThermoTrajectory
from mpemba.transform import ELIMINATION_TOL

#: Criterion 03's tolerance for the spectral-vs-direct oracle.
ORACLE_TOL = 1e-8
#: Unitary transforms must preserve the state spectrum to this level.
SPECTRUM_TOL = 1e-12
#: D = P + C against relative_entropy, relative to max(1, |D|) (tests use 1e-9).
IDENTITY_TOL = 1e-9
#: An accepted proposal whose cost moved by at most this many ulps of the old
#: cost is a flat (ulp-noise) accept.
FLAT_ULPS = 4.0
#: Free-energy curves this many ulps of F apart count as tied.  On the d=32
#: chain the rounding of F_neq near equilibrium is a few ulps.
TIE_ULPS = 64.0


_CAL_RNG = np.random.default_rng(0)
_CAL_A = _CAL_RNG.normal(size=(32, 32)) + 1j * _CAL_RNG.normal(size=(32, 32))
_CAL_H = (_CAL_A + _CAL_A.conj().T) / 8
_CAL_V = np.linalg.eigh(_CAL_H)[1]


def _dense_kernel():
    """What relax_chain spends its time on: 32x32 eigensolves and basis changes."""
    for _ in range(60):
        w, v = np.linalg.eigh(_CAL_H)
        (v * np.exp(-w)) @ v.conj().T
        total = 0.0
        for x in w.tolist():
            total += x * x


def _small_kernel():
    """What anneal_chain and cli_configs spend their time on: many small numpy
    calls, here a five-site product of 2x2 rotations conjugating a 32x32 state."""
    rng = np.random.default_rng(1)
    for _ in range(50):
        u = np.ones((1, 1), dtype=complex)
        for _site in range(5):
            th = rng.uniform(0.0, 2.0 * np.pi, size=2)
            c, s = np.cos(0.5 * th[1]), np.sin(0.5 * th[1])
            u = np.kron(u, np.array([[np.exp(-0.5j * th[0]), 0], [0, np.exp(0.5j * th[0])]])
                        @ np.array([[c, -1j * s], [-1j * s, c]]))
        m = _CAL_V.conj().T @ (u @ _CAL_H @ u.conj().T) @ _CAL_V
        abs(m[1, 2]) + abs(m[3, 4]) < np.exp(-rng.uniform())


KERNELS = {"dense": _dense_kernel, "small": _small_kernel}


def calibration_s(kernel: str, samples: int = 3) -> float:
    """Median wall time of a fixed reference kernel that does not call mpemba.

    Each kernel mixes the numpy work a workload spends its time on, so its
    time tracks how fast the machine currently runs that kind of code.
    """
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        KERNELS[kernel]()
        times.append(time.perf_counter() - t0)
    return sorted(times)[samples // 2]


def op_seeds(seed: int, op: int, n: int = 2) -> list[int]:
    """Independent 32-bit seeds for op ``op`` of a run with workload seed ``seed``."""
    return [int(s) for s in np.random.SeedSequence([seed, op]).generate_state(n)]


def file_digests(directory: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir()) if p.is_file()
    }


def proposal_counters(trace: OptimizationTrace) -> dict[str, int]:
    """Proposals, accepts and flat accepts of one annealer trace."""
    accepted = np.asarray(trace.accepted, dtype=bool)
    moved = np.abs(np.diff(trace.cost))
    flat = accepted[1:] & (moved <= FLAT_ULPS * np.finfo(float).eps * np.abs(trace.cost[:-1]))
    return {"proposals": len(trace), "accepts": int(accepted.sum()), "flat_accepts": int(flat.sum())}


def trace_csv_min_cost(path: Path) -> float:
    """Lowest cost in a trace CSV written by ``OptimizationTrace.to_csv``."""
    return float(np.loadtxt(path, delimiter=",", skiprows=1, usecols=1, ndmin=1).min())


def _points(args, kwargs, result):
    return {"points": len(result)}


def _csv_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def _search(args, kwargs, result):
    return proposal_counters(result[-1])


#: api attribute -> (span name, counters); relax_chain and anneal_chain call
#: the library only through this namespace, so a traced run can time each call.
API_SPANS = {
    "tfim": ("models.build", None),
    "basis": ("operators.basis", None),
    "build_generator": ("davies.generator", None),
    "decompose": ("spectral.decompose", None),
    "random_mixed_state": ("operators.state", None),
    "exact_transform": ("transform.exact", None),
    "verify_overlap_elimination": ("transform.verify", None),
    "evolve_spectral": ("spectral.evolve", _points),
    "compute_trajectory": ("thermo.trajectory", _points),
    "detect_crossing": ("transform.crossing", None),
    "trajectory_csv": ("thermo.csv", _csv_bytes),
    "unitary_metropolis": ("metropolis.search", _search),
    "trace_csv": ("metropolis.trace_csv", _csv_bytes),
}

#: (owner, attribute) -> (span name, counters): the names mpemba.cli looks up,
#: wrapped only in traced cli_configs runs.
CLI_SPANS = {
    (mpemba.cli, "load_config"): ("config.load", None),
    (ExperimentConfig, "build_model"): ("models.build", None),
    (ModelInstance, "basis"): ("operators.basis", None),
    (mpemba.cli, "build_generator"): ("davies.generator", None),
    (mpemba.cli, "decompose"): ("spectral.decompose", None),
    (mpemba.cli, "bloch_to_state"): ("operators.state", None),
    (mpemba.cli, "random_mixed_state"): ("operators.state", None),
    (mpemba.cli, "thermal_state"): ("operators.state", None),
    (mpemba.cli, "exact_transform"): ("transform.exact", None),
    (mpemba.cli, "verify_overlap_elimination"): ("transform.verify", None),
    (mpemba.cli, "evolve_spectral"): ("spectral.evolve", _points),
    (mpemba.cli, "compute_trajectory"): ("thermo.trajectory", _points),
    (mpemba.cli, "detect_crossing"): ("transform.crossing", None),
    (ThermoTrajectory, "to_csv"): ("thermo.csv", _csv_bytes),
    (mpemba.cli, "swap_metropolis"): ("metropolis.search", _search),
    (mpemba.cli, "unitary_metropolis"): ("metropolis.search", _search),
    (OptimizationTrace, "to_csv"): ("metropolis.trace_csv", _csv_bytes),
}


def make_api(tracer=None) -> SimpleNamespace:
    api = SimpleNamespace(
        tfim=mp.tfim,
        basis=ModelInstance.basis,
        build_generator=mp.build_generator,
        decompose=mp.decompose,
        random_mixed_state=mp.random_mixed_state,
        exact_transform=mp.exact_transform,
        verify_overlap_elimination=mp.verify_overlap_elimination,
        evolve_spectral=mp.evolve_spectral,
        compute_trajectory=mp.compute_trajectory,
        detect_crossing=mp.detect_crossing,
        trajectory_csv=ThermoTrajectory.to_csv,
        unitary_metropolis=mp.unitary_metropolis,
        trace_csv=OptimizationTrace.to_csv,
    )
    if tracer is not None:
        for attr, (name, counters) in API_SPANS.items():
            setattr(api, attr, tracer.wrap(name, getattr(api, attr), counters))
    return api


def _spectrum_drift(rho, rho_prime) -> float:
    return float(np.abs(np.linalg.eigvalsh(rho.entries) - np.linalg.eigvalsh(rho_prime.entries)).max())


class RelaxChain:
    """Fig. 3 / configs/chain_demo.json: certify one fresh random state per op."""

    KERNEL = "dense"

    def __init__(self, root: Path, out: Path, seed: int, tracer=None):
        self.out, self.seed = out, seed
        self.api = make_api(tracer)

    def setup(self):
        a = self.api
        self.model = a.tfim(length=5, coupling=1.0, h_field=0.5, t_bath=0.1, statistics="fermi")
        self.basis = a.basis(self.model)
        self.spectrum = a.decompose(a.build_generator(self.model))
        self.beta = self.model.bath.beta
        self.h_lab = self.basis.hamiltonian()
        self.times = np.linspace(0.0, 14.0, 281)

    def op(self, i: int) -> dict:
        a, spec, basis = self.api, self.spectrum, self.basis
        rho = spec.project_physical(a.random_mixed_state(32, 1000, op_seeds(self.seed, i)[0]))
        rho_prime, _ = a.exact_transform(rho, basis)
        rho_prime = spec.project_physical(rho_prime)
        gain = (mp.noneq_free_energy(rho_prime, self.h_lab, self.beta)
                - mp.noneq_free_energy(rho, self.h_lab, self.beta))
        overlaps = a.verify_overlap_elimination(spec, rho_prime)
        grids = (a.evolve_spectral(spec, rho, self.times), a.evolve_spectral(spec, rho_prime, self.times))
        trajs = tuple(a.compute_trajectory(g, basis, self.beta) for g in grids)
        crossing = a.detect_crossing(*trajs) if gain > 0 else None
        t_fit = 0.5 * self.times[-1]
        rates = tuple(mp.fit_decay_rate(self.times, t.l1, t_min=t_fit) for t in trajs)
        cert = mp.MpembaCertificate(
            status="ok", residual_overlaps=overlaps, free_energy_gain=gain,
            crossing_time=crossing, fitted_rates=rates,
        )
        a.trajectory_csv(trajs[0], self.out / "trajectory.csv")
        a.trajectory_csv(trajs[1], self.out / "trajectory_transformed.csv")
        (self.out / "certificate.txt").write_text(cert.to_text())
        return {"rho": rho, "rho_prime": rho_prime, "gain": gain, "overlaps": overlaps,
                "grids": grids, "trajs": trajs, "crossing": crossing}

    def check(self, r: dict) -> tuple[list[str], list[str]]:
        """(problems, shortfalls).  A certificate without a crossing is a
        shortfall, not a problem, when the two free-energy curves end tied
        within rounding: ``detect_crossing`` needs curve b strictly below
        curve a at the last grid point, and at t=14 both sit at F_eq."""
        problems, shortfalls = [], []
        drift = _spectrum_drift(r["rho"], r["rho_prime"])
        if drift > SPECTRUM_TOL:
            problems.append(f"exact_transform moved the state spectrum by {drift:.2e}")
        worst = max(r["overlaps"].values())
        if worst >= ELIMINATION_TOL:
            problems.append(f"coherent overlap {worst:.2e} not eliminated")
        fa, fb = (t.f_neq for t in r["trajs"])
        end_gap = fb[-1] - fa[-1]
        if not r["gain"] > 0:
            problems.append(f"free-energy gain {r['gain']:.3e} is not positive")
        elif r["crossing"] is None:
            note = f"no crossing; F curves end {end_gap:.2e} apart at t={self.times[-1]}"
            if 0.0 <= end_gap <= TIE_ULPS * np.finfo(float).eps * abs(fa[-1]):
                shortfalls.append(note + ", tied within rounding")
            else:
                problems.append(note)
        tau = self.spectrum.steady_state
        for grid, traj in zip(r["grids"], r["trajs"]):
            for j in (0, -1):
                d = mp.relative_entropy(grid.states[j], tau)
                if abs(traj.d_rel[j] - d) > IDENTITY_TOL * max(1.0, abs(d)):
                    problems.append(f"D = P + C fails at t={grid.times[j]}: {traj.d_rel[j]!r} vs {d!r}")
        return problems, shortfalls

    def digests(self) -> dict[str, str]:
        return file_digests(self.out)


class AnnealChain:
    """configs/metropolis_unitary.json / criterion 08 schedule: one seeded search
    per op, capped at one macro round (micro_m x nano_n = 4000 proposals).

    Uncapped searches need 20 000 to 68 000 proposals depending on the seed,
    so only a few fit in a run and their mean wanders with the seeds; capped
    ones do the same work per op.  Convergence within the criterion-08
    budget is measured by the sweep (sweep.py), not here.
    """

    KERNEL = "small"

    def __init__(self, root: Path, out: Path, seed: int, tracer=None):
        self.out, self.seed = out, seed
        self.api = make_api(tracer)

    def setup(self):
        a = self.api
        self.model = a.tfim(length=5, coupling=1.0, h_field=1.0, t_bath=0.1, statistics="fermi")
        self.basis = a.basis(self.model)
        self.spectrum = a.decompose(a.build_generator(self.model))
        self.config = mp.MetropolisConfig(
            cooling_tau=0.999, threshold_eps=1e-6, nano_n=200, micro_m=20, macro_big_m=20,
            target_modes=(2, 3), max_total_iterations=20 * 200,
        )

    def op(self, i: int) -> dict:
        a = self.api
        state_seed, anneal_seed = op_seeds(self.seed, i)
        rho = a.random_mixed_state(32, 1000, state_seed)
        config = dataclasses.replace(self.config, seed=anneal_seed)
        rho_best, _, trace = a.unitary_metropolis(self.spectrum, rho, config)
        a.trace_csv(trace, self.out / "trace.csv")
        return {"rho": rho, "rho_best": rho_best, "trace": trace}

    def check(self, r: dict) -> tuple[list[str], list[str]]:
        problems = []
        trace = r["trace"]
        c = mp.cost(self.spectrum, r["rho_best"], self.config.target_modes)
        if abs(c - trace.best_cost) > 1e-9 * trace.best_cost + 1e-15:
            problems.append(f"returned state costs {c!r}, the trace's best is {trace.best_cost!r}")
        if trace.converged and not c < self.config.threshold_eps:
            problems.append(f"converged search returned cost {c:.3e}")
        drift = _spectrum_drift(r["rho"], r["rho_best"])
        if drift > SPECTRUM_TOL:
            problems.append(f"search moved the state spectrum by {drift:.2e}")
        return problems, []

    def digests(self) -> dict[str, str]:
        return file_digests(self.out)


#: (subcommand, config stem, files the command must write)
CLI_CASES = (
    ("mpemba", "qubit_demo", ("certificate.txt", "trajectory.csv", "trajectory.gp",
                              "trajectory_transformed.csv", "trajectory_transformed.gp")),
    ("mpemba", "atom_exact", ("certificate.txt", "trajectory.csv", "trajectory_transformed.csv")),
    ("metropolis", "metropolis_swap", ("state_transformed.npy", "trace.csv")),
    ("spectrum", "spectrum_tfim5", ("spectrum.tsv",)),
)


class CliConfigs:
    """Shipped small configs through ``mpemba.cli.main``; one op is one pass over all four."""

    KERNEL = "small"

    def __init__(self, root: Path, out: Path, seed: int, tracer=None):
        self.root, self.out, self.seed, self.tracer = root, out, seed, tracer

    def setup(self):
        self.argvs = []
        for command, stem, _ in CLI_CASES:
            config = self.root / "configs" / f"{stem}.json"
            if not config.is_file():
                raise FileNotFoundError(config)
            (self.out / stem).mkdir(exist_ok=True)
            if command == "metropolis":
                self.swap_eps = json.loads(config.read_text())["transform"]["threshold_eps"]
            self.argvs.append([command, "--config", str(config), "--out", str(self.out / stem)])
        main = mpemba.cli.main
        if self.tracer is None:
            self.mains = [main] * len(CLI_CASES)
        else:
            for (owner, attr), (name, counters) in CLI_SPANS.items():
                self.tracer.patch(owner, attr, name, counters)
            self.mains = [self.tracer.wrap(f"cli.{stem}", main) for _, stem, _ in CLI_CASES]

    def op(self, i: int) -> dict:
        swap_seed = op_seeds(self.seed, i)[0]
        codes = []
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for main, argv in zip(self.mains, self.argvs):
                if argv[0] == "metropolis":
                    argv = argv + ["--seed", str(swap_seed)]
                codes.append(main(argv))
        return {"codes": codes}

    def check(self, r: dict) -> tuple[list[str], list[str]]:
        """(problems, shortfalls).  A swap search that ends unconverged exits
        with ``EXIT_NO_CONVERGENCE``; that is a shortfall, not a
        problem, when the trace it wrote indeed never reached the threshold."""
        problems, shortfalls = [], []
        for code, (command, stem, files) in zip(r["codes"], CLI_CASES):
            missing = [f for f in files if not (self.out / stem / f).is_file()]
            if missing:
                problems.append(f"{command} {stem} did not write {missing}")
            elif command == "metropolis" and code in (EXIT_OK, EXIT_NO_CONVERGENCE):
                best = trace_csv_min_cost(self.out / stem / "trace.csv")
                if (code == EXIT_OK) != (best < self.swap_eps):
                    problems.append(f"{command} {stem} exited with {code}, best cost in trace {best:.3e}")
                elif code == EXIT_NO_CONVERGENCE:
                    shortfalls.append(f"{command} {stem} not converged, best cost {best:.3e}")
            elif code != EXIT_OK:
                problems.append(f"{command} {stem} exited with {code}")
        return problems, shortfalls

    def digests(self) -> dict[str, str]:
        """Digest and then remove this op's files, so the next op starts empty."""
        out = {}
        for _, stem, _ in CLI_CASES:
            for name, digest in file_digests(self.out / stem).items():
                out[f"{stem}/{name}"] = digest
                (self.out / stem / name).unlink()
        return out


WORKLOADS = {"relax_chain": RelaxChain, "anneal_chain": AnnealChain, "cli_configs": CliConfigs}


def oracle_check(seed: int) -> dict:
    """Criterion 03's independent oracle at L=3: evolve_spectral against evolve_direct."""
    gen = mp.build_generator(mp.tfim(length=3, t_bath=0.5), dense=True)
    rho = mp.random_mixed_state(8, 6, np.random.SeedSequence(seed))
    times = np.linspace(0.0, 6.0, 200)
    direct = mp.evolve_direct(gen, rho, times)
    worst = 0.0
    for prefer in ("dense", "auto"):
        spectral = mp.evolve_spectral(mp.decompose(gen, prefer=prefer), rho, times)
        worst = max(worst, max(float(np.abs(x.entries - y.entries).max())
                               for x, y in zip(spectral.states, direct.states)))
    return {"sup_norm": worst, "ok": worst <= ORACLE_TOL}
