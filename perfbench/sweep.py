"""Convergence sweep: every Metropolis setup of tests/ and configs/ over seeds 0..N-1.

Not gated.  For each setup it records, per seed, the proposals used, the
accepts and flat (ulp-noise) accepts, whether the search reached its
threshold and the best cost, and it reports the fraction of seeds that
converge within each budget and the median proposals of those that did.
Seeds are swept in order; none is chosen.

Setups that share their model, state and schedule and differ only in the
budget run once at the largest budget: a search capped at B stops exactly
where the uncapped one would have if it converged before B, so the
fraction within a smaller budget is read off the same searches.
"""

from __future__ import annotations

import dataclasses
import statistics
import time

import mpemba as mp
from mpemba.models import GHZ_PER_KELVIN
from workloads import proposal_counters

DEMO_BLOCH = (0.276, 0.359, 0.303)  # tests/conftest.py


def _qubit():
    spec = mp.decompose(mp.build_generator(mp.single_qubit(), dense=True), prefer="dense")
    cfg = mp.MetropolisConfig(cooling_tau=0.99, threshold_eps=1e-4, target_modes=(2, 3),
                              max_total_iterations=100_000)
    rho = mp.bloch_to_state(list(DEMO_BLOCH))
    return {"budgets": {"test_qubit_converges": 100_000},
            "search": lambda c: mp.unitary_metropolis(spec, rho, c)[-1], "config": cfg}


def _chain_unitary():
    spec = mp.decompose(mp.build_generator(mp.tfim(h_field=1.0, t_bath=0.1)))
    rho = mp.random_mixed_state(32, 1000, seed=11)
    cfg = mp.MetropolisConfig(cooling_tau=0.999, threshold_eps=1e-6, nano_n=200, micro_m=20,
                              macro_big_m=20, target_modes=(2, 3), max_total_iterations=400_000)
    return {"budgets": {"criterion_08": 2 * 60500, "configs/metropolis_unitary.json": 400_000},
            "search": lambda c: mp.unitary_metropolis(spec, rho, c)[-1], "config": cfg}


def _chain_swap(from_config: bool):
    """Criterion 08's swap search, or configs/metropolis_swap.json's.

    The config reads the populations of a thermal state at T=1 in the
    energy basis, which can differ from thermal_populations in the last
    ulp, so the two run separately.
    """
    model = mp.tfim(h_field=1.0, t_bath=4.0)
    basis = model.basis()
    spec = mp.decompose(mp.build_generator(model))
    if from_config:
        p0 = mp.thermal_state(basis, 1.0).populations(basis)
        target, budgets = 4, {"configs/metropolis_swap.json": 20_000}
    else:
        p0 = mp.thermal_populations(basis, 1.0)
        target = next(k for k in range(2, spec.n_modes + 1) if spec.mode_tag(k)[0] == "pop")
        budgets = {"criterion_08": 2 * 5300}
    cfg = mp.MetropolisConfig(cooling_tau=0.998, threshold_eps=1e-6, target_modes=(target,),
                              max_total_iterations=max(budgets.values()))
    return {"budgets": budgets, "search": lambda c: mp.swap_metropolis(spec, p0, c)[-1],
            "config": cfg}


def _dot():
    dot = mp.quantum_dot(energy_resolved=True)
    spec = mp.decompose(mp.build_generator(dot))
    rho = mp.thermal_state(dot.basis(), 1.0 / (0.1 * GHZ_PER_KELVIN))
    amps = spec.amplitudes(rho)
    loaded = tuple(k for k in range(2, spec.n_modes + 1) if abs(amps[k - 1]) > 1e-8)
    budgets = {"criterion_09": 400_000}
    if loaded == (6,):  # configs/dot_metropolis.json targets mode 6 of the same state
        budgets["configs/dot_metropolis.json"] = 400_000
    cfg = mp.MetropolisConfig(cooling_tau=0.999, threshold_eps=1e-5, target_modes=loaded,
                              max_total_iterations=400_000)
    return {"budgets": budgets, "config": cfg,
            "search": lambda c: mp.unitary_metropolis(spec, rho, c, fermionic=True)[-1]}


def _chain_prepare(target):
    """Criterion 05's overlap preparation with its own cost function."""
    model = mp.tfim()
    basis = model.basis()
    spec = mp.decompose(mp.build_generator(model))
    base = mp.random_mixed_state(32, 100, seed=11)
    pair = [(spec.mode_tag(k)[1], spec.mode_tag(k)[2]) for k in (2, 3)]

    def overlap_cost(rho_lab):
        rho_e = basis.to_eigenbasis(rho_lab)
        return abs(sum(abs(rho_e[n, m]) for n, m in pair) - target)

    cfg = mp.MetropolisConfig(cooling_tau=0.999, threshold_eps=min(1e-6, 1e-2 * target),
                              target_modes=(2, 3), max_total_iterations=200_000)
    return {"budgets": {"criterion_05": 200_000}, "config": cfg,
            "search": lambda c: mp.unitary_metropolis(spec, base, c, cost_fn=overlap_cost)[-1]}


SETUPS = {
    "qubit_unitary": _qubit,
    "chain_unitary": _chain_unitary,
    "chain_swap": lambda: _chain_swap(False),
    "chain_swap_config": lambda: _chain_swap(True),
    "dot_unitary_fermionic": _dot,
    "chain_prepare_low": lambda: _chain_prepare(0.0005),
    "chain_prepare_high": lambda: _chain_prepare(0.02),
}


def run(n_seeds: int) -> dict:
    results = {}
    for name, build in SETUPS.items():
        setup = build()
        seeds = []
        for seed in range(n_seeds):
            t0 = time.perf_counter()
            trace = setup["search"](dataclasses.replace(setup["config"], seed=seed))
            seeds.append({"seed": seed, "converged": trace.converged, "best_cost": trace.best_cost,
                          "s": time.perf_counter() - t0, **proposal_counters(trace)})
        by_budget = {}
        for label, budget in setup["budgets"].items():
            hits = [s["proposals"] for s in seeds if s["converged"] and s["proposals"] <= budget]
            by_budget[label] = {
                "budget": budget,
                "converged": len(hits),
                "fraction": len(hits) / n_seeds,
                "median_proposals": statistics.median(hits) if hits else None,
            }
        total = sum(s["proposals"] for s in seeds)
        accepts = sum(s["accepts"] for s in seeds)
        results[name] = {
            "threshold_eps": setup["config"].threshold_eps,
            "cooling_tau": setup["config"].cooling_tau,
            "target_modes": list(setup["config"].target_modes),
            "budgets": by_budget,
            "us_per_proposal": sum(s["s"] for s in seeds) / total * 1e6 if total else None,
            "accept_frac": accepts / total if total else None,
            "flat_accept_frac": sum(s["flat_accepts"] for s in seeds) / accepts if accepts else None,
            "seeds": seeds,
        }
    return {"n_seeds": n_seeds, "results": results}
