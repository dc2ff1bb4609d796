"""Size scan: per-layer times on TFIM chains of L = 3, 5 and 6, and the unitary
annealer's cost per proposal at d = 2, 8, 32 and 64 under a fixed budget.

Not gated.  Layers are timed through the same traced api as the workloads;
each figure is the min and median over ``REPEATS`` repetitions.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import mpemba as mp
from tracing import Tracer
from workloads import make_api, op_seeds

REPEATS = 5
LENGTHS = (3, 5, 6)
#: Proposals per annealer timing; the threshold is out of reach, so every
#: search uses exactly this many.
PROPOSALS = 3000
ANNEAL_REPEATS = 3


def _layers(length: int, seed: int) -> dict:
    tracer = Tracer()
    a = make_api(tracer)
    model = a.tfim(length=length, h_field=0.5, t_bath=0.1)
    basis = a.basis(model)
    spec = a.decompose(a.build_generator(model))
    rho = spec.project_physical(a.random_mixed_state(2**length, 1000, seed))
    a.exact_transform(rho, basis)
    grid = a.evolve_spectral(spec, rho, np.linspace(0.0, 14.0, 281))
    a.compute_trajectory(grid, basis, model.bath.beta)
    return {name: row["total_s"] for name, row in tracer.summary().items()}


def _us_per_proposal(spec, dim: int, seed: int) -> float:
    rho = mp.random_mixed_state(dim, 1000, op_seeds(seed, 0)[0])
    cfg = mp.MetropolisConfig(cooling_tau=0.999, threshold_eps=1e-300, target_modes=(2, 3),
                              seed=op_seeds(seed, 0)[1], max_total_iterations=PROPOSALS)
    t0 = time.perf_counter()
    _, _, trace = mp.unitary_metropolis(spec, rho, cfg)
    elapsed = time.perf_counter() - t0
    if len(trace) != PROPOSALS:
        raise RuntimeError(f"search stopped after {len(trace)} of {PROPOSALS} proposals")
    return elapsed / PROPOSALS * 1e6


def _stats(values: list[float]) -> dict:
    return {"min": min(values), "median": statistics.median(values), "n": len(values)}


def run() -> dict:
    layers = {}
    for length in LENGTHS:
        samples = [_layers(length, seed) for seed in range(REPEATS)]
        layers[f"L{length}"] = {
            "dim": 2**length,
            **{name: _stats([s[name] for s in samples]) for name in samples[0]},
        }
    specs = {
        2: mp.decompose(mp.build_generator(mp.single_qubit(), dense=True), prefer="dense"),
        **{2**n: mp.decompose(mp.build_generator(mp.tfim(length=n, h_field=1.0, t_bath=0.1)))
           for n in LENGTHS},
    }
    anneal = {
        f"d{dim}": {"metropolis.us_per_proposal": _stats(
            [_us_per_proposal(spec, dim, seed) for seed in range(ANNEAL_REPEATS)])}
        for dim, spec in specs.items()
    }
    return {"repeats": REPEATS, "proposals": PROPOSALS,
            "results": {"layers_s": layers, "anneal": anneal}}
