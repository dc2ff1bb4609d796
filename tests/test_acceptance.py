"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -v -s tests/test_acceptance.py``).

Tolerances are fixed here, not calibrated elsewhere.  Criteria involving
stochastic searches state their seed policies inline.
"""

import math
import time
import tracemalloc

import numpy as np
import pytest

import mpemba as mp
from mpemba.davies import build_dense_generator, build_jump_matrix

from conftest import DEMO_BLOCH, QUBIT_GAMMA_TOTAL


def _report(criterion, description, ok, detail=""):
    print(f"[ACCEPTANCE {criterion:02d}] {'PASS' if ok else 'FAIL'} {description} {detail}")
    assert ok, f"criterion {criterion}: {description} {detail}"


def _zoo():
    return [
        mp.single_qubit(),
        mp.tfim(length=3),
        mp.tfim(length=5),
        mp.two_level_atom(),
        mp.quantum_dot(energy_resolved=True),
    ]


@pytest.fixture(scope="module")
def tfim5():
    model = mp.tfim()
    spec = mp.decompose(mp.build_generator(model))
    return model, spec


def test_criterion_01_fixed_point():
    """Every zoo generator annihilates the Gibbs state of its Hamiltonian."""
    start = time.perf_counter()
    worst = 0.0
    for model in _zoo():
        basis = model.basis()
        beta = model.beta
        tau_e = basis.to_eigenbasis(mp.thermal_state(basis, beta).entries)
        if model.bath is not None and not basis.degeneracy_flag and model.hamiltonian.dim > 8:
            gen = mp.build_generator(model)
            residual = np.abs(gen.pop_block @ np.real(np.diag(tau_e))).max()
        else:
            gen = mp.build_generator(model, dense=(model.bath is not None))
            residual = np.abs(gen.dense @ tau_e.reshape(-1)).max()
        worst = max(worst, float(residual))
    elapsed = time.perf_counter() - start
    _report(1, "Gibbs fixed point across the zoo",
            worst <= 1e-10 and elapsed < 60.0,
            f"(max residual {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_02_block_dense_equivalence():
    """Block and dense eigenvalue multisets agree for qubit + TFIM L=2,3."""
    worst = 0.0
    cases = [mp.single_qubit()]
    for length in (2, 3):
        for statistics in ("fermi", "bose"):
            cases.append(mp.tfim(length=length, statistics=statistics))
    for model in cases:
        gen = mp.build_generator(model, dense=True)
        worst = max(worst, mp.verify_block_dense_spectrum(gen))
    _report(2, "block/dense eigenvalue multisets agree", worst <= 1e-8,
            f"(max multiset distance {worst:.2e})")


def test_criterion_03_spectral_vs_direct():
    """Spectral-expansion evolution matches the matrix-exponential oracle."""
    worst = 0.0
    cases = [
        (mp.single_qubit(), 2, 2, 3.0),
        (mp.tfim(length=2), 4, 6, 10.0),
        (mp.tfim(length=3, t_bath=0.5), 8, 6, 6.0),
    ]
    for model, dim, n_samples, t_max in cases:
        gen = mp.build_generator(model, dense=True)
        rho = mp.random_mixed_state(dim, n_samples, seed=17)
        times = np.linspace(0.0, t_max, 200)
        for prefer in ("dense", "auto"):
            spec = mp.decompose(gen, prefer=prefer)
            a = mp.evolve_spectral(spec, rho, times)
            b = mp.evolve_direct(gen, rho, times)
            worst = max(
                worst,
                max(np.abs(x.entries - y.entries).max() for x, y in zip(a.states, b.states)),
            )
    _report(3, "spectral vs direct evolution over 200 points", worst <= 1e-8,
            f"(sup-norm discrepancy {worst:.2e})")


def test_criterion_04_single_qubit_demo(qubit_model, qubit_spec):
    """Single-qubit experiment: inversion vector, crossing, rates, coherence."""
    start = time.perf_counter()
    basis = qubit_model.basis()
    beta = qubit_model.bath.beta
    rho = mp.bloch_to_state(list(DEMO_BLOCH))
    rho_prime, _ = mp.exact_transform(rho, basis)

    r_prime = mp.state_to_bloch(rho_prime).r
    ok_a = np.abs(r_prime - np.array([0.0, 0.0, 0.545])).max() <= 1e-3

    times = np.linspace(0.0, 6.0, 601)
    traj = mp.compute_trajectory(mp.evolve_spectral(qubit_spec, rho, times), basis, beta)
    traj_prime = mp.compute_trajectory(mp.evolve_spectral(qubit_spec, rho_prime, times), basis, beta)
    t_m = mp.detect_crossing(traj, traj_prime)
    ok_b = t_m is not None and 0.0 < t_m < times[-1]

    rate_before = mp.fit_decay_rate(times, traj.l1, t_min=3.0)
    rate_after = mp.fit_decay_rate(times, traj_prime.l1, t_min=3.0)
    ok_c = (
        abs(rate_before + QUBIT_GAMMA_TOTAL / 2) <= 0.05 * QUBIT_GAMMA_TOTAL / 2
        and abs(rate_after + QUBIT_GAMMA_TOTAL) <= 0.05 * QUBIT_GAMMA_TOTAL
    )

    ok_d = traj_prime.c_coherence.max() <= 1e-12
    elapsed = time.perf_counter() - start
    _report(4, "single-qubit demonstration",
            ok_a and ok_b and ok_c and ok_d and elapsed < 10.0,
            f"(r'=({r_prime[0]:.4f},{r_prime[1]:.4f},{r_prime[2]:.4f}), t_m={t_m:.3f}, "
            f"rates=({rate_before:.3f},{rate_after:.3f}), C'max={traj_prime.c_coherence.max():.1e}, "
            f"{elapsed:.1f}s)")


def test_criterion_05_spin_chain_demo(tfim5):
    """Many-qubit experiment: post-transform rate and overlap-ordered crossings."""
    start = time.perf_counter()
    model, spec = tfim5
    basis = model.basis()
    beta = model.bath.beta
    pop_rate = next(
        spec.eigenvalues[k - 1].real
        for k in range(2, spec.n_modes + 1)
        if spec.mode_tag(k)[0] == "pop"
    )

    # (i) random mixed state from 1000 pure samples: the transformed state
    # relaxes at the slowest population-mode rate
    rho = mp.random_mixed_state(32, 1000, seed=7)
    rho_prime, _ = mp.exact_transform(rho, basis)
    times = np.linspace(0.0, 14.0, 281)
    traj_prime = mp.compute_trajectory(
        mp.evolve_spectral(spec, rho_prime, times), basis, beta
    )
    fitted = mp.fit_decay_rate(times, traj_prime.l1, t_min=6.0)
    ok_rate = abs(fitted - pop_rate) <= 0.10 * abs(pop_rate)

    # (ii) two prepared states with slow-pair overlaps ~40x apart cross at
    # times ~2x apart (stochastic preparation, +-30% band on the ratio)
    base = mp.random_mixed_state(32, 100, seed=11)
    pair = [(spec.mode_tag(k)[1], spec.mode_tag(k)[2]) for k in (2, 3)]

    def prepare(target, seed):
        def overlap_cost(rho_lab):
            rho_e = basis.to_eigenbasis(rho_lab)
            return abs(sum(abs(rho_e[n, m]) for n, m in pair) - target)

        cfg = mp.MetropolisConfig(
            cooling_tau=0.999, threshold_eps=min(1e-6, 1e-2 * target),
            target_modes=(2, 3), seed=seed, max_total_iterations=200_000,
        )
        prepared, _, trace = mp.unitary_metropolis(spec, base, cfg, cost_fn=overlap_cost)
        assert trace.converged, f"overlap preparation at {target} did not converge"
        return prepared

    crossings = {}
    for label, target, seed in (("low", 0.0005, 21), ("high", 0.02, 4)):
        prepared = prepare(target, seed)
        transformed, _ = mp.exact_transform(prepared, basis)
        traj_a = mp.compute_trajectory(mp.evolve_spectral(spec, prepared, times), basis, beta)
        traj_b = mp.compute_trajectory(mp.evolve_spectral(spec, transformed, times), basis, beta)
        crossings[label] = mp.detect_crossing(traj_a, traj_b)
    ok_cross = crossings["low"] is not None and crossings["high"] is not None
    ratio = crossings["high"] / crossings["low"] if ok_cross else math.nan
    ok_half = ok_cross and 0.35 <= ratio <= 0.65

    elapsed = time.perf_counter() - start
    _report(5, "spin-chain demonstration",
            ok_rate and ok_half and elapsed < 300.0,
            f"(rate fit {fitted:.3f} vs {pop_rate:.3f}, crossings "
            f"low={crossings['low']:.2f} high={crossings['high']:.2f} ratio={ratio:.2f}, "
            f"{elapsed:.0f}s)")


def test_criterion_06_identity_suite(qubit_model, qubit_spec):
    """Free-energy and entropy-split identities along 100 random trajectories.

    The chain instance runs at T_b = 0.5 so that every Gibbs weight clears
    the 1e-12 support tolerance of the relative-entropy oracle.
    """
    rng = np.random.default_rng(2024)
    worst_id6 = worst_id7 = 0.0
    worst_monotone = -np.inf
    worst_pi = np.inf

    def check(model, spec, rho):
        nonlocal worst_id6, worst_id7, worst_monotone, worst_pi
        basis = model.basis()
        beta = model.beta
        gap = mp.spectral_gap(spec).value
        lam_max = np.abs(spec.eigenvalues).max()
        t_max = 4.0 / gap
        # keep |lambda|_max * dt <= 0.1 so the Spohn stencil stays clean
        n_points = max(81, int(np.ceil(t_max * lam_max / 0.1)) + 1)
        times = np.linspace(0.0, t_max, n_points)
        grid = mp.evolve_spectral(spec, rho, times)
        traj = mp.compute_trajectory(grid, basis, beta)
        tau = mp.thermal_state(basis, beta)
        for j in np.linspace(0, n_points - 1, 15).astype(int):
            d_oracle = mp.relative_entropy(grid.states[j], tau)
            worst_id6 = max(worst_id6, abs(d_oracle - beta * (traj.f_neq[j] - traj.f_eq)))
            worst_id7 = max(
                worst_id7, abs(d_oracle - (traj.p_classical[j] + traj.c_coherence[j]))
            )
        worst_monotone = max(worst_monotone, float(np.diff(traj.d_rel).max()))
        worst_pi = min(worst_pi, float(traj.pi.min()))

    chain = mp.tfim(length=3, t_bath=0.5)
    chain_spec = mp.decompose(mp.build_generator(chain))
    for _ in range(70):
        r = rng.normal(size=3)
        r *= rng.uniform(0.0, 0.999) / np.linalg.norm(r)
        check(qubit_model, qubit_spec, mp.bloch_to_state(r))
    for _ in range(30):
        rho = mp.random_mixed_state(8, int(rng.integers(1, 30)), seed=int(rng.integers(1 << 31)))
        check(chain, chain_spec, rho)

    ok = worst_id6 <= 1e-9 and worst_id7 <= 1e-9 and worst_monotone <= 1e-10 and worst_pi >= -1e-8
    _report(6, "identity suite over 100 random trajectories", ok,
            f"(|D-beta dF|<={worst_id6:.1e}, |D-P-C|<={worst_id7:.1e}, "
            f"max dD={worst_monotone:.1e}, min Pi={worst_pi:.1e})")


def test_criterion_07_majorization(qubit_model, tfim3_model):
    """The inverted state maximizes F_neq over 100 Haar rotations."""
    reports = []
    rho_q = mp.bloch_to_state(list(DEMO_BLOCH))
    rho_q_prime, _ = mp.exact_transform(rho_q, qubit_model.basis())
    reports.append(
        mp.majorization_check(rho_q_prime, qubit_model.basis(), qubit_model.bath.beta, 100, seed=31)
    )
    rho_t = mp.random_mixed_state(8, 12, seed=5)
    rho_t_prime, _ = mp.exact_transform(rho_t, tfim3_model.basis())
    reports.append(
        mp.majorization_check(rho_t_prime, tfim3_model.basis(), tfim3_model.bath.beta, 100, seed=32)
    )
    ok = all(r.all_passed for r in reports)
    excess = max(r.max_free_energy_excess for r in reports)
    _report(7, "majorization over 100 Haar unitaries x 2 instances", ok,
            f"(max free-energy excess {excess:.1e})")


def test_criterion_08_metropolis_convergence():
    """Seeded annealers converge within twice the reference iteration counts
    for at least 8 of 10 seeds."""
    start = time.perf_counter()

    # swap: heating a thermal chain state, one diagonal target mode
    model = mp.tfim(h_field=1.0, t_bath=4.0)
    spec = mp.decompose(mp.build_generator(model))
    p0 = mp.thermal_populations(model.basis(), 1.0)
    target = next(k for k in range(2, spec.n_modes + 1) if spec.mode_tag(k)[0] == "pop")
    swap_budget = 2 * 5300
    swap_hits = 0
    for seed in range(10):
        cfg = mp.AnnealSchedule(
            cooling_tau=0.998, threshold_eps=1e-6, target_modes=(target,), seed=seed,
            max_total_iterations=swap_budget,
        )
        _, trace = mp.swap_metropolis(spec, p0, cfg)
        swap_hits += int(trace.converged)

    # unitary: random mixed chain state, the slow coherence pair
    model_u = mp.tfim(h_field=1.0, t_bath=0.1)
    spec_u = mp.decompose(mp.build_generator(model_u))
    rho = mp.random_mixed_state(32, 1000, seed=11)
    unitary_budget = 2 * 60500
    unitary_hits = 0
    for seed in range(10):
        cfg = mp.MetropolisConfig(
            cooling_tau=0.999, threshold_eps=1e-6, nano_n=200, micro_m=20, macro_big_m=20,
            target_modes=(2, 3), seed=seed, max_total_iterations=unitary_budget,
        )
        _, _, trace = mp.unitary_metropolis(spec_u, rho, cfg)
        unitary_hits += int(trace.converged)

    elapsed = time.perf_counter() - start
    ok = swap_hits >= 8 and unitary_hits >= 8 and elapsed < 600.0
    _report(8, "metropolis convergence within 2x reference budgets", ok,
            f"(swap {swap_hits}/10 within {swap_budget}, "
            f"unitary {unitary_hits}/10 within {unitary_budget}, {elapsed:.0f}s)")


def test_criterion_09_physical_instances():
    """Two-level atom: complex gap + exact speedup.  Dot: real gap +
    Metropolis overlap below 2e-5 on the loaded slow mode."""
    atom = mp.two_level_atom()
    spec_a = mp.decompose(mp.build_generator(atom))
    gap_a = mp.spectral_gap(spec_a)
    basis_a = atom.basis()
    plus = mp.DensityMatrix(np.full((2, 2), 0.5, dtype=complex))
    plus_prime, _ = mp.exact_transform(plus, basis_a)
    times = np.linspace(0.0, 8.0 / gap_a.value, 400)
    tau_a = spec_a.steady_state
    l1_before = [
        mp.l1_elementwise(s, tau_a, basis_a)
        for s in mp.evolve_spectral(spec_a, plus, times).states
    ]
    l1_after = [
        mp.l1_elementwise(s, tau_a, basis_a)
        for s in mp.evolve_spectral(spec_a, plus_prime, times).states
    ]
    rate_before = mp.fit_decay_rate(times, l1_before, t_min=times[-1] / 2)
    rate_after = mp.fit_decay_rate(times, l1_after, t_min=times[-1] / 2)
    ok_atom = (
        gap_a.complex_pair
        and abs(rate_before + gap_a.value) <= 0.05 * gap_a.value
        and rate_after <= 1.9 * rate_before  # exponentially faster
    )

    dot = mp.quantum_dot(energy_resolved=True)
    spec_d = mp.decompose(mp.build_generator(dot))
    gap_d = mp.spectral_gap(spec_d)
    rho_d = mp.thermal_state(dot.basis(), 1.0 / (0.1 * mp.models.GHZ_PER_KELVIN))
    amps0 = spec_d.amplitudes(rho_d)
    loaded = [
        k for k in range(2, spec_d.n_modes + 1) if abs(amps0[k - 1]) > 1e-8
    ]
    cfg = mp.MetropolisConfig(
        cooling_tau=0.999, threshold_eps=1e-5, target_modes=tuple(loaded), seed=2,
        max_total_iterations=400_000,
    )
    rho_d_prime, _, trace = mp.unitary_metropolis(spec_d, rho_d, cfg, fermionic=True)
    overlap = 2.0 * np.abs(spec_d.amplitudes(rho_d_prime, loaded)).max()
    ok_dot = (not gap_d.complex_pair) and trace.converged and overlap < 2e-5

    _report(9, "mesoscopic instances (atom complex gap, dot real gap)",
            ok_atom and ok_dot,
            f"(atom rates {rate_before:.5f}/{rate_after:.5f}, dot overlap {overlap:.1e})")


def test_criterion_10_block_performance():
    """L=5 block path: fast, and never materializes a 4^L x 4^L matrix."""
    def block_path():
        model = mp.tfim()
        gen = mp.build_generator(model)
        return mp.decompose(gen)

    block_time = min(_timed(block_path) for _ in range(3))
    model = mp.tfim()
    basis = model.basis()
    jumps = build_jump_matrix(basis, model.bath)
    dense_time = _timed(lambda: build_dense_generator(basis, jumps))

    tracemalloc.start()
    tracemalloc.reset_peak()
    block_path()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    dense_matrix_bytes = 16 * (4**5) * (4**5)

    ok = (
        block_time < 60.0
        and dense_time >= 20.0 * block_time
        and peak < dense_matrix_bytes
    )
    _report(10, "block-path performance at L=5", ok,
            f"(block {block_time*1e3:.1f}ms, dense assembly {dense_time*1e3:.0f}ms, "
            f"peak {peak/1e6:.1f}MB < {dense_matrix_bytes/1e6:.1f}MB)")


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0
