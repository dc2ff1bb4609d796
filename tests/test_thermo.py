import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg

import mpemba as mp
from mpemba.errors import ValidationError
from mpemba.spectral import _propagate, chunk_points
from mpemba.thermo import CSV_COLUMNS, SUPPORT_TOL, _shannon
from mpemba.utils import log_gibbs_weights, xlogx

from conftest import DEMO_BLOCH, reference_package_state


@pytest.fixture(scope="module")
def qubit_setup(qubit_model, qubit_spec):
    basis = qubit_model.basis()
    beta = qubit_model.bath.beta
    rho = mp.bloch_to_state(list(DEMO_BLOCH))
    times = np.linspace(0.0, 4.0, 161)
    grid = mp.evolve_spectral(qubit_spec, rho, times)
    traj = mp.compute_trajectory(grid, basis, beta)
    return basis, beta, grid, traj


class TestFreeEnergy:
    def test_equilibrium_value(self, qubit_model):
        basis = qubit_model.basis()
        beta = qubit_model.bath.beta
        tau = mp.thermal_state(basis, beta)
        f_eq = mp.equilibrium_free_energy(basis, beta)
        z = np.exp(-beta * basis.energies).sum()
        assert f_eq == pytest.approx(-math.log(z) / beta, abs=1e-12)
        assert mp.noneq_free_energy(tau, basis.hamiltonian(), beta) == pytest.approx(f_eq, abs=1e-10)

    def test_pure_excited_state(self, qubit_model):
        # |0> is the excited level of H = 2.5 sigma_z: energy 2.5, zero entropy
        rho = mp.bloch_to_state([0.0, 0.0, 1.0])
        f = mp.noneq_free_energy(rho, qubit_model.basis().hamiltonian(), 0.1)
        assert f == pytest.approx(2.5, abs=1e-10)

    def test_klein_inequality(self, qubit_model):
        basis = qubit_model.basis()
        beta = qubit_model.bath.beta
        f_eq = mp.equilibrium_free_energy(basis, beta)
        h = basis.hamiltonian()
        for seed in range(30):
            rho = mp.random_mixed_state(2, 2, seed=seed)
            assert mp.noneq_free_energy(rho, h, beta) >= f_eq - 1e-12

    @pytest.mark.parametrize("defect", ["one_dimensional", "non_square", "non_hermitian"])
    def test_malformed_hamiltonian_rejected(self, qubit_model, defect):
        basis = qubit_model.basis()
        h = basis.hamiltonian()
        h = {"one_dimensional": np.real(np.diag(h)), "non_square": h[:, :1],
             "non_hermitian": h + np.array([[0.0, 1.0], [0.0, 0.0]])}[defect]
        message = "not Hermitian" if defect == "non_hermitian" else "square matrix"
        with pytest.raises(ValidationError, match=message):
            mp.noneq_free_energy(mp.thermal_state(basis, 1.0), h, 1.0)

    @pytest.mark.parametrize("beta", [0.0, -1.0])
    def test_nonpositive_beta_rejected(self, qubit_model, beta):
        basis = qubit_model.basis()
        with pytest.raises(ValidationError, match="beta must be positive"):
            mp.noneq_free_energy(mp.thermal_state(basis, 1.0), basis.hamiltonian(), beta)
        with pytest.raises(ValidationError, match="beta must be positive"):
            mp.equilibrium_free_energy(basis, beta)


class TestRelativeEntropy:
    def test_identical_states(self):
        rho = mp.random_mixed_state(4, 3, seed=0)
        assert mp.relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-10)

    def test_pure_versus_maximally_mixed(self):
        pure = mp.bloch_to_state([0.0, 0.0, 1.0])
        mixed = mp.DensityMatrix(np.eye(2) / 2)
        assert mp.relative_entropy(pure, mixed) == pytest.approx(math.log(2), abs=1e-12)

    def test_support_violation_signals_infinity(self):
        pure_a = mp.bloch_to_state([0.0, 0.0, 1.0])
        pure_b = mp.bloch_to_state([0.0, 0.0, -1.0])
        assert mp.relative_entropy(pure_a, pure_b) == math.inf

    def test_free_energy_identity_along_trajectory(self, qubit_model, qubit_setup):
        basis, beta, grid, traj = qubit_setup
        tau = mp.thermal_state(basis, beta)
        f_eq = mp.equilibrium_free_energy(basis, beta)
        for state, f_neq in zip(grid.states, traj.f_neq):
            d = mp.relative_entropy(state, tau)
            assert f_neq == pytest.approx(d / beta + f_eq, abs=1e-9)


class TestEntropySplit:
    def test_diagonal_state_has_zero_coherence(self, qubit_model):
        basis = qubit_model.basis()
        beta = qubit_model.bath.beta
        tau_p = mp.thermal_populations(basis, beta)
        rho = mp.dephase(mp.random_mixed_state(2, 2, seed=1), basis)
        _, c = mp.entropy_split(rho, tau_p, basis)
        assert c == pytest.approx(0.0, abs=1e-12)

    def test_pure_coherent_split(self, qubit_model):
        # r = (1,0,0) against tau = I/2: populations already uniform
        basis = mp.diagonalize(np.diag([-1.0, 1.0]).astype(complex))
        rho = mp.bloch_to_state([1.0, 0.0, 0.0])
        p, c = mp.entropy_split(rho, np.array([0.5, 0.5]), basis)
        assert p == pytest.approx(0.0, abs=1e-12)
        assert c == pytest.approx(math.log(2), abs=1e-12)

    def test_split_sums_to_relative_entropy(self, qubit_model, qubit_setup):
        basis, beta, grid, _ = qubit_setup
        tau_p = mp.thermal_populations(basis, beta)
        tau = mp.thermal_state(basis, beta)
        for state in grid.states[::20]:
            p, c = mp.entropy_split(state, tau_p, basis)
            assert p + c == pytest.approx(mp.relative_entropy(state, tau), abs=1e-9)

    def test_zero_thermal_population_signals_infinity(self, qubit_model):
        basis = qubit_model.basis()
        rho = mp.bloch_to_state([0.0, 0.0, 1.0])
        p, _ = mp.entropy_split(rho, np.array([1.0, 0.0]), basis)
        assert p == math.inf


    @pytest.mark.parametrize("tau_p, message", [
        ([np.nan, 1.0], "probability vector"),
        ([1.5, -0.5], "probability vector"),
        ([0.25, 0.25], "probability vector"),
        ([0.5, 0.25, 0.25], "does not match the spectrum dimension"),
    ], ids=["nan", "negative", "sum", "length"])
    def test_rejects_bad_thermal_populations(self, qubit_model, tau_p, message):
        rho = mp.bloch_to_state(list(DEMO_BLOCH))
        with pytest.raises(ValidationError, match=message):
            mp.entropy_split(rho, tau_p, qubit_model.basis())


# The bodies of the three entropy functions before states kept their
# eigenvalues, each solving the spectrum of the matrix it was given: the
# stored eigenvalues must reproduce them bit for bit.
def _reference_noneq_free_energy(m, h, beta):
    energy = float(np.real(np.trace(h @ m)))
    return energy - float(_shannon(np.linalg.eigvalsh(m))) / beta


def _reference_relative_entropy(a, b):
    s_eigs, s_vecs = np.linalg.eigh(b)
    weights = np.real(np.einsum("ij,jk,ki->i", s_vecs.conj().T, a, s_vecs))
    dead = s_eigs <= SUPPORT_TOL
    if np.any(weights[dead] > SUPPORT_TOL):
        return math.inf
    live = ~dead
    cross = float(weights[live] @ np.log(s_eigs[live]))
    value = -float(_shannon(np.linalg.eigvalsh(a))) - cross
    return max(value, 0.0) if value > -1e-10 else value


def _reference_entropy_split(m, t, basis):
    rho_e = basis.to_eigenbasis(m)
    p = np.clip(np.real(np.diag(rho_e)), 0.0, None)
    dead = t <= 0.0
    coherent = float(_shannon(p) - _shannon(np.linalg.eigvalsh(m)))
    if np.any(p[dead] > SUPPORT_TOL):
        return math.inf, coherent
    live = ~dead
    classical = float(xlogx(p).sum() - p[live] @ np.log(t[live]))
    return max(classical, 0.0), max(coherent, 0.0)


@pytest.mark.parametrize("length", [None, 3, 5])
def test_entropies_match_reference_bodies_bitwise(length):
    model = mp.single_qubit() if length is None else mp.tfim(length=length)
    basis = model.basis()
    d = basis.dim
    beta = model.bath.beta
    h = basis.hamiltonian()
    tau = mp.thermal_state(basis, beta)
    tau_p = mp.thermal_populations(basis, beta)
    states = [mp.random_mixed_state(d, n, seed=seed) for seed, n in ((0, 1), (1, 3), (2, 50))]
    states.append(mp.random_pure_state(d, seed=3))
    for rho in states:
        m = rho.entries
        assert mp.noneq_free_energy(rho, h, beta) == _reference_noneq_free_energy(m, h, beta)
        assert mp.relative_entropy(rho, tau) == _reference_relative_entropy(m, tau.entries)
        assert mp.entropy_split(rho, tau_p, basis) == _reference_entropy_split(m, tau_p, basis)
        # an array gives the bits of its state
        assert mp.noneq_free_energy(np.array(m), h, beta) == _reference_noneq_free_energy(m, h, beta)
        # as does a Hamiltonian already judged
        f = mp.noneq_free_energy(rho, mp.HermitianOperator(h), beta)
        assert f == _reference_noneq_free_energy(m, h, beta)


def test_nan_state_raises_in_entropies(qubit_model):
    # p ln p refuses NaN instead of reading it as 0 ln 0
    m = np.array([[0.5, np.nan], [np.nan, 0.5]])
    basis = qubit_model.basis()
    with pytest.raises(ValidationError, match="NaN"):
        xlogx([0.5, np.nan])
    with pytest.raises(ValidationError, match="NaN"):
        mp.entropy_split(m, [0.5, 0.5], basis)
    with pytest.raises(ValidationError, match="NaN"):
        mp.noneq_free_energy(m, basis.hamiltonian(), 1.0)
    with pytest.raises(ValidationError, match="NaN"):
        mp.relative_entropy(m, np.eye(2) / 2)


class TestDistances:
    def test_l1_zero_iff_equal(self, qubit_model):
        basis = qubit_model.basis()
        tau = mp.thermal_state(basis, 0.1)
        assert mp.l1_elementwise(tau, tau, basis) == 0.0
        rho = mp.bloch_to_state(list(DEMO_BLOCH))
        assert mp.l1_elementwise(rho, tau, basis) > 0.0

    def test_l1_dimension_mismatch_rejected(self, qubit_model):
        tau = mp.thermal_state(qubit_model.basis(), 0.1)
        with pytest.raises(ValidationError, match="dimensions differ"):
            mp.l1_elementwise(tau, mp.random_mixed_state(4, 2, seed=0), qubit_model.basis())

    def test_l1_elementwise_oracle_2x2(self, qubit_model):
        basis = qubit_model.basis()
        rho = mp.bloch_to_state([0.3, 0.1, 0.2])
        tau = mp.bloch_to_state([0.0, 0.0, -0.4])
        a = basis.to_eigenbasis(rho.entries)
        b = basis.to_eigenbasis(tau.entries)
        oracle = sum(abs(a[i, j] - b[i, j]) for i in range(2) for j in range(2))
        assert mp.l1_elementwise(rho, tau, basis) == pytest.approx(oracle, abs=1e-14)

    @pytest.mark.parametrize("case", ["tfim3_block", "qubit_dense"])
    def test_trace_distance_is_the_t1_oracle(self, case, qubit_model, qubit_spec, tfim3_model):
        # the trajectory's batched T1 column against the one-state routine
        if case == "tfim3_block":
            model, spec = tfim3_model, mp.decompose(mp.build_generator(tfim3_model))
            rho, t_max = mp.random_mixed_state(8, 4, seed=11), 6.0
        else:
            model, spec = qubit_model, qubit_spec
            rho, t_max = mp.bloch_to_state(list(DEMO_BLOCH)), 4.0
        assert spec.kind == case.split("_")[1]
        basis, beta = model.basis(), model.bath.beta
        grid = mp.evolve_spectral(spec, rho, np.linspace(0.0, t_max, 41))
        traj = mp.compute_trajectory(grid, basis, beta)
        tau = mp.thermal_state(basis, beta)
        oracle = [mp.trace_distance(state, tau) for state in grid.states]
        np.testing.assert_allclose(traj.t1, oracle, rtol=0, atol=1e-12)
        assert traj.t1[0] > 0.05

    def test_pinsker(self, qubit_model, qubit_setup):
        basis, beta, grid, traj = qubit_setup
        # D >= ||rho - tau||_1^2 / 2 with the Schatten-1 norm (= 2 T1)
        for d, t1 in zip(traj.d_rel, traj.t1):
            assert d >= (2.0 * t1) ** 2 / 2.0 - 1e-12


class TestSpohnRate:
    def test_equilibrium_start_is_zero(self, qubit_model, qubit_spec):
        basis = qubit_model.basis()
        beta = qubit_model.bath.beta
        tau = mp.thermal_state(basis, beta)
        grid = mp.evolve_spectral(qubit_spec, tau, np.linspace(0.0, 2.0, 21))
        traj = mp.compute_trajectory(grid, basis, beta)
        assert np.abs(traj.pi).max() <= 1e-10

    def test_nonnegative_along_trajectory(self, qubit_setup):
        _, _, _, traj = qubit_setup
        assert traj.pi.min() >= -1e-8

    def test_integral_matches_free_energy_drop(self, qubit_setup):
        _, beta, _, traj = qubit_setup
        integral = np.trapezoid(traj.pi, traj.times)
        expected = beta * (traj.f_neq[0] - traj.f_neq[-1])
        assert integral == pytest.approx(expected, rel=0.01)

    @pytest.mark.parametrize("grid", ["uniform", "nonuniform", "three"])
    def test_second_order_against_analytic_rate(self, grid):
        # F = exp(-t) has Pi = beta exp(-t): halving the spacing quarters the
        # largest error, endpoints included
        beta = 0.7
        errors = []
        for k in range(3, 8):
            h = 2.0**-k
            s = np.arange(2**k + 1) * h  # spacing exactly h
            times = {"uniform": s, "nonuniform": s + 0.3 * s**2,
                     "three": h * np.array([0.0, 0.3, 1.0])}[grid]
            pi = mp.spohn_rate(times, np.exp(-times), beta)
            errors.append(np.abs(pi - beta * np.exp(-times)).max())
        ratios = np.array(errors[:-1]) / np.array(errors[1:])
        assert np.all((ratios > 3.5) & (ratios < 4.5)), ratios

    def test_needs_three_points(self):
        with pytest.raises(ValidationError):
            mp.spohn_rate([0.0, 1.0], [1.0, 0.5], 1.0)

    @pytest.mark.parametrize("times", [[0.0, 2.0, 1.0], [0.0, np.nan, 2.0]], ids=["descending", "nan"])
    def test_malformed_grid_rejected(self, times):
        with pytest.raises(ValidationError, match="^times must"):
            mp.spohn_rate(times, [1.0, 0.5, 0.25], 1.0)

    def test_relative_entropy_monotone(self, qubit_setup):
        _, _, _, traj = qubit_setup
        assert np.all(np.diff(traj.d_rel) <= 1e-10)


class TestTrajectoryObject:
    def test_identities_hold_pointwise(self, qubit_setup):
        _, beta, _, traj = qubit_setup
        np.testing.assert_allclose(
            traj.d_rel, beta * (traj.f_neq - traj.f_eq), atol=1e-9
        )
        np.testing.assert_allclose(traj.d_rel, traj.p_classical + traj.c_coherence, atol=1e-9)
        assert traj.d_rel.min() >= 0.0
        assert traj.p_classical.min() >= 0.0
        assert traj.c_coherence.min() >= 0.0

    def test_csv_format_and_determinism(self, tmp_path, qubit_setup):
        _, _, _, traj = qubit_setup
        path_a = tmp_path / "a.csv"
        path_b = tmp_path / "b.csv"
        traj.to_csv(path_a)
        traj.to_csv(path_b)
        assert path_a.read_bytes() == path_b.read_bytes()
        header = path_a.read_text().splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)

    def test_csv_round_trips_every_value(self, tmp_path, qubit_setup):
        # 17 significant digits restore each double; non-finite values keep their sign
        _, _, _, traj = qubit_setup
        p_cl = np.array(traj.p_classical)
        p_cl[:3] = (math.inf, -math.inf, math.nan)
        traj = dataclasses.replace(traj, p_classical=p_cl)
        path = tmp_path / "t.csv"
        traj.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[1].split(",")[3] == "inf" and lines[2].split(",")[3] == "-inf"
        table = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        columns = [traj.times, traj.f_neq, traj.d_rel, traj.p_classical, traj.c_coherence,
                   traj.l1, traj.t1, traj.pi]
        assert table.tobytes() == np.column_stack(columns).tobytes()

    def test_short_grid_drops_spohn_column(self, qubit_model, qubit_spec, tmp_path):
        basis = qubit_model.basis()
        rho = mp.bloch_to_state(list(DEMO_BLOCH))
        grid = mp.evolve_spectral(qubit_spec, rho, [1.0])
        traj = mp.compute_trajectory(grid, basis, qubit_model.bath.beta)
        assert traj.pi.size == 0
        path = tmp_path / "single.csv"
        traj.to_csv(path)
        assert path.read_text().splitlines()[0] == ",".join(CSV_COLUMNS[:-1])

    def test_fit_decay_rate_on_synthetic_data(self):
        times = np.linspace(0.0, 10.0, 100)
        values = 3.0 * np.exp(-0.7 * times)
        assert mp.fit_decay_rate(times, values) == pytest.approx(-0.7, rel=1e-10)
        with pytest.raises(ValidationError):
            mp.fit_decay_rate(times, np.full_like(times, 1e-15))

    @pytest.mark.parametrize(
        "times, values",
        [
            ([0.0, 1.0, 2.0, 3.0], [1.0, 0.5, 0.25]),
            ([0.0, 1.0, np.nan, 3.0], [1.0, 0.5, 0.25, 0.125]),
            ([[0.0, 1.0, 2.0, 3.0]], [[1.0, 0.5, 0.25, 0.125]]),
        ],
        ids=["length_mismatch", "nan_time", "2d_grid"],
    )
    def test_fit_decay_rate_judges_its_grid(self, times, values):
        with pytest.raises(ValidationError, match="times"):
            mp.fit_decay_rate(times, values)


# -- per-point reference: each state evolved, checked and diagnosed on its
#    own, against which the chunked stacks must agree bit for bit


def _reference_block_states(gen, rho, times):
    basis = gen.basis
    rho_e = basis.to_eigenbasis(rho.entries)
    p0 = np.real(np.diag(rho_e)).copy()
    pops = np.array(list(_propagate(np.asarray(gen.pop_block, dtype=float), p0, times)))
    gmat = gen.coh_block
    states = []
    for j, t in enumerate(times):
        out = rho_e * np.exp(gmat * t)
        np.fill_diagonal(out, pops[j])
        states.append(reference_package_state(out, basis))
    return states


def _reference_dense_states(spec, rho, times):
    basis = spec.basis
    amps = spec.amplitudes(rho)
    rights = np.stack([spec.right(k) for k in range(1, spec.n_modes + 1)])
    tau_e = basis.to_eigenbasis(spec.steady_state.entries)
    phases = np.exp(np.outer(times, spec.eigenvalues[1:]))
    deltas = np.einsum("tk,k,knm->tnm", phases, amps[1:], rights[1:], optimize=True)
    return [reference_package_state(tau_e + deltas[j], basis) for j in range(times.size)]


def _reference_direct_states(gen, rho, times):
    basis, d = gen.basis, gen.basis.dim
    state_vec = basis.to_eigenbasis(rho.entries).reshape(-1)
    propagators, states, prev_t = {}, [], 0.0
    for t in times:
        dt = t - prev_t
        if dt != 0.0:
            key = round(dt, 15)
            if key not in propagators:
                propagators[key] = scipy.linalg.expm(gen.dense * dt)
            state_vec = propagators[key] @ state_vec
        prev_t = t
        states.append(reference_package_state(state_vec.reshape(d, d), basis))
    return states


def _reference_columns(states, basis, beta):
    """f_neq, d_rel, p_classical, c_coherence, l1, t1 of each state, one at a time."""
    h = basis.hamiltonian()
    tau_p = mp.thermal_populations(basis, beta)
    tau_lab = basis.from_eigenbasis(np.diag(tau_p).astype(complex))
    log_tau = log_gibbs_weights(basis.energies, beta)
    rows = []
    for state in states:
        rho_e = basis.to_eigenbasis(state.entries)
        pops = np.clip(np.real(np.diag(rho_e)), 0.0, None)
        s_rho = float(-xlogx(np.clip(np.linalg.eigvalsh(rho_e), 0.0, None)).sum())
        energy = float(np.real(np.trace(h @ state.entries)))
        p_cl = max(float(xlogx(pops).sum() - pops @ log_tau), 0.0)
        c_coh = max(float(-xlogx(pops).sum()) - s_rho, 0.0)
        rows.append((
            energy - s_rho / beta, p_cl + c_coh, p_cl, c_coh,
            float(np.abs(rho_e - np.diag(tau_p)).sum()),
            float(0.5 * np.abs(np.linalg.eigvalsh(state.entries - tau_lab)).sum()),
        ))
    return np.array(rows, dtype=float).reshape(len(states), 6).T


@pytest.fixture(scope="module")
def tfim5_case():
    model = mp.tfim(length=5, coupling=1.0, h_field=0.5, t_bath=0.1, statistics="fermi")
    gen = mp.build_generator(model)
    spec = mp.decompose(gen)
    rho = spec.project_physical(mp.random_mixed_state(32, 1000, seed=3))
    return model, gen, spec, rho


class TestBatchedTrajectory:
    """evolve_* + compute_trajectory, chunked, equal the per-point reference."""

    @pytest.fixture(params=["tfim3_block", "tfim5_block", "qubit_dense", "tfim3_dense",
                            "tfim3_direct", "qubit_direct"])
    def case(self, request, qubit_model, qubit_gen, tfim3_model, tfim3_gen, tfim5_case):
        kind = request.param
        if kind.startswith("tfim5"):
            model, gen, spec, rho = tfim5_case
            t_max = 14.0
        elif kind.startswith("tfim3"):
            model, gen, t_max = tfim3_model, tfim3_gen, 6.0
            spec = mp.decompose(gen, prefer="dense" if kind.endswith("dense") else "auto")
            rho = mp.random_mixed_state(8, 4, seed=11)
        else:
            model, gen, t_max = qubit_model, qubit_gen, 4.0
            spec = mp.decompose(gen, prefer="dense")
            rho = mp.bloch_to_state(list(DEMO_BLOCH))
        if kind.endswith("direct"):
            return model, (lambda t: mp.evolve_direct(gen, rho, t)), \
                (lambda t: _reference_direct_states(gen, rho, t)), t_max
        if spec.kind == "block":
            return model, (lambda t: mp.evolve_spectral(spec, rho, t)), \
                (lambda t: _reference_block_states(gen, rho, t)), t_max
        return model, (lambda t: mp.evolve_spectral(spec, rho, t)), \
            (lambda t: _reference_dense_states(spec, rho, t)), t_max

    @pytest.mark.parametrize("n_points", [281, 17, 1, "two_chunks_ragged"])
    def test_bitwise_equal_to_pointwise_reference(self, case, n_points):
        model, evolve, reference, t_max = case
        if n_points == "two_chunks_ragged":
            # two full chunks and a short third: 2053 points at d=2, 133 at d=8
            n_points = 2 * chunk_points(model.basis().dim) + 5
        times = np.linspace(0.0, t_max, n_points) if n_points > 1 else np.array([t_max / 3])
        basis, beta = model.basis(), model.bath.beta
        grid = evolve(times)
        states = reference(times)
        want = np.stack([s.entries for s in states])
        assert grid.entries.shape == want.shape
        assert np.array_equal(grid.entries, want)
        spectra = np.array([np.linalg.eigvalsh(basis.to_eigenbasis(m)) for m in want])
        assert np.array_equal(grid.spectra, spectra)

        traj = mp.compute_trajectory(grid, basis, beta)
        f_neq, d_rel, p_cl, c_coh, l1, t1 = _reference_columns(states, basis, beta)
        for got, ref in ((traj.f_neq, f_neq), (traj.d_rel, d_rel), (traj.p_classical, p_cl),
                         (traj.c_coherence, c_coh), (traj.l1, l1), (traj.t1, t1)):
            assert np.array_equal(got, ref)
        pi = mp.spohn_rate(times, f_neq, beta) if n_points >= 3 else np.empty(0)
        assert np.array_equal(traj.pi, pi)

    def test_two_solves_per_point_and_no_state_objects(self, monkeypatch, tfim5_case):
        # one solve per point validates the state and gives S(rho), one gives
        # the trace distance; both are batched per chunk
        model, _, spec, rho = tfim5_case
        times = np.linspace(0.0, 14.0, 281)
        solves, built = [], []
        eigvalsh, init = np.linalg.eigvalsh, mp.DensityMatrix.__init__

        def counting_eigvalsh(a, *args, **kwargs):
            solves.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        monkeypatch.setattr(mp.DensityMatrix, "__init__", counting_init)
        grid = mp.evolve_spectral(spec, rho, times)
        mp.compute_trajectory(grid, model.basis(), model.bath.beta)
        chunks = -(-times.size // chunk_points(model.basis().dim))
        assert len(solves) == 2 * chunks
        assert sum(shape[0] for shape in solves) == 2 * times.size
        assert not built


class TestPropagate:
    """The stepwise propagator behind evolve_direct and the population sector."""

    @pytest.mark.parametrize("grid", ["linspace", "irregular"])
    def test_one_expm_per_rounded_step_one_round_per_exact_step(
        self, monkeypatch, qubit_gen, grid
    ):
        if grid == "linspace":
            times = np.linspace(0.0, 4.0, 401)
        else:
            rng = np.random.default_rng(5)
            times = np.cumsum(np.r_[0.05, rng.choice([0.01, 0.03, 0.2], 120)])
        steps = [t - prev for prev, t in zip(np.r_[0.0, times[:-1]], times) if t != prev]
        exact, rounded = set(steps), {round(dt, 15) for dt in steps}
        # jittered steps: more exact step lengths than rounded ones
        assert len(exact) > len(rounded)
        rho = mp.bloch_to_state(list(DEMO_BLOCH))
        basis, d = qubit_gen.basis, qubit_gen.basis.dim
        want = _reference_direct_states(qubit_gen, rho, times)

        rounds, expms = [], []
        expm = scipy.linalg.expm

        def counting_round(x, ndigits):
            rounds.append(x)
            return round(x, ndigits)

        def counting_expm(a):
            expms.append(1)
            return expm(a)

        monkeypatch.setattr(mp.spectral, "round", counting_round, raising=False)
        monkeypatch.setattr(scipy.linalg, "expm", counting_expm)
        vecs = list(_propagate(qubit_gen.dense, basis.to_eigenbasis(rho.entries).reshape(-1), times))
        assert sorted(rounds) == sorted(exact)
        assert len(expms) == len(rounded)
        assert len(vecs) == times.size
        for vec, state in zip(vecs, want):
            got = reference_package_state(vec.reshape(d, d), basis)
            assert np.array_equal(got.entries, state.entries)
