import dataclasses
import math

import numpy as np
import pytest

import mpemba as mp
from mpemba.errors import ValidationError
from mpemba.thermo import CSV_COLUMNS

from conftest import DEMO_BLOCH


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


class TestDistances:
    def test_l1_zero_iff_equal(self, qubit_model):
        basis = qubit_model.basis()
        tau = mp.thermal_state(basis, 0.1)
        assert mp.l1_elementwise(tau, tau, basis) == 0.0
        rho = mp.bloch_to_state(list(DEMO_BLOCH))
        assert mp.l1_elementwise(rho, tau, basis) > 0.0

    def test_l1_elementwise_oracle_2x2(self, qubit_model):
        basis = qubit_model.basis()
        rho = mp.bloch_to_state([0.3, 0.1, 0.2])
        tau = mp.bloch_to_state([0.0, 0.0, -0.4])
        a = basis.to_eigenbasis(rho.entries)
        b = basis.to_eigenbasis(tau.entries)
        oracle = sum(abs(a[i, j] - b[i, j]) for i in range(2) for j in range(2))
        assert mp.l1_elementwise(rho, tau, basis) == pytest.approx(oracle, abs=1e-14)

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

    def test_needs_three_points(self):
        with pytest.raises(ValidationError):
            mp.spohn_rate([0.0, 1.0], [1.0, 0.5], 1.0)

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
