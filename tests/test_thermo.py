import dataclasses
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import mpemba as mp
from mpemba.config import load_config
from mpemba.errors import ValidationError
from mpemba.operators import HERMITICITY_TOL
from mpemba.spectral import EVOLUTION_PSD_TOL, _package_states, _propagate, chunk_points, energy_diagonal
from mpemba.thermo import CSV_COLUMNS, SUPPORT_TOL, _mean_energy, _shannon
from mpemba.utils import chunk_slices, diagonal_stack, herm_defect, hermitize, log_gibbs_weights, xlogx

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

    def test_zero_temperature_is_the_ground_energy(self, qubit_model):
        # beta = inf: the Gibbs log-weights are 0 on the ground level and -inf
        # above, so F_eq = E_0, with no inf * 0 on the way (a warning raises)
        basis = qubit_model.basis()
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            log_p = log_gibbs_weights(basis.energies, math.inf)
            p = mp.thermal_populations(basis, math.inf)
            f_eq = mp.equilibrium_free_energy(basis, math.inf)
        assert log_p.tolist() == [0.0, -math.inf] and p.tolist() == [1.0, 0.0]
        assert f_eq == basis.energies[0] == -2.5
        ground = mp.thermal_state(basis, math.inf)
        f_ground = mp.noneq_free_energy(ground, basis.hamiltonian(), math.inf)
        assert f_ground == pytest.approx(f_eq, abs=1e-12)

    def test_trajectory_refuses_zero_temperature(self, qubit_setup):
        # D to the zero-temperature Gibbs state is infinite: refused, not NaN columns
        basis, _, grid, _ = qubit_setup
        with pytest.raises(ValidationError, match="finite and positive for a trajectory"):
            mp.compute_trajectory(grid, basis, math.inf)

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

    @pytest.mark.parametrize("entry", ["noneq_free_energy", "equilibrium_free_energy", "spohn_rate",
                                       "thermal_populations", "compute_trajectory"])
    def test_nan_beta_rejected(self, qubit_setup, entry):
        # a NaN fails `beta <= 0` and `beta < 0` as well, so each check is
        # written to fail on it, before any arithmetic
        basis, _, grid, traj = qubit_setup
        call = {
            "noneq_free_energy": lambda b: mp.noneq_free_energy(
                mp.thermal_state(basis, 1.0), basis.hamiltonian(), b),
            "equilibrium_free_energy": lambda b: mp.equilibrium_free_energy(basis, b),
            "spohn_rate": lambda b: mp.spohn_rate(traj.times, traj.f_neq, b),
            "thermal_populations": lambda b: mp.thermal_populations(basis, b),
            "compute_trajectory": lambda b: mp.compute_trajectory(grid, basis, b),
        }[entry]
        with pytest.raises(ValidationError, match="beta must be"):
            call(math.nan)


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_fit_decay_rate_refuses_non_finite_values(self, bad):
        # a NaN or -inf would fail the floor and drop out of the fit silently,
        # and +inf would pass it into the log
        with pytest.raises(ValidationError, match="finite"):
            mp.fit_decay_rate([0.0, 1.0, 2.0, 3.0], [1.0, bad, 0.5, 0.2])

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
#    own, in the energy basis, against which the chunked stacks must agree
#    bit for bit


def _reference_block_states(gen, rho, times):
    basis = gen.basis
    rho_e = basis.to_eigenbasis(rho.entries)
    off = ~np.eye(basis.dim, dtype=bool)
    if np.abs(rho_e[off]).max(initial=0.0) <= 4 * basis.dim * np.finfo(float).eps * np.abs(rho_e).max():
        rho_e = np.diag(np.diag(rho_e))  # the entry rule: such coherences are rotation rounding
    p0 = np.real(np.diag(rho_e)).copy()
    pops = np.array(list(_propagate(np.asarray(gen.pop_block, dtype=float), p0, times)))
    c = 0.5 * np.diag(gen.pop_block) - 1j * basis.energies
    states = []
    for j, t in enumerate(times):
        k = np.exp(t * c)
        out = k[:, None] * rho_e * k.conj()[None, :]
        np.fill_diagonal(out, pops[j])
        states.append(reference_package_state(out))
    return states


def _reference_dense_states(spec, rho, times):
    basis = spec.basis
    amps = spec.amplitudes(rho)
    rights = np.stack([spec.right(k) for k in range(1, spec.n_modes + 1)])
    tau_e = basis.to_eigenbasis(spec.steady_state.entries)
    phases = np.exp(np.outer(times, spec.eigenvalues[1:]))
    deltas = np.einsum("tk,k,knm->tnm", phases, amps[1:], rights[1:], optimize=True)
    return [reference_package_state(tau_e + deltas[j]) for j in range(times.size)]


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
        states.append(reference_package_state(state_vec.reshape(d, d)))
    return states


def _reference_energy(rho_e, basis):
    """Re Tr(H rho) = sum_n E_n p_n of one energy-basis state, one dot."""
    return float(np.real(np.diag(rho_e)) @ basis.energies)


@pytest.mark.parametrize("layout", ["contiguous", "stack_diagonal"])
def test_mean_energy_is_one_dot_per_state(layout):
    # a contiguous (T, d) array handed to matmul as it is sums in another order at d = 32
    basis = mp.tfim(length=5).basis()
    pops = np.random.default_rng(32).dirichlet(np.ones(32), size=40)
    stack = diagonal_stack(pops)
    want = [float(np.real(np.diag(m)) @ basis.energies) for m in stack]
    if layout == "stack_diagonal":
        pops = np.real(np.diagonal(stack, axis1=1, axis2=2))
    assert np.array_equal(_mean_energy(pops, basis.energies), want)


def _reference_columns(states, basis, beta):
    """f_neq, d_rel, p_classical, c_coherence, l1, t1 of each energy-basis state, one at a time."""
    tau_p = mp.thermal_populations(basis, beta)
    log_tau = log_gibbs_weights(basis.energies, beta)
    rows = []
    for state in states:
        rho_e = state.entries
        pops = np.clip(np.real(np.diag(rho_e)), 0.0, None)
        s_rho = float(-xlogx(np.clip(np.linalg.eigvalsh(rho_e), 0.0, None)).sum())
        energy = _reference_energy(rho_e, basis)
        p_cl = max(float(xlogx(pops).sum() - pops @ log_tau), 0.0)
        c_coh = max(float(-xlogx(np.sort(pops)).sum()) - s_rho, 0.0)  # in the spectra's order
        rows.append((
            energy - s_rho / beta, p_cl + c_coh, p_cl, c_coh,
            float(np.abs(rho_e - np.diag(tau_p)).sum()),
            float(0.5 * np.abs(np.linalg.eigvalsh(rho_e - np.diag(tau_p))).sum()),
        ))
    return np.array(rows, dtype=float).reshape(len(states), 6).T


@pytest.fixture(scope="module")
def tfim5_case():
    model = mp.tfim(length=5, coupling=1.0, h_field=0.5, t_bath=0.1, statistics="fermi")
    gen = mp.build_generator(model)
    spec = mp.decompose(gen)
    rho = spec.project_physical(mp.random_mixed_state(32, 1000, seed=3))
    return model, gen, spec, rho


def _count_solves(monkeypatch):
    solves = []
    eigvalsh = np.linalg.eigvalsh

    def counting_eigvalsh(a, *args, **kwargs):
        solves.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    return solves


class TestBatchedTrajectory:
    """evolve_* + compute_trajectory, chunked, equal the per-point reference."""

    @pytest.fixture(params=["tfim3_block", "tfim5_block", "tfim5_block_diagonal", "qubit_block",
                            "qubit_dense", "tfim3_dense", "tfim3_direct", "qubit_direct"])
    def case(self, request, qubit_model, qubit_gen, tfim3_model, tfim3_gen, tfim5_case):
        kind = request.param
        if kind.startswith("tfim5"):
            model, gen, spec, rho = tfim5_case
            t_max = 14.0
            if kind.endswith("diagonal"):  # no eigen-solve; the reference still makes each one
                rho, _ = mp.exact_transform(rho, model.basis())
        elif kind.startswith("tfim3"):
            model, gen, t_max = tfim3_model, tfim3_gen, 6.0
            spec = mp.decompose(gen, prefer="dense" if kind.endswith("dense") else "auto")
            rho = mp.random_mixed_state(8, 4, seed=11)
        else:
            model, gen, t_max = qubit_model, qubit_gen, 4.0
            spec = mp.decompose(gen, prefer="auto" if kind.endswith("block") else "dense")
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
        # the stored stack is each reference state, as evolved and checked on its own
        want = np.stack([s.entries for s in states])
        assert grid.eigen_entries.shape == want.shape
        assert np.array_equal(grid.eigen_entries, want)
        assert np.array_equal(grid.entries, basis.from_eigenbasis(want))
        spectra = np.array([np.linalg.eigvalsh(m) for m in want])
        assert np.array_equal(grid.spectra, spectra)

        traj = mp.compute_trajectory(grid, basis, beta)
        f_neq, d_rel, p_cl, c_coh, l1, t1 = _reference_columns(states, basis, beta)
        for got, ref in ((traj.f_neq, f_neq), (traj.d_rel, d_rel), (traj.p_classical, p_cl),
                         (traj.c_coherence, c_coh), (traj.t1, t1)):
            assert np.array_equal(got, ref)
        if grid.populations is None:
            assert np.array_equal(traj.l1, l1)
        else:  # a sum over the d populations, not the d * d entries: it re-rounds
            assert np.all(np.abs(traj.l1 - l1) <= 2 * np.spacing(np.maximum(traj.l1, l1)))
        pi = mp.spohn_rate(times, f_neq, beta) if n_points >= 3 else np.empty(0)
        assert np.array_equal(traj.pi, pi)

    def test_two_solves_per_point_and_no_state_objects(self, monkeypatch, tfim5_case):
        # one solve per point validates the state and gives S(rho), one gives
        # the trace distance; both are batched per chunk
        model, _, spec, rho = tfim5_case
        times = np.linspace(0.0, 14.0, 281)
        built, init = [], mp.DensityMatrix.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        solves = _count_solves(monkeypatch)
        monkeypatch.setattr(mp.DensityMatrix, "__init__", counting_init)
        grid = mp.evolve_spectral(spec, rho, times)
        mp.compute_trajectory(grid, model.basis(), model.bath.beta)
        chunks = -(-times.size // chunk_points(model.basis().dim))
        assert len(solves) == 2 * chunks
        assert sum(shape[0] for shape in solves) == 2 * times.size
        assert not built

    def test_trajectory_makes_no_rotation(self, monkeypatch, tfim5_case):
        # the grid stores energy-basis states and their energies, so the
        # trajectory neither rotates a state nor rebuilds H
        model, _, spec, rho = tfim5_case
        basis = model.basis()
        grid = mp.evolve_spectral(spec, rho, np.linspace(0.0, 14.0, 281))
        calls = []
        for name in ("to_eigenbasis", "from_eigenbasis", "hamiltonian"):
            method = getattr(mp.SpectralBasis, name)

            def counting(self, *args, _name=name, _method=method, **kwargs):
                calls.append(_name)
                return _method(self, *args, **kwargs)

            monkeypatch.setattr(mp.SpectralBasis, name, counting)
        mp.compute_trajectory(grid, basis, model.bath.beta)
        assert calls == []

    def test_basis_must_be_the_grids(self, qubit_model, tfim3_model, tfim3_gen):
        spec = mp.decompose(tfim3_gen)
        grid = mp.evolve_spectral(spec, mp.random_mixed_state(8, 4, seed=11), np.linspace(0.0, 2.0, 5))
        beta = tfim3_model.bath.beta
        equal = mp.SpectralBasis(spec.basis.energies, spec.basis.vectors)
        assert np.array_equal(mp.compute_trajectory(grid, equal, beta).f_neq,
                              mp.compute_trajectory(grid, spec.basis, beta).f_neq)
        vectors = spec.basis.vectors.copy()
        vectors[:, [0, 1]] = vectors[:, [1, 0]]
        other = (
            qubit_model.basis(),
            mp.SpectralBasis(spec.basis.energies + 1.0, spec.basis.vectors),
            mp.SpectralBasis(spec.basis.energies, vectors),
        )
        for basis in other:
            with pytest.raises(ValidationError, match="basis is not the one"):
                mp.compute_trajectory(grid, basis, beta)


class TestEnergyDiagonalEntry:
    """A state diagonal in the energy basis at entry evolves with exactly zero
    coherences and no eigen-solve; any other state evolves as it always did."""

    @pytest.fixture(params=["tfim5", "qubit"])
    def block_case(self, request, qubit_model, tfim5_case):
        if request.param == "tfim5":
            model, gen, spec, rho = tfim5_case
            return model, gen, spec, rho, np.linspace(0.0, 14.0, 281)
        gen = mp.build_generator(qubit_model)
        spec = mp.decompose(gen)
        assert spec.kind == "block"
        return qubit_model, gen, spec, mp.bloch_to_state(list(DEMO_BLOCH)), np.linspace(0.0, 4.0, 401)

    @pytest.mark.parametrize("start", ["exact_transform", "thermal", "swapped_populations"])
    def test_diagonal_start_stores_no_coherence_and_solves_nothing(self, block_case, start, monkeypatch):
        model, gen, spec, rho, times = block_case
        basis = model.basis()
        if start == "exact_transform":
            rho, _ = mp.exact_transform(rho, basis)
        elif start == "thermal":
            rho = mp.thermal_state(basis, 1.0)
        else:  # a swap walk's output: the thermal populations, reversed
            rho = mp.DensityMatrix(basis.from_eigenbasis(np.diag(mp.thermal_populations(basis, 1.0)[::-1])))
        solves = _count_solves(monkeypatch)
        grid = mp.evolve_spectral(spec, rho, times)
        mp.compute_trajectory(grid, basis, model.bath.beta)
        assert solves == []
        assert not grid.eigen_entries[:, ~np.eye(basis.dim, dtype=bool)].any()
        pops = np.real(np.diagonal(grid.eigen_entries, axis1=1, axis2=2))
        assert np.array_equal(grid.spectra, np.sort(pops))

    @pytest.mark.parametrize(
        "start", ["random_mixed", "criterion_05_low_overlap", "one_coherence_at_10x_the_bound"]
    )
    def test_other_starts_keep_every_coherence(self, tfim5_case, start, monkeypatch, request):
        model, gen, spec, rho = tfim5_case
        basis = model.basis()
        if start == "criterion_05_low_overlap":  # the same tfim() spectrum as criterion 05's
            rho = request.getfixturevalue("criterion_05_low_overlap")
        elif start == "one_coherence_at_10x_the_bound":
            rho_e = basis.to_eigenbasis(mp.exact_transform(rho, basis)[0].entries)
            rho_e = np.diag(np.diag(rho_e))
            rho_e[1, 2] = rho_e[2, 1] = 10 * 4 * basis.dim * np.finfo(float).eps * np.abs(rho_e).max()
            rho = mp.DensityMatrix(basis.from_eigenbasis(rho_e))
        times = np.linspace(0.0, 14.0, 281)
        solves = _count_solves(monkeypatch)
        grid = mp.evolve_spectral(spec, rho, times)
        mp.compute_trajectory(grid, basis, model.bath.beta)
        assert sum(shape[0] for shape in solves) == 2 * times.size
        off = ~np.eye(basis.dim, dtype=bool)
        assert np.array_equal(grid.eigen_entries[0][off], hermitize(basis.to_eigenbasis(rho.entries))[off])
        assert np.all(grid.eigen_entries[:, 1, 2] != 0)
        want = np.stack([s.entries for s in _reference_block_states(gen, rho, times)])
        assert np.array_equal(grid.eigen_entries, want)

    def test_the_bound_is_4_d_eps_of_the_largest_entry(self):
        assert energy_diagonal(np.array([[1.0 + 0.0j]]))
        bound = 4 * 3 * np.finfo(float).eps * 0.5
        rho_e = np.diag([0.5, 0.3, 0.2]).astype(complex)
        rho_e[0, 2] = rho_e[2, 0] = bound
        assert energy_diagonal(rho_e)
        rho_e[2, 0] = np.nextafter(bound, 1.0)
        assert not energy_diagonal(rho_e)


class TestPairingCheck:
    """The conjugate-pairing check runs where the pairing can break, on the dense
    mode sum and evolve_direct, once per chunk.  The block route makes none: each
    coherence is k_n rho_nm conj(k_m) with |k_n| <= 1, so its defect stays that of
    the rotated input, at most d * HERMITICITY_TOL."""

    @pytest.mark.parametrize("route", ["block", "block_diagonal", "dense", "direct"])
    def test_checks_per_chunk_and_stores_exactly_hermitian_chunks(self, route, monkeypatch,
                                                                   tfim3_model, tfim3_gen):
        basis = tfim3_model.basis()
        times = np.linspace(0.0, 6.0, 2 * chunk_points(basis.dim) + 5)  # three chunks
        rho = mp.random_mixed_state(8, 4, seed=11)
        if route == "block_diagonal":
            rho, _ = mp.exact_transform(rho, basis)
        checks, defect = [], mp.spectral.herm_defect
        monkeypatch.setattr(mp.spectral, "herm_defect", lambda m: checks.append(len(m)) or defect(m))
        if route == "direct":
            grid = mp.evolve_direct(tfim3_gen, rho, times)
        else:
            spec = mp.decompose(tfim3_gen, prefer="dense" if route == "dense" else "auto")
            grid = mp.evolve_spectral(spec, rho, times)
        assert checks == ([] if route.startswith("block") else [64, 64, 5])
        stack = grid.eigen_entries
        assert np.array_equal(stack, stack.conj().swapaxes(1, 2))

    def test_start_at_the_hermiticity_bound_equals_the_checked_reference(self, tfim5_case):
        model, gen, spec, rho = tfim5_case
        entries = rho.entries.copy()
        entries[0, 5] += (1.0 - 1e-5) * HERMITICITY_TOL  # below the bound by rounding's margin
        start = mp.DensityMatrix(entries)
        assert 0.99 * HERMITICITY_TOL <= herm_defect(start.entries) <= HERMITICITY_TOL
        rho_e = model.basis().to_eigenbasis(start.entries)
        assert herm_defect(rho_e) <= model.basis().dim * HERMITICITY_TOL
        times = np.linspace(0.0, 14.0, 281)
        grid = mp.evolve_spectral(spec, start, times)
        # the reference checks the pairing of every point, and passes
        want = np.stack([s.entries for s in _reference_block_states(gen, start, times)])
        assert np.array_equal(grid.eigen_entries, want)


class TestCoherenceOfADiagonalState:
    """C sums the populations' -p ln p in the order of the spectra, so a state with
    no coherence has C = 0 and D = P exactly."""

    @pytest.mark.parametrize("start", ["metropolis_swap_thermal", "tfim5_exact_transform"])
    def test_c_is_zero_and_d_is_p(self, start, tfim5_case):
        if start == "metropolis_swap_thermal":
            cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "metropolis_swap.json")
            model = cfg.build_model()
            spec = mp.decompose(mp.build_generator(model))
            rho = mp.thermal_state(model.basis(), 1.0 / cfg.initial_state.temperature)
            times = cfg.time_grid.times()
        else:
            model, _, spec, rho = tfim5_case
            rho, _ = mp.exact_transform(rho, model.basis())
            times = np.linspace(0.0, 14.0, 281)
        grid = mp.evolve_spectral(spec, rho, times)
        traj = mp.compute_trajectory(grid, model.basis(), model.bath.beta)
        assert not traj.c_coherence.any()
        assert np.array_equal(traj.d_rel, traj.p_classical)
        assert traj.p_classical.min() > 0.0


def _stack_reference(times, pops, basis):
    """The grid of a diagonal state built the way a stack grid is: its populations on a zeroed
    (T, d, d) stack and ``np.linalg.eigvalsh`` chunk by chunk."""
    d = basis.dim
    stack = np.zeros((times.size, d, d), dtype=complex)
    stack[:, np.arange(d), np.arange(d)] = pops
    spectra = np.empty((times.size, d))
    for s in chunk_slices(times.size, chunk_points(d)):
        spectra[s] = np.linalg.eigvalsh(stack[s])
    return mp.EvolutionGrid(times, basis, stack, spectra)


class TestPopulationGrid:
    """A state diagonal in the energy basis evolves and is measured as its (T, d)
    populations, and gives the bits of the zero stack that held them before."""

    @pytest.fixture(params=["qubit", "tfim2", "tfim3", "tfim5"])
    def diagonal_case(self, request, qubit_model, tfim3_model, tfim5_case):
        if request.param == "tfim5":
            model, _, spec, rho = tfim5_case
            t_max = 14.0
        else:
            if request.param == "qubit":
                model, rho = qubit_model, mp.bloch_to_state(list(DEMO_BLOCH))
            elif request.param == "tfim2":
                model, rho = mp.tfim(length=2), mp.random_mixed_state(4, 2, seed=5)
            else:
                model, rho = tfim3_model, mp.random_mixed_state(8, 4, seed=11)
            spec = mp.decompose(mp.build_generator(model))
            t_max = 6.0
        assert spec.kind == "block"
        rho, _ = mp.exact_transform(rho, model.basis())
        return model, spec, rho, t_max

    @pytest.mark.parametrize("n_points", ["one_chunk", "ragged_chunks"])
    def test_bitwise_equal_to_the_stack_it_replaces(self, diagonal_case, n_points, tmp_path):
        model, spec, rho, t_max = diagonal_case
        basis, beta, d = model.basis(), model.bath.beta, model.basis().dim
        n = 17 if n_points == "one_chunk" else 2 * chunk_points(d) + 5
        times = np.linspace(0.0, t_max, n)
        grid = mp.evolve_spectral(spec, rho, times)
        assert grid.populations is not None and grid.populations.shape == (n, d)
        p0 = np.real(np.diag(basis.to_eigenbasis(rho.entries)))
        pops = np.array(list(_propagate(np.asarray(spec._generator.pop_block, dtype=float), p0, times)))
        assert np.array_equal(grid.populations, pops)
        ref = _stack_reference(times, pops, basis)

        assert np.array_equal(grid.spectra, ref.spectra)
        assert np.array_equal(grid.spectra, np.sort(pops, axis=1))
        energy = _mean_energy(grid.populations, basis.energies)
        assert np.array_equal(energy, [_reference_energy(m, basis) for m in ref.eigen_entries])
        assert np.array_equal(grid.eigen_entries, ref.eigen_entries)
        assert np.array_equal(grid.entries, ref.entries)
        for array in (grid.populations, grid.eigen_entries, grid.entries, grid.spectra):
            assert not array.flags.writeable
        for j in sorted({0, chunk_points(d) - 1, chunk_points(d), n // 2, n - 1} & set(range(n))):
            assert np.array_equal(grid.states[j].entries, ref.states[j].entries)
            assert np.array_equal(grid.states[j].entries, grid.entries[j])
        np.save(tmp_path / "populations.npy", grid.entries)  # what `dump_states` writes
        np.save(tmp_path / "stack.npy", ref.entries)
        assert (tmp_path / "populations.npy").read_bytes() == (tmp_path / "stack.npy").read_bytes()

        traj = mp.compute_trajectory(grid, basis, beta)
        want = mp.compute_trajectory(ref, basis, beta)
        for name in ("f_neq", "d_rel", "p_classical", "c_coherence", "t1", "pi"):
            assert np.array_equal(getattr(traj, name), getattr(want, name)), name
        assert not traj.c_coherence.any()
        # L1 sums the d populations, not the d * d entries of the stack: the same bits up to
        # d = 3, where numpy's pairwise sum adds the diagonal in order, else within 2 ulps
        if d <= 3:
            assert np.array_equal(traj.l1, want.l1)
        else:
            assert np.all(np.abs(traj.l1 - want.l1) <= 2 * np.spacing(np.maximum(traj.l1, want.l1)))
        tau_p = mp.thermal_populations(basis, beta)
        assert np.array_equal(traj.l1, [float(np.abs(p - tau_p).sum()) for p in pops])

    def test_a_diagonal_start_builds_no_stack_and_calls_no_eigvalsh(self, tfim5_case, monkeypatch):
        model, _, spec, rho = tfim5_case
        basis = model.basis()
        rho, _ = mp.exact_transform(rho, basis)
        times = np.linspace(0.0, 14.0, 281)
        calls, eigvalsh = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(np.shape(a)) or eigvalsh(a))
        tracemalloc.start()
        try:
            grid = mp.evolve_spectral(spec, rho, times)
            mp.compute_trajectory(grid, basis, model.bath.beta)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert calls == []
        # one (T, d, d) complex stack is 4.6 MB; the populations and their temporaries stay far below
        assert peak < times.size * basis.dim ** 2 * 16 / 4


class TestPopulationGridErrors:
    """A population grid fails where the stack it replaces failed: at the first failing
    time point, with the same exception and message."""

    FAULTS = {
        "nan": (ValidationError, "state is not Hermitian (defect nan)"),
        "inf": (ValidationError, "state is not Hermitian (defect nan)"),
        "negative": (ValidationError, "state has negative eigenvalue -2.00e-08"),
        "trace": (ValidationError, "state trace is 1.000000001+0j, expected 1"),
    }

    @staticmethod
    def _spoil(p, fault):
        p = p.copy()
        if fault == "nan":
            p[1] = np.nan
        elif fault == "inf":
            p[1] = np.inf
        elif fault == "negative":  # the trace stays 1 within rounding
            p[0] += p[-1] + 2 * EVOLUTION_PSD_TOL
            p[-1] = -2 * EVOLUTION_PSD_TOL
        else:
            p *= 1.0 + 1e-9
        return p

    @staticmethod
    def _first_error(run):
        with pytest.raises((RuntimeError, ValidationError)) as info:
            run()
        return type(info.value), str(info.value)

    @pytest.mark.parametrize("faults", [
        ("nan",), ("inf",), ("negative",), ("trace",),
        ("negative", "nan"), ("nan", "trace"), ("trace", "negative"), ("inf", "negative"),
    ], ids="-".join)
    @pytest.mark.parametrize("system", ["qubit", "tfim3"])
    def test_first_failing_point_raises_as_the_stack_did(self, faults, system, qubit_model, tfim3_model,
                                                          monkeypatch):
        # faults in the second chunk of the stack's grid: the earliest one decides.  At d = 8
        # LAPACK fails to converge on the stack's non-finite diagonal (LinAlgError), so the
        # stack cannot be compared there; a population row keeps its sort, and the checks
        # name the defect at every d
        model = qubit_model if system == "qubit" else tfim3_model
        basis = model.basis()
        spec = mp.decompose(mp.build_generator(model))
        d, chunk = basis.dim, chunk_points(basis.dim)
        times = np.linspace(0.0, 6.0, chunk + 9)
        rho, _ = mp.exact_transform(mp.random_mixed_state(d, min(d, 4), seed=11), basis)
        p0 = np.real(np.diag(basis.to_eigenbasis(rho.entries)))
        pops = np.array(list(_propagate(np.asarray(spec._generator.pop_block, dtype=float), p0, times)))
        for j, fault in zip((chunk + 1, chunk + 4), faults):
            pops[j] = self._spoil(pops[j], fault)

        def diagonal_chunk(s, out):  # the block chunk of a diagonal state before it kept vectors
            out[:, np.arange(d), np.arange(d)] = pops[s]

        monkeypatch.setattr(mp.spectral, "_propagate", lambda *_: iter(pops))
        got = self._first_error(lambda: mp.evolve_spectral(spec, rho, times))
        assert got == self.FAULTS[faults[0]]
        try:
            want = self._first_error(lambda: _package_states(times, diagonal_chunk, basis))
        except np.linalg.LinAlgError:
            assert {"nan", "inf"} & set(faults)
        else:
            assert got == want


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
            got = reference_package_state(vec.reshape(d, d))
            assert np.array_equal(got.entries, state.entries)

    def test_steps_are_grouped_by_numpy_rounding(self, qubit_model):
        # two exact steps, a and its next float, that numpy's round(np.float64(dt), 15) and
        # Python's correctly rounded round(dt, 15) group differently: the populations must be
        # those stepped with the propagators numpy's grouping selects
        spec = mp.decompose(mp.build_generator(qubit_model))
        assert spec.kind == "block"
        basis = qubit_model.basis()
        rho = mp.thermal_state(basis, 0.1)
        p0 = np.real(np.diag(basis.to_eigenbasis(rho.entries)))
        pop_block = np.asarray(spec._generator.pop_block, dtype=float)

        def stepped(times, key):
            propagators, vec, prev, out = {}, p0, 0.0, []
            for t in times.tolist():
                dt = t - prev
                if key(dt) not in propagators:
                    propagators[key(dt)] = scipy.linalg.expm(pop_block * dt)
                vec, prev = propagators[key(dt)] @ vec, t
                out.append(vec)
            return np.array(out)

        rng = np.random.default_rng(12)
        for _ in range(1_000):
            # a + b is never a double, so the step b follows a step to some t in between
            a = np.float64(rng.uniform(0.5, 0.7))
            b = np.nextafter(a, 1.0)
            times = np.array([a, rng.uniform(0.8, 1.0), 0.0])
            times[2] = times[1] + b
            if times[2] - times[1] != b:
                continue
            if (round(a, 15) == round(b, 15)) == (round(float(a), 15) == round(float(b), 15)):
                continue
            want = stepped(times, lambda dt: round(np.float64(dt), 15))
            if not np.array_equal(want, stepped(times, lambda dt: round(dt, 15))):
                break
        else:
            pytest.fail("no grid whose step grouping changes the populations")
        grid = mp.evolve_spectral(spec, rho, times)
        assert grid.populations.tobytes() == want.tobytes()
