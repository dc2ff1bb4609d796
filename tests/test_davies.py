import numpy as np
import pytest

import mpemba as mp
from mpemba.davies import (
    _obeys_detailed_balance,
    coherence_indices,
    eigenvalue_multiset_distance,
    occupation_factors,
    vectorized_lindbladian,
)
from mpemba.errors import DegenerateSpectrumError, ValidationError

from conftest import (
    QUBIT_ALPHA_DOWN,
    QUBIT_ALPHA_UP,
    QUBIT_GAMMA_TOTAL,
    QUBIT_NBOSE,
)


def tripled_rate(pop_block, i, k):
    """The rate matrix with rate k -> i tripled and the columns rebalanced:
    still a valid rate matrix, but no longer in detailed balance."""
    gp = np.array(pop_block)
    gp[i, k] *= 3.0
    np.fill_diagonal(gp, 0.0)
    np.fill_diagonal(gp, -gp.sum(axis=0))
    return gp


class TestJumpMatrix:
    def test_qubit_amplitudes(self, qubit_model):
        jumps = mp.build_jump_matrix(qubit_model.basis(), qubit_model.bath)
        # column = source level; ground level first
        assert jumps.amplitudes[1, 0] == pytest.approx(QUBIT_ALPHA_UP, abs=1e-12)
        assert jumps.amplitudes[0, 1] == pytest.approx(QUBIT_ALPHA_DOWN, abs=1e-12)

    def test_detailed_balance_ratio_exact(self, tfim3_model):
        basis = tfim3_model.basis()
        bath = tfim3_model.bath
        jumps = mp.build_jump_matrix(basis, bath)
        for m in range(basis.dim):
            for n in range(m + 1, basis.dim):
                x = basis.energies[n] - basis.energies[m]
                ratio = (jumps.amplitudes[n, m] / jumps.amplitudes[m, n]) ** 2
                assert ratio == pytest.approx(np.exp(-bath.beta * x), rel=1e-12)

    @pytest.mark.parametrize("statistics", ["bose", "fermi"])
    def test_array_occupations_match_scalar_bitwise(self, statistics):
        # the one-frequency form as it was written, past 700 included; an
        # overflow in the array form would raise under filterwarnings = error
        def one(x, bath):
            bx = bath.beta * x
            if bath.statistics == "bose":
                n = float(np.exp(-bx)) if bx > 700 else 1.0 / np.expm1(bx)
                return 1.0 + n, n
            f = float(np.exp(-bx)) if bx > 700 else 1.0 / (np.exp(bx) + 1.0)
            return 1.0 - f, f

        bath = mp.BathSpec(2.5, statistics, 1.0)
        rng = np.random.default_rng(6)
        x = np.concatenate([rng.uniform(1e-9, 300.0, 400), 10.0 ** rng.uniform(-8, 3, 200),
                            [280.0, np.nextafter(280.0, np.inf), 1e4]]).reshape(3, 201)
        assert (bath.beta * x > 700).sum() > 30
        w_down, w_up = occupation_factors(x, bath)
        assert w_down.shape == w_up.shape == x.shape
        for xi, down, up in zip(x.ravel().tolist(), w_down.ravel(), w_up.ravel()):
            want = one(xi, bath)
            got = occupation_factors(xi, bath)
            assert type(got[0]) is float and type(got[1]) is float
            assert np.array([down, up]).tobytes() == np.array(want).tobytes()
            assert np.array(got).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("length, statistics", [(3, "bose"), (5, "fermi")])
    def test_jump_matrix_matches_pairwise_build(self, length, statistics):
        model = mp.tfim(length=length, statistics=statistics)
        basis, bath = model.basis(), model.bath
        want = np.zeros((basis.dim, basis.dim))
        for m in range(basis.dim):
            for n in range(m + 1, basis.dim):
                w_down, w_up = occupation_factors(basis.energies[n] - basis.energies[m], bath)
                want[m, n] = bath.gamma * np.sqrt(w_down)
                want[n, m] = bath.gamma * np.sqrt(w_up)
        assert mp.build_jump_matrix(basis, bath).amplitudes.tobytes() == want.tobytes()

    def test_zero_temperature_pure_decay(self):
        w_down, w_up = occupation_factors(1.0, mp.BathSpec(np.inf, "bose", 1.0))
        assert w_up == 0.0 and w_down == 1.0

    def test_two_qubit_layout(self):
        model = mp.tfim(length=2)
        jumps = mp.build_jump_matrix(model.basis(), model.bath)
        assert jumps.dim == 4
        assert np.all(np.diag(jumps.amplitudes) == 0.0)
        assert np.count_nonzero(jumps.amplitudes) == 12

    def test_degenerate_refused(self):
        model = mp.tfim(length=2, h_field=0.0)
        with pytest.raises(DegenerateSpectrumError):
            mp.build_jump_matrix(model.basis(), model.bath)


class TestDenseGenerator:
    def test_gibbs_fixed_point(self, qubit_model, qubit_gen):
        basis = qubit_model.basis()
        tau = mp.thermal_state(basis, qubit_model.bath.beta)
        residual = qubit_gen.dense @ basis.to_eigenbasis(tau.entries).reshape(-1)
        assert np.abs(residual).max() <= 1e-10

    def test_adjoint_preserves_identity(self, qubit_gen):
        ident = np.eye(2, dtype=complex).reshape(-1)
        assert np.abs(qubit_gen.dense.conj().T @ ident).max() <= 1e-10

    def test_qubit_spectrum_analytic(self, qubit_gen):
        expected = np.array(
            [
                0.0,
                -QUBIT_GAMMA_TOTAL,
                -QUBIT_GAMMA_TOTAL / 2 + 5.0j,
                -QUBIT_GAMMA_TOTAL / 2 - 5.0j,
            ]
        )
        got = np.linalg.eigvals(qubit_gen.dense)
        assert eigenvalue_multiset_distance(got, expected) < 1e-10

    def test_unitary_dissipative_commute(self, qubit_model, qubit_gen, tfim3_model, tfim3_gen):
        for model, gen in ((qubit_model, qubit_gen), (tfim3_model, tfim3_gen)):
            basis = model.basis()
            h = np.diag(basis.energies).astype(complex)
            eye = np.eye(basis.dim, dtype=complex)
            unitary = -1j * np.kron(h, eye) + 1j * np.kron(eye, h.T)
            diss = gen.dense - unitary
            comm = unitary @ diss - diss @ unitary
            assert np.abs(comm).max() <= 1e-9


class TestBlockForm:
    def test_columns_sum_to_zero(self, tfim3_model):
        jumps = mp.build_jump_matrix(tfim3_model.basis(), tfim3_model.bath)
        block = mp.build_population_block(jumps)
        assert np.abs(block.sum(axis=0)).max() < 1e-14 * max(1.0, np.abs(block).max())

    def test_qubit_rate_matrix(self, qubit_model):
        jumps = mp.build_jump_matrix(qubit_model.basis(), qubit_model.bath)
        block = mp.build_population_block(jumps)
        up, down = QUBIT_NBOSE, 1.0 + QUBIT_NBOSE
        expected = np.array([[-up, down], [up, -down]])
        np.testing.assert_allclose(block, expected, atol=1e-12)

    def test_gibbs_null_vector(self, tfim3_model):
        basis = tfim3_model.basis()
        jumps = mp.build_jump_matrix(basis, tfim3_model.bath)
        block = mp.build_population_block(jumps)
        gibbs = mp.thermal_populations(basis, tfim3_model.bath.beta)
        assert np.abs(block @ gibbs).max() <= 1e-10

    def test_qubit_coherence_entries(self, qubit_gen):
        c = qubit_gen.coherence_rates
        assert c.shape == (2,)
        assert c[0] + c[1].conj() == pytest.approx(-QUBIT_GAMMA_TOTAL / 2 + 5.0j, abs=1e-12)
        assert c[1] + c[0].conj() == pytest.approx(-QUBIT_GAMMA_TOTAL / 2 - 5.0j, abs=1e-12)

    @pytest.mark.parametrize("length", [None, 3, 5])
    def test_coherence_block_matches_entrywise_formula(self, length):
        # reference: each entry -1/2 (escape_n + escape_m) - i (h_n - h_m) on its own
        model = mp.single_qubit() if length is None else mp.tfim(length=length)
        basis = model.basis()
        jumps = mp.build_jump_matrix(basis, model.bath)
        escape = jumps.rates().sum(axis=0)
        want = np.zeros((basis.dim, basis.dim), dtype=complex)
        for n in range(basis.dim):
            for m in range(basis.dim):
                if n != m:
                    want[n, m] = complex(
                        -0.5 * (escape[n] + escape[m]), -(basis.energies[n] - basis.energies[m])
                    )
        c = mp.davies_generator(basis, model.bath).coherence_rates
        got = c[:, None] + c[None, :].conj()
        np.fill_diagonal(got, 0.0)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_conjugate_pairing_and_negative_real_parts(self, tfim3_gen):
        c = tfim3_gen.coherence_rates
        block = c[:, None] + c[None, :].conj()
        assert np.all(block.real <= 0.0)
        assert np.abs(block.T - block.conj()).max() <= 1e-14

    @pytest.mark.parametrize("length", [2, 3])
    @pytest.mark.parametrize("statistics", ["fermi", "bose"])
    def test_block_dense_spectrum_match(self, length, statistics):
        model = mp.tfim(length=length, statistics=statistics)
        gen = mp.build_generator(model, dense=True)
        assert mp.verify_block_dense_spectrum(gen) <= 1e-8
        # positions, which the multiset cannot see: a transposed block has
        # the same spectrum; each coherence row of the dense form holds its
        # eigenvalue on the diagonal and nothing else
        d = gen.dim
        n, m = coherence_indices(d)
        rows = n * d + m
        c = gen.coherence_rates
        assert np.array_equal(gen.dense[rows, rows], c[n] + c[m].conj())
        off_diagonal = np.array(gen.dense[rows])
        off_diagonal[np.arange(rows.size), rows] = 0.0
        assert not off_diagonal.any()


class TestDetailedBalance:
    def test_constructed_generator_satisfies_kms(self, qubit_model, qubit_gen):
        basis = qubit_model.basis()
        tau = mp.thermal_populations(basis, qubit_model.bath.beta)
        assert mp.verify_detailed_balance(qubit_gen.dense, basis.energies, tau) <= 1e-9

    def test_corrupted_rate_detected(self, qubit_model):
        basis = qubit_model.basis()
        jumps = mp.build_jump_matrix(basis, qubit_model.bath)
        bad = np.array(jumps.amplitudes)
        bad[1, 0] *= np.sqrt(2.0)  # double the upward rate
        ops = mp.JumpMatrix(bad).operators()
        g_bad = vectorized_lindbladian(np.diag(basis.energies).astype(complex), ops)
        tau = mp.thermal_populations(basis, qubit_model.bath.beta)
        assert mp.verify_detailed_balance(g_bad, basis.energies, tau) > 1e-3

    def test_infinite_temperature_symmetry(self):
        model = mp.single_qubit(t_bath=1e9)
        basis = model.basis()
        bath = mp.BathSpec(0.0, "bose", 1.0)
        # beta = 0: w_up = w_down = n_B -> use Fermi to stay finite
        bath = mp.BathSpec(0.0, "fermi", 1.0)
        jumps = mp.build_jump_matrix(basis, bath)
        g = mp.build_dense_generator(basis, jumps)
        tau = np.full(2, 0.5)
        assert mp.verify_detailed_balance(g, basis.energies, tau) <= 1e-9


    def test_tfim3_generator_satisfies_kms(self, tfim3_model, tfim3_gen):
        basis = tfim3_model.basis()
        tau = mp.thermal_populations(basis, tfim3_model.bath.beta)
        assert mp.verify_detailed_balance(tfim3_gen.dense, basis.energies, tau) <= 1e-9

        jumps = mp.build_jump_matrix(basis, tfim3_model.bath)
        bad = np.array(jumps.amplitudes)
        bad[1, 0] *= np.sqrt(2.0)  # double one upward rate
        g_bad = mp.build_dense_generator(basis, mp.JumpMatrix(bad))
        assert mp.verify_detailed_balance(g_bad, basis.energies, tau) > 1e-3

    @pytest.mark.parametrize("case", ["davies", "corrupted_rate", "generic_jumps"])
    def test_value_matches_elemental_definition(self, case):
        # max |<E_ab, D^dag E_ce>_tau - <D^dag E_ab, E_ce>_tau| over all
        # elemental matrices, with <A, B>_tau = Tr(tau A^dag B); generic
        # jumps also couple coherences to populations
        model = mp.tfim(length=2)
        basis = model.basis()
        d = basis.dim
        jumps = np.array(mp.build_jump_matrix(basis, model.bath).amplitudes)
        if case == "corrupted_rate":
            jumps[1, 0] *= 1.5
        g = mp.build_dense_generator(basis, mp.JumpMatrix(jumps))
        if case == "generic_jumps":
            rng = np.random.default_rng(2)
            ops = rng.normal(size=(2, d, d)) + 1j * rng.normal(size=(2, d, d))
            g = vectorized_lindbladian(np.diag(basis.energies).astype(complex), list(ops))
        tau = mp.thermal_populations(basis, model.bath.beta)

        h = np.diag(basis.energies)
        unitary = -1j * np.kron(h, np.eye(d)) + 1j * np.kron(np.eye(d), h.T)
        diss_adj = (g - unitary).conj().T
        units = np.eye(d * d).reshape(d * d, d, d)
        images = np.einsum("pq,kq->kp", diss_adj, units.reshape(d * d, -1)).reshape(-1, d, d)

        def inner(xs, ys):
            return np.einsum("i,kji,lji->kl", tau, xs.conj(), ys)

        expected = np.abs(inner(units, images) - inner(images, units)).max()
        value = mp.verify_detailed_balance(g, basis.energies, tau)
        assert value == pytest.approx(expected, rel=1e-12, abs=1e-15)
        assert (value > 1e-3) is (case != "davies")


class TestGeneratorObject:
    def test_requires_some_representation(self, qubit_model):
        with pytest.raises(ValidationError):
            mp.DaviesGenerator(basis=qubit_model.basis())

    def test_coherence_rates_are_frozen(self, qubit_model):
        gen = mp.build_generator(qubit_model)
        c = gen.coherence_rates
        assert not c.flags.writeable
        with pytest.raises(ValueError):
            c[0] = 0.0
        assert mp.DaviesGenerator(basis=gen.basis, dense=np.zeros((4, 4))).coherence_rates is None

    @pytest.mark.parametrize("defect", ["negated", "one_pair"])
    def test_negative_rate_rejected(self, tfim3_gen, defect):
        # a negated block keeps zero column sums and detailed balance; one
        # negated pair, rebalanced, leaves every escape rate positive
        if defect == "negated":
            gp = -np.array(tfim3_gen.pop_block)
        else:
            gp = np.array(tfim3_gen.pop_block)
            gp[1, 5], gp[5, 1] = -gp[1, 5], -gp[5, 1]
            np.fill_diagonal(gp, 0.0)
            np.fill_diagonal(gp, -gp.sum(axis=0))
            assert np.all(np.diag(gp) < 0)
        with pytest.raises(ValidationError, match="negative rate"):
            mp.DaviesGenerator(basis=tfim3_gen.basis, pop_block=gp, bath=tfim3_gen.bath)

    def test_non_detailed_balance_block_rejected(self, tfim3_model, tfim3_gen):
        # the symmetrized eigh solve of the block form assumes detailed balance
        basis = tfim3_model.basis()
        beta = tfim3_model.bath.beta
        gp = tripled_rate(tfim3_gen.pop_block, 1, 0)
        assert _obeys_detailed_balance(np.array(tfim3_gen.pop_block), basis.energies, beta)
        assert not _obeys_detailed_balance(gp, basis.energies, beta)
        with pytest.raises(ValidationError, match="detailed balance"):
            mp.DaviesGenerator(basis=basis, pop_block=gp, bath=tfim3_gen.bath)

    def test_tiny_wrong_rate_rejected(self, tfim3_model, tfim3_gen):
        # a wrong upward rate far below 1e-10 fails too: the check is
        # relative to each pair's own scale
        basis = tfim3_model.basis()
        assert 0.0 < tfim3_gen.pop_block[5, 1] < 1e-10
        gp = tripled_rate(tfim3_gen.pop_block, 5, 1)
        assert not _obeys_detailed_balance(gp, basis.energies, tfim3_model.bath.beta)
        with pytest.raises(ValidationError, match="detailed balance"):
            mp.DaviesGenerator(basis=basis, pop_block=gp, bath=tfim3_gen.bath)

    def test_block_form_needs_its_bath(self, tfim3_gen):
        with pytest.raises(ValidationError, match="bath"):
            mp.DaviesGenerator(basis=tfim3_gen.basis, pop_block=tfim3_gen.pop_block)

    def test_missized_dense_rejected(self, qubit_model):
        # also what evolve_direct meets first, before any matrix product
        with pytest.raises(ValidationError, match=r"shape \(9, 9\), not \(4, 4\)"):
            mp.DaviesGenerator(basis=qubit_model.basis(), dense=np.zeros((9, 9)))

    @pytest.mark.parametrize("defect", ["block_form", "no_dense", "count"])
    def test_misplaced_sector_labels_rejected(self, qubit_gen, defect):
        kwargs = {"dense": qubit_gen.dense, "sector_labels": (0, 1)}
        if defect == "block_form":
            kwargs.update(pop_block=qubit_gen.pop_block, bath=qubit_gen.bath)
        elif defect == "no_dense":
            kwargs.update(pop_block=qubit_gen.pop_block, bath=qubit_gen.bath, dense=None)
        else:
            kwargs["sector_labels"] = (0, 1, 1)
        with pytest.raises(ValidationError, match="sector labels need"):
            mp.DaviesGenerator(basis=qubit_gen.basis, **kwargs)

    def test_block_form_on_degenerate_basis_rejected(self):
        # at beta = 0 equal rates obey detailed balance; levels 0 and 1 coincide
        pop = np.ones((3, 3)) - 3.0 * np.eye(3)
        with pytest.raises(DegenerateSpectrumError, match="degenerate basis"):
            mp.DaviesGenerator(basis=mp.SpectralBasis([0.0, 0.0, 1.0], np.eye(3)), pop_block=pop,
                               bath=mp.BathSpec(0.0, "fermi", 1.0))

    def test_sector_labels_must_grade_the_generator(self):
        gen = mp.build_generator(mp.quantum_dot())
        mp.DaviesGenerator(basis=gen.basis, dense=gen.dense, sector_labels=(0, 1, 1, 0))
        # the empty level alone: the bath feeds the coherence |0><down| into |up><double|
        with pytest.raises(ValidationError, match="conserved grading"):
            mp.DaviesGenerator(basis=gen.basis, dense=gen.dense, sector_labels=(0, 1, 1, 1))


def _detailed_balance_of_qubit(**bad):
    model = mp.single_qubit()
    basis = model.basis()
    args = {"g_dense": mp.build_generator(model, dense=True).dense, "energies": basis.energies,
            "tau": mp.thermal_populations(basis, model.bath.beta), **bad}
    return mp.verify_detailed_balance(args["g_dense"], args["energies"], args["tau"])


def _unbalanced_columns():
    gen = mp.build_generator(mp.single_qubit())
    gp = np.array(gen.pop_block)
    gp[0, 0] -= 1.0
    return mp.DaviesGenerator(basis=gen.basis, pop_block=gp, bath=gen.bath)


@pytest.mark.parametrize("call, message", [
    (lambda: mp.BathSpec(-1.0, "bose", 1.0), "beta must be >= 0"),
    (lambda: mp.BathSpec(1.0, "boltzmann", 1.0), "unknown statistics"),
    (lambda: mp.BathSpec(1.0, "bose", 0.0), "gamma must be > 0"),
    (lambda: occupation_factors(0.0, mp.BathSpec(1.0, "bose", 1.0)), "zero Bohr frequency"),
    (lambda: occupation_factors(-1.0, mp.BathSpec(1.0, "fermi", 1.0)), "zero Bohr frequency"),
    (lambda: mp.JumpMatrix(np.zeros((2, 3))), "square"),
    (lambda: mp.JumpMatrix(np.eye(2)), "diagonal"),
    (lambda: mp.JumpMatrix([[0.0, -1.0], [1.0, 0.0]]), "nonnegative"),
    (lambda: mp.build_dense_generator(mp.single_qubit().basis(), mp.JumpMatrix(np.zeros((3, 3)))),
     "dimensions differ"),
    (lambda: mp.DaviesGenerator(basis=mp.single_qubit().basis(), pop_block=np.zeros((3, 3))),
     r"population block has shape \(3, 3\), not \(2, 2\)"),
    (_unbalanced_columns, "columns sum to"),
    (lambda: mp.verify_block_dense_spectrum(mp.build_generator(mp.single_qubit())),
     "need both block and dense"),
    (lambda: eigenvalue_multiset_distance([0.0, 1.0], [0.0]), "different sizes"),
    (lambda: _detailed_balance_of_qubit(g_dense=np.zeros((5, 5))), "does not act on 2 levels"),
    (lambda: _detailed_balance_of_qubit(energies=[0.0, 1.0, 2.0]), "does not act on 3 levels"),
    (lambda: _detailed_balance_of_qubit(tau=[0.2, 0.3, 0.5]), "does not match the spectrum"),
    (lambda: _detailed_balance_of_qubit(tau=[2.0, -1.0]), "probability vector"),
], ids=[
    "bath_negative_beta", "bath_unknown_statistics", "bath_zero_gamma", "occupation_zero_x",
    "occupation_negative_x", "jumps_not_square", "jumps_diagonal", "jumps_negative",
    "dense_dimension_mismatch", "pop_block_shape", "pop_columns_unbalanced",
    "verify_missing_form", "multiset_sizes", "kms_generator_shape", "kms_energy_count",
    "kms_tau_length", "kms_tau_negative",
])
def test_input_checks_raise(call, message):
    with pytest.raises(ValidationError, match=message):
        call()


def _qubit_pop_block_with_nan():
    gen = mp.build_generator(mp.single_qubit())
    gp = np.array(gen.pop_block)
    gp[0, 1] = np.nan
    return mp.DaviesGenerator(basis=gen.basis, pop_block=gp, bath=gen.bath)


@pytest.mark.parametrize("call, message", [
    (lambda: mp.BathSpec(np.nan, "bose", 1.0), "beta must be >= 0"),
    (lambda: mp.BathSpec(1.0, "bose", np.nan), "gamma must be > 0 and finite"),
    (lambda: mp.BathSpec(1.0, "bose", np.inf), "gamma must be > 0 and finite"),
    (lambda: occupation_factors(1.0, mp.BathSpec(0.0, "bose", 1.0)), "Bose occupation diverges"),
    (lambda: mp.build_generator(mp.single_qubit(t_bath=np.inf)), "Bose occupation diverges"),
    (lambda: mp.JumpMatrix([[0.0, np.nan], [1.0, 0.0]]), "amplitudes must be finite"),
    (lambda: mp.JumpMatrix([[0.0, np.inf], [1.0, 0.0]]), "amplitudes must be finite"),
    (_qubit_pop_block_with_nan, "population block has non-finite"),
    (lambda: mp.DaviesGenerator(basis=mp.single_qubit().basis(), dense=np.full((4, 4), np.nan)),
     "dense generator has non-finite"),
    (lambda: mp.DaviesGenerator(basis=mp.single_qubit().basis(), dense=np.full((4, 4), np.inf)),
     "dense generator has non-finite"),
    (lambda: mp.HermitianOperator([[np.nan, 0.0], [0.0, 1.0]]), "non-finite"),
    (lambda: mp.HermitianOperator([[np.inf, 0.0], [0.0, 1.0]]), "non-finite"),
    (lambda: mp.SpectralBasis([0.0, np.nan], np.eye(2)), "must be finite"),
    (lambda: mp.SpectralBasis([0.0, np.inf], np.eye(2)), "must be finite"),
    (lambda: mp.single_qubit(omega=np.nan), "non-finite"),
], ids=[
    "bath_nan_beta", "bath_nan_gamma", "bath_infinite_gamma", "bose_occupation_at_zero_beta",
    "qubit_at_infinite_temperature", "jumps_nan", "jumps_infinite", "pop_block_nan",
    "dense_nan", "dense_infinite",
    "hermitian_nan", "hermitian_infinite", "basis_nan_energy",
    "basis_infinite_energy", "qubit_nan_omega",
])
def test_non_finite_inputs_rejected(call, message):
    with pytest.raises(ValidationError, match=message):
        call()
