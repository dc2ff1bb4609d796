import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

import mpemba as mp
from mpemba.davies import eigenvalue_multiset_distance, vectorized_lindbladian
from mpemba.errors import DefectiveGeneratorError, NoSteadyStateError, ValidationError
from mpemba.spectral import (
    IMAG_TOL,
    _mean_energy,
    _mode_order,
    _package_states,
    _check_pairing,
    chunk_points,
)
from mpemba.config import load_config
from mpemba.utils import diagonal_stack, herm_defect, hermitize, log_gibbs_weights

from conftest import DEMO_BLOCH, QUBIT_GAMMA_TOTAL, reference_package_state


class TestDecompose:
    def test_qubit_eigenvalues_and_gap(self, qubit_spec):
        expected = np.array(
            [0.0, -QUBIT_GAMMA_TOTAL / 2 - 5.0j, -QUBIT_GAMMA_TOTAL / 2 + 5.0j, -QUBIT_GAMMA_TOTAL]
        )
        assert eigenvalue_multiset_distance(qubit_spec.eigenvalues, expected) < 1e-10
        gap = mp.spectral_gap(qubit_spec)
        assert gap.value == pytest.approx(QUBIT_GAMMA_TOTAL / 2, rel=1e-10)
        assert gap.complex_pair

    def test_steady_state_is_gibbs(self, qubit_model, qubit_spec):
        tau = mp.thermal_state(qubit_model.basis(), qubit_model.bath.beta)
        assert np.abs(qubit_spec.steady_state.entries - tau.entries).max() < 1e-10

    def test_left_one_is_identity(self, qubit_spec):
        assert np.abs(qubit_spec.left(1) - np.eye(2)).max() <= 1e-9

    def test_biorthonormality(self, spectrum_case):
        spec, _ = spectrum_case
        modes = range(1, spec.n_modes + 1)
        pairs = [(spec.left(k), spec.right(k)) for k in modes]
        for matrix in (m for pair in pairs for m in pair):
            assert matrix.dtype == complex and matrix.shape == (spec.dim, spec.dim)
            assert matrix.flags.c_contiguous and matrix.flags.writeable
        lefts, rights = (np.stack(side) for side in zip(*pairs))
        gram = np.einsum("jnm,kmn->jk", lefts, rights)
        assert np.abs(gram - np.eye(spec.n_modes)).max() <= 1e-8

    def test_decaying_modes_traceless(self, tfim3_gen):
        spec = mp.decompose(tfim3_gen, prefer="dense")
        for k in range(2, spec.n_modes + 1):
            assert abs(np.trace(spec.right(k))) <= 1e-10

    def test_conjugate_pairs(self, qubit_spec):
        lams = qubit_spec.eigenvalues
        for lam in lams:
            if abs(lam.imag) > 1e-9:
                assert np.min(np.abs(lams - np.conj(lam))) < 1e-9

    def test_coherent_lefts_off_diagonal(self, tfim3_gen):
        spec = mp.decompose(tfim3_gen, prefer="dense")
        for k in spec.coherent_modes():
            left = spec.left(k)
            assert np.abs(np.diag(left)).max() <= 1e-9

    def test_block_and_dense_agree(self, tfim3_gen):
        block = mp.decompose(tfim3_gen)
        dense = mp.decompose(tfim3_gen, prefer="dense")
        assert eigenvalue_multiset_distance(block.eigenvalues, dense.eigenvalues) < 1e-8

    def test_ordering_is_ascending_in_real_modulus(self, tfim3_gen):
        spec = mp.decompose(tfim3_gen)
        mods = np.abs(spec.eigenvalues.real)
        assert abs(spec.eigenvalues[0]) <= 1e-9
        assert np.all(np.diff(mods[1:]) >= -1e-12)

    def test_mode_order_matches_scalar_rounding(self):
        # reference: the key rounded per numpy scalar, as the order is defined
        eigvals = mp.decompose(mp.build_generator(mp.tfim())).eigenvalues
        eigvals = eigvals[np.random.default_rng(9).permutation(eigvals.size)]
        digests = [(float(j % 3),) for j in range(eigvals.size)]
        zero = int(np.argmin(np.abs(eigvals)))
        reference = [zero] + sorted(
            (i for i in range(eigvals.size) if i != zero),
            key=lambda i: (round(abs(eigvals[i].real), 12), round(eigvals[i].imag, 12), digests[i]),
        )
        assert _mode_order(eigvals, digests) == reference

    def test_real_dense_generator_decomposes_into_complex_modes(self, qubit_model):
        # numpy gives a real matrix's real spectrum as real arrays; scipy gave complex ones, as here
        g = np.array([[-1.0, 0, 0, 2], [0, -1, 0, 0], [0, 0, -1, 0], [1, 0, 0, -2]])
        spec = mp.decompose(mp.DaviesGenerator(basis=qubit_model.basis(), dense=g))
        assert spec.eigenvalues.dtype == complex
        np.testing.assert_allclose(spec.eigenvalues, [0, -1, -1, -3], rtol=0, atol=1e-12)
        for k in range(1, spec.n_modes + 1):
            assert spec.right(k).dtype == complex and spec.left(k).dtype == complex
        as_complex = mp.decompose(mp.DaviesGenerator(basis=qubit_model.basis(), dense=g.astype(complex)))
        np.testing.assert_allclose(spec.eigenvalues, as_complex.eigenvalues, rtol=0, atol=1e-12)
        np.testing.assert_allclose(spec.steady_state.entries, np.diag([1 / 3, 2 / 3]), rtol=0, atol=1e-12)
        with pytest.raises(NoSteadyStateError, match=r"closest: -1\.000e\+00\+0\.000e\+00j"):
            mp.decompose(mp.DaviesGenerator(basis=qubit_model.basis(), dense=-np.eye(4)))

    def test_defective_matrix_rejected(self, qubit_model):
        g = np.zeros((4, 4), dtype=complex)
        g[0, 1] = 1.0  # Jordan block: eigenvector matrix singular
        with pytest.raises(DefectiveGeneratorError):
            mp.decompose(mp.DaviesGenerator(basis=qubit_model.basis(), dense=g))

    def test_no_steady_state_rejected(self, qubit_model):
        g = -np.eye(4, dtype=complex)
        with pytest.raises(NoSteadyStateError):
            mp.decompose(mp.DaviesGenerator(basis=qubit_model.basis(), dense=g))

    def test_zero_mode_judged_on_the_spectrum_scale(self):
        # rates ~1e7: the dense zero mode rounds to -1.3e-9, past an absolute 1e-9
        model = mp.single_qubit(omega=1e-6, t_bath=10.0, gamma=1.0)
        dense = mp.decompose(mp.build_generator(model, dense=True), prefer="dense")
        block = mp.decompose(mp.build_generator(model))
        tol = 1e-9 * np.abs(dense.eigenvalues).max()
        assert abs(dense.eigenvalues[0]) <= tol and abs(block.eigenvalues[0]) <= tol
        np.testing.assert_allclose(
            np.sort_complex(dense.eigenvalues), np.sort_complex(block.eigenvalues), rtol=0, atol=tol
        )

    @pytest.mark.parametrize("prefer", ["Dense", "block", ""])
    def test_unknown_prefer_rejected(self, qubit_gen, prefer):
        with pytest.raises(ValidationError, match="prefer"):
            mp.decompose(qubit_gen, prefer=prefer)

    def test_dense_request_without_dense_form_rejected(self, qubit_model):
        with pytest.raises(ValidationError, match="no dense form"):
            mp.decompose(mp.build_generator(qubit_model), prefer="dense")

    def test_gap_needs_a_decaying_mode(self):
        basis = mp.SpectralBasis([0.0], np.eye(1))
        spec = mp.decompose(mp.DaviesGenerator(basis=basis, dense=np.zeros((1, 1))))
        assert spec.n_modes == 1
        with pytest.raises(ValidationError, match="no decaying mode"):
            mp.spectral_gap(spec)

    def test_strongly_damped_gap_is_a_coherence(self):
        # |lambda_2| = 1e7 dwarfs its imaginary part 1e-6, yet mode 2 is the
        # coherence |1><0|: the gap's class is the spectrum's coherence flag
        spec = mp.decompose(mp.build_generator(mp.single_qubit(omega=1e-6, t_bath=10.0, gamma=1.0)))
        assert spec.mode_tag(2) == ("coh", 1, 0)
        assert spec.coherent_modes() == [2, 3]
        gap = mp.spectral_gap(spec)
        assert gap.complex_pair and gap.value == pytest.approx(1e7, rel=1e-9)

    def test_block_decomposition_needs_a_finite_beta(self):
        basis = mp.single_qubit().basis()
        bath = mp.BathSpec(np.inf, "bose", 1.0)
        with pytest.raises(ValidationError, match="finite bath beta.*prefer='dense'"):
            mp.decompose(mp.davies_generator(basis, bath))
        # the dense route of the same bath: pure decay into the ground level
        spec = mp.decompose(mp.davies_generator(basis, bath, dense=True), prefer="dense")
        ground = np.diag([0.0, 1.0]).astype(complex)  # H = 2.5 sigma_z: |1> is lowest
        assert np.abs(spec.steady_state.entries - ground).max() <= 1e-12
        grid = mp.evolve_spectral(spec, mp.bloch_to_state(list(DEMO_BLOCH)), [0.0, 1.0, 80.0])
        assert np.abs(grid.entries[-1] - ground).max() <= 1e-12

    def test_bare_matrix_rejected(self, qubit_spec):
        g = np.zeros((4, 4), dtype=complex)
        rho = qubit_spec.steady_state
        for call in (lambda: mp.decompose(g), lambda: mp.evolve_direct(g, rho, [0.0])):
            with pytest.raises(ValidationError, match="DaviesGenerator"):
                call()


class TestAmplitudes:
    def test_steady_state_has_no_decaying_amplitude(self, qubit_model, qubit_spec):
        tau = mp.thermal_state(qubit_model.basis(), qubit_model.bath.beta)
        for k in range(2, 5):
            assert abs(qubit_spec.amplitudes(tau, (k,))[0]) <= 1e-9

    def test_diagonal_state_misses_coherent_modes(self, tfim3_model, tfim3_gen):
        spec = mp.decompose(tfim3_gen)
        basis = tfim3_model.basis()
        rho = mp.dephase(mp.random_mixed_state(8, 5, seed=3), basis)
        for k in spec.coherent_modes():
            assert abs(spec.amplitudes(rho, (k,))[0]) <= 1e-10

    def test_demo_state_has_visible_overlap(self, qubit_spec):
        rho = mp.bloch_to_state(list(DEMO_BLOCH))
        total = np.abs(qubit_spec.amplitudes(rho, (2, 3))).sum()
        assert total > 0.1

    def test_block_dense_mode_contributions_agree(self, tfim3_gen):
        # amplitudes alone depend on the eigenmatrix normalization; the
        # contribution a_k r_k of each mode is representation-invariant
        block = mp.decompose(tfim3_gen)
        dense = mp.decompose(tfim3_gen, prefer="dense")
        rho = mp.random_mixed_state(8, 7, seed=1)
        a_block = block.amplitudes(rho)
        a_dense = dense.amplitudes(rho)
        for k in range(2, 6):
            lam = block.eigenvalues[k - 1]
            matches = [
                j for j in range(2, dense.n_modes + 1)
                if abs(dense.eigenvalues[j - 1] - lam) < 1e-9
            ]
            contrib_b = a_block[k - 1] * block.right(k)
            contrib_d = sum(a_dense[j - 1] * dense.right(j) for j in matches)
            if len(matches) == 1:
                assert np.abs(contrib_b - contrib_d).max() <= 1e-8


@pytest.fixture(scope="module", params=["qubit_dense", "tfim3_block", "tfim3_dense", "dot"])
def spectrum_case(request, qubit_spec, tfim3_gen):
    if request.param == "qubit_dense":
        spec = qubit_spec
    elif request.param == "tfim3_block":
        spec = mp.decompose(tfim3_gen)
    elif request.param == "tfim3_dense":
        spec = mp.decompose(tfim3_gen, prefer="dense")
    else:
        spec = mp.decompose(mp.build_generator(mp.quantum_dot(energy_resolved=True)))
    return spec, mp.random_mixed_state(spec.dim, 3, seed=5)


class TestAmplitudeRoutine:
    def test_selected_modes_match_full_vector_bitwise(self, spectrum_case):
        spec, rho = spectrum_case
        full = spec.amplitudes(rho)
        rng = np.random.default_rng(0)
        subsets = [np.arange(1, spec.n_modes + 1), np.array([spec.n_modes, 1, 2])]
        subsets += [rng.choice(np.arange(1, spec.n_modes + 1), size=3) for _ in range(5)]
        for modes in subsets:
            part = spec.amplitudes(rho, tuple(modes.tolist()))
            assert part.tobytes() == full[modes - 1].tobytes()
        for k in range(1, spec.n_modes + 1):
            assert spec.amplitudes(rho, (k,))[0] == full[k - 1]
        assert spec.amplitudes(rho, ()).shape == (0,)

    def test_matches_trace_with_left_eigenmatrix(self, spectrum_case):
        spec, rho = spectrum_case
        rho_e = spec.basis.to_eigenbasis(rho.entries)
        amps = spec.amplitudes(rho)
        for k in range(1, spec.n_modes + 1):
            left = spec.left(k)
            # rounding scale of the contraction (block population lefts grow
            # like exp(beta E / 2) at low temperature)
            scale = max(1.0, float(np.abs(left * rho_e.T).sum()))
            assert abs(amps[k - 1] - np.trace(left @ rho_e)) <= 1e-12 * scale

    def test_out_of_range_mode_rejected(self, spectrum_case):
        spec, rho = spectrum_case
        for modes in ((0,), (spec.n_modes + 1,), (2, spec.n_modes + 1)):
            with pytest.raises(ValidationError):
                spec.amplitudes(rho, modes)

    def test_gap_class_is_the_coherence_flag(self, spectrum_case):
        spec, _ = spectrum_case
        assert mp.spectral_gap(spec).complex_pair == (2 in spec.coherent_modes())

    def test_coherent_modes_follow_per_mode_definition(self, spectrum_case):
        spec, _ = spectrum_case

        def coherent(k):
            tag = spec.mode_tag(k)
            if tag[0] != "dense":
                return tag[0] == "coh"
            lam = spec.eigenvalues[k - 1]
            return bool(abs(lam.imag) > IMAG_TOL * max(1.0, abs(lam)))

        expected = [k for k in range(2, spec.n_modes + 1) if coherent(k)]
        assert spec.coherent_modes() == expected and expected


def test_project_physical_returns_the_lab_state_for_arrays(spectrum_case):
    spec, rho = spectrum_case
    from_array = spec.project_physical(rho.entries)
    assert from_array.entries.tobytes() == spec.project_physical(rho).entries.tobytes()


def test_private_spectrum_state_stays_in_spectral_module():
    # every other module reaches amplitudes through the public API
    private = {"_pop_col", "_flat", "_generator", "_rights", "_lefts", "_to_eig", "_amplitudes_eig"}
    package = Path(mp.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.name == "spectral.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr in private:
                offenders.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert not offenders, offenders


def test_package_runs_in_one_thread():
    # no module spawns threads: every run is one path through one thread
    banned = {"concurrent", "threading"}
    package = Path(mp.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno} {n}" for n in names if n.split(".")[0] in banned]
    assert not offenders, offenders


def test_states_are_judged_in_one_place():
    # isinstance(..., DensityMatrix) is the entry rule's test: as_state makes
    # it, and amplitudes, the one linear reader of any matrix, keeps a copy
    package = Path(mp.__file__).parent
    found = []

    def visit(node, scope, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,), path)
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and child.func.id == "isinstance"
                and "DensityMatrix" in {n.id for n in ast.walk(child.args[1]) if isinstance(n, ast.Name)}
            ):
                found.append(f"{path.stem}.{'.'.join(scope)}")
            visit(child, scope, path)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), (), path)
    assert sorted(found) == ["operators.as_state", "spectral.GeneratorSpectrum.amplitudes"]


def test_package_imports_are_used():
    # every name a module imports is read in that module; __init__.py only re-exports
    package = Path(mp.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
                offenders += [f"{path.name}:{node.lineno} {n}" for n in names if n not in used]
    assert not offenders, offenders


def test_package_private_names_are_read():
    # every private name a module defines at its top level (_x, not __x__) is read somewhere
    # in the package: a helper left behind by a deletion fails here
    package = Path(mp.__file__).parent
    defined, read = [], set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(path.name, n) for n in names if n.startswith("_") and not n.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert defined
    offenders = [f"{module} {name}" for module, name in defined if name not in read]
    assert not offenders, offenders


def test_benchmark_names_resolve():
    # perfbench is read, not imported: every mpemba name it uses must exist
    missing, spans = [], 0
    for path in sorted((Path(__file__).resolve().parent.parent / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("mpemba."):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    imported[alias.asname or alias.name] = getattr(module, alias.name, None)
                    if not hasattr(module, alias.name):
                        missing.append(f"{path.name}: {node.module}.{alias.name}")
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "mp" and not hasattr(mp, node.attr)):
                missing.append(f"{path.name}: mp.{node.attr}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "CLI_SPANS" for t in node.targets):
                for key in node.value.keys:
                    spans += 1
                    owner, attr = key.elts
                    owner = (importlib.import_module(ast.unparse(owner)) if isinstance(owner, ast.Attribute)
                             else imported[owner.id])
                    if not hasattr(owner, attr.value):
                        missing.append(f"{path.name}: CLI_SPANS {ast.unparse(key)}")
    assert spans and not missing, missing


class TestDerivedModeTags:
    @pytest.mark.parametrize("model", ["qubit", "tfim3", "tfim5"])
    def test_block_tags_cover_every_mode_once(self, model):
        # an oracle independent of the spectrum's index arrays: the tags
        # against the generator's coherence block and the level count
        length = {"qubit": None, "tfim3": 3, "tfim5": 5}[model]
        gen = mp.build_generator(mp.single_qubit() if length is None else mp.tfim(length=length))
        spec = mp.decompose(gen)
        d = spec.dim
        tags = [spec.mode_tag(k) for k in range(1, spec.n_modes + 1)]
        assert all(type(x) is int for tag in tags for x in tag[1:])
        assert sorted(tag[1] for tag in tags if tag[0] == "pop") == list(range(d))
        assert sorted(tag[1:] for tag in tags if tag[0] == "coh") == [
            (n, m) for n in range(d) for m in range(d) if n != m
        ]
        assert len(tags) == d * d and tags[0][0] == "pop"
        coherent = spec.coherent_modes()
        for k, tag in enumerate(tags, start=1):
            assert (k in coherent) is (tag[0] == "coh")
            if tag[0] == "coh":
                c = gen.coherence_rates
                assert spec.eigenvalues[k - 1] == c[tag[1]] + c[tag[2]].conj()

    def test_dense_tags_number_the_modes(self, qubit_spec):
        tags = [qubit_spec.mode_tag(k) for k in range(1, qubit_spec.n_modes + 1)]
        assert tags == [("dense", j) for j in range(qubit_spec.n_modes)]
        assert all(type(tag[1]) is int for tag in tags)


class TestEigenmatrices:
    def test_out_of_range_mode_rejected(self, spectrum_case):
        spec, _ = spectrum_case
        for k in (0, spec.n_modes + 1):
            for side in (spec.right, spec.left):
                with pytest.raises(ValidationError):
                    side(k)

    @pytest.mark.parametrize("k", [2.5, 2.7, np.float64(2.0), True, np.int64(2)], ids=repr)
    @pytest.mark.parametrize("call", ["amplitudes", "mode_tag", "left", "AnnealSchedule"])
    def test_a_mode_index_is_an_integer(self, tfim3_gen, call, k):
        # a float or a bool is refused, not truncated to some mode; a numpy integer is an integer
        spec = mp.decompose(tfim3_gen)
        rho = mp.random_mixed_state(8, 4, seed=3)
        run = {
            "amplitudes": lambda mode: spec.amplitudes(rho, [mode]),
            "mode_tag": spec.mode_tag,
            "left": spec.left,
            "AnnealSchedule": lambda mode: mp.AnnealSchedule(0.9, 1e-3, target_modes=(mode,)).target_modes,
        }[call]
        if isinstance(k, np.int64):
            assert repr(run(k)) == repr(run(2))  # the repr tells np.int64(2) from 2
        else:
            with pytest.raises(ValidationError, match="is not an integer"):
                run(k)

    @pytest.mark.parametrize("config", ["tfim3", "chain_demo", "metropolis_swap", "metropolis_unitary",
                                        "spectrum_tfim5"])
    def test_population_modes_have_the_sign_of_any_lapack_driver(self, config):
        # the largest-magnitude entry of each eigenvector u of the symmetrized block is
        # positive, so scipy's syevr gives the left eigenvectors numpy's syevd gives
        import scipy.linalg

        model = (mp.tfim(length=3) if config == "tfim3"
                 else load_config(Path(__file__).resolve().parent.parent / "configs" / f"{config}.json").build_model())
        assert model.name == "tfim"
        gen = mp.build_generator(model)
        spec, d = mp.decompose(gen), gen.dim
        gp = np.asarray(gen.pop_block)
        sym = np.sqrt(gp * gp.T)
        np.fill_diagonal(sym, np.diag(gp))
        _, u = scipy.linalg.eigh(sym, driver="evr")
        u *= np.sign(u[np.argmax(np.abs(u), axis=0), np.arange(d)])
        sqrt_p = np.exp(0.5 * log_gibbs_weights(gen.basis.energies, gen.bath.beta))
        tags = [spec.mode_tag(k) for k in range(1, spec.n_modes + 1)]
        pop_modes = [(k, tag[1]) for k, tag in enumerate(tags, start=1) if tag[0] == "pop"]
        assert len(pop_modes) == d and pop_modes[0] == (1, d - 1)  # ascending: the zero mode is last
        lefts = u / sqrt_p[:, None]
        lefts[:, d - 1] *= (u[:, d - 1] * sqrt_p).sum()  # the stationary left, normalized by its trace
        for k, j in pop_modes:
            got = spec.left(k)
            assert not got[~np.eye(d, dtype=bool)].any()
            # compared times sqrt(p), where u has unit norm: a left entry of a level of Gibbs weight p
            # carries the solvers' rounding of u times 1/sqrt(p), about 1e-11 at tfim3's top levels
            gap = np.abs(np.real(np.diag(got)) - lefts[:, j]) * sqrt_p
            assert gap.max() <= 1e-12 * np.abs(lefts[:, j] * sqrt_p).max()


class TestEvolution:
    def test_time_zero_reconstruction(self, qubit_spec):
        rho = mp.bloch_to_state(list(DEMO_BLOCH))
        grid = mp.evolve_spectral(qubit_spec, rho, [0.0])
        assert np.abs(grid.states[0].entries - rho.entries).max() <= 1e-8

    def test_long_time_reaches_steady_state(self, qubit_spec):
        rho = mp.bloch_to_state(list(DEMO_BLOCH))
        gap = mp.spectral_gap(qubit_spec).value
        grid = mp.evolve_spectral(qubit_spec, rho, [50.0 / gap])
        assert np.abs(grid.states[-1].entries - qubit_spec.steady_state.entries).max() <= 1e-10

    def test_spectral_matches_direct_tfim3(self, tfim3_gen):
        spec = mp.decompose(tfim3_gen, prefer="dense")
        rho = mp.random_mixed_state(8, 4, seed=11)
        times = np.linspace(0.0, 6.0, 200)
        a = mp.evolve_spectral(spec, rho, times)
        b = mp.evolve_direct(tfim3_gen, rho, times)
        worst = max(np.abs(x.entries - y.entries).max() for x, y in zip(a.states, b.states))
        assert worst <= 1e-8

    def test_block_matches_direct_tfim3(self, tfim3_gen):
        spec = mp.decompose(tfim3_gen)
        rho = mp.random_mixed_state(8, 4, seed=11)
        times = np.linspace(0.0, 6.0, 50)
        a = mp.evolve_spectral(spec, rho, times)
        b = mp.evolve_direct(tfim3_gen, rho, times)
        worst = max(np.abs(x.entries - y.entries).max() for x, y in zip(a.states, b.states))
        assert worst <= 1e-8

    def test_block_coherences_and_energy_match_their_oracles_tfim5(self):
        # each coherence evolves by k_n conj(k_m), k = exp(c t): it must agree
        # with exp((c_n + conj(c_m)) t), c the generator's coherence rates, within a few ulps of
        # the state's largest entry, and sum_n E_n p_n with Tr(H rho) of the lab state
        model = mp.tfim(length=5, coupling=1.0, h_field=0.5, t_bath=0.1, statistics="fermi")
        gen = mp.build_generator(model)
        spec, basis = mp.decompose(gen), model.basis()
        rho = spec.project_physical(mp.random_mixed_state(32, 1000, seed=3))
        times = np.linspace(0.0, 14.0, 281)
        grid = mp.evolve_spectral(spec, rho, times)
        stored = grid.eigen_entries
        assert herm_defect(stored).max() == 0.0
        rho_e = basis.to_eigenbasis(rho.entries)
        c = gen.coherence_rates
        want = hermitize(rho_e * np.exp((c[:, None] + c[None, :].conj()) * times[:, None, None]))
        off = ~np.eye(32, dtype=bool)
        gap = np.abs(stored - want)[:, off].max(axis=1)
        assert np.all(gap <= 4 * np.spacing(np.abs(want).max(axis=(1, 2))))
        energy = np.real(np.trace(basis.hamiltonian() @ grid.entries, axis1=1, axis2=2))
        assert np.abs(grid.mean_energy - energy).max() <= 1e-14 * np.abs(energy).max()

    def test_direct_preserves_trace(self, tfim3_gen):
        rho = mp.random_mixed_state(8, 4, seed=2)
        grid = mp.evolve_direct(tfim3_gen, rho, np.linspace(0.0, 4.0, 40))
        for state in grid.states:
            assert abs(np.trace(state.entries) - 1.0) <= 1e-12

    def test_unitary_flow_is_isospectral(self, tfim3_model):
        # no jump operators: pure -i[H, .] evolution keeps the spectrum fixed
        basis = tfim3_model.basis()
        g = vectorized_lindbladian(np.diag(basis.energies).astype(complex), [])
        rho = mp.random_mixed_state(8, 4, seed=6)
        ref = np.linalg.eigvalsh(rho.entries)
        gen = mp.DaviesGenerator(basis=basis, dense=g)
        grid = mp.evolve_direct(gen, rho, np.linspace(0.0, 3.0, 10))
        for state in grid.states:
            np.testing.assert_allclose(np.linalg.eigvalsh(state.entries), ref, atol=1e-10)

    def test_states_stay_hermitian(self, tfim3_gen):
        spec = mp.decompose(tfim3_gen)
        rho = mp.random_mixed_state(8, 2, seed=8)
        grid = mp.evolve_spectral(spec, rho, np.linspace(0.0, 10.0, 30))
        for state in grid.states:
            assert np.abs(state.entries - state.entries.conj().T).max() <= 1e-10


class TestNonFiniteStates:
    """A state holding a NaN raises ValidationError before or while it evolves."""

    @pytest.mark.parametrize("case", ["qubit_dense", "tfim3_block"])
    def test_spectral_evolution_judges_an_array_input(self, case, qubit_spec, tfim3_gen):
        spec = qubit_spec if case == "qubit_dense" else mp.decompose(tfim3_gen)
        rho = np.eye(spec.dim, dtype=complex) / spec.dim
        rho[0, 1] = rho[1, 0] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            mp.evolve_spectral(spec, rho, [0.0, 1.0])

    def test_direct_evolution_judges_an_array_input(self, tfim3_gen):
        rho = np.eye(8, dtype=complex) / 8
        rho[0, 1] = rho[1, 0] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            mp.evolve_direct(tfim3_gen, rho, [0.0, 1.0])

    def test_batched_mask_fails_on_nan(self, qubit_model):
        stack = np.full((3, 2, 2), np.nan, dtype=complex)
        with pytest.raises(ValidationError, match="not Hermitian"):
            _package_states(np.arange(3.0), lambda s, out: _check_pairing(stack[s], out),
                            qubit_model.basis())

    def test_unchecked_chunk_fails_on_nan_populations(self, qubit_model):
        # the block route stores its chunk and returns no pairing check; only
        # its populations can be non-finite, and they fail with the same message
        stack = np.zeros((3, 2, 2), dtype=complex)
        stack[:, 0, 0] = 1.0
        stack[1, 0, 0] = np.inf

        def chunk(s, out):
            out[...] = stack[s]

        with pytest.raises(ValidationError, match="not Hermitian"):
            _package_states(np.arange(3.0), chunk, qubit_model.basis())


class TestTimeGrid:
    """A time grid is judged once, where it enters, on every evolution path."""

    @pytest.fixture(params=["block", "dense", "direct"])
    def evolve(self, request, qubit_gen, qubit_spec):
        if request.param == "direct":
            return lambda times: mp.evolve_direct(qubit_gen, qubit_spec.steady_state, times)
        spec = mp.decompose(qubit_gen) if request.param == "block" else qubit_spec
        assert spec.kind == request.param
        return lambda times: mp.evolve_spectral(spec, spec.steady_state, times)

    @pytest.mark.parametrize("times", [
        [0.0, np.nan, 2.0], [-1.0, 0.0, 1.0], [0.0, np.inf], [[0.0, 1.0], [2.0, 3.0]],
    ], ids=["nan", "negative_start", "infinite", "two_dimensional"])
    def test_malformed_grid_rejected(self, evolve, times):
        with pytest.raises(ValidationError, match="^times must"):
            evolve(times)

    def test_empty_grid_allowed(self, evolve):
        grid = evolve([])
        assert len(grid) == 0 and grid.entries.shape == (0, 2, 2)


class TestDecayRates:
    def test_tail_rate_matches_gap(self, qubit_model, qubit_spec):
        basis = qubit_model.basis()
        rho = mp.bloch_to_state(list(DEMO_BLOCH))
        times = np.linspace(0.0, 6.0, 300)
        grid = mp.evolve_spectral(qubit_spec, rho, times)
        tau = qubit_spec.steady_state
        dist = [mp.l1_elementwise(s, tau, basis) for s in grid.states]
        rate = mp.fit_decay_rate(times, dist, t_min=3.0)
        assert rate == pytest.approx(-QUBIT_GAMMA_TOTAL / 2, rel=0.02)

    def test_mode_elimination_reveals_next_rate(self, qubit_model, qubit_spec):
        # zero the complex-pair amplitudes by hand; the remaining decay is the
        # population rate
        basis = qubit_model.basis()
        rho = mp.bloch_to_state(list(DEMO_BLOCH))
        rho_diag = mp.dephase(rho, basis)
        times = np.linspace(0.0, 4.0, 200)
        grid = mp.evolve_spectral(qubit_spec, rho_diag, times)
        tau = qubit_spec.steady_state
        dist = [mp.l1_elementwise(s, tau, basis) for s in grid.states]
        rate = mp.fit_decay_rate(times, dist, t_min=1.0)
        assert rate == pytest.approx(-QUBIT_GAMMA_TOTAL, rel=0.05)

    def test_slow_pair_partial_sum_hermitian(self, qubit_spec):
        rho = mp.bloch_to_state(list(DEMO_BLOCH))
        amps = qubit_spec.amplitudes(rho)
        partial = (
            amps[1] * qubit_spec.right(2) + amps[2] * qubit_spec.right(3)
        )
        assert np.abs(partial - partial.conj().T).max() <= 1e-9
        lam2, lam3 = qubit_spec.eigenvalues[1:3]
        assert lam3 == pytest.approx(np.conj(lam2), abs=1e-10)
        assert abs(lam2.imag) > IMAG_TOL


class TestChunkedPackaging:
    """Evolved states are checked and stored chunk_points(d) time points at a time."""

    def test_chunk_rule(self):
        # 4096 entries per stack, at least 16 points: d >= 16 keeps 16
        assert [chunk_points(d) for d in (2, 4, 8, 16, 32, 64)] == [1024, 256, 64, 16, 16, 16]

    def test_states_are_validated_views_of_entries(self, tfim3_gen):
        spec = mp.decompose(tfim3_gen)
        chunk = chunk_points(spec.dim)
        n = 2 * chunk + 5
        rho = mp.random_mixed_state(8, 4, seed=3)
        grid = mp.evolve_spectral(spec, rho, np.linspace(0.0, 6.0, n))
        basis = spec.basis
        assert len(grid) == len(grid.states) == n
        assert grid.entries.shape == grid.eigen_entries.shape == (n, 8, 8)
        assert grid.spectra.shape == (n, 8) and grid.mean_energy.shape == (n,)
        for array in (grid.entries, grid.eigen_entries, grid.spectra, grid.mean_energy):
            assert not array.flags.writeable
        assert np.array_equal(grid.entries, basis.from_eigenbasis(grid.eigen_entries))
        for j in range(n):
            assert np.array_equal(grid.spectra[j], np.linalg.eigvalsh(grid.eigen_entries[j]))
        states = grid.states
        picked = {
            -1: states[-1],
            -n: states[-n],
            chunk: states[chunk],
        }
        for j, state in picked.items():
            assert isinstance(state, mp.DensityMatrix)
            assert np.array_equal(state.entries, grid.entries[j])
        part = states[3:n:7]
        assert isinstance(part, tuple) and len(part) == len(range(3, n, 7))
        for j, state in zip(range(3, n, 7), part):
            assert isinstance(state, mp.DensityMatrix)
            assert np.array_equal(state.entries, grid.entries[j])
        iterated = list(states)
        assert len(iterated) == n
        for j, state in enumerate(iterated):
            assert isinstance(state, mp.DensityMatrix)
            assert np.array_equal(state.entries, grid.entries[j])
        with pytest.raises(IndexError):
            states[n]

    def test_grid_rejects_inconsistent_arrays(self, qubit_model):
        basis = qubit_model.basis()
        stack = np.repeat(np.eye(2, dtype=complex)[None] / 2, 3, axis=0)
        spectra = np.full((3, 2), 0.5)
        energy = np.zeros(3)
        with pytest.raises(ValidationError, match="inconsistent shapes"):
            mp.EvolutionGrid([0.0, 1.0], basis, stack, spectra, energy)
        with pytest.raises(ValidationError, match="inconsistent shapes"):
            mp.EvolutionGrid([0.0, 1.0, 2.0], basis, stack, spectra[:, :1], energy)
        with pytest.raises(ValidationError, match="inconsistent shapes"):
            mp.EvolutionGrid([0.0, 1.0, 2.0], basis, stack, spectra, energy[:2])
        with pytest.raises(ValidationError, match="inconsistent shapes"):
            mp.EvolutionGrid([0.0, 1.0, 2.0], mp.tfim(length=3).basis(), stack, spectra, energy)
        with pytest.raises(ValidationError, match="SpectralBasis"):
            mp.EvolutionGrid([0.0, 1.0, 2.0], None, stack, spectra, energy)
        with pytest.raises(ValidationError, match="ascending"):
            mp.EvolutionGrid([0.0, 2.0, 1.0], basis, stack, spectra, energy)
        grid = mp.EvolutionGrid([0.0, 1.0, 2.0], basis, stack, spectra, energy)
        stack[0] = 0.0  # the grid holds its own read-only copy
        assert np.array_equal(grid.eigen_entries[0], np.eye(2) / 2)

    def test_grid_of_populations_derives_its_stack(self, qubit_model, monkeypatch):
        basis = qubit_model.basis()
        times = [0.0, 1.0, 2.0]
        pops = np.array([[0.5, 0.5], [0.7, 0.3], [0.9, 0.1]])
        spectra, energy = np.sort(pops, axis=1), pops @ basis.energies
        grid = mp.EvolutionGrid(times, basis, pops, spectra, energy)
        pops[0] = 0.0  # the grid holds its own read-only copy
        assert np.array_equal(grid.populations[0], [0.5, 0.5])
        stack = grid.eigen_entries
        assert stack is not grid.eigen_entries  # built on each access, not cached
        assert np.array_equal(stack, diagonal_stack(grid.populations)) and not stack.flags.writeable
        assert np.array_equal(grid.entries, basis.from_eigenbasis(stack))
        built = []
        monkeypatch.setattr(mp.spectral, "diagonal_stack", lambda p: built.append(p.shape) or diagonal_stack(p))
        state = grid.states[-1]
        assert built == [(2,)]  # only the matrix asked for
        assert np.array_equal(state.entries, grid.entries[-1])

    @pytest.mark.parametrize("shape", [(3,), (3, 1), (3, 2, 3), (3, 3, 2), (2, 2, 2), (3, 2, 2, 1), (), None])
    def test_the_form_of_a_grid_is_the_shape_of_its_states(self, qubit_model, shape):
        # (T, d) populations or a (T, d, d) stack; any other array raises
        basis, times = qubit_model.basis(), [0.0, 1.0, 2.0]
        spectra, energy = np.full((3, 2), 0.5), np.zeros(3)
        states = None if shape is None else np.full(shape, 0.5)
        with pytest.raises(ValidationError, match="times, states, spectra and mean_energy have inconsistent"):
            mp.EvolutionGrid(times, basis, states, spectra, energy)
        pops = mp.EvolutionGrid(times, basis, np.full((3, 2), 0.5), spectra, energy)
        stack = mp.EvolutionGrid(times, basis, diagonal_stack(np.full((3, 2), 0.5)), spectra, energy)
        assert pops.populations.dtype == float and stack.populations is None
        assert np.array_equal(pops.eigen_entries, stack.eigen_entries) and stack.eigen_entries.dtype == complex

    @pytest.mark.parametrize("layout", ["contiguous", "stack_diagonal"])
    def test_mean_energy_is_one_dot_per_state(self, layout):
        # a contiguous (T, d) array handed to matmul as it is sums in another order at d = 32
        basis = mp.tfim(length=5).basis()
        pops = np.random.default_rng(32).dirichlet(np.ones(32), size=40)
        stack = diagonal_stack(pops)
        want = [float(np.real(np.diag(m)) @ basis.energies) for m in stack]
        if layout == "stack_diagonal":
            pops = np.real(np.diagonal(stack, axis1=1, axis2=2))
        assert np.array_equal(_mean_energy(pops, basis.energies), want)

    @staticmethod
    def _first_error(run):
        with pytest.raises((RuntimeError, ValidationError)) as info:
            run()
        return type(info.value), str(info.value)

    @pytest.mark.parametrize("order", ["negative_first", "skewed_first"])
    def test_first_failing_point_raises(self, tfim3_model, order):
        # two bad points in the second chunk: the earlier one decides, with
        # the error and message of the per-point reference
        basis = tfim3_model.basis()
        d = basis.dim
        chunk = chunk_points(d)
        n = chunk + 5
        stack = np.repeat(np.diag(np.full(d, 1.0 / d)).astype(complex)[None], n, axis=0)
        negative = np.full(d, (1.0 + 1e-6) / (d - 1))
        negative[0] = -1e-6
        first, second = chunk + 1, chunk + 3
        neg_at, skew_at = (first, second) if order == "negative_first" else (second, first)
        stack[neg_at] = np.diag(negative)
        stack[skew_at, 0, 1] = 1e-3

        def reference():
            for m in stack:
                reference_package_state(m)

        def chunk(s, out):
            return _check_pairing(stack[s], out)

        got = self._first_error(lambda: _package_states(np.arange(n, dtype=float), chunk, basis))
        assert got == self._first_error(reference)
        if order == "negative_first":
            assert got == (ValidationError, "state has negative eigenvalue -1.00e-06")
        else:
            assert got[0] is RuntimeError and "lost Hermiticity (defect 1.00e-03)" in got[1]
