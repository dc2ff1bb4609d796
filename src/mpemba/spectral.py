"""Spectral decomposition of generators and state evolution.

Eigenvalues are ordered by ascending modulus of the real part with the zero
mode first; left/right eigenmatrices are normalized to Tr(l_j r_k) =
delta_jk with no conjugation on l, so the amplitude of mode k in a state is
literally Tr(l_k rho).  Mode indices in the public API are 1-based: mode 1
is the steady state, mode 2 defines the spectral gap.

Two internal representations exist.  A dense decomposition stores all
eigenmatrices explicitly (fine up to d ~ 16-32).  A block decomposition of a
Davies generator keeps the population modes as vectors and reads each
coherence mode as one entry of the state, which never touches a d^2 x d^2
array and stays numerically stable at low temperature, where the dense
eigenbasis becomes exponentially ill-conditioned.  One routine,
:meth:`GeneratorSpectrum.amplitudes`, turns a state into mode amplitudes for
both representations; every other caller (the transform's overlap check, the
annealers' costs) goes through it.

Both decompositions run on numpy's LAPACK (``geev`` for the dense form,
``syevd`` for the symmetrized population block).  scipy is imported only by
:func:`_propagate`, for the ``expm`` of the population semigroup, so
importing the package and decomposing a generator never load it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .davies import DaviesGenerator, coherence_indices
from .errors import (
    DefectiveGeneratorError,
    NoSteadyStateError,
    ValidationError,
)
from .operators import (
    HERMITICITY_TOL,
    TRACE_TOL,
    DensityMatrix,
    SpectralBasis,
    as_state,
    require_state,
    thermal_populations,
    thermal_state,
)
from .utils import chunk_slices, diagonal_stack, frozen, herm_defect, hermitize, log_gibbs_weights

#: Eigenvector-matrix condition number above which a generator is treated as
#: numerically defective.
DEFECTIVE_COND = 1e12
#: Zero-mode threshold, relative to the spectrum's scale max(1, max |λ|).
ZERO_EIGENVALUE_TOL = 1e-9
#: Relative threshold for calling an eigenvalue's imaginary part nonzero.
IMAG_TOL = 1e-9
#: Positivity slack for states reconstructed along an evolution.
EVOLUTION_PSD_TOL = 1e-8


def chunk_points(d: int) -> int:
    """Time points whose d x d states are validated and stored as one stack.

    The one chunk rule of the evolutions here and of
    ``thermo.compute_trajectory``: 4096 matrix entries per (n, d, d) stack
    (64 KiB of complex128), but at least 16 points, so 1024 points at d=2,
    64 at d=8 and 16 for every d >= 16.  Every batched operation on a stack, LAPACK's
    ``np.linalg.eigvalsh`` too, works per matrix, so the chunk length changes no result;
    small systems just pay the per-call overhead of numpy fewer times.
    """
    return max(16, 4096 // (d * d))


def as_times(times) -> np.ndarray:
    """The one rule for a time grid: 1-D, finite, from t >= 0, strictly ascending, maybe empty.

    Returns it as a float array; anything else raises :class:`ValidationError`.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or not np.isfinite(times).all():
        raise ValidationError("times must be a 1-D grid of finite values")
    if times.size and (times[0] < 0 or np.any(np.diff(times) <= 0)):
        raise ValidationError("times must start at t >= 0 and be strictly ascending")
    return times


class GapInfo(NamedTuple):
    value: float
    complex_pair: bool


@dataclass(frozen=True, init=False)
class EvolutionGrid:
    """States sampled along an evolution at ascending times (units 1/J).

    The grid holds each state in the energy eigenbasis of ``basis``, as the
    evolution produced and validated it; the shape of ``states`` is its form.
    A (T, d, d) stack of states with coherences is ``eigen_entries``, and
    ``populations`` is None.  The (T, d) populations of states diagonal in the
    energy basis are ``populations``, and ``eigen_entries`` is the zero stack
    with them on its diagonal, built on each access.  Any other shape, or
    complex populations, raises :class:`ValidationError`.  Both forms hold
    ``spectra``, the (T, d) ascending eigenvalues of each state.  Every
    array is read-only, and nothing derived is cached.  No lab-basis stack is
    kept: ``entries`` rotates ``eigen_entries`` to the lab basis on each
    access, and ``states`` is a read-only sequence that builds a validated
    :class:`DensityMatrix` from one rotated matrix on each access (of a
    population grid only that matrix).  A matrix rotated alone equals the same
    matrix rotated in the stack, so ``states[j]`` holds ``entries[j]`` exactly.
    """

    times: np.ndarray
    basis: SpectralBasis
    spectra: np.ndarray
    _stored: np.ndarray

    def __init__(self, times, basis, states, spectra):
        if not isinstance(basis, SpectralBasis):
            raise ValidationError("an evolution grid needs the SpectralBasis its states are stored in")
        times = as_times(times)
        d = basis.dim
        stored = np.asarray(states)
        spectra = np.asarray(spectra, dtype=float)
        if stored.shape not in (times.shape + (d,), times.shape + (d, d)) or spectra.shape != times.shape + (d,):
            raise ValidationError("times, states and spectra have inconsistent shapes")
        if stored.ndim == 2 and np.iscomplexobj(stored):
            raise ValidationError("the (T, d) populations of a grid must be a real array, not complex")
        stored = np.asarray(stored, dtype=float if stored.ndim == 2 else complex)
        object.__setattr__(self, "basis", basis)
        for name, value in (("times", times), ("_stored", stored), ("spectra", spectra)):
            # an array that owns its data and is read-only already is kept:
            # copying the stack would double the grid's memory while it is built
            if value.flags.writeable or not value.flags.owndata:
                value = frozen(value)
            object.__setattr__(self, name, value)

    def __len__(self):
        return self.times.size

    @property
    def populations(self) -> np.ndarray | None:
        """The stored (T, d) populations of a grid of diagonal states; None for a stack."""
        return self._stored if self._stored.ndim == 2 else None

    @property
    def eigen_entries(self) -> np.ndarray:
        """The (T, d, d) energy-basis states: the stored stack, or the populations on a zero stack."""
        if self._stored.ndim == 3:
            return self._stored
        out = diagonal_stack(self._stored)
        out.setflags(write=False)
        return out

    @property
    def entries(self) -> np.ndarray:
        """The (T, d, d) lab-basis states, rotated from ``eigen_entries`` on each access."""
        out = self.basis.from_eigenbasis(self.eigen_entries)
        out.setflags(write=False)
        return out

    @property
    def states(self) -> _States:
        return _States(self)


class _States(Sequence):
    """The states of an :class:`EvolutionGrid`, rotated and validated on each access."""

    def __init__(self, grid):
        self._grid = grid

    def __len__(self):
        return len(self._grid)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[j] for j in range(*index.indices(len(self))))
        grid = self._grid
        matrix = grid._stored[index]
        if matrix.ndim == 1:  # a population grid's row
            matrix = diagonal_stack(matrix)
        return DensityMatrix(grid.basis.from_eigenbasis(matrix), psd_tol=EVOLUTION_PSD_TOL)


class GeneratorSpectrum:
    """Ordered eigenvalues with paired left/right eigenmatrices.

    Not constructed directly; use :func:`decompose`.  It reads the generator
    it decomposed; ``_rights``/``_lefts`` are the (K, d, d) eigenmatrices of
    a dense spectrum or the (d, d) population eigenvectors of a block one.
    Per block mode, ``_pop_col`` is its column of those (-1 for a coherence)
    and ``_flat`` the position n*d + m of a coherence |n><m| in the
    flattened energy-basis state.  Mode tags and the coherence flags are
    derived from these on request.
    """

    def __init__(self, eigenvalues, generator, steady_state, rights, lefts, *,
                 pop_col=None, flat=None):
        self.eigenvalues = frozen(np.asarray(eigenvalues, dtype=complex))
        self.steady_state = steady_state
        self._generator = generator
        self._rights = rights
        self._lefts = lefts
        self._pop_col = pop_col
        self._flat = flat

    # -- structure ---------------------------------------------------------

    @property
    def n_modes(self) -> int:
        return self.eigenvalues.size

    @property
    def basis(self) -> SpectralBasis:
        return self._generator.basis

    @property
    def dim(self) -> int:
        return self.basis.dim

    @property
    def kind(self) -> str:
        return "dense" if self._pop_col is None else "block"

    def mode_tag(self, k: int):
        """Structural tag of 1-based mode k: ("dense", k-1), ("pop", j) or ("coh", n, m)."""
        idx = _check_mode_index(k, self.n_modes)
        if self._pop_col is None:
            return ("dense", idx)
        j = int(self._pop_col[idx])
        if j >= 0:
            return ("pop", j)
        return ("coh", *divmod(int(self._flat[idx]), self.dim))

    def coherent_modes(self) -> list[int]:
        """1-based indices of all coherence-sector modes.

        Block spectra know the sector structurally: a coherence has no
        population column.  For dense spectra the criterion is an imaginary
        part above ``IMAG_TOL`` relative to the eigenvalue's modulus (at least 1).
        This is the one coherence flag; :func:`spectral_gap` reads it too.
        """
        if self._pop_col is None:
            lam = self.eigenvalues
            coherent = np.abs(lam.imag) > IMAG_TOL * np.maximum(1.0, np.abs(lam))
        else:
            coherent = self._pop_col < 0
        return (np.flatnonzero(coherent[1:]) + 2).tolist()

    # -- eigenmatrices -----------------------------------------------------

    def right(self, k: int) -> np.ndarray:
        """Right eigenmatrix of 1-based mode k, in the energy eigenbasis."""
        return self._eigenmatrix(k, left=False)

    def left(self, k: int) -> np.ndarray:
        """Left eigenmatrix of 1-based mode k, in the energy eigenbasis."""
        return self._eigenmatrix(k, left=True)

    def _eigenmatrix(self, k: int, left: bool) -> np.ndarray:
        # reads the same data as amplitudes(): the dense stacks, the
        # population columns, or the coherence's flat index n*d + m
        idx = _check_mode_index(k, self.n_modes)
        vectors = self._lefts if left else self._rights
        if self._pop_col is None:
            return vectors[idx].copy()
        j = self._pop_col[idx]
        if j >= 0:
            return np.diag(vectors[:, j]).astype(complex)
        n, m = divmod(int(self._flat[idx]), self.dim)
        out = np.zeros((self.dim, self.dim), dtype=complex)
        out[(m, n) if left else (n, m)] = 1.0
        return out

    # -- amplitudes ---------------------------------------------------------

    def amplitudes(self, rho, modes=None) -> np.ndarray:
        """Overlaps Tr(l_k rho) of the 1-based ``modes``, in their order.

        ``modes=None`` gives every mode, as a vector indexed by k-1.  This is
        the one routine that turns a state into amplitudes, for both
        representations: dense modes contract their stored left eigenmatrices
        in one batch, coherence modes are single entries of rho in the energy
        basis, and population modes weight its diagonal.  Only the requested
        modes are computed.  A mode outside 1..n_modes raises
        :class:`ValidationError`.  The read is linear, of any d x d matrix.
        """
        # not as_state: the annealer's costs read rotated arrays, and judging one costs an eigvalsh
        m = rho.entries if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
        rho_e = self.basis.to_eigenbasis(m)
        if modes is None:
            idx = np.arange(self.n_modes)
        else:
            idx = np.array([_check_mode_index(k, self.n_modes) for k in modes], dtype=np.intp)
        if self._pop_col is None:
            return np.einsum("knm,mn->k", self._lefts[idx], rho_e)
        out = rho_e.ravel()[self._flat[idx]]
        for i, j in enumerate(self._pop_col[idx].tolist()):
            if j >= 0:  # one product per mode: a batched one rounds differently
                out[i] = self._lefts[:, j] @ np.diag(rho_e)
        return out

    def project_physical(self, rho) -> DensityMatrix:
        """Project onto the operator sector this spectrum can represent.

        For superselected spectra (e.g. fermion parity) this is the pinching
        that removes sector-violating coherences; it is exactly what the
        retained eigenmodes reconstruct, and a CPTP map, so the result is a
        valid state.  ``rho`` passes :func:`mpemba.operators.as_state`, and
        spectra without sector labels return it unchanged.
        """
        rho = as_state(rho, self.dim)
        labels = self._generator.sector_labels
        if labels is None:
            return rho
        mask = np.equal.outer(labels, labels)
        rho_e = self.basis.to_eigenbasis(rho.entries)
        return DensityMatrix(self.basis.from_eigenbasis(hermitize(rho_e * mask)))


def _as_mode_index(k) -> int:
    """A mode index as an int: a Python or numpy integer; a bool or a float (2.0 too) raises."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise ValidationError(f"mode index {k!r} is not an integer")
    return int(k)


def _check_mode_index(k, n_modes: int) -> int:
    k = _as_mode_index(k)
    if not 1 <= k <= n_modes:
        raise ValidationError(f"mode index {k} outside 1..{n_modes}")
    return k - 1


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------


def decompose(generator: DaviesGenerator, *, prefer: str = "auto"):
    """Biorthogonal spectral decomposition of a :class:`DaviesGenerator`.

    ``prefer`` picks the representation when both are available: "auto"
    favors the block form, "dense" forces the full decomposition; any other
    value, or anything but a generator, raises :class:`ValidationError`.  A
    bare superoperator goes in as ``DaviesGenerator(basis=..., dense=matrix)``.

    Raises :class:`DefectiveGeneratorError` when the dense eigenvector
    matrix is ill-conditioned beyond ``1e12`` (the dense path only; the
    block form is symmetrized by its detailed balance) and
    :class:`NoSteadyStateError` unless one eigenvalue sits within ``1e-9`` of
    zero, relative to the spectrum's scale: ``1e-9 * max(1, max |λ|)``, and no
    other is zero to rounding, within ``n eps max |λ|`` of the n modes.  A second
    zero mode makes the stationary state depend on the start; a slow mode is not
    one (weak coupling puts the population gap far below 1e-9 of the coherences).
    """
    if not isinstance(generator, DaviesGenerator):
        raise ValidationError(
            "decompose needs a DaviesGenerator; wrap a bare superoperator as "
            "DaviesGenerator(basis=..., dense=matrix)"
        )
    if prefer not in ("auto", "dense"):
        raise ValidationError(f"prefer must be 'auto' or 'dense', not {prefer!r}")
    if generator.has_block and prefer == "auto":
        return _decompose_block(generator)
    if not generator.has_dense:
        raise ValidationError("dense decomposition requested but no dense form present")
    return _decompose_dense(generator)


def _mode_order(eigenvalues, *tiebreaks):
    """Ordering: zero mode first, then |Re| ascending, Im ascending, tiebreaks.

    Modes that tie on every key keep their input order.  No zero mode, or more
    than one, raises :class:`NoSteadyStateError`.  A zero mode exists within
    ``ZERO_EIGENVALUE_TOL`` of the scale; a second one is judged at the
    rounding of the n eigenvalues, ``n eps max |λ|``, since that tolerance
    would also take a slow but nonzero rate for a second zero.
    """
    magnitudes = np.abs(eigenvalues)
    zero_idx = int(np.argmin(magnitudes))
    tol = ZERO_EIGENVALUE_TOL * max(1.0, magnitudes.max())
    if magnitudes[zero_idx] > tol:
        raise NoSteadyStateError(f"no zero eigenvalue within {tol:g} (closest: {eigenvalues[zero_idx]:.3e})")
    rounding = eigenvalues.size * np.finfo(float).eps * magnitudes.max()
    n_zero = int(np.count_nonzero(magnitudes <= rounding))
    if n_zero > 1:
        raise NoSteadyStateError(
            f"{n_zero} eigenvalues within {rounding:.3g} of zero, the rounding of the spectrum: "
            "the stationary state is not unique"
        )
    # rounded as arrays, same values: round() on numpy scalars inside the sort
    # key would dominate the L=5 block decomposition
    rate = np.round(np.abs(eigenvalues.real), 12).tolist()
    freq = np.round(eigenvalues.imag, 12).tolist()
    keys = list(zip(rate, freq, *tiebreaks))
    rest = [i for i in range(eigenvalues.size) if i != zero_idx]
    rest.sort(key=keys.__getitem__)
    return [zero_idx] + rest


def _decompose_dense(gen: DaviesGenerator):
    d = gen.dim
    positions = slice(None)
    matrix = gen.dense
    if gen.sector_labels is not None:
        positions = np.flatnonzero(np.equal.outer(gen.sector_labels, gen.sector_labels))
        matrix = matrix[np.ix_(positions, positions)]

    # LAPACK geev, the driver scipy.linalg.eig ran, with its bits; numpy returns a real
    # matrix with a real spectrum as real arrays, and every mode here is complex
    eigvals, vr = np.linalg.eig(matrix)
    eigvals, vr = eigvals.astype(complex), vr.astype(complex)
    cond = np.linalg.cond(vr)
    if not np.isfinite(cond) or cond > DEFECTIVE_COND:
        raise DefectiveGeneratorError(
            f"eigenvector matrix condition number {cond:.3e} exceeds {DEFECTIVE_COND:g}"
        )
    left_rows = np.linalg.inv(vr)

    n_modes = eigvals.size
    rights = np.zeros((n_modes, d * d), dtype=complex)
    lefts = np.zeros((n_modes, d * d), dtype=complex)
    rights[:, positions] = vr.T
    # Tr(l_j r_k) = delta_jk  <=>  vec(l_j^T) = inv(R) row j
    lefts[:, positions] = left_rows
    rights = rights.reshape(n_modes, d, d)
    # a row-major copy: einsum may order its sums, and so round, by memory layout
    lefts = lefts.reshape(n_modes, d, d).transpose(0, 2, 1).copy()

    digests = [
        tuple(np.round(rights[j], 9).reshape(-1)[: min(8, d * d)].view(float))
        for j in range(n_modes)
    ]
    order = _mode_order(eigvals, digests)
    eigvals = eigvals[order]
    rights = rights[order]
    lefts = lefts[order]

    trace = complex(np.trace(rights[0]))
    if abs(trace) < 1e-12:
        raise NoSteadyStateError("zero-mode eigenmatrix is traceless")
    rights[0] = rights[0] / trace
    lefts[0] = lefts[0] * trace
    steady = DensityMatrix(
        gen.basis.from_eigenbasis(hermitize(rights[0])), psd_tol=EVOLUTION_PSD_TOL
    )
    return GeneratorSpectrum(eigvals, gen, steady, rights, lefts)


def _decompose_block(gen: DaviesGenerator):
    """The block decomposition: d population modes from one symmetric ``eigh``, and each
    coherence |n><m| a mode of its own with eigenvalue c_n + conj(c_m).

    Mode 1 is the Gibbs state of the bath, set exactly: its right vector is the
    thermal populations tau, its left vector is ones (the identity), and
    ``steady_state`` is ``operators.thermal_state``.  Detailed balance, which the
    generator checked, makes tau the unique zero mode (:func:`_mode_order` refuses
    a second), so no solved vector is normalized or clipped.
    """
    if not np.isfinite(gen.bath.beta):
        raise ValidationError(
            "the block decomposition needs a finite bath beta; build the generator "
            "with dense=True and decompose it with prefer='dense'"
        )
    basis = gen.basis
    d = basis.dim
    gp = np.asarray(gen.pop_block, dtype=float)

    # Detailed balance with the bath (checked by the generator) makes
    # D^{-1/2} G_p D^{1/2} symmetric (D = Gibbs weights); an eigh of that form
    # gives exactly biorthonormal pairs and stays accurate at any temperature.
    sqrt_p = np.exp(0.5 * log_gibbs_weights(basis.energies, gen.bath.beta))
    sym = np.sqrt(gp * gp.T)
    np.fill_diagonal(sym, np.diag(gp))
    # LAPACK syevd.  scipy.linalg.eigh's default driver, syevr, rounds the d
    # population eigenvalues differently, by at most 3.9e-14 on the shipped block
    # spectra, with the same mode order; no numpy call gives its bits.  The sign of
    # each u is the driver's choice, so it is fixed as operators.diagonalize fixes
    # its phases: the largest-magnitude entry is positive.  Negation is exact, so
    # every r_k Tr(l_k rho) and |Tr(l_k rho)| keeps its bits
    w, u = np.linalg.eigh(sym)
    u *= np.sign(u[np.argmax(np.abs(u), axis=0), np.arange(d)])
    pop_vals = w.astype(complex)
    pop_rights = u * sqrt_p[:, None]
    pop_lefts = u / sqrt_p[:, None]

    # the d population modes, then the coherences in row-major order, each
    # with its population column (-1 for a coherence) and its position n*d + m
    n, m = coherence_indices(d)
    c = gen.coherence_rates
    eigvals = np.concatenate([pop_vals, c[n] + c[m].conj()])
    pop_col = np.concatenate([np.arange(d), np.full(n.size, -1)])
    flat = np.concatenate([np.zeros(d, dtype=int), n * d + m])
    order = _mode_order(eigvals)
    eigvals = eigvals[order]
    pop_col = frozen(pop_col[order])
    flat = frozen(flat[order])

    j0 = int(pop_col[0])
    if j0 < 0:
        raise NoSteadyStateError("stationary mode is not in the population sector")
    pop_rights[:, j0] = thermal_populations(basis, gen.bath.beta)
    pop_lefts[:, j0] = 1.0
    steady = thermal_state(basis, gen.bath.beta)

    return GeneratorSpectrum(eigvals, gen, steady, pop_rights, pop_lefts, pop_col=pop_col, flat=flat)


# ---------------------------------------------------------------------------
# derived quantities
# ---------------------------------------------------------------------------


def spectral_gap(spectrum: GeneratorSpectrum) -> GapInfo:
    """|Re(lambda_2)| and whether mode 2 is a coherence mode (its ``complex_pair``).

    The class is the spectrum's own coherence flag, the one
    :meth:`GeneratorSpectrum.coherent_modes` reads.
    """
    if spectrum.n_modes < 2:
        raise ValidationError("spectrum has no decaying mode")
    return GapInfo(float(abs(spectrum.eigenvalues[1].real)), 2 in spectrum.coherent_modes())


def energy_diagonal(rho_e: np.ndarray) -> bool:
    """Whether each coherence of an energy-basis state is within 4 d eps max|rho_e|: the
    rounding of a diagonal state by the two d-term products of ``SpectralBasis.to_eigenbasis``."""
    off = np.abs(rho_e - np.diag(np.diag(rho_e)))
    return bool(off.max() <= 4 * rho_e.shape[0] * np.finfo(float).eps * np.abs(rho_e).max())


def evolve_spectral(spectrum: GeneratorSpectrum, rho_i, times) -> EvolutionGrid:
    """Evolve a state through the spectral expansion of the generator.

    rho(t) = tau + sum_{k>=2} Tr(l_k rho_i) r_k exp(lambda_k t).

    Block spectra propagate the population sector by its exact semigroup
    (equivalent to the mode sum, but immune to the exponentially large
    expansion coefficients that appear at low temperature) and each
    coherence |n><m| by k_n conj(k_m), k = exp(c t) with c the generator's
    ``coherence_rates`` (Davies 1974), one d-vector per time.  A state diagonal in the
    energy basis at entry (:func:`energy_diagonal`) keeps coherences of exactly 0, so its
    grid is its propagated (T, d) populations alone (:func:`_population_grid`): no stack,
    no k, no product and no eigen-solve.  Any other state's chunk is the Hermitian part
    of the conjugation, written into the grid's stack.  The block route makes no
    conjugate-pairing check: |k_n| <= 1 keeps each coherence's defect within the
    d * 1e-12 the rotation leaves of an ``as_state`` input, far below the check's 1e-9.
    The dense mode sum, where the pairing can break, is checked (:func:`_package_states`).
    A stack is built and validated :func:`chunk_points` time points at a time; the grid
    holds the states in the energy basis together with their spectra, and
    derives the lab-basis states on demand (:class:`EvolutionGrid`).
    ``rho_i`` enters through :func:`mpemba.operators.as_state` at the
    spectrum's dimension and ``times`` through :func:`as_times`.
    """
    rho_i = as_state(rho_i, spectrum.dim)
    times = as_times(times)
    basis = spectrum.basis
    if spectrum.kind == "block":
        pop_block = spectrum._generator.pop_block
        rho_e = basis.to_eigenbasis(rho_i.entries)
        pops = np.fromiter(_propagate(pop_block, np.real(np.diag(rho_e)), times),
                           dtype=(float, basis.dim), count=times.size)
        if energy_diagonal(rho_e):  # coherences are rotation rounding: they stay exactly 0
            pops.setflags(write=False)
            return _population_grid(times, pops, basis)

        diag = np.arange(basis.dim)
        c = spectrum._generator.coherence_rates
        product = np.empty((0,) + rho_e.shape, dtype=complex)  # grown once, to the first chunk

        def block_chunk(s, out):
            nonlocal product
            if len(product) < len(out):
                product = np.empty_like(out)
            k = np.exp(np.outer(times[s], c))  # per chunk: a (T, d) k raised peak memory
            # k[:, :, None] * rho_e * k[:, None, :].conj(), in the buffer: fresh chunk-sized
            # arrays cost more than the products
            m = np.multiply(k[:, :, None], rho_e, out=product[:len(out)])
            np.multiply(m, k[:, None, :].conj(), out=m)
            m[:, diag, diag] = pops[s]
            hermitize(m, out=out)

        return _package_states(times, block_chunk, basis)

    amps = spectrum.amplitudes(rho_i)
    rights = spectrum._rights
    tau_e = basis.to_eigenbasis(spectrum.steady_state.entries)
    phases = np.exp(np.outer(times, spectrum.eigenvalues[1:]))
    # one contraction over all times: chunking it may change its rounding
    deltas = np.einsum("tk,k,knm->tnm", phases, amps[1:], rights[1:], optimize=True)
    return _package_states(times, lambda s, out: _check_pairing(tau_e + deltas[s], out), basis)


def evolve_direct(generator: DaviesGenerator, rho_i, times) -> EvolutionGrid:
    """Propagate by the matrix exponential of the generator's dense form.

    Stepwise scaling-and-squaring (scipy.linalg.expm) between grid points;
    the independent oracle for :func:`evolve_spectral`.  Raises
    :class:`ValidationError` unless ``generator`` is a
    :class:`DaviesGenerator` with a dense form; ``rho_i`` enters through
    :func:`mpemba.operators.as_state` at the generator's dimension and
    ``times`` through :func:`as_times`.
    """
    if not (isinstance(generator, DaviesGenerator) and generator.has_dense):
        raise ValidationError(
            "direct evolution needs a DaviesGenerator with a dense form, such as "
            "DaviesGenerator(basis=..., dense=matrix)"
        )
    rho_i = as_state(rho_i, generator.dim)
    times = as_times(times)
    basis = generator.basis
    d = basis.dim
    rho_e = basis.to_eigenbasis(rho_i.entries)
    states = _propagate(generator.dense, rho_e.reshape(-1), times)

    def direct_chunk(s, out):
        # chunks are asked for in time order, so the stepping carries over
        steps = np.array([next(states).reshape(d, d) for _ in range(s.stop - s.start)])
        return _check_pairing(steps, out)

    return _package_states(times, direct_chunk, basis)


def _propagate(generator: np.ndarray, vec: np.ndarray, times: np.ndarray):
    """Yield exp(generator t) vec at each of the ascending ``times``.

    Steps from one grid point to the next, reusing the propagator
    (scipy.linalg.expm) of each distinct step length rounded to 15 decimals.
    The times are iterated as Python floats, so each step's subtraction and
    dictionary lookups cost what a float's do, not a numpy scalar's; at
    small d those cost more than the step itself.  Each exact step length
    is rounded once, by numpy's ``round(np.float64(dt), 15)``, which scales,
    rounds to an integer and scales back.  Python's correctly rounded
    ``round`` of a float would group a few percent of step lengths
    differently, and so pick different propagators.  scipy is imported here, at
    the first evolution that steps (block ``evolve_spectral``,
    ``evolve_direct``), and nowhere else in the package: loading it about
    doubles a process's start-up time and memory, which a decomposition, a
    transform or an annealer need not pay.
    """
    import scipy.linalg  # expm is looked up per call, so a patched one is seen

    propagators: dict[float, np.ndarray] = {}  # by rounded step length
    steps: dict[float, np.ndarray] = {}  # the same propagators, by exact step length
    prev_t = 0.0
    for t in times.tolist():
        dt = t - prev_t
        if dt != 0.0:
            step = steps.get(dt)
            if step is None:
                key = float(round(np.float64(dt), 15))
                step = propagators.get(key)
                if step is None:
                    step = propagators[key] = scipy.linalg.expm(generator * dt)
                steps[dt] = step
            vec = step @ vec
        prev_t = t
        yield vec


def _check_pairing(m: np.ndarray, out: np.ndarray):
    """Check the conjugate mode pairing of the (n, d, d) stack ``m`` and store its Hermitian
    part in ``out``.  Returns each matrix's Hermiticity defect, and whether it exceeds
    1e-9 of the matrix's largest entry: the pairing is broken."""
    defect = herm_defect(m)
    broken = defect > 1e-9 * np.maximum(1.0, np.abs(m).max(axis=(1, 2)))
    hermitize(m, out=out)
    return defect, broken


def _package_states(times: np.ndarray, chunk, basis: SpectralBasis) -> EvolutionGrid:
    """Validate evolved states and store them as a stack, ``chunk_points(d)`` at a time.

    ``chunk(s, out)`` writes the Hermitian energy-basis matrices of the time
    points in slice ``s`` into ``out``, their (n, d, d) place in the grid's
    zeroed stack; the slices come in time order.  A route whose conjugate mode
    pairing can break (the dense mode sum, ``evolve_direct``) returns the
    :func:`_check_pairing` of its raw matrices, and a matrix that breaks it
    raises a RuntimeError.  The block route of a state with coherences returns
    None: each coherence is k_n rho_nm conj(k_m) with |k_n| <= 1, so its defect
    stays within the d * 1e-12 the rotation leaves of an input ``as_state``
    accepted, far below 1e-9, and its coherences stay finite.  Every stored
    matrix must pass the checks of :class:`DensityMatrix` with the positivity
    slack :data:`EVOLUTION_PSD_TOL` (:func:`_check_states`): no rotation is
    made.  The grid keeps that matrix and its eigenvalues as ``spectra``
    (``np.linalg.eigvalsh``, one LAPACK solve per matrix).  A state diagonal in
    the energy basis is kept as its populations instead (:func:`_population_grid`).
    """
    d = basis.dim
    eigen_entries = np.zeros((times.size, d, d), dtype=complex)
    spectra = np.empty((times.size, d))
    for s in chunk_slices(times.size, chunk_points(d)):
        stored = eigen_entries[s]
        pairing = chunk(s, stored)
        spectra[s] = np.linalg.eigvalsh(stored)
        trace = np.real(np.diagonal(stored, axis1=1, axis2=2)).sum(axis=1)
        _check_states(trace, spectra[s].min(axis=1), pairing)
    for value in (eigen_entries, spectra):
        value.setflags(write=False)
    return EvolutionGrid(times, basis, eigen_entries, spectra)


def _population_grid(times: np.ndarray, pops: np.ndarray, basis: SpectralBasis) -> EvolutionGrid:
    """Validate and store states diagonal in the energy basis as their (T, d) ``pops``.

    No stack is built.  ``spectra`` are the sorted populations, the bits
    ``np.linalg.eigvalsh`` gives the diagonal matrix: LAPACK rescales a matrix
    only when its largest entry lies outside [2^-485, 2^485], and a row of
    trace 1 has one of at least 1/d.  The trace, positivity and non-finite
    checks read the vectors, with the messages and the first-failing-point
    order of :func:`_package_states`.
    """
    spectra = np.sort(pops, axis=1)
    _check_states(pops.sum(axis=1), spectra.min(axis=1))
    return EvolutionGrid(times, basis, pops, spectra)


def _check_states(trace: np.ndarray, min_eig: np.ndarray, pairing=None) -> None:
    """Raise for the first time point whose stored state fails a check, as a loop over the points would.

    ``pairing`` is :func:`_check_pairing`'s result for the raw matrices, or None
    where the pairing cannot break; then the stored state is exactly Hermitian and
    only a population can be non-finite: its defect is 0, or NaN.  A stored
    ``hermitize(m)`` is exactly Hermitian where finite: its defect is 0 * defect.
    """
    if pairing is None:
        broken = np.zeros(trace.shape, dtype=bool)
        stored_defect = np.where(np.isfinite(trace), 0.0, np.nan)
    else:
        defect, broken = pairing
        stored_defect = 0.0 * defect
    # written so that a NaN fails them
    failed = broken | ~(
        (stored_defect <= HERMITICITY_TOL)
        & (np.abs(trace - 1.0) <= TRACE_TOL)
        & (min_eig >= -EVOLUTION_PSD_TOL)
    )
    if failed.any():
        j = int(np.argmax(failed))
        if broken[j]:
            raise RuntimeError(
                f"evolved state lost Hermiticity (defect {defect[j]:.2e}); "
                "conjugate mode pairing is broken"
            )
        require_state(stored_defect[j], complex(trace[j]), min_eig[j], EVOLUTION_PSD_TOL)
