"""Davies generators: jump amplitudes, dense superoperator, block form.

A Davies generator thermalizes a system toward the Gibbs state of its
Hamiltonian.  For a non-degenerate Hamiltonian it splits into a classical
rate matrix acting on the energy-level populations plus an uncoupled,
diagonal action on each coherence: |n><m| decays with eigenvalue
c_n + conj(c_m), read from one d-vector c
(:attr:`DaviesGenerator.coherence_rates`).  Both forms are built here, and
either can be cross-checked against the other.

Rate convention (documented because literature varies): jump amplitudes are
``alpha = gamma * sqrt(w)``, so transition *rates* scale as ``gamma**2 * w``.
For a positive Bohr frequency ``x``:

    Bose:  w_down = 1 + n_B(x),  w_up = n_B(x),   n_B(x) = 1/(e^{beta x} - 1)
    Fermi: w_down = 1 - f(x),    w_up = f(x),     f(x)   = 1/(e^{beta x} + 1)

In both cases ``w_up / w_down = e^{-beta x}`` exactly (thermal detailed
balance), which is what makes the Gibbs state the fixed point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrumError, ValidationError
from .operators import SpectralBasis, as_populations
from .utils import frozen


@dataclass(frozen=True)
class BathSpec:
    """Thermal bath: inverse temperature, particle statistics, coupling."""

    beta: float
    statistics: str  # "bose" or "fermi"
    gamma: float

    def __post_init__(self):
        if not self.beta >= 0:  # a NaN fails; beta = inf is a zero-temperature bath
            raise ValidationError("bath beta must be >= 0")
        if self.statistics not in ("bose", "fermi"):
            raise ValidationError(f"unknown statistics {self.statistics!r}")
        if not 0 < self.gamma < math.inf:
            raise ValidationError("bath coupling gamma must be > 0 and finite")


def occupation_factors(x, bath: BathSpec):
    """(w_down, w_up) for positive Bohr frequencies ``x``; a Bose bath needs beta * x > 0.

    ``x`` is a float, which gives two floats, or an array, which gives two
    arrays of its shape, each entry the same bits as for that float alone.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise DegenerateSpectrumError("zero Bohr frequency: levels are degenerate")
    bx = np.atleast_1d(bath.beta * x)
    bose = bath.statistics == "bose"
    if bose and not np.all(bx > 0):
        raise ValidationError("Bose occupation diverges at beta * x = 0 (infinite temperature)")
    # past 700 the occupation underflows; exp(-x) is the limit
    near = ~(bx > 700)
    n = np.exp(-bx)
    n[near] = 1.0 / (np.expm1(bx[near]) if bose else np.exp(bx[near]) + 1.0)
    w_down = 1.0 + n if bose else 1.0 - n
    return (w_down, n) if x.ndim else (float(w_down[0]), float(n[0]))


class JumpMatrix:
    """All jump amplitudes of a Davies map, collected in one d x d matrix.

    ``amplitudes[i, k]`` is the amplitude of the transition from level k to
    level i (column = source).  Entries are nonnegative with a zero diagonal.
    """

    def __init__(self, amplitudes):
        amplitudes = np.asarray(amplitudes, dtype=float)
        if amplitudes.ndim != 2 or amplitudes.shape[0] != amplitudes.shape[1]:
            raise ValidationError("jump matrix must be square")
        if not np.isfinite(amplitudes).all():
            raise ValidationError("jump amplitudes must be finite")
        if np.any(np.diag(amplitudes) != 0.0):
            raise ValidationError("jump matrix diagonal must be exactly zero")
        if np.any(amplitudes < 0):
            raise ValidationError("jump amplitudes must be nonnegative")
        self.amplitudes = frozen(amplitudes)
        self.dim = amplitudes.shape[0]

    def rates(self) -> np.ndarray:
        """Elementwise squared amplitudes (classical transition rates)."""
        return self.amplitudes**2

    def operators(self) -> list[np.ndarray]:
        """Jump operators alpha_{ik} |i><k| as dense matrices (energy basis)."""
        d = self.dim
        ops = []
        for i in range(d):
            for k in range(d):
                if i != k and self.amplitudes[i, k] != 0.0:
                    op = np.zeros((d, d), dtype=complex)
                    op[i, k] = self.amplitudes[i, k]
                    ops.append(op)
        return ops


def build_jump_matrix(basis: SpectralBasis, bath: BathSpec) -> JumpMatrix:
    """Davies jump amplitudes for every ordered pair of energy levels.

    For each pair with h_n > h_m the downward amplitude gamma*sqrt(w_down)
    sits at [m, n] and the upward amplitude gamma*sqrt(w_up) at [n, m].
    Degenerate bases are refused: a zero Bohr frequency has no well-defined
    thermal weight here, and the block construction assumes none occurs.
    """
    if basis.degeneracy_flag:
        raise DegenerateSpectrumError(
            "Hamiltonian is (near-)degenerate; the jump-matrix/block construction "
            "is undefined. Build the dense generator from explicit jump operators."
        )
    m, n = np.triu_indices(basis.dim, k=1)
    w_down, w_up = occupation_factors(basis.energies[n] - basis.energies[m], bath)
    J = np.zeros((basis.dim, basis.dim))
    J[m, n] = bath.gamma * np.sqrt(w_down)
    J[n, m] = bath.gamma * np.sqrt(w_up)
    return JumpMatrix(J)


def vectorized_lindbladian(hamiltonian: np.ndarray, jump_ops) -> np.ndarray:
    """Dense superoperator of a Lindblad generator, row-major vectorization.

    G = -i H (x) 1 + i 1 (x) H^T
        + sum_l [ L_l (x) conj(L_l) - (1/2) L_l^dag L_l (x) 1
                  - (1/2) 1 (x) (L_l^dag L_l)^T ]

    Works for any Hamiltonian (degenerate or not) and any jump operators.
    The L (x) conj(L) sum is evaluated with a single einsum contraction, so
    assembly stays usable up to the d = 32 ceiling.
    """
    H = np.asarray(hamiltonian, dtype=complex)
    d = H.shape[0]
    eye = np.eye(d, dtype=complex)
    G = -1j * np.kron(H, eye) + 1j * np.kron(eye, H.T)
    if jump_ops:
        ops = np.asarray(jump_ops, dtype=complex).reshape(-1, d, d)
        sandwich = np.einsum("lac,lbe->abce", ops, ops.conj(), optimize=True)
        G += sandwich.reshape(d * d, d * d)
        big_k = np.einsum("lca,lcb->ab", ops.conj(), ops)
        G -= 0.5 * np.kron(big_k, eye) + 0.5 * np.kron(eye, big_k.T)
    return G


def build_dense_generator(basis: SpectralBasis, jumps: JumpMatrix) -> np.ndarray:
    """Dense vectorized generator in the energy eigenbasis (H diagonal)."""
    if basis.dim != jumps.dim:
        raise ValidationError("basis and jump matrix dimensions differ")
    H = np.diag(basis.energies).astype(complex)
    return vectorized_lindbladian(H, jumps.operators())


def build_population_block(jumps: JumpMatrix) -> np.ndarray:
    """Classical rate matrix on the populations: G_p = J_2 + J_s.

    J_2 is the elementwise square of the jump matrix and J_s the diagonal of
    negated column sums, so every column of G_p sums to zero (probability
    conservation).
    """
    j2 = jumps.rates()
    return j2 - np.diag(j2.sum(axis=0))


def coherence_indices(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Level pairs (n, m), n != m, of the d(d-1) coherences in row-major order.

    The order in which the block form lists its coherence modes.
    """
    return np.nonzero(~np.eye(d, dtype=bool))


@dataclass(frozen=True)
class DaviesGenerator:
    """A thermalizing generator in (up to) two representations.

    ``pop_block``, the classical rate matrix on the populations, is the fast
    block representation, available only for non-degenerate Hamiltonians;
    with ``basis`` and ``bath`` it sets the whole block form, coherences
    included (:attr:`coherence_rates`).  ``dense`` is the full d^2 x d^2
    superoperator.  Both live in the energy eigenbasis recorded in
    ``basis``.  ``sector_labels`` optionally marks a conserved charge per
    level (e.g. fermion parity) of a dense form; eigenmodes connecting
    different sectors are then superselected away by the spectral
    decomposition.  ``bath`` is the recipe a block form was built from and
    obeys detailed balance with.  Every structural check runs here and
    raises :class:`ValidationError`.
    """

    basis: SpectralBasis
    pop_block: np.ndarray | None = None
    dense: np.ndarray | None = None
    sector_labels: tuple | None = None
    bath: BathSpec | None = None

    def __post_init__(self):
        if self.pop_block is None and self.dense is None:
            raise ValidationError("generator needs a block or a dense representation")
        if self.pop_block is not None:
            object.__setattr__(self, "pop_block", frozen(self.pop_block))
            if self.basis.degeneracy_flag:
                raise DegenerateSpectrumError("block representation is undefined on a degenerate basis")
            square = (self.dim, self.dim)
            if self.pop_block.shape != square:
                raise ValidationError(f"population block has shape {self.pop_block.shape}, not {square}")
            if not np.isfinite(self.pop_block).all():
                raise ValidationError("population block has non-finite entries")
            # rates off the diagonal, escape rates negated on it: all >= 0
            if np.any(np.where(np.eye(self.dim, dtype=bool), -self.pop_block, self.pop_block) < 0):
                raise ValidationError("population block has a negative rate")
            col_defect = float(np.abs(self.pop_block.sum(axis=0)).max())
            if col_defect > 1e-12 * max(1.0, float(np.abs(self.pop_block).max())):
                raise ValidationError(f"population block columns sum to {col_defect:.2e}, not 0")
            if self.bath is None:
                raise ValidationError("block representation requires the bath it was built from")
            if not _obeys_detailed_balance(self.pop_block, self.basis.energies, self.bath.beta):
                raise ValidationError("population block violates detailed balance with its bath")
        if self.dense is not None:
            d2 = self.dim * self.dim
            if np.shape(self.dense) != (d2, d2):
                raise ValidationError(f"dense generator has shape {np.shape(self.dense)}, not {(d2, d2)}")
            if not np.isfinite(self.dense).all():
                raise ValidationError("dense generator has non-finite entries")
            object.__setattr__(self, "dense", frozen(self.dense))
        if self.sector_labels is not None:
            labels = tuple(self.sector_labels)
            if self.dense is None or self.pop_block is not None or len(labels) != self.dim:
                raise ValidationError("sector labels need a dense form, no block form, one label per level")
            object.__setattr__(self, "sector_labels", labels)
            same = np.equal.outer(labels, labels).reshape(-1)
            coupling = np.abs(self.dense[np.ix_(same, ~same)]).max(initial=0.0)
            if coupling > 1e-12 * max(1.0, np.abs(self.dense).max()):
                raise ValidationError("sector labels do not define a conserved grading of the generator")

    @property
    def dim(self) -> int:
        return self.basis.dim

    @property
    def coherence_rates(self) -> np.ndarray | None:
        """Read-only d-vector c, c_n = pop_block[n, n] / 2 - i h_n; ``None`` without a block form.

        The coherence |n><m|, n != m, is an eigenmatrix of the block form with
        eigenvalue c_n + conj(c_m) = -(escape_n + escape_m)/2 - i(h_n - h_m): every
        reader of the coherence sector forms it from this one vector.  The test
        suite checks the positions against :func:`build_dense_generator`.
        """
        if self.pop_block is None:
            return None
        c = 0.5 * np.diag(self.pop_block) - 1j * self.basis.energies
        c.setflags(write=False)
        return c

    @property
    def has_block(self) -> bool:
        return self.pop_block is not None

    @property
    def has_dense(self) -> bool:
        return self.dense is not None


def _obeys_detailed_balance(gp: np.ndarray, energies: np.ndarray, beta: float) -> bool:
    """Upward/downward rate ratios equal the Boltzmann factors (to roundoff)."""
    m, n = np.triu_indices(gp.shape[0], k=1)
    upward = gp[n, m]
    expected = gp[m, n] * np.exp(-beta * (energies[n] - energies[m]))
    # relative to the pair's own scale: an absolute floor would pass any
    # wrong rate below it
    scale = np.maximum(np.abs(upward), np.abs(expected))
    return not np.any(np.abs(upward - expected) > 1e-10 * scale)


def davies_generator(
    basis: SpectralBasis, bath: BathSpec, *, dense: bool = False
) -> DaviesGenerator:
    """Assemble the Davies generator for a Hamiltonian eigenbasis and a bath.

    Block form always (requires non-degenerate basis); dense form on request.
    """
    jumps = build_jump_matrix(basis, bath)
    return DaviesGenerator(
        basis=basis,
        pop_block=build_population_block(jumps),
        dense=build_dense_generator(basis, jumps) if dense else None,
        bath=bath,
    )


def generator_from_operators(
    basis: SpectralBasis, lab_ops, *, sector_labels=None
) -> DaviesGenerator:
    """Dense generator from explicit lab-basis jump operators.

    Used by models whose dissipators are given directly (and whose
    Hamiltonians may be degenerate).  Operators are rotated into the energy
    eigenbasis before vectorization.
    """
    ops_eig = [basis.to_eigenbasis(np.asarray(op, dtype=complex)) for op in lab_ops]
    dense = vectorized_lindbladian(np.diag(basis.energies).astype(complex), ops_eig)
    return DaviesGenerator(basis=basis, dense=dense, sector_labels=sector_labels)


def verify_block_dense_spectrum(gen: DaviesGenerator) -> float:
    """Greedy multiset distance between block and dense eigenvalues.

    Returns the largest matching discrepancy; raises if either form is
    missing.  The caller judges the discrepancy against its tolerance.
    """
    if not (gen.has_block and gen.has_dense):
        raise ValidationError("need both block and dense representations to compare")
    pop = np.linalg.eigvals(gen.pop_block).astype(complex)
    c = gen.coherence_rates
    n, m = coherence_indices(gen.dim)
    block = np.concatenate([pop, c[n] + c[m].conj()])
    dense = np.linalg.eigvals(gen.dense)
    return eigenvalue_multiset_distance(block, dense)


def eigenvalue_multiset_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Largest pairing distance between two eigenvalue multisets."""
    a = np.sort_complex(np.asarray(a, dtype=complex))
    b = np.sort_complex(np.asarray(b, dtype=complex))
    if a.size != b.size:
        raise ValidationError("eigenvalue multisets have different sizes")
    remaining = list(b)
    worst = 0.0
    for x in a:
        dists = [abs(x - y) for y in remaining]
        j = int(np.argmin(dists))
        worst = max(worst, dists[j])
        remaining.pop(j)
    return worst


def verify_detailed_balance(g_dense: np.ndarray, energies, tau_populations) -> float:
    """Max KMS detailed-balance violation of the dissipative part.

    The unitary part -i[H, .] is subtracted using ``energies`` (the generator
    is expected in the energy eigenbasis), leaving the dissipator D.  Quantum
    detailed balance requires <A, D^dag B>_tau = <D^dag A, B>_tau for all
    operators, with <A, B>_tau = Tr(tau A^dag B).  Under the row-major
    vectorization <A, B>_tau = vec(A)^dag Omega vec(B) with the Gram matrix
    Omega = 1 (x) diag(tau), so the condition says Omega D^dag is Hermitian;
    the violation is max |Omega D^dag - (Omega D^dag)^dag|, the largest
    defect over all pairs of elemental matrices.
    """
    g_dense = np.asarray(g_dense, dtype=complex)
    energies = np.asarray(energies, dtype=float)
    d = energies.size
    if energies.ndim != 1 or g_dense.shape != (d * d, d * d):
        raise ValidationError(f"generator of shape {g_dense.shape} does not act on {d} levels")
    tau = as_populations(tau_populations, d)

    diss_adj = (g_dense - vectorized_lindbladian(np.diag(energies), [])).conj().T
    weighted = np.tile(tau, d)[:, None] * diss_adj  # Omega D^dag
    return float(np.abs(weighted - weighted.conj().T).max())
