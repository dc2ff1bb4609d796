"""Operator algebra: Hamiltonians, eigenbases, density matrices, Bloch vectors.

Units: hbar = k_B = 1 throughout, energies in units of the model's
characteristic scale (J for the spin models).  All objects are immutable
after construction and can be shared freely between threads.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .utils import SIGMA_X, SIGMA_Y, SIGMA_Z, frozen, herm_defect, log_gibbs_weights

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
UNITARITY_TOL = 1e-10
#: Relative scale for deciding that two adjacent levels are degenerate.
DEGENERACY_RTOL = 1e-9


class HermitianOperator:
    """A d x d Hermitian matrix (e.g. a Hamiltonian)."""

    def __init__(self, entries):
        entries = np.asarray(entries, dtype=complex)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValidationError(f"expected a square matrix, got shape {entries.shape}")
        if not np.isfinite(entries).all():
            raise ValidationError("operator has non-finite entries")
        defect = herm_defect(entries)
        if defect > HERMITICITY_TOL * max(1.0, float(np.abs(entries).max())):
            raise ValidationError(f"matrix is not Hermitian (defect {defect:.2e})")
        self.entries = frozen(entries)
        self.dim = entries.shape[0]

    def __repr__(self):
        return f"HermitianOperator(dim={self.dim})"


class SpectralBasis:
    """Eigendecomposition of a Hamiltonian, energies sorted ascending.

    ``vectors`` holds the eigencolumns, so ``vectors[:, n]`` is the lab-basis
    representation of the n-th energy eigenstate.  ``degeneracy_flag`` is set
    when two consecutive levels are closer than ``1e-9 * max(1, ||H||)``;
    degenerate bases are rejected by the block-form generator constructors.
    """

    def __init__(self, energies, vectors):
        energies = np.asarray(energies, dtype=float)
        vectors = np.asarray(vectors, dtype=complex)
        d = energies.size
        if vectors.shape != (d, d):
            raise ValidationError("energies and vectors have inconsistent shapes")
        if not (np.isfinite(energies).all() and np.isfinite(vectors).all()):
            raise ValidationError("energies and vectors must be finite")
        if np.any(np.diff(energies) < 0):
            raise ValidationError("energies must be sorted ascending")
        if np.abs(vectors.conj().T @ vectors - np.eye(d)).max() > UNITARITY_TOL:
            raise ValidationError("eigenvector matrix is not unitary")
        self.energies = frozen(energies)
        self.vectors = frozen(vectors)
        # V^dag, built once; a transposed view keeps the layout the BLAS calls
        # of the rotations see (a contiguous copy may round differently)
        conj = self.vectors.conj()
        conj.setflags(write=False)
        self._vectors_h = conj.T
        tol = DEGENERACY_RTOL * max(1.0, float(np.abs(energies).max()))
        self.degeneracy_flag = bool(d > 1 and np.min(np.diff(energies)) < tol)
        self.dim = d

    def hamiltonian(self) -> np.ndarray:
        """Reconstruct H = V diag(e) V^dag in the lab basis."""
        return (self.vectors * self.energies) @ self._vectors_h

    def to_eigenbasis(self, matrix: np.ndarray) -> np.ndarray:
        """Rotate a lab-basis operator, or a stack of them, into the energy eigenbasis."""
        return self._vectors_h @ matrix @ self.vectors

    def from_eigenbasis(self, matrix: np.ndarray) -> np.ndarray:
        """Rotate an energy-eigenbasis operator, or a stack of them, back to the lab basis."""
        return self.vectors @ matrix @ self._vectors_h

    def __repr__(self):
        return (
            f"SpectralBasis(dim={self.dim}, degenerate={self.degeneracy_flag}, "
            f"energies=[{self.energies[0]:.4g}..{self.energies[-1]:.4g}])"
        )


class DensityMatrix:
    """A Hermitian, unit-trace, positive-semidefinite matrix.

    ``eigenvalues`` is the ascending, read-only ``eigvalsh(entries)`` that
    the positivity check solves.
    ``psd_tol`` loosens only the positivity check; evolution code uses a
    relaxed 1e-8 to absorb propagation roundoff.
    """

    def __init__(self, entries, psd_tol=PSD_TOL):
        entries = np.asarray(entries, dtype=complex)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValidationError(f"expected a square matrix, got shape {entries.shape}")
        if not np.isfinite(entries).all():
            raise ValidationError("state has non-finite (NaN or inf) entries")
        self.entries = frozen(entries)
        self.eigenvalues = frozen(np.linalg.eigvalsh(self.entries))
        require_state(
            herm_defect(entries),
            complex(np.trace(entries)),
            float(self.eigenvalues[0]),
            psd_tol,
        )
        self.dim = entries.shape[0]

    def populations(self, basis: SpectralBasis) -> np.ndarray:
        """Diagonal of the state in the given energy eigenbasis."""
        return np.real(np.diag(basis.to_eigenbasis(self.entries))).copy()

    def purity(self) -> float:
        return float(np.real(np.trace(self.entries @ self.entries)))

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim}, purity={self.purity():.4f})"


def require_state(defect: float, trace: complex, min_eig: float, psd_tol: float = PSD_TOL) -> None:
    """Raise the :class:`ValidationError` of the first failed state check.

    The checks of :class:`DensityMatrix` on measured values, in its order:
    Hermiticity defect, trace, smallest eigenvalue.  A NaN fails each check.
    """
    if not defect <= HERMITICITY_TOL:
        raise ValidationError(f"state is not Hermitian (defect {defect:.2e})")
    if not abs(trace - 1.0) <= TRACE_TOL:
        raise ValidationError(f"state trace is {trace:.12g}, expected 1")
    if not min_eig >= -psd_tol:
        raise ValidationError(f"state has negative eigenvalue {min_eig:.2e}")


def as_state(rho, dim: int | None = None) -> DensityMatrix:
    """The entry rule for a state: a :class:`DensityMatrix` as is, else judged as one; of ``dim`` if given."""
    if not isinstance(rho, DensityMatrix):
        rho = DensityMatrix(rho)
    if dim is not None and rho.dim != dim:
        raise ValidationError(f"state and system dimensions differ ({rho.dim} vs {dim})")
    return rho


def as_populations(populations, dim: int) -> np.ndarray:
    """Length ``dim``, sum 1 within 1e-10, no entry below -1e-12, else :class:`ValidationError`."""
    p = np.asarray(populations, dtype=float)
    if p.shape != (dim,):
        raise ValidationError("population vector does not match the spectrum dimension")
    if not (abs(p.sum() - 1.0) <= 1e-10 and np.all(p >= -1e-12)):  # a NaN fails
        raise ValidationError("populations must form a probability vector")
    return p


class BlochVector:
    """A real three-vector with |r| <= 1, describing a qubit state."""

    def __init__(self, r):
        r = np.asarray(r, dtype=float)
        if r.shape != (3,):
            raise ValidationError("Bloch vector must have exactly 3 components")
        if np.linalg.norm(r) > 1.0 + 1e-12:
            raise ValidationError(f"Bloch vector norm {np.linalg.norm(r):.6f} exceeds 1")
        self.r = frozen(r)

    def __repr__(self):
        return f"BlochVector({self.r[0]:.4f}, {self.r[1]:.4f}, {self.r[2]:.4f})"


def diagonalize(hamiltonian) -> SpectralBasis:
    """Diagonalize a Hermitian operator into a :class:`SpectralBasis`.

    Phases are fixed so the largest-magnitude component of each eigenvector
    is real and positive, making the basis reproducible across runs.
    """
    if not isinstance(hamiltonian, HermitianOperator):
        hamiltonian = HermitianOperator(hamiltonian)
    energies, vectors = np.linalg.eigh(hamiltonian.entries)
    for k in range(vectors.shape[1]):
        col = vectors[:, k]
        pivot = col[np.argmax(np.abs(col))]
        vectors[:, k] = col * (pivot.conjugate() / abs(pivot))
    return SpectralBasis(energies, vectors)


def thermal_state(basis: SpectralBasis, beta: float) -> DensityMatrix:
    """Gibbs state exp(-beta H)/Z in the lab basis.

    ``beta = math.inf`` is the zero-temperature flag and yields the ground
    state projector (an error if the ground level is degenerate, since the
    limit is then ambiguous).  Negative beta is rejected: population-inverted
    Gibbs inputs are out of scope.
    """
    p = thermal_populations(basis, beta)
    if math.isinf(beta) and basis.dim > 1:
        gap = basis.energies[1] - basis.energies[0]
        tol = DEGENERACY_RTOL * max(1.0, float(np.abs(basis.energies).max()))
        if gap < tol:
            raise ValidationError("zero-temperature state undefined: degenerate ground level")
    return DensityMatrix(basis.from_eigenbasis(np.diag(p).astype(complex)))


def thermal_populations(basis: SpectralBasis, beta: float) -> np.ndarray:
    """Gibbs populations over the energy levels (overflow-safe)."""
    if not beta >= 0:  # a NaN fails
        raise ValidationError(f"beta must be >= 0 (inverted Gibbs input is not supported), not {beta}")
    return np.exp(log_gibbs_weights(basis.energies, beta))


def random_pure_state(dim: int, seed) -> DensityMatrix:
    """Rank-1 projector onto a Haar-random vector (deterministic in seed)."""
    if dim < 2:
        raise ValidationError("dim must be at least 2")
    rng = np.random.default_rng(seed)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v /= np.linalg.norm(v)
    return DensityMatrix(np.outer(v, v.conj()))


def random_mixed_state(dim: int, n_samples: int, seed) -> DensityMatrix:
    """Uniform average of ``n_samples`` Haar-random pure states."""
    if dim < 2:
        raise ValidationError("dim must be at least 2")
    if n_samples < 1:
        raise ValidationError("n_samples must be at least 1")
    rng = np.random.default_rng(seed)
    # one row per sample keeps the averaging a single rank-n_samples product
    v = rng.normal(size=(n_samples, dim)) + 1j * rng.normal(size=(n_samples, dim))
    v /= np.linalg.norm(v, axis=1)[:, None]
    return DensityMatrix(v.conj().T @ v / n_samples)


def bloch_to_state(r) -> DensityMatrix:
    """rho = (1 + r . sigma)/2."""
    if not isinstance(r, BlochVector):
        r = BlochVector(r)
    rho = 0.5 * (np.eye(2, dtype=complex) + r.r[0] * SIGMA_X + r.r[1] * SIGMA_Y + r.r[2] * SIGMA_Z)
    return DensityMatrix(rho)


def state_to_bloch(rho) -> BlochVector:
    """Inverse of :func:`bloch_to_state`; requires a qubit state (:func:`as_state`)."""
    m = as_state(rho, 2).entries
    return BlochVector(
        [
            float(np.real(np.trace(m @ SIGMA_X))),
            float(np.real(np.trace(m @ SIGMA_Y))),
            float(np.real(np.trace(m @ SIGMA_Z))),
        ]
    )


def dephase(rho, basis: SpectralBasis) -> DensityMatrix:
    """Remove all coherences of :func:`as_state` ``rho`` in the energy eigenbasis, keeping populations."""
    rho = as_state(rho, basis.dim)
    diag = np.diag(np.diag(basis.to_eigenbasis(rho.entries)))
    return DensityMatrix(basis.from_eigenbasis(diag))
