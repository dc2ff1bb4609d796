"""Stochastic search for overlap-eliminating transformations.

Two annealers operate on a decomposed generator spectrum:

* ``unitary_metropolis`` walks over products of single-qubit unitaries
  U_j = exp(i alpha) R_z(beta) R_x(gamma) R_z(delta), one parameter per
  proposal, minimizing the summed overlap magnitude sum_k |Tr(l_k rho)| with
  a set of target modes.  The cost and the fit anchors below read the
  target amplitudes through ``GeneratorSpectrum.amplitudes``, the spectrum's
  one amplitude routine.  A fermionic variant appends sigma^z strings,
  U^f = prod_j U_j (sigma_j^z)^{mod(L-j, 2)}, respecting anticommutation.
  A proposal normally re-draws its parameter uniformly (old + U(0, 2pi)).
  With the default summed-overlap cost the walk uses the Rotosolve/NFT
  structure (Ostaszewski et al., Quantum 5, 391 (2021); Nakanishi et al.,
  PRR 2, 043158 (2020)): every target amplitude is
  A + B e^{i theta} + C e^{-i theta} in the one angle a nano loop varies, so
  three anchor evaluations at the start of the loop fit it exactly, and
  every proposal of the loop costs O(K) scalar arithmetic for K targets
  instead of a rebuild of the 2^L x 2^L unitary.  The first proposal of a
  loop on beta, gamma or delta is an exact single-coordinate move: it sets
  theta to the minimizer of the fitted summed magnitudes, drawing no random
  number.  It counts as one proposal, writes one trace row and passes the
  usual acceptance rule.  alpha, a global phase that moves no cost, keeps
  its re-draw.  A search with a user ``cost_fn`` (opaque to the annealer)
  uses re-draws only and rebuilds the unitary for every proposal.
* ``swap_metropolis`` specializes to states diagonal in the energy basis:
  proposals permute four randomly chosen populations, which preserves both
  the population multiset and diagonality exactly.

Both walk by one Metropolis rule: a better proposal is always accepted and
a worse one with probability exp(-(C' - C)/T_eff); the effective
temperature cools by the factor ``tau`` on every acceptance.  The
nano/micro/macro loop budgets follow the re-varied-parameter reading: nano
re-varies the same parameter, micro re-selects a parameter of the same
qubit, macro re-selects the qubit (L * M macro rounds in total).  The best
state seen is returned, since the threshold crossing is what defines
convergence.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .errors import ValidationError
from .operators import DensityMatrix
from .spectral import GeneratorSpectrum
from .utils import SIGMA_Z, kron_chain, write_csv

_PERMS4 = tuple(p for p in permutations(range(4)) if p != (0, 1, 2, 3))
_PERMS2 = ((1, 0),)


@dataclass(frozen=True)
class MetropolisConfig:
    """Annealing schedule and loop budgets."""

    cooling_tau: float
    threshold_eps: float
    nano_n: int = 200
    micro_m: int = 20
    macro_big_m: int = 20
    target_modes: tuple = (2,)
    seed: int = 0
    max_total_iterations: int = 1_000_000

    def __post_init__(self):
        if not 0.0 < self.cooling_tau < 1.0:
            raise ValidationError("cooling_tau must lie in (0, 1)")
        if self.threshold_eps <= 0:
            raise ValidationError("threshold_eps must be positive")
        for name in ("nano_n", "micro_m", "macro_big_m", "max_total_iterations"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be a positive integer")
        object.__setattr__(self, "target_modes", tuple(int(k) for k in self.target_modes))
        for k in self.target_modes:
            if k < 2:
                raise ValidationError("target modes are 1-based decaying modes (k >= 2)")


@dataclass(frozen=True)
class UnitaryAnsatz:
    """Per-qubit Euler parameters (alpha, beta, gamma, delta), wrapped mod 2pi."""

    params: np.ndarray  # shape (L, 4)
    fermionic: bool = False

    def __post_init__(self):
        params = np.mod(np.asarray(self.params, dtype=float), 2.0 * np.pi)
        if params.ndim != 2 or params.shape[1] != 4:
            raise ValidationError("ansatz parameters must have shape (L, 4)")
        object.__setattr__(self, "params", params)

    @property
    def n_qubits(self) -> int:
        return self.params.shape[0]


@dataclass(frozen=True)
class OptimizationTrace:
    """Per-proposal record of the annealing walk."""

    iteration: np.ndarray
    cost: np.ndarray
    t_eff: np.ndarray
    accepted: np.ndarray
    converged: bool
    best_cost: float

    def __len__(self):
        return self.iteration.size

    def to_csv(self, path) -> None:
        write_csv(
            path, "iteration,cost,T_eff,accepted",
            (self.iteration, self.cost, self.t_eff, self.accepted), "%d,%.17g,%.17g,%d\n",
        )


class _Walk:
    """The Metropolis rule both annealers share, with its bookkeeping.

    Starts from a state of cost ``cost`` at T_eff = 1.  Each :meth:`step`
    judges one priced proposal, cools T_eff by ``cooling_tau`` on
    acceptance, keeps a copy of the best state seen and records one trace
    row.  ``done`` turns true once the best cost falls below
    ``threshold_eps`` or ``max_total_iterations`` proposals have been made.
    """

    def __init__(self, cost: float, state: np.ndarray, config: MetropolisConfig):
        self.cost = self.best_cost = cost
        self.t_eff = 1.0
        self.best = state.copy()
        self.converged = self.done = cost < config.threshold_eps
        self._tau = config.cooling_tau
        self._eps = config.threshold_eps
        self._budget = config.max_total_iterations
        # one column per trace field: floats and bools are not tracked by
        # the garbage collector, a row tuple per proposal would be
        self._costs, self._temps, self._accepts = [], [], []

    def step(self, new_cost: float, state: np.ndarray, rng) -> bool:
        """Judge a proposal that put the walk at ``state``; True if accepted."""
        # locals, not attributes, on this per-proposal path
        cost, t_eff, accepts = self.cost, self.t_eff, self._accepts
        accepted = metropolis_accept(new_cost, cost, t_eff, rng)
        if accepted:
            self.cost = cost = new_cost
            self.t_eff = t_eff = t_eff * self._tau
            if new_cost < self.best_cost:
                self.best_cost = new_cost
                self.best = state.copy()
                self.converged = new_cost < self._eps
        self._costs.append(cost)
        self._temps.append(t_eff)
        accepts.append(accepted)
        self.done = self.converged or len(accepts) >= self._budget
        return accepted

    def trace(self) -> OptimizationTrace:
        return OptimizationTrace(
            iteration=np.arange(1, len(self._accepts) + 1),
            cost=np.asarray(self._costs, dtype=float),
            t_eff=np.asarray(self._temps, dtype=float),
            accepted=np.asarray(self._accepts, dtype=bool),
            converged=bool(self.converged),
            best_cost=float(self.best_cost),
        )


def metropolis_accept(c_new: float, c_old: float, t_eff: float, rng) -> bool:
    """Accept downhill moves always, uphill with exp(-(C'-C)/T_eff)."""
    if c_new < c_old:
        return True
    if t_eff <= 0.0:
        return c_new == c_old
    return bool(rng.uniform() < np.exp(-(c_new - c_old) / t_eff))


def cost(spectrum: GeneratorSpectrum, rho, target_modes) -> float:
    """Sum of overlap magnitudes |Tr(l_k rho)| over the targeted modes."""
    if not target_modes:
        return 0.0
    total = 0.0
    for val in spectrum.amplitudes(rho, target_modes):
        total += abs(val)
    return float(total)


_TWO_PI = 2.0 * np.pi
#: Anchor offsets of the three-point fit; e^{i phi} at them are the cube roots of unity.
_ANCHORS = np.array([0.0, 2.0 * np.pi / 3.0, -2.0 * np.pi / 3.0])
_GRID_POINTS = 256
_REFINE_POINTS = 17
_REFINE_ROUNDS = 14


def _fit_coordinate(anchor_amps: np.ndarray) -> np.ndarray:
    """Coefficients (A, B, C) of a(theta0 + phi) = A + B e^{i phi} + C e^{-i phi}.

    ``anchor_amps`` holds the amplitudes at phi = 0, +2pi/3, -2pi/3 (one row
    per anchor); the fit is the inverse three-point discrete Fourier
    transform, exact whenever the amplitudes have this form.  Each Euler
    angle enters U as exp(-/+ i theta/2) on a two-dimensional eigenspace (a
    global phase for alpha), so every target amplitude of U rho U^dag has
    this form in any one angle while the others stay fixed.
    """
    phases = np.exp(1j * np.outer((0, -1, 1), _ANCHORS))  # rows pick A, B, C
    return phases @ anchor_amps / 3.0


def _fitted_cost(terms, phi: float) -> float:
    """sum_k |A_k + B_k e^{i phi} + C_k e^{-i phi}| over ``terms`` = [(A_k, B_k, C_k)].

    Python scalars throughout: at the handful of targets a search has, this
    is far cheaper than any array call.
    """
    e = cmath.exp(1j * phi)
    ec = e.conjugate()
    total = 0.0
    for a, b, c in terms:
        total += abs(a + b * e + c * ec)
    return total


def _minimize_coordinate(coef: np.ndarray) -> float:
    """Offset phi minimizing sum_k |A_k + B_k e^{i phi} + C_k e^{-i phi}|.

    A grid over the full circle (which contains phi = 0, so the result never
    costs more than the current value under the fit), then rounds of finer
    grids around the best point; deterministic, no random draw.
    """
    a, b, c = coef

    def objective(phi):
        e = np.exp(1j * phi)[:, None]
        return np.abs(a + b * e + c * e.conj()).sum(axis=1)

    step = 2.0 * np.pi / _GRID_POINTS
    phi = step * np.arange(_GRID_POINTS)
    best = phi[np.argmin(objective(phi))]
    for _ in range(_REFINE_ROUNDS):
        phi = best + step * np.linspace(-1.0, 1.0, _REFINE_POINTS)
        best = phi[np.argmin(objective(phi))]
        step *= 2.0 / (_REFINE_POINTS - 1)
    return float(best)


def _rz(theta: float) -> np.ndarray:
    return np.array([[np.exp(-0.5j * theta), 0.0], [0.0, np.exp(0.5j * theta)]])


def _rx(theta: float) -> np.ndarray:
    c, s = np.cos(0.5 * theta), np.sin(0.5 * theta)
    return np.array([[c, -1j * s], [-1j * s, c]])


def build_ansatz_unitary(ansatz: UnitaryAnsatz) -> np.ndarray:
    """Assemble the full product unitary from the per-qubit parameters.

    The fermionic flag multiplies qubit j's factor by sigma_z^{mod(L-j, 2)}
    (1-based j), the alternating Jordan-Wigner string pattern; since all factors act
    on distinct sites the product collapses to one Kronecker chain.
    """
    n = ansatz.n_qubits
    factors = []
    for j in range(n):
        a, b, g, d = ansatz.params[j]
        u_j = np.exp(1j * a) * (_rz(b) @ _rx(g) @ _rz(d))
        if ansatz.fermionic and (n - (j + 1)) % 2 == 1:
            u_j = u_j @ SIGMA_Z
        factors.append(u_j)
    return kron_chain(factors)


def unitary_metropolis(
    spectrum: GeneratorSpectrum,
    rho,
    config: MetropolisConfig,
    *,
    fermionic: bool = False,
    cost_fn=None,
):
    """Anneal a product-of-single-qubit-unitaries to kill target overlaps.

    Returns ``(rho_best, ansatz_best, trace)``.  ``rho`` must live on
    qubits (dim = 2^L, lab basis).  ``cost_fn(rho_lab_matrix) -> float``
    optionally replaces the default summed-overlap cost (used e.g. to
    prepare states at a chosen overlap).  Non-convergence within the budgets
    is reported through ``trace.converged``, not an exception.

    With the default cost, each nano loop first fits the target amplitudes
    as A + B e^{i theta} + C e^{-i theta} in its parameter (three anchor
    evaluations; no other parameter moves during the loop, so the fit stays
    exact), and every proposal of the loop is then priced from the fit in
    O(K) scalar arithmetic for K targets, with no unitary rebuilt.  The first
    proposal of a loop on beta, gamma or delta is the exact minimization of
    the summed overlaps along that parameter (no random draw); it is one
    proposal and one trace row like any other.  alpha is always re-drawn.
    A ``cost_fn`` is opaque: every proposal is a uniform re-draw, priced by
    rebuilding the unitary and calling it.  The returned state is built once,
    from the best parameters.
    """
    rho_m = rho.entries if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    d = rho_m.shape[0]
    n_qubits = int(np.log2(d))
    if 2**n_qubits != d:
        raise ValidationError("unitary metropolis requires a 2^L-dimensional state")

    def rotated(p):
        u = build_ansatz_unitary(UnitaryAnsatz(p, fermionic=fermionic))
        return u @ rho_m @ u.conj().T

    fitted = cost_fn is None
    if fitted:
        targets = config.target_modes

        def cost_fn(rho_lab):
            return cost(spectrum, rho_lab, targets)

    # short-circuit: a state already below threshold needs no transformation
    identity_cost = cost_fn(rho_m)
    if identity_cost < config.threshold_eps:
        walk = _Walk(identity_cost, np.zeros((n_qubits, 4)), config)
        return DensityMatrix(rho_m), UnitaryAnsatz(walk.best), walk.trace()

    rng = np.random.default_rng(config.seed)
    params = rng.uniform(0.0, 2.0 * np.pi, size=(n_qubits, 4))
    walk = _Walk(cost_fn(rotated(params)), params, config)

    for _macro in range(n_qubits * config.macro_big_m):
        if walk.done:
            break
        qubit = int(rng.integers(n_qubits))
        for _micro in range(config.micro_m):
            if walk.done:
                break
            par = int(rng.integers(4))
            if fitted:
                theta0 = params[qubit, par]
                trial = params.copy()
                anchors = []
                for shift in _ANCHORS:
                    trial[qubit, par] = theta0 + shift
                    anchors.append(spectrum.amplitudes(rotated(trial), targets))
                coef = _fit_coordinate(np.array(anchors))
                terms = list(zip(*coef.tolist()))
            for nano in range(config.nano_n):
                if walk.done:
                    break
                old = params[qubit, par]
                if fitted and nano == 0 and par != 0:
                    theta = (theta0 + _minimize_coordinate(coef)) % _TWO_PI
                else:
                    theta = (old + rng.uniform(0.0, _TWO_PI)) % _TWO_PI
                params[qubit, par] = theta
                if fitted:
                    new_cost = _fitted_cost(terms, theta - theta0)
                else:
                    new_cost = cost_fn(rotated(params))
                if not walk.step(new_cost, params, rng):
                    params[qubit, par] = old

    return (
        DensityMatrix(rotated(walk.best)),
        UnitaryAnsatz(walk.best, fermionic=fermionic),
        walk.trace(),
    )


def swap_metropolis(spectrum: GeneratorSpectrum, populations, config: MetropolisConfig):
    """Anneal population permutations to kill diagonal-mode overlaps.

    ``populations`` is the energy-basis population vector of a state that is
    diagonal in the energy eigenbasis.  Every targeted mode must itself be
    diagonal (a population mode).  Proposals permute four distinct entries
    (two below dimension 4, a documented fallback), so the population
    multiset is preserved exactly and coherences remain zero.
    """
    p = np.asarray(populations, dtype=float).copy()
    d = p.size
    if d != spectrum.dim:
        raise ValidationError("population vector does not match the spectrum dimension")
    if abs(p.sum() - 1.0) > 1e-10 or np.any(p < -1e-12):
        raise ValidationError("populations must form a probability vector")

    lefts = []
    for k in config.target_modes:
        left = spectrum.left(k)
        off = np.abs(left - np.diag(np.diag(left))).max()
        if off > 1e-9 * max(1.0, float(np.abs(left).max())):
            raise ValidationError(f"target mode {k} is not diagonal; swap search needs population modes")
        lefts.append(np.real_if_close(np.diag(left)))
    lmat = np.array(lefts) if lefts else np.zeros((0, d))

    def pcost(vec):
        return float(np.abs(lmat @ vec).sum()) if lmat.size else 0.0

    rng = np.random.default_rng(config.seed)
    walk = _Walk(pcost(p), p, config)
    n_swap = 4 if d >= 4 else 2
    perms = _PERMS4 if n_swap == 4 else _PERMS2

    while not walk.done:
        idx = rng.choice(d, size=n_swap, replace=False)
        perm = perms[int(rng.integers(len(perms)))]
        proposal = p.copy()
        proposal[idx] = p[idx[list(perm)]]
        if walk.step(pcost(proposal), proposal, rng):
            p = proposal
    return walk.best, walk.trace()
