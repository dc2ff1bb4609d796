"""Stochastic search for overlap-eliminating transformations.

Two annealers operate on a decomposed generator spectrum:

* ``unitary_metropolis`` walks over products of single-qubit unitaries
  U_j = exp(i alpha) R_z(beta) R_x(gamma) R_z(delta), one parameter per
  proposal, minimizing the summed overlap magnitude sum_k |Tr(l_k rho)| with
  a set of target modes.  The cost reads the target amplitudes through
  ``GeneratorSpectrum.amplitudes``, the spectrum's one amplitude routine.
  A fermionic variant appends sigma^z strings,
  U^f = prod_j U_j (sigma_j^z)^{mod(L-j, 2)}, respecting anticommutation.
  With the default summed-overlap cost the walk uses the Rotosolve/NFT
  structure (Ostaszewski et al., Quantum 5, 391 (2021); Nakanishi et al.,
  PRR 2, 043158 (2020)): every target amplitude is
  A + B e^{i theta} + C e^{-i theta} in the one angle a nano loop varies, so
  three anchor evaluations at the start of the loop fit it exactly.  The
  anchors are read in the Heisenberg picture, a_k = Tr(l_k Y^dag rho Y) with
  Y = U^dag V restricted to the energy-basis columns that the target lefts
  (``GeneratorSpectrum.left``) touch, each single-site factor acting as a
  2 x 2 matrix on V; no 2^L x 2^L unitary is built inside a fitted search,
  only for its start state and for the state it returns.  Only one qubit
  moves in a macro round, so the other sites' part of Y is built once per
  round and each loop applies just its qubit's three anchor factors.  A
  nano loop of n proposals makes two random draws, whatever the walk
  decides: its re-drawn angles, each a fresh U(0, 2pi), and n acceptance
  uniforms.  The first proposal of a loop on beta, gamma or delta is an
  exact single-coordinate move instead of a re-draw: it sets theta to the
  minimizer of the fitted summed magnitudes, found on a 256-point grid and
  refined by a bracketed Newton step on the fit's analytic derivatives.  It
  counts as one proposal, writes one trace row and passes the usual
  acceptance rule.  Two array expressions price the whole loop: one the
  grid and the re-drawn angles, one the exact move's two candidates.
  alpha, a global phase, leaves U rho U^dag unchanged: its loops build no
  anchors, and each of its proposals costs exactly the current cost, a tie
  the rule accepts, so the walk records them without judging each.  A
  search with a user ``cost_fn`` (opaque to the annealer) re-draws by
  old + U(0, 2pi), rebuilds the unitary for every proposal and draws an
  acceptance uniform only for a move that is not downhill.
* ``swap_metropolis`` specializes to states diagonal in the energy basis:
  proposals permute four randomly chosen populations, which preserves both
  the population multiset and diagonality exactly.  Each batch of
  proposals draws its indices, permutations and acceptance uniforms at
  once, and each proposal is priced by the O(4K) change of the K target
  sums s = L p over its four swapped entries.

Both walk by one Metropolis rule, :func:`metropolis_accept`: a better
proposal is always accepted and a worse one with probability
exp(-(C' - C)/T_eff), evaluated in Python floats; the effective
temperature cools by the factor ``tau`` on every acceptance.  The rule is
handed its uniform, and reads it only for a move that is not downhill at a
positive temperature; a ``cost_fn`` search draws one only for such a move.
An ``OptimizationTrace`` keeps what the walk decides, each proposal's cost
and accept decision, and derives each row's T_eff from the accepts so far.
The walk is configured by an ``AnnealSchedule`` (cooling, threshold, target
modes, seed, total budget), which is all the swap search takes.  The
unitary search takes a ``MetropolisConfig``, the schedule plus its
nano/micro/macro loop budgets, which follow the re-varied-parameter
reading: nano re-varies the same parameter, micro re-selects a parameter of
the same qubit, macro re-selects the qubit (L * M macro rounds in total).
The best state seen is returned, since the threshold crossing is what
defines convergence.
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass
from itertools import permutations, repeat

import numpy as np

from .errors import ValidationError
from .operators import DensityMatrix, as_populations, as_state
from .spectral import GeneratorSpectrum, _as_mode_index
from .utils import SIGMA_Z, frozen, kron_chain, write_csv

_PERMS4 = tuple(p for p in permutations(range(4)) if p != (0, 1, 2, 3))
#: the pair swap below dimension 4, written on four slots; slots 2 and 3 stay put
_PERMS2 = ((1, 0, 2, 3),)
#: proposals per batch of the swap walk; each batch draws its randomness at once
_SWAP_BATCH = 256
#: rungs of the cooling ladder whose ``%.17g`` strings a process keeps between traces (about 5 MB)
_LADDER_RUNGS = 65_536
_NO_STRINGS = np.empty(0, dtype=object)
#: (cooling factor, ``%.17g`` strings of its first rungs, value of the next rung) of the
#: most recent trace written; one tuple, replaced whole, so a reader sees one consistent state
_ladder_cache = (None, _NO_STRINGS, 1.0)


@dataclass(frozen=True)
class AnnealSchedule:
    """What the shared Metropolis walk reads: cooling, stop rule, targets and seed.

    Every field after ``threshold_eps`` is keyword-only.  ``target_modes`` are
    1-based mode indices k >= 2, each a Python or numpy integer: a float is refused,
    not truncated.
    """

    cooling_tau: float
    threshold_eps: float
    _: KW_ONLY
    target_modes: tuple = (2,)
    seed: int = 0
    max_total_iterations: int = 1_000_000

    def __post_init__(self):
        if not 0.0 < self.cooling_tau < 1.0:
            raise ValidationError("cooling_tau must lie in (0, 1)")
        if self.threshold_eps <= 0:
            raise ValidationError("threshold_eps must be positive")
        if self.max_total_iterations < 1:
            raise ValidationError("max_total_iterations must be a positive integer")
        object.__setattr__(self, "target_modes", tuple(_as_mode_index(k) for k in self.target_modes))
        for k in self.target_modes:
            if k < 2:
                raise ValidationError("target modes are 1-based decaying modes (k >= 2)")


@dataclass(frozen=True)
class MetropolisConfig(AnnealSchedule):
    """An :class:`AnnealSchedule` plus the nano/micro/macro loop budgets of the unitary search."""

    _: KW_ONLY
    nano_n: int = 200
    micro_m: int = 20
    macro_big_m: int = 20

    def __post_init__(self):
        super().__post_init__()
        for name in ("nano_n", "micro_m", "macro_big_m"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be a positive integer")


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


def _cooled(t_eff: float, tau: float, n: int) -> np.ndarray:
    """``t_eff`` and the ``n`` temperatures after it, each the one before times ``tau``.

    ``np.multiply.accumulate`` makes the same IEEE multiplies, in the same
    order, as a walk that cools by ``tau`` on each of n accepts, so entry k
    holds the bits of that walk's T_eff after k more accepts.
    """
    steps = np.full(n + 1, tau)
    steps[0] = t_eff
    return np.multiply.accumulate(steps)


def _ladder_strings(tau: float, top: int) -> np.ndarray:
    """The ``%.17g`` strings of the cooling ladder at ``tau``, rungs 0 to ``top`` at least.

    Rung k is T_eff after k accepts, 1 cooled k times.  Traces written one
    after another mostly share their cooling factor, so the strings of the
    most recent factor are kept, extended only as far as a trace needs and
    up to ``_LADDER_RUNGS`` rungs; rungs past that are formatted for the
    call that needs them.  Nothing is built before the first trace is written.
    """
    global _ladder_cache
    cached_tau, strings, next_rung = _ladder_cache
    if cached_tau != tau:
        strings, next_rung = _NO_STRINGS, 1.0
    if top < strings.size:
        return strings
    values = _cooled(next_rung, tau, top + 1 - strings.size).tolist()
    new = np.array(["%.17g" % v for v in values[:-1]], dtype=object)
    keep = min(top + 1, _LADDER_RUNGS) - strings.size
    if keep:
        strings = np.concatenate((strings, new[:keep]))
        _ladder_cache = (tau, strings, values[keep])
    return strings if keep == new.size else np.concatenate((strings, new[keep:]))


def _run_strings(values: np.ndarray) -> np.ndarray:
    """``%.17g`` of each entry of the float array ``values``, formatted once per run of equal bits."""
    starts = np.empty(values.size, dtype=bool)
    starts[:1] = True
    bits = values.view(np.uint64)
    np.not_equal(bits[1:], bits[:-1], out=starts[1:])
    strings = np.array(["%.17g" % v for v in values[starts].tolist()], dtype=object)
    return strings[np.cumsum(starts) - 1]


@dataclass(frozen=True)
class OptimizationTrace:
    """Per-proposal record of the annealing walk: what the walk decided, one row per proposal.

    ``cost`` holds the walk's cost after each proposal and ``accepted`` its
    decision, both read-only.  The rest of a row follows from them:
    ``iteration`` is 1, 2, ..., and ``t_eff`` is the temperature the walk
    stood at after the proposal, T_eff = 1 cooled by ``cooling_tau`` once per
    accept so far, that is ``cooling_tau``**k by repeated multiplication after
    k accepts, with the walk's own bits.
    """

    cost: np.ndarray
    accepted: np.ndarray
    cooling_tau: float
    converged: bool
    best_cost: float

    def __post_init__(self):
        cost = frozen(np.asarray(self.cost, dtype=float))
        accepted = frozen(np.asarray(self.accepted, dtype=bool))
        if cost.ndim != 1 or accepted.shape != cost.shape:
            raise ValidationError("a trace's cost and accepted columns must be 1-D and of one length")
        object.__setattr__(self, "cost", cost)
        object.__setattr__(self, "accepted", accepted)
        object.__setattr__(self, "cooling_tau", float(self.cooling_tau))

    def __len__(self):
        return self.cost.size

    @property
    def iteration(self) -> np.ndarray:
        """The 1-based proposal number of each row."""
        return np.arange(1, len(self) + 1)

    @property
    def t_eff(self) -> np.ndarray:
        """T_eff after each proposal: the cooling ladder indexed by the accepts so far."""
        return _cooled(1.0, self.cooling_tau, np.count_nonzero(self.accepted))[np.cumsum(self.accepted)]

    def to_csv(self, path) -> None:
        """Write ``iteration,cost,T_eff,accepted``, the floats at ``%.17g``, one row per proposal.

        A float column is written from a table of its distinct strings: T_eff
        from the ladder's (:func:`_ladder_strings`) by accept count, the cost
        from each run of equal costs' first value (rejected proposals and
        alpha loops repeat the cost before them).
        """
        ladder = _ladder_strings(self.cooling_tau, np.count_nonzero(self.accepted))
        write_csv(
            path, "iteration,cost,T_eff,accepted",
            (self.iteration, _run_strings(self.cost), ladder[np.cumsum(self.accepted)], self.accepted),
            "%d,%s,%s,%d\n",
        )


class _Walk:
    """The Metropolis rule both annealers share, with its bookkeeping.

    Starts from a state of cost ``cost`` at T_eff = 1.  :meth:`scan` judges
    priced proposals in order, each made from the walk's current state,
    cools T_eff by ``cooling_tau`` on every acceptance, keeps a copy of the
    best state seen and records one trace row per proposal: its cost and its
    decision, from which the trace derives T_eff.  ``done`` turns
    true once the best cost falls below ``threshold_eps`` or
    ``max_total_iterations`` proposals have been made.  The swap walk prices
    each proposal from the one before, so it judges its batches in its own
    loop, appends to the same trace columns and ends each batch with
    :meth:`_finish`, as :meth:`scan` does.
    """

    def __init__(self, cost: float, state: np.ndarray, schedule: AnnealSchedule):
        self.cost = self.best_cost = cost
        self.t_eff = 1.0
        self.best = state.copy()
        self.converged = self.done = cost < schedule.threshold_eps
        self._tau = schedule.cooling_tau
        self._eps = schedule.threshold_eps
        self._budget = schedule.max_total_iterations
        # one column per trace field: floats and bools are not tracked by
        # the garbage collector, a row tuple per proposal would be
        self._costs, self._accepts = [], []

    @property
    def remaining(self) -> int:
        """Proposals left in the budget."""
        return self._budget - len(self._accepts)

    def scan(self, costs, uniforms, state_at) -> int:
        """Judge proposals priced ``costs`` in order; index of the last accepted, or -1.

        ``uniforms`` holds each proposal's acceptance uniform.  ``state_at(i)``
        returns the state proposal ``i`` puts the walk at; it is called once,
        for the best proposal, if the scan finds a new best.  The scan stops
        early once the walk is done.
        """
        # locals, not attributes, on this per-proposal path
        cost, t_eff, tau = self.cost, self.t_eff, self._tau
        best_cost, eps, accept = self.best_cost, self._eps, metropolis_accept
        record_cost, record_accept = self._costs.append, self._accepts.append
        last = best = -1
        for i, new_cost, u in zip(range(self.remaining), costs, uniforms):
            accepted = accept(new_cost, cost, t_eff, u)
            if accepted:
                cost, t_eff, last = new_cost, t_eff * tau, i
                if new_cost < best_cost:
                    best_cost, best = new_cost, i
            record_cost(cost)
            record_accept(accepted)
            if best_cost < eps:
                break
        self._finish(cost, t_eff, best_cost, state_at(best) if best >= 0 else None)
        return last

    def ties(self, n: int) -> None:
        """Record ``n`` proposals that each cost exactly the current cost, which is finite.

        The rule accepts every such tie (u < exp(-0) = 1, or c == c at
        T_eff = 0), so each writes a row at the current cost, none is a new
        best, and the walk keeps its cost: the rows :meth:`scan` would
        record, without judging the ties one by one.  T_eff reaches the
        value the scan would leave by the same n multiplications by
        ``cooling_tau``.  ``n`` must not exceed :attr:`remaining`.
        """
        self._costs.extend(repeat(self.cost, n))
        self._accepts.extend(repeat(True, n))
        self._finish(self.cost, float(_cooled(self.t_eff, self._tau, n)[-1]), self.best_cost, None)

    def _finish(self, cost: float, t_eff: float, best_cost: float, best) -> None:
        """Take the walk's state after a run of proposals recorded in the trace.

        ``best`` is the state at ``best_cost`` if the run found a new best,
        otherwise None.  Decides ``converged`` on ``best_cost``, one of the
        recorded costs, so the trace and the verdict agree.
        """
        self.cost, self.t_eff = cost, t_eff
        if best is not None:
            self.best_cost, self.best = best_cost, best
        self.converged = self.best_cost < self._eps
        self.done = self.converged or len(self._accepts) >= self._budget

    def trace(self) -> OptimizationTrace:
        return OptimizationTrace(
            cost=self._costs,
            accepted=self._accepts,
            cooling_tau=self._tau,
            converged=bool(self.converged),
            best_cost=float(self.best_cost),
        )


def metropolis_accept(c_new: float, c_old: float, t_eff: float, u: float) -> bool:
    """Accept downhill moves always, uphill with exp(-(C'-C)/T_eff); a Python bool.

    ``u`` is the proposal's acceptance uniform, read only when
    ``not c_new < c_old and t_eff > 0``.  The rule is
    ``u < math.exp(...)`` on Python floats, so it does not depend on which
    SIMD kernel numpy dispatches.  The exponent is never positive; a NaN
    cost gives a NaN exponent and is rejected, and an exponent that
    underflows gives exp = 0, which rejects without a warning.
    """
    if c_new < c_old:
        return True
    if t_eff <= 0.0:
        return c_new == c_old
    return u < math.exp(-(c_new - c_old) / t_eff)


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
#: The inverse three-point DFT on the anchors; its rows pick A, B and C.
_FIT_PHASES = np.exp(1j * np.outer((0, -1, 1), _ANCHORS))
_GRID_POINTS = 256
_GRID_STEP = _TWO_PI / _GRID_POINTS
#: The minimizer's grid over the full circle, phi = 0 included, and e^{i phi} on it.
_GRID = _GRID_STEP * np.arange(_GRID_POINTS)
_GRID_PHASES = np.exp(1j * _GRID)
#: Iteration cap of the bracketed Newton step that refines the grid's best point.
_NEWTON_ITERATIONS = 64


def _fit_coordinate(anchor_amps: np.ndarray) -> np.ndarray:
    """Coefficients (A, B, C) of a(theta0 + phi) = A + B e^{i phi} + C e^{-i phi}.

    ``anchor_amps`` holds the amplitudes at phi = 0, +2pi/3, -2pi/3 (one row
    per anchor); the fit is the inverse three-point discrete Fourier
    transform, exact whenever the amplitudes have this form.  Each Euler
    angle enters U as exp(-/+ i theta/2) on a two-dimensional eigenspace (a
    global phase for alpha), so every target amplitude of U rho U^dag has
    this form in any one angle while the others stay fixed.
    """
    return _FIT_PHASES @ anchor_amps / 3.0


def _fitted_costs(coef: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """sum_k |A_k + B_k e^{i phi} + C_k e^{-i phi}| at each offset phi, given ``phases`` = e^{i phi}.

    ``coef`` = (A, B, C) as returned by :func:`_fit_coordinate`; one array
    expression prices any number of offsets, each cost the same bits as
    one priced on its own.
    """
    a, b, c = coef
    e = phases[:, None]
    return np.abs(a + b * e + c * e.conj()).sum(axis=1)


def _coordinate_candidates(coef: np.ndarray, grid_costs: np.ndarray) -> tuple[float, float]:
    """The two candidate offsets of the exact move: the grid's best point g and its Newton point.

    ``grid_costs`` is f(phi) = sum_k |A_k + B_k e^{i phi} + C_k e^{-i phi}| on
    ``_GRID``, a 256-point grid over the full circle that contains phi = 0;
    its best point is g.  Newton's method on f' then refines g inside the
    bracket [g - step, g + step], in Python complex scalars, with the analytic
    z' = i(B e^{i phi} - C e^{-i phi}) and z'' = -(B e^{i phi} + C e^{-i phi})
    of each amplitude z.  Each iterate shrinks the bracket by the sign of f'
    (one-sided at a kink, where some |z_k| is exactly 0, and a point whose
    one-sided derivatives bracket 0 stops the search); the step bisects the
    bracket whenever f'' <= 0, the Newton point leaves the closed bracket or
    the iterate sits on a kink.  The search stops once x stops moving or after
    ``_NEWTON_ITERATIONS`` iterates.  The move is whichever of g and x costs
    less under the fit (g on a tie), so it never costs more than the grid's
    best point, nor than the current value; the caller prices the two.
    Deterministic, no random draw.
    """
    g = float(_GRID[np.argmin(grid_costs)])
    terms = list(zip(*coef.tolist()))
    lo, hi, x = g - _GRID_STEP, g + _GRID_STEP, g
    for _ in range(_NEWTON_ITERATIONS):
        e = complex(math.cos(x), math.sin(x))
        ec = e.conjugate()
        slope = curvature = kink = 0.0
        on_kink = False
        for a, b, c in terms:
            be, ce = b * e, c * ec
            z, z1, z2 = a + be + ce, 1j * (be - ce), -(be + ce)
            r = abs(z)
            if r == 0.0:
                on_kink = True
                kink += abs(z1)
                continue
            dr = (z.real * z1.real + z.imag * z1.imag) / r  # d|z|/dphi
            slope += dr
            dz1 = z1.real * z1.real + z1.imag * z1.imag
            curvature += (dz1 + z.real * z2.real + z.imag * z2.imag - dr * dr) / r
        if slope + kink < 0.0:
            lo = x
        elif slope - kink > 0.0:
            hi = x
        else:  # a stationary point, a kink minimum, or a NaN fit
            break
        newton = x - slope / curvature if curvature > 0.0 and not on_kink else math.nan
        x_new = newton if lo <= newton <= hi else 0.5 * (lo + hi)
        if x_new == lo or x_new == hi:  # x stops moving, or would step back onto a priced end
            break
        x = x_new
    return g, x


def _fitted_loop(coef: np.ndarray, theta0: float, drawn: np.ndarray):
    """Angles and fitted costs of one nano loop on beta, gamma or delta, in two pricing calls.

    The loop's first proposal is the exact move, ``theta0`` plus the better
    candidate of :func:`_coordinate_candidates` wrapped into [0, 2pi); the
    re-drawn angles ``drawn`` follow.  The first call prices the grid and
    the re-draws, the second the two candidates and the two wrapped moves.
    Every proposal is priced at its offset from ``theta0``.
    """
    priced = _fitted_costs(coef, np.concatenate((_GRID_PHASES, np.exp(1j * (drawn - theta0)))))
    g, x = _coordinate_candidates(coef, priced[:_GRID_POINTS])
    moves = (theta0 + np.array([g, x])) % _TWO_PI
    ends = _fitted_costs(coef, np.exp(1j * np.concatenate(([g, x], moves - theta0))))
    pick = 1 if ends[1] < ends[0] else 0
    return (np.concatenate((moves[pick:pick + 1], drawn)),
            np.concatenate((ends[2 + pick:3 + pick], priced[_GRID_POINTS:])))


def _rz(theta) -> np.ndarray:
    out = np.zeros(np.shape(theta) + (2, 2), dtype=complex)
    out[..., 0, 0] = np.exp(-0.5j * theta)
    out[..., 1, 1] = np.exp(0.5j * theta)
    return out


def _rx(theta) -> np.ndarray:
    c, s = np.cos(0.5 * theta), np.sin(0.5 * theta)
    out = np.empty(np.shape(theta) + (2, 2), dtype=complex)
    out[..., 0, 0] = out[..., 1, 1] = c
    out[..., 0, 1] = out[..., 1, 0] = -1j * s
    return out


def _euler_factors(params: np.ndarray) -> np.ndarray:
    """Single-site factors exp(i alpha) R_z(beta) R_x(gamma) R_z(delta), one per row.

    ``params`` has shape (n, 4), the result (n, 2, 2).  Each factor is the
    same product of the same 2 x 2 matrices as one built on its own.
    """
    a, b, g, d = params.T
    return np.exp(1j * a)[:, None, None] * (_rz(b) @ _rx(g) @ _rz(d))


def _string_sites(n_qubits: int, fermionic: bool) -> np.ndarray:
    """Mask of the sites whose factor carries sigma^z: mod(L - j, 2) = 1 for 1-based j."""
    return fermionic & ((n_qubits - 1 - np.arange(n_qubits)) % 2 == 1)


def build_ansatz_unitary(ansatz: UnitaryAnsatz) -> np.ndarray:
    """Assemble the full product unitary from the per-qubit parameters.

    The fermionic flag multiplies qubit j's factor by sigma_z^{mod(L-j, 2)}
    (1-based j), the alternating Jordan-Wigner string pattern; since all factors act
    on distinct sites the product collapses to one Kronecker chain.
    """
    factors = list(_euler_factors(ansatz.params))
    for j in np.flatnonzero(_string_sites(ansatz.n_qubits, ansatz.fermionic)):
        factors[j] = factors[j] @ SIGMA_Z
    return kron_chain(factors)


def _sitewise_anchors(spectrum: GeneratorSpectrum, rho_m: np.ndarray, targets, fermionic: bool):
    """The anchor amplitudes of fitted nano loops, read in the Heisenberg picture.

    Returns ``around(params, qubit)``, which returns ``anchors(site, par)``:
    the target amplitudes, shape (3, K), of U rho U^dag at the three
    parameter sets that move ``site[par]`` by each offset of ``_ANCHORS``,
    where U has ``site`` on ``qubit`` and ``params`` on every other site.
    In the energy basis V, a_k = Tr(l_k V^dag U rho U^dag V) = Tr(l_k Y^dag rho Y)
    with Y = U^dag V, and only the columns of Y that the lefts touch enter:
    two for a block coherence target, all d for a population or dense target.
    Each u_j^dag acts as a 2 x 2 matrix on a (2^j, 2, rest) reshape of
    V[:, cols], so no 2^L x 2^L unitary is built.  ``around`` applies the
    other sites' factors once, the environment prod_{j != qubit} u_j^dag V[:, cols],
    which stays valid while only ``qubit`` moves (a macro round of the walk);
    each ``anchors`` call applies only the qubit's three anchor factors, and
    gives the same bits as an environment rebuilt from the current
    parameters.  The fermionic strings multiply U^dag by the fixed diagonal
    S = prod sigma_j^z on the left, so rho is conjugated by S once, here.
    """
    lefts = np.array([spectrum.left(k) for k in targets])
    nonzero = lefts != 0
    cols = np.flatnonzero(nonzero.any(axis=(0, 1)) | nonzero.any(axis=(0, 2)))
    lefts = lefts[:, cols[:, None], cols]
    vectors = spectrum.basis.vectors[:, cols]
    n_qubits = int(np.log2(vectors.shape[0]))
    signs = np.ones(1)
    for string in _string_sites(n_qubits, fermionic):
        signs = np.outer(signs, (1.0, -1.0) if string else (1.0, 1.0)).ravel()
    rho_s = rho_m * np.outer(signs, signs)

    def around(params, qubit):
        daggers = _euler_factors(params).conj().swapaxes(1, 2)
        y = vectors
        for j in range(n_qubits):
            if j != qubit:
                y = (daggers[j] @ y.reshape(2**j, 2, -1)).reshape(y.shape)
        env = y.reshape(2**qubit, 2, -1)

        def anchors(site, par):
            rows = np.repeat(site[None], 3, axis=0)
            rows[:, par] += _ANCHORS
            y3 = _euler_factors(rows).conj().swapaxes(1, 2)[:, None] @ env
            y3 = y3.reshape(3, *vectors.shape)
            blocks = y3.conj().swapaxes(1, 2) @ rho_s @ y3
            return np.einsum("kab,sba->sk", lefts, blocks)

        return anchors

    return around


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
    qubits (dim = 2^L, lab basis).  ``config`` is the walk's schedule plus
    the nano/micro/macro loop budgets, which only this search reads.
    ``cost_fn(rho_lab_matrix) -> float`` optionally replaces the default
    summed-overlap cost (used e.g. to prepare states at a chosen overlap).  Non-convergence within the budgets
    is reported through ``trace.converged``, not an exception.

    With the default cost, each nano loop first fits the target amplitudes
    as A + B e^{i theta} + C e^{-i theta} in its parameter (three anchor
    evaluations; no other parameter moves during the loop, so the fit stays
    exact).  The anchors are read sitewise from Y = U^dag V on the
    energy-basis columns the target lefts touch (two for a block coherence
    target, all d for a population or dense one).  The part of Y from the
    sites other than the round's qubit is built at the round's first fitted
    loop, and each loop applies its qubit's factors to it, so no full
    unitary is built inside the search: a search builds one for its start
    cost and one for the returned state, whatever its budget.  The loop then
    draws all its re-drawn angles (fresh uniforms on [0, 2pi)) in one call
    and one acceptance uniform per proposal in a second, prices all its
    proposals from the fit, and scans them with the accept rule.  The first
    proposal of a loop on beta, gamma or delta is the exact minimization of
    the summed overlaps along that parameter (no random draw); it is one
    proposal and one trace row like any other.  A loop on alpha, a global
    phase, builds no anchors: each proposal costs the current cost, a tie
    the rule accepts, and the last angle stays.  So the random stream does
    not depend on the walk's accept decisions.  ``rho`` enters through
    :func:`mpemba.operators.as_state` before any cost or draw; a register that
    is not 2^L-dimensional is refused before a state of the wrong dimension.
    A ``cost_fn`` is opaque: every proposal is a uniform re-draw, priced by
    rebuilding the unitary and calling it.  The returned state is built once,
    from the best parameters.
    """
    rho = as_state(rho)
    rho_m = rho.entries
    n_qubits = int(np.log2(rho.dim))
    if 2**n_qubits != rho.dim:
        raise ValidationError("unitary metropolis requires a 2^L-dimensional state")
    as_state(rho, spectrum.dim)

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
        return rho, UnitaryAnsatz(walk.best), walk.trace()

    if fitted:
        around = _sitewise_anchors(spectrum, rho_m, targets, fermionic)
    rng = np.random.default_rng(config.seed)
    params = rng.uniform(0.0, 2.0 * np.pi, size=(n_qubits, 4))
    walk = _Walk(cost_fn(rotated(params)), params, config)

    for _macro in range(n_qubits * config.macro_big_m):
        if walk.done:
            break
        qubit = int(rng.integers(n_qubits))
        # the other sites hold still for the round: its first fitted loop
        # builds their environment, and every fitted loop of the round reuses it
        anchors = None
        for _micro in range(config.micro_m):
            if walk.done:
                break
            par = int(rng.integers(4))
            if not fitted:
                for _nano in range(config.nano_n):
                    if walk.done:
                        break
                    old = params[qubit, par]
                    params[qubit, par] = (old + rng.uniform(0.0, _TWO_PI)) % _TWO_PI
                    new_cost = cost_fn(rotated(params))
                    # a uniform only for the moves the accept rule reads one for
                    u = rng.uniform() if not new_cost < walk.cost and walk.t_eff > 0.0 else 0.0
                    if walk.scan((new_cost,), (u,), lambda _: params.copy()) < 0:
                        params[qubit, par] = old
                continue
            # one nano loop: its angles in one draw, its acceptance uniforms
            # in another, every proposal priced before the walk scans them
            n = min(config.nano_n, walk.remaining)
            if par == 0:
                # alpha is a global phase: U rho U^dag, and so the cost, stays
                # put.  Every proposal is a tie the rule accepts, so the last
                # angle stays; the uniforms are drawn and never read
                params[qubit, 0] = rng.uniform(0.0, _TWO_PI, size=n)[-1]
                rng.uniform(size=n)
                walk.ties(n)
                continue
            if anchors is None:
                anchors = around(params, qubit)
            coef = _fit_coordinate(anchors(params[qubit], par))
            drawn = rng.uniform(0.0, _TWO_PI, size=n - 1)
            thetas, costs = _fitted_loop(coef, params[qubit, par], drawn)
            uniforms = rng.uniform(size=n)

            def state_at(i):
                state = params.copy()
                state[qubit, par] = thetas[i]
                return state

            last = walk.scan(costs.tolist(), uniforms.tolist(), state_at)
            if last >= 0:
                params[qubit, par] = thetas[last]

    return (
        DensityMatrix(rotated(walk.best)),
        UnitaryAnsatz(walk.best, fermionic=fermionic),
        walk.trace(),
    )


def _distinct_indices(rng, d: int, n: int, m: int) -> np.ndarray:
    """``n`` rows of ``m`` distinct indices in [0, d), each row uniform over ordered m-tuples.

    Column j is drawn from [0, d - j) and mapped past the row's earlier
    picks in ascending order, so it lands on the matching entry of the
    indices not yet taken.
    """
    cols = rng.integers(0, np.arange(d, d - m, -1), size=(n, m))
    for j in range(1, m):
        earlier = np.sort(cols[:, :j], axis=1)
        for k in range(j):
            cols[:, j] += cols[:, j] >= earlier[:, k]
    return cols


def population_weights(spectrum: GeneratorSpectrum, k: int) -> np.ndarray | None:
    """The diagonal of mode ``k``'s left eigenmatrix, or None if that matrix is not diagonal.

    A diagonal left (a population mode) reads only the energy-basis
    populations, the one kind of target the swap walk can price.  Dense
    spectra carry no population tag, so the matrix itself is tested.
    """
    left = spectrum.left(k)
    off = np.abs(left - np.diag(np.diag(left))).max()
    if off > 1e-9 * max(1.0, float(np.abs(left).max())):
        return None
    return np.real_if_close(np.diag(left))


def swap_metropolis(spectrum: GeneratorSpectrum, populations, schedule: AnnealSchedule):
    """Anneal population permutations to kill diagonal-mode overlaps.

    ``populations`` is the energy-basis population vector of a state that is
    diagonal in the energy eigenbasis (:func:`mpemba.operators.as_populations`).
    Every targeted mode of ``schedule`` must itself be diagonal (a population
    mode).  Proposals permute four distinct entries (two below dimension 4, a
    documented fallback), so the population multiset is preserved exactly and
    coherences remain zero.

    The walk runs in batches of up to ``_SWAP_BATCH`` proposals.  A batch
    draws all its randomness first, whatever the walk decides: the swapped
    indices, one permutation and one acceptance uniform per proposal.  It
    then re-sums the signed target sums s = L p from the populations, so
    the walk's cost |s|_1 carries rounding from one batch at most, and
    prices each proposal by the change of s over its swapped entries alone,
    in one O(4K) pass over the K targets in Python floats.  With w_k the
    weights of target k and d_j the change of the population at swapped
    index i_j, the price is s_k + w_k[i0] d0 + w_k[i1] d1 + w_k[i2] d2 +
    w_k[i3] d3 for each k, and the cost the |s_k| added left to right
    from 0 in target order; the re-sum adds its |s_k| the same way.  Python's
    ``sum`` is not used: from Python 3.12 it compensates a float sum, which
    would make the cost of three or more targets depend on the interpreter.
    This cost has the same bits on every Python.
    """
    d = spectrum.dim
    p0 = as_populations(populations, d)

    lefts = []
    for k in schedule.target_modes:
        weights = population_weights(spectrum, k)
        if weights is None:
            raise ValidationError(f"target mode {k} is not diagonal; swap search needs population modes")
        lefts.append(weights)
    lmat = np.array(lefts).reshape(len(lefts), d)

    # below dimension 4 a proposal swaps a pair; its two idle slots point at
    # padding entries of zero population and zero weight, left in place
    n_swap = 4 if d >= 4 else 2
    perms = np.array(_PERMS4 if n_swap == 4 else _PERMS2)
    pad = np.arange(d, d + 4 - n_swap)
    weights = np.hstack([lmat, np.zeros((lmat.shape[0], pad.size))]).tolist()
    p = p0.tolist() + [0.0] * pad.size

    def resum(vec):
        s = (lmat @ np.asarray(vec[:d])).tolist()
        total = 0.0
        for x in s:
            total += abs(x)
        return s, total

    rng = np.random.default_rng(schedule.seed)
    walk = _Walk(resum(p)[1], p, schedule)
    tau, eps = schedule.cooling_tau, schedule.threshold_eps
    costs_col, accepts = walk._costs, walk._accepts

    while not walk.done:
        n = min(_SWAP_BATCH, walk.remaining)
        idx = _distinct_indices(rng, d, n, n_swap)
        if pad.size:
            idx = np.hstack([idx, np.broadcast_to(pad, (n, pad.size))])
        # each slot j takes the population of slot src[j]
        src = np.take_along_axis(idx, perms[rng.integers(len(perms), size=n)], axis=1)
        uniforms = rng.uniform(size=n).tolist()
        # proposals are priced against base = |s|_1 of the re-sum, so a flat
        # move (equal populations swapped) costs exactly base; the trace keeps
        # recording the cost each state was accepted at, the costs that
        # decide convergence
        s, base = resum(p)
        s_new = s.copy()  # a proposal's target sums, written over in place
        cost, t_eff, best_cost, best = walk.cost, walk.t_eff, walk.best_cost, None
        for (i0, i1, i2, i3), (j0, j1, j2, j3), u in zip(idx.tolist(), src.tolist(), uniforms):
            d0, d1, d2, d3 = p[j0] - p[i0], p[j1] - p[i1], p[j2] - p[i2], p[j3] - p[i3]
            new_cost = 0.0
            for k, w in enumerate(weights):
                x = s_new[k] = s[k] + w[i0] * d0 + w[i1] * d1 + w[i2] * d2 + w[i3] * d3
                new_cost += abs(x)
            accepted = metropolis_accept(new_cost, base, t_eff, u)
            if accepted:
                p[i0], p[i1], p[i2], p[i3] = p[j0], p[j1], p[j2], p[j3]
                s, s_new, base = s_new, s, new_cost
                cost, t_eff = new_cost, t_eff * tau
                if new_cost < best_cost:
                    best_cost, best = new_cost, p.copy()
            costs_col.append(cost)
            accepts.append(accepted)
            if best_cost < eps:
                break
        walk._finish(cost, t_eff, best_cost, best)
    return np.array(walk.best[:d]), walk.trace()
