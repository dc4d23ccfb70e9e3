"""Multi-parameter low-noise channels in Kraus form.

A channel here is a family of completely positive trace-preserving maps
indexed by a vector of small non-negative noise strengths eps = (eps_1,
..., eps_D).  Its Kraus data are plain arrays.  The jump operators form a
(K, N, N) stack M with a (K,) parameter index: jump k enters with weight
eps[params[k]].  The identity-like family is the square-root completion,
the single operator exp(-i sum eps_mu G_mu) sqrt(1 - sum eps_mu S_mu),
with S_mu the dissipator sums of the jump stack and G_mu an optional
(D, N, N) stack of Hermitian generators (none means all zero).  It is
trace-preserving wherever it exists.

An "explicit" config's identity operators kappa_i * 1 - sum_mu eps_mu
L[i, mu] are read as the completion with their first-order content, the
generators G_mu = i (S_mu / 2 - sum_i conj(kappa_i) L[i, mu]); its output
differs from theirs at second order in eps.

The completion has an exact eps-derivative; ``LowNoiseChannel.evaluate``
returns the output state, its derivatives and the completeness residual
from one evaluation of the Kraus operators.  Evaluation takes one noise
vector of shape (D,) or a stack of B of them, shape (B, D): a stack is
evaluated in one pass, with one stacked eigensolve per Hermitian argument,
and the results carry a leading B axis.  One noise vector is the one-row
stack.

``stack_channels`` makes a channel stack: C channels of one shape (the
same N, D, parameter index and generator presence) whose Kraus data carry
a leading C axis.  Every evaluation indexes the channel data with a
leading ``...``, so one channel is the unstacked case of the same lines:
a stack takes one input state per channel, shape (C, N, N), and row r of
every result, shape (C, B, ...), belongs to channel r.

Channels are immutable after construction and all operations are pure.
"""
from __future__ import annotations

from functools import reduce
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    ConfigInvalid,
    DimensionMismatch,
    InconsistentKrausData,
    NonHermitian,
    StepTooLarge,
    TPCPViolation,
)
from .linalg import dagger, eigensolve, frobenius, hermiticity_residual, require_hermitian

TRACE_TOL = 1e-8
POSITIVITY_TOL = 1e-12


# ---------------------------------------------------------------------------
# density-matrix helpers


def pure_state_density(vec: np.ndarray) -> np.ndarray:
    """|vec><vec| for a normalized state vector, or for each row of a (C, N) stack of them."""
    vec = np.asarray(vec, dtype=complex)
    vec = vec if vec.ndim == 2 else vec.reshape(-1)
    if any(abs(np.linalg.norm(row) - 1.0) > 1e-12 for row in vec.reshape(-1, vec.shape[-1])):
        raise ConfigInvalid("state vector must be normalized")
    return vec[..., :, None] * vec[..., None, :].conj()


# ---------------------------------------------------------------------------
# Kraus data


def _stack(arrays, shape: tuple[int, ...], what: str) -> np.ndarray:
    """arrays as one complex stack of shape (n,) + shape."""
    try:
        out = np.asarray(arrays, dtype=complex)
    except ValueError as exc:
        raise DimensionMismatch(f"{what} must share one shape") from exc
    if out.size == 0:
        out = out.reshape((0,) + shape)
    if out.shape[1:] != shape:
        raise DimensionMismatch(f"{what} have shape {out.shape[1:]}, expected {shape}")
    return out


def _summed(terms, shape: tuple[int, ...]) -> np.ndarray:
    """Zeros plus each term in turn, in order: the reports' bits rest on this order."""
    return reduce(np.add, terms, np.zeros(shape, dtype=complex))


def _terms(stack: np.ndarray) -> list[np.ndarray]:
    """The (..., K, N, N) stack as its K (..., N, N) terms, in order (np.moveaxis costs more per call)."""
    return [stack[..., k, :, :] for k in range(stack.shape[-3])]


def _param_sums(gram: np.ndarray, params: np.ndarray, num_params: int) -> np.ndarray:
    """S_mu, the sum of the (K, N, N) stack gram = M_k^dag M_k over parameter mu's jumps, in stack order."""
    sums = np.zeros((num_params,) + gram.shape[1:], dtype=complex)
    for mu, g in zip(params, gram):
        sums[mu] += g
    return sums


class ChannelEvaluation(NamedTuple):
    """Channel output at a noise point, with its exact eps-derivatives.

    derivatives[mu] is d channel[rho] / d eps_mu, shape (D, N, N);
    tpcp_residual is the Frobenius deviation of the Kraus completeness sum
    from the identity.  For a (B, D) stack of noise points every field
    carries a leading B axis: output (B, N, N), derivatives (B, D, N, N)
    and tpcp_residual (B,); a channel stack puts its C axis before it.  A
    NamedTuple rather than a frozen dataclass: it is as immutable and
    costs a fifth of the time to define at import.
    """

    output: np.ndarray
    derivatives: np.ndarray
    tpcp_residual: float | np.ndarray


def _at_row(bad: np.ndarray) -> str:
    """Where a check failed: the first (channel, noise point) bad marks, over a (B,) or (C, B) mask.

    An axis of length one is not named, so one noise point of one channel names nothing.
    """
    where = np.unravel_index(np.argmax(bad), bad.shape)
    names = ("channel", "row")[2 - bad.ndim :]
    named = [f"{name} {int(i)}" for name, i, n in zip(names, where, bad.shape) if n > 1]
    return f" ({', '.join(named)})" if named else ""


def _one_point(residuals: np.ndarray) -> float | np.ndarray:
    """The residuals at one noise vector: a float for one channel, one per channel for a stack."""
    return float(residuals) if residuals.ndim == 0 else residuals


def _validate_eps(eps, num_params: int) -> tuple[np.ndarray, bool]:
    """eps as a (B, D) stack, and whether it was one (D,) noise vector.

    One pass over the whole stack; an error in a stack of several rows
    names the first offending row.
    """
    eps = np.asarray(eps, dtype=float)
    single = eps.ndim < 2
    if single:
        eps = eps.reshape(1, -1)
    elif eps.ndim > 2:
        raise DimensionMismatch(f"noise parameters must have shape (D,) or (B, D), got {eps.shape}")
    if eps.shape[1] != num_params:
        raise DimensionMismatch(f"expected {num_params} noise parameters, got {eps.shape[1]}")
    finite = np.isfinite(eps).all(axis=1)
    if not finite.all():
        raise ConfigInvalid("noise parameters must be finite" + _at_row(~finite))
    negative = (eps < 0).any(axis=1)
    if negative.any():
        raise ConfigInvalid("noise parameters must be non-negative" + _at_row(negative))
    return eps, single


class LowNoiseChannel:
    """A D-parameter dissipative low-noise channel on an N-dimensional system.

    jumps is the (K, N, N) jump stack and params its (K,) 0-based
    parameter index.  The identity family is the square-root completion,
    and generators is its optional (D, N, N) stack of Hermitian G_mu.
    ``sqrt_completion_channel`` builds a completion channel from
    per-parameter lists of jump operators.  Every channel is validated on
    construction: non-vanishing and non-proportional jumps, and trace
    preservation.
    """

    def __init__(
        self,
        dim: int,
        num_params: int,
        jumps,
        params,
        generators=None,
    ):
        self.dim = int(dim)
        self.num_params = int(num_params)
        if self.num_params < 1:
            raise ConfigInvalid(f"a channel needs at least one noise parameter, got {self.num_params}")
        self.jumps = _stack(jumps, (self.dim, self.dim), "jump operators")
        self.params = np.asarray(params, dtype=int).reshape(-1)
        if self.params.shape != self.jumps.shape[:1]:
            raise DimensionMismatch("need one parameter index per jump operator")
        if np.any((self.params < 0) | (self.params >= self.num_params)):
            raise ConfigInvalid("jump parameter index out of range")
        self.generators = None
        if generators is not None:
            self.generators = _stack(generators, (self.dim, self.dim), "generators")
            if len(self.generators) != self.num_params:
                raise ConfigInvalid("need one Hermitian generator per parameter")
        self._gram = dagger(self.jumps) @ self.jumps
        self._sums = _param_sums(self._gram, self.params, self.num_params)
        self._validate()

    # -- validation ---------------------------------------------------------

    def _validate(self) -> None:
        norms = np.linalg.norm(self.jumps, axis=(1, 2))
        if np.any(norms == 0.0):
            raise ConfigInvalid("jump operators must be non-vanishing")
        overlaps = np.abs(np.einsum("kij,lij->kl", self.jumps.conj(), self.jumps))
        same_param = np.triu(self.params[:, None] == self.params[None, :], 1)
        proportional = same_param & (np.abs(overlaps - np.outer(norms, norms)) < 1e-12)
        if proportional.any():
            k, l = np.argwhere(proportional)[0]
            raise ConfigInvalid(
                f"jump operators {k} and {l} of parameter {self.params[k] + 1} are proportional"
            )
        # trace preservation at three scales, which the completion keeps to rounding
        scales = (1e-6, 1e-4, 1e-2)
        residuals = self.tpcp_residual([[s / self.num_params] * self.num_params for s in scales])
        for s, residual in zip(scales, residuals):
            if residual > 1e-10 + 40.0 * s * s:
                raise TPCPViolation(f"trace-preservation residual too large at scale {s:g}")

    # -- evaluation ---------------------------------------------------------

    def _identity_kraus(self, eps: np.ndarray, with_derivative: bool = False):
        """The completion operator K at each row of a validated (B, D) stack eps.

        Returns (ops, dops): ops has shape (B, N, N) and dops[:, mu] =
        d K / d eps_mu, shape (B, D, N, N); dops is None unless asked for.
        A stack's operators carry its C axis first.  One stacked eigensolve
        of the completion arguments and one of the generator sums; sqrt and
        exp(-i .) are differentiated by the Daleckii-Krein formula in their
        eigenbases (Bhatia, Matrix Analysis, Thm V.3.3).
        """
        sums = self._sums[..., None, :, :, :]  # (..., 1, D, N, N): broadcast over the B points
        arg = np.eye(self.dim, dtype=complex)
        for mu in range(self.num_params):
            arg = arg - eps[:, mu, None, None] * sums[..., mu, :, :]
        a, va = eigensolve((arg + dagger(arg)) / 2)
        negative = a[..., 0] < -POSITIVITY_TOL
        if negative.any():
            low = a[..., 0][negative][0]
            raise TPCPViolation(
                f"completion argument has negative eigenvalue {low:g}; eps outside validity region" + _at_row(negative)
            )
        root = np.sqrt(np.clip(a, 0.0, None))
        k0 = (va * root[..., None, :]) @ dagger(va)
        dk0 = None
        if with_derivative:
            denom = root[..., :, None] + root[..., None, :]
            singular = (denom <= 0.0).any(axis=(-2, -1))
            if singular.any():
                raise TPCPViolation(
                    "completion argument is singular; its square root has no derivative" + _at_row(singular)
                )
            dk0 = [
                -(va @ ((dagger(va) @ sums[..., mu, :, :] @ va) / denom) @ dagger(va)) for mu in range(self.num_params)
            ]
        if self.generators is not None:
            gens = self.generators[..., None, :, :, :]
            htot = sum(eps[:, mu, None, None] * gens[..., mu, :, :] for mu in range(self.num_params))
            h, vh = eigensolve(htot)
            unitary = (vh * np.exp(-1j * h)[..., None, :]) @ dagger(vh)
            if with_derivative:
                # divided differences of exp(-i h): -i exp(-i (h_i + h_j)/2) sinc((h_i - h_j)/2)
                hi, hj = h[..., :, None], h[..., None, :]
                kernel = -1j * np.exp(-0.5j * (hi + hj)) * np.sinc((hi - hj) / (2 * np.pi))
                dk0 = [
                    vh @ ((dagger(vh) @ gens[..., mu, :, :] @ vh) * kernel) @ dagger(vh) @ k0 + unitary @ d
                    for mu, d in enumerate(dk0)
                ]
            k0 = unitary @ k0
        return k0, None if dk0 is None else np.stack(dk0, axis=-3)

    def _check_state(self, rho: np.ndarray) -> np.ndarray:
        """rho as a complex (N, N) state, or one per channel of a stack."""
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != self.jumps.shape[:-3] + (self.dim, self.dim):
            raise DimensionMismatch(f"state has shape {rho.shape}, channel dimension {self.dim}")
        return rho

    def apply(self, rho: np.ndarray, eps, kraus=None) -> np.ndarray:
        """Output state of the channel at noise vector eps, or at each row of a (B, D) stack.

        kraus is the pair ``evaluate`` builds for the (B, D) stack eps and
        the state it has checked: ``_identity_kraus``'s operators and the
        jump images M_k rho M_k^dag; the output then has shape (B, N, N).
        Without kraus, eps and rho are checked and both are built here.
        """
        single = False
        if kraus is None:
            eps, single = _validate_eps(eps, self.num_params)
            ops, rho = self._identity_kraus(eps)[0], self._check_state(rho)
            kraus = ops, self.jumps @ rho[..., None, :, :] @ dagger(self.jumps)
        ops, images = kraus
        rho = rho[..., None, :, :]  # broadcast over the B points
        jumps = eps[:, self.params, None, None] * images[..., None, :, :, :]
        out = _summed([ops @ rho @ dagger(ops), *_terms(jumps)], ops.shape)
        drift = np.abs(np.trace(out, axis1=-2, axis2=-1) - np.trace(rho, axis1=-2, axis2=-1))
        off = drift > TRACE_TOL
        if off.any():
            raise TPCPViolation(
                f"output trace deviates by {drift[off][0]:g}; eps outside validity region" + _at_row(off)
            )
        return out[..., 0, :, :] if single else out

    def tpcp_residual(self, eps, kraus=None) -> float | np.ndarray:
        """Frobenius deviation of the Kraus completeness sum from the identity.

        A float at one noise vector, one per row of a (B, D) stack; kraus
        is the operators of ``apply``'s pair, and with it a (B,) array.
        """
        single = False
        if kraus is None:
            eps, single = _validate_eps(eps, self.num_params)
            kraus = self._identity_kraus(eps)[0]
        jumps = eps[:, self.params, None, None] * self._gram[..., None, :, :, :]
        acc = _summed([dagger(kraus) @ kraus, *_terms(jumps)], kraus.shape)
        residuals = frobenius(acc - np.eye(self.dim))
        return _one_point(residuals[..., 0]) if single else residuals

    def evaluate(self, rho: np.ndarray, eps) -> ChannelEvaluation:
        """Output state, exact d channel[rho] / d eps_mu and completeness residual at eps.

        eps is one noise vector (D,) or a stack (B, D); see
        ``ChannelEvaluation`` for the shapes.  One Kraus evaluation serves
        all three: eps is validated once, ``apply`` and ``tpcp_residual`` get
        the operators built here; ``apply`` and the derivatives share the jump images.
        """
        eps, single = _validate_eps(eps, self.num_params)
        rho = self._check_state(rho)
        ops, dops = self._identity_kraus(eps, with_derivative=True)
        images = self.jumps @ rho[..., None, :, :] @ dagger(self.jumps)
        output = self.apply(rho, eps, kraus=(ops, images))
        point = rho[..., None, None, :, :]  # broadcast over the B points and D parameters
        derivatives = np.zeros(dops.shape, dtype=complex) + dops @ point @ dagger(ops)[..., None, :, :]
        derivatives = derivatives + ops[..., None, :, :] @ point @ dagger(dops)
        for mu, image in zip(self.params, _terms(images)):
            derivatives[..., mu, :, :] += image[..., None, :, :]
        residuals = self.tpcp_residual(eps, kraus=ops)
        if single:
            return ChannelEvaluation(output[..., 0, :, :], derivatives[..., 0, :, :, :], _one_point(residuals[..., 0]))
        return ChannelEvaluation(output, derivatives, residuals)

    # -- derivatives at zero --------------------------------------------------

    def hamiltonian_generator(self, mu: int) -> np.ndarray:
        """Hermitian generator of the unitary part of the first-order motion: G_mu, zero without generators."""
        if self.generators is None:
            return np.zeros((self.dim, self.dim), dtype=complex)
        return self.generators[..., mu, :, :]

    def derivative_at_zero(self, mu: int, rho: np.ndarray) -> np.ndarray:
        """First derivative of the output state in eps_mu at eps = 0.

        Lindblad form: dissipation by the parameter's jump operators plus
        commutator motion under the effective Hamiltonian. The result is
        Hermitian and traceless; a stack gives one per channel.
        """
        rho = np.asarray(rho, dtype=complex)
        ms = self.jumps[..., self.params == mu, :, :]
        s = self._sums[..., mu, :, :]
        h = self.hamiltonian_generator(mu)
        dissipation = np.sum(ms @ rho[..., None, :, :] @ dagger(ms), axis=-3) - 0.5 * (s @ rho + rho @ s)
        return dissipation - 1j * (h @ rho - rho @ h)

    def finite_difference_derivative(self, rho: np.ndarray, mu: int, eps0, h: float) -> np.ndarray:
        """Second-order finite difference of eps -> channel[rho] along parameter mu.

        An independent reference for ``evaluate``'s derivatives.  Uses a one-sided
        stencil at the eps_mu = 0 boundary (the noise parameters cannot go
        negative) and a central stencil inside.
        """
        eps0 = _validate_eps(eps0, self.num_params)[0][0]
        if h <= 0:
            raise StepTooLarge("step must be positive")
        e = np.zeros_like(eps0)
        e[mu] = 1.0
        try:
            if eps0[mu] < h:
                f0 = self.apply(rho, eps0)
                f1 = self.apply(rho, eps0 + h * e)
                f2 = self.apply(rho, eps0 + 2 * h * e)
                return (4 * f1 - 3 * f0 - f2) / (2 * h)
            return (self.apply(rho, eps0 + h * e) - self.apply(rho, eps0 - h * e)) / (2 * h)
        except TPCPViolation as exc:
            raise StepTooLarge(str(exc)) from exc

    # -- extension ------------------------------------------------------------

    def ancilla_extend(self) -> "LowNoiseChannel":
        """Extend to system + same-size ancilla, acting trivially on the ancilla."""
        eye = np.eye(self.dim, dtype=complex)
        return LowNoiseChannel(
            self.dim**2,
            self.num_params,
            np.kron(self.jumps, eye),
            self.params,
            generators=None if self.generators is None else np.kron(self.generators, eye),
        )


# ---------------------------------------------------------------------------
# builders


def _jump_stack(per_param: Sequence[Sequence[np.ndarray]]) -> tuple[list, list[int]]:
    """Per-parameter lists of jump operators as a jump list and its parameter index."""
    return [m for ms in per_param for m in ms], [mu for mu, ms in enumerate(per_param) for _ in ms]


def sqrt_completion_channel(
    jump_operators: Sequence[Sequence[np.ndarray]],
    generators: Sequence[np.ndarray] | None = None,
) -> LowNoiseChannel:
    """Build an exactly trace-preserving channel from jump operators alone.

    jump_operators[mu] lists the jump operators of parameter mu+1. The single
    identity-family operator is exp(-i sum eps_mu G_mu) times the principal
    square root of (1 - sum_mu eps_mu sum_a M^dag M), which cancels the jump
    contribution in the completeness sum exactly for eps inside the
    positivity region.
    """
    num_params = len(jump_operators)
    if num_params == 0 or any(len(ms) == 0 for ms in jump_operators):
        raise ConfigInvalid("need at least one jump operator per parameter")
    dim = np.asarray(jump_operators[0][0]).shape[0]
    jumps, params = _jump_stack(jump_operators)
    if generators is not None:
        generators = [require_hermitian(np.asarray(g, dtype=complex), 1e-10) for g in generators]
    return LowNoiseChannel(dim, num_params, jumps, params, generators=generators)


def _shape(ch: LowNoiseChannel) -> tuple:
    """What the channels of one stack share: dimension, parameter count, jump parameter index, generator presence."""
    return ch.dim, ch.num_params, ch.params.tolist(), ch.generators is None


def stack_channels(channels: Sequence[LowNoiseChannel]) -> LowNoiseChannel:
    """C channels of one shape as one channel stack, whose Kraus data carry a leading C axis.

    One shape means the same dimension, parameter count, jump parameter
    index and generator presence; DimensionMismatch unless every channel
    has the first's and none is itself a stack.  Row r of every result the
    stack gives belongs to channels[r].  A stack evaluates (``evaluate``,
    ``apply``, ``tpcp_residual``, ``derivative_at_zero``); its other
    methods take one channel.  Each channel was validated when it was
    built, so the stack reads their data and validates nothing again.
    """
    if not channels:
        raise DimensionMismatch("a channel stack needs at least one channel")
    first = channels[0]
    for r, ch in enumerate(channels):
        if ch.jumps.ndim != 3 or _shape(ch) != _shape(first):
            raise DimensionMismatch(f"channel {r} does not have the shape of channel 0, or is itself a stack")
    stack = object.__new__(LowNoiseChannel)
    stack.dim, stack.num_params, stack.params = first.dim, first.num_params, first.params
    stack.jumps = np.stack([ch.jumps for ch in channels])
    stack.generators = None if first.generators is None else np.stack([ch.generators for ch in channels])
    stack._gram = np.stack([ch._gram for ch in channels])
    stack._sums = np.stack([ch._sums for ch in channels])
    return stack


# ---------------------------------------------------------------------------
# config serialization (complex entries as [re, im] pairs)


def matrix_to_json(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def matrix_from_json(data) -> np.ndarray:
    m = np.array([[complex(c[0], c[1]) for c in row] for row in data], dtype=complex)
    if not np.isfinite(m).all():
        raise ConfigInvalid("matrix entries must be finite")
    return m


def _explicit_channel(dim: int, num_params: int, per_param, weights, linear) -> LowNoiseChannel:
    """The completion that explicit identity data kappa_i (I,) and L[i, mu] (I, D, N, N) define at first order.

    sum |kappa|^2 must be 1 and each G_mu = i (S_mu / 2 - sum_i conj(kappa_i) L[i, mu])
    Hermitian; the channel has no generators if every G_mu vanishes.  A parameter may have no jump.
    """
    jumps, params = _jump_stack(per_param)
    jumps = _stack(jumps, (dim, dim), "jump operators")
    weights = np.asarray(weights, dtype=complex).reshape(-1)
    linear = _stack(linear, (num_params, dim, dim), "linear coefficients")
    if len(linear) != len(weights):
        raise ConfigInvalid("each identity term needs one weight and one linear coefficient per parameter")
    wsum = float(np.sum(np.abs(weights) ** 2))
    if abs(wsum - 1.0) > 1e-12:
        raise InconsistentKrausData(f"identity-term weights give sum |kappa|^2 = {wsum!r}")
    sums = _param_sums(dagger(jumps) @ jumps, params, num_params)
    generators = np.zeros((num_params, dim, dim), dtype=complex)
    for mu in range(num_params):
        h = -1j * (np.tensordot(np.conj(weights), linear[:, mu], axes=1) - 0.5 * sums[mu])
        res = hermiticity_residual(h)
        if res > 1e-8:
            raise InconsistentKrausData(
                f"effective Hamiltonian for parameter {mu + 1} has Hermiticity residual {res:g}"
            )
        generators[mu] = (h + dagger(h)) / 2
    return LowNoiseChannel(dim, num_params, jumps, params, generators=generators if generators.any() else None)


def channel_to_config(ch: LowNoiseChannel) -> dict:
    """JSON-able description of a channel as its completion; ``channel_from_config`` reads it back."""
    cfg: dict = {
        "dim": ch.dim,
        "num_params": ch.num_params,
        "builder": "sqrt-completion",
        "jump_operators": [
            {"param": int(mu) + 1, "matrix": matrix_to_json(m)} for mu, m in zip(ch.params, ch.jumps)
        ],
    }
    if ch.generators is not None:
        cfg["generators"] = [matrix_to_json(g) for g in ch.generators]
    return cfg


def channel_from_config(cfg: dict) -> LowNoiseChannel:
    """Inverse of ``channel_to_config``; ConfigInvalid if the config describes no valid dim-level channel."""
    try:
        dim = int(cfg["dim"])
        num_params = int(cfg["num_params"])
        builder = cfg.get("builder", "explicit")
        per_param: list[list[np.ndarray]] = [[] for _ in range(num_params)]
        for item in cfg["jump_operators"]:
            mu = int(item["param"]) - 1
            if not 0 <= mu < num_params:
                raise ConfigInvalid(f"jump operator has parameter index {item['param']}")
            per_param[mu].append(matrix_from_json(item["matrix"]))
        gens = [matrix_from_json(g) for g in cfg.get("generators") or []] or None
        terms = cfg.get("identity_terms", [])
        weights = [complex(item["weight"][0], item["weight"][1]) for item in terms]
        linear = [[matrix_from_json(n) for n in item["linear"]] for item in terms]
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ConfigInvalid(f"malformed channel config: {exc}") from exc
    if not np.isfinite(weights).all():
        raise ConfigInvalid("identity-term weights must be finite")
    if builder not in ("sqrt-completion", "explicit"):
        raise ConfigInvalid(f"unknown builder {builder!r}")
    try:
        if builder == "sqrt-completion":
            # built directly, not through sqrt_completion_channel: a parameter may have no jump
            jumps, params = _jump_stack(per_param)
            gens = None if gens is None else [require_hermitian(g, 1e-10) for g in gens]
            channel = LowNoiseChannel(dim, num_params, jumps, params, generators=gens)
        elif gens is not None:
            raise ConfigInvalid("generators belong to the square-root completion, not to explicit data")
        else:
            channel = _explicit_channel(dim, num_params, per_param, weights, linear)
    except (DimensionMismatch, InconsistentKrausData, NonHermitian, TPCPViolation) as exc:
        raise ConfigInvalid(f"channel config: {type(exc).__name__}: {exc}") from exc
    return channel
