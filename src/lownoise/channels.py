"""Multi-parameter low-noise channels in Kraus form.

A channel here is a family of completely positive trace-preserving maps
indexed by a vector of small non-negative noise strengths eps = (eps_1,
..., eps_D).  Its Kraus data are plain arrays.  The jump operators form a
(K, N, N) stack M with a (K,) parameter index: jump k enters with weight
eps[params[k]].  The identity-like family reduces to kappa * 1 at eps = 0
and comes in one of two kinds:

- explicit affine data: (I,) weights kappa_i and an (I, D, N, N) linear
  stack L, giving the operators kappa_i * 1 - sum_mu eps_mu L[i, mu];
- otherwise the square-root completion, the single operator
  exp(-i sum eps_mu G_mu) sqrt(1 - sum eps_mu S_mu), with S_mu the
  dissipator sums of the jump stack and G_mu an optional (D, N, N) stack
  of Hermitian generators (none means all zero).

Both kinds have an exact eps-derivative; ``LowNoiseChannel.evaluate``
returns the output state, its derivatives and the completeness residual
from one evaluation of the Kraus operators.  Evaluation takes one noise
vector of shape (D,) or a stack of B of them, shape (B, D): a stack is
evaluated in one pass, with one stacked eigensolve per Hermitian argument,
and the results carry a leading B axis.  One noise vector is the one-row
stack.

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
    StepTooLarge,
    TPCPViolation,
)
from .linalg import dagger, eigensolve, frobenius, hermiticity_residual, require_hermitian

TRACE_TOL = 1e-8
POSITIVITY_TOL = 1e-12


# ---------------------------------------------------------------------------
# density-matrix helpers


def pure_state_density(vec: np.ndarray) -> np.ndarray:
    vec = np.asarray(vec, dtype=complex).reshape(-1)
    if abs(np.linalg.norm(vec) - 1.0) > 1e-12:
        raise ConfigInvalid("state vector must be normalized")
    return np.outer(vec, vec.conj())


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


class ChannelEvaluation(NamedTuple):
    """Channel output at a noise point, with its exact eps-derivatives.

    derivatives[mu] is d channel[rho] / d eps_mu, shape (D, N, N);
    tpcp_residual is the Frobenius deviation of the Kraus completeness sum
    from the identity.  For a (B, D) stack of noise points every field
    carries a leading B axis: output (B, N, N), derivatives (B, D, N, N)
    and tpcp_residual (B,).  A NamedTuple rather than a frozen dataclass:
    it is as immutable and costs a fifth of the time to define at import.
    """

    output: np.ndarray
    derivatives: np.ndarray
    tpcp_residual: float | np.ndarray


def _at_row(bad: np.ndarray) -> str:
    """Where a check failed in a stack: the first row bad marks, or nothing for one row."""
    if bad.shape[0] == 1:
        return ""
    return f" (row {int(np.argmax(bad))})"


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
    parameter index.  affine = (weights, linear), of shapes (I,) and
    (I, D, N, N), makes the identity family explicit; without it the
    identity family is the square-root completion, and generators is its
    optional (D, N, N) stack of Hermitian G_mu.
    ``sqrt_completion_channel`` builds a completion channel from
    per-parameter lists of jump operators.
    """

    def __init__(
        self,
        dim: int,
        num_params: int,
        jumps,
        params,
        affine: tuple | None = None,
        generators=None,
        validate: bool = True,
    ):
        self.dim = int(dim)
        self.num_params = int(num_params)
        self.jumps = _stack(jumps, (self.dim, self.dim), "jump operators")
        self.params = np.asarray(params, dtype=int).reshape(-1)
        if self.params.shape != self.jumps.shape[:1]:
            raise DimensionMismatch("need one parameter index per jump operator")
        if np.any((self.params < 0) | (self.params >= self.num_params)):
            raise ConfigInvalid("jump parameter index out of range")
        self.weights = self.linear = None
        if affine is not None:
            self.weights = np.asarray(affine[0], dtype=complex).reshape(-1)
            self.linear = _stack(affine[1], (self.num_params, self.dim, self.dim), "linear coefficients")
            if len(self.linear) != len(self.weights):
                raise ConfigInvalid("each identity term needs one weight and one linear coefficient per parameter")
        self.generators = None
        if generators is not None:
            if affine is not None:
                raise ConfigInvalid("generators belong to the square-root completion, not to explicit data")
            self.generators = _stack(generators, (self.dim, self.dim), "generators")
            if len(self.generators) != self.num_params:
                raise ConfigInvalid("need one Hermitian generator per parameter")
        self._gram = dagger(self.jumps) @ self.jumps
        # S_mu = sum of M_k^dag M_k over the jumps of parameter mu, summed in stack order
        self._sums = np.zeros((self.num_params, self.dim, self.dim), dtype=complex)
        for mu, gram in zip(self.params, self._gram):
            self._sums[mu] += gram
        if validate:
            self._validate()

    # -- validation ---------------------------------------------------------

    def _validate(self) -> None:
        if self.linear is not None:
            # with affine identity terms the eps = 0 map is sum |kappa|^2 times the
            # identity, so this weight check is the identity-limit check
            wsum = float(np.sum(np.abs(self.weights) ** 2))
            if abs(wsum - 1.0) > 1e-12:
                raise InconsistentKrausData(f"identity-term weights give sum |kappa|^2 = {wsum!r}")
            for mu in range(self.num_params):
                self.hamiltonian_generator(mu)
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
        # First-order trace preservation at three scales.  The completion is
        # trace-preserving to rounding; explicit data get a second-order
        # allowance sized by the operator norms of their linear stack.
        nmax, count = 0.0, 1
        if self.linear is not None:
            nmax = float(np.max(np.linalg.norm(self.linear, 2, axis=(-2, -1))))
            count = len(self.weights)
        quad = 10.0 * (1.0 + nmax + count) ** 2
        scales = (1e-6, 1e-4, 1e-2)
        residuals = self.tpcp_residual([[s / self.num_params] * self.num_params for s in scales])
        for s, residual in zip(scales, residuals):
            if residual > 1e-10 + quad * s * s:
                raise TPCPViolation(f"trace-preservation residual too large at scale {s:g}")

    # -- evaluation ---------------------------------------------------------

    def _identity_kraus(self, eps: np.ndarray, with_derivative: bool = False):
        """Identity-family Kraus operators on a validated (B, D) stack eps.

        Returns (ops, dops): ops has shape (I, B, N, N) and
        dops[i][..., mu, :, :] = d ops[i] / d eps_mu, shape (I, B, D, N, N),
        or (I, D, N, N) for explicit affine data; dops is None unless asked
        for.  The square-root completion (I = 1) makes one stacked
        eigensolve of its B completion arguments and one of its B generator
        sums, and differentiates sqrt and exp(-i .) by the Daleckii-Krein
        formula in their eigenbases (Bhatia, Matrix Analysis, Thm V.3.3).
        """
        if self.linear is not None:
            ops = self.weights[:, None, None, None] * np.eye(self.dim, dtype=complex)
            for mu in range(self.num_params):
                ops = ops - eps[:, mu, None, None] * self.linear[:, None, mu]
            return ops, -self.linear if with_derivative else None
        arg = np.eye(self.dim, dtype=complex)
        for mu in range(self.num_params):
            arg = arg - eps[:, mu, None, None] * self._sums[mu]
        a, va = eigensolve((arg + dagger(arg)) / 2)
        negative = a[:, 0] < -POSITIVITY_TOL
        if negative.any():
            low = a[np.argmax(negative), 0]
            raise TPCPViolation(
                f"completion argument has negative eigenvalue {low:g}; eps outside validity region" + _at_row(negative)
            )
        root = np.sqrt(np.clip(a, 0.0, None))
        k0 = (va * root[:, None, :]) @ dagger(va)
        dk0 = None
        if with_derivative:
            denom = root[:, :, None] + root[:, None, :]
            singular = (denom <= 0.0).any(axis=(1, 2))
            if singular.any():
                raise TPCPViolation(
                    "completion argument is singular; its square root has no derivative" + _at_row(singular)
                )
            dk0 = [-(va @ ((dagger(va) @ s @ va) / denom) @ dagger(va)) for s in self._sums]
        if self.generators is not None:
            htot = sum(eps[:, mu, None, None] * g for mu, g in enumerate(self.generators))
            h, vh = eigensolve(htot)
            unitary = (vh * np.exp(-1j * h)[:, None, :]) @ dagger(vh)
            if with_derivative:
                # divided differences of exp(-i h): -i exp(-i (h_i + h_j)/2) sinc((h_i - h_j)/2)
                hi, hj = h[:, :, None], h[:, None, :]
                kernel = -1j * np.exp(-0.5j * (hi + hj)) * np.sinc((hi - hj) / (2 * np.pi))
                dk0 = [
                    vh @ ((dagger(vh) @ g @ vh) * kernel) @ dagger(vh) @ k0 + unitary @ d
                    for g, d in zip(self.generators, dk0)
                ]
            k0 = unitary @ k0
        return k0[None], None if dk0 is None else np.stack(dk0, axis=1)[None]

    def _check_state(self, rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (self.dim, self.dim):
            raise DimensionMismatch(f"state has shape {rho.shape}, channel dimension {self.dim}")
        return rho

    def apply(self, rho: np.ndarray, eps, kraus=None) -> np.ndarray:
        """Output state of the channel at noise vector eps, or at each row of a (B, D) stack.

        kraus is the identity-family Kraus operators that ``_identity_kraus``
        built for the (B, D) stack eps, which the caller has validated
        (``evaluate`` passes its own); the output then has shape (B, N, N).
        Without kraus, eps is validated and the operators are built here.
        """
        single = False
        if kraus is None:
            eps, single = _validate_eps(eps, self.num_params)
            kraus = self._identity_kraus(eps)[0]
        rho = self._check_state(rho)
        jumps = eps[:, self.params, None, None] * (self.jumps @ rho @ dagger(self.jumps))
        out = _summed([*(kraus @ rho @ dagger(kraus)), *jumps.swapaxes(0, 1)], (eps.shape[0],) + rho.shape)
        drift = np.abs(np.trace(out, axis1=1, axis2=2) - np.trace(rho))
        off = drift > TRACE_TOL
        if off.any():
            raise TPCPViolation(
                f"output trace deviates by {drift[np.argmax(off)]:g}; eps outside validity region" + _at_row(off)
            )
        return out[0] if single else out

    def tpcp_residual(self, eps, kraus=None) -> float | np.ndarray:
        """Frobenius deviation of the Kraus completeness sum from the identity.

        A float at one noise vector, one per row of a (B, D) stack; kraus
        is as for ``apply``, and with it the result is the (B,) array.
        """
        single = False
        if kraus is None:
            eps, single = _validate_eps(eps, self.num_params)
            kraus = self._identity_kraus(eps)[0]
        jumps = eps[:, self.params, None, None] * self._gram
        acc = _summed([*(dagger(kraus) @ kraus), *jumps.swapaxes(0, 1)], (eps.shape[0], self.dim, self.dim))
        residuals = np.array([frobenius(r) for r in acc - np.eye(self.dim)])
        return float(residuals[0]) if single else residuals

    def evaluate(self, rho: np.ndarray, eps) -> ChannelEvaluation:
        """Output state, exact d channel[rho] / d eps_mu and completeness residual at eps.

        eps is one noise vector (D,) or a stack (B, D); see
        ``ChannelEvaluation`` for the shapes.  One Kraus evaluation serves
        all three: eps is validated once, and ``apply`` and
        ``tpcp_residual`` get the operators built here.
        """
        eps, single = _validate_eps(eps, self.num_params)
        rho = self._check_state(rho)
        ops, dops = self._identity_kraus(eps, with_derivative=True)
        output = self.apply(rho, eps, kraus=ops)
        derivatives = np.zeros((eps.shape[0], self.num_params) + rho.shape, dtype=complex)
        for k, d in zip(ops, dops):
            derivatives = derivatives + d @ rho @ dagger(k)[:, None] + k[:, None] @ rho @ dagger(d)
        for mu, image in zip(self.params, self.jumps @ rho @ dagger(self.jumps)):
            derivatives[:, mu] += image
        residuals = self.tpcp_residual(eps, kraus=ops)
        if single:
            return ChannelEvaluation(output[0], derivatives[0], float(residuals[0]))
        return ChannelEvaluation(output, derivatives, residuals)

    # -- derivatives at zero --------------------------------------------------

    def hamiltonian_generator(self, mu: int) -> np.ndarray:
        """Hermitian generator of the unitary part of the first-order motion.

        For the square-root completion this is G_mu (zero without
        generators).  For explicit data it is i (S_mu / 2 - sum_i
        conj(kappa_i) L[i, mu]), which must be Hermitian.
        """
        if self.linear is None:
            if self.generators is None:
                return np.zeros((self.dim, self.dim), dtype=complex)
            return self.generators[mu]
        x = np.tensordot(np.conj(self.weights), self.linear[:, mu], axes=1) - 0.5 * self._sums[mu]
        h = -1j * x
        res = hermiticity_residual(h)
        if res > 1e-8:
            raise InconsistentKrausData(
                f"effective Hamiltonian for parameter {mu + 1} has Hermiticity residual {res:g}"
            )
        return (h + dagger(h)) / 2

    def derivative_at_zero(self, mu: int, rho: np.ndarray) -> np.ndarray:
        """First derivative of the output state in eps_mu at eps = 0.

        Lindblad form: dissipation by the parameter's jump operators plus
        commutator motion under the effective Hamiltonian. The result is
        Hermitian and traceless.
        """
        rho = np.asarray(rho, dtype=complex)
        ms = self.jumps[self.params == mu]
        s = self._sums[mu]
        h = self.hamiltonian_generator(mu)
        return np.sum(ms @ rho @ dagger(ms), axis=0) - 0.5 * (s @ rho + rho @ s) - 1j * (h @ rho - rho @ h)

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
                probes = [eps0, eps0 + h * e, eps0 + 2 * h * e]
                for p in probes:
                    if self.tpcp_residual(p) > TRACE_TOL:
                        raise StepTooLarge("probe point violates trace preservation")
                f0 = self.apply(rho, probes[0])
                f1 = self.apply(rho, probes[1])
                f2 = self.apply(rho, probes[2])
                return (4 * f1 - 3 * f0 - f2) / (2 * h)
            probes = [eps0 - h * e, eps0 + h * e]
            for p in probes:
                if self.tpcp_residual(p) > TRACE_TOL:
                    raise StepTooLarge("probe point violates trace preservation")
            return (self.apply(rho, probes[1]) - self.apply(rho, probes[0])) / (2 * h)
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
            affine=None if self.linear is None else (self.weights, np.kron(self.linear, eye)),
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
    validate: bool = True,
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
    return LowNoiseChannel(dim, num_params, jumps, params, generators=generators, validate=validate)


# ---------------------------------------------------------------------------
# config serialization (complex entries as [re, im] pairs)


def matrix_to_json(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def matrix_from_json(data) -> np.ndarray:
    return np.array([[complex(c[0], c[1]) for c in row] for row in data], dtype=complex)


def channel_to_config(ch: LowNoiseChannel) -> dict:
    """JSON-able description of a channel; both kinds round-trip exactly."""
    cfg: dict = {
        "dim": ch.dim,
        "num_params": ch.num_params,
        "builder": "sqrt-completion" if ch.linear is None else "explicit",
        "jump_operators": [
            {"param": int(mu) + 1, "matrix": matrix_to_json(m)} for mu, m in zip(ch.params, ch.jumps)
        ],
    }
    if ch.linear is None:
        if ch.generators is not None:
            cfg["generators"] = [matrix_to_json(g) for g in ch.generators]
    else:
        cfg["identity_terms"] = [
            {
                "weight": [float(w.real), float(w.imag)],
                "linear": [matrix_to_json(n) for n in linear],
            }
            for w, linear in zip(ch.weights, ch.linear)
        ]
    return cfg


def channel_from_config(cfg: dict) -> LowNoiseChannel:
    try:
        dim = int(cfg["dim"])
        num_params = int(cfg["num_params"])
        builder = cfg.get("builder", "explicit")
        raw_jumps = cfg["jump_operators"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigInvalid(f"malformed channel config: {exc}") from exc
    per_param: list[list[np.ndarray]] = [[] for _ in range(num_params)]
    for item in raw_jumps:
        mu = int(item["param"]) - 1
        if not 0 <= mu < num_params:
            raise ConfigInvalid(f"jump operator has parameter index {item['param']}")
        per_param[mu].append(matrix_from_json(item["matrix"]))
    if builder == "sqrt-completion":
        gens = None
        if cfg.get("generators"):
            gens = [matrix_from_json(g) for g in cfg["generators"]]
        return sqrt_completion_channel(per_param, gens)
    if builder != "explicit":
        raise ConfigInvalid(f"unknown builder {builder!r}")
    terms = cfg.get("identity_terms", [])
    weights = [complex(item["weight"][0], item["weight"][1]) for item in terms]
    linear = [[matrix_from_json(n) for n in item["linear"]] for item in terms]
    jumps, params = _jump_stack(per_param)
    return LowNoiseChannel(dim, num_params, jumps, params, affine=(weights, linear))
