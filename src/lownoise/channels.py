"""Multi-parameter low-noise channels in Kraus form.

A channel here is a family of completely positive trace-preserving maps
indexed by a vector of small non-negative noise strengths eps = (eps_1,
..., eps_D).  Two Kraus families enter: identity-like terms that reduce
to kappa * 1 at eps = 0, and jump (dissipator) terms whose contribution
is weighted linearly by the corresponding eps component.

A channel is plain data: explicit channels are affine in eps, and
square-root-completion channels evaluate their single identity-family
operator in closed form from the generators and dissipator sums.  Both
have an exact eps-derivative; ``LowNoiseChannel.evaluate`` returns the
output state, its derivatives and the completeness residual from one
evaluation of the Kraus operators.  Evaluation takes one noise vector of
shape (D,) or a stack of B of them, shape (B, D): a stack is evaluated in
one pass, with one stacked eigensolve per Hermitian argument, and the
results carry a leading B axis.  One noise vector is the one-row stack.

Channels are immutable after construction and all operations are pure.
"""
from __future__ import annotations

from dataclasses import dataclass
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
# Kraus terms


@dataclass(frozen=True)
class IdentityKrausTerm:
    """Kraus operator of the affine form weight * 1 - sum_mu eps_mu linear[mu]."""

    weight: complex
    linear: tuple[np.ndarray, ...]

    def evaluate(self, eps: np.ndarray) -> np.ndarray:
        """The operator at each row of a (B, D) stack of noise points, shape (B, N, N)."""
        dim = self.linear[0].shape[0]
        out = self.weight * np.eye(dim, dtype=complex)
        for mu, n_mu in enumerate(self.linear):
            out = out - eps[:, mu, None, None] * n_mu
        return out


@dataclass(frozen=True)
class JumpKrausTerm:
    """Kraus operator base, entering with weight eps[param]."""

    param: int  # 0-based parameter index
    base: np.ndarray


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

    Use the module-level builders ``explicit_channel`` and
    ``sqrt_completion_channel`` rather than the constructor.

    For the ``"sqrt-completion"`` builder, ``identity_terms`` holds the
    first-order data (weight 1, linear[mu] = S_mu / 2 + i G_mu) and the
    identity-family Kraus operator itself is
    exp(-i sum eps_mu G_mu) sqrt(1 - sum eps_mu S_mu), with G_mu the
    ``generators`` (None means all zero) and S_mu the dissipator sums.
    """

    def __init__(
        self,
        dim: int,
        num_params: int,
        identity_terms: Sequence[IdentityKrausTerm],
        jump_terms: Sequence[JumpKrausTerm],
        builder: str = "explicit",
        generators: Sequence[np.ndarray] | None = None,
        validate: bool = True,
    ):
        self.dim = int(dim)
        self.num_params = int(num_params)
        self.identity_terms = tuple(identity_terms)
        self.jump_terms = tuple(jump_terms)
        self.builder = builder
        self.generators = None if generators is None else tuple(generators)
        self._sums = tuple(self.dissipator_sum(mu) for mu in range(self.num_params))
        self._hamiltonians: tuple[np.ndarray, ...] | None = None
        if validate:
            self._validate()

    # -- structure helpers -------------------------------------------------

    def jumps_for(self, mu: int) -> list[np.ndarray]:
        return [t.base for t in self.jump_terms if t.param == mu]

    def jump_counts(self) -> list[int]:
        return [len(self.jumps_for(mu)) for mu in range(self.num_params)]

    def total_jumps(self) -> int:
        return len(self.jump_terms)

    def dissipator_sum(self, mu: int) -> np.ndarray:
        """sum_a M_a^dag M_a over the jump operators of parameter mu."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for m in self.jumps_for(mu):
            out = out + dagger(m) @ m
        return out

    # -- validation ---------------------------------------------------------

    def _validate(self) -> None:
        # With affine identity terms the eps = 0 map is sum |kappa|^2 times the
        # identity, so this weight check is the identity-limit check.
        wsum = sum(abs(t.weight) ** 2 for t in self.identity_terms)
        if abs(wsum - 1.0) > 1e-12:
            raise InconsistentKrausData(f"identity-term weights give sum |kappa|^2 = {wsum!r}")
        for t in self.identity_terms:
            if len(t.linear) != self.num_params:
                raise ConfigInvalid("each identity term needs one linear coefficient per parameter")
        for t in self.jump_terms:
            if not 0 <= t.param < self.num_params:
                raise ConfigInvalid(f"jump term parameter index {t.param} out of range")
            if frobenius(t.base) == 0.0:
                raise ConfigInvalid("jump operators must be non-vanishing")
        for mu in range(self.num_params):
            ms = self.jumps_for(mu)
            for i in range(len(ms)):
                for j in range(i + 1, len(ms)):
                    inner = abs(np.vdot(ms[i], ms[j]))
                    if abs(inner - frobenius(ms[i]) * frobenius(ms[j])) < 1e-12:
                        raise ConfigInvalid(
                            f"jump operators {i} and {j} of parameter {mu + 1} are proportional"
                        )
        # first-order trace preservation, checked via the Hamiltonian split
        self._hamiltonians = tuple(self._hamiltonian(mu) for mu in range(self.num_params))
        nmax = max((np.linalg.norm(n, 2) for t in self.identity_terms for n in t.linear), default=0.0)
        quad = 10.0 * (1.0 + nmax + len(self.identity_terms)) ** 2
        scales = (1e-6, 1e-4, 1e-2)
        residuals = self.tpcp_residual([[s / self.num_params] * self.num_params for s in scales])
        for s, residual in zip(scales, residuals):
            if residual > 1e-10 + quad * s * s:
                raise TPCPViolation(f"trace-preservation residual too large at scale {s:g}")

    # -- evaluation ---------------------------------------------------------

    def _identity_kraus(self, eps: np.ndarray, with_derivative: bool = False):
        """Identity-family Kraus operators on a validated (B, D) stack eps.

        Returns (ops, dops): ops[k] has shape (B, N, N) and
        dops[k][..., mu, :, :] = d ops[k] / d eps_mu, shape (B, D, N, N), or
        (D, N, N) for the affine explicit terms; dops is None unless asked
        for.  The square-root completion makes one stacked eigensolve of
        its B completion arguments and one of its B generator sums, and
        differentiates sqrt and exp(-i .) by the Daleckii-Krein formula in
        their eigenbases (Bhatia, Matrix Analysis, Thm V.3.3).
        """
        if self.builder != "sqrt-completion":
            ops = [t.evaluate(eps) for t in self.identity_terms]
            if not with_derivative:
                return ops, None
            return ops, [-np.asarray(t.linear) for t in self.identity_terms]
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
        return [k0], None if dk0 is None else [np.stack(dk0, axis=1)]

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
        out = np.zeros((eps.shape[0],) + rho.shape, dtype=complex)
        for b in kraus:
            out = out + b @ rho @ dagger(b)
        for t in self.jump_terms:
            out = out + eps[:, t.param, None, None] * (t.base @ rho @ dagger(t.base))
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
        acc = np.zeros((eps.shape[0], self.dim, self.dim), dtype=complex)
        for b in kraus:
            acc = acc + dagger(b) @ b
        for t in self.jump_terms:
            acc = acc + eps[:, t.param, None, None] * (dagger(t.base) @ t.base)
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
        derivatives = np.empty((eps.shape[0], self.num_params) + rho.shape, dtype=complex)
        for mu in range(self.num_params):
            acc = np.zeros_like(output)
            for k, dk in zip(ops, dops):
                d = dk[..., mu, :, :]
                acc = acc + d @ rho @ dagger(k) + k @ rho @ dagger(d)
            for m in self.jumps_for(mu):
                acc = acc + m @ rho @ dagger(m)
            derivatives[:, mu] = acc
        residuals = self.tpcp_residual(eps, kraus=ops)
        if single:
            return ChannelEvaluation(output[0], derivatives[0], float(residuals[0]))
        return ChannelEvaluation(output, derivatives, residuals)

    # -- derivatives at zero --------------------------------------------------

    def _hamiltonian(self, mu: int) -> np.ndarray:
        for t in self.identity_terms:
            if len(t.linear) <= mu:
                raise InconsistentKrausData("identity terms carry no linear coefficients")
        x = np.zeros((self.dim, self.dim), dtype=complex)
        for t in self.identity_terms:
            x = x + np.conj(t.weight) * t.linear[mu]
        x = x - 0.5 * self._sums[mu]
        h = -1j * x
        res = hermiticity_residual(h)
        if res > 1e-8:
            raise InconsistentKrausData(
                f"effective Hamiltonian for parameter {mu + 1} has Hermiticity residual {res:g}"
            )
        return (h + dagger(h)) / 2

    def hamiltonian_generator(self, mu: int) -> np.ndarray:
        """Hermitian generator of the unitary part of the first-order motion."""
        if self._hamiltonians is not None:
            return self._hamiltonians[mu]
        return self._hamiltonian(mu)

    def derivative_at_zero(self, mu: int, rho: np.ndarray) -> np.ndarray:
        """First derivative of the output state in eps_mu at eps = 0.

        Lindblad form: dissipation by the parameter's jump operators plus
        commutator motion under the effective Hamiltonian. The result is
        Hermitian and traceless.
        """
        rho = np.asarray(rho, dtype=complex)
        out = np.zeros_like(rho)
        for m in self.jumps_for(mu):
            md = dagger(m)
            out = out + m @ rho @ md - 0.5 * (md @ m @ rho + rho @ md @ m)
        h = self.hamiltonian_generator(mu)
        out = out - 1j * (h @ rho - rho @ h)
        return out

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

        def lift(x: np.ndarray) -> np.ndarray:
            return np.kron(x, eye)

        return LowNoiseChannel(
            dim=self.dim**2,
            num_params=self.num_params,
            identity_terms=[
                IdentityKrausTerm(weight=t.weight, linear=tuple(lift(n) for n in t.linear))
                for t in self.identity_terms
            ],
            jump_terms=[JumpKrausTerm(param=t.param, base=lift(t.base)) for t in self.jump_terms],
            builder=self.builder,
            generators=None if self.generators is None else [lift(g) for g in self.generators],
        )


# ---------------------------------------------------------------------------
# builders


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
    jumps = []
    for mu, ms in enumerate(jump_operators):
        for m in ms:
            m = np.asarray(m, dtype=complex)
            if m.shape != (dim, dim):
                raise DimensionMismatch("jump operators must share one square shape")
            jumps.append(JumpKrausTerm(param=mu, base=m))
    gens = None
    if generators is not None:
        if len(generators) != num_params:
            raise ConfigInvalid("need one Hermitian generator per parameter")
        gens = [require_hermitian(np.asarray(g, dtype=complex), 1e-10) for g in generators]

    linear = []
    for mu in range(num_params):
        n_mu = 0.5 * sum(dagger(t.base) @ t.base for t in jumps if t.param == mu)
        if gens is not None:
            n_mu = n_mu + 1j * gens[mu]
        linear.append(n_mu)

    return LowNoiseChannel(
        dim=dim,
        num_params=num_params,
        identity_terms=[IdentityKrausTerm(weight=1.0 + 0j, linear=tuple(linear))],
        jump_terms=jumps,
        builder="sqrt-completion",
        generators=gens,
        validate=validate,
    )


def explicit_channel(
    dim: int,
    num_params: int,
    identity_terms: Sequence[IdentityKrausTerm],
    jump_terms: Sequence[JumpKrausTerm],
    validate: bool = True,
) -> LowNoiseChannel:
    """Build a channel from explicitly supplied Kraus data."""
    return LowNoiseChannel(
        dim=dim,
        num_params=num_params,
        identity_terms=identity_terms,
        jump_terms=jump_terms,
        builder="explicit",
        validate=validate,
    )


# ---------------------------------------------------------------------------
# config serialization (complex entries as [re, im] pairs)


def matrix_to_json(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def matrix_from_json(data) -> np.ndarray:
    return np.array([[complex(c[0], c[1]) for c in row] for row in data], dtype=complex)


def channel_to_config(ch: LowNoiseChannel) -> dict:
    """JSON-able description of a channel; both builders round-trip exactly."""
    cfg: dict = {
        "dim": ch.dim,
        "num_params": ch.num_params,
        "builder": ch.builder,
        "jump_operators": [
            {"param": t.param + 1, "matrix": matrix_to_json(t.base)} for t in ch.jump_terms
        ],
    }
    if ch.builder == "sqrt-completion":
        if ch.generators is not None:
            cfg["generators"] = [matrix_to_json(g) for g in ch.generators]
    else:
        cfg["identity_terms"] = [
            {
                "weight": [float(t.weight.real), float(t.weight.imag)],
                "linear": [matrix_to_json(n) for n in t.linear],
            }
            for t in ch.identity_terms
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
    id_terms = []
    for item in cfg.get("identity_terms", []):
        w = complex(item["weight"][0], item["weight"][1])
        linear = tuple(matrix_from_json(n) for n in item["linear"])
        id_terms.append(IdentityKrausTerm(weight=w, linear=linear))
    jump_terms = [
        JumpKrausTerm(param=mu, base=m) for mu in range(num_params) for m in per_param[mu]
    ]
    return explicit_channel(dim, num_params, id_terms, jump_terms)
