"""Worked channel scenarios, a seeded random-channel generator, and configs.

Each scenario bundles a channel, a pure input state, a sweep
configuration, and numerically evaluable closed-form references used by
the verification sweeps.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .channels import (
    LowNoiseChannel,
    channel_from_config,
    channel_to_config,
    matrix_from_json,
    matrix_to_json,
    sqrt_completion_channel,
)
from .errors import ConfigInvalid
from .linalg import dagger, eigensolve
from .spectral import _complement_frame, jump_covariance

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

DEFAULT_SCALES = tuple(np.geomspace(1e-5, 1e-2, 8))


@dataclass(frozen=True)
class SweepConfig:
    """Scale sweep along a fixed positive direction: eps = scale * direction."""

    direction: tuple[float, ...]
    scales: tuple[float, ...] = DEFAULT_SCALES
    seed: int = 7

    def __post_init__(self):
        d = np.asarray(self.direction, dtype=float)
        s = np.asarray(self.scales, dtype=float)
        if not (np.all(np.isfinite(d)) and np.all(np.isfinite(s))):
            raise ConfigInvalid("sweep direction and scales must be finite")
        if d.size == 0 or np.any(d <= 0):
            raise ConfigInvalid("sweep direction components must be positive")
        if abs(float(np.sum(d)) - 1.0) > 1e-9:
            raise ConfigInvalid("sweep direction must sum to 1")
        if s.size == 0:
            raise ConfigInvalid("sweep needs at least one scale")
        if np.any(s <= 0) or np.any(np.diff(s) <= 0):
            raise ConfigInvalid("scales must be positive and strictly increasing")


@dataclass(frozen=True)
class Scenario:
    """A named estimation problem: channel, input, sweep, and references."""

    name: str
    channel: LowNoiseChannel
    input_state: np.ndarray
    sweep: SweepConfig
    closed_forms: dict[str, Callable] = field(default_factory=dict)
    expected_orders: dict[str, tuple[float, float]] = field(default_factory=dict)
    attainment_expected: bool = True
    reference_jinv: Callable[[np.ndarray], np.ndarray] | None = None
    frame: np.ndarray | None = None

    def __post_init__(self):
        num = len(self.sweep.direction)
        if num != self.channel.num_params:
            raise ConfigInvalid(f"sweep direction has {num} components for {self.channel.num_params} noise parameters")


# ---------------------------------------------------------------------------
# three-level two-parameter scenario


def scenario_threelevel(
    m1: np.ndarray | None = None,
    m2: np.ndarray | None = None,
    input_state: np.ndarray | None = None,
    direction: tuple[float, float] = (0.5, 0.5),
    scales=DEFAULT_SCALES,
    seed: int = 7,
) -> Scenario:
    """Two-parameter dissipative channel on a three-level system, one jump each.

    The default jump operators promote the ground level to the excited
    sector two different ways, giving a covariance matrix with nonzero
    off-diagonals and nonzero determinant; the closed-form shift and
    inverse-Fisher references are evaluated from whatever operators are
    supplied.
    """
    if m1 is None:
        m1 = np.zeros((3, 3), dtype=complex)
        m1[1, 0] = 1.0
    if m2 is None:
        m2 = np.zeros((3, 3), dtype=complex)
        m2[1, 0] = 1 / np.sqrt(2)
        m2[2, 0] = 1 / np.sqrt(2)
    phi = (
        np.ones(3, dtype=complex) / np.sqrt(3)
        if input_state is None
        else np.asarray(input_state, dtype=complex)
    )
    phi = phi / np.linalg.norm(phi)
    channel = sqrt_completion_channel([[m1], [m2]])
    dm = jump_covariance(channel, phi, np.ones(2))
    a, d = float(dm[0, 0].real), float(dm[1, 1].real)
    b2 = float((dm[0, 1] * dm[1, 0]).real)
    det = a * d - b2
    if abs(det) < 1e-12:
        raise ConfigInvalid("jump covariance matrix is singular; closed forms undefined")

    def shifts_closed(eps: np.ndarray) -> np.ndarray:
        t = eps[0] * a + eps[1] * d
        root = np.sqrt((eps[0] * a - eps[1] * d) ** 2 + 4 * eps[0] * eps[1] * b2)
        return np.array([0.5 * (t + root), 0.5 * (t - root)])

    def jinv_closed(eps: np.ndarray) -> np.ndarray:
        e1, e2 = float(eps[0]), float(eps[1])
        den = det * (e1 * a - e2 * d) ** 2
        j11 = (e1**3 * a * det + e1**2 * e2 * d * (3 * b2 - 2 * a * d) + e1 * e2**2 * d**3) / den
        j22 = (e2**3 * d * det + e2**2 * e1 * a * (3 * b2 - 2 * a * d) + e2 * e1**2 * a**3) / den
        j12 = -e1 * e2 * (b2 / det) * (e1 * a + e2 * d) / (e1 * a - e2 * d) ** 2
        return np.array([[j11, j12], [j12, j22]])

    sc = Scenario(
        name="three-level",
        channel=channel,
        input_state=phi,
        sweep=SweepConfig(direction=tuple(direction), scales=tuple(scales), seed=seed),
        closed_forms={
            "covariance_elements": lambda: dm,
            "shifts": shifts_closed,
            "jinv": jinv_closed,
        },
        expected_orders={
            "unbiasedness": (1.8, 2.2),
            "mse_vs_divergent_inverse": (1.8, 2.2),
        },
        attainment_expected=True,
    )
    n1, n2 = direction
    if abs(n1 * a - n2 * d) < 1e-9 * (n1 * a + n2 * d):
        raise ConfigInvalid(
            "sweep direction makes the shift-splitting term vanish; "
            "the inverse-Fisher closed forms are singular there - pick another direction"
        )
    return sc


# ---------------------------------------------------------------------------
# two-parameter Pauli scenario (bit flip + phase flip)


def bloch_vector(rho: np.ndarray) -> np.ndarray:
    return np.real(
        np.array(
            [
                np.trace(rho @ SIGMA_X),
                np.trace(rho @ SIGMA_Y),
                np.trace(rho @ SIGMA_Z),
            ]
        )
    )


def density_from_bloch(r: np.ndarray) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    return 0.5 * (np.eye(2, dtype=complex) + r[0] * SIGMA_X + r[1] * SIGMA_Y + r[2] * SIGMA_Z)


def scenario_pauli2(
    input_bloch: np.ndarray | None = None,
    direction: tuple[float, float] = (0.5, 0.5),
    scales=DEFAULT_SCALES,
    seed: int = 7,
) -> Scenario:
    """Qubit channel mixing bit flips (weight eps_1) and phase flips (eps_2).

    Two parameters on a two-level system exceed the attainability
    threshold without an ancilla: the inverse Fisher matrix keeps an O(1)
    eigenvalue as the noise vanishes, so this scenario is the negative
    control.  All Bloch-representation quantities are exactly solvable.
    """
    r = (
        np.ones(3) / np.sqrt(3)
        if input_bloch is None
        else np.asarray(input_bloch, dtype=float)
    )
    if abs(np.linalg.norm(r) - 1.0) > 1e-12:
        raise ConfigInvalid("input Bloch vector must be a unit vector (pure state)")
    channel = sqrt_completion_channel([[SIGMA_X], [SIGMA_Z]])

    dy = (
        np.array([0.0, -2 * r[1], -2 * r[2]]),
        np.array([-2 * r[0], -2 * r[1], 0.0]),
    )

    def output_bloch(eps: np.ndarray) -> np.ndarray:
        e1, e2 = float(eps[0]), float(eps[1])
        return np.array([(1 - 2 * e2) * r[0], (1 - 2 * e1 - 2 * e2) * r[1], (1 - 2 * e1) * r[2]])

    def purity_gap(eps: np.ndarray) -> float:
        # 1 - |y|^2 without cancellation
        e1, e2 = float(eps[0]), float(eps[1])
        return float(
            r[0] ** 2 * 4 * e2 * (1 - e2)
            + r[1] ** 2 * 4 * (e1 + e2) * (1 - e1 - e2)
            + r[2] ** 2 * 4 * e1 * (1 - e1)
        )

    def grad_norm2(eps: np.ndarray) -> np.ndarray:
        y = output_bloch(eps)
        return np.array([2 * dy[0] @ y, 2 * dy[1] @ y])

    def fisher_closed(eps: np.ndarray) -> np.ndarray:
        v = grad_norm2(eps)
        gap = purity_gap(eps)
        j = np.zeros((2, 2))
        for mu in range(2):
            for nu in range(2):
                j[mu, nu] = dy[mu] @ dy[nu] + 0.25 * v[mu] * v[nu] / gap
        return j

    def jinv_closed(eps: np.ndarray) -> np.ndarray:
        v = grad_norm2(eps)
        dp = 4.0 * purity_gap(eps)
        g11 = float(dy[0] @ dy[0])
        g22 = float(dy[1] @ dy[1])
        g12 = float(dy[0] @ dy[1])
        phi_vec = v[1] * dy[0] - v[0] * dy[1]
        den = g11 * g22 - g12**2 + float(phi_vec @ phi_vec) / dp
        j11 = (g22 + v[1] ** 2 / dp) / den
        j22 = (g11 + v[0] ** 2 / dp) / den
        j12 = -(g12 + v[0] * v[1] / dp) / den
        return np.array([[j11, j12], [j12, j22]])

    def sld_closed(eps: np.ndarray) -> list[np.ndarray]:
        y = output_bloch(eps)
        v = grad_norm2(eps)
        gap = purity_gap(eps)
        ops = []
        for mu in range(2):
            l0 = -0.5 * v[mu] / gap
            lvec = dy[mu] + 0.5 * (v[mu] / gap) * y
            ops.append(
                l0 * np.eye(2, dtype=complex)
                + lvec[0] * SIGMA_X
                + lvec[1] * SIGMA_Y
                + lvec[2] * SIGMA_Z
            )
        return ops

    def jinv_zero() -> np.ndarray:
        v = grad_norm2(np.zeros(2))
        phi_vec = v[1] * dy[0] - v[0] * dy[1]
        phi_norm = float(phi_vec @ phi_vec)
        w = np.array([v[1], -v[0]])
        return np.outer(w, w) / phi_norm

    phi_state_vec = eigensolve(density_from_bloch(r))[1][:, -1]
    return Scenario(
        name="pauli2",
        channel=channel,
        input_state=phi_state_vec / np.linalg.norm(phi_state_vec),
        sweep=SweepConfig(direction=tuple(direction), scales=tuple(scales), seed=seed),
        closed_forms={
            "output_bloch": output_bloch,
            "purity_gap": purity_gap,
            "grad_norm2": grad_norm2,
            "fisher": fisher_closed,
            "jinv": jinv_closed,
            "sld": sld_closed,
            "jinv_zero": jinv_zero,
        },
        expected_orders={
            "jinv_large_eigenvalue": (-0.15, 0.15),
            "jinv_small_eigenvalue": (0.85, 1.15),
            "bad_direction_gap": (-0.3, 0.3),
        },
        attainment_expected=False,
    )


# ---------------------------------------------------------------------------
# ancilla-assisted scenario with a maximally entangled input


def scenario_ancilla_bell(
    direction: tuple[float, float] = (1.0 / 3.0, 2.0 / 3.0),
    scales=DEFAULT_SCALES,
    seed: int = 7,
) -> Scenario:
    """Pauli-pair channel extended by an ancilla, fed a Bell state.

    The three Kraus images of the input are mutually orthogonal, so every
    spectral quantity is exact: the deviation matrix in the reference
    frame, the shifts (eps_2, eps_1, 0), and the inverse Fisher matrix
    diag(eps) - eps eps^T.  Attainment is exact rather than merely
    second order.
    """
    base = scenario_pauli2()
    channel = base.channel.ancilla_extend()
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1 / np.sqrt(2)

    f1 = np.zeros(4, dtype=complex)
    f1[0] = 1 / np.sqrt(2)
    f1[3] = -1 / np.sqrt(2)
    f2 = np.zeros(4, dtype=complex)
    f2[1] = 1.0
    f3 = np.zeros(4, dtype=complex)
    f3[2] = 1.0
    frame = np.column_stack([f1, f2, f3])

    def deviation_printed(eps: np.ndarray) -> np.ndarray:
        e1, e2 = float(eps[0]), float(eps[1])
        return np.array(
            [
                [e2, 0, 0],
                [0, e1 / 2, e1 / 2],
                [0, e1 / 2, e1 / 2],
            ],
            dtype=complex,
        )

    def shifts_closed(eps: np.ndarray) -> np.ndarray:
        return np.array([float(eps[1]), float(eps[0]), 0.0])

    def fisher_closed(eps: np.ndarray) -> np.ndarray:
        e1, e2 = float(eps[0]), float(eps[1])
        p0 = 1 - e1 - e2
        return np.array([[1 / e1 + 1 / p0, 1 / p0], [1 / p0, 1 / e2 + 1 / p0]])

    def jinv_closed(eps: np.ndarray) -> np.ndarray:
        e1, e2 = float(eps[0]), float(eps[1])
        return np.array([[e1 * (1 - e1), -e1 * e2], [-e1 * e2, e2 * (1 - e2)]])

    def projectors_zero() -> list[np.ndarray]:
        v23p = (f2 + f3) / np.sqrt(2)
        v23m = (f2 - f3) / np.sqrt(2)
        return [
            np.outer(psi, psi.conj()),
            np.outer(f1, f1.conj()),
            np.outer(v23p, v23p.conj()),
            np.outer(v23m, v23m.conj()),
        ]

    return Scenario(
        name="ancilla-bell",
        channel=channel,
        input_state=psi,
        sweep=SweepConfig(direction=tuple(direction), scales=tuple(scales), seed=seed),
        closed_forms={
            "deviation_printed": deviation_printed,
            "shifts": shifts_closed,
            "fisher": fisher_closed,
            "jinv": jinv_closed,
            "projectors_zero": projectors_zero,
        },
        expected_orders={
            "unbiasedness": (1.8, 2.2),
            "mse_vs_divergent_inverse": (1.8, 2.2),
            "quantum_jinv_vs_reference": (1.8, 2.2),
        },
        attainment_expected=True,
        reference_jinv=lambda eps: np.diag(np.asarray(eps, dtype=float)),
        frame=frame,
    )


# ---------------------------------------------------------------------------
# seeded random channels for property tests


def random_channel(
    dim: int,
    num_params: int,
    jump_counts,
    seed: int,
    with_hamiltonian: bool = False,
) -> LowNoiseChannel:
    """Square-root-completed channel with Gaussian jump operators.

    Jump operators are scaled to unit operator norm; optional Hermitian
    generators get unit operator norm too.  Deterministic in seed.
    """
    if dim > 8:
        raise ConfigInvalid("random channels are desk scale: dim <= 8")
    if num_params > dim * dim - 1:
        raise ConfigInvalid("too many parameters for the system dimension")
    rng = np.random.Generator(np.random.Philox(key=[seed, 0x52414E44]))
    jumps = []
    for mu in range(num_params):
        ops = []
        for _ in range(jump_counts[mu]):
            m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            ops.append(m / np.linalg.norm(m, 2))
        jumps.append(ops)
    gens = None
    if with_hamiltonian:
        gens = []
        for _ in range(num_params):
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            g = (g + dagger(g)) / 2
            gens.append(g / np.linalg.norm(g, 2))
    return sqrt_completion_channel(jumps, gens)


def random_input_state(dim: int, seed: int) -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(key=[seed, 0x494E5054]))
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# registry and config round trip

SCENARIO_BUILDERS = {
    "three-level": scenario_threelevel,
    "pauli2": scenario_pauli2,
    "ancilla-bell": scenario_ancilla_bell,
}


def build_scenario(name: str, direction=None, scales=None, seed: int | None = None) -> Scenario:
    if name not in SCENARIO_BUILDERS:
        raise ConfigInvalid(f"unknown scenario {name!r}; known: {sorted(SCENARIO_BUILDERS)}")
    kwargs = {}
    if direction is not None:
        kwargs["direction"] = tuple(direction)
    if scales is not None:
        kwargs["scales"] = tuple(scales)
    if seed is not None:
        kwargs["seed"] = seed
    return SCENARIO_BUILDERS[name](**kwargs)


def vector_to_json(v: np.ndarray) -> list:
    return [[float(x.real), float(x.imag)] for x in np.asarray(v, dtype=complex)]


def vector_from_json(data) -> np.ndarray:
    return np.array([complex(c[0], c[1]) for c in data], dtype=complex)


def scenario_to_config(sc: Scenario) -> dict:
    """JSON-able scenario description (closed forms are code, not data)."""
    return {
        "name": sc.name,
        "channel": channel_to_config(sc.channel),
        "input_state": vector_to_json(sc.input_state),
        "sweep": {
            "direction": [float(x) for x in sc.sweep.direction],
            "scales": [float(s) for s in sc.sweep.scales],
            "seed": sc.sweep.seed,
        },
        "frame": matrix_to_json(sc.frame) if sc.frame is not None else None,
    }


def scenario_from_config(cfg: dict) -> Scenario:
    """Scenario described by a config.

    A config named after a built-in gets the built-in, closed forms
    included, only when the built-in with the config's sweep describes the
    same scenario; otherwise the config's own channel, input state and
    frame are used as given.  ConfigInvalid if malformed, if the input state
    is not a finite nonzero channel.dim-vector, or the frame not its complement.
    """
    try:
        name = cfg["name"]
        channel = channel_from_config(cfg["channel"])
        phi = vector_from_json(cfg["input_state"])
        sw = cfg["sweep"]
        sweep = SweepConfig(
            direction=tuple(float(x) for x in sw["direction"]),
            scales=tuple(float(s) for s in sw["scales"]),
            seed=int(sw.get("seed", 7)),
        )
        frame = matrix_from_json(cfg["frame"]) if cfg.get("frame") else None
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ConfigInvalid(f"malformed scenario config: {exc}") from exc
    if phi.shape != (channel.dim,):
        raise ConfigInvalid(f"input state has {phi.shape[0]} amplitudes, the channel acts on {channel.dim} levels")
    norm = np.linalg.norm(phi)
    if not (np.isfinite(norm) and norm > 0):
        raise ConfigInvalid("input state must be a finite nonzero vector")
    # a normalized state is kept bit for bit, so the config hash holds
    phi = phi if np.isclose(norm, 1.0, rtol=0.0, atol=1e-12) else phi / norm
    if frame is not None:
        _complement_frame(phi, frame)
    given = Scenario(name=name, channel=channel, input_state=phi, sweep=sweep, frame=frame)
    if name in SCENARIO_BUILDERS:
        named = build_scenario(name, direction=sweep.direction, scales=sweep.scales, seed=sweep.seed)
        if scenario_to_config(named) == scenario_to_config(given):
            return named
    return given
