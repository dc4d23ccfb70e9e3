"""One stacked Kraus build per scale grid, one inversion per Fisher matrix.

A sweep, a property-suite seed and a channel's construction check each
build the identity-family Kraus operators once, for the whole stack of
their noise points; every consumer downstream reads the output state, its
exact derivatives and the completeness residual from the spectra.  Calls
are recorded by the phase they are made in, with the number of noise
points (rows of the eps stack) each one covers: a channel's own
construction check (``_validate``) and the pure-input dominance check are
recorded apart from the per-grid evaluations.

A sweep point inverts its quantum and its divergent Fisher matrix once
each, and the estimator raises its index with the divergent inverse the
point already made.
"""
from collections import Counter, defaultdict

import numpy as np
import pytest

from lownoise import estimator, fisher, spectral, sweep, verify
from lownoise.channels import LowNoiseChannel
from lownoise.scenarios import DEFAULT_SCALES, build_scenario
from lownoise.sweep import run_sweep


class KrausCounter:
    """_identity_kraus calls by phase: the eps-stack row count of each call."""

    def __init__(self):
        self.rows: defaultdict = defaultdict(list)
        self.entries: Counter = Counter()
        self.phase = "evaluations"

    def within(self, phase: str, fn):
        """fn, with its _identity_kraus calls recorded under phase."""

        def wrapped(*args, **kwargs):
            outer, self.phase = self.phase, phase
            self.entries[phase] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self.phase = outer

        return wrapped

    def clear(self):
        self.rows.clear()
        self.entries.clear()


@pytest.fixture
def kraus_calls(monkeypatch):
    counter = KrausCounter()
    kraus = LowNoiseChannel._identity_kraus

    def counting_kraus(self, eps, with_derivative=False):
        counter.rows[counter.phase].append(eps.shape[0])
        return kraus(self, eps, with_derivative)

    monkeypatch.setattr(LowNoiseChannel, "_identity_kraus", counting_kraus)
    monkeypatch.setattr(LowNoiseChannel, "_validate", counter.within("validation", LowNoiseChannel._validate))
    return counter


@pytest.mark.parametrize("name", ["three-level", "pauli2", "ancilla-bell"])
@pytest.mark.parametrize("shots", [0, 1000])
def test_sweep_evaluates_the_channel_once_per_point(kraus_calls, name, shots):
    sc = build_scenario(name, seed=1)
    kraus_calls.clear()
    report = run_sweep(sc, shots=shots)
    assert all(p["error"] is None for p in report.points)
    assert kraus_calls.rows == {"evaluations": [len(sc.sweep.scales)]}


def test_property_suite_evaluates_each_scale_once(kraus_calls, monkeypatch):
    input_states = []
    dominance = kraus_calls.within("dominance", fisher.pure_input_dominance)

    def counted_dominance(ch, rho_mixed, decomposition, *args, **kwargs):
        input_states.append(len(decomposition))  # the pure components; the mixture is their weighted sum
        return dominance(ch, rho_mixed, decomposition, *args, **kwargs)

    monkeypatch.setattr(fisher, "pure_input_dominance", counted_dominance)
    num_seeds = 3
    result = verify.check_property_suite(num_seeds=num_seeds)
    assert result.passed, result.detail
    assert kraus_calls.rows["evaluations"] == [len(DEFAULT_SCALES)] * num_seeds
    # each channel's construction check probes its three scales in one call
    assert kraus_calls.entries["validation"] >= num_seeds
    assert kraus_calls.rows["validation"] == [3] * kraus_calls.entries["validation"]
    # the dominance check evaluates each pure component once, at one point
    assert input_states and kraus_calls.rows["dominance"] == [1] * sum(input_states)


def test_evaluate_makes_one_kraus_call(kraus_calls):
    sc = build_scenario("three-level")
    rho = np.outer(sc.input_state, sc.input_state.conj())
    kraus_calls.clear()
    sc.channel.evaluate(rho, np.array([1e-3, 2e-3]))
    assert kraus_calls.rows == {"evaluations": [1]}
    kraus_calls.clear()
    sc.channel.evaluate(rho, np.outer([1.0, 2.0, 3.0, 4.0], [1e-3, 2e-3]))
    assert kraus_calls.rows == {"evaluations": [4]}


@pytest.fixture
def inversions(monkeypatch):
    """Calls of fisher_inverse and fisher_pseudo_inverse, by name, from every module that holds them."""
    calls = defaultdict(list)
    for name in ("fisher_inverse", "fisher_pseudo_inverse"):
        original = getattr(fisher, name)

        def counting(fm, _name=name, _original=original):
            calls[_name].append(fm)
            return _original(fm)

        for module in (fisher, estimator, sweep, verify):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    return calls


def test_sweep_inverts_each_fisher_matrix_once(inversions):
    sc = build_scenario("three-level", seed=1)
    report = run_sweep(sc)
    assert not any(p["pseudo"] or p["error"] for p in report.points)
    # the quantum and the divergent matrix of each point
    assert len(inversions["fisher_inverse"]) == 2 * len(sc.sweep.scales)
    assert not inversions["fisher_pseudo_inverse"]


def test_pseudo_inverse_path_raises_with_the_points_inverse(inversions):
    sc = build_scenario("pauli2", seed=1)
    report = run_sweep(sc)
    assert all(p["pseudo"] and p["error"] is None for p in report.points)
    # the quantum matrix, and the divergent one that proves singular
    assert len(inversions["fisher_inverse"]) == 2 * len(sc.sweep.scales)
    assert len(inversions["fisher_pseudo_inverse"]) == len(sc.sweep.scales)
    spectra = spectral.output_shift_curves(sc.channel, sc.input_state, sc.sweep.direction, sc.sweep.scales)
    included = [i for i, lab in enumerate(report.shift_labels) if lab == "order-1"]
    for point, spec in zip(report.points, spectra):
        jdiv = fisher.divergent_fisher(spec.shifts(), spec.shift_gradients(), included)
        score = estimator.build_score_operators(spec, included)
        povm = estimator.build_povm(estimator.raise_index(score, fisher.fisher_pseudo_inverse(jdiv)))
        assert point["estimates"] == [[float(x) for x in row] for row in povm.estimates]


def test_property_suite_builds_each_divergent_matrix_once(monkeypatch):
    """One divergent Fisher matrix per scale; the estimator check reuses its point's."""
    calls = []
    original = fisher.divergent_fisher

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(fisher, "divergent_fisher", counting)
    num_seeds = 3
    result = verify.check_property_suite(num_seeds=num_seeds)
    assert result.passed, result.detail
    assert len(calls) == len(DEFAULT_SCALES) * num_seeds
