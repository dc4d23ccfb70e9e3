"""One Kraus evaluation per noise point.

The output state, its exact derivatives and the completeness residual at a
point all come from one ``_identity_kraus`` call; every consumer downstream
reads them from the spectrum.  Calls are counted by the phase they are made
in: a channel's own construction check (``_validate``) and the pure-input
dominance check are counted apart from the per-point evaluations.
"""
from collections import Counter

import numpy as np
import pytest

from lownoise import fisher, verify
from lownoise.channels import LowNoiseChannel
from lownoise.scenarios import DEFAULT_SCALES, build_scenario
from lownoise.sweep import run_sweep


class KrausCounter:
    """_identity_kraus calls, keyed by the phase they were made in."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.phase = "evaluations"

    def within(self, phase: str, fn):
        """fn, with its _identity_kraus calls counted under phase."""

        def wrapped(*args, **kwargs):
            outer, self.phase = self.phase, phase
            try:
                return fn(*args, **kwargs)
            finally:
                self.phase = outer

        return wrapped


@pytest.fixture
def kraus_calls(monkeypatch):
    counter = KrausCounter()
    kraus = LowNoiseChannel._identity_kraus

    def counting_kraus(self, eps, with_derivative=False):
        counter.counts[counter.phase] += 1
        return kraus(self, eps, with_derivative)

    monkeypatch.setattr(LowNoiseChannel, "_identity_kraus", counting_kraus)
    monkeypatch.setattr(LowNoiseChannel, "_validate", counter.within("validation", LowNoiseChannel._validate))
    return counter


@pytest.mark.parametrize("name", ["three-level", "pauli2", "ancilla-bell"])
@pytest.mark.parametrize("shots", [0, 1000])
def test_sweep_evaluates_the_channel_once_per_point(kraus_calls, name, shots):
    sc = build_scenario(name, seed=1)
    kraus_calls.counts.clear()
    report = run_sweep(sc, shots=shots)
    assert all(p["error"] is None for p in report.points)
    assert kraus_calls.counts == {"evaluations": len(sc.sweep.scales)}


def test_property_suite_evaluates_each_scale_once(kraus_calls, monkeypatch):
    input_states = []
    dominance = kraus_calls.within("dominance", fisher.pure_input_dominance)

    def counted_dominance(ch, rho_mixed, decomposition, *args, **kwargs):
        input_states.append(1 + len(decomposition))  # the mixture and its components
        return dominance(ch, rho_mixed, decomposition, *args, **kwargs)

    monkeypatch.setattr(fisher, "pure_input_dominance", counted_dominance)
    num_seeds = 3
    result = verify.check_property_suite(num_seeds=num_seeds)
    assert result.passed, result.detail
    assert kraus_calls.counts["evaluations"] == num_seeds * len(DEFAULT_SCALES)
    # the dominance check evaluates each input state once
    assert input_states and kraus_calls.counts["dominance"] == sum(input_states)


def test_evaluate_makes_one_kraus_call(kraus_calls):
    sc = build_scenario("three-level")
    rho = np.outer(sc.input_state, sc.input_state.conj())
    kraus_calls.counts.clear()
    sc.channel.evaluate(rho, np.array([1e-3, 2e-3]))
    assert kraus_calls.counts == {"evaluations": 1}
