"""One stacked Kraus build per scale grid, one inversion per Fisher matrix.

A sweep and a channel's construction check each build the identity-family
Kraus operators once, for the whole stack of their noise points; the
property suite builds them once per cell, a stack of the channels of one
shape over their shared grid.  Every consumer downstream reads the output
state, its exact derivatives and the completeness residual from the one
stacked spectrum.  Calls are recorded by the phase they are made in, with
the number of noise points (rows of the eps stack) each one covers and
the shape of the channel stack: a channel's own construction check
(``_validate``) and the pure-input dominance check are recorded apart
from the per-grid evaluations.

A sweep inverts the quantum and the divergent Fisher matrices of its grid
with one stacked eigensolve each, and the estimator raises its index with
the divergent inverse the grid already made; a singular divergent row
takes its pseudo-inverse from that same eigensolve.  The sweep computes
each point's outcome probabilities once, in one stacked call per grouping
of the eigenbasis, for the unbiasedness residual, the analytic MSE and the
Monte Carlo draw alike.  Its eigensolves do not grow with the number of
scales.  It fits all its order series in one stacked call, and the shift
classification fits all the curves of a grid in one.  The property suite
classifies the shift curves of all its seeds in one call, and fits the
first-order remainders and the classical-vs-divergent series of all its
seeds in one call each.
"""
from collections import Counter, defaultdict

import numpy as np
import pytest

from lownoise import channels, estimator, fisher, linalg, spectral, sweep, verify
from lownoise.channels import LowNoiseChannel, pure_state_density
from lownoise.errors import SingularFisher
from lownoise.scenarios import DEFAULT_SCALES, build_scenario
from lownoise.sweep import run_sweep


class KrausCounter:
    """_identity_kraus calls by phase: the eps-stack row count and the channel-stack shape of each call."""

    def __init__(self):
        self.rows: defaultdict = defaultdict(list)
        self.stacks: defaultdict = defaultdict(list)
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
        self.stacks.clear()
        self.entries.clear()


@pytest.fixture
def kraus_calls(monkeypatch):
    counter = KrausCounter()
    kraus = LowNoiseChannel._identity_kraus

    def counting_kraus(self, eps, with_derivative=False):
        counter.rows[counter.phase].append(eps.shape[0])
        counter.stacks[counter.phase].append(self.jumps.shape[:-3])
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


def suite_cells(num_seeds: int) -> list[int]:
    """The seed count of each cell of the property suite, the seeds whose channels share a shape, in first-seed order."""
    return [len(seeds) for seeds in verify._cells(num_seeds)]


# twelve seeds fill each of the suite's six cells with two
SUITE_SEEDS = 12


def test_property_suite_evaluates_each_scale_once(kraus_calls, monkeypatch):
    input_states = []
    dominance = kraus_calls.within("dominance", fisher.pure_input_dominance)

    def counted_dominance(ch, rho_mixed, decomposition, *args, **kwargs):
        input_states.append(len(decomposition))  # the pure components; the mixture is their weighted sum
        return dominance(ch, rho_mixed, decomposition, *args, **kwargs)

    monkeypatch.setattr(fisher, "pure_input_dominance", counted_dominance)
    num_seeds, cells = SUITE_SEEDS, suite_cells(SUITE_SEEDS)
    assert cells == [2] * 6
    result = verify.check_property_suite(num_seeds=num_seeds)
    assert result.passed, result.detail
    # one stacked evaluation per cell: its channels over the shared grid
    assert kraus_calls.rows["evaluations"] == [len(DEFAULT_SCALES)] * len(cells)
    assert kraus_calls.stacks["evaluations"] == [(size,) for size in cells]
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


def test_evaluate_forms_the_jump_images_once(monkeypatch):
    """The output sum and the derivatives read one set of jump images M_k rho M_k^dag."""
    sc = build_scenario("three-level")
    rho = pure_state_density(sc.input_state)
    eps = np.outer([1.0, 2.0, 3.0, 4.0], [1e-3, 2e-3])
    daggered = []
    dagger = channels.dagger

    def recording(a):
        daggered.append(a is sc.channel.jumps)
        return dagger(a)

    monkeypatch.setattr(channels, "dagger", recording)
    ev = sc.channel.evaluate(rho, eps)
    assert sum(daggered) == 1
    # apply on its own forms them itself, to the same bits
    assert np.array_equal(ev.output, sc.channel.apply(rho, eps)) and sum(daggered) == 2


@pytest.fixture
def inversions(monkeypatch):
    """Entries inverted by fisher_inverse and the eigensolve it shares with the sweep, by name.

    Each is wrapped in every module that holds it; ``_kept_inverse`` is
    also what fisher_inverse calls.
    """
    calls = defaultdict(list)
    for name in ("fisher_inverse", "_kept_inverse"):
        original = getattr(fisher, name)

        def counting(fm, _name=name, _original=original):
            calls[_name].append(np.asarray(fm.entries))
            return _original(fm)

        for module in (fisher, estimator, sweep, verify):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    return calls


def test_sweep_inverts_each_fisher_matrix_once(inversions):
    sc = build_scenario("three-level", seed=1)
    report = run_sweep(sc)
    assert not any(p["pseudo"] or p["error"] for p in report.points)
    # one stacked eigensolve for the grid's quantum matrices, one for its divergent ones
    quantum, divergent = inversions["_kept_inverse"]
    assert [m.tolist() for m in quantum] == [p["quantum_fisher"] for p in report.points]
    assert [m.tolist() for m in divergent] == [p["divergent_fisher"] for p in report.points]
    assert len(inversions["fisher_inverse"]) == 1 and inversions["fisher_inverse"][0] is quantum


def test_pseudo_inverse_path_reads_the_divergent_eigensolve(inversions, monkeypatch):
    raised = []
    inverse = sweep.fisher.fisher_inverse

    def recording(fm):
        try:
            return inverse(fm)
        except SingularFisher as exc:
            raised.append(exc)
            raise

    monkeypatch.setattr(sweep.fisher, "fisher_inverse", recording)
    sc = build_scenario("pauli2", seed=1)
    report = run_sweep(sc)
    assert all(p["pseudo"] and p["error"] is None for p in report.points)
    # the quantum stack, and the divergent one whose kept mask marks every row singular
    assert [len(m) for m in inversions["_kept_inverse"]] == [len(sc.sweep.scales)] * 2
    assert not raised
    stack = spectral.output_shift_curves(sc.channel, sc.input_state, sc.sweep.direction, sc.sweep.scales)
    included = [i for i, lab in enumerate(report.shift_labels) if lab == "order-1"]
    for t, point in enumerate(report.points):
        spec = stack[t]
        jdiv = fisher.divergent_fisher(spec.shifts(), spec.shift_gradients(), included)
        score = estimator.build_score_operators(spec, included)
        povm = estimator.build_povm(estimator.raise_index(score, fisher._kept_inverse(jdiv)[0]))
        assert point["estimates"] == [[float(x) for x in row] for row in povm.estimates]


def test_property_suite_builds_each_divergent_matrix_once(monkeypatch):
    """One classical and one divergent matrix per seed and scale, each from one stacked call per cell.

    The estimator check reuses its point's divergent matrix, in one
    inversion and one POVM build per cell.
    """
    stacks = defaultdict(list)
    for name in ("classical_fisher", "divergent_fisher", "fisher_inverse"):
        original = getattr(fisher, name)

        def counting(*args, _name=name, _original=original):
            fm = _original(*args)
            stacks[_name].append(fm.entries.shape[:-2])
            return fm

        monkeypatch.setattr(fisher, name, counting)
    build, povms = estimator.build_povm, []

    def building(score):
        povms.append(score.estimates.shape[:-2])
        return build(score)

    monkeypatch.setattr(estimator, "build_povm", building)
    num_seeds, cells = SUITE_SEEDS, suite_cells(SUITE_SEEDS)
    result = verify.check_property_suite(num_seeds=num_seeds)
    assert result.passed, result.detail
    per_cell = [(size, len(DEFAULT_SCALES)) for size in cells]
    assert stacks == {
        "classical_fisher": per_cell,
        "divergent_fisher": per_cell,
        "fisher_inverse": [(size,) for size in cells],
    }
    assert povms == [(size,) for size in cells]


@pytest.mark.parametrize("name", ["three-level", "pauli2", "ancilla-bell"])
def test_sweep_builds_one_spectrum_per_grid(monkeypatch, name):
    """The grid's spectrum is built once, with one row per scale, and every layer reads it."""
    built = []
    init = spectral.OutputSpectrum.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(np.shape(self.eps))

    monkeypatch.setattr(spectral.OutputSpectrum, "__init__", counting)
    sc = build_scenario(name, seed=1)
    report = run_sweep(sc, shots=1000)
    assert report.passed
    assert built == [(len(sc.sweep.scales), sc.channel.num_params)]


@pytest.mark.parametrize("name", ["three-level", "pauli2", "ancilla-bell"])
@pytest.mark.parametrize("shots", [0, 1000])
def test_sweep_computes_outcome_probabilities_once_per_point(monkeypatch, name, shots):
    stacks, drawn = [], []
    original = estimator.outcome_probabilities
    sample = estimator.sample_measurements

    def counting(povm, probs):
        stacks.append(original(povm, probs))
        return stacks[-1]

    def drawing(povm, q, *args):
        drawn.append(q)
        return sample(povm, q, *args)

    monkeypatch.setattr(estimator, "outcome_probabilities", counting)
    monkeypatch.setattr(estimator, "sample_measurements", drawing)
    report = run_sweep(build_scenario(name, seed=1), shots=shots)
    assert all(p["error"] is None and ("mc" in p) == (shots > 0) for p in report.points)
    # the grid's points share one grouping: one stacked call, one row per point
    assert len(stacks) == 1 and stacks[0].shape[0] == len(report.points)
    # and the Monte Carlo draw reads those rows in one stacked call, not a second computation
    assert len(drawn) == (1 if shots else 0)
    assert all(np.shares_memory(q, stacks[0]) and q.shape == stacks[0].shape for q in drawn)


@pytest.mark.parametrize("name", ["three-level", "pauli2", "ancilla-bell"])
def test_sweep_estimator_tail_calls_do_not_grow_with_the_grid(monkeypatch, name):
    """One build_povm call per stacked pass, and one sample_measurements call per grouping it returns."""
    calls, groupings = Counter(), []
    build, sample = estimator.build_povm, estimator.sample_measurements

    def building(score):
        calls["build_povm"] += 1
        groupings.append(len(build(score)))
        return build(score)

    def drawing(*args):
        calls["sample_measurements"] += 1
        return sample(*args)

    monkeypatch.setattr(estimator, "build_povm", building)
    monkeypatch.setattr(estimator, "sample_measurements", drawing)
    made = []
    for num in (8, 16):
        calls.clear()
        groupings.clear()
        report = run_sweep(build_scenario(name, scales=tuple(np.geomspace(1e-5, 1e-2, num)), seed=1), shots=1000)
        assert all(p["error"] is None for p in report.points)
        assert calls == {"build_povm": 1, "sample_measurements": sum(groupings)}
        made.append(dict(calls))
    assert made[0] == made[1]


@pytest.mark.parametrize("name", ["three-level", "pauli2", "ancilla-bell"])
def test_sweep_eigensolves_do_not_grow_with_the_grid(monkeypatch, name):
    counts = Counter()
    for solver in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, solver)

        def counting(m, *args, _solver=solver, _original=original, **kwargs):
            counts[_solver] += 1
            return _original(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, solver, counting)
    made = []
    for num in (8, 16):
        counts.clear()
        report = run_sweep(build_scenario(name, scales=tuple(np.geomspace(1e-5, 1e-2, num)), seed=1))
        assert all(p["error"] is None for p in report.points)
        made.append(dict(counts))
    assert made[0] == made[1]


@pytest.mark.parametrize("name", ["three-level", "pauli2", "ancilla-bell"])
def test_sweep_without_shots_makes_no_generator(monkeypatch, name):
    """Only the Monte Carlo draw is random: the Cramer-Rao margin is an eigenvalue, not a sampled minimum."""
    sc = build_scenario(name, seed=1)
    made, keys = [], []
    philox = np.random.Philox

    class Recording(philox):
        """A Philox that records its construction and every key set through its state."""

        def __init__(self, *args, **kwargs):
            made.append(kwargs.get("key"))
            super().__init__(*args, **kwargs)

        @property
        def state(self):
            return philox.state.__get__(self)

        @state.setter
        def state(self, value):
            keys.append(value["state"]["key"].tolist())
            philox.state.__set__(self, value)

    monkeypatch.setattr(np.random, "Philox", Recording)
    run_sweep(sc, shots=0)
    assert made == keys == []
    run_sweep(sc, shots=10)
    # one generator for the grid's one grouping, re-keyed for each point
    assert len(made) == 1
    assert keys == [[sc.sweep.monte_carlo_seed(t), 0] for t in range(len(sc.sweep.scales))]


@pytest.fixture
def fits(monkeypatch):
    """Stacked fit_or_floor calls by the module that made them, with the shape of the values each fitted."""
    calls = defaultdict(list)
    for module in (sweep, spectral, verify):

        def counting(scales, values, floor, _module=module.__name__.split(".")[-1]):
            fit = linalg.fit_or_floor(scales, values, floor)
            calls[_module].append(np.shape(fit.slope))
            return fit

        monkeypatch.setattr(module, "fit_or_floor", counting)
    return calls


@pytest.mark.parametrize("name", ["three-level", "pauli2", "ancilla-bell"])
@pytest.mark.parametrize("shots", [0, 1000])
def test_sweep_fits_once_per_report(fits, name, shots):
    report = run_sweep(build_scenario(name, seed=1), shots=shots)
    assert all(p["error"] is None for p in report.points)
    # one stack of every order series, and one of the grid's shift curves
    assert fits == {"sweep": [(len(report.fits),)], "spectral": [(len(report.shift_labels),)]}


def test_property_suite_classifies_once_per_round(fits, monkeypatch):
    classified = []
    classify = spectral.classify_shift_curves

    def counting(scales, rows):
        classified.append(np.shape(rows))
        return classify(scales, rows)

    monkeypatch.setattr(spectral, "classify_shift_curves", counting)
    num_seeds = 3
    result = verify.check_property_suite(num_seeds=num_seeds)
    assert result.passed, result.detail
    # every seed's N - 1 shift curves side by side, in one classification and one stacked fit
    curves = sum(verify._seed_params(seed)[0] - 1 for seed in range(num_seeds))
    assert classified == [(len(DEFAULT_SCALES), curves)]
    assert fits["spectral"] == [(curves,)]
    # the first-order remainders, then the classical-vs-divergent series: one row per seed each
    assert fits["verify"] == [(num_seeds,), (num_seeds,)]


def test_property_suite_fit_calls_do_not_grow_with_the_seeds(fits):
    """The suite makes three fit_or_floor calls per round, for any seed count."""
    made = []
    for num_seeds in (3, 7):
        fits.clear()
        result = verify.check_property_suite(num_seeds=num_seeds)
        assert result.passed, result.detail
        made.append(sum(len(calls) for calls in fits.values()))
    assert made == [3, 3]
