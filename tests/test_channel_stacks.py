"""Channel stacks: C channels of one shape through the one-channel evaluation lines.

A stack's results carry its C axis first, and row r of each equals the
call on channel r alone, bit for bit.  Channels of another shape do not
stack, and an error names the channel's row of the stack.
"""
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from lownoise import spectral
from lownoise.channels import LowNoiseChannel, pure_state_density, sqrt_completion_channel, stack_channels
from lownoise.errors import DimensionMismatch, TPCPViolation
from lownoise.scenarios import random_channel, random_input_state

SCALES = np.geomspace(1e-5, 1e-2, 5)
LOWER = np.array([[0, 1], [0, 0]], dtype=complex)  # maps |1> to |0>


@st.composite
def same_shape_channels(draw):
    """2-4 random channels of one shape, each with its own input state.

    N = 2-4, D = 1...N-1 with one jump per parameter, all with generators or all without.
    """
    dim = draw(st.integers(2, 4))
    num_params = draw(st.integers(1, dim - 1))
    with_hamiltonian = draw(st.booleans())
    seeds = draw(st.lists(st.integers(0, 2**20), min_size=2, max_size=4, unique=True))
    channels = [random_channel(dim, num_params, [1] * num_params, s, with_hamiltonian=with_hamiltonian) for s in seeds]
    return channels, np.array([random_input_state(dim, s) for s in seeds])


@seed(30)
@settings(max_examples=30, deadline=None)
@given(same_shape_channels())
def test_stack_rows_equal_one_channel_calls(data):
    channels, phis = data
    stack = stack_channels(channels)
    direction = np.full(stack.num_params, 1.0 / stack.num_params)
    grid = SCALES[:, None] * direction
    rhos = pure_state_density(phis)
    spec = spectral.output_shift_curves(stack, phis, direction, SCALES)
    assert spec.output.shape == (len(channels), len(SCALES), stack.dim, stack.dim)
    for eps in (grid, grid[2]):  # a grid of noise points, and one
        ev = stack.evaluate(rhos, eps)
        dm, lm = spectral.deviation_matrix(stack, phis, eps), spectral.jump_covariance(stack, phis, eps)
        for r, (ch, phi, rho) in enumerate(zip(channels, phis, rhos)):
            one = ch.evaluate(rho, eps)
            for field, stacked, single in zip(ev._fields, ev, one):
                assert np.array_equal(stacked[r], single), field
            assert np.array_equal(dm[r], spectral.deviation_matrix(ch, phi, eps))
            assert np.array_equal(lm[r], spectral.jump_covariance(ch, phi, eps))
    for r, (ch, phi) in enumerate(zip(channels, phis)):
        one = spectral.output_shift_curves(ch, phi, direction, SCALES)
        for f in fields(spec):
            assert np.array_equal(getattr(spec, f.name)[r], getattr(one, f.name)), f.name


def test_one_channel_is_the_stack_of_one():
    ch = random_channel(3, 2, [1, 1], 5, with_hamiltonian=True)
    phi = random_input_state(3, 5)
    stacked = spectral.output_shift_curves(stack_channels([ch]), phi[None], [0.5, 0.5], SCALES)
    one = spectral.output_shift_curves(ch, phi, [0.5, 0.5], SCALES)
    for f in fields(one):
        assert np.array_equal(getattr(stacked, f.name)[0], getattr(one, f.name)), f.name


BASE = random_channel(3, 2, [1, 1], 1)
OTHER_SHAPES = {
    "dimension": random_channel(4, 2, [1, 1], 2),
    "parameter-count": random_channel(3, 1, [1], 2),
    "parameter-index": LowNoiseChannel(3, 2, BASE.jumps[::-1], [1, 0]),
    "jump-count": random_channel(3, 2, [2, 1], 2),
    "generators": random_channel(3, 2, [1, 1], 2, with_hamiltonian=True),
    "a-stack": stack_channels([BASE, BASE]),
}


@pytest.mark.parametrize("other", OTHER_SHAPES.values(), ids=OTHER_SHAPES.keys())
def test_channels_of_another_shape_do_not_stack(other):
    with pytest.raises(DimensionMismatch, match="channel 2 does not have the shape of channel 0"):
        stack_channels([BASE, BASE, other])


def test_empty_stack_rejected():
    with pytest.raises(DimensionMismatch, match="at least one channel"):
        stack_channels([])


def test_stack_takes_one_input_state_per_channel():
    stack = stack_channels([BASE, BASE, BASE])
    phis = np.array([random_input_state(3, s) for s in range(3)])
    with pytest.raises(DimensionMismatch, match="one per channel"):
        spectral.output_shift_curves(stack, phis[:2], [0.5, 0.5], SCALES)
    with pytest.raises(DimensionMismatch, match="state has shape"):
        stack.evaluate(pure_state_density(phis[0]), [1e-3, 1e-3])


def test_channel_outside_its_region_named_by_its_row():
    # 1 - eps S with S = 4 |1><1| turns negative above eps = 1/4, and with S = |1><1| above 1
    weak, strong = sqrt_completion_channel([[LOWER]]), sqrt_completion_channel([[2 * LOWER]])
    stack = stack_channels([weak, weak, strong, weak])
    phis = np.array([[0.0, 1.0]] * 4, dtype=complex)
    with pytest.raises(TPCPViolation, match=r"negative eigenvalue -1; .* \(channel 2, row 1\)$"):
        spectral.output_shift_curves(stack, phis, [1.0], [1e-3, 0.5, 0.9])
    with pytest.raises(TPCPViolation, match=r"\(channel 2\)$"):
        stack.evaluate(pure_state_density(phis), [0.5])
    spectral.output_shift_curves(stack_channels([weak, weak]), phis[:2], [1.0], [1e-3, 0.5, 0.9])
