from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lownoise.errors import DegenerateSamples, DimensionMismatch, NoConvergence, NonHermitian
from lownoise.linalg import (
    HERMITIAN_RTOL,
    dagger,
    eigensolve,
    fit_or_floor,
    frobenius,
    require_hermitian,
    richardson_zero_limit,
)

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


# Test-side helpers: descending eigendecomposition, Kronecker product and
# residual norm, built on the library primitives they exercise.


@dataclass(frozen=True)
class HermitianSpectrum:
    """Eigenvalues (descending) and orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ dagger(v)


def hermitian_eigendecompose(m, rtol=HERMITIAN_RTOL) -> HermitianSpectrum:
    """Eigendecomposition of a Hermitian matrix, eigenvalues sorted descending."""
    w, v = eigensolve(require_hermitian(m, rtol))
    return HermitianSpectrum(eigenvalues=w[::-1].copy(), eigenvectors=v[:, ::-1].copy())


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product with entry ((i,k),(j,l)) = a[i,j] * b[k,l]."""
    return np.kron(np.asarray(a), np.asarray(b))


def matrix_residual_norm(a, b) -> float:
    """Frobenius norm of a - b."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shapes {a.shape} and {b.shape} differ")
    return float(np.linalg.norm(a - b))


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


class TestEigendecompose:
    def test_identity(self):
        spec = hermitian_eigendecompose(np.eye(2, dtype=complex))
        np.testing.assert_allclose(spec.eigenvalues, [1.0, 1.0])

    def test_sigma_z(self):
        spec = hermitian_eigendecompose(SIGMA_Z)
        np.testing.assert_allclose(spec.eigenvalues, [1.0, -1.0])
        np.testing.assert_allclose(np.abs(spec.eigenvectors[:, 0]), [1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(np.abs(spec.eigenvectors[:, 1]), [0.0, 1.0], atol=1e-15)

    def test_reconstruction_random(self):
        m = random_hermitian(4, seed=11)
        spec = hermitian_eigendecompose(m)
        assert np.linalg.norm(spec.reconstruct() - m) <= 1e-10 * max(1.0, np.linalg.norm(m))

    def test_orthonormal_columns(self):
        m = random_hermitian(5, seed=3)
        v = hermitian_eigendecompose(m).eigenvectors
        assert np.linalg.norm(v.conj().T @ v - np.eye(5)) <= 1e-10

    def test_diagonal_returns_sorted(self):
        d = np.array([0.3, -1.2, 5.0, 0.0])
        spec = hermitian_eigendecompose(np.diag(d).astype(complex))
        np.testing.assert_allclose(spec.eigenvalues, np.sort(d)[::-1], atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitian):
            hermitian_eigendecompose(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_eigensolve_matches_numpy(self):
        m = random_hermitian(4, seed=5)
        w, v = eigensolve(m)
        want_w, want_v = np.linalg.eigh(m)
        assert np.array_equal(w, want_w) and np.array_equal(v, want_v)
        assert np.array_equal(eigensolve(m, vectors=False), np.linalg.eigvalsh(m))

    @pytest.mark.parametrize("solver", ["eigh", "eigvalsh"])
    def test_solver_failure_is_no_convergence(self, monkeypatch, solver):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, solver, fail)
        with pytest.raises(NoConvergence):
            eigensolve(SIGMA_Z, vectors=solver == "eigh")
        if solver == "eigh":
            with pytest.raises(NoConvergence):
                hermitian_eigendecompose(SIGMA_Z)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_reconstruction_property(self, seed):
        m = random_hermitian(3, seed)
        spec = hermitian_eigendecompose(m)
        assert np.linalg.norm(spec.reconstruct() - m) <= 1e-10 * max(1.0, np.linalg.norm(m))
        assert np.all(np.diff(spec.eigenvalues) <= 1e-12)


class TestTensorProduct:
    def test_identity_factor(self):
        a = random_hermitian(3, seed=5)
        np.testing.assert_array_equal(tensor_product(a, np.eye(1)), a)

    def test_basis_action(self):
        e1 = np.zeros(2)
        e1[0] = 1.0
        e2 = np.zeros(2)
        e2[1] = 1.0
        out = tensor_product(SIGMA_X, SIGMA_X) @ np.kron(e1, e1)
        np.testing.assert_allclose(out, np.kron(e2, e2))

    def test_mixed_product_property(self):
        rng = np.random.default_rng(7)
        mats = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(4)]
        a, b, c, d = mats
        lhs = tensor_product(a, b) @ tensor_product(c, d)
        rhs = tensor_product(a @ c, b @ d)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(rhs)

    def test_associative(self):
        rng = np.random.default_rng(9)
        a, b, c = (rng.normal(size=(2, 2)) for _ in range(3))
        lhs = tensor_product(tensor_product(a, b), c)
        rhs = tensor_product(a, tensor_product(b, c))
        assert np.linalg.norm(lhs - rhs) <= 1e-12


class TestPowerOrderFit:
    def test_exact_square(self):
        s = np.array([1e-2, 1e-3, 1e-4, 1e-5])
        fit = fit_or_floor(s, s**2, 0.0)
        assert abs(fit.slope - 2.0) <= 1e-9
        assert fit.residual <= 1e-9

    def test_linear_with_prefactor(self):
        s = np.geomspace(1e-4, 1e-1, 6)
        fit = fit_or_floor(s, 3.0 * s, 0.0)
        assert abs(fit.slope - 1.0) <= 1e-9
        assert abs(fit.intercept - np.log(3.0)) <= 1e-9

    def test_mixed_orders_dominated_by_linear(self):
        s = np.geomspace(1e-5, 1e-2, 8)
        q = s + 10 * s**2  # evaluated oracle, linear term dominates on this grid
        fit = fit_or_floor(s, q, 0.0)
        assert 0.95 <= fit.slope <= 1.05

    def test_too_few_points(self):
        with pytest.raises(DegenerateSamples):
            fit_or_floor([1e-2, 1e-3, 1e-4], [1.0, 0.1, 0.01], 0.0)

    def test_nonpositive_values(self):
        s = np.geomspace(1e-4, 1e-1, 5)
        q = [1.0, 2.0, 0.0, 3.0, 4.0]
        with pytest.raises(DegenerateSamples):
            fit_or_floor(s, q, 0.0)

    @pytest.mark.parametrize("column", [0, 1])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_samples(self, capfd, column, bad):
        samples = np.tile(np.geomspace(1e-4, 1e-1, 5), (2, 1))
        samples[column, 2] = bad
        with pytest.raises(DegenerateSamples, match="finite"):
            fit_or_floor(samples[0], samples[1], 0.0)
        assert capfd.readouterr().err == ""  # no solver message on stderr

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=1e-6, max_value=1e6))
    def test_scale_invariance(self, factor):
        s = np.geomspace(1e-5, 1e-2, 8)
        q = 0.7 * s**1.5
        base = fit_or_floor(s, q, 0.0).slope
        scaled = fit_or_floor(s, factor * q, 0.0).slope
        assert abs(base - scaled) <= 1e-9

    def test_fit_or_floor_detects_noise(self):
        s = np.geomspace(1e-5, 1e-2, 8)
        assert fit_or_floor(s, np.full(8, 1e-17), floor=1e-13).at_floor
        fit = fit_or_floor(s, s**2, floor=1e-13)
        assert not fit.at_floor and abs(fit.slope - 2.0) < 1e-6


def polyfit_lines(scales, values, floor):
    """Reference for fit_or_floor: one np.polyfit per series, None for a series at the floor."""
    x = np.log(scales)
    lines = []
    for series in np.reshape(values, (-1, len(scales))):
        if np.max(np.abs(series)) <= floor:
            lines.append(None)
            continue
        y = np.log(np.maximum(series, floor * 1e-3))
        slope, intercept = np.polyfit(x, y, 1)
        lines.append((slope, intercept, np.max(np.abs(y - (slope * x + intercept)))))
    return lines


def random_series(seed, rows, scales):
    """Power laws of random order and prefactor with noise; row 1 sits at the floor, row 2 has clipped samples."""
    rng = np.random.Generator(np.random.Philox(key=[seed, 0x464954]))
    values = np.exp(rng.normal(size=(rows, len(scales)))) * scales ** rng.uniform(-3, 3, size=(rows, 1))
    values[1] = rng.uniform(0, 1e-13, size=len(scales))
    values[2, [0, 3]] = [1e-20, -1e-14]
    return values


class TestStackedFit:
    SCALES = np.geomspace(1e-5, 1e-2, 8)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_polyfit_reference(self, seed):
        values = random_series(seed, 40, self.SCALES)
        fit = fit_or_floor(self.SCALES, values, 1e-13)
        for t, want in enumerate(polyfit_lines(self.SCALES, values, 1e-13)):
            if want is None:
                assert fit.at_floor[t] and np.all(np.isnan([fit.slope[t], fit.intercept[t], fit.residual[t]]))
            else:
                assert not fit.at_floor[t]
                np.testing.assert_allclose([fit.slope[t], fit.intercept[t], fit.residual[t]], want, rtol=0, atol=1e-12)
        assert fit.at_floor[1] and not fit.at_floor[2]

    @pytest.mark.parametrize("seed", range(3))
    def test_each_row_is_the_one_series_call(self, seed):
        values = random_series(seed, 12, self.SCALES)
        stacked = fit_or_floor(self.SCALES, values.reshape(3, 4, -1), 1e-13)
        assert stacked.slope.shape == stacked.at_floor.shape == stacked.floor_hits.shape == (3, 4)
        for t, series in enumerate(values):
            one = fit_or_floor(self.SCALES, series, 1e-13)
            for name in ("slope", "intercept", "residual", "at_floor", "floor_hits"):
                assert np.ndim(getattr(one, name)) == 0
                np.testing.assert_array_equal(getattr(one, name), getattr(stacked, name)[t // 4, t % 4])

    def test_transposed_stack_gives_the_same_bits(self):
        values = random_series(7, 10, self.SCALES)
        fit = fit_or_floor(self.SCALES, values, 1e-13)
        transposed = fit_or_floor(self.SCALES, np.asfortranarray(values), 1e-13)
        np.testing.assert_array_equal(fit.slope, transposed.slope)
        np.testing.assert_array_equal(fit.residual, transposed.residual)

    def test_unclipped_rows_are_the_one_series_calls(self):
        values = random_series(3, 6, self.SCALES)[3:]
        fit = fit_or_floor(self.SCALES, values, 0.0)
        for t, series in enumerate(values):
            one = fit_or_floor(self.SCALES, series, 0.0)
            assert (one.slope, one.intercept, one.residual) == (fit.slope[t], fit.intercept[t], fit.residual[t])
            assert not one.at_floor and one.floor_hits == 0

    def test_floor_hits_count_the_clipped_samples(self):
        values = np.tile(self.SCALES**2, (4, 1))
        values[1, :3] = [1e-17, 0.0, -1e-12]  # below floor * 1e-3 = 1e-16
        values[2, 0] = 1e-13 * 1e-3  # at the clip value: kept as it is
        values[3] = 1e-14  # at the floor
        fit = fit_or_floor(self.SCALES, values, 1e-13)
        assert fit.floor_hits.tolist() == [0, 3, 0, 0]  # the row at the floor is not clipped: 1e-14 > 1e-16
        assert fit.at_floor.tolist() == [False, False, False, True]
        assert fit.slope[1] > fit.slope[0] + 1  # the clipped small-scale samples make a steep false slope

    @pytest.mark.parametrize(
        "scales, bad",
        [
            (np.geomspace(1e-5, 1e-2, 3), None),  # too few scales
            ([1e-5, 1e-4, 1e-4, 1e-2], None),  # duplicate scales
            ([0.0, 1e-4, 1e-3, 1e-2], None),  # non-positive scale
            ([1e-5, 1e-4, np.inf, 1e-2], None),
            (np.geomspace(1e-5, 1e-2, 4), np.nan),
            (np.geomspace(1e-5, 1e-2, 4), np.inf),
        ],
        ids=["too-few", "duplicate", "non-positive", "infinite-scale", "nan-value", "infinite-value"],
    )
    def test_degenerate_stack_rejected(self, scales, bad):
        values = np.tile(np.asarray(scales, dtype=float) ** 2, (3, 1))
        values[0] = 1e-20  # a row at the floor does not hide the others
        if bad is not None:
            values[2, 1] = bad
        with pytest.raises(DegenerateSamples):
            fit_or_floor(scales, np.abs(values), 1e-13)

    def test_non_positive_sample_without_a_floor_rejected(self):
        values = np.tile(self.SCALES**2, (2, 1))
        values[1, 4] = 0.0
        with pytest.raises(DegenerateSamples, match="positive"):
            fit_or_floor(self.SCALES, values, 0.0)

    def test_values_not_one_per_scale_rejected(self):
        with pytest.raises(DimensionMismatch):
            fit_or_floor(self.SCALES, np.ones((2, 7)), 1e-13)


class TestResidualNorm:
    def test_identical(self):
        a = random_hermitian(3, seed=1)
        assert matrix_residual_norm(a, a) == 0.0

    def test_identity_vs_zero(self):
        assert abs(matrix_residual_norm(np.eye(2), np.zeros((2, 2))) - np.sqrt(2)) <= 1e-15

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(21)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        acc = 0.0
        for i in range(4):
            for j in range(4):
                acc += abs(a[i, j] - b[i, j]) ** 2
        assert abs(matrix_residual_norm(a, b) - np.sqrt(acc)) <= 1e-14

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            matrix_residual_norm(np.eye(2), np.eye(3))


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("shape", [(1, 2, 2), (8, 4, 4), (5, 3, 7), (6, 8, 8)])
def test_stacked_frobenius_equals_the_one_matrix_norm(shape, dtype):
    rng = np.random.Generator(np.random.Philox(key=[shape[0], 0x46524F42]))
    stack = rng.normal(size=shape) * 10.0 ** rng.uniform(-12, 2, size=(shape[0], 1, 1))
    if dtype is complex:
        stack = stack + 1j * rng.normal(size=shape)
    norms = frobenius(stack)
    assert norms.shape == (shape[0],)
    assert norms.tolist() == [np.linalg.norm(m) for m in stack]
    assert type(frobenius(stack[0])) is float and frobenius(stack[0]) == norms[0]


def test_richardson_zero_limit_linear_exact():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[0.5, -1.0], [0.0, 2.0]])
    f = lambda s: a + s * b
    out = richardson_zero_limit(1e-3, f(1e-3), 2e-3, f(2e-3))
    np.testing.assert_allclose(out, a, atol=1e-12)
