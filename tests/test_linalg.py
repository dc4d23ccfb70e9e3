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
    power_order_fit,
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
    def test_solver_failure_is_no_convergence(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")

        monkeypatch.setattr(np, "polyfit", fail)
        s = np.array([1e-2, 1e-3, 1e-4, 1e-5])
        with pytest.raises(NoConvergence):
            power_order_fit(list(zip(s, s**2)))

    def test_exact_square(self):
        s = np.array([1e-2, 1e-3, 1e-4, 1e-5])
        fit = power_order_fit(list(zip(s, s**2)))
        assert abs(fit.slope - 2.0) <= 1e-9
        assert fit.residual <= 1e-9

    def test_linear_with_prefactor(self):
        s = np.geomspace(1e-4, 1e-1, 6)
        fit = power_order_fit(list(zip(s, 3.0 * s)))
        assert abs(fit.slope - 1.0) <= 1e-9
        assert abs(fit.intercept - np.log(3.0)) <= 1e-9

    def test_mixed_orders_dominated_by_linear(self):
        s = np.geomspace(1e-5, 1e-2, 8)
        q = s + 10 * s**2  # evaluated oracle, linear term dominates on this grid
        fit = power_order_fit(list(zip(s, q)))
        assert 0.95 <= fit.slope <= 1.05

    def test_too_few_points(self):
        with pytest.raises(DegenerateSamples):
            power_order_fit([(1e-2, 1.0), (1e-3, 0.1), (1e-4, 0.01)])

    def test_nonpositive_values(self):
        s = np.geomspace(1e-4, 1e-1, 5)
        q = [1.0, 2.0, 0.0, 3.0, 4.0]
        with pytest.raises(DegenerateSamples):
            power_order_fit(list(zip(s, q)))

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=1e-6, max_value=1e6))
    def test_scale_invariance(self, factor):
        s = np.geomspace(1e-5, 1e-2, 8)
        q = 0.7 * s**1.5
        base = power_order_fit(list(zip(s, q))).slope
        scaled = power_order_fit(list(zip(s, factor * q))).slope
        assert abs(base - scaled) <= 1e-9

    def test_fit_or_floor_detects_noise(self):
        s = np.geomspace(1e-5, 1e-2, 8)
        assert fit_or_floor(s, np.full(8, 1e-17), floor=1e-13) is None
        fit = fit_or_floor(s, s**2, floor=1e-13)
        assert fit is not None and abs(fit.slope - 2.0) < 1e-6


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


def test_richardson_zero_limit_linear_exact():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[0.5, -1.0], [0.0, 2.0]])
    f = lambda s: a + s * b
    out = richardson_zero_limit(1e-3, f(1e-3), 2e-3, f(2e-3))
    np.testing.assert_allclose(out, a, atol=1e-12)
