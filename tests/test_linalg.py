from types import SimpleNamespace

import numpy as np
import pytest

from grasspack import linalg
from grasspack.errors import InvalidArgument
from grasspack.linalg import (
    _qr_positive,
    fro_norm,
    matexp_skew_hermitian,
    random_stiefel,
)


def random_skew_hermitian(n, rng):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return g - g.conj().T


class TestFroNorm:
    def test_identity(self):
        assert fro_norm(np.eye(2)) == pytest.approx(np.sqrt(2), abs=1e-15)

    def test_zero(self):
        assert fro_norm(np.zeros((3, 2))) == 0.0

    def test_hand_sum(self):
        a = np.array([[1 + 1j, 0], [0, 1 - 1j]])
        assert fro_norm(a) == pytest.approx(2.0, abs=1e-15)


class TestMatexp:
    def test_zero_matrix(self):
        np.testing.assert_allclose(matexp_skew_hermitian(np.zeros((3, 3))), np.eye(3), atol=1e-15)

    def test_real_rotation(self):
        theta = np.pi / 2
        a = np.array([[0.0, theta], [-theta, 0.0]])
        expected = np.array([[0.0, 1.0], [-1.0, 0.0]])
        np.testing.assert_allclose(matexp_skew_hermitian(a), expected, atol=1e-15)

    def test_unitarity_across_sizes(self):
        # module invariant: 1000 random inputs of size <= 8 stay unitary at 1e-8
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = int(rng.integers(1, 9))
            u = matexp_skew_hermitian(random_skew_hermitian(n, rng))
            assert fro_norm(u.conj().T @ u - np.eye(n)) <= 1e-8

    def test_rejects_non_skew(self):
        with pytest.raises(InvalidArgument):
            matexp_skew_hermitian(np.eye(2))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            matexp_skew_hermitian(np.zeros((2, 3)))

    def test_rejects_a_vector(self):
        with pytest.raises(InvalidArgument, match="2-D"):
            matexp_skew_hermitian(np.zeros(3))


class TestQrOrthonormalize:
    """Orthonormalization through `_qr_positive`, the manifold retraction."""

    def test_fixpoint_on_orthonormal_input(self):
        rng = np.random.default_rng(1)
        q = random_stiefel(5, 3, rng)
        np.testing.assert_allclose(_qr_positive(q), q, atol=1e-10)

    def test_column_scaling_removed(self):
        a = np.array([[2.0, 0], [0, 3.0], [0, 0]])
        np.testing.assert_allclose(_qr_positive(a), np.eye(3)[:, :2], atol=1e-15)

    def test_projector_matches_svd_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
            q = _qr_positive(a)
            u = np.linalg.svd(a, full_matrices=False)[0]
            np.testing.assert_allclose(q @ q.conj().T, u @ u.conj().T, atol=1e-9)

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
        q = _qr_positive(a)
        np.testing.assert_allclose(_qr_positive(q), q, atol=1e-10)

    def test_output_orthonormal(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((7, 3)) + 1j * rng.standard_normal((7, 3))
        q = _qr_positive(a)
        assert fro_norm(q.conj().T @ q - np.eye(3)) <= 1e-10

    def test_invalid_flag_of_the_qr_gufuncs_raises_linalg_error(self, monkeypatch):
        # LAPACK argument errors reach numpy's QR gufuncs' caller as the
        # floating-point invalid flag; _qr_positive raises on it as np.linalg.qr does
        def flagged(a, *args, **kwargs):
            np.sqrt(np.array(-1.0))  # sets the invalid flag
            return a

        monkeypatch.setattr(linalg, "_umath_linalg", SimpleNamespace(qr_r_raw=flagged, qr_reduced=flagged))
        with pytest.raises(np.linalg.LinAlgError, match="QR factorization"):
            _qr_positive(np.eye(3)[:, :2])


def _qr_positive_reference(a):
    """The retraction written out: ``np.linalg.qr`` and the phase fix of R's diagonal."""
    q, r = np.linalg.qr(a)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    mag = np.abs(d)
    phase = np.where(mag > 0, d / np.where(mag > 0, mag, 1.0), 1.0)
    return q * phase.conj()[..., None, :]


class TestQrMatchesNumpyQr:
    """`_qr_positive` runs numpy's private QR gufuncs; these tests pin its bits
    to the public ``np.linalg.qr``, so a numpy that renames or changes those
    gufuncs fails here rather than in a moved codebook."""

    def check(self, a):
        keep = a.copy()
        q = _qr_positive(a)
        want = _qr_positive_reference(a)
        assert q.dtype == want.dtype and q.shape == want.shape
        assert q.tobytes() == want.tobytes()
        assert a.tobytes() == keep.tobytes()  # the input is left untouched

    @pytest.mark.parametrize("k", [1, 22, 32])
    @pytest.mark.parametrize("t, m", [(4, 2), (6, 3), (8, 1), (64, 4), (3, 3)])
    def test_stacks_bitwise(self, k, t, m):
        rng = np.random.default_rng(1000 * t + 10 * m + k)
        for _ in range(5):
            self.check(rng.standard_normal((k, t, m)) + 1j * rng.standard_normal((k, t, m)))

    def test_single_matrix_and_real_input_bitwise(self):
        rng = np.random.default_rng(5)
        self.check(rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3)))
        self.check(rng.standard_normal((6, 3)))
        self.check(rng.standard_normal((22, 4, 2)))

    def test_zero_column_keeps_phase_one(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((22, 4, 2)) + 1j * rng.standard_normal((22, 4, 2))
        a[3, :, 1] = 0.0
        self.check(a)
        assert np.diagonal(np.linalg.qr(a[3])[1])[1] == 0
        assert _qr_positive(a)[3, :, 1].tobytes() == np.linalg.qr(a[3])[0][:, 1].tobytes()

    def test_nan_propagates_as_in_numpy_qr(self):
        # LAPACK's geqrf reports no error for NaN, so np.linalg.qr returns NaN
        # rather than raising; the retraction does the same
        rng = np.random.default_rng(7)
        a = rng.standard_normal((3, 4, 2)) + 1j * rng.standard_normal((3, 4, 2))
        a[1, 0, 0] = np.nan
        q = _qr_positive(a)
        assert np.isnan(q[1]).any() and np.isfinite(q[[0, 2]]).all()
        assert np.array_equal(q, _qr_positive_reference(a), equal_nan=True)
