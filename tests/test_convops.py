"""The convolution/Hankel oracles of tests/oracles.py against brute-force
periodic sums, and frames.filters_to_matrix against the stacked Hankel form."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from framelets import frames
import oracles

FINITE = st.floats(min_value=-10, max_value=10, allow_nan=False)


def brute_circ_conv(x, h):
    """Independent oracle: y[t] = sum_k x[(t-k) mod n] h[k], both padded."""
    n = max(len(x), len(h))
    xp = np.zeros(n)
    xp[: len(x)] = x
    hp = np.zeros(n)
    hp[: len(h)] = h
    return np.array(
        [sum(xp[(t - k) % n] * hp[k] for k in range(n)) for t in range(n)]
    )


class TestFlip:
    def test_examples(self):
        np.testing.assert_array_equal(oracles.flip([1, 2, 3, 4]), [1, 4, 3, 2])
        np.testing.assert_array_equal(oracles.flip([5]), [5])

    def test_zero_padding(self):
        # pad [1, 2] to period 4 first: [1, 2, 0, 0] -> [1, 0, 0, 2]
        np.testing.assert_array_equal(oracles.flip([1, 2], n=4), [1, 0, 0, 2])

    @given(arrays(np.float64, 7, elements=FINITE))
    def test_involution(self, v):
        np.testing.assert_array_equal(oracles.flip(oracles.flip(v)), v)


class TestHankel:
    def test_examples(self):
        np.testing.assert_array_equal(
            oracles.hankel([1, 2, 3, 4], 2), [[1, 2], [2, 3], [3, 4], [4, 1]]
        )
        # frozen from the index formula (i + j) mod 3
        np.testing.assert_array_equal(
            oracles.hankel([1, 0, 0], 3), [[1, 0, 0], [0, 0, 1], [0, 1, 0]]
        )
        e1 = np.zeros(5)
        e1[0] = 1.0
        np.testing.assert_array_equal(oracles.hankel(e1, 1), e1[:, None])

    def test_wraparound_property(self, rng):
        x = rng.standard_normal(9)
        H = oracles.hankel(x, 4)
        for i in range(9):
            for j in range(4):
                assert H[i, j] == x[(i + j) % 9]

    def test_width_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            oracles.hankel([1, 2, 3], 4)
        with pytest.raises(ValueError, match="out of range"):
            oracles.hankel([1, 2, 3], 0)


class TestCircConv:
    def test_identity_filter(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_allclose(oracles.circ_conv(x, [1, 0, 0, 0]), x)

    def test_cyclic_shift(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_allclose(oracles.circ_conv(x, [0, 1]), [4, 1, 2, 3])

    def test_brute_force_oracle(self, rng):
        x = rng.standard_normal(8)
        h = rng.standard_normal(3)
        np.testing.assert_allclose(
            oracles.circ_conv(x, h), brute_circ_conv(x, h), atol=1e-12
        )

    @given(
        arrays(np.float64, st.integers(1, 32), elements=FINITE),
        arrays(np.float64, st.integers(1, 8), elements=FINITE),
    )
    @settings(max_examples=60, deadline=None)
    def test_commutativity(self, x, h):
        if len(h) > len(x):
            x, h = h, x
        np.testing.assert_allclose(
            oracles.circ_conv(x, h), oracles.circ_conv(h, x), atol=1e-12
        )

    def test_linearity(self, rng):
        x = rng.standard_normal(10)
        y = rng.standard_normal(10)
        h = rng.standard_normal(4)
        np.testing.assert_allclose(
            oracles.circ_conv(2.5 * x - 1.25 * y, h),
            2.5 * oracles.circ_conv(x, h) - 1.25 * oracles.circ_conv(y, h),
            atol=1e-12,
        )

    def test_corr_is_conv_with_flipped_filter(self, rng):
        x = rng.standard_normal(8)
        psi = rng.standard_normal(3)
        np.testing.assert_allclose(
            oracles.circ_corr(x, psi),
            oracles.circ_conv(x, oracles.flip(psi, n=8)),
            atol=1e-12,
        )

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            oracles.circ_conv([1.0, np.nan], [1.0])


class TestMimoConv:
    def test_single_channel_reduces_to_corr(self, rng):
        z = rng.standard_normal(6)
        psi = rng.standard_normal(3)
        out = oracles.mimo_conv([z], psi.reshape(1, 1, 3))
        np.testing.assert_allclose(out[0], oracles.circ_corr(z, psi), atol=1e-12)

    def test_identity_filters_sum_channels(self, rng):
        z1 = rng.standard_normal(5)
        z2 = rng.standard_normal(5)
        delta = np.array([1.0, 0.0])
        psi = np.stack([delta[None, :], delta[None, :]])  # p=2, q=1, r=2
        out = oracles.mimo_conv([z1, z2], psi)
        np.testing.assert_allclose(out[0], z1 + z2, atol=1e-12)

    def test_extended_hankel_oracle(self, rng):
        # p=2, q=3, n=6, r=2: must match the stacked-Hankel matrix product
        Z = [rng.standard_normal(6) for _ in range(2)]
        psi = rng.standard_normal((2, 3, 2))
        out = oracles.mimo_conv(Z, psi)
        oracle = oracles.extended_hankel(Z, 2) @ frames.filters_to_matrix(psi)
        np.testing.assert_allclose(out.T, oracle, atol=1e-12)

    def test_channel_mismatch(self, rng):
        with pytest.raises(ValueError, match="channels"):
            oracles.mimo_conv([rng.standard_normal(4)], rng.standard_normal((2, 1, 2)))


class TestConvWithFrame:
    def test_identity_pooling_identity_filter(self):
        out = oracles.conv_with_frame(np.eye(5), [1.0])
        np.testing.assert_array_equal(out, np.eye(5))

    def test_circulant_from_identity(self):
        # frozen: columns of I_4 convolved with [a, b, 0, 0] give the
        # circulant with first column (a, b, 0, 0)
        a, b = 2.0, -3.0
        out = oracles.conv_with_frame(np.eye(4), [a, b, 0, 0])
        expected = np.array(
            [
                [a, 0, 0, b],
                [b, a, 0, 0],
                [0, b, a, 0],
                [0, 0, b, a],
            ]
        )
        np.testing.assert_allclose(out, expected, atol=1e-15)

    def test_columnwise_oracle(self, rng):
        Phi = rng.standard_normal((4, 4))
        psi = rng.standard_normal(2)
        out = oracles.conv_with_frame(Phi, psi)
        for i in range(4):
            np.testing.assert_allclose(
                out[:, i], brute_circ_conv(Phi[:, i], psi), atol=1e-12
            )


class TestIdentityConv:
    def test_delta(self):
        np.testing.assert_array_equal(oracles.identity_conv(6, [1.0]), np.eye(6))

    def test_composition_frozen_example(self):
        # m=4, v=(1,2,0,0), w=(0,1,0,0): explicit 4x4 multiplication oracle
        v = [1.0, 2.0, 0.0, 0.0]
        w = [0.0, 1.0, 0.0, 0.0]
        left = oracles.identity_conv(4, v) @ oracles.identity_conv(4, w)
        right = oracles.identity_conv(4, oracles.circ_conv(w, v))
        expected = np.array(
            [
                [0, 0, 2, 1],
                [1, 0, 0, 2],
                [2, 1, 0, 0],
                [0, 2, 1, 0],
            ],
            dtype=float,
        )
        np.testing.assert_allclose(left, expected, atol=1e-15)
        np.testing.assert_allclose(right, expected, atol=1e-15)

    @pytest.mark.parametrize("r, m", [(r, m) for r in (1, 2, 4) for m in (2, 5, 8, 16)
                                      if r <= m])  # a filter fits in one period
    def test_composition_sweep(self, m, r, rng):
        v = rng.standard_normal(r)
        w = rng.standard_normal(r)
        left = oracles.identity_conv(m, v) @ oracles.identity_conv(m, w)
        right = oracles.identity_conv(m, oracles.circ_conv(np.pad(w, (0, m - r)), v))
        np.testing.assert_allclose(left, right, atol=1e-12)

    def test_matvec_is_convolution(self, rng):
        v = rng.standard_normal(3)
        u = rng.standard_normal(7)
        np.testing.assert_allclose(
            oracles.identity_conv(7, v) @ u, oracles.circ_conv(u, v), atol=1e-12
        )


class TestHankelInnerIdentity:
    def test_delta_exact(self):
        delta = np.array([1.0, 0.0, 0.0, 0.0])
        assert oracles.hankel_inner_identity_check(delta, delta, delta, tol=0.0)

    def test_random_instances(self):
        gen = np.random.default_rng(7)
        for _ in range(100):
            f = gen.standard_normal(8)
            u = gen.standard_normal(8)
            v = gen.standard_normal(3)
            assert oracles.hankel_inner_identity_check(f, u, v, tol=1e-12)

    def test_zero_v(self, rng):
        f = rng.standard_normal(6)
        u = rng.standard_normal(6)
        v = np.zeros(2)
        H = oracles.hankel(f, 2)
        assert u @ H @ v == 0.0
        assert f @ oracles.circ_conv(u, v) == 0.0
        assert oracles.hankel_inner_identity_check(f, u, v, tol=0.0)
