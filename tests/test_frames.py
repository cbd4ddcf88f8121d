"""Frame factories, perfect reconstruction, and the cascade identity."""

import dataclasses

import numpy as np
import pytest

from framelets import analysis, frames, netbuild
from conftest import make_frame_pair, make_spec
import oracles


class TestFramePooling:
    def test_identity_kind(self):
        phi, phi_t = frames.make_frame_pooling(4, 1.0, kind="identity")
        np.testing.assert_array_equal(phi, np.eye(4))
        np.testing.assert_array_equal(phi_t, np.eye(4))

    def test_orthogonal_kind(self):
        phi, phi_t = frames.make_frame_pooling(4, 1.0, kind="orthogonal", seed=3)
        np.testing.assert_allclose(phi.T @ phi, np.eye(4), atol=1e-12)
        np.testing.assert_allclose(phi_t @ phi.T, np.eye(4), atol=1e-12)

    def test_alpha_scaling(self):
        phi, phi_t = frames.make_frame_pooling(5, 2.0, kind="orthogonal", seed=1)
        np.testing.assert_allclose(phi_t, 2.0 * phi)
        np.testing.assert_allclose(phi_t @ phi.T, 2.0 * np.eye(5), atol=1e-12)

    def test_contracting_dims_rejected(self):
        with pytest.raises(ValueError, match="cannot contract"):
            frames.frame_bank(make_spec(kappa=1, m_list=[6, 4]))

    def test_expanding_dims_rejected(self):
        with pytest.raises(ValueError, match="square"):
            frames.frame_bank(make_spec(kappa=1, m_list=[4, 6]))


class TestFrameFilters:
    def test_haar_pair_satisfies_condition(self):
        # the scaled Haar pair is one valid solution at r=2, 1 -> 2 channels
        psi = 0.5 * np.array([[1.0, 1.0], [1.0, -1.0]])
        np.testing.assert_allclose(psi @ psi.T, 0.5 * np.eye(2), atol=1e-15)
        assert frames.frame_filter_constant(2, 1.0, False) == 0.5

    def test_factory_no_skip(self):
        psi, psi_t = frames.make_frame_filters(2, 1, 2, 1.0, skip=False, seed=0)
        np.testing.assert_allclose(psi @ psi_t.T, 0.5 * np.eye(2), atol=1e-12)

    def test_factory_skip_rescales(self):
        psi, psi_t = frames.make_frame_filters(2, 1, 2, 1.0, skip=True, seed=0)
        np.testing.assert_allclose(psi @ psi_t.T, 0.25 * np.eye(2), atol=1e-12)

    def test_factory_wide(self):
        psi, psi_t = frames.make_frame_filters(2, 2, 8, 1.0, skip=False, seed=5)
        c = frames.frame_filter_constant(2, 1.0, False)
        dev = np.max(np.abs(psi @ psi_t.T - c * np.eye(4)))
        assert dev <= 1e-12

    def test_too_few_channels_rejected(self):
        with pytest.raises(ValueError, match="q_out >= r"):
            frames.make_frame_filters(2, 2, 3, 1.0)


class TestFrameResidual:
    def test_factory_bank_residuals_tiny(self):
        for skip in (False, True):
            spec, bank = make_frame_pair(kappa=2, skip=skip, seed=9)
            mats = netbuild.realize(spec, bank)
            for entry in frames.frame_residual(spec, bank, mats, 1.0):
                for key, value in entry.items():
                    if key != "layer":
                        assert value <= 1e-10, (skip, entry)

    def test_random_bank_reports_without_error(self):
        spec = make_spec(kappa=2, m=6)
        bank = netbuild.random_bank(spec, seed=5)
        report = frames.frame_residual(spec, bank, netbuild.realize(spec, bank), 1.0)
        assert len(report) == 2
        assert max(e["layer_identity_residual"] for e in report) > 1e-3

    def test_identity_single_layer_exact_zero(self):
        # one channel in and out with a delta filter and identity pooling:
        # E = D = I exactly, alpha = 1, c = 1 with r = 1
        spec = netbuild.NetworkSpec(kappa=1, r=1, q=(1, 1), m=(4, 4),
                                    nonlinearity="none")
        one = np.ones((1, 1, 1))
        bank = netbuild.LayerBank(enc_filters=(one,), dec_filters=(one.copy(),),
                                  pool=(np.eye(4),), unpool=(np.eye(4),))
        entry = frames.frame_residual(spec, bank, netbuild.realize(spec, bank), 1.0)[0]
        assert entry["pooling_residual"] == 0.0
        assert entry["filter_residual"] == 0.0
        assert entry["layer_identity_residual"] == 0.0


class TestPerfectReconstruction:
    @pytest.mark.parametrize("skip", [False, True])
    @pytest.mark.parametrize("kappa", [1, 2, 3])
    def test_forward_reconstructs(self, skip, kappa):
        spec, bank = make_frame_pair(kappa=kappa, skip=skip, seed=17)
        mats = netbuild.realize(spec, bank)
        gen = np.random.default_rng(kappa * 10 + skip)
        for _ in range(100):
            x = gen.standard_normal(spec.d[0])
            y = netbuild.forward_matrices(spec, mats, x).y
            assert np.linalg.norm(y - x) <= 1e-10 * np.linalg.norm(x)

    @pytest.mark.parametrize("skip", [False, True])
    def test_layerwise_identity(self, skip):
        spec, bank = make_frame_pair(kappa=3, skip=skip, seed=2)
        mats = netbuild.realize(spec, bank)
        for l in range(1, spec.kappa + 1):
            recon = mats[l - 1].D @ mats[l - 1].E.T
            if skip:
                recon = recon + mats[l - 1].S_tilde @ mats[l - 1].S.T
            np.testing.assert_allclose(recon, np.eye(spec.d[l - 1]), atol=1e-10)

    def test_alpha_two(self):
        spec, bank = make_frame_pair(kappa=2, skip=True, alpha=2.0, seed=6)
        gen = np.random.default_rng(0)
        x = gen.standard_normal(spec.d[0])
        y = netbuild.forward_matrices(spec, netbuild.realize(spec, bank), x).y
        assert np.linalg.norm(y - x) <= 1e-10 * np.linalg.norm(x)


def frame_basis(spec, bank):
    """The global frame pair: linear_rep's all-ones masks on the linear spec."""
    linear = dataclasses.replace(spec, nonlinearity="none")
    return analysis.linear_rep(linear, netbuild.realize(linear, bank),
                               np.zeros(spec.d[0]))


class TestFrameBasis:
    def test_identity_bank(self):
        spec = netbuild.NetworkSpec(kappa=1, r=1, q=(1, 1), m=(4, 4),
                                    nonlinearity="none")
        one = np.ones((1, 1, 1))
        bank = netbuild.LayerBank(enc_filters=(one,), dec_filters=(one.copy(),),
                                  pool=(np.eye(4),), unpool=(np.eye(4),))
        basis = frame_basis(spec, bank)
        np.testing.assert_array_equal(basis.B, np.eye(4))
        np.testing.assert_array_equal(basis.B_tilde, np.eye(4))

    def test_no_skip_reconstruction(self):
        spec, bank = make_frame_pair(kappa=2, skip=False, seed=13)
        basis = frame_basis(spec, bank)
        assert basis.B.shape[1] == spec.d[2]
        dev = np.max(np.abs(basis.matrix() - np.eye(spec.d[0])))
        assert dev <= 1e-10

    def test_skip_layout_and_reconstruction(self):
        spec, bank = make_frame_pair(kappa=2, skip=True, seed=13)
        basis = frame_basis(spec, bank)
        assert basis.B.shape[1] == spec.d[2] + spec.s[0] + spec.s[1]
        dev = np.max(np.abs(basis.matrix() - np.eye(spec.d[0])))
        assert dev <= 1e-10
        # column blocks follow [E-chain | E-prefix @ S, deepest skip first]
        mats = netbuild.realize(spec, bank)
        np.testing.assert_allclose(
            basis.B[:, : spec.d[2]], mats[0].E @ mats[1].E, atol=1e-14
        )
        np.testing.assert_allclose(
            basis.B[:, spec.d[2]: spec.d[2] + spec.s[1]],
            mats[0].E @ mats[1].S, atol=1e-14,
        )
        np.testing.assert_allclose(basis.B[:, -spec.s[0]:], mats[0].S, atol=1e-14)

    def test_duality_symmetry_no_pooling(self):
        # symmetric factory, identity pooling, alpha=1: B == B_tilde
        spec, bank = make_frame_pair(kappa=2, skip=False, seed=21,
                                     pooling="identity")
        basis = frame_basis(spec, bank)
        np.testing.assert_allclose(basis.B, basis.B_tilde, atol=1e-14)

    def test_reconstruction_matches_linear_forward(self):
        spec, bank = make_frame_pair(kappa=2, skip=True, seed=4)
        basis = frame_basis(spec, bank)
        gen = np.random.default_rng(5)
        x = gen.standard_normal(spec.d[0])
        y = netbuild.forward_matrices(spec, netbuild.realize(spec, bank), x).y
        np.testing.assert_allclose(basis.matrix() @ x, y, atol=1e-10)


class TestCascade:
    @staticmethod
    def _identity_pool_bank(spec, seed):
        bank = netbuild.random_bank(spec, seed=seed)
        eye = tuple(np.eye(spec.m[0]) for _ in range(spec.kappa))
        return dataclasses.replace(bank, pool=eye, unpool=eye)

    def test_single_layer_trivial(self):
        spec = make_spec(kappa=1, r=2, m=8, nonlinearity="none")
        bank = self._identity_pool_bank(spec, seed=1)
        report = oracles.cascade_filter_check(spec, bank)
        assert report["ok"] and report["max_deviation"] <= 1e-15

    @pytest.mark.parametrize("kappa", [2, 3])
    def test_multi_layer(self, kappa):
        spec = make_spec(kappa=kappa, r=2, m=8, nonlinearity="none")
        bank = self._identity_pool_bank(spec, seed=kappa)
        report = oracles.cascade_filter_check(spec, bank, tol=1e-12)
        assert report["ok"], report
        assert len(report["per_layer"]) == kappa

    def test_nan_operator_entry_fails_the_check(self, monkeypatch):
        # a NaN entry in a chained operator (as an overflow leaves) makes
        # channel 1's deviation NaN; Python's max dropped it behind channel 0's
        spec = make_spec(kappa=2, r=2, m=8, nonlinearity="none")
        bank = self._identity_pool_bank(spec, seed=2)
        mats = list(netbuild.realize(spec, bank))
        E = mats[1].E.copy()
        E[0, spec.m[0]] = np.nan
        mats[1] = dataclasses.replace(mats[1], E=E)
        monkeypatch.setattr(netbuild, "realize", lambda *_: tuple(mats))
        report = oracles.cascade_filter_check(spec, bank)
        assert np.isnan(report["per_layer"][1]["enc_deviation"])
        assert np.isnan(report["max_deviation"])
        assert report["ok"] is False

    def test_explicit_multi_index_sum(self):
        # independent oracle: brute-force sum over channel paths, then
        # compare the depth-2 block columns directly
        spec = make_spec(kappa=2, r=2, m=8, nonlinearity="none")
        bank = self._identity_pool_bank(spec, seed=7)
        mats = netbuild.realize(spec, bank)
        prod = mats[0].E @ mats[1].E
        m = 8
        for t in range(spec.q[2]):
            acc = np.zeros(m)
            for j in range(spec.q[1]):
                f1 = np.zeros(m)
                f1[: spec.r] = bank.enc_filters[0][0, j]
                acc += oracles.circ_conv(f1, bank.enc_filters[1][j, t])
            np.testing.assert_allclose(
                prod[:, t * m:(t + 1) * m], oracles.identity_conv(m, acc),
                atol=1e-12,
            )

    def test_pooling_precondition(self):
        spec, bank = make_frame_pair(kappa=2, seed=3, pooling="orthogonal")
        with pytest.raises(ValueError, match="no pooling"):
            oracles.cascade_filter_check(spec, bank)

    def test_multichannel_input_rejected(self):
        spec = make_spec(kappa=1, r=2, m=8, q=[2, 4], nonlinearity="none")
        bank = self._identity_pool_bank(spec, seed=1)
        with pytest.raises(ValueError, match="single input channel"):
            oracles.cascade_filter_check(spec, bank)
