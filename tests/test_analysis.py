"""Activation patterns, linear representations, census, Lipschitz, Jacobian."""

import dataclasses

import numpy as np
import pytest

from framelets import analysis, frames, netbuild
from conftest import make_frame_pair, make_spec


def positive_bank(spec, seed):
    """All-positive taps and identity pooling: positive inputs stay positive."""
    bank = netbuild.random_bank(spec, seed=seed)
    eye = tuple(np.eye(spec.m[0]) for _ in range(spec.kappa))
    return dataclasses.replace(
        bank,
        enc_filters=tuple(np.abs(f) + 0.1 for f in bank.enc_filters),
        dec_filters=tuple(np.abs(f) + 0.1 for f in bank.dec_filters),
        pool=eye,
        unpool=eye,
    )


class TestActivationPattern:
    def test_all_positive_input_gives_all_ones(self):
        spec = make_spec(kappa=2, m=4, skip=True)
        bank = positive_bank(spec, seed=3)
        mats = netbuild.realize(spec, bank)
        x = np.full(spec.d[0], 2.0)
        pattern = analysis.extract_pattern(spec, mats, x)
        for masks in (pattern.enc, pattern.skip, pattern.dec):
            for mask in masks:
                assert np.all(mask)

    def test_zero_input_gives_all_zeros(self):
        spec = make_spec(kappa=2, m=4, skip=True)
        bank = netbuild.random_bank(spec, seed=1)
        mats = netbuild.realize(spec, bank)
        pattern = analysis.extract_pattern(spec, mats, np.zeros(spec.d[0]))
        for masks in (pattern.enc, pattern.skip, pattern.dec):
            for mask in masks:
                assert not np.any(mask)

    def test_linear_stages_carry_ones(self):
        spec = make_spec(kappa=1, m=4, nonlinearity="relu_encoder")
        bank = netbuild.random_bank(spec, seed=2)
        mats = netbuild.realize(spec, bank)
        pattern = analysis.extract_pattern(
            spec, mats, np.random.default_rng(0).standard_normal(spec.d[0])
        )
        assert np.all(pattern.dec[0])

    @pytest.mark.parametrize("skip", [False, True])
    def test_frozen_mask_replay_equals_forward(self, skip, rng):
        spec = make_spec(kappa=2, m=5, skip=skip)
        bank = netbuild.random_bank(spec, seed=7)
        mats = netbuild.realize(spec, bank)
        for _ in range(20):
            x = rng.standard_normal(spec.d[0])
            trace = netbuild.forward_matrices(spec, mats, x)
            pattern = analysis.pattern_from_trace(spec, trace)
            np.testing.assert_allclose(
                analysis.replay(spec, mats, pattern, x), trace.y, atol=1e-12
            )

    def test_key_distinguishes_patterns(self, rng):
        spec = make_spec(kappa=1, m=4)
        bank = netbuild.random_bank(spec, seed=4)
        mats = netbuild.realize(spec, bank)
        x = rng.standard_normal(spec.d[0])
        p1 = analysis.extract_pattern(spec, mats, x)
        p2 = analysis.extract_pattern(spec, mats, x.copy())
        p3 = analysis.extract_pattern(spec, mats, -x)
        assert p1 == p2 and hash(p1) == hash(p2)
        assert p1 != p3


class TestLinearRep:
    def test_all_ones_reduces_to_frame_basis(self):
        spec, bank = make_frame_pair(kappa=2, skip=True, seed=5,
                                     nonlinearity="none")
        mats = netbuild.realize(spec, bank)
        x = np.random.default_rng(1).standard_normal(spec.d[0])
        rep = analysis.linear_rep(spec, mats, x)
        basis = frames.build_frame_basis(spec, bank)
        np.testing.assert_allclose(rep.B, basis.B, atol=1e-14)
        np.testing.assert_allclose(rep.B_tilde, basis.B_tilde, atol=1e-14)
        np.testing.assert_allclose(rep.matrix() @ x, x, atol=1e-10)

    def test_rank_one_selector_sum(self, rng):
        # single-layer net, bottleneck mask only: the region map must equal
        # the mask-selected sum of dual/primal column outer products
        spec = make_spec(kappa=1, m=4, nonlinearity="relu_encoder")
        bank = netbuild.random_bank(spec, seed=6)
        mats = netbuild.realize(spec, bank)
        x = rng.standard_normal(spec.d[0])
        trace = netbuild.forward_matrices(spec, mats, x)
        pattern = analysis.pattern_from_trace(spec, trace)
        total = np.zeros((spec.d[0], spec.d[0]))
        for i in range(spec.d[1]):
            if pattern.enc[0][i]:
                total += np.outer(mats[0].D[:, i], mats[0].E[:, i])
        np.testing.assert_allclose(total @ x, trace.y, atol=1e-12)
        rep = analysis.linear_rep(spec, mats, x)
        np.testing.assert_allclose(rep.matrix(), total, atol=1e-12)

    @pytest.mark.parametrize("skip", [False, True])
    def test_representation_identity(self, skip, rng):
        spec = make_spec(kappa=2, m=5, skip=skip)
        for trial in range(40):
            bank = netbuild.random_bank(spec, seed=trial)
            mats = netbuild.realize(spec, bank)
            x = rng.standard_normal(spec.d[0])
            y = netbuild.forward_matrices(spec, mats, x).y
            rep = analysis.linear_rep(spec, mats, x)
            err = np.linalg.norm(rep.matrix() @ x - y)
            assert err <= 1e-12 * max(1.0, np.linalg.norm(y))

    def test_skip_feature_dimension(self, rng):
        spec = make_spec(kappa=3, r=2, m=4, skip=True)
        bank = netbuild.random_bank(spec, seed=2)
        mats = netbuild.realize(spec, bank)
        rep = analysis.linear_rep(spec, mats, rng.standard_normal(spec.d[0]))
        assert rep.feature_dim == spec.d[3] + sum(spec.s)


class TestNrepBound:
    def test_formula_values(self):
        spec = netbuild.NetworkSpec(kappa=2, r=2, q=(1, 2, 4), m=(4, 4, 4))
        assert analysis.nrep_bound(spec) == 2 ** 8  # d = (4, 8, 16)
        skip = dataclasses.replace(spec, skip=True)
        assert analysis.nrep_bound(skip) == 2 ** 8 * 2 ** (8 + 16)
        single = netbuild.NetworkSpec(kappa=1, r=2, q=(1, 2), m=(4, 4))
        assert analysis.nrep_bound(single) == 1

    def test_pattern_bits_by_mode(self):
        spec = netbuild.NetworkSpec(kappa=2, r=2, q=(1, 2, 4), m=(4, 4, 4),
                                    skip=True, nonlinearity="relu")
        d, s = spec.d, spec.s
        assert analysis.pattern_bits(spec) == sum(d[1:]) + sum(d[:2]) + sum(s)
        enc_only = dataclasses.replace(spec, nonlinearity="relu_encoder")
        assert analysis.pattern_bits(enc_only) == sum(d[1:]) + sum(s)
        linear = dataclasses.replace(spec, nonlinearity="none")
        assert analysis.pattern_bits(linear) == 0


class TestSpectralNorm:
    def test_against_numpy(self, rng):
        for shape in [(4, 4), (6, 3), (3, 6)]:
            M = rng.standard_normal(shape)
            got = analysis.spectral_norm(M)
            want = np.linalg.norm(M, 2)
            assert abs(got - want) <= 1e-9 * max(1.0, want)

    def test_edge_cases(self):
        assert analysis.spectral_norm(np.zeros((3, 3))) == 0.0
        assert abs(analysis.spectral_norm(np.eye(5)) - 1.0) <= 1e-12

    def test_near_tie_of_top_singular_values(self):
        # an iterative method converges at rate sigma_2 / sigma_1 here and
        # stops short; the region constants need the exact value
        g = np.random.default_rng(0)
        U, _ = np.linalg.qr(g.standard_normal((6, 6)))
        V, _ = np.linalg.qr(g.standard_normal((4, 4)))
        M = U[:, :4] @ np.diag([1.0, 1.0 - 1e-3, 0.5, 0.1]) @ V.T
        want = np.linalg.norm(M, 2)
        assert abs(analysis.spectral_norm(M) - want) <= 1e-12 * want


class TestRegionCensus:
    def test_linear_network_single_region(self):
        spec, bank = make_frame_pair(kappa=2, seed=4, nonlinearity="none")
        mats = netbuild.realize(spec, bank)
        census = analysis.region_census(
            spec, mats, analysis.CensusConfig(count=64, seed=0)
        )
        assert census.distinct == 1
        assert abs(census.regions[0].lipschitz - 1.0) <= 1e-10

    def test_tiny_net_matches_sign_enumeration(self):
        spec = netbuild.NetworkSpec(kappa=1, r=2, q=(1, 2), m=(2, 2),
                                    nonlinearity="relu_encoder")
        bank = netbuild.random_bank(spec, seed=3)
        mats = netbuild.realize(spec, bank)
        exact = analysis.count_sign_regions(mats[0].E.T)
        census = analysis.region_census(
            spec, mats, analysis.CensusConfig(count=4000, seed=1)
        )
        assert census.distinct == exact
        assert census.distinct <= 2 ** census.pattern_bits

    def test_census_respects_bound(self):
        spec = make_spec(kappa=2, m=6, skip=True)
        bank = netbuild.random_bank(spec, seed=9)
        mats = netbuild.realize(spec, bank)
        census = analysis.region_census(
            spec, mats, analysis.CensusConfig(count=400, seed=2)
        )
        assert census.distinct <= census.nrep
        assert census.distinct <= 2 ** census.pattern_bits
        assert sum(reg.count for reg in census.regions) == census.samples

    def test_census_deterministic(self):
        spec = make_spec(kappa=2, m=5)
        bank = netbuild.random_bank(spec, seed=5)
        mats = netbuild.realize(spec, bank)
        cfg = analysis.CensusConfig(count=200, seed=11)
        c1 = analysis.region_census(spec, mats, cfg)
        c2 = analysis.region_census(spec, mats, cfg)
        assert [r.pattern_hex for r in c1.regions] == [r.pattern_hex for r in c2.regions]
        assert [r.count for r in c1.regions] == [r.count for r in c2.regions]
        assert [r.lipschitz for r in c1.regions] == [r.lipschitz for r in c2.regions]

    def test_region_constants_are_exact_norms(self):
        spec = make_spec(kappa=2, m=4, skip=True)
        bank = netbuild.random_bank(spec, seed=6)
        mats = netbuild.realize(spec, bank)
        census = analysis.region_census(
            spec, mats, analysis.CensusConfig(count=300, seed=3)
        )
        for reg in census.regions:
            rep = analysis.linear_rep(spec, mats, reg.representative)
            assert reg.lipschitz == np.linalg.norm(rep.matrix(), 2)

    def test_regions_keep_inputs_in_sample_order(self):
        spec = make_spec(kappa=1, m=4)
        bank = netbuild.random_bank(spec, seed=8)
        mats = netbuild.realize(spec, bank)
        cfg = analysis.CensusConfig(count=200, seed=4)
        census = analysis.region_census(spec, mats, cfg)
        expected = {}
        for i in range(cfg.count):
            x = analysis._sample_input(spec, cfg, i)
            key = analysis.extract_pattern(spec, mats, x).key.hex()
            expected.setdefault(key, []).append(x)
        for reg in census.regions:
            assert len(reg.inputs) == reg.count
            assert all(np.array_equal(a, b)
                       for a, b in zip(reg.inputs, expected[reg.pattern_hex]))
        assert 0 < census.singletons < census.distinct
        assert census.singletons == sum(len(xs) == 1 for xs in expected.values())
        assert census.to_dict()["singletons"] == census.singletons

    def test_census_independent_of_evaluation_order(self):
        # per-sample streams derive from (seed, index), so evaluating the
        # samples in any order reproduces the key-sorted census exactly
        spec = make_spec(kappa=2, m=5)
        bank = netbuild.random_bank(spec, seed=5)
        mats = netbuild.realize(spec, bank)
        cfg = analysis.CensusConfig(count=150, seed=13)
        census = analysis.region_census(spec, mats, cfg)
        counts = {}
        for i in reversed(range(cfg.count)):
            x = analysis._sample_input(spec, cfg, i)
            key = analysis.extract_pattern(spec, mats, x).key.hex()
            counts[key] = counts.get(key, 0) + 1
        assert sorted(counts) == [r.pattern_hex for r in census.regions]
        assert [counts[r.pattern_hex] for r in census.regions] \
            == [r.count for r in census.regions]

    def test_region_consistency(self, rng):
        # every input sharing a pattern yields the identical representation
        spec = make_spec(kappa=1, m=4)
        bank = netbuild.random_bank(spec, seed=8)
        mats = netbuild.realize(spec, bank)
        buckets = {}
        for _ in range(300):
            x = rng.standard_normal(spec.d[0])
            key = analysis.extract_pattern(spec, mats, x).key
            buckets.setdefault(key, []).append(x)
        pairs = [(xs[0], xs[1]) for xs in buckets.values() if len(xs) >= 2]
        assert pairs, "sampling found no repeated region"
        for x1, x2 in pairs:
            r1 = analysis.linear_rep(spec, mats, x1)
            r2 = analysis.linear_rep(spec, mats, x2)
            assert np.array_equal(r1.B, r2.B)
            assert np.array_equal(r1.B_tilde, r2.B_tilde)
            k1 = analysis.spectral_norm(r1.matrix())
            k2 = analysis.spectral_norm(r2.matrix())
            assert abs(k1 - k2) <= 1e-12

    def test_region_local_linearity(self, rng):
        spec = make_spec(kappa=2, m=4, skip=True)
        bank = netbuild.random_bank(spec, seed=12)
        mats = netbuild.realize(spec, bank)
        buckets = {}
        for _ in range(400):
            x = rng.standard_normal(spec.d[0])
            key = analysis.extract_pattern(spec, mats, x).key
            buckets.setdefault(key, []).append(x)
        checked = 0
        for key, xs in buckets.items():
            if len(xs) < 2:
                continue
            x1, x2 = xs[0], xs[1]
            for theta in (0.25, 0.5, 0.75):
                mid = theta * x1 + (1 - theta) * x2
                if analysis.extract_pattern(spec, mats, mid).key != key:
                    continue
                y_mid = netbuild.forward_matrices(spec, mats, mid).y
                y1 = netbuild.forward_matrices(spec, mats, x1).y
                y2 = netbuild.forward_matrices(spec, mats, x2).y
                np.testing.assert_allclose(
                    y_mid, theta * y1 + (1 - theta) * y2, atol=1e-10
                )
                checked += 1
        assert checked > 0


class TestLipschitz:
    def test_frame_network_constant_one(self):
        spec, bank = make_frame_pair(kappa=2, skip=True, seed=1,
                                     nonlinearity="none")
        mats = netbuild.realize(spec, bank)
        census = analysis.region_census(
            spec, mats, analysis.CensusConfig(count=32, seed=0)
        )
        assert abs(analysis.lipschitz_global(census) - 1.0) <= 1e-10

    def test_scaling_one_layer_scales_constant(self):
        spec, bank = make_frame_pair(kappa=2, skip=False, seed=1,
                                     nonlinearity="none")
        c = 3.5
        scaled = dataclasses.replace(
            bank,
            enc_filters=(c * bank.enc_filters[0],) + bank.enc_filters[1:],
        )
        mats = netbuild.realize(spec, scaled)
        census = analysis.region_census(
            spec, mats, analysis.CensusConfig(count=16, seed=0)
        )
        assert abs(analysis.lipschitz_global(census) - c) <= 1e-10 * c

    def test_pairwise_inequality_within_regions(self, rng):
        spec = make_spec(kappa=2, m=5, skip=True)
        bank = netbuild.random_bank(spec, seed=3)
        mats = netbuild.realize(spec, bank)
        buckets = {}
        for _ in range(300):
            x = rng.standard_normal(spec.d[0])
            pattern = analysis.extract_pattern(spec, mats, x)
            buckets.setdefault(pattern.key, (pattern, []))[1].append(x)
        pairs = 0
        for pattern, xs in buckets.values():
            if len(xs) < 2:
                continue
            kp = analysis.spectral_norm(
                analysis.linear_rep(spec, mats, pattern=pattern).matrix()
            )
            for a in range(len(xs) - 1):
                x1, x2 = xs[a], xs[a + 1]
                y1 = netbuild.forward_matrices(spec, mats, x1).y
                y2 = netbuild.forward_matrices(spec, mats, x2).y
                assert (np.linalg.norm(y1 - y2)
                        <= kp * np.linalg.norm(x1 - x2) + 1e-8)
                pairs += 1
        assert pairs > 0


class TestJacobian:
    def test_linear_frame_network_identity(self):
        spec, bank = make_frame_pair(kappa=2, skip=True, seed=2,
                                     nonlinearity="none")
        mats = netbuild.realize(spec, bank)
        x = np.random.default_rng(3).standard_normal(spec.d[0])
        J = analysis.jacobian_analytic(spec, mats, x)
        np.testing.assert_allclose(J, np.eye(spec.d[0]), atol=1e-10)

    @pytest.mark.parametrize("skip", [False, True])
    def test_finite_difference_agreement(self, skip):
        spec = make_spec(kappa=2, m=5, skip=skip)
        bank = netbuild.random_bank(spec, seed=10)
        mats = netbuild.realize(spec, bank)
        gen = np.random.default_rng(17)
        done = 0
        while done < 25:
            x = gen.standard_normal(spec.d[0])
            try:
                J = analysis.jacobian_analytic(spec, mats, x, margin=1e-4)
            except analysis.KinkMarginError:
                continue
            Jfd = analysis.fd_jacobian(spec, mats, x, step=1e-6)
            denom = np.linalg.norm(Jfd)
            if denom == 0.0:
                assert np.linalg.norm(J) == 0.0
            else:
                assert np.linalg.norm(J - Jfd) / denom <= 1e-5
            done += 1

    def test_positive_scaling_same_jacobian(self, rng):
        spec = make_spec(kappa=2, m=5, skip=True)
        bank = netbuild.random_bank(spec, seed=14)
        mats = netbuild.realize(spec, bank)
        x = rng.standard_normal(spec.d[0])
        trace = netbuild.forward_matrices(spec, mats, x)
        if analysis.trace_margin(spec, trace) < 1e-8:
            pytest.skip("sampled a kink point")
        J1 = analysis.jacobian_analytic(spec, mats, x)
        J2 = analysis.jacobian_analytic(spec, mats, 2.5 * x)
        np.testing.assert_array_equal(J1, J2)

    def test_kink_margin_error(self):
        spec = make_spec(kappa=1, m=4)
        bank = netbuild.random_bank(spec, seed=0)
        mats = netbuild.realize(spec, bank)
        with pytest.raises(analysis.KinkMarginError, match="resample"):
            analysis.jacobian_analytic(spec, mats, np.zeros(spec.d[0]))


class TestSignRegionOracle:
    def test_small_arrangements(self):
        assert analysis.count_sign_regions([[1.0, 0.0]]) == 2
        assert analysis.count_sign_regions([[1.0, 0.0], [0.0, 1.0]]) == 4

    def test_matches_dense_sampling(self):
        gen = np.random.default_rng(5)
        A = gen.standard_normal((4, 2))
        exact = analysis.count_sign_regions(A)
        seen = set()
        for _ in range(20000):
            x = gen.standard_normal(2)
            seen.add(tuple((A @ x) > 0))
        assert exact == len(seen)

    def test_caps_and_zero_rows(self):
        with pytest.raises(ValueError, match="cap"):
            analysis.count_sign_regions(np.ones((13, 2)))
        with pytest.raises(ValueError, match="zero"):
            analysis.count_sign_regions(np.zeros((2, 2)))
