"""Activation patterns, linear representations, census, Lipschitz, Jacobian."""

import dataclasses
import types

import numpy as np
import pytest

from framelets import analysis, cli, netbuild
from framelets.seeding import rng as seeded_rng
from conftest import make_frame_pair, make_spec
import oracles


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


def radius_accepts(spec, mats, x, margin, step) -> bool:
    """Whether the one-input Jacobian takes x at this margin and step."""
    try:
        analysis.jacobian_analytic(spec, mats, x, margin=margin, step=step)
    except analysis.KinkMarginError:
        return False
    return True


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
                analysis.linear_rep(spec, mats, pattern=pattern).matrix() @ x, trace.y,
                atol=1e-12,
            )

    def test_key_distinguishes_patterns(self, rng):
        spec = make_spec(kappa=1, m=4)
        bank = netbuild.random_bank(spec, seed=4)
        mats = netbuild.realize(spec, bank)
        x = rng.standard_normal(spec.d[0])
        k1, k2, k3 = (oracles.pattern_key(analysis.extract_pattern(spec, mats, v))
                      for v in (x, x.copy(), -x))
        assert k1 == k2 and hash(k1) == hash(k2)
        assert k1 != k3


class TestLinearRep:
    def test_all_ones_reduces_to_frame_basis(self):
        spec, bank = make_frame_pair(kappa=2, skip=True, seed=5,
                                     nonlinearity="none")
        mats = netbuild.realize(spec, bank)
        x = np.random.default_rng(1).standard_normal(spec.d[0])
        rep = analysis.linear_rep(spec, mats, x)
        # the unmasked chains: [E-chain | E-prefix @ S, deepest skip first]
        E1, E2 = mats[0].E, mats[1].E
        D1, D2 = mats[0].D, mats[1].D
        np.testing.assert_allclose(
            rep.B, np.hstack([E1 @ E2, E1 @ mats[1].S, mats[0].S]), atol=1e-14
        )
        np.testing.assert_allclose(
            rep.B_tilde, np.hstack([D1 @ D2, D1 @ mats[1].S_tilde, mats[0].S_tilde]),
            atol=1e-14,
        )
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
        assert rep.B.shape[1] == spec.d[3] + sum(spec.s)


def map_spec(kappa, skip, nonlinearity, unequal_m):
    m_list = [7, 5, 6, 4][:kappa + 1] if unequal_m else None
    return make_spec(kappa=kappa, r=2, m=6, skip=skip, nonlinearity=nonlinearity,
                     m_list=m_list)


def kernel_frames(spec, mats, bits) -> np.ndarray:
    """The kernel's frames B of one block of bit rows, copied out."""
    return next(analysis._map_blocks(spec, mats, [(bits, None)]))[1].copy()


class TestMaskedChains:
    """The kernel's forward half: the frame B of each row of a block."""

    @pytest.mark.parametrize("nonlinearity", netbuild.NONLINEARITIES)
    @pytest.mark.parametrize("skip", [False, True])
    def test_stacked_rows_equal_single_calls(self, skip, nonlinearity, rng):
        spec = make_spec(kappa=2, m=4, q=[1, 2, 3], skip=skip, nonlinearity=nonlinearity)
        mats = netbuild.realize(spec, netbuild.random_bank(spec, seed=5))
        X = rng.standard_normal((5, spec.d[0]))
        pattern = analysis.pattern_from_trace(spec, netbuild.forward_matrices(spec, mats, X))
        stacked = kernel_frames(spec, mats, pattern.bits())
        assert stacked.shape == (5, spec.d[0], spec.feature_dim)
        duals = analysis.dual_chains(spec, mats, pattern)
        for i, x in enumerate(X):
            one = analysis.extract_pattern(spec, mats, x)
            single = kernel_frames(spec, mats, one.bits()[None])
            assert stacked[i].tobytes() == single[0].tobytes()
            want = analysis.dual_chains(spec, mats, one)
            assert np.array_equal(duals[0], want[0])  # the shared identity
            assert all(np.array_equal(g[i], w) for g, w in zip(duals[1:], want[1:]))

    @pytest.mark.parametrize("nonlinearity", netbuild.NONLINEARITIES)
    @pytest.mark.parametrize("skip", [False, True])
    @pytest.mark.parametrize("kappa", [1, 2, 3])
    def test_frame_equals_chain_products(self, kappa, skip, nonlinearity, rng):
        # the kernel forms (X S) * m where the chains formed X (S * m), so a
        # zero may differ in sign: the frames are compared by value
        spec = map_spec(kappa, skip, nonlinearity, unequal_m=True)
        mats = netbuild.realize(spec, netbuild.random_bank(spec, seed=kappa))
        X = rng.standard_normal((6, spec.d[0]))
        pattern = analysis.pattern_from_trace(spec, netbuild.forward_matrices(spec, mats, X))
        got = kernel_frames(spec, mats, pattern.bits())
        assert np.array_equal(got, oracles.chain_frame(spec, mats, pattern))
        for x, B in zip(X, got):
            rep = analysis.linear_rep(spec, mats, x)
            assert np.array_equal(rep.B, oracles.chain_frame(spec, mats, rep.pattern))
            assert rep.B.tobytes() == B.tobytes()


class TestRegionMaps:
    @pytest.mark.parametrize("unequal_m", [False, True])
    @pytest.mark.parametrize("nonlinearity", netbuild.NONLINEARITIES)
    @pytest.mark.parametrize("skip", [False, True])
    @pytest.mark.parametrize("kappa", [1, 2, 3])
    def test_equals_frame_pair_product(self, kappa, skip, nonlinearity, unequal_m, rng):
        spec = map_spec(kappa, skip, nonlinearity, unequal_m)
        mats = netbuild.realize(spec, netbuild.random_bank(spec, seed=kappa))
        X = rng.standard_normal((9, spec.d[0]))
        bits = analysis.pattern_from_trace(spec, netbuild.forward_matrices(spec, mats, X)).bits()
        maps = analysis.region_maps(spec, mats, bits)
        assert maps.shape == (9, spec.d[0], spec.d[0])
        for x, got in zip(X, maps):
            pattern = analysis.extract_pattern(spec, mats, x)
            want = analysis.linear_rep(spec, mats, pattern=pattern).matrix()
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("nonlinearity", netbuild.NONLINEARITIES)
    @pytest.mark.parametrize("skip", [False, True])
    def test_stacked_rows_equal_single_calls(self, skip, nonlinearity, rng):
        spec = map_spec(2, skip, nonlinearity, unequal_m=True)
        mats = netbuild.realize(spec, netbuild.random_bank(spec, seed=4))
        X = rng.standard_normal((11, spec.d[0]))  # crosses block boundaries
        bits = analysis.pattern_from_trace(spec, netbuild.forward_matrices(spec, mats, X)).bits()
        maps = analysis.region_maps(spec, mats, bits)
        for x, row, got in zip(X, bits, maps):
            pattern = analysis.extract_pattern(spec, mats, x)
            assert np.array_equal(row, pattern.bits())
            assert np.array_equal(got, analysis.region_maps(spec, mats, pattern.bits()[None])[0])
        assert analysis.region_maps(spec, mats, bits[:0]).shape == (0, spec.d[0], spec.d[0])

    @pytest.mark.parametrize("nonlinearity", netbuild.NONLINEARITIES)
    @pytest.mark.parametrize("skip", [False, True])
    def test_kernel_blocks_equal_single_calls(self, skip, nonlinearity, rng):
        # 11 rows in blocks of 4, the last one short, through one buffer set
        spec = map_spec(2, skip, nonlinearity, unequal_m=True)
        mats = netbuild.realize(spec, netbuild.random_bank(spec, seed=4))
        X = rng.standard_normal((11, spec.d[0]))
        bits = analysis.pattern_from_trace(spec, netbuild.forward_matrices(spec, mats, X)).bits()
        blocks = ((bits[:4], None), (bits[4:8], None), (bits[8:], None))
        got = [Y.transpose(0, 2, 1).copy() for Y, _, _ in analysis._map_blocks(spec, mats, blocks)]
        assert [len(Y) for Y in got] == [4, 4, 3]
        for row, J in zip(bits, np.concatenate(got)):
            assert J.tobytes() == analysis.region_maps(spec, mats, row[None])[0].tobytes()

    def test_kernel_view_is_overwritten_by_the_next_block(self, rng):
        # a consumer must copy or reduce a block before asking for the next
        spec = map_spec(2, True, "relu", unequal_m=True)
        mats = netbuild.realize(spec, netbuild.random_bank(spec, seed=4))
        X = rng.standard_normal((4, spec.d[0]))
        bits = analysis.pattern_from_trace(spec, netbuild.forward_matrices(spec, mats, X)).bits()
        blocks = analysis._map_blocks(spec, mats, ((bits[:2], None), (bits[2:], None)))
        first = next(blocks)
        kept = [view.copy() for view in first[:2]]
        second = next(blocks)
        for view, copy, again in zip(first, kept, second):  # the map, then the frame
            assert np.shares_memory(view, again)
            assert np.array_equal(view, again) and not np.array_equal(view, copy)

    @pytest.mark.parametrize("unequal_m", [False, True])
    @pytest.mark.parametrize("nonlinearity", netbuild.NONLINEARITIES)
    @pytest.mark.parametrize("skip", [False, True])
    @pytest.mark.parametrize("kappa", [1, 2, 3])
    def test_map_times_input_is_the_forward_output(self, kappa, skip, nonlinearity,
                                                   unequal_m, rng):
        # the nets are bias-free, so F(x) = J(x) x on the region of x: an
        # oracle that needs no frame pair
        spec = map_spec(kappa, skip, nonlinearity, unequal_m)
        mats = netbuild.realize(spec, netbuild.random_bank(spec, seed=10 + kappa))
        for x in rng.standard_normal((9, spec.d[0])):
            J = analysis.region_maps(spec, mats,
                                     analysis.extract_pattern(spec, mats, x).bits()[None])[0]
            y = netbuild.forward_matrices(spec, mats, x).y
            assert np.linalg.norm(J @ x - y) <= 1e-13 * np.linalg.norm(y)


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_is_named(self, bad):
        M = np.eye(3)
        M[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite entries"):
            analysis.spectral_norm(M)
        with pytest.raises(ValueError, match="non-finite entries"):
            analysis.spectral_norm(np.stack([np.eye(3), M]))

    def test_stack_equals_single_norms(self, rng):
        stack = rng.standard_normal((7, 6, 4))
        got = analysis.spectral_norm(stack)
        assert got.shape == (7,)
        assert all(a == np.linalg.norm(M, 2) for a, M in zip(got, stack))

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
        exact = oracles.count_sign_regions(mats[0].E.T)
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
            pattern = analysis.extract_pattern(spec, mats, reg.inputs[0])
            assert reg.lipschitz == np.linalg.norm(
                analysis.region_maps(spec, mats, pattern.bits()[None])[0], 2)

    def test_regions_keep_inputs_in_sample_order(self):
        spec = make_spec(kappa=1, m=4)
        bank = netbuild.random_bank(spec, seed=8)
        mats = netbuild.realize(spec, bank)
        cfg = analysis.CensusConfig(count=200, seed=4)
        census = analysis.region_census(spec, mats, cfg)
        expected = {}
        for i in range(cfg.count):
            x = analysis.census_inputs(spec, cfg)[i]
            key = oracles.pattern_key(analysis.extract_pattern(spec, mats, x)).hex()
            expected.setdefault(key, []).append(x)
        for reg in census.regions:
            assert len(reg.inputs) == reg.count
            assert all(np.array_equal(a, b)
                       for a, b in zip(reg.inputs, expected[reg.pattern_hex]))
        assert 0 < census.singletons < census.distinct
        assert census.singletons == sum(len(xs) == 1 for xs in expected.values())
        assert census.to_dict()["singletons"] == census.singletons

    def test_unseen_mass_is_singletons_over_samples(self):
        spec = make_spec(kappa=1, m=4)
        mats = netbuild.realize(spec, netbuild.random_bank(spec, seed=8))
        census = analysis.region_census(spec, mats, analysis.CensusConfig(count=200, seed=4))
        assert 0 < census.singletons < census.distinct
        assert census.to_dict()["unseen_mass"] == census.singletons / census.samples

    def test_unseen_mass_is_one_on_a_saturated_census(self):
        spec = make_spec(kappa=2, m=6, skip=True)
        mats = netbuild.realize(spec, netbuild.random_bank(spec, seed=8))
        census = analysis.region_census(spec, mats, analysis.CensusConfig(count=20, seed=4))
        assert census.singletons == census.distinct == census.samples
        assert census.to_dict(include_first_samples=False)["unseen_mass"] == 1.0

    @pytest.mark.parametrize("count", [1, 150])
    @pytest.mark.parametrize("skip", [False, True])
    def test_census_equals_one_input_at_a_time(self, skip, count):
        # the census forwards stacked blocks of samples; an input-by-input
        # pass must give the same keys, counts and inputs in sample order
        spec = make_spec(kappa=2, m=4, skip=skip)
        mats = netbuild.realize(spec, netbuild.random_bank(spec, seed=8))
        cfg = analysis.CensusConfig(count=count, seed=6, distribution="sphere")
        census = analysis.region_census(spec, mats, cfg)
        expected = {}
        for i in range(cfg.count):
            x = analysis.census_inputs(spec, cfg)[i]
            trace = netbuild.forward_matrices(spec, mats, x)
            key = oracles.pattern_key(analysis.pattern_from_trace(spec, trace)).hex()
            expected.setdefault(key, []).append(x)
        assert [reg.pattern_hex for reg in census.regions] == sorted(expected)
        for reg in census.regions:
            want = expected[reg.pattern_hex]
            assert reg.count == len(want)
            assert all(np.array_equal(a, b) for a, b in zip(reg.inputs, want))

    @pytest.mark.parametrize("nonlinearity", netbuild.NONLINEARITIES)
    @pytest.mark.parametrize("skip", [False, True])
    def test_keys_match_per_input_patterns(self, skip, nonlinearity):
        # the census groups samples by packed key rows of its stacked blocks;
        # grouping by each input's own pattern key, all-ones masks of
        # ReLU-free stages included, must give the same regions
        spec = make_spec(kappa=2, m=4, skip=skip, nonlinearity=nonlinearity)
        mats = netbuild.realize(spec, netbuild.random_bank(spec, seed=9))
        cfg = analysis.CensusConfig(count=150, seed=2)  # not a multiple of the block rows
        census = analysis.region_census(spec, mats, cfg)
        expected = {}
        for i in range(cfg.count):
            x = analysis.census_inputs(spec, cfg)[i]
            key = oracles.pattern_key(analysis.extract_pattern(spec, mats, x))
            expected.setdefault(key, []).append(x)
        keys = sorted(expected)
        assert [reg.pattern_hex for reg in census.regions] == [key.hex() for key in keys]
        for reg, key in zip(census.regions, keys):
            assert reg.count == len(expected[key])
            assert all(np.array_equal(a, b) for a, b in zip(reg.inputs, expected[key]))

    def test_census_independent_of_evaluation_order(self):
        # a region depends only on its input row, so evaluating the rows of
        # the census block in any order reproduces the key-sorted census exactly
        spec = make_spec(kappa=2, m=5)
        bank = netbuild.random_bank(spec, seed=5)
        mats = netbuild.realize(spec, bank)
        cfg = analysis.CensusConfig(count=150, seed=13)
        census = analysis.region_census(spec, mats, cfg)
        counts = {}
        for i in reversed(range(cfg.count)):
            x = analysis.census_inputs(spec, cfg)[i]
            key = oracles.pattern_key(analysis.extract_pattern(spec, mats, x)).hex()
            counts[key] = counts.get(key, 0) + 1
        assert sorted(counts) == [r.pattern_hex for r in census.regions]
        assert [counts[r.pattern_hex] for r in census.regions] \
            == [r.count for r in census.regions]

    @pytest.mark.parametrize("count", [1, 2000])
    def test_census_draws_from_one_stream(self, monkeypatch, count):
        spec = make_spec(kappa=1, m=4)
        mats = netbuild.realize(spec, netbuild.random_bank(spec, seed=8))
        calls = []
        monkeypatch.setattr(analysis, "rng",
                            lambda *args: calls.append(args) or seeded_rng(*args))
        census = analysis.region_census(spec, mats, analysis.CensusConfig(count=count, seed=4))
        assert calls == [(4, "census")] and census.samples == count

    @pytest.mark.parametrize("distribution", analysis.DISTRIBUTIONS)
    def test_fewer_samples_use_a_prefix_of_the_block(self, distribution):
        spec = make_spec(kappa=2, m=4, skip=True)
        mats = netbuild.realize(spec, netbuild.random_bank(spec, seed=8))
        small = analysis.CensusConfig(count=70, distribution=distribution, seed=3)
        xs = analysis.census_inputs(spec, dataclasses.replace(small, count=300))
        assert np.array_equal(analysis.census_inputs(spec, small), xs[:70])
        census = analysis.region_census(spec, mats, small)
        got = np.concatenate([reg.inputs for reg in census.regions])
        assert np.array_equal(np.unique(got, axis=0), np.unique(xs[:70], axis=0))
        assert all(np.array_equal(reg.inputs[0], xs[reg.first_sample])
                   for reg in census.regions)

    def test_sphere_rows_have_unit_norm(self):
        spec = make_spec(kappa=2, m=4)
        cfg = analysis.CensusConfig(count=500, distribution="sphere", seed=5)
        norms = np.linalg.norm(analysis.census_inputs(spec, cfg), axis=1)
        np.testing.assert_allclose(norms, 1.0, rtol=0, atol=1e-14)

    def test_zero_sphere_row_becomes_e0(self, monkeypatch):
        spec = make_spec(kappa=2, m=4)

        def one_zero_row(*args):
            def standard_normal(shape):
                xs = seeded_rng(*args).standard_normal(shape)
                xs[1] = 0.0
                return xs
            return types.SimpleNamespace(standard_normal=standard_normal)

        monkeypatch.setattr(analysis, "rng", one_zero_row)
        xs = analysis.census_inputs(spec, analysis.CensusConfig(count=3, distribution="sphere"))
        assert np.array_equal(xs[1], np.eye(1, spec.d[0])[0])
        np.testing.assert_allclose(np.linalg.norm(xs, axis=1), 1.0, rtol=0, atol=1e-14)

    def test_region_consistency(self, rng):
        # every input sharing a pattern yields the identical representation
        spec = make_spec(kappa=1, m=4)
        bank = netbuild.random_bank(spec, seed=8)
        mats = netbuild.realize(spec, bank)
        buckets = {}
        for _ in range(300):
            x = rng.standard_normal(spec.d[0])
            key = oracles.pattern_key(analysis.extract_pattern(spec, mats, x))
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
            key = oracles.pattern_key(analysis.extract_pattern(spec, mats, x))
            buckets.setdefault(key, []).append(x)
        checked = 0
        for key, xs in buckets.items():
            if len(xs) < 2:
                continue
            x1, x2 = xs[0], xs[1]
            for theta in (0.25, 0.5, 0.75):
                mid = theta * x1 + (1 - theta) * x2
                if oracles.pattern_key(analysis.extract_pattern(spec, mats, mid)) != key:
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
            buckets.setdefault(oracles.pattern_key(pattern), (pattern, []))[1].append(x)
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
        if oracles.trace_margin(spec, trace) < 1e-8:
            pytest.skip("sampled a kink point")
        J1 = analysis.jacobian_analytic(spec, mats, x)
        J2 = analysis.jacobian_analytic(spec, mats, 2.5 * x)
        np.testing.assert_array_equal(J1, J2)

    @pytest.mark.parametrize("skip", [False, True])
    @pytest.mark.parametrize("step", [1e-6, 1e-3])
    def test_fd_jacobian_equals_column_loop(self, skip, step, rng):
        spec = make_spec(kappa=2, m=5, skip=skip)
        mats = netbuild.realize(spec, netbuild.random_bank(spec, seed=10))
        # The stencil is one GEMM per operator, the loop one matrix-vector
        # product per row: the same sums of products added in another order.
        # A sum of n products is off by at most n eps times the sum of the
        # terms' magnitudes (Higham, gamma_n), so the two orders differ by
        # 2 n eps of it.  The stages of a forward sum over d_{l-1} (E', S')
        # and over d_l plus s_l (D, S_tilde); an error at one stage passes
        # on through the later ones, which ReLU (1-Lipschitz) and this
        # bank's 1/sqrt(r q) scaling keep at O(max |y|).  So one output
        # moves by at most 2 N eps max|y|, N the total length of the
        # stages' sums, and a column, a difference of two outputs over
        # 2 step, by 2 N eps max|y| / step.  Measured drift is a few such
        # units; an indexing, sign or transposition error is O(1).
        N = sum(spec.d[:-1]) + sum(spec.d[1:]) + (sum(spec.s) if spec.skip else 0)
        d0 = spec.d[0]
        for _ in range(5):
            x = rng.standard_normal(d0)
            # the one-column-at-a-time loop the stencil forward replaced
            want = np.zeros((d0, d0))
            ys = []
            for i in range(d0):
                e = np.zeros(d0)
                e[i] = step
                fp = netbuild.forward_matrices(spec, mats, x + e).y
                fm = netbuild.forward_matrices(spec, mats, x - e).y
                ys += [fp, fm]
                want[:, i] = (fp - fm) / (2.0 * step)
            got = analysis.fd_jacobian(spec, mats, x, step=step)
            bound = 2 * N * np.finfo(float).eps * np.max(np.abs(ys)) / step
            assert np.max(np.abs(got - want)) <= bound
            assert got.flags.c_contiguous
            # exactly the stacked stencil's GEMM forward
            shift = step * np.eye(d0)
            Y = oracles.gemm_forward(spec, mats, np.concatenate([x + shift, x - shift])).y
            assert np.array_equal(got, ((Y[:d0] - Y[d0:]) / (2.0 * step)).T)

    @pytest.mark.parametrize("skip", [False, True])
    @pytest.mark.parametrize("nonlinearity", netbuild.NONLINEARITIES)
    def test_trace_margin_per_row(self, skip, nonlinearity, rng):
        spec = make_spec(kappa=2, m=5, skip=skip, nonlinearity=nonlinearity)
        mats = netbuild.realize(spec, netbuild.random_bank(spec, seed=3))
        X = rng.standard_normal((20, spec.d[0]))
        X[4] = 0.0  # exactly on every kink: margin 0
        got = oracles.trace_margin(spec, netbuild.forward_matrices(spec, mats, X))
        assert got.shape == (20,)
        for x, row in zip(X, got):
            one = oracles.trace_margin(spec, netbuild.forward_matrices(spec, mats, x))
            assert isinstance(one, float) and row == one
        if nonlinearity == "none":
            assert np.all(got == np.inf)
        else:
            assert got[4] == 0.0

    def test_trace_margin_of_overflowed_pass_is_nan(self):
        spec = make_spec(kappa=2, m=5, skip=True)
        mats = netbuild.realize(spec, netbuild.random_bank(spec, seed=3, scale=1e200))
        X = np.random.default_rng(0).standard_normal((3, spec.d[0]))
        with np.errstate(all="ignore"):
            got = oracles.trace_margin(spec, netbuild.forward_matrices(spec, mats, X))
        # NaN compares False against any margin, so a screen keeps the row
        assert np.all(np.isnan(got))

    def test_run_makes_screen_forwards_and_one_stencil_per_instance(self, forward_calls,
                                                                    forward_y_calls):
        # the candidates' mask rows come from the screen blocks' own traces,
        # the only traced forwards; each instance adds one y-only stencil
        # forward.  At margin 0.1 about 2 % of draws pass the radius rule
        spec = make_spec(kappa=2, m=5, skip=True)
        bank = netbuild.random_bank(spec, seed=10)
        params = {"count": 4, "margin": 0.1}
        block = cli.run_jacobian(cli.Context(spec, bank, {"jacobian": 1e-5}, seed=3),
                                 cli.validate("jacobian", params))
        made = len(forward_calls)
        # screen blocks of _ROWS draws up to the count-th accepted draw
        X = seeded_rng(3, "jacobian").standard_normal((100 * params["count"], spec.d[0]))
        mats = netbuild.realize(spec, bank)
        last = [i for i, x in enumerate(X)
                if radius_accepts(spec, mats, x, params["margin"], 1e-6)][params["count"] - 1]
        blocks = last // analysis._ROWS + 1
        assert blocks > 1
        assert block["attempts"] == last + 1
        assert made == blocks
        assert forward_y_calls == [(2 * spec.d[0], spec.d[0])] * params["count"]
        assert block["instances"] == params["count"]

    def test_kink_margin_error(self):
        spec = make_spec(kappa=1, m=4)
        bank = netbuild.random_bank(spec, seed=0)
        mats = netbuild.realize(spec, bank)
        with pytest.raises(analysis.KinkMarginError, match="resample"):
            analysis.jacobian_analytic(spec, mats, np.zeros(spec.d[0]))


class TestCertifiedRadius:
    """The kernel's pre-mask rows and the radius rule of the Jacobian screen."""

    @staticmethod
    def kernel_rows(monkeypatch, spec, mats, X):
        """The (n, d_0, w) pre-mask products the kernel takes radii of, one per
        ReLU stage, and each row's radius; stage order is the trace's: enc_1,
        skip_1, ..., enc_kappa, skip_kappa, then dec_{kappa-1} down to dec_0."""
        stages, radius = [], analysis._radius
        monkeypatch.setattr(analysis, "_radius", lambda rho, P, x, mask:
                            stages.append(P.copy()) or radius(rho, P, x, mask))
        bits = analysis.pattern_from_trace(spec, netbuild.forward_matrices(spec, mats, X)).bits()
        _, _, rho = next(analysis._map_blocks(spec, mats, [(bits, X)]))
        monkeypatch.undo()
        return stages, rho

    @staticmethod
    def trace_pres(spec, trace) -> list:
        """The trace's pre-activations of the ReLU stages, in kernel stage order."""
        pres = []
        if spec.relu_at_encoder():
            for l in range(spec.kappa):
                pres += [trace.enc_pre[l], *([trace.skip_pre[l]] if spec.skip else [])]
        if spec.relu_at_decoder():
            pres += trace.dec_pre[::-1]
        return pres

    @pytest.mark.parametrize("nonlinearity", netbuild.NONLINEARITIES)
    @pytest.mark.parametrize("skip", [False, True])
    def test_rows_times_input_are_the_pre_activations(self, monkeypatch, skip,
                                                      nonlinearity, rng):
        spec = make_spec(kappa=2, m=5, skip=skip, nonlinearity=nonlinearity)
        mats = netbuild.realize(spec, netbuild.random_bank(spec, seed=3))
        X = rng.standard_normal((40, spec.d[0]))
        stages, rho = self.kernel_rows(monkeypatch, spec, mats, X)
        pres = self.trace_pres(spec, netbuild.forward_matrices(spec, mats, X))
        assert len(stages) == len(pres)
        if nonlinearity == "none":  # no ReLU: no kink, no row
            assert stages == [] and np.all(rho == np.inf)
        zeros = 0
        for P, pre in zip(stages, pres):
            # the trace and the row sum the same products in other orders:
            # a few eps of the stage's largest sum of their magnitudes
            scale = np.einsum("nij,ni->nj", np.abs(P), np.abs(X)).max(axis=1, keepdims=True)
            got = np.einsum("nij,ni->nj", P, X)
            assert np.all(np.abs(got - pre) <= 8 * np.finfo(float).eps * scale)
            # a zero row is exactly an exact-zero pre-activation
            assert np.array_equal(~P.any(axis=1), pre == 0.0)
            zeros += int(np.sum(pre == 0.0))
        assert (zeros > 0) == (nonlinearity != "none")  # the zero-row case is exercised

    @pytest.mark.parametrize("nonlinearity", netbuild.NONLINEARITIES)
    @pytest.mark.parametrize("skip", [False, True])
    def test_a_mask_bit_against_its_row_gives_radius_zero(self, skip, nonlinearity, rng):
        # flip the first encoder unit's bit of row 0: the bits no longer are
        # x's own pattern, so no ball about x is certified
        spec = make_spec(kappa=2, m=5, skip=skip, nonlinearity=nonlinearity)
        mats = netbuild.realize(spec, netbuild.random_bank(spec, seed=3))
        X = rng.standard_normal((4, spec.d[0]))
        bits = analysis.pattern_from_trace(spec, netbuild.forward_matrices(spec, mats, X)).bits()
        _, _, rho = next(analysis._map_blocks(spec, mats, [(bits, X)]))
        rho = rho.copy()
        bits[0, 0] ^= 1
        _, _, got = next(analysis._map_blocks(spec, mats, [(bits, X)]))
        want = np.inf if nonlinearity == "none" else 0.0
        assert got[0] == want and np.array_equal(got[1:], rho[1:])

    @pytest.mark.parametrize("nonlinearity", netbuild.NONLINEARITIES)
    @pytest.mark.parametrize("skip", [False, True])
    def test_exact_zero_on_a_zero_row_is_accepted(self, skip, nonlinearity, rng):
        # the old screen rejected every draw with an exact-zero pre-activation;
        # on a zero row it is no kink, and the stencil agrees with the map
        spec = make_spec(kappa=2, m=5, skip=skip, nonlinearity=nonlinearity)
        mats = netbuild.realize(spec, netbuild.random_bank(spec, seed=3))
        X = rng.standard_normal((1000, spec.d[0]))
        zero = oracles.trace_margin(spec, netbuild.forward_matrices(spec, mats, X)) == 0.0
        if nonlinearity == "none":
            assert not zero.any()
            return
        taken = [x for x in X[zero] if radius_accepts(spec, mats, x, 1e-4, 1e-6)]
        assert len(taken) >= 1
        for x in taken[:5]:
            J = analysis.jacobian_analytic(spec, mats, x, margin=1e-4, step=1e-6)
            Jfd = analysis.fd_jacobian(spec, mats, x, step=1e-6)
            assert np.linalg.norm(J - Jfd) <= 1e-5 * np.linalg.norm(Jfd)

    @pytest.mark.parametrize("nonlinearity", netbuild.NONLINEARITIES)
    @pytest.mark.parametrize("skip", [False, True])
    def test_input_near_a_live_row_is_rejected(self, monkeypatch, skip, nonlinearity, rng):
        # move x along its nearest live row a to distance t from a's
        # hyperplane, on the same side; the move is shorter than rho(x), so
        # x stays in its region and rho becomes t
        spec = make_spec(kappa=2, m=5, skip=skip, nonlinearity=nonlinearity)
        mats = netbuild.realize(spec, netbuild.random_bank(spec, seed=3))
        margin, step = 1e-4, 1e-6
        X = rng.standard_normal((64, spec.d[0]))
        stages, rho = self.kernel_rows(monkeypatch, spec, mats, X)
        if nonlinearity == "none":
            assert np.all(rho == np.inf)
            return
        i = int(np.argmax(rho))
        assert rho[i] > 10 * margin
        rows = np.concatenate([P[i] for P in stages], axis=1)
        rows = rows[:, rows.any(axis=0)]
        dist = X[i] @ rows / np.linalg.norm(rows, axis=0)
        j = int(np.argmin(np.abs(dist)))
        assert abs(dist[j]) == pytest.approx(rho[i], rel=1e-12)
        unit = np.sign(dist[j]) * rows[:, j] / np.linalg.norm(rows[:, j])
        for t, accepted in ((step / 2, False), (2 * margin, True)):
            x = X[i] - (abs(dist[j]) - t) * unit
            _, got = self.kernel_rows(monkeypatch, spec, mats, x[None])
            assert got[0] == pytest.approx(t, rel=1e-6)
            assert radius_accepts(spec, mats, x, margin, step) == accepted


class TestSignRegionOracle:
    def test_small_arrangements(self):
        assert oracles.count_sign_regions([[1.0, 0.0]]) == 2
        assert oracles.count_sign_regions([[1.0, 0.0], [0.0, 1.0]]) == 4

    def test_matches_dense_sampling(self):
        gen = np.random.default_rng(5)
        A = gen.standard_normal((4, 2))
        exact = oracles.count_sign_regions(A)
        seen = set()
        for _ in range(20000):
            x = gen.standard_normal(2)
            seen.add(tuple((A @ x) > 0))
        assert exact == len(seen)

    def test_caps_and_zero_rows(self):
        with pytest.raises(ValueError, match="cap"):
            oracles.count_sign_regions(np.ones((13, 2)))
        with pytest.raises(ValueError, match="zero"):
            oracles.count_sign_regions(np.zeros((2, 2)))
