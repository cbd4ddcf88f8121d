"""Activation patterns, linear representations, census, Lipschitz, Jacobian."""

import dataclasses
import gc
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from framelets import analysis, cli, netbuild
from framelets.seeding import derive, rng as seeded_rng
from conftest import make_frame_pair, make_spec, patch_bindings
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
        for masks in oracles.stages(spec, pattern):
            for mask in masks:
                assert np.all(mask)

    def test_zero_input_gives_all_zeros(self):
        spec = make_spec(kappa=2, m=4, skip=True)
        bank = netbuild.random_bank(spec, seed=1)
        mats = netbuild.realize(spec, bank)
        pattern = analysis.extract_pattern(spec, mats, np.zeros(spec.d[0]))
        for masks in oracles.stages(spec, pattern):
            for mask in masks:
                assert not np.any(mask)

    def test_linear_stages_carry_ones(self):
        spec = make_spec(kappa=1, m=4, nonlinearity="relu_encoder")
        bank = netbuild.random_bank(spec, seed=2)
        mats = netbuild.realize(spec, bank)
        pattern = analysis.extract_pattern(
            spec, mats, np.random.default_rng(0).standard_normal(spec.d[0])
        )
        assert np.all(oracles.stages(spec, pattern)[2][0])

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

    @pytest.mark.parametrize("nonlinearity", netbuild.NONLINEARITIES)
    @pytest.mark.parametrize("skip", [False, True])
    def test_stages_round_trip_the_bits(self, skip, nonlinearity, rng):
        # the oracles' own split of a bit row and analysis._masks agree on
        # every stage's width, and the stages end to end give the row back
        spec = map_spec(2, skip, nonlinearity, unequal_m=True)
        mats = netbuild.realize(spec, netbuild.random_bank(spec, seed=5))
        bits = analysis.extract_pattern(spec, mats, rng.standard_normal((6, spec.d[0])))
        assert bits.dtype == np.uint8 and bits.ndim == 2
        widths = [mask.shape[-1] for mask in analysis._masks(spec, bits)]
        for rows in (bits, bits[0]):
            parts = [mask for group in oracles.stages(spec, rows) for mask in group or ()]
            assert np.array_equal(np.concatenate(parts, axis=-1), rows)
            assert [part.shape[-1] for part in parts] == widths

    @pytest.mark.parametrize("skip", [False, True])
    def test_masks_reject_other_shapes(self, skip, rng):
        # _masks alone checks a bit array against the layout, for every
        # caller: rows a bit short and a 3-D stack both fail
        spec = map_spec(2, skip, "relu", unequal_m=True)
        mats = netbuild.realize(spec, netbuild.random_bank(spec, seed=5))
        X = rng.standard_normal((3, spec.d[0]))
        bits = analysis.extract_pattern(spec, mats, X)
        n_bits = bits.shape[1]

        def rejects(shape):
            return pytest.raises(ValueError, match=re.escape(
                f"pattern bits have shape {shape}, expected (N, {n_bits})"))

        for bad in (bits[:, :-1], bits[None]):
            with rejects(bad.shape):
                analysis.region_maps(spec, mats, bad)
        with rejects((1, n_bits - 1)):
            analysis.linear_rep(spec, mats, pattern=bits[0, :-1])

    # the nets are bias-free, so a region is a cone: a positively scaled
    # input has the input's pattern, and a census gains nothing from
    # sampling another radial law (the unit sphere, say)
    @staticmethod
    def census_net_bits(skip, nonlinearity, seed):
        """The pattern bits of a stack on the census benchmark's net shape."""
        spec = netbuild.NetworkSpec(kappa=3, r=2, q=(1, 2, 4, 8), m=(16, 16, 16, 16),
                                    skip=skip, nonlinearity=nonlinearity)
        mats = netbuild.realize(spec, netbuild.random_bank(spec, seed=seed))
        return spec, lambda X: analysis.pattern_from_trace(
            spec, netbuild.forward_matrices(spec, mats, X))

    @pytest.mark.parametrize("c", [2.0 ** -20, 2.0 ** 20])
    @pytest.mark.parametrize("nonlinearity", netbuild.NONLINEARITIES)
    @pytest.mark.parametrize("skip", [False, True])
    def test_exact_positive_scaling_keeps_the_pattern(self, skip, nonlinearity, c, rng):
        spec, bits = self.census_net_bits(skip, nonlinearity, seed=7)
        X = rng.standard_normal((500, spec.d[0]))
        assert np.array_equal(bits(c * X), bits(X))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("nonlinearity", netbuild.NONLINEARITIES)
    @pytest.mark.parametrize("skip", [False, True])
    def test_unit_norm_rows_keep_the_pattern(self, skip, nonlinearity, seed):
        spec, bits = self.census_net_bits(skip, nonlinearity, seed)
        X = analysis.census_inputs(spec, analysis.CensusConfig(count=2000, seed=seed))
        assert np.array_equal(bits(X / np.linalg.norm(X, axis=1, keepdims=True)), bits(X))


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
        enc = oracles.stages(spec, analysis.pattern_from_trace(spec, trace))[0]
        total = np.zeros((spec.d[0], spec.d[0]))
        for i in range(spec.d[1]):
            if enc[0][i]:
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

    @pytest.mark.parametrize("nonlinearity", netbuild.NONLINEARITIES)
    @pytest.mark.parametrize("skip", [False, True])
    @pytest.mark.parametrize("kappa", [1, 2, 3])
    def test_frame_pair_equals_masked_chains(self, kappa, skip, nonlinearity, rng):
        # the pair is formed over the live units only; at full size B_tilde
        # is the masked dual frame and B the chain frame, at every depth
        spec = map_spec(kappa, skip, nonlinearity, unequal_m=True)
        mats = netbuild.realize(spec, netbuild.random_bank(spec, seed=7))
        for x in rng.standard_normal((6, spec.d[0])):
            rep, bits = analysis.linear_rep(spec, mats, x), analysis.extract_pattern(spec, mats, x)
            for got, want in ((rep.B_tilde, oracles.dual_frame(spec, mats, bits)),
                              (rep.B, oracles.chain_frame(spec, mats, bits))):
                assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("skip", [False, True])
    def test_stage_without_live_units(self, skip, rng, kernel_path):
        # such a stage keeps one unit, times its mask bit 0, in both frames
        spec = map_spec(2, skip, "relu", unequal_m=True)
        mats = netbuild.realize(spec, netbuild.random_bank(spec, seed=7))
        base = analysis.extract_pattern(spec, mats, rng.standard_normal(spec.d[0]))
        for group in (0, 1, 2) if skip else (0, 2):  # enc, skip, dec
            for l in range(spec.kappa):
                pattern = base.copy()
                oracles.stages(spec, pattern)[group][l][...] = 0  # a view into the row
                rep = analysis.linear_rep(spec, mats, pattern=pattern)
                M = analysis.region_maps(spec, mats, pattern[None])[0]
                for got, want in ((rep.B_tilde, oracles.dual_frame(spec, mats, pattern)),
                                  (rep.B, oracles.chain_frame(spec, mats, pattern)),
                                  (rep.matrix(), M)):
                    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_stack_of_inputs_is_rejected(self, rng):
        # a (3, d_0) stack once came back as a wrong frame pair, its three
        # pattern rows read as one row's masks
        spec = make_spec(kappa=2, m=5, skip=True)
        mats = netbuild.realize(spec, netbuild.random_bank(spec, seed=2))
        X = rng.standard_normal((3, spec.d[0]))
        with pytest.raises(ValueError, match=re.escape(
                f"input has shape (3, {spec.d[0]}), expected ({spec.d[0]},)")):
            analysis.linear_rep(spec, mats, X)

    def test_stack_of_patterns_is_rejected(self, rng):
        spec = make_spec(kappa=2, m=5, skip=True)
        mats = netbuild.realize(spec, netbuild.random_bank(spec, seed=2))
        bits = analysis.extract_pattern(spec, mats, rng.standard_normal((3, spec.d[0])))
        with pytest.raises(ValueError, match=re.escape(
                f"pattern has shape {bits.shape}, expected one row (n_bits,)")):
            analysis.linear_rep(spec, mats, pattern=bits)

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


def forward_map(spec, mats, x) -> np.ndarray:
    """The region map of x by the forward kernel."""
    return analysis._map_kernel(spec, mats)(x)[0]


def kernel_duals(spec, mats, pattern) -> list:
    """The masked dual-chain prefixes of a pattern: the adjoint from the co-probe I."""
    dec, I = [m[..., None, :] for m in oracles.stages(spec, pattern)[2]], np.eye(spec.d[0])
    return [I, *(T for T, _, _ in analysis.adjoint(spec, mats, dec, I, hang=False))]


class TestMaskedChains:
    """The frame B of the forward recursion's encoder half, one pattern row at
    a time, and the masked dual-chain prefixes of a stacked adjoint."""

    @pytest.mark.parametrize("nonlinearity", netbuild.NONLINEARITIES)
    @pytest.mark.parametrize("skip", [False, True])
    def test_stacked_rows_equal_single_calls(self, skip, nonlinearity, rng):
        spec = make_spec(kappa=2, m=4, q=[1, 2, 3], skip=skip, nonlinearity=nonlinearity)
        mats = netbuild.realize(spec, netbuild.random_bank(spec, seed=5))
        X = rng.standard_normal((5, spec.d[0]))
        pattern = analysis.pattern_from_trace(spec, netbuild.forward_matrices(spec, mats, X))
        duals = kernel_duals(spec, mats, pattern)
        for i, x in enumerate(X):
            want = kernel_duals(spec, mats, analysis.extract_pattern(spec, mats, x))
            assert np.array_equal(duals[0], want[0])  # the shared identity
            assert all(np.array_equal(g[i], w) for g, w in zip(duals[1:], want[1:]))

    @pytest.mark.parametrize("nonlinearity", netbuild.NONLINEARITIES)
    @pytest.mark.parametrize("skip", [False, True])
    @pytest.mark.parametrize("kappa", [1, 2, 3])
    def test_frame_equals_chain_products(self, kappa, skip, nonlinearity, rng):
        # the recursion multiplies over the live units where the chains
        # formed X (S * m) over every unit, so a zero may differ in sign:
        # the frames are compared by value
        spec = map_spec(kappa, skip, nonlinearity, unequal_m=True)
        mats = netbuild.realize(spec, netbuild.random_bank(spec, seed=kappa))
        for x in rng.standard_normal((6, spec.d[0])):
            rep, bits = analysis.linear_rep(spec, mats, x), analysis.extract_pattern(spec, mats, x)
            assert np.array_equal(rep.B, oracles.chain_frame(spec, mats, bits))


class TestKernelPath:
    def test_profile_net_is_batched_and_edge_net_is_live(self):
        # the benchmark's nets: the d_0 = 16 profile net's widest product
        # d_0 d_{l-1} d_l is 16 * 64 * 128, the d_0 = 64 edge net's 64 * 128 * 256
        profile = netbuild.NetworkSpec(kappa=3, r=2, q=(1, 2, 4, 8), m=(16, 16, 16, 16),
                                       skip=True)
        edge = netbuild.NetworkSpec(kappa=2, r=2, q=(1, 2, 4), m=(64, 64, 64), skip=True)
        assert not analysis._live(profile)
        assert analysis._live(edge)

    def test_forward_recursion_does_not_follow_the_reverse_pass_path(self, monkeypatch, rng):
        # the switch picks the reverse pass's path only: on the profile net
        # the Jacobian's maps and radii and the frame pair's map are
        # byte-identical at either setting
        spec = netbuild.NetworkSpec(kappa=3, r=2, q=(1, 2, 4, 8), m=(16,) * 4, skip=True)
        mats = netbuild.realize(spec, netbuild.random_bank(spec, seed=derive(1235, "bank")))
        X = rng.standard_normal((6, spec.d[0]))
        got = []
        for flops in (0, np.inf):
            monkeypatch.setattr(analysis, "_LIVE_FLOPS", flops)
            kernel = analysis._map_kernel(spec, mats)
            maps = [(J.tobytes(), rho.tobytes()) for J, rho in map(kernel, X)]
            reps = [analysis.linear_rep(spec, mats, x).matrix() for x in X]
            got.append([*maps, *(M.tobytes() for M in reps)])
        assert got[0] == got[1]


class TestRegionMaps:
    @pytest.mark.parametrize("unequal_m", [False, True])
    @pytest.mark.parametrize("nonlinearity", netbuild.NONLINEARITIES)
    @pytest.mark.parametrize("skip", [False, True])
    @pytest.mark.parametrize("kappa", [1, 2, 3])
    def test_equals_frame_pair_product(self, kappa, skip, nonlinearity, unequal_m, rng,
                                       kernel_path):
        spec = map_spec(kappa, skip, nonlinearity, unequal_m)
        mats = netbuild.realize(spec, netbuild.random_bank(spec, seed=kappa))
        X = rng.standard_normal((9, spec.d[0]))
        bits = analysis.pattern_from_trace(spec, netbuild.forward_matrices(spec, mats, X))
        maps = analysis.region_maps(spec, mats, bits)
        assert maps.shape == (9, spec.d[0], spec.d[0])
        for x, got in zip(X, maps):
            pattern = analysis.extract_pattern(spec, mats, x)
            want = analysis.linear_rep(spec, mats, pattern=pattern).matrix()
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("nonlinearity", netbuild.NONLINEARITIES)
    @pytest.mark.parametrize("skip", [False, True])
    def test_stacked_rows_equal_single_calls(self, skip, nonlinearity, rng, kernel_path):
        spec = map_spec(2, skip, nonlinearity, unequal_m=True)
        mats = netbuild.realize(spec, netbuild.random_bank(spec, seed=4))
        X = rng.standard_normal((11, spec.d[0]))  # crosses block boundaries
        bits = analysis.pattern_from_trace(spec, netbuild.forward_matrices(spec, mats, X))
        maps = analysis.region_maps(spec, mats, bits)
        for x, row, got in zip(X, bits, maps):
            pattern = analysis.extract_pattern(spec, mats, x)
            assert np.array_equal(row, pattern)
            assert np.array_equal(got, analysis.region_maps(spec, mats, pattern[None])[0])
        assert analysis.region_maps(spec, mats, bits[:0]).shape == (0, spec.d[0], spec.d[0])

    @pytest.mark.parametrize("unequal_m", [False, True])
    @pytest.mark.parametrize("nonlinearity", netbuild.NONLINEARITIES)
    @pytest.mark.parametrize("skip", [False, True])
    @pytest.mark.parametrize("kappa", [1, 2, 3])
    def test_map_times_input_is_the_forward_output(self, kappa, skip, nonlinearity,
                                                   unequal_m, rng, kernel_path):
        # the nets are bias-free, so F(x) = J(x) x on the region of x: an
        # oracle that needs no frame pair
        spec = map_spec(kappa, skip, nonlinearity, unequal_m)
        mats = netbuild.realize(spec, netbuild.random_bank(spec, seed=10 + kappa))
        for x in rng.standard_normal((9, spec.d[0])):
            J = analysis.region_maps(spec, mats,
                                     analysis.extract_pattern(spec, mats, x)[None])[0]
            y = netbuild.forward_matrices(spec, mats, x).y
            assert np.linalg.norm(J @ x - y) <= 1e-13 * np.linalg.norm(y)


def live_counts(spec, bits) -> np.ndarray:
    """Each bit row's count of live dec_1 outputs."""
    at = bits.shape[1] - sum(spec.d[:spec.kappa])
    return bits[:, at:at + spec.d[0]].sum(axis=1)


class TestReversePass:
    """Region maps and census constants from the adjoint of the live outputs."""

    @pytest.mark.parametrize("nonlinearity", netbuild.NONLINEARITIES)
    @pytest.mark.parametrize("skip", [False, True])
    @pytest.mark.parametrize("kappa", [1, 2, 3])
    def test_census_constants_are_norms_of_the_forward_maps(self, kappa, skip, nonlinearity,
                                                            kernel_path):
        spec = map_spec(kappa, skip, nonlinearity, unequal_m=True)
        mats = netbuild.realize(spec, netbuild.random_bank(spec, seed=kappa))
        census = analysis.region_census(spec, mats, analysis.CensusConfig(count=150, seed=2))
        for reg in census.regions:
            pattern = analysis.extract_pattern(spec, mats, reg.inputs[0])
            M = forward_map(spec, mats, reg.inputs[0])
            got = analysis.region_maps(spec, mats, pattern[None])[0]
            assert np.max(np.abs(got - M)) <= 1e-14 * np.max(np.abs(M))
            live = oracles.stages(spec, pattern)[2][0].astype(bool)
            want = np.linalg.norm(M[live], 2) if live.any() else 0.0
            assert abs(reg.lipschitz - want) <= 1e-14 * want

    @pytest.mark.parametrize("skip", [False, True])
    def test_region_without_live_outputs(self, skip, kernel_path):
        # d_0 = 2: on this bank about a quarter of the inputs leave no
        # output on.  The map is 0, and so is the constant
        spec = make_spec(kappa=2, m=2, skip=skip)
        mats = netbuild.realize(spec, netbuild.random_bank(spec, seed=3))
        census = analysis.region_census(spec, mats, analysis.CensusConfig(count=100, seed=1))
        dead = [reg for reg in census.regions if not oracles.stages(
            spec, analysis.extract_pattern(spec, mats, reg.inputs[0]))[2][0].any()]
        assert dead and len(dead) < census.distinct
        for reg in dead:
            bits = analysis.extract_pattern(spec, mats, reg.inputs[0])
            assert not np.any(forward_map(spec, mats, reg.inputs[0]))
            assert not np.any(analysis.region_maps(spec, mats, bits[None]))
            assert reg.lipschitz == 0.0

    def test_adjoint_keeps_no_level(self, rng):
        # once the adjoint forms level 2, level 1's T_1, H_1 and U_1 are
        # gone unless the caller kept them
        spec = map_spec(3, True, "relu", unequal_m=True)
        mats = netbuild.realize(spec, netbuild.random_bank(spec, seed=2))
        X = rng.standard_normal((5, spec.d[0]))
        pattern = analysis.pattern_from_trace(spec, netbuild.forward_matrices(spec, mats, X))
        dec = oracles.stages(spec, pattern)[2]
        levels = analysis.adjoint(spec, mats, [m[:, None] for m in dec],
                                  np.eye(spec.d[0]))
        first = [weakref.ref(product) for product in next(levels)]
        assert all(ref() is not None for ref in first)
        next(levels)
        assert all(ref() is None for ref in first)

    @pytest.mark.parametrize("bank_seed", [1235, 1237])
    def test_taller_blocks_do_not_raise_the_census_peak(self, monkeypatch, bank_seed):
        # the profile net at 2000 samples, on banks whose regions have 7 to 16
        # live outputs (1235) and 0 to 9 (1237): the reverse pass masks in
        # place and keeps only T_kappa and the H_l, so blocks of _BLOCK rows
        # peak no higher than blocks of 64, the old 4 d_0.  A cyclic garbage
        # collection inside one census moves its peak by up to ~12 KB, so
        # none runs there
        spec = netbuild.NetworkSpec(kappa=3, r=2, q=(1, 2, 4, 8), m=(16,) * 4, skip=True)
        mats = netbuild.realize(spec, netbuild.random_bank(spec, seed=derive(bank_seed, "bank")))
        config = analysis.CensusConfig(count=2000, seed=1)
        analysis.region_census(spec, mats, config)  # and its first-call allocations
        peaks = []
        for block in (64, analysis._BLOCK):
            monkeypatch.setattr(analysis, "_BLOCK", block)
            gc.collect()
            gc.disable()
            tracemalloc.start()
            try:
                analysis.region_census(spec, mats, config)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
                gc.enable()
        assert analysis._BLOCK > 64 and peaks[1] <= peaks[0]

    @pytest.mark.parametrize("skip", [False, True])
    def test_live_outputs_past_the_block_budget(self, skip, rng, kernel_path):
        # d_0 = 256 on a linear net: a region's 256 live outputs alone pass
        # the _BLOCK rows of a block, which then holds that one region
        spec = make_spec(kappa=1, r=1, m=256, skip=skip, nonlinearity="none", q=[1, 1])
        mats = netbuild.realize(spec, netbuild.random_bank(spec, seed=1))
        assert spec.d[0] >= analysis._BLOCK
        X = rng.standard_normal((2, spec.d[0]))
        bits = analysis.pattern_from_trace(spec, netbuild.forward_matrices(spec, mats, X))
        maps = analysis.region_maps(spec, mats, bits)
        for x, J in zip(X, maps):
            y = netbuild.forward_matrices(spec, mats, x).y
            assert np.linalg.norm(J @ x - y) <= 1e-13 * np.linalg.norm(y)
        census = analysis.region_census(spec, mats, analysis.CensusConfig(count=3, seed=1))
        want = np.linalg.norm(maps[0], 2)
        assert census.distinct == 1 and abs(census.regions[0].lipschitz - want) <= 1e-14 * want

    @pytest.mark.parametrize("nonlinearity", netbuild.NONLINEARITIES)
    @pytest.mark.parametrize("skip", [False, True])
    def test_mixed_live_counts_equal_one_row_calls(self, skip, nonlinearity, rng,
                                                   kernel_path):
        # 400 rows of several live-output counts: each count's rows are
        # stacked into blocks, at least one of them full height, and every
        # row equals its own one-row call
        spec = map_spec(2, skip, nonlinearity, unequal_m=True)
        mats = netbuild.realize(spec, netbuild.random_bank(spec, seed=4))
        X = rng.standard_normal((400, spec.d[0]))
        bits = analysis.pattern_from_trace(spec, netbuild.forward_matrices(spec, mats, X))
        counts = live_counts(spec, bits)
        assert (len(set(counts.tolist())) > 1) == (nonlinearity == "relu")
        got, full = {}, 0
        for rows, G, outputs in analysis._reverse_blocks(spec, mats, counts, bits.__getitem__):
            a = max(counts[rows[0]], 1)
            full += len(rows) == analysis._BLOCK // (a + 1) > 1
            assert np.all(np.diff(rows) > 0) and np.all(counts[rows] == counts[rows[0]])
            got.update((i, (g, o)) for i, g, o in zip(rows.tolist(), G, outputs))
        assert sorted(got) == list(range(400)) and full
        for i, row in enumerate(bits):
            (_, G, outputs), = analysis._reverse_blocks(spec, mats, counts[i:i + 1],
                                                        lambda rows: row[None])
            assert np.array_equal(got[i][0], G[0]) and np.array_equal(got[i][1], outputs[0])
            assert np.array_equal(outputs[0], np.flatnonzero(analysis._masks(
                spec, row[None])[-spec.kappa][0, 0]) if counts[i] else [0])


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
            M = analysis.region_maps(spec, mats, pattern[None])[0]
            live = oracles.stages(spec, pattern)[2][0].astype(bool)
            assert reg.lipschitz == np.linalg.norm(M[live] if live.any() else M, 2)

    @pytest.mark.parametrize("nonlinearity", netbuild.NONLINEARITIES)
    def test_constants_are_norms_over_the_live_rows(self, nonlinearity, kernel_path):
        # the map's rows off the live units of dec_1 are exactly 0, and each
        # SVD is taken over the other rows only, the reverse pass's rows
        spec = make_spec(kappa=2, m=4, skip=True, nonlinearity=nonlinearity)
        mats = netbuild.realize(spec, netbuild.random_bank(spec, seed=6))
        census = analysis.region_census(spec, mats, analysis.CensusConfig(count=300, seed=3))
        dead_rows = 0
        for reg in census.regions:
            pattern = analysis.extract_pattern(spec, mats, reg.inputs[0])
            M = analysis.region_maps(spec, mats, pattern[None])[0]
            live = oracles.stages(spec, pattern)[2][0].astype(bool)
            assert np.all(M[~live] == 0)
            dead_rows += np.sum(~live)
            assert reg.lipschitz == np.linalg.norm(M[live] if live.any() else M, 2)
        assert (dead_rows > 0) == (nonlinearity == "relu")

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
        assert census.to_dict()["unseen_mass"] == 1.0

    @pytest.mark.parametrize("count", [1, 150])
    @pytest.mark.parametrize("skip", [False, True])
    def test_census_equals_one_input_at_a_time(self, skip, count):
        # the census forwards stacked blocks of samples; an input-by-input
        # pass must give the same keys, counts and inputs in sample order
        spec = make_spec(kappa=2, m=4, skip=skip)
        mats = netbuild.realize(spec, netbuild.random_bank(spec, seed=8))
        cfg = analysis.CensusConfig(count=count, seed=6)
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
    def test_keys_match_per_input_patterns(self, skip, nonlinearity, kernel_path):
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

    def test_fewer_samples_use_a_prefix_of_the_block(self):
        spec = make_spec(kappa=2, m=4, skip=True)
        mats = netbuild.realize(spec, netbuild.random_bank(spec, seed=8))
        small = analysis.CensusConfig(count=70, seed=3)
        xs = analysis.census_inputs(spec, dataclasses.replace(small, count=300))
        assert np.array_equal(analysis.census_inputs(spec, small), xs[:70])
        census = analysis.region_census(spec, mats, small)
        got = np.concatenate([reg.inputs for reg in census.regions])
        assert np.array_equal(np.unique(got, axis=0), np.unique(xs[:70], axis=0))
        assert all(np.array_equal(reg.inputs[0], xs[reg.first_sample])
                   for reg in census.regions)

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
        # step, by twice that over step if the two errors align with
        # opposite signs.  The test holds a column to half of that,
        # 2 N eps max|y| / step: over 800 draws the drift read at most 0.43
        # of it; an indexing, sign or transposition error is O(1).
        N = sum(spec.d[:-1]) + sum(spec.d[1:]) + (sum(spec.s) if spec.skip else 0)
        d0 = spec.d[0]
        for _ in range(5):
            x = rng.standard_normal(d0)
            # the one-column-at-a-time loop the stencil forward replaced
            want = np.zeros((d0, d0))
            f0 = netbuild.forward_matrices(spec, mats, x).y
            ys = [f0]
            for i in range(d0):
                e = np.zeros(d0)
                e[i] = step
                fp = netbuild.forward_matrices(spec, mats, x + e).y
                ys.append(fp)
                want[:, i] = (fp - f0) / step
            got = analysis.fd_jacobian(spec, mats, x, step=step)
            bound = 2 * N * np.finfo(float).eps * np.max(np.abs(ys)) / step
            assert np.max(np.abs(got - want)) <= bound
            assert got.flags.c_contiguous
            # exactly the stacked stencil's GEMM forward
            shift = step * np.eye(d0)
            Y = oracles.gemm_forward(spec, mats, np.concatenate([x[None], x + shift])).y
            assert np.array_equal(got, ((Y[1:] - Y[0]) / step).T)

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

    def test_run_makes_no_traced_forward_and_one_stencil_per_instance(
            self, monkeypatch, forward_calls, forward_y_calls):
        # the map kernel takes each draw's masks from the draw itself, so the
        # run makes no traced forward and reads no pattern row; each
        # instance adds one y-only stencil forward.  At margin 0.1 about 2 %
        # of draws pass the radius rule
        spec = make_spec(kappa=2, m=5, skip=True)
        bank = netbuild.random_bank(spec, seed=10)
        params = {"count": 4, "margin": 0.1}
        extracted, extract = [], analysis.extract_pattern
        patch_bindings(monkeypatch, extract, lambda *args: extracted.append(1) or extract(*args))
        block = cli.run_jacobian(cli.Context(spec, bank, {"jacobian": 1e-5}, seed=3),
                                 cli.validate("jacobian", params))
        assert forward_calls == [] and extracted == []
        assert forward_y_calls == [(spec.d[0] + 1, spec.d[0])] * params["count"]
        # the draws up to the count-th accepted one
        X = seeded_rng(3, "jacobian").standard_normal((100 * params["count"], spec.d[0]))
        mats = netbuild.realize(spec, bank)
        last = [i for i, x in enumerate(X)
                if radius_accepts(spec, mats, x, params["margin"], 1e-6)][params["count"] - 1]
        assert block["attempts"] == last + 1 > params["count"]
        assert block["instances"] == params["count"]

    def test_stack_of_inputs_is_rejected(self, rng):
        # a stack once failed inside an einsum of the kernel
        spec = make_spec(kappa=2, m=5, skip=True)
        mats = netbuild.realize(spec, netbuild.random_bank(spec, seed=2))
        X = rng.standard_normal((3, spec.d[0]))
        with pytest.raises(ValueError, match=re.escape(
                f"input has shape (3, {spec.d[0]}), expected ({spec.d[0]},)")):
            analysis.jacobian_analytic(spec, mats, X)

    def test_kink_margin_error(self):
        spec = make_spec(kappa=1, m=4)
        bank = netbuild.random_bank(spec, seed=0)
        mats = netbuild.realize(spec, bank)
        with pytest.raises(analysis.KinkMarginError, match="resample"):
            analysis.jacobian_analytic(spec, mats, np.zeros(spec.d[0]))


class TestPlusMinusPairNets:
    """Closed-form oracles at d_0 = 16 and 64 (oracles.pm_pair_bank): with
    the ReLU on, a relu_encoder net is the identity, every region map I,
    and a relu net is rho, the map of x diag(x > 0)."""

    @staticmethod
    def net(d0, nonlinearity):
        spec = netbuild.NetworkSpec(kappa=2, r=2, q=(1, 4, 16), m=(d0,) * 3, skip=False,
                                    nonlinearity=nonlinearity)
        return spec, netbuild.realize(spec, oracles.pm_pair_bank(spec, seed=d0))

    @staticmethod
    def assert_maps(spec, mats, X, want, jacobian):
        bits = analysis.pattern_from_trace(spec, netbuild.forward_matrices(spec, mats, X))
        for x, M, W in zip(X, analysis.region_maps(spec, mats, bits), want):
            maps = [M, analysis.linear_rep(spec, mats, x).matrix(), forward_map(spec, mats, x)]
            if jacobian:
                maps.append(analysis.jacobian_analytic(spec, mats, x))
            for got in maps:
                assert np.max(np.abs(got - W)) <= 1e-14

    @pytest.mark.usefixtures("kernel_path")
    @pytest.mark.parametrize("d0", [16, 64])
    def test_relu_encoder_net_is_the_identity(self, d0, rng):
        spec, mats = self.net(d0, "relu_encoder")
        X = rng.standard_normal((4, d0))
        assert np.max(np.abs(netbuild.forward_matrices(spec, mats, X).y - X)) <= 1e-14
        self.assert_maps(spec, mats, X, [np.eye(d0)] * len(X), jacobian=True)
        census = analysis.region_census(spec, mats, analysis.CensusConfig(count=20, seed=1))
        assert census.distinct == 20  # a pattern per sample, one map
        assert all(abs(reg.lipschitz - 1.0) <= 1e-14 for reg in census.regions)

    @pytest.mark.parametrize("step", [1e-6, 1e-3])
    @pytest.mark.parametrize("d0", [16, 64])
    def test_relu_encoder_stencil_is_the_identity(self, d0, step, rng):
        # F(x) = x everywhere, so each column of the one-sided stencil is
        # e_i up to the rounding bound of the column-loop test
        spec, mats = self.net(d0, "relu_encoder")
        N = sum(spec.d[:-1]) + sum(spec.d[1:])
        for x in rng.standard_normal((4, d0)):
            y = netbuild.forward_y(spec, mats, np.concatenate([x[None], x + step * np.eye(d0)]))
            bound = 2 * N * np.finfo(float).eps * np.max(np.abs(y)) / step
            got = analysis.fd_jacobian(spec, mats, x, step=step)
            assert np.max(np.abs(got - np.eye(d0))) <= bound

    @pytest.mark.usefixtures("kernel_path")
    @pytest.mark.parametrize("d0", [16, 64])
    def test_relu_net_maps_are_the_orthant_masks(self, d0, rng):
        # the inner decoder ReLU sees h >= 0, exact zeros up to rounding, so
        # its units' mask bits are rounding noise; the map is still
        # diag(x > 0)
        spec, mats = self.net(d0, "relu")
        X = rng.standard_normal((4, d0))
        y = netbuild.forward_matrices(spec, mats, X).y
        assert np.max(np.abs(y - np.maximum(X, 0.0))) <= 1e-14
        self.assert_maps(spec, mats, X, [np.diag(x > 0.0).astype(float) for x in X],
                         jacobian=False)

    @pytest.mark.parametrize("d0", [16, 64])
    def test_relu_net_runs_the_jacobian_screen(self, d0):
        # the kernel's own signs stand for the rounding-noise units, whose
        # rows change no map: the screen certifies draws and every map
        # matches its stencil
        spec, _ = self.net(d0, "relu")
        ctx = cli.Context(spec, oracles.pm_pair_bank(spec, seed=d0),
                          cli.validate("tolerances", {}), seed=1)
        block = cli.run_jacobian(ctx, cli.validate("jacobian", {"count": 50}))
        assert block["instances"] == 50 and block["checks"][0]["passed"]
        assert block["radius_min"] >= block["margin"]

    @pytest.mark.usefixtures("kernel_path")
    @pytest.mark.parametrize("d0", [16, 64])
    def test_checks_pass_with_the_relu_on(self, d0, tmp_path):
        # the paper's perfect reconstruction of the nonlinear frame
        # representation, through the ReLU, and every map check with it
        spec, _ = self.net(d0, "relu_encoder")
        path = tmp_path / "bank.json"
        netbuild.save_bank(spec, oracles.pm_pair_bank(spec, seed=d0), path)
        names = ["reconstruct", "identity", "jacobian", "regions", "lipschitz"]
        cfg = {"seed": 1, "network": spec.to_dict(), "bank": {"source": "file", "path": str(path)},
               "analyses": names, "enforce": names, "sampler": {"count": 20},
               "reconstruct": {"count": 20, "no_relu": False}, "identity": {"count": 4},
               "jacobian": {"count": 4}}
        report, failures = cli.execute(cfg, None)
        assert failures == []
        assert report["results"]["reconstruct"]["max_relative_error"] <= 1e-14


class TestCertifiedRadius:
    """The kernel's pre-mask rows and the radius rule of the Jacobian screen."""

    @staticmethod
    def kernel_rows(monkeypatch, spec, mats, X):
        """The (n, d_0, w) pre-mask products the kernel takes radii of, one per
        ReLU stage, and each row's radius; stage order is the trace's: enc_1,
        skip_1, ..., enc_kappa, skip_kappa, then dec_{kappa-1} down to dec_0."""
        stages, radius = [], analysis._radius
        with monkeypatch.context() as patch:
            patch.setattr(analysis, "_radius", lambda rho, P, x:
                          stages.append(P.copy()) or radius(rho, P, x))
            kernel = analysis._map_kernel(spec, mats)
            rho = np.array([kernel(x)[1] for x in X])
        # the kernel takes each row's radius on its own, stage by stage, one
        # row after another: stack each stage's rows
        per_row = len(stages) // len(X)
        return [np.stack(stages[j::per_row]) for j in range(per_row)], rho

    @staticmethod
    def screen_net(net, rng):
        """A net of the screen tests, its operators and its draws; "edge" is
        the d_0 = 64 frame-bank net of the benchmark's verify-d64, bank 0, and
        "unequal" nets have a different m at each level, so each stage's
        units end at another offset of the bit row."""
        if net == "edge":
            spec, bank = make_frame_pair(kappa=2, m=64, skip=True, nonlinearity="relu",
                                         seed=derive(1234, "bank"))
            X = rng.standard_normal((128, spec.d[0]))
        else:
            skip, nonlinearity, unequal_m = net
            spec = make_spec(kappa=2, m=5, skip=skip, nonlinearity=nonlinearity,
                             m_list=[5, 4, 6] if unequal_m else None)
            bank = netbuild.random_bank(spec, seed=3)
            X = rng.standard_normal((200, spec.d[0]))
        return spec, netbuild.realize(spec, bank), X

    NETS = [*(pytest.param((skip, nonlinearity, unequal_m),
                           id=f"{skip}-{nonlinearity}" + ("-unequal" if unequal_m else ""))
              for unequal_m in (False, True) for skip in (False, True)
              for nonlinearity in netbuild.NONLINEARITIES), "edge"]

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

    @pytest.mark.parametrize("unequal_m", [False, True])
    @pytest.mark.parametrize("nonlinearity", netbuild.NONLINEARITIES)
    @pytest.mark.parametrize("skip", [False, True])
    def test_rows_times_input_are_the_pre_activations(self, monkeypatch, skip,
                                                      nonlinearity, unequal_m, rng):
        spec = make_spec(kappa=2, m=5, skip=skip, nonlinearity=nonlinearity,
                         m_list=[5, 4, 6] if unequal_m else None)
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

    @pytest.mark.parametrize("net", NETS)
    def test_kernel_units_are_the_row_exact_pattern(self, monkeypatch, net, rng):
        # each ReLU stage of the kernel takes its mask from x where its
        # product is made: on every accepted draw its live units at each
        # stage are those of x's row-exact pattern row
        spec, mats, X = self.screen_net(net, rng)
        margin, step = (cli.validate("jacobian", {})[key] for key in ("margin", "step"))
        seen, forward = [], analysis._forward
        monkeypatch.setattr(analysis, "_forward", lambda spec, mats, units, *args:
                            seen.append(units) or forward(spec, mats, units, *args))
        kernel, accepted = analysis._map_kernel(spec, mats), 0
        for x in X:
            rho = kernel(x)[1]
            if rho < margin or rho <= step:
                continue
            accepted += 1
            (live, dead), bits = seen[-1], analysis.extract_pattern(spec, mats, x)
            want = analysis._units(mask[0, 0] for mask in analysis._masks(spec, bits[None]))
            assert dead == want[1]
            assert all(np.array_equal(a, b) for a, b in zip(live, want[0], strict=True))
        assert accepted >= len(X) // 10

    @pytest.mark.parametrize("step", [1e-6, 1e-3])
    @pytest.mark.parametrize("net", NETS)
    def test_accepted_draws_keep_the_whole_stencil_in_their_region(self, net, step, rng):
        # rho > step puts every row of fd_jacobian's stencil [x; x + step I]
        # in x's region: each row's row-exact pattern is x's own
        spec, mats, X = self.screen_net(net, rng)
        margin = cli.validate("jacobian", {})["margin"]
        bits = analysis.pattern_from_trace(spec, netbuild.forward_matrices(spec, mats, X))
        kernel = analysis._map_kernel(spec, mats)
        rho = np.array([kernel(x)[1] for x in X])
        accepted = (rho >= margin) & (rho > step)
        assert accepted.sum() >= len(X) // 10
        for x, own in zip(X[accepted], bits[accepted]):
            stencil = np.concatenate([x[None], x + step * np.eye(spec.d[0])])
            got = analysis.pattern_from_trace(
                spec, netbuild.forward_matrices(spec, mats, stencil))
            assert np.array_equal(got, np.broadcast_to(own, got.shape))


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
