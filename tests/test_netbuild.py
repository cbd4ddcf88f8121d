"""Layer operators and forward passes against channelwise convolution oracles."""

import dataclasses
import itertools
import json

import numpy as np
import pytest

from framelets import netbuild
from conftest import make_spec
import oracles


def identity_bank(spec):
    """Filters are deltas, pooling identities: every operator is I."""
    enc, dec, pool, unpool = [], [], [], []
    for l in range(1, spec.kappa + 1):
        q_prev, q_cur = spec.q[l - 1], spec.q[l]
        t = np.zeros((q_prev, q_cur, spec.r))
        for i in range(min(q_prev, q_cur)):
            t[i, i, 0] = 1.0
        enc.append(t)
        dec.append(t.copy())
        pool.append(np.eye(spec.m[l - 1]))
        unpool.append(np.eye(spec.m[l - 1]))
    return netbuild.LayerBank(enc_filters=tuple(enc), dec_filters=tuple(dec),
                              pool=tuple(pool), unpool=tuple(unpool))


def encoder_oracle(spec, bank, l, channels):
    """Channel-by-channel filtering + pooling, no matrices involved."""
    pool = bank.pool[l - 1]
    outs = []
    for j in range(spec.q[l]):
        acc = np.zeros(spec.m[l - 1])
        for k in range(spec.q[l - 1]):
            acc += oracles.circ_corr(channels[k], bank.enc_filters[l - 1][k, j])
        outs.append(pool.T @ acc)
    return outs


def decoder_oracle(spec, bank, l, channels, skip_channels=None):
    unpool = bank.unpool[l - 1]
    outs = []
    for j in range(spec.q[l - 1]):
        acc = np.zeros(spec.m[l - 1])
        for k in range(spec.q[l]):
            src = unpool @ channels[k]
            if skip_channels is not None:
                src = src + skip_channels[k]
            acc += oracles.circ_conv(src, bank.dec_filters[l - 1][j, k])
        outs.append(acc)
    return outs


def split_channels(vec, m, q):
    return [vec[i * m:(i + 1) * m] for i in range(q)]


class TestNetworkSpec:
    def test_dims(self):
        spec = netbuild.NetworkSpec(kappa=2, r=2, q=(1, 2, 4), m=(4, 4, 4))
        assert spec.d == (4, 8, 16)
        assert spec.s == (8, 16)
        assert spec.feature_dim == 16
        skip = dataclasses.replace(spec, skip=True)
        assert skip.feature_dim == 16 + 8 + 16

    def test_validation(self):
        with pytest.raises(ValueError, match="kappa"):
            netbuild.NetworkSpec(kappa=0, r=1, q=(1,), m=(4,))
        with pytest.raises(ValueError, match="entries"):
            netbuild.NetworkSpec(kappa=2, r=1, q=(1, 2), m=(4, 4, 4))
        with pytest.raises(ValueError, match="filter length"):
            netbuild.NetworkSpec(kappa=1, r=5, q=(1, 2), m=(4, 4))
        with pytest.raises(ValueError, match="nonlinearity"):
            netbuild.NetworkSpec(kappa=1, r=2, q=(1, 2), m=(4, 4),
                                 nonlinearity="tanh")

    @pytest.mark.parametrize("q, m", [("12", (4, 4)), ((1, 2), "44"),
                                      ((1, 2.5), (4, 4)), ((1, 2), (4, "4")),
                                      ((1, True), (4, 4))])
    def test_rejects_non_integer_dims(self, q, m):
        with pytest.raises(ValueError, match="list of integers"):
            netbuild.NetworkSpec(kappa=1, r=2, q=q, m=m)

    @pytest.mark.parametrize("field, value, message", [
        ("kappa", 1.5, "kappa must be an integer"), ("r", 2.7, "r must be an integer"),
        ("r", "2", "r must be an integer"), ("skip", "false", "skip must be"),
        ("skip", 1, "skip must be"),
    ])
    def test_rejects_mistyped_scalars(self, field, value, message):
        d = {"kappa": 1, "r": 2, "q": [1, 2], "m": [4, 4], "skip": False, field: value}
        with pytest.raises(ValueError, match=message):
            netbuild.NetworkSpec.from_dict(d)

    def test_accepts_integral_floats(self):
        spec = netbuild.NetworkSpec(kappa=1, r=2, q=[1.0, np.int64(2)], m=[4, 4])
        assert spec.q == (1, 2)
        dims = spec.d + spec.s + (spec.feature_dim,)
        assert dims == (4, 8, 8, 8) and all(type(v) is int for v in dims)

    def test_cached_dims_leave_equality_and_hash_alone(self):
        spec = netbuild.NetworkSpec(kappa=2, r=2, q=(1, 2, 4), m=(4, 4, 4), skip=True)
        assert (spec.d, spec.s, spec.feature_dim) == ((4, 8, 16), (8, 16), 40)
        twin = netbuild.NetworkSpec.from_dict(spec.to_dict())
        assert spec == twin and hash(spec) == hash(twin)

    def test_replace_gets_its_own_dims(self):
        spec = netbuild.NetworkSpec(kappa=2, r=2, q=(1, 2, 4), m=(4, 4, 4))
        assert spec.d == (4, 8, 16) and spec.s == (8, 16)
        wider = dataclasses.replace(spec, q=(2, 3, 5), m=(6, 5, 4))
        assert wider.d == (12, 15, 20) and wider.s == (18, 25)
        assert wider.feature_dim == 20
        assert spec.d == (4, 8, 16) and spec.s == (8, 16)

    def test_cached_shifts_leave_equality_hash_and_dict_alone(self):
        spec = netbuild.NetworkSpec(kappa=2, r=2, q=(1, 2, 4), m=(4, 5, 6), skip=True)
        assert [(idx.shape, eye.shape) for idx, eye in spec.shifts] == [
            ((2, 4), (2, 4, 4)), ((2, 5), (2, 5, 5))]
        twin = netbuild.NetworkSpec.from_dict(spec.to_dict())
        assert spec == twin and hash(spec) == hash(twin)
        assert "shifts" not in spec.to_dict()
        assert [f.name for f in dataclasses.fields(spec)] == list(spec.to_dict())

    def test_replace_gets_its_own_shifts(self):
        spec = netbuild.NetworkSpec(kappa=1, r=2, q=(1, 2), m=(4, 4), skip=True)
        ((idx, eye),) = spec.shifts
        wider = dataclasses.replace(spec, r=3, m=(5, 5), skip=False)
        ((w_idx, w_eye),) = wider.shifts
        assert w_idx.shape == (3, 5) and w_eye is None
        assert spec.shifts[0][0] is idx and idx.shape == (2, 4) and eye.shape == (2, 4, 4)

    def test_cached_shift_arrays_are_read_only(self):
        spec = netbuild.NetworkSpec(kappa=2, r=2, q=(1, 2, 4), m=(4, 4, 4), skip=True)
        for idx, eye in spec.shifts:
            for arr in (idx, eye):
                with pytest.raises(ValueError, match="read-only"):
                    arr[0, 0] = 1


class TestBuildLayerMatrices:
    """Each layer of :func:`netbuild.realize`: the linear map from taps to operators."""

    def test_identity_layer(self):
        spec = make_spec(kappa=1, r=2, m=4, q=[1, 1], nonlinearity="none")
        bank = identity_bank(spec)
        mats = netbuild.realize(spec, bank)[0]
        np.testing.assert_array_equal(mats.E, np.eye(4))
        np.testing.assert_array_equal(mats.D, np.eye(4))

    def test_haar_blocks(self):
        # q: 1 -> 2, m=4, identity pooling, Haar filters: E is 4x8 made of
        # two circulants with first columns (1/2, 1/2) and (1/2, -1/2)
        spec = make_spec(kappa=1, r=2, m=4, q=[1, 2], nonlinearity="none")
        enc = np.array([[[0.5, 0.5], [0.5, -0.5]]])
        bank = netbuild.LayerBank(
            enc_filters=(enc,), dec_filters=(enc.copy(),),
            pool=(np.eye(4),), unpool=(np.eye(4),),
        )
        E = netbuild.realize(spec, bank)[0].E
        assert E.shape == (4, 8)
        np.testing.assert_allclose(E[:, :4], oracles.identity_conv(4, [0.5, 0.5]))
        np.testing.assert_allclose(E[:, 4:], oracles.identity_conv(4, [0.5, -0.5]))

    def test_block_structure_matches_conv_with_frame(self):
        # skip on and off, r in {1, 3, min(m)} with unequal m and channel
        # counts; the skip operators filter the identity, E and S share the
        # encoder taps, D and S_tilde the decoder taps
        for skip, r, l in itertools.product((False, True), (1, 3, 5), (1, 2)):
            spec = make_spec(kappa=2, r=r, q=[2, 3, 2], m_list=[7, 5, 6], skip=skip)
            bank = netbuild.random_bank(spec, seed=3)
            mats = netbuild.realize(spec, bank)[l - 1]
            enc, dec = bank.enc_filters[l - 1], bank.dec_filters[l - 1]
            pool, unpool, m_prev = bank.pool[l - 1], bank.unpool[l - 1], spec.m[l - 1]
            expected = {"E": (enc, lambda v: oracles.conv_with_frame(pool, v)),
                        "D": (dec, lambda v: oracles.conv_with_frame(unpool, v))}
            if skip:
                expected.update(S=(enc, lambda v: oracles.identity_conv(m_prev, v)),
                                S_tilde=(dec, lambda v: oracles.identity_conv(m_prev, v)))
            assert (mats.S is not None) == skip == (mats.S_tilde is not None)
            for name, (taps, oracle) in expected.items():
                blocks = [[oracle(taps[k, j]) for j in range(spec.q[l])]
                          for k in range(spec.q[l - 1])]
                np.testing.assert_array_equal(getattr(mats, name), np.block(blocks))


def operator_fields(layer):
    return [f for f in ("E", "D", "S", "S_tilde") if getattr(layer, f) is not None]


def factored(op, T, rng=None):
    """A gradient shaped like operator ``op`` in realize_adjoint's factored
    form (rows, cols): T random rows of each, a random dense G as (I, G)
    when T is None, or one zero row of each without ``rng``."""
    if rng is None:
        return np.zeros((1, op.shape[0])), np.zeros((1, op.shape[1]))
    if T is None:
        return np.eye(op.shape[0]), rng.standard_normal(op.shape)
    return rng.standard_normal((T, op.shape[0])), rng.standard_normal((T, op.shape[1]))


class TestRealizeAdjoint:
    @pytest.mark.parametrize("T", [1, 3, None])
    @pytest.mark.parametrize("skip", [False, True])
    @pytest.mark.parametrize("r", [1, 3, 5])
    def test_dot_product_per_operator(self, skip, r, T, rng):
        # <realize(w), rows' cols> == <w, adjoint(rows, cols)> with the pair
        # nonzero on one operator; T rows, or a dense G as (I, G) when T is
        # None.  The bank's random filters are the taps w
        spec = make_spec(kappa=2, r=r, q=[2, 3, 2], m_list=[7, 5, 6], skip=skip)
        bank = netbuild.random_bank(spec, seed=5)
        mats = netbuild.realize(spec, bank)
        zeros = [{f: factored(getattr(m, f), T) for f in operator_fields(m)} for m in mats]
        for l, layer in enumerate(mats, 1):
            for name in operator_fields(layer):
                rows, cols = factored(getattr(layer, name), T, rng)
                grads = list(zeros)
                grads[l - 1] = {**zeros[l - 1], name: (rows, cols)}
                enc_g, dec_g = netbuild.realize_adjoint(spec, bank, grads)
                shared = name in ("E", "S")
                taps = (bank.enc_filters if shared else bank.dec_filters)[l - 1]
                got = (enc_g if shared else dec_g).pop(l - 1)
                assert got.shape == taps.shape
                lhs = np.sum(getattr(layer, name) * (rows.T @ cols))
                assert abs(lhs - np.sum(taps * got)) <= 1e-12 * abs(lhs)
                for g in enc_g + dec_g:  # every other layer and side
                    np.testing.assert_array_equal(g, 0.0)

    @pytest.mark.parametrize("T", [1, 3, None])
    @pytest.mark.parametrize("skip", [False, True])
    @pytest.mark.parametrize("r", [1, 3, 5])
    def test_byte_equal_to_roll_oracle(self, skip, r, T, rng, monkeypatch):
        # the one-gather shift stacks give the adjoint of the roll-by-roll
        # stacks bit for bit; layer 2's pooling is (5, 6), column-major from
        # random_bank, and r = 5 = m_1 makes its stack as tall as Phi
        spec = make_spec(kappa=2, r=r, q=[2, 3, 2], m_list=[7, 5, 6], skip=skip)
        bank = netbuild.random_bank(spec, seed=5)
        grads = [{f: factored(getattr(m, f), T, rng) for f in operator_fields(m)}
                 for m in netbuild.realize(spec, bank)]
        got = netbuild.realize_adjoint(spec, bank, grads)
        monkeypatch.setattr(netbuild, "_frames", oracles.roll_frames)
        want = netbuild.realize_adjoint(spec, bank, grads)
        for g, w in zip(got[0] + got[1], want[0] + want[1]):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("skip", [False, True])
    @pytest.mark.parametrize("r", [1, 3, 5])
    def test_frames_byte_equal_to_roll_oracle(self, skip, r):
        # the cached gather index and identity stack give the roll-by-roll
        # shift stacks bit for bit, read before and after the cache fills
        spec = make_spec(kappa=2, r=r, q=[2, 3, 2], m_list=[7, 5, 6], skip=skip)
        bank = netbuild.random_bank(spec, seed=5)
        for _ in range(2):
            for l in range(1, spec.kappa + 1):
                got = netbuild._frames(spec, bank, l)
                want = oracles.roll_frames(spec, bank, l)
                assert list(got) == list(want)
                for name, (side, R) in got.items():
                    assert side == want[name][0] and R.shape == want[name][1].shape
                    assert R.tobytes() == want[name][1].tobytes()


class TestMatrixConvEquivalence:
    """Matrix form == channelwise convolutional form, every layer, both sides."""

    @pytest.mark.parametrize("skip", [False, True])
    def test_encoder_and_decoder(self, skip, rng):
        spec = make_spec(kappa=2, r=2, m=6, skip=skip)
        bank = netbuild.random_bank(spec, seed=11)
        mats = netbuild.realize(spec, bank)
        x = rng.standard_normal(spec.d[0])
        trace = netbuild.forward_matrices(spec, mats, x)

        prev = x
        for l in range(1, spec.kappa + 1):
            channels = split_channels(prev, spec.m[l - 1], spec.q[l - 1])
            outs = encoder_oracle(spec, bank, l, channels)
            np.testing.assert_allclose(
                np.concatenate(outs), trace.enc_pre[l - 1], atol=1e-12
            )
            if skip:
                skips = [
                    sum(oracles.circ_corr(channels[k], bank.enc_filters[l - 1][k, j])
                        for k in range(spec.q[l - 1]))
                    for j in range(spec.q[l])
                ]
                np.testing.assert_allclose(
                    np.concatenate(skips), trace.skip_pre[l - 1], atol=1e-12
                )
            prev = trace.enc[l - 1]

        for l in range(spec.kappa, 0, -1):
            channels = split_channels(trace.dec[l], spec.m[l], spec.q[l])
            skips = None
            if skip:
                skips = split_channels(trace.skip[l - 1], spec.m[l - 1], spec.q[l])
            outs = decoder_oracle(spec, bank, l, channels, skips)
            np.testing.assert_allclose(
                np.concatenate(outs), trace.dec_pre[l - 1], atol=1e-12
            )


class TestSteps:
    """One layer of forward_matrices on kappa = 1 nets."""

    def test_zero_input(self):
        spec = make_spec(kappa=1, m=4, skip=True)
        bank = netbuild.random_bank(spec, seed=1)
        trace = netbuild.forward_matrices(spec, netbuild.realize(spec, bank), np.zeros(4))
        np.testing.assert_array_equal(trace.enc[0], np.zeros(spec.d[1]))
        np.testing.assert_array_equal(trace.skip[0], np.zeros(spec.s[0]))
        np.testing.assert_array_equal(trace.y, np.zeros(4))

    def test_identity_layer_no_nonlinearity(self, rng):
        spec = make_spec(kappa=1, r=2, m=4, q=[1, 1], nonlinearity="none")
        bank = identity_bank(spec)
        x = rng.standard_normal(4)
        trace = netbuild.forward_matrices(spec, netbuild.realize(spec, bank), x)
        np.testing.assert_allclose(trace.enc[0], x)
        assert trace.skip is None
        np.testing.assert_allclose(trace.y, x)

    def test_relu_is_entrywise_max(self, rng):
        spec = make_spec(kappa=1, m=5)
        bank = netbuild.random_bank(spec, seed=2)
        mats = netbuild.realize(spec, bank)
        x = rng.standard_normal(5)
        trace = netbuild.forward_matrices(spec, mats, x)
        np.testing.assert_array_equal(trace.enc[0], np.maximum(mats[0].E.T @ x, 0.0))


class TestForward:
    def test_identity_network(self, rng):
        spec = make_spec(kappa=1, r=2, m=4, q=[1, 1], nonlinearity="none")
        bank = identity_bank(spec)
        x = rng.standard_normal(4)
        mats = netbuild.realize(spec, bank)
        np.testing.assert_allclose(netbuild.forward_matrices(spec, mats, x).y, x)

    @pytest.mark.parametrize("skip", [False, True])
    def test_matches_manual_step_composition(self, skip, rng):
        spec = make_spec(kappa=2, r=2, m=5, skip=skip)
        bank = netbuild.random_bank(spec, seed=8)
        mats = netbuild.realize(spec, bank)
        x = rng.standard_normal(spec.d[0])
        trace = netbuild.forward_matrices(spec, mats, x)

        # ReLU network: xi = relu(E'x), chi = relu(S'x) on the way down,
        # relu(D xi + S_tilde chi) on the way up
        cur, chis = x, []
        for layer in mats:
            chis.append(np.maximum(layer.S.T @ cur, 0.0) if skip else None)
            cur = np.maximum(layer.E.T @ cur, 0.0)
        for layer, chi in zip(reversed(mats), reversed(chis)):
            pre = layer.D @ cur
            if skip:
                pre = pre + layer.S_tilde @ chi
            cur = np.maximum(pre, 0.0)
        np.testing.assert_allclose(cur, trace.y, atol=1e-12)

    def test_relu_features_nonnegative(self, rng):
        spec = make_spec(kappa=2, m=5, skip=True)
        mats = netbuild.realize(spec, netbuild.random_bank(spec, seed=4))
        trace = netbuild.forward_matrices(spec, mats, rng.standard_normal(spec.d[0]))
        for feat in trace.enc + trace.skip + trace.dec:
            assert np.all(feat >= 0.0)

    def test_positive_homogeneity(self, rng):
        spec = make_spec(kappa=2, m=5, skip=True)
        bank = netbuild.random_bank(spec, seed=4)
        mats = netbuild.realize(spec, bank)
        x = rng.standard_normal(spec.d[0])
        y = netbuild.forward_matrices(spec, mats, x).y
        for c in (0.5, 3.0):
            np.testing.assert_allclose(
                netbuild.forward_matrices(spec, mats, c * x).y, c * y, atol=1e-10
            )

    def test_linear_mode_additivity(self, rng):
        spec = make_spec(kappa=2, m=5, skip=True, nonlinearity="none")
        bank = netbuild.random_bank(spec, seed=4)
        mats = netbuild.realize(spec, bank)
        x1 = rng.standard_normal(spec.d[0])
        x2 = rng.standard_normal(spec.d[0])
        y = netbuild.forward_matrices(spec, mats, x1 + x2).y
        y1 = netbuild.forward_matrices(spec, mats, x1).y
        y2 = netbuild.forward_matrices(spec, mats, x2).y
        np.testing.assert_allclose(y, y1 + y2, atol=1e-10)

    def test_trace_dimensions(self, rng):
        spec = make_spec(kappa=3, r=2, m=4, skip=True)
        mats = netbuild.realize(spec, netbuild.random_bank(spec, seed=6))
        trace = netbuild.forward_matrices(spec, mats, rng.standard_normal(spec.d[0]))
        for l in range(1, spec.kappa + 1):
            assert trace.enc[l - 1].shape == (spec.d[l],)
            assert trace.skip[l - 1].shape == (spec.s[l - 1],)
            assert trace.dec[l - 1].shape == (spec.d[l - 1],)

    def test_wrong_input_length(self):
        spec = make_spec(kappa=1, m=4)
        mats = netbuild.realize(spec, netbuild.random_bank(spec, seed=0))
        for bad in (np.zeros(5), np.zeros((3, 5)), np.zeros((2, 3, 4)), np.zeros(())):
            with pytest.raises(ValueError, match="shape"):
                netbuild.forward_matrices(spec, mats, bad)
            with pytest.raises(ValueError, match="shape"):
                netbuild.forward_y(spec, mats, bad)

    @pytest.mark.parametrize("skip", [False, True])
    @pytest.mark.parametrize("nonlinearity", netbuild.NONLINEARITIES)
    @pytest.mark.parametrize("n", [None, 1, 7])
    def test_forward_y_equals_the_gemm_trace(self, skip, nonlinearity, n, rng):
        # the same v @ M.T products as a traced GEMM forward, byte for byte,
        # with no trace kept
        spec = make_spec(kappa=2, r=2, m=6, skip=skip, nonlinearity=nonlinearity)
        mats = netbuild.realize(spec, netbuild.random_bank(spec, seed=11))
        X = rng.standard_normal(spec.d[0] if n is None else (n, spec.d[0]))
        got = netbuild.forward_y(spec, mats, X)
        want = oracles.gemm_forward(spec, mats, X).y
        assert got.shape == X.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("skip", [False, True])
    @pytest.mark.parametrize("nonlinearity", netbuild.NONLINEARITIES)
    @pytest.mark.parametrize("n", [1, 2, 50])
    def test_stacked_rows_equal_single_forwards(self, skip, nonlinearity, n, rng):
        # bit-identical, not close: batched callers must reproduce the
        # reports of one-input-at-a-time loops exactly
        spec = make_spec(kappa=2, r=2, m=6, skip=skip, nonlinearity=nonlinearity)
        mats = netbuild.realize(spec, netbuild.random_bank(spec, seed=11))
        X = rng.standard_normal((n, spec.d[0]))
        stacked = netbuild.forward_matrices(spec, mats, X)
        fields = ["enc_pre", "enc", "dec_pre", "dec"] + (["skip_pre", "skip"] if skip else [])
        assert stacked.x.shape == (n, spec.d[0])
        for i, x in enumerate(X):
            single = netbuild.forward_matrices(spec, mats, x)
            assert np.array_equal(stacked.x[i], single.x)
            for name in fields:
                rows, ones = getattr(stacked, name), getattr(single, name)
                assert len(rows) == len(ones)
                for got, want in zip(rows, ones):
                    assert got.shape == (n,) + want.shape
                    assert np.array_equal(got[i], want)
            assert np.array_equal(stacked.y[i], single.y)


class TestEmbeddingDims:
    def test_clean(self):
        spec = netbuild.NetworkSpec(kappa=2, r=2, q=(1, 2, 4), m=(4, 4, 4))
        assert oracles.check_embedding_dims(spec) == []

    def test_bottleneck_warning(self):
        spec = netbuild.NetworkSpec(kappa=2, r=2, q=(1, 2, 2), m=(4, 4, 4))
        warnings = oracles.check_embedding_dims(spec)
        assert len(warnings) == 1 and "bottleneck" in warnings[0]

    def test_monotonicity_warning(self):
        spec = netbuild.NetworkSpec(kappa=2, r=2, q=(2, 1, 8), m=(4, 4, 4))
        warnings = oracles.check_embedding_dims(spec)
        assert any("layer 1" in w for w in warnings)


class TestBankIO:
    def test_round_trip(self, tmp_path):
        spec = make_spec(kappa=2, m=5, skip=True)
        bank = netbuild.random_bank(spec, seed=123)
        path = tmp_path / "bank.json"
        netbuild.save_bank(spec, bank, path)
        loaded = netbuild.bank_from_dict(json.loads(path.read_text()))
        netbuild.validate_bank(spec, loaded)
        for a, b in zip(bank.enc_filters, loaded.enc_filters):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(bank.pool, loaded.pool):
            np.testing.assert_array_equal(a, b)

    def test_shape_mismatch_detected(self, tmp_path):
        spec = make_spec(kappa=1, m=4)
        bank = netbuild.random_bank(spec, seed=1)
        blob = netbuild.bank_to_dict(spec, bank)
        blob["layers"][0]["pool"]["shape"] = [2, 2]
        with pytest.raises(ValueError, match="shape"):
            netbuild.bank_from_dict(blob)

    def test_random_bank_is_seed_deterministic(self):
        spec = make_spec(kappa=2, m=5)
        b1 = netbuild.random_bank(spec, seed=42)
        b2 = netbuild.random_bank(spec, seed=42)
        b3 = netbuild.random_bank(spec, seed=43)
        for a, b in zip(b1.enc_filters, b2.enc_filters):
            np.testing.assert_array_equal(a, b)
        assert any(
            not np.array_equal(a, b)
            for a, b in zip(b1.enc_filters, b3.enc_filters)
        )

    @pytest.mark.parametrize("name", ["enc_filters", "dec_filters", "pool", "unpool"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_validate_bank_rejects_non_finite(self, name, bad):
        spec = make_spec(kappa=2, m=5, skip=True)
        bank = netbuild.random_bank(spec, seed=0)
        arrays = [a.copy() for a in getattr(bank, name)]
        arrays[1].flat[3] = bad
        bank = dataclasses.replace(bank, **{name: tuple(arrays)})
        with pytest.raises(ValueError, match=f"layer 2 {name} contains non-finite"):
            netbuild.realize(spec, bank)

    def test_validate_bank_catches_mismatch(self):
        spec = make_spec(kappa=2, m=5)
        other = make_spec(kappa=2, m=6)
        bank = netbuild.random_bank(other, seed=0)
        with pytest.raises(ValueError, match="shape"):
            netbuild.validate_bank(spec, bank)
