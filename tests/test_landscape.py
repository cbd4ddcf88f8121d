"""Gradients, singular-value sandwich bounds, stationarity, and the trainer."""

import dataclasses
import warnings

import numpy as np
import pytest

from framelets import analysis, cli, landscape, netbuild
from conftest import make_spec, patch_bindings
import oracles

SANDWICH_SLACK = 1e-8


def skip_spec():
    # s = (8, 12) >= T and d = (4, 8, 12) with d_{l-1} >= d_0 at every level
    return make_spec(kappa=2, r=2, m=4, q=[1, 2, 3], skip=True)


def random_data(spec, seed, T=2):
    gen = np.random.default_rng(seed)
    return landscape.TrainingSet(
        X=gen.standard_normal((spec.d[0], T)),
        Y=gen.standard_normal((spec.d[0], T)),
    )


def margin_safe(spec, mats, data, margin=1e-4):
    return all(
        oracles.trace_margin(spec, netbuild.forward_matrices(spec, mats, data.X[:, i]))
        >= margin
        for i in range(data.T)
    )


def zero_loss_data(spec, mats, X):
    Y = np.column_stack(
        [netbuild.forward_matrices(spec, mats, X[:, i]).y for i in range(X.shape[1])]
    )
    return landscape.TrainingSet(X=X, Y=Y)


class TestLoss:
    def test_zero_residual(self):
        spec = skip_spec()
        bank = netbuild.random_bank(spec, seed=0)
        mats = netbuild.realize(spec, bank)
        data = zero_loss_data(spec, mats, np.random.default_rng(1).standard_normal((4, 3)))
        assert landscape.loss(spec, mats, data) == 0.0

    def test_single_sample_arithmetic(self):
        # all-zero filters give F == 0, so the loss is half the target norm
        spec = make_spec(kappa=1, m=4, q=[1, 2])
        zero = np.zeros((1, 2, 2))
        bank = netbuild.LayerBank(
            enc_filters=(zero,), dec_filters=(zero.copy(),),
            pool=(np.eye(4),), unpool=(np.eye(4),),
        )
        data = landscape.TrainingSet(
            X=np.ones((4, 1)), Y=np.array([[3.0], [4.0], [0.0], [0.0]])
        )
        assert landscape.loss(spec, netbuild.realize(spec, bank), data) == 12.5

    def test_matches_naive_summation(self, rng):
        spec = skip_spec()
        bank = netbuild.random_bank(spec, seed=2)
        mats = netbuild.realize(spec, bank)
        data = random_data(spec, seed=3, T=4)
        total = 0.0
        for i in range(4):
            diff = netbuild.forward_matrices(spec, mats, data.X[:, i]).y - data.Y[:, i]
            total += sum(float(v) ** 2 for v in diff)
        assert abs(landscape.loss(spec, mats, data) - 0.5 * total) <= 1e-12


def column_sigma(v):
    return np.linalg.svd(np.column_stack([v]), compute_uv=False)[-1]


class TestFeatureMatrices:
    def test_single_sample_column(self):
        # with one sample each feature matrix is that sample's feature column
        spec = skip_spec()
        bank = netbuild.random_bank(spec, seed=1)
        mats = netbuild.realize(spec, bank)
        data = random_data(spec, seed=5, T=1)
        trace = netbuild.forward_matrices(spec, mats, data.X[:, 0])
        printed = landscape.certify_bounds_enc(landscape.training_pass(spec, mats, data)).printed
        np.testing.assert_array_equal(printed["feature_sigma_min"],
                                      column_sigma(trace.enc[-1]))
        np.testing.assert_array_equal(
            landscape.certify_bounds_skip(landscape.training_pass(spec, mats, data),
                                          1).feature_sigma_min,
            column_sigma(trace.skip[0]),
        )

    def test_duplicate_sample_rank_deficiency(self):
        spec = skip_spec()
        bank = netbuild.random_bank(spec, seed=1)
        mats = netbuild.realize(spec, bank)
        x = np.random.default_rng(2).standard_normal(spec.d[0])
        data = landscape.TrainingSet(
            X=np.column_stack([x, x]), Y=np.zeros((spec.d[0], 2))
        )
        for l in range(1, spec.kappa + 1):
            cert = landscape.certify_bounds_skip(landscape.training_pass(spec, mats, data), l)
            assert cert.feature_sigma_min <= 1e-12

    def test_overparameterized_full_rank(self):
        spec = skip_spec()  # s_l >= T = 2
        bank = netbuild.random_bank(spec, seed=4)
        mats = netbuild.realize(spec, bank)
        data = random_data(spec, seed=6, T=2)
        p = landscape.training_pass(spec, mats, data)
        assert landscape.certify_bounds_skip(p, 2).feature_sigma_min > 0.0


class TestOneForwardPerSample:
    """Each public call forwards all its samples as one stacked pass; a call
    that reads a training pass forwards nothing beyond that pass."""

    @pytest.mark.parametrize("name, args", [
        ("certify_bounds_skip", (1,)),
        ("certify_bounds_skip", (2,)),
        ("certify_bounds_enc", ()),
        ("check_stationarity", ()),
        ("grad", ("S_tilde", 2)),
        ("grad", ("E", 2)),
        ("loss", ()),
        ("tap_gradients", ()),
    ])
    def test_forward_calls(self, forward_calls, name, args):
        spec = skip_spec()
        bank = netbuild.random_bank(spec, seed=2)
        mats = netbuild.realize(spec, bank)
        data = random_data(spec, seed=3, T=3)
        if name in ("loss", "tap_gradients"):
            getattr(landscape, name)(spec, bank if name == "tap_gradients" else mats, data)
        else:
            p = landscape.training_pass(spec, mats, data)
            if name == "grad":
                p.grad(*args)
            else:
                getattr(landscape, name)(p, *args)
        assert forward_calls == [(data.T, spec.d[0])]


@pytest.fixture
def dual_calls(monkeypatch):
    """One entry per dual-chain formation of a training pass, an adjoint
    call from the co-probe I, and one per call of the forward recursion,
    the only code that forms encoder prefixes."""
    calls = []
    adjoint, forward = analysis.adjoint, analysis._forward

    def counted_adjoint(spec, mats, dec, probe, *args, **kwargs):
        if np.ndim(probe) == 2 and np.array_equal(probe, np.eye(spec.d[0])):
            calls.append("adjoint")
        return adjoint(spec, mats, dec, probe, *args, **kwargs)

    def counted_forward(*args, **kwargs):
        calls.append("_forward")
        return forward(*args, **kwargs)

    patch_bindings(monkeypatch, adjoint, counted_adjoint)
    patch_bindings(monkeypatch, forward, counted_forward)
    return calls


class TestOnePassPerTrainingSet:
    """A landscape analysis and a training checkpoint each forward their
    training set once and form its dual-chain prefixes once."""

    def test_run_landscape(self, forward_calls, dual_calls):
        spec = skip_spec()
        ctx = cli.Context(spec=spec, bank=netbuild.random_bank(spec, seed=4), seed=5,
                          tolerances=cli.validate("tolerances", {}), outdir=None)
        block = cli.run_landscape(ctx, {"samples": 2})
        assert len(block["certificates"]) == spec.kappa + 1  # two skip levels, E
        assert "stationarity" in block
        assert forward_calls == [(2, spec.d[0])]
        assert dual_calls == ["adjoint"]

    @pytest.mark.parametrize("skip", [False, True])
    def test_train_checkpoints(self, dual_calls, skip, monkeypatch):
        spec = make_spec(kappa=2, r=2, m=4, q=[1, 2, 3], skip=skip)
        passes = []
        original = landscape.training_pass

        def counted(*args, **kwargs):
            passes.append(args[2])
            return original(*args, **kwargs)

        monkeypatch.setattr(landscape, "training_pass", counted)
        config = landscape.TrainConfig(step_size=0.01, iterations=6, checkpoint_every=2)
        result = landscape.train_gd(spec, netbuild.random_bank(spec, seed=1),
                                    random_data(spec, seed=2), config)
        assert [it for it, _ in result.certificates] == [0, 2, 4, 6]
        # one pass per tap gradient and one per checkpoint, which forms its dual once
        assert len(passes) == len(result.grad_norms) + 4
        assert dual_calls == ["adjoint"] * 4


def one_sample(data, i):
    return landscape.TrainingSet(X=data.X[:, i:i + 1], Y=data.Y[:, i:i + 1])


def sample_order_sum(values):
    total = values[0]
    for value in values[1:]:
        total = total + value
    return total


class TestStackedSamplesAreExact:
    """A T-sample call equals the sample-order sum of its one-sample calls, bit for bit."""

    @pytest.mark.parametrize("nonlinearity", netbuild.NONLINEARITIES)
    @pytest.mark.parametrize("skip", [False, True])
    @pytest.mark.parametrize("T", [2, 4])
    def test_loss_and_free_matrix_gradients(self, T, skip, nonlinearity):
        spec = make_spec(kappa=2, r=2, m=4, q=[1, 2, 3], skip=skip, nonlinearity=nonlinearity)
        mats = netbuild.realize(spec, netbuild.random_bank(spec, seed=T))
        data = random_data(spec, seed=10 + T, T=T)
        singles = [one_sample(data, i) for i in range(T)]
        assert landscape.loss(spec, mats, data) == sample_order_sum(
            [landscape.loss(spec, mats, one) for one in singles])
        assert np.array_equal(
            landscape.training_pass(spec, mats, data).grad("E", spec.kappa),
            sample_order_sum([landscape.training_pass(spec, mats, one).grad("E", spec.kappa)
                              for one in singles]))
        for l in range(1, spec.kappa + 1) if skip else ():
            assert np.array_equal(
                landscape.training_pass(spec, mats, data).grad("S_tilde", l),
                sample_order_sum([landscape.training_pass(spec, mats, one).grad("S_tilde", l)
                                  for one in singles]))

    @pytest.mark.parametrize("nonlinearity", netbuild.NONLINEARITIES)
    @pytest.mark.parametrize("skip", [False, True])
    @pytest.mark.parametrize("T", [1, 2, 4, 9])
    def test_gradients_equal_the_outer_product_loop(self, T, skip, nonlinearity):
        # byte for byte, signed zeros included, for every operator and layer;
        # m grows per layer so that no operator is square
        spec = make_spec(kappa=2, r=2, q=[1, 2, 3], m_list=[4, 5, 6], skip=skip,
                         nonlinearity=nonlinearity)
        mats = netbuild.realize(spec, netbuild.random_bank(spec, seed=T))
        p = landscape.training_pass(spec, mats, random_data(spec, seed=20 + T, T=T))
        for name in ("E", "D", "S", "S_tilde") if skip else ("E", "D"):
            for l in range(1, spec.kappa + 1):
                got, want = p.grad(name, l), oracles.outer_sum_grad(p, name, l)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_kink_guard_names_the_first_offending_sample(self):
        spec = make_spec(kappa=1, r=2, m=4, q=[1, 2], skip=True)
        mats = netbuild.realize(spec, netbuild.random_bank(spec, seed=9))
        data = random_data(spec, seed=7, T=1)
        assert margin_safe(spec, mats, data)
        X = np.column_stack([data.X[:, 0], np.zeros(4), np.zeros(4)])
        data = landscape.TrainingSet(X=X, Y=np.ones((4, 3)))
        with pytest.raises(analysis.KinkMarginError, match="training sample 1 "):
            oracles.fd_grad_enc(spec, mats, data)


class TestDecoderAdjoint:
    """The pass's dual prefixes and its backward trace down the decoder run the
    decoder adjoint; each equals its reference recursion exactly."""

    @staticmethod
    def stacked_pass(skip, nonlinearity, T=5):
        spec = make_spec(kappa=2, r=2, q=[1, 2, 3], m_list=[4, 5, 6], skip=skip,
                         nonlinearity=nonlinearity)
        mats = netbuild.realize(spec, netbuild.random_bank(spec, seed=T))
        data = random_data(spec, seed=30 + T, T=T)
        return spec, mats, data, landscape.training_pass(spec, mats, data)

    @pytest.mark.parametrize("nonlinearity", netbuild.NONLINEARITIES)
    @pytest.mark.parametrize("skip", [False, True])
    def test_dual_equals_the_dual_chains(self, skip, nonlinearity):
        spec, mats, _, p = self.stacked_pass(skip, nonlinearity)
        want = oracles.dual_chains(spec, mats, p.pattern)
        assert len(p.dual) == len(want) == spec.kappa + 1
        assert all(np.array_equal(got, w) for got, w in zip(p.dual, want))

    @pytest.mark.parametrize("nonlinearity", netbuild.NONLINEARITIES)
    @pytest.mark.parametrize("skip", [False, True])
    def test_trace_equals_the_per_row_apply_oracle(self, skip, nonlinearity):
        spec, mats, data, p = self.stacked_pass(skip, nonlinearity)
        res = p.trace.y - data.Y.T
        for i in range(p.T):
            rows = oracles.backward_row(spec, mats, p.pattern, res[i], i)
            for got, want in zip((p.d_enc, p.d_skip, p.d_dec), rows):
                assert len(got) == len(want)
                assert all(np.array_equal(g[i], w) for g, w in zip(got, want))


class TestAnalyticGradients:
    def test_zero_residual_gives_exact_zero(self):
        spec = skip_spec()
        bank = netbuild.random_bank(spec, seed=3)
        mats = netbuild.realize(spec, bank)
        data = zero_loss_data(spec, mats,
                              np.random.default_rng(4).standard_normal((4, 2)))
        for l in (1, 2):
            assert np.all(landscape.training_pass(spec, mats, data).grad("S_tilde", l) == 0.0)
        assert np.all(landscape.training_pass(spec, mats, data).grad("E", spec.kappa) == 0.0)

    def test_tiny_case_finite_differences(self):
        spec = make_spec(kappa=1, r=2, m=4, q=[1, 2], skip=True)
        bank = netbuild.random_bank(spec, seed=5)
        mats = netbuild.realize(spec, bank)
        data = random_data(spec, seed=7, T=1)
        assert margin_safe(spec, mats, data)
        ga = landscape.training_pass(spec, mats, data).grad("S_tilde", 1)
        gf = oracles.fd_grad_skip(spec, mats, data, 1)
        assert np.linalg.norm(ga - gf) <= 1e-5 * np.linalg.norm(gf)

    @pytest.mark.parametrize("l", [1, 2])
    def test_random_cases_skip(self, l):
        spec = skip_spec()
        done = 0
        for seed in range(40):
            bank = netbuild.random_bank(spec, seed=seed)
            mats = netbuild.realize(spec, bank)
            data = random_data(spec, seed=seed + 100)
            if not margin_safe(spec, mats, data):
                continue
            ga = landscape.training_pass(spec, mats, data).grad("S_tilde", l)
            gf = oracles.fd_grad_skip(spec, mats, data, l)
            assert np.linalg.norm(ga - gf) <= 1e-5 * max(np.linalg.norm(gf), 1e-30)
            done += 1
            if done >= 10:
                break
        assert done >= 5

    def test_random_cases_encoder(self):
        spec = skip_spec()
        done = 0
        for seed in range(40):
            bank = netbuild.random_bank(spec, seed=seed)
            mats = netbuild.realize(spec, bank)
            data = random_data(spec, seed=seed + 200)
            if not margin_safe(spec, mats, data):
                continue
            ga = landscape.training_pass(spec, mats, data).grad("E", spec.kappa)
            gf = oracles.fd_grad_enc(spec, mats, data)
            assert np.linalg.norm(ga - gf) <= 1e-5 * max(np.linalg.norm(gf), 1e-30)
            done += 1
            if done >= 10:
                break
        assert done >= 5

    def test_requires_skip_network(self):
        spec = make_spec(kappa=1, m=4)
        bank = netbuild.random_bank(spec, seed=0)
        mats = netbuild.realize(spec, bank)
        with pytest.raises(ValueError, match="skip"):
            landscape.training_pass(spec, mats, random_data(spec, 1)).grad("S_tilde", 1)

    @pytest.mark.parametrize("l", [0, 3])
    def test_layer_out_of_range(self, l):
        spec = skip_spec()
        mats = netbuild.realize(spec, netbuild.random_bank(spec, seed=0))
        p = landscape.training_pass(spec, mats, random_data(spec, 1))
        for name in ("E", "D", "S", "S_tilde"):
            with pytest.raises(ValueError, match=r"layer index .* out of range \[1, 2\]"):
                p.grad(name, l)

    def test_unknown_operator(self):
        spec = skip_spec()
        mats = netbuild.realize(spec, netbuild.random_bank(spec, seed=0))
        p = landscape.training_pass(spec, mats, random_data(spec, 1))
        with pytest.raises(ValueError, match="unknown operator 'S_Tilde'"):
            p.grad("S_Tilde", 1)

    def test_kink_adjacent_data_rejected(self):
        spec = make_spec(kappa=1, r=2, m=4, q=[1, 2], skip=True)
        bank = netbuild.random_bank(spec, seed=9)
        mats = netbuild.realize(spec, bank)
        data = landscape.TrainingSet(X=np.zeros((4, 1)), Y=np.ones((4, 1)))
        with pytest.raises(analysis.KinkMarginError, match="resample"):
            oracles.fd_grad_skip(spec, mats, data, 1)
        # the analytic form stays exact at kinks
        grad = landscape.training_pass(spec, mats, data).grad("S_tilde", 1)
        assert grad.shape == mats[0].S_tilde.shape


class TestBoundCertificates:
    def test_zero_loss_everything_zero(self):
        spec = skip_spec()
        bank = netbuild.random_bank(spec, seed=6)
        mats = netbuild.realize(spec, bank)
        data = zero_loss_data(spec, mats,
                              np.random.default_rng(8).standard_normal((4, 2)))
        cert = landscape.certify_bounds_skip(landscape.training_pass(spec, mats, data), 1)
        assert cert.loss == 0.0
        assert cert.grad_norm == 0.0
        assert cert.lower == 0.0 and cert.upper == 0.0

    @pytest.mark.parametrize("l", [1, 2])
    def test_sandwich_holds_skip(self, l):
        spec = skip_spec()
        for seed in range(25):
            bank = netbuild.random_bank(spec, seed=seed)
            mats = netbuild.realize(spec, bank)
            data = random_data(spec, seed=seed + 300)
            cert = landscape.certify_bounds_skip(landscape.training_pass(spec, mats, data), l)
            assert cert.applicable
            scale = max(cert.upper, 1e-30)
            assert cert.lower <= cert.grad_norm + SANDWICH_SLACK * scale
            assert cert.grad_norm <= cert.upper + SANDWICH_SLACK * scale

    def test_sandwich_holds_encoder(self):
        spec = skip_spec()
        for seed in range(25):
            bank = netbuild.random_bank(spec, seed=seed)
            mats = netbuild.realize(spec, bank)
            data = random_data(spec, seed=seed + 400)
            cert = landscape.certify_bounds_enc(landscape.training_pass(spec, mats, data))
            assert cert.applicable  # d_1 = 8 >= T, d_2 = 12 >= d_0
            scale = max(cert.upper, 1e-30)
            assert cert.lower <= cert.grad_norm + SANDWICH_SLACK * scale
            assert cert.grad_norm <= cert.upper + SANDWICH_SLACK * scale
            assert cert.printed is not None
            assert "feature_sigma_min" in cert.printed

    def test_duplicate_samples_zero_lower_bound(self):
        spec = skip_spec()
        bank = netbuild.random_bank(spec, seed=7)
        mats = netbuild.realize(spec, bank)
        x = np.random.default_rng(9).standard_normal(spec.d[0])
        data = landscape.TrainingSet(
            X=np.column_stack([x, x]),
            Y=np.random.default_rng(10).standard_normal((spec.d[0], 2)),
        )
        cert = landscape.certify_bounds_skip(landscape.training_pass(spec, mats, data), 1)
        assert cert.feature_sigma_min <= 1e-12
        assert cert.lower <= 1e-10
        assert cert.grad_norm <= cert.upper + SANDWICH_SLACK * cert.upper

    def test_positive_factors_force_positive_gradient(self):
        # stationarity direction: nonzero loss plus nonzero sigmas means the
        # gradient cannot vanish
        spec = skip_spec()
        hits = 0
        for seed in range(25):
            bank = netbuild.random_bank(spec, seed=seed)
            mats = netbuild.realize(spec, bank)
            data = random_data(spec, seed=seed + 500)
            cert = landscape.certify_bounds_enc(landscape.training_pass(spec, mats, data))
            if (cert.applicable and cert.loss > 1e-8
                    and cert.feature_sigma_min > 1e-10
                    and cert.factor_sigma_min > 1e-10):
                assert cert.grad_norm > 0.0
                assert cert.lower > 0.0
                hits += 1
        assert hits > 0

    def test_residual_scaling_is_linear(self):
        # moving targets toward the outputs scales residuals by c with the
        # masks untouched, so grad norm and both bounds scale by exactly c
        spec = skip_spec()
        bank = netbuild.random_bank(spec, seed=11)
        mats = netbuild.realize(spec, bank)
        data = random_data(spec, seed=600)
        outs = np.column_stack(
            [netbuild.forward_matrices(spec, mats, data.X[:, i]).y for i in range(data.T)]
        )
        c = 0.125
        scaled = landscape.TrainingSet(X=data.X, Y=outs - c * (outs - data.Y))
        base = landscape.certify_bounds_skip(landscape.training_pass(spec, mats, data), 2)
        small = landscape.certify_bounds_skip(landscape.training_pass(spec, mats, scaled), 2)
        for attr in ("grad_norm", "lower", "upper"):
            b, s = getattr(base, attr), getattr(small, attr)
            assert abs(s - c * b) <= 1e-10 * max(1.0, abs(b))


class TestStationarity:
    def test_full_relu_instances(self):
        # seeds screened so the rank conditions genuinely hold under full ReLU
        spec = netbuild.NetworkSpec(kappa=1, r=2, q=(1, 3), m=(2, 2), skip=True,
                                    nonlinearity="relu")
        hits = 0
        for seed in (4, 7, 11, 21, 22, 26):
            bank = netbuild.random_bank(spec, seed=seed)
            mats = netbuild.realize(spec, bank)
            data = random_data(spec, seed=seed + 5000)
            report = landscape.check_stationarity(landscape.training_pass(spec, mats, data),
                                                  loss_floor=1e-6)
            assert report.ok
            if report.applicable and report.loss > 1e-6:
                hits += 1
                held = [e for e in report.layers if e["conditions_hold"]]
                assert all(e["grad_norm"] > 1e-12 for e in held)
        assert hits >= 3

    def test_encoder_only_relu_generically_applicable(self):
        spec = make_spec(kappa=2, r=2, m=4, q=[1, 2, 3], skip=True,
                         nonlinearity="relu_encoder")
        for seed in range(5):
            bank = netbuild.random_bank(spec, seed=seed)
            mats = netbuild.realize(spec, bank)
            data = random_data(spec, seed=seed + 7000)
            report = landscape.check_stationarity(landscape.training_pass(spec, mats, data),
                                                  loss_floor=1e-6)
            assert report.ok
            assert report.applicable
            assert report.loss > 1e-6

    def test_rank_deficient_features_inapplicable(self):
        spec = skip_spec()
        bank = netbuild.random_bank(spec, seed=13)
        mats = netbuild.realize(spec, bank)
        x = np.random.default_rng(14).standard_normal(spec.d[0])
        data = landscape.TrainingSet(
            X=np.column_stack([x, x]),
            Y=np.random.default_rng(15).standard_normal((spec.d[0], 2)),
        )
        report = landscape.check_stationarity(landscape.training_pass(spec, mats, data))
        assert not any(e["gamma_full_rank"] for e in report.layers)
        assert report.ok

    def test_zero_loss_zero_gradient(self):
        spec = skip_spec()
        bank = netbuild.random_bank(spec, seed=16)
        mats = netbuild.realize(spec, bank)
        data = zero_loss_data(spec, mats,
                              np.random.default_rng(17).standard_normal((4, 2)))
        report = landscape.check_stationarity(landscape.training_pass(spec, mats, data))
        assert report.loss == 0.0
        assert all(e["grad_norm"] == 0.0 for e in report.layers)
        assert report.ok

    @pytest.mark.parametrize("loss, grad_norm", [
        (float("nan"), 1.0), (float("inf"), 1.0), (1.0, float("nan")),
    ])
    def test_non_finite_loss_or_gradient_fails(self, loss, grad_norm):
        # no comparison with a NaN holds, so it made no violation and passed
        report = landscape.StationarityReport(
            loss=loss, loss_floor=1e-6, pos_tol=1e-12,
            layers=[{"layer": 1, "conditions_hold": False, "grad_norm": grad_norm}])
        assert report.violations == [] and not report.ok


class TestTapGradients:
    @pytest.mark.parametrize("skip", [False, True])
    def test_finite_differences(self, skip):
        spec = make_spec(kappa=2, r=2, m=4, q=[1, 2, 2], skip=skip)
        bank = netbuild.random_bank(spec, seed=4)
        data = random_data(spec, seed=5)
        mats = netbuild.realize(spec, bank)
        if not margin_safe(spec, mats, data):
            pytest.skip("sampled kink-adjacent data")
        enc_g, dec_g, base = landscape.tap_gradients(spec, bank, data)
        assert abs(base - landscape.loss(spec, mats, data)) <= 1e-12
        h = 1e-6
        for which, grads in (("enc_filters", enc_g), ("dec_filters", dec_g)):
            for l in range(spec.kappa):
                tensor = getattr(bank, which)[l]
                for idx in np.ndindex(tensor.shape):
                    plus = [f.copy() for f in getattr(bank, which)]
                    minus = [f.copy() for f in getattr(bank, which)]
                    plus[l][idx] += h
                    minus[l][idx] -= h
                    bp = dataclasses.replace(bank, **{which: tuple(plus)})
                    bm = dataclasses.replace(bank, **{which: tuple(minus)})
                    fd = (landscape.loss(spec, netbuild.realize(spec, bp), data)
                          - landscape.loss(spec, netbuild.realize(spec, bm), data)) / (2 * h)
                    assert abs(fd - grads[l][idx]) <= 1e-5 * max(abs(fd), 1e-6)


    @pytest.mark.parametrize("T", [1, 3, 8])
    @pytest.mark.parametrize("skip", [False, True])
    @pytest.mark.parametrize("nonlinearity", netbuild.NONLINEARITIES)
    def test_equals_the_einsum_composition(self, skip, nonlinearity, T):
        # the factored adjoint never forms an operator gradient; the dense
        # gradients of Pass.grad pulled back by einsum give the same taps to
        # a few eps of the largest entry, and the same loss
        spec = make_spec(kappa=3, r=2, q=[1, 2, 4, 8], m_list=[8, 8, 8, 8], skip=skip,
                         nonlinearity=nonlinearity)
        bank = netbuild.random_bank(spec, seed=T)
        data = random_data(spec, seed=T, T=T)
        enc_g, dec_g, cost = landscape.tap_gradients(spec, bank, data)
        enc_w, dec_w, want = oracles.einsum_tap_gradients(spec, bank, data)
        assert cost == want
        tol = 8 * np.finfo(float).eps * max(np.abs(w).max() for w in enc_w + dec_w)
        for g, w in zip(enc_g + dec_g, enc_w + dec_w):
            assert g.shape == w.shape and np.abs(g - w).max() <= tol


class TestTrainGD:
    @pytest.mark.parametrize("skip", [False, True])
    @pytest.mark.parametrize("nonlinearity", netbuild.NONLINEARITIES)
    def test_trajectory_matches_roll_oracle(self, skip, nonlinearity, monkeypatch):
        # every realize and adjoint in a short Armijo run goes through the
        # shift stacks; the roll-by-roll stacks give the same run bit for
        # bit.  m grows per layer, where random_bank's orthonormal pooling is
        # built transposed; the bank stores it in C order all the same
        spec = make_spec(kappa=2, r=2, q=[1, 2, 3], m_list=[4, 5, 6], skip=skip,
                         nonlinearity=nonlinearity)
        bank = netbuild.random_bank(spec, seed=1)
        assert bank.pool[0].flags.c_contiguous
        data = random_data(spec, seed=2, T=3)
        config = landscape.TrainConfig(step_size=0.5, iterations=6)
        got = landscape.train_gd(spec, bank, data, config)
        monkeypatch.setattr(netbuild, "_frames", oracles.roll_frames)
        want = landscape.train_gd(spec, bank, data, config)
        assert len(got.losses) == 7
        assert got.losses == want.losses and got.grad_norms == want.grad_norms

    @pytest.mark.parametrize("skip", [False, True])
    def test_saved_bank_trains_like_the_original(self, skip):
        # the same values in another memory layout train the same, bit for
        # bit; with m growing, random_bank builds its pooling transposed
        spec = make_spec(kappa=2, r=2, q=[1, 2, 3], m_list=[4, 5, 6], skip=skip)
        bank = netbuild.random_bank(spec, seed=1)
        loaded = netbuild.bank_from_dict(netbuild.bank_to_dict(spec, bank))
        fortran = dataclasses.replace(bank, pool=tuple(np.asfortranarray(a) for a in bank.pool),
                                      unpool=tuple(np.asfortranarray(a) for a in bank.unpool))
        data = random_data(spec, seed=2, T=3)
        config = landscape.TrainConfig(step_size=0.5, iterations=30)
        want = landscape.train_gd(spec, bank, data, config)
        for other in (loaded, fortran):
            got = landscape.train_gd(spec, other, data, config)
            assert got.losses == want.losses and got.grad_norms == want.grad_norms

    @pytest.mark.parametrize("step_size", [1e308, 1e300])
    def test_overflowing_armijo_trials_backtrack(self, step_size):
        # a step of 1e308 overflows the candidate taps, one of 1e300 the
        # trial forward; both are failed trials, silently, not an error
        spec = make_spec(kappa=1, r=2, m=4, q=[1, 2], skip=True)
        bank = netbuild.random_bank(spec, seed=3)
        gen = np.random.default_rng(3)
        data = landscape.TrainingSet(X=gen.standard_normal((4, 2)),
                                     Y=gen.standard_normal((4, 2)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = landscape.train_gd(
                spec, bank, data,
                landscape.TrainConfig(step_size=step_size, iterations=3))
        assert result.stop_reason == "line search stalled"
        assert len(result.losses) == 1 and np.isfinite(result.losses[0])
        assert result.backtracks == landscape.MAX_BACKTRACKS

    @pytest.mark.parametrize("armijo, step_size", [(True, 4.0), (False, 1e-3)])
    def test_backtracks_count_the_rejected_trials(self, armijo, step_size, monkeypatch):
        # each iteration accepts its last trial; every other trial is a
        # backtrack, and raw steps make none
        spec = make_spec(kappa=1, r=2, m=4, q=[1, 2], skip=True)
        data = random_data(spec, seed=3)
        trials, trial = [], landscape._trial
        monkeypatch.setattr(landscape, "_trial", lambda *args: trials.append(1) or trial(*args))
        result = landscape.train_gd(spec, netbuild.random_bank(spec, seed=3), data,
                                    landscape.TrainConfig(step_size=step_size, iterations=20,
                                                          armijo=armijo))
        assert len(result.losses) == 21
        assert result.backtracks == len(trials) - 20
        assert result.backtracks > 0 if armijo else result.backtracks == 0

    def test_linear_net_reaches_least_squares_floor(self):
        spec = make_spec(kappa=1, r=2, m=4, q=[1, 2], nonlinearity="none")
        bank = netbuild.random_bank(spec, seed=1)
        gen = np.random.default_rng(3)
        data = landscape.TrainingSet(X=gen.standard_normal((4, 1)),
                                     Y=gen.standard_normal((4, 1)))
        # oracle: zero loss is attainable over the decoder taps alone,
        # because the output is linear in them
        mats = netbuild.realize(spec, bank)
        trace = netbuild.forward_matrices(spec, mats, data.X[:, 0])
        cols = []
        for k in range(spec.q[1]):
            src = bank.unpool[0] @ trace.enc[0][k * 4:(k + 1) * 4]
            for t in range(spec.r):
                tap = np.zeros(spec.r)
                tap[t] = 1.0
                cols.append(oracles.circ_conv(src, tap))
        A = np.column_stack(cols)
        sol, *_ = np.linalg.lstsq(A, data.Y[:, 0], rcond=None)
        assert np.linalg.norm(A @ sol - data.Y[:, 0]) <= 1e-10

        result = landscape.train_gd(
            spec, bank, data,
            landscape.TrainConfig(step_size=0.5, iterations=4000, stop_loss=1e-12),
        )
        assert result.losses[-1] <= 1e-10
        assert result.converged

    def test_skip_relu_monotone_descent(self):
        spec = make_spec(kappa=1, r=2, m=4, q=[1, 4], skip=True)
        bank = netbuild.random_bank(spec, seed=2)
        gen = np.random.default_rng(8)
        data = landscape.TrainingSet(X=gen.standard_normal((4, 2)),
                                     Y=gen.standard_normal((4, 2)))
        result = landscape.train_gd(
            spec, bank, data,
            landscape.TrainConfig(step_size=0.5, iterations=150,
                                  checkpoint_every=50),
        )
        assert all(a >= b for a, b in zip(result.losses, result.losses[1:]))
        assert result.losses[-1] < result.losses[0]
        assert len(result.certificates) >= 2
        for _, certs in result.certificates:
            assert all(c.kind == "skip" for c in certs)

    def test_zero_residual_stops_immediately(self):
        spec = make_spec(kappa=1, r=2, m=4, q=[1, 2], skip=True)
        bank = netbuild.random_bank(spec, seed=3)
        mats = netbuild.realize(spec, bank)
        data = zero_loss_data(spec, mats,
                              np.random.default_rng(4).standard_normal((4, 2)))
        result = landscape.train_gd(spec, bank, data,
                                    landscape.TrainConfig(iterations=50))
        assert result.losses == [0.0]
        assert result.converged

    def test_zero_gradient_above_stop_loss_is_not_converged(self):
        # every output unit of this skip relu net is off for all samples, so
        # the gradient vanishes at a loss far above the floor
        spec = netbuild.NetworkSpec(kappa=2, r=2, q=(1, 2, 4), m=(8, 8, 8), skip=True,
                                    nonlinearity="relu")
        bank = netbuild.random_bank(spec, seed=1)
        g = np.random.default_rng(1)
        data = landscape.TrainingSet(X=g.standard_normal((8, 4)), Y=g.standard_normal((8, 4)))
        result = landscape.train_gd(spec, bank, data, landscape.TrainConfig(
            step_size=0.25, iterations=1500, stop_loss=1e-8))
        assert result.stop_reason == "zero gradient"
        assert len(result.losses) == 3 and result.losses[-1] > 10.0  # after 2 steps
        assert result.grad_norms[-1] == 0.0
        assert not result.converged

    def test_divergence_aborts(self):
        spec = make_spec(kappa=1, r=2, m=4, q=[1, 2], nonlinearity="none")
        bank = netbuild.random_bank(spec, seed=5)
        data = random_data(spec, seed=6)
        with pytest.raises(landscape.TrainingDiverged, match="step size"):
            landscape.train_gd(
                spec, bank, data,
                landscape.TrainConfig(step_size=1e4, iterations=100, armijo=False),
            )

    def test_raw_step_blow_up_of_a_large_loss_aborts(self):
        # the loss starts above DIVERGENCE_LOSS; a raw step that raises it
        # further still aborts, while an Armijo run lowers it
        spec = make_spec(kappa=2, r=2, m=8, q=[1, 2, 4], skip=True)
        bank = netbuild.random_bank(spec, seed=7, scale=100)
        data = random_data(spec, seed=0)
        assert landscape.loss(spec, netbuild.realize(spec, bank), data) > 1e12
        with pytest.raises(landscape.TrainingDiverged, match="exceeded 1.0e\\+12 and rose"):
            landscape.train_gd(spec, bank, data,
                               landscape.TrainConfig(iterations=20, armijo=False))
        result = landscape.train_gd(spec, bank, data, landscape.TrainConfig(iterations=1))
        assert result.losses[1] < result.losses[0]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("step_size", [1e300, float("inf")])
    def test_raw_step_that_overflows_names_a_non_finite_loss(self, step_size):
        # the forward overflows (1e300), or the taps themselves do (inf).  The
        # first printed an "invalid value" RuntimeWarning and then called the
        # NaN loss one that "exceeded 1.0e+12 and rose"; the second raised
        # the bank check's ValueError
        spec = netbuild.NetworkSpec(kappa=1, r=2, q=(1, 2), m=(4, 4), skip=True)
        bank = netbuild.random_bank(spec, seed=1)
        data = random_data(spec, seed=0)
        with pytest.raises(landscape.TrainingDiverged,
                           match=r"loss is not finite \((nan|inf)\) at iteration 1: "
                                 r"the step overflowed; reduce the step size"):
            landscape.train_gd(spec, bank, data, landscape.TrainConfig(
                step_size=step_size, iterations=3, armijo=False))

    @pytest.mark.parametrize("k", [1, 4])
    def test_raw_steps_keep_the_benchmark_call_counts(self, k, monkeypatch):
        # the benchmark's tracer pins these counts on a raw-step run of this
        # net; a change to the call structure must re-pin the benchmark
        # first.  Like the tracer, count through every framelets binding
        spec = netbuild.NetworkSpec(kappa=2, r=2, q=(1, 2, 4), m=(4, 4, 4), skip=True,
                                    nonlinearity="relu")
        originals = {"netbuild.realize": netbuild.realize, "landscape.loss": landscape.loss,
                     "landscape.tap_gradients": landscape.tap_gradients}
        counts = dict.fromkeys(originals, 0)
        for target, original in originals.items():
            def counted(*args, _target=target, _original=original, **kwargs):
                counts[_target] += 1
                return _original(*args, **kwargs)

            patch_bindings(monkeypatch, original, counted)
        gen = np.random.default_rng(1)
        data = landscape.TrainingSet(X=gen.standard_normal((spec.d[0], 2)),
                                     Y=gen.standard_normal((spec.d[0], 2)))
        config = landscape.TrainConfig(step_size=1e-3, iterations=k, armijo=False)
        result = landscape.train_gd(spec, netbuild.random_bank(spec, seed=3), data, config)
        assert len(result.losses) == k + 1
        assert counts == {"netbuild.realize": 2 * k + 1, "landscape.loss": k + 1,
                          "landscape.tap_gradients": k}
