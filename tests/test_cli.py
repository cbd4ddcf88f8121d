"""CLI contract: config runs, exit codes, determinism, side files."""

import csv
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from framelets import analysis, cli, netbuild
from framelets.seeding import derive, rng as seeded_rng
from conftest import make_spec

TOLERANCES = cli.validate("tolerances", {})
SRC = Path(__file__).resolve().parents[1] / "src"


def base_config(**overrides):
    cfg = {
        "seed": 424242,
        "network": {"kappa": 2, "r": 2, "q": [1, 2, 4], "m": [8, 8, 8],
                    "skip": True, "nonlinearity": "none"},
        "bank": {"source": "frame_factory", "alpha": 1.0,
                 "pooling": "orthogonal"},
        "analyses": ["frames", "reconstruct", "regions", "lipschitz"],
        "sampler": {"count": 120, "distribution": "gaussian"},
        "reconstruct": {"count": 50, "no_relu": True},
        "enforce": ["frames", "reconstruct", "regions", "lipschitz"],
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=1))
    return str(path)


def write_spec(tmp_path, spec, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(spec.to_dict()))
    return str(path)


class TestRun:
    def test_frame_config_passes(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        code = cli.main(["run", cfg_path, "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "PASS frames:frame_residuals" in printed
        assert "PASS reconstruct:perfect_reconstruction" in printed
        report = json.loads((out / "report.json").read_text())
        assert report["failures"] == []
        assert report["results"]["reconstruct"]["max_relative_error"] <= 1e-10
        # linear network: the census collapses to a single region
        assert report["results"]["regions"]["distinct"] == 1
        assert (out / "regions.csv").exists()
        assert (out / "region_lipschitz.csv").exists()
        assert (out / "census.json").exists()

    def test_deterministic_reports(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        for sub in ("a", "b"):
            assert cli.main(["run", cfg_path, "--out", str(tmp_path / sub)]) == 0
        ra = json.loads((tmp_path / "a" / "report.json").read_text())
        rb = json.loads((tmp_path / "b" / "report.json").read_text())
        ta = ra.pop("timings")
        tb = rb.pop("timings")
        assert json.dumps(ra) == json.dumps(rb)
        assert set(ta) == set(tb)
        assert (tmp_path / "a" / "regions.csv").read_text() \
            == (tmp_path / "b" / "regions.csv").read_text()

    def test_enforced_failure_exits_two(self, tmp_path, capsys):
        cfg = base_config(bank={"source": "random", "scale": 1.0},
                          analyses=["frames"], enforce=["frames"])
        code = cli.main(["run", write_config(tmp_path, cfg),
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert "FAIL frames:frame_residuals" in capsys.readouterr().out
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["failures"] == ["frames:frame_residuals"]

    def test_unenforced_failure_exits_zero(self, tmp_path):
        cfg = base_config(bank={"source": "random", "scale": 1.0},
                          analyses=["frames"], enforce=[])
        code = cli.main(["run", write_config(tmp_path, cfg),
                         "--out", str(tmp_path / "out")])
        assert code == 0

    def test_identity_enforced_on_relu_net(self, tmp_path):
        cfg = base_config(
            network={"kappa": 2, "r": 2, "q": [1, 2, 4], "m": [6, 6, 6],
                     "skip": True, "nonlinearity": "relu"},
            bank={"source": "random", "scale": 1.0},
            analyses=["identity"],
            enforce=["identity"],
        )
        cfg.pop("reconstruct")
        out = tmp_path / "out"
        assert cli.main(["run", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["results"]["identity"]["max_relative_error"] <= 1e-10

    def test_outdir_env_var(self, tmp_path, monkeypatch):
        cfg = base_config(analyses=["frames"], enforce=["frames"])
        cfg_path = write_config(tmp_path, cfg)
        target = tmp_path / "envout"
        monkeypatch.setenv(cli.OUTDIR_ENV, str(target))
        assert cli.main(["run", cfg_path]) == 0
        assert (target / "report.json").exists()

    def test_config_output_dir_field(self, tmp_path):
        cfg = base_config(analyses=["frames"], enforce=["frames"],
                          output_dir=str(tmp_path / "cfgout"))
        assert cli.main(["run", write_config(tmp_path, cfg)]) == 0
        assert (tmp_path / "cfgout" / "report.json").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_fails_enforced_checks(self, tmp_path, capsys):
        # huge taps overflow the forward pass to inf/NaN; the NaN errors
        # used to be dropped by max() and both checks passed at 0.0
        cfg = base_config(bank={"source": "random", "scale": 1e200},
                          analyses=["identity", "reconstruct"],
                          enforce=["identity", "reconstruct"])
        out = tmp_path / "out"
        assert cli.main(["run", write_config(tmp_path, cfg), "--out", str(out)]) == 2
        printed = capsys.readouterr().out
        assert "FAIL identity:linear_representation" in printed
        assert "FAIL reconstruct:perfect_reconstruction" in printed
        report = json.loads((out / "report.json").read_text())
        for name in ("identity", "reconstruct"):
            assert not np.isfinite(report["results"][name]["max_relative_error"])

    def test_bank_file_source(self, tmp_path):
        spec = make_spec(kappa=1, r=2, m=6, nonlinearity="relu")
        bank = netbuild.random_bank(spec, seed=5)
        bank_path = tmp_path / "bank.json"
        netbuild.save_bank(spec, bank, bank_path)
        cfg = base_config(
            network=spec.to_dict(),
            bank={"source": "file", "path": str(bank_path)},
            analyses=["identity"],
            enforce=["identity"],
        )
        assert cli.main(["run", write_config(tmp_path, cfg),
                         "--out", str(tmp_path / "out")]) == 0


README_NETWORK = {"kappa": 2, "r": 2, "q": [1, 2, 4], "m": [8, 8, 8],
                  "skip": True, "nonlinearity": "relu"}
#: the envelope edge, d_0 = 64: the network of the benchmark's verify-d64
EDGE_NETWORK = {"kappa": 2, "r": 2, "q": [1, 2, 4], "m": [64, 64, 64],
                "skip": True, "nonlinearity": "relu"}


class TestOverflow:
    """A 1e200 random bank overflows the forward pass to inf/NaN."""

    def config(self, name):
        return base_config(network=README_NETWORK,
                           bank={"source": "random", "scale": 1e200},
                           analyses=[name], enforce=[name], sampler={"count": 20})

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("name, matrix", [
        ("regions", "region map"),
        ("lipschitz", "region map"),
        ("landscape", "skip feature matrix"),
    ])
    def test_overflow_is_named(self, tmp_path, capsys, name, matrix):
        # each used to exit with "SVD did not converge"
        assert cli.main(["run", write_config(tmp_path, self.config(name)),
                         "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"{matrix} contains non-finite entries" in err
        assert "overflowed" in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_jacobian_fails_with_nan_not_config_error(self, tmp_path, capsys):
        # NaN margins pass the kink screen, so the check fails on a NaN error
        # instead of running out of margin-safe draws
        cfg = self.config("jacobian")
        cfg["jacobian"] = {"count": 3}
        out = tmp_path / "out"
        assert cli.main(["run", write_config(tmp_path, cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "FAIL jacobian:jacobian_fd_match" in captured.out
        assert "config error" not in captured.err
        block = json.loads((out / "report.json").read_text())["results"]["jacobian"]
        assert np.isnan(block["max_relative_error"])
        assert block["attempts"] == 3

    def item_config(self, analyses):
        return {"seed": 1, "network": ITEM_NETWORK,
                "bank": {"source": "random", "scale": 1e200},
                "analyses": analyses, "enforce": analyses}

    def test_nan_loss_fails_stationarity(self, tmp_path, capsys):
        # the NaN loss made no violation, so the check used to pass
        out = tmp_path / "out"
        path = write_config(tmp_path, self.item_config(["landscape"]))
        assert cli.main(["run", path, "--out", str(out)]) == 2
        assert "FAIL landscape:stationarity_iff_zero_loss" in capsys.readouterr().out
        block = json.loads((out / "report.json").read_text())["results"]["landscape"]
        assert np.isnan(block["loss"]) and block["stationarity"]["ok"] is False

    def test_no_numpy_warnings(self, tmp_path):
        # each analysis printed numpy's RuntimeWarnings, with their source
        # lines, before its FAIL or named error.  "-W always" shows every one
        paths = [write_config(tmp_path, self.item_config(analyses), f"{analyses[0]}.json")
                 for analyses in (["frames", "reconstruct", "identity", "jacobian", "landscape"],
                                  ["regions"], ["lipschitz"], ["train"])]
        script = ("import sys; from framelets import cli; "
                  "print([cli.main(['run', p, '--out', p + '.out']) for p in sys.argv[1:]])")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-W", "always", "-c", script, *paths],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.stdout.splitlines()[-1] == "[2, 1, 1, 1]", proc.stdout + proc.stderr
        assert "RuntimeWarning" not in proc.stderr, proc.stderr


class TestJacobianScreen:
    """The block-wise kink screen against the one-draw-at-a-time loop."""

    @staticmethod
    def sequential(spec, mats, seed, count, margin, step):
        gen = seeded_rng(seed, "jacobian")
        errors, inputs, attempts = [], [], 0
        while len(errors) < count and attempts < 100 * count:
            attempts += 1
            x = gen.standard_normal(spec.d[0])
            try:
                J = analysis.jacobian_analytic(spec, mats, x, margin=margin, step=step)
            except analysis.KinkMarginError:
                continue
            Jfd = analysis.fd_jacobian(spec, mats, x, step=step)
            errors.append(np.linalg.norm(J - Jfd) / max(np.linalg.norm(Jfd), 1e-300))
            inputs.append(x)
        return errors, inputs, attempts

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("scale, margin, count, step", [
        (1.0, 0.0, 7, 1e-6),      # every draw accepted
        (1.0, 4e-3, 12, 1e-6),    # about 80 % accepted
        (1.0, 0.05, 10, 1e-6),    # about 10 % accepted, several screen blocks
        (1.0, 0.2, 4, 1e-6),      # about 0.08 % accepted: the draw cap (a short last block) is hit
        (1.0, 0.0, 12, 0.01),     # the step binds: about 60 % accepted
        (1e200, 1e-4, 3, 1e-6),   # overflow: NaN radii are accepted
    ])
    def test_same_errors_as_sequential_loop(self, monkeypatch, scale, margin, count, step):
        spec = make_spec(kappa=2, m=5, skip=True)
        bank = netbuild.random_bank(spec, seed=10, scale=scale)
        mats = netbuild.realize(spec, bank)
        want, inputs, attempts = self.sequential(spec, mats, 99, count, margin, step)
        seen, used = [], []
        worst, fd_jacobian = cli._worst, analysis.fd_jacobian
        monkeypatch.setattr(cli, "_worst", lambda values: seen.append(values) or worst(values))
        monkeypatch.setattr(analysis, "fd_jacobian", lambda spec, mats, x, step:
                            used.append(x) or fd_jacobian(spec, mats, x, step))
        ctx = cli.Context(spec, bank, TOLERANCES, seed=99)
        params = cli.validate("jacobian", {"count": count, "margin": margin, "step": step})
        if len(want) < count:
            with pytest.raises(cli.ConfigError) as err:
                cli.run_jacobian(ctx, params)
            assert str(err.value) == (
                f"could not find {count} inputs whose certified in-region radius is at "
                f"least jacobian.margin ({margin:g}) and above jacobian.step ({step:g}): "
                f"accepted {len(want)} of {attempts} draws; "
                "lower jacobian.margin or jacobian.step")
        else:
            block = cli.run_jacobian(ctx, params)
            assert block["attempts"] == attempts
            assert len(seen) == 1
            np.testing.assert_array_equal(seen[0], want)
            radii = [self.radius(spec, mats, x) for x in inputs]
            np.testing.assert_array_equal([block["radius_min"], block["radius_median"]],
                                          [np.min(radii), np.median(radii)])
        np.testing.assert_array_equal(used, inputs)

    @staticmethod
    def radius(spec, mats, x) -> float:
        bits = analysis.extract_pattern(spec, mats, x).bits()[None]
        return next(analysis._map_blocks(spec, mats, [(bits, x[None])]))[2][0]

    def test_radius_rule_keeps_most_draws_on_the_edge_net(self):
        # on the edge net with its frame bank the old pre-activation screen
        # took 33-62 draws per instance at verify-d64 seeds 1-3: almost every
        # draw has exact-zero units, each on a zero row, which is no kink
        count = 10
        cfg = base_config(network=EDGE_NETWORK, analyses=["jacobian"], enforce=["jacobian"],
                          jacobian={"count": count})
        report, failures = cli.execute(cfg, None)
        block = report["results"]["jacobian"]
        assert failures == [] and count <= block["attempts"] <= 2 * count
        assert block["margin"] <= block["radius_min"] <= block["radius_median"]

    def test_no_region_maps_call_gets_zero_rows(self, monkeypatch):
        # every candidate is mapped in one kernel call, one row per block in
        # draw order, up to the count-th accepted draw: the kernel gets no
        # empty block.  At margin 0.05 about 10 % of draws pass, so many
        # screen blocks pass none; at margin 100 none does, and the kernel
        # maps every draw up to the cap.  Each block carries its input, so
        # the kernel certifies the draw's radius (len(None) would raise)
        spec = make_spec(kappa=2, m=5, skip=True)
        bank = netbuild.random_bank(spec, seed=10)
        entered, rows = [], []
        kernel = analysis._map_blocks

        def counted(spec, mats, blocks):
            entered.append(True)
            yield from kernel(spec, mats, (rows.append(len(x)) or (bits, x) for bits, x in blocks))

        monkeypatch.setattr(analysis, "_map_blocks", counted)
        ctx = cli.Context(spec, bank, TOLERANCES, seed=99)
        count = 10
        block = cli.run_jacobian(ctx, cli.validate("jacobian", {"count": count, "margin": 0.05}))
        assert block["attempts"] > count and entered == [True]
        assert rows == [1] * block["attempts"]
        entered.clear()
        rows.clear()
        with pytest.raises(cli.ConfigError, match="accepted 0 of 200 draws"):
            cli.run_jacobian(ctx, cli.validate("jacobian", {"count": 2, "margin": 100.0}))
        assert entered == [True] and rows == [1] * 200

    @pytest.mark.parametrize("margin", [float("nan"), -1.0, float("inf")])
    def test_margin_must_be_finite_and_non_negative(self, tmp_path, capsys, margin):
        # NaN or negative switched the kink guard off and the check passed
        cfg = base_config(network=README_NETWORK, bank={"source": "random"},
                          analyses=["jacobian"], enforce=["jacobian"],
                          jacobian={"count": 2, "margin": margin})
        assert cli.main(["run", write_config(tmp_path, cfg),
                         "--out", str(tmp_path / "out")]) == 1
        assert "'jacobian.margin'" in capsys.readouterr().err


class TestBlasThreads:
    def test_report_bytes_do_not_follow_blas_threads(self, tmp_path):
        # a BLAS dot splits a long sum across threads; every reported
        # reduction sums in a fixed order instead
        cfg = base_config(network=EDGE_NETWORK, analyses=["jacobian", "landscape"],
                          enforce=[], jacobian={"count": 10}, landscape={"samples": 4})
        path = write_config(tmp_path, cfg)
        bodies = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
            out = tmp_path / f"out{threads}"
            proc = subprocess.run([sys.executable, "-m", "framelets.cli", "run", path,
                                   "--out", str(out)],
                                  env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stdout + proc.stderr
            text = (out / "report.json").read_text()
            bodies.append(text[:text.index('"timings"')])
        assert "grad_norm" in bodies[0] and bodies[0] == bodies[1]


class TestSharedCensus:
    def config(self, analyses):
        return base_config(
            network={"kappa": 1, "r": 2, "q": [1, 2], "m": [4, 4],
                     "skip": True, "nonlinearity": "relu"},
            bank={"source": "random", "scale": 1.0},
            analyses=analyses, enforce=analyses,
            sampler={"count": 200, "distribution": "gaussian"},
        )

    def test_one_census_serves_regions_and_lipschitz(self, tmp_path, monkeypatch):
        calls = []
        census = analysis.region_census

        def counted(*args, **kwargs):
            calls.append(1)
            return census(*args, **kwargs)

        monkeypatch.setattr(analysis, "region_census", counted)
        both, failures = cli.execute(self.config(["regions", "lipschitz"]),
                                     str(tmp_path))
        assert failures == [] and len(calls) == 1
        alone, _ = cli.execute(self.config(["lipschitz"]), None)
        assert both["results"]["lipschitz"]["pairs_checked"] > 0
        assert both["results"]["lipschitz"] == alone["results"]["lipschitz"]
        regions = both["results"]["regions"]
        assert 0 <= regions["singletons"] <= regions["distinct"]
        saved = json.loads((tmp_path / "census.json").read_text())
        assert saved["singletons"] == regions["singletons"]

    def test_report_and_census_file_carry_unseen_mass(self, tmp_path):
        report, _ = cli.execute(self.config(["regions"]), str(tmp_path))
        regions = report["results"]["regions"]
        assert regions["unseen_mass"] == regions["singletons"] / regions["samples"]
        saved = json.loads((tmp_path / "census.json").read_text())
        assert saved["unseen_mass"] == regions["unseen_mass"]

    def test_census_file_names_first_samples(self, tmp_path):
        cfg = self.config(["regions"])
        report, _ = cli.execute(cfg, str(tmp_path))
        assert set(report["results"]["regions"]["regions"][0]) == {"pattern", "count",
                                                                   "lipschitz"}
        saved = json.loads((tmp_path / "census.json").read_text())
        spec = netbuild.NetworkSpec.from_dict(cfg["network"])
        mats = netbuild.realize(spec, cli._build_bank(cfg, spec, cfg["seed"])[0])
        census_cfg = analysis.CensusConfig(count=cfg["sampler"]["count"],
                                           distribution=cfg["sampler"]["distribution"],
                                           seed=derive(cfg["seed"], "census"))
        xs = analysis.census_inputs(spec, census_cfg)
        census = analysis.region_census(spec, mats, census_cfg)
        for entry, reg in zip(saved["regions"], census.regions, strict=True):
            assert "first_sample" in entry and "representative" not in entry
            x = xs[entry["first_sample"]]
            assert np.array_equal(x, reg.inputs[0])
            key = oracles.pattern_key(analysis.extract_pattern(spec, mats, x))
            assert key.hex() == entry["pattern"]


class TestForwardCounts:
    def test_identity_runs_one_forward_per_sample(self, forward_calls):
        spec = netbuild.NetworkSpec.from_dict(README_NETWORK)
        bank = netbuild.random_bank(spec, seed=1)
        block = cli.run_identity(cli.Context(spec, bank, TOLERANCES, seed=5),
                                 cli.validate("identity", {"count": 7}))
        assert block["samples"] == 7 and len(forward_calls) == 7

    @pytest.mark.parametrize("network, count, saturated", [
        (README_NETWORK, 30, True),
        ({"kappa": 1, "r": 2, "q": [1, 2], "m": [4, 4], "skip": True,
          "nonlinearity": "relu"}, 200, False),
    ])
    def test_lipschitz_forwards_only_regions_with_pairs(self, forward_calls, network,
                                                        count, saturated):
        spec = netbuild.NetworkSpec.from_dict(network)
        ctx = cli.Context(spec, netbuild.random_bank(spec, seed=1), TOLERANCES,
                          census_config=analysis.CensusConfig(count=count, seed=7))
        census = ctx.census
        assert (census.singletons == census.distinct) == saturated
        forward_calls.clear()
        block = cli.run_lipschitz(ctx, {})
        used = [min(reg.count, 4) for reg in census.regions if reg.count >= 2]
        # one stacked forward over the used inputs, none on a saturated census
        assert forward_calls == ([(sum(used), spec.d[0])] if used else [])
        assert block["pairs_checked"] == sum(k * (k - 1) // 2 for k in used)
        assert (block["pairs_checked"] == 0) == saturated

    def test_only_the_fd_stencils_skip_row_exact_sums(self, forward_calls, forward_y_calls,
                                                      monkeypatch, tmp_path):
        # every other forward reads a mask or a pinned float, so it must be a
        # row-exact forward_matrices; the stencil reads only y and is the one
        # caller of the GEMM forward_y
        fd_jacobian = analysis.fd_jacobian
        monkeypatch.setattr(analysis, "fd_jacobian",
                            lambda *args, **kwargs: forward_y_calls.append("fd_jacobian")
                            or fd_jacobian(*args, **kwargs))
        cfg = base_config(network=README_NETWORK, bank={"source": "random"},
                          analyses=list(cli.ANALYSES), enforce=[],
                          sampler={"count": 40}, reconstruct={"count": 5},
                          identity={"count": 5}, jacobian={"count": 3},
                          train={"iterations": 3})
        report, _ = cli.execute(cfg, str(tmp_path))
        assert set(report["results"]) == set(cli.ANALYSES)
        d0 = README_NETWORK["m"][0] * README_NETWORK["q"][0]
        assert report["results"]["jacobian"]["instances"] == 3
        assert forward_y_calls == ["fd_jacobian", (2 * d0, d0)] * 3
        assert len(forward_calls) > 2 * 3  # the other analyses forwarded too


ITEM_NETWORK = {"kappa": 1, "r": 2, "q": [1, 2], "m": [4, 4], "skip": True,
                "nonlinearity": "relu"}


class TestLipschitzPairs:
    def test_stacked_forward_matches_per_input_reference(self):
        spec = netbuild.NetworkSpec.from_dict(ITEM_NETWORK)
        ctx = cli.Context(spec, netbuild.random_bank(spec, seed=1), TOLERANCES,
                          census_config=analysis.CensusConfig(count=300, seed=7))
        mats, census = ctx.mats, ctx.census
        block = cli.run_lipschitz(ctx, {})
        violations = []
        for reg in census.regions:
            if reg.count < 2:
                continue
            points = [(x, netbuild.forward_matrices(spec, mats, x).y) for x in reg.inputs[:4]]
            for (x1, y1), (x2, y2) in itertools.combinations(points, 2):
                violations.append(np.linalg.norm(y1 - y2)
                                  - reg.lipschitz * np.linalg.norm(x1 - x2))
        assert block["pairs_checked"] == len(violations) > 0
        assert block["worst_pair_violation"] == max(violations)


CENSUS_FILES = ("census.json", "regions.csv", "region_lipschitz.csv")


def _hand_census(lipschitz: list) -> analysis.RegionCensus:
    regions = [analysis.RegionInfo(pattern_hex=f"08000000{i:02x}", lipschitz=value,
                                   inputs=[np.zeros(2)] * (i % 3 + 1), first_sample=2 * i)
               for i, value in enumerate(lipschitz)]
    return analysis.RegionCensus(samples=2 * len(regions) + 1, nrep=2 ** 320,
                                 pattern_bits=8, regions=regions)


class TestCensusFiles:
    """The streamed census side files equal json.dump / csv.writer output."""

    def assert_files_match_reference(self, tmp_path, ctx):
        ctx.outdir = str(tmp_path / "streamed")
        (tmp_path / "streamed").mkdir()
        (tmp_path / "reference").mkdir()
        cli.run_regions(ctx, {})
        oracles.write_census_files(ctx.census, str(tmp_path / "reference"))
        for name in CENSUS_FILES:
            assert ((tmp_path / "streamed" / name).read_bytes()
                    == (tmp_path / "reference" / name).read_bytes()), name

    @pytest.mark.parametrize("distribution", analysis.DISTRIBUTIONS)
    def test_repeated_regions(self, tmp_path, distribution):
        spec = netbuild.NetworkSpec.from_dict(ITEM_NETWORK)
        ctx = cli.Context(spec, netbuild.random_bank(spec, seed=1), TOLERANCES,
                          census_config=analysis.CensusConfig(
                              count=300, distribution=distribution, seed=7))
        assert ctx.census.singletons < ctx.census.distinct
        self.assert_files_match_reference(tmp_path, ctx)

    @pytest.mark.parametrize("lipschitz", [
        [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1e300, 1.5],
        [],
    ], ids=["special_floats", "empty"])
    def test_hand_built_census(self, tmp_path, lipschitz):
        ctx = cli.Context(None, None, TOLERANCES)
        ctx.census = _hand_census(lipschitz)
        self.assert_files_match_reference(tmp_path, ctx)
        if not lipschitz:
            assert '"regions": []' in (tmp_path / "streamed" / "census.json").read_text()


class TestReportFile:
    """The streamed report.json and regions stdout equal json.dump output."""

    def run(self, tmp_path, monkeypatch, census=None, **overrides):
        if census is not None:
            monkeypatch.setattr(cli.analysis, "region_census", lambda *args: census)
        cfg = base_config(**{"network": README_NETWORK, "bank": {"source": "random"},
                             "analyses": ["regions"], "enforce": [], **overrides})
        (tmp_path / "streamed").mkdir()
        (tmp_path / "reference").mkdir()
        report, _ = cli.execute(cfg, str(tmp_path / "streamed"))
        before = json.dumps(report, default=cli._json_default)
        cli.write_report(report, str(tmp_path / "streamed"))
        assert json.dumps(report, default=cli._json_default) == before  # left as it was
        oracles.write_report(report, str(tmp_path / "reference"))
        streamed = (tmp_path / "streamed" / "report.json").read_bytes()
        assert streamed == (tmp_path / "reference" / "report.json").read_bytes()
        return streamed.decode()

    def test_two_thousand_regions(self, tmp_path, monkeypatch):
        census = _hand_census([0.5 + i / 7 for i in range(2000)])
        assert self.run(tmp_path, monkeypatch, census).count('"pattern"') == 2000

    def test_special_constants(self, tmp_path, monkeypatch):
        census = _hand_census([float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1e300])
        assert "-Infinity" in self.run(tmp_path, monkeypatch, census)

    def test_empty_region_list(self, tmp_path, monkeypatch):
        assert '"regions": []' in self.run(tmp_path, monkeypatch, _hand_census([]))

    def test_run_without_regions(self, tmp_path, monkeypatch):
        self.run(tmp_path, monkeypatch, analyses=["frames", "lipschitz"])

    def test_six_analyses(self, tmp_path, monkeypatch):
        self.run(tmp_path, monkeypatch, bank={"source": "frame_factory"},
                 analyses=["frames", "reconstruct", "identity", "regions", "jacobian", "landscape"],
                 sampler={"count": 300}, reconstruct={"count": 20, "no_relu": True},
                 identity={"count": 20}, jacobian={"count": 5}, landscape={"samples": 4})

    @pytest.mark.parametrize("text", ["<regions 0>", '"regions": "<regions 0>"'])
    def test_marker_text_in_the_config(self, tmp_path, monkeypatch, text):
        # a config string equal to the marker dumps as the marker does
        assert json.dumps(text) in self.run(tmp_path, monkeypatch, output_dir=text)

    @pytest.mark.parametrize("lipschitz", [[float("nan"), -0.0, 1e300, 2.5], []],
                             ids=["special_floats", "empty"])
    def test_regions_stdout(self, tmp_path, monkeypatch, capsys, lipschitz):
        monkeypatch.setattr(cli.analysis, "region_census", lambda *args: _hand_census(lipschitz))
        reports = []
        execute = cli.execute

        def keep(*args):
            reports.append(execute(*args))
            return reports[-1]

        monkeypatch.setattr(cli, "execute", keep)
        spec_path = write_spec(tmp_path, make_spec(kappa=1, r=2, m=4))
        assert cli.main(["regions", "--spec", spec_path, "--bank", "random"]) == 0
        block = reports[0][0]["results"]["regions"]
        assert capsys.readouterr().out == json.dumps(block, indent=1,
                                                     default=cli._json_default) + "\n"


class TestLandscapeChecks:
    def test_checks_count_what_they_checked(self):
        cfg = base_config(network=README_NETWORK, bank={"source": "random"},
                          analyses=["landscape"], enforce=["landscape"],
                          landscape={"samples": 3})
        report, failures = cli.execute(cfg, None)
        block = report["results"]["landscape"]
        sandwich, stationarity = block["checks"]
        applicable = [c for c in block["certificates"] if c["applicable"]]
        assert sandwich["checked"] == len(applicable) > 0
        levels = block["stationarity"]["layers"]
        assert stationarity["checked"] == sum(e["conditions_hold"] for e in levels)
        assert failures == []


class TestRegionBound:
    @pytest.mark.xfail(strict=True, reason=(
        "census_within_bound compares distinct activation patterns, bottleneck and "
        "decoder bits included, with nrep_bound, which nets those bits out"))
    @pytest.mark.parametrize("nonlinearity", ["relu", "relu_encoder"])
    def test_census_within_bound_on_a_valid_net(self, tmp_path, nonlinearity):
        # today: relu finds 614 distinct patterns, relu_encoder 392, nrep 256
        cfg = {"seed": 7, "network": {**ITEM_NETWORK, "nonlinearity": nonlinearity},
               "bank": {"source": "random"}, "analyses": ["regions"],
               "sampler": {"count": 2000}, "enforce": ["regions"]}
        assert cli.main(["run", write_config(tmp_path, cfg),
                         "--out", str(tmp_path / "out")]) == 0


class TestConfigErrors:
    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"seed": 1,,}')
        assert cli.main(["run", str(path)]) == 1
        assert "line 1" in capsys.readouterr().err

    def test_unknown_analysis(self, tmp_path, capsys):
        cfg = base_config(analyses=["frobnicate"])
        assert cli.main(["run", write_config(tmp_path, cfg)]) == 1
        assert "unknown analysis" in capsys.readouterr().err

    def test_missing_seed_for_random_bank(self, tmp_path, capsys):
        cfg = base_config()
        del cfg["seed"]
        cfg["bank"] = {"source": "random"}
        assert cli.main(["run", write_config(tmp_path, cfg)]) == 1
        assert "seed" in capsys.readouterr().err

    def test_missing_bank_file(self, tmp_path, capsys):
        cfg = base_config(bank={"source": "file", "path": "nope.json"})
        assert cli.main(["run", write_config(tmp_path, cfg)]) == 1
        assert "does not exist" in capsys.readouterr().err

    def test_file_bank_without_path(self, tmp_path, capsys):
        want = "config error: missing required config field 'bank.path' for a file bank\n"
        cfg = base_config(bank={"source": "file"})
        assert cli.main(["run", write_config(tmp_path, cfg)]) == 1
        assert capsys.readouterr().err == want
        spec_path = write_spec(tmp_path, netbuild.NetworkSpec.from_dict(README_NETWORK))
        assert cli.main(["regions", "--spec", spec_path, "--bank", "file"]) == 1
        assert capsys.readouterr().err == want

    def test_unknown_flag_exits_one(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            cli.main(["reconstruct", "--frobnicate"])
        assert err.value.code == 1

    @pytest.mark.parametrize("analysis_name, key", [
        ("reconstruct", "count"), ("identity", "count"), ("jacobian", "count"),
        ("train", "iterations"),
    ])
    @pytest.mark.parametrize("value", [0, -3])
    def test_nonpositive_count_exits_one(self, tmp_path, capsys, analysis_name,
                                         key, value):
        # a check over zero samples or zero iterations would pass vacuously
        cfg = base_config(bank={"source": "random", "scale": 1.0},
                          analyses=[analysis_name], enforce=[analysis_name])
        cfg[analysis_name] = {key: value}
        assert cli.main(["run", write_config(tmp_path, cfg),
                         "--out", str(tmp_path / "out")]) == 1
        assert f"{analysis_name}.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [("q", "124"), ("m", [8, 8.5, 8]),
                                              ("q", [1, "2", 4])])
    def test_non_integer_dims_exit_one(self, tmp_path, capsys, field, value):
        cfg = base_config()
        cfg["network"][field] = value
        assert cli.main(["run", write_config(tmp_path, cfg)]) == 1
        assert "list of integers" in capsys.readouterr().err

    @pytest.mark.parametrize("path, value, analysis_name", [
        ("network.kappa", 2.7, "reconstruct"),
        ("network.r", 1.5, "reconstruct"),
        ("network.skip", "false", "reconstruct"),
        ("reconstruct.count", 2.7, "reconstruct"),
        ("sampler.count", 2.7, "regions"),
        ("sampler.count", 0, "regions"),
        ("landscape.samples", 2.7, "landscape"),
        ("landscape.samples", 0, "landscape"),
        ("train.samples", 2.7, "train"),
        ("train.samples", 0, "train"),
        ("sampler.distribution", "cauchy", "regions"),
        ("frames.mode", "weird", "frames"),
        ("frames.mode", 3, "frames"),
        ("bank.pooling", "xx", "frames"),
        ("bank.pooling", [], "frames"),
        ("train.stepsize", 0.1, "train"),
        ("sampler.seed", 3, "regions"),
        ("landscape.samples", 50, "landscape"),
        ("tolerence", {"reconstruct": 1e-30}, "reconstruct"),
        ("train.stepsize", 0.1, "reconstruct"),
        ("train.step_size", 0, "reconstruct"),
    ])
    def test_mistyped_or_non_integral_field_exits_one(self, tmp_path, capsys, path,
                                                       value, analysis_name):
        # each used to be truncated or coerced (2.7 -> 2, "false" -> True),
        # rejected with a message naming no field, or (an unknown key such
        # as train.stepsize, a misspelled top-level block, or any key of
        # the block of an analysis that is not run) ignored; at 50 training
        # samples no landscape certificate applies, and the sandwich check
        # passed over none
        cfg = base_config(analyses=[analysis_name], enforce=[])
        section, _, key = path.partition(".")
        if key:
            cfg.setdefault(section, {})[key] = value
        else:
            cfg[section] = value
        assert cli.main(["run", write_config(tmp_path, cfg),
                         "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert (f"{key} must be" if section == "network" else f"'{path}'") in err

    @pytest.mark.parametrize("step", [0, -1e-6, float("inf")])
    def test_jacobian_step_must_be_finite_and_positive(self, tmp_path, capsys, step):
        # a zero step made every finite-difference Jacobian NaN, and the
        # NaN errors passed the check
        cfg = base_config(analyses=["jacobian"], enforce=["jacobian"],
                          jacobian={"count": 2, "step": step})
        assert cli.main(["run", write_config(tmp_path, cfg),
                         "--out", str(tmp_path / "out")]) == 1
        assert "'jacobian.step'" in capsys.readouterr().err

    def test_non_finite_bank_file_exits_one(self, tmp_path, capsys):
        # a NaN in a pooling matrix used to give max_relative_error 0.0, PASS
        cfg = base_config(analyses=["reconstruct"], enforce=["reconstruct"])
        spec = netbuild.NetworkSpec.from_dict(cfg["network"])
        bank, _ = cli._build_bank(cfg, spec, cfg["seed"])
        blob = netbuild.bank_to_dict(spec, bank)
        blob["layers"][0]["pool"]["data"][2][1] = float("nan")
        bank_path = tmp_path / "bank.json"
        bank_path.write_text(json.dumps(blob))
        cfg["bank"] = {"source": "file", "path": str(bank_path)}
        assert cli.main(["run", write_config(tmp_path, cfg),
                         "--out", str(tmp_path / "out")]) == 1
        assert "layer 1 pool contains non-finite" in capsys.readouterr().err

    def test_enforce_must_be_a_list(self, tmp_path, capsys):
        cfg = base_config(enforce="regions")
        assert cli.main(["run", write_config(tmp_path, cfg)]) == 1
        assert "'enforce' must be a list" in capsys.readouterr().err

    @pytest.mark.parametrize("path, value, analysis_name", [
        ("bank.alpha", None, "frames"),
        ("bank.alpha", 0, "frames"),
        ("bank.scale", None, "reconstruct"),
        ("bank.scale", "2", "reconstruct"),
        ("frames.alpha", float("nan"), "frames"),
        ("train.step_size", None, "train"),
        ("train.step_size", 0, "train"),
        ("train.stop_loss", None, "train"),
        ("train.stop_loss", float("inf"), "train"),
        ("train.checkpoint_every", 2.7, "train"),
        ("train.checkpoint_every", None, "train"),
        ("train.checkpoint_every", -1, "train"),
        ("tolerances.identity", None, "reconstruct"),
        ("tolerances.reconstruct", "1e-10", "reconstruct"),
        ("tolerances.jacobian", True, "reconstruct"),
        ("seed", 1.5, "reconstruct"),
        ("reconstruct.no_relu", "false", "reconstruct"),
        ("reconstruct.no_relu", 1, "reconstruct"),
        ("sampler", [1000], "regions"),
        ("bank", "random", "reconstruct"),
        ("train", [], "train"),
        ("tolerances", 1e-10, "reconstruct"),
        ("enforce", ["frames", "regions"], "frames"),
        ("enforce", ["frames", "frames"], "frames"),
        ("analyses", ["regions", "regions"], "regions"),
        ("output_dir", 5, "frames"),
        ("output_dir", True, "frames"),
        ("output_dir", [], "frames"),
        ("output_dir", "", "frames"),
        ("output_dir", None, "frames"),
    ])
    def test_invalid_value_names_its_field(self, tmp_path, capsys, path, value,
                                           analysis_name):
        # each used to raise a TypeError or AttributeError traceback, to run
        # with a coerced value (seed 1.5 as 1, checkpoint_every 2.7 as 2), to
        # enforce a check that never ran, to run an analysis twice, or to
        # fall back to "." (output_dir [] and "")
        cfg = base_config(bank={"source": "random", "scale": 1.0},
                          analyses=[analysis_name], enforce=[])
        if "." in path:
            section, key = path.split(".")
            cfg.setdefault(section, {})[key] = value
        else:
            cfg[path] = value
        assert cli.main(["run", write_config(tmp_path, cfg),
                         "--out", str(tmp_path / "out")]) == 1
        assert f"'{path}'" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("scale, message", [
        (1e200, "layer 1 encoder tap gradient contains non-finite entries at iteration 1"),
    ])
    def test_diverging_training_exits_one(self, tmp_path, capsys, scale, message):
        # scale 1e200 blamed the bank ("layer 1 enc_filters contains
        # non-finite entries")
        cfg = base_config(network=README_NETWORK,
                          bank={"source": "random", "scale": scale},
                          analyses=["train"], enforce=[])
        assert cli.main(["run", write_config(tmp_path, cfg),
                         "--out", str(tmp_path / "out")]) == 1
        assert message in capsys.readouterr().err

    def test_large_falling_loss_trains(self, tmp_path):
        # the initial loss of a scale-100 bank is above divergence_loss
        # (1e12); Armijo steps lower it, which used to abort at iteration 1
        cfg = base_config(network=README_NETWORK,
                          bank={"source": "random", "scale": 100},
                          analyses=["train"], enforce=["train"])
        assert cli.main(["run", write_config(tmp_path, cfg),
                         "--out", str(tmp_path / "out")]) == 0
        train = json.loads((tmp_path / "out" / "report.json").read_text())["results"]["train"]
        assert train["initial_loss"] > 1e12
        assert train["final_loss"] < train["losses"][1] < train["initial_loss"]
        assert train["monotone"]

    def test_unknown_tolerance(self, tmp_path, capsys):
        cfg = base_config(tolerances={"bogus": 1.0})
        assert cli.main(["run", write_config(tmp_path, cfg)]) == 1
        assert "tolerance" in capsys.readouterr().err

    @pytest.mark.parametrize("out", ["taken", "taken/sub"])
    def test_output_directory_that_cannot_be_made_exits_one(self, tmp_path, capsys, out):
        # a file in the place of the directory, or of its parent, used to
        # raise FileExistsError / NotADirectoryError with a traceback
        (tmp_path / "taken").write_text("a file")
        cfg = base_config(analyses=["frames"], enforce=[])
        assert cli.main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / out)]) == 1
        err = capsys.readouterr().err
        assert f"output directory {str(tmp_path / out)!r}" in err and "Traceback" not in err

    @pytest.mark.parametrize("network, message", [
        ({"r": 2, "q": [1, 2], "m": [4, 4]}, "missing required config field 'network.kappa'"),
        ([1, 2], "config field 'network' must be a JSON object, got [1, 2]"),
        # a misspelled key used to be dropped, so this ran as relu and exited 2
        ({**ITEM_NETWORK, "nonlinearty": "none"},
         "config field 'network.nonlinearty' is not a known field"),
    ], ids=["missing_kappa", "list", "misspelled"])
    @pytest.mark.parametrize("via", ["run", "spec"])
    def test_bad_network_block_is_named(self, tmp_path, capsys, network, message, via):
        if via == "run":
            path = write_config(tmp_path, base_config(network=network, analyses=["frames"]))
            assert cli.main(["run", path, "--out", str(tmp_path / "out")]) == 1
        else:
            spec = tmp_path / "spec.json"
            spec.write_text(json.dumps(network))
            assert cli.main(["verify-frames", "--spec", str(spec)]) == 1
            message = f"spec file {spec}: {message}"
        assert capsys.readouterr().err == f"config error: {message}\n"


class TestSubcommands:
    def test_verify_frames(self, tmp_path, capsys):
        spec = make_spec(kappa=2, r=2, m=8, skip=True, nonlinearity="none")
        spec_path = write_spec(tmp_path, spec)
        code = cli.main(["verify-frames", "--spec", spec_path, "--alpha", "1",
                         "--mode", "skip", "--seed", "3", "--enforce"])
        assert code == 0
        block = json.loads(capsys.readouterr().out)
        assert len(block["residuals"]) == 2
        assert block["max_residual"] <= 1e-10
        assert "identity_term_residual" in block["residuals"][0]

    def test_reconstruct(self, tmp_path, capsys):
        spec = make_spec(kappa=2, r=2, m=8, nonlinearity="relu")
        spec_path = write_spec(tmp_path, spec)
        code = cli.main(["reconstruct", "--spec", spec_path, "--no-relu",
                         "--seed", "3", "--enforce"])
        assert code == 0
        block = json.loads(capsys.readouterr().out)
        assert block["max_relative_error"] <= 1e-10

    def test_regions(self, tmp_path, capsys):
        spec = make_spec(kappa=2, r=2, m=6, nonlinearity="relu")
        spec_path = write_spec(tmp_path, spec)
        code = cli.main(["regions", "--spec", spec_path, "--bank", "random",
                         "--samples", "300", "--seed", "7", "--enforce"])
        assert code == 0
        block = json.loads(capsys.readouterr().out)
        assert block["distinct"] <= block["nrep"]
        assert sum(r["count"] for r in block["regions"]) == 300

    def test_jacobian(self, tmp_path, capsys):
        spec = make_spec(kappa=1, r=2, m=6, nonlinearity="relu")
        spec_path = write_spec(tmp_path, spec)
        code = cli.main(["jacobian", "--spec", spec_path, "--bank", "random",
                         "--count", "5", "--seed", "2", "--enforce"])
        assert code == 0
        block = json.loads(capsys.readouterr().out)
        assert block["max_relative_error"] <= 1e-5

    def test_train_writes_loss_curve(self, tmp_path, capsys):
        spec = make_spec(kappa=1, r=2, m=4, q=[1, 2], nonlinearity="relu",
                         skip=True)
        spec_path = write_spec(tmp_path, spec)
        out = tmp_path / "out"
        code = cli.main(["train", "--spec", spec_path, "--bank", "random",
                         "--seed", "3", "--iterations", "20",
                         "--out", str(out)])
        assert code == 0
        with open(out / "loss_curve.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iteration", "loss", "grad_norm"]
        losses = [float(r[1]) for r in rows[1:]]
        assert all(a >= b for a, b in zip(losses, losses[1:]))

    def test_report_pretty_printer(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert cli.main(["run", cfg_path, "--out", str(out)]) == 0
        capsys.readouterr()
        assert cli.main(["report", str(out / "report.json")]) == 0
        text = capsys.readouterr().out
        assert "framelets report" in text
        assert "PASS frame_residuals" in text
        assert "enforced failures: none" in text

    @pytest.mark.parametrize("body, part", [
        ([1, 2], "the top level must be a JSON object, got [1, 2]"),
        ({"results": {"x": 5}}, "field 'results.x' must be a JSON object, got 5"),
        ({"results": {"x": {"checks": [{"passed": True}]}}},
         "field 'results.x.checks[0]' must be a JSON object with 'name' and 'passed'"),
        (base_config(), "field 'results' must be a JSON object, got None"),
    ], ids=["top-level-list", "results-entry-number", "check-without-name", "config"])
    def test_report_rejects_a_file_that_is_not_a_report(self, tmp_path, capsys, body, part):
        path = tmp_path / "other.json"
        path.write_text(json.dumps(body))
        assert cli.main(["report", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: {path} is not a framelets report: ")
        assert part in captured.err and captured.out == ""

    def test_identity_subcommand(self, tmp_path, capsys):
        spec_path = write_spec(tmp_path, netbuild.NetworkSpec.from_dict(README_NETWORK))
        code = cli.main(["identity", "--spec", spec_path, "--bank", "random",
                         "--samples", "20", "--seed", "7", "--enforce"])
        assert code == 0
        block = json.loads(capsys.readouterr().out)
        assert block["samples"] == 20 and block["max_relative_error"] <= 1e-10

    def test_every_flag_sets_its_config_field(self):
        parser = cli.build_parser()
        given = {"count": "3", "real": "0.5", "text": "x"}
        for name, entry in cli.REGISTRY.items():
            for block in ("bank", *entry.shared, name):
                for field in cli.SCHEMAS[block]:
                    if field.flag is None:
                        continue
                    value = field.choices[-1] if field.kind == "choice" else given.get(field.kind)
                    args = parser.parse_args([entry.command, "--spec", "s.json", field.flag]
                                             + ([] if value is None else [value]))
                    got = vars(args)[f"{block}.{field.key}"]
                    assert got == (True if value is None else type(got)(value))
                    assert cli.validate(block, {field.key: got})[field.key] == got

    def test_landscape_subcommand(self, tmp_path, capsys):
        spec = make_spec(kappa=2, r=2, m=4, q=[1, 2, 3], skip=True,
                         nonlinearity="relu")
        spec_path = write_spec(tmp_path, spec)
        code = cli.main(["landscape", "--spec", spec_path, "--bank", "random",
                         "--seed", "5", "--samples", "2", "--enforce"])
        assert code == 0
        block = json.loads(capsys.readouterr().out)
        kinds = [c["kind"] for c in block["certificates"]]
        assert kinds == ["skip", "skip", "encoder"]
        assert "stationarity" in block


def schema_row(block, field):
    """The README table row of a schema field."""
    if field.kind == "count" or (field.kind == "real" and field.low > -np.inf):
        bound = f"{'>' if field.strict else '>='} {field.low:g}"
    else:
        bound = {"real": "finite", "bool": "`true`, `false`", "text": "nonempty",
                 "choice": ", ".join(f"`{c}`" for c in field.choices)}[field.kind]
    default = "—" if field.default is None else f"`{json.dumps(field.default)}`"
    flag = "—" if field.flag is None else f"`{field.flag}`"
    return f"| `{block}.{field.key}` | {field.kind} | {bound} | {default} | {flag} |"


def test_readme_schema_table_matches_the_registry():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Config schema")[1].split("\n#")[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    assert rows == [schema_row(block, field)
                    for block, schema in cli.SCHEMAS.items() for field in schema]
