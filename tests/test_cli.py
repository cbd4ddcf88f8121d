"""CLI contract: config runs, exit codes, determinism, side files."""

import csv
import json

import numpy as np
import pytest

from framelets import analysis, cli, netbuild
from conftest import make_spec


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

    def test_enforce_must_be_a_list(self, tmp_path, capsys):
        cfg = base_config(enforce="regions")
        assert cli.main(["run", write_config(tmp_path, cfg)]) == 1
        assert "'enforce' must be a list" in capsys.readouterr().err

    def test_unknown_tolerance(self, tmp_path, capsys):
        cfg = base_config(tolerances={"bogus": 1.0})
        assert cli.main(["run", write_config(tmp_path, cfg)]) == 1
        assert "tolerance" in capsys.readouterr().err


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
