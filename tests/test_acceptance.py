"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All checks run at desk scale (d_0 <= 64, kappa <= 3, T <= 8) against the
stated tolerances; nothing is deferred to calibration.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import json
import time

import numpy as np
import pytest

from framelets import analysis, cli, landscape, netbuild
from conftest import make_frame_pair, make_spec
import oracles


def verdict(num: int, ok: bool, title: str, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {status} - {title} ({detail})")
    assert ok, f"criterion {num}: {title}: {detail}"


def margin_safe_data(spec, mats, bank_seed, T=2, margin=1e-4, tries=25):
    for attempt in range(tries):
        gen = np.random.default_rng(900_000 + 1000 * bank_seed + attempt)
        data = landscape.TrainingSet(
            X=gen.standard_normal((spec.d[0], T)),
            Y=gen.standard_normal((spec.d[0], T)),
        )
        margins = [
            oracles.trace_margin(
                spec, netbuild.forward_matrices(spec, mats, data.X[:, i])
            )
            for i in range(T)
        ]
        if min(margins) >= margin:
            return data
    raise AssertionError(f"no margin-safe data found for bank seed {bank_seed}")


def test_criterion_1_perfect_reconstruction():
    """20 seeded frame banks per mode and depth, no ReLU, 100 inputs each."""
    start = time.perf_counter()
    worst = 0.0
    for skip in (False, True):
        for kappa in (1, 2, 3):
            for seed in range(20):
                spec, bank = make_frame_pair(
                    kappa=kappa, r=2, m=8, skip=skip, seed=seed,
                    nonlinearity="none",
                )
                mats = netbuild.realize(spec, bank)
                gen = np.random.default_rng(seed + 100 * kappa + (10000 if skip else 0))
                for _ in range(100):
                    x = gen.standard_normal(spec.d[0])
                    y = netbuild.forward_matrices(spec, mats, x).y
                    worst = max(worst, np.linalg.norm(y - x) / np.linalg.norm(x))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    verdict(1, ok, "perfect reconstruction",
            f"max rel err {worst:.3e} <= 1e-10, {elapsed:.1f}s < 10s")


def test_criterion_2_piecewise_linear_identity():
    """F(W, x) equals the masked frame product for 1000 pairs per mode."""
    start = time.perf_counter()
    worst = 0.0
    for skip in (False, True):
        spec = make_spec(kappa=2, r=2, m=6, skip=skip, nonlinearity="relu")
        for i in range(1000):
            bank = netbuild.random_bank(spec, seed=i)
            mats = netbuild.realize(spec, bank)
            x = np.random.default_rng(50_000 + i).standard_normal(spec.d[0])
            y = netbuild.forward_matrices(spec, mats, x).y
            rep = analysis.linear_rep(spec, mats, x)
            err = np.linalg.norm(rep.matrix() @ x - y) / max(np.linalg.norm(y), 1e-300)
            worst = max(worst, err)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 30.0
    verdict(2, ok, "piecewise-linear identity",
            f"max rel err {worst:.3e} <= 1e-10 over 2000 pairs, {elapsed:.1f}s < 30s")


def test_criterion_3_region_bound():
    """Census never exceeds the representation cap; tiny case is exact."""
    checks = []

    spec, bank = make_frame_pair(kappa=2, seed=3, nonlinearity="none")
    census = analysis.region_census(
        spec, netbuild.realize(spec, bank), analysis.CensusConfig(count=200, seed=0)
    )
    checks.append(("linear", census.distinct, census.nrep,
                   census.distinct == 1 and census.distinct <= census.nrep))

    for skip in (False, True):
        spec = make_spec(kappa=2, r=2, m=6, skip=skip, nonlinearity="relu")
        bank = netbuild.random_bank(spec, seed=21)
        census = analysis.region_census(
            spec, netbuild.realize(spec, bank),
            analysis.CensusConfig(count=600, seed=5),
        )
        checks.append((f"relu skip={skip}", census.distinct, census.nrep,
                       census.distinct <= census.nrep))

    tiny = netbuild.NetworkSpec(kappa=1, r=2, q=(1, 2), m=(2, 2),
                                nonlinearity="relu_encoder")
    bank = netbuild.random_bank(tiny, seed=3)
    mats = netbuild.realize(tiny, bank)
    exact = oracles.count_sign_regions(mats[0].E.T)
    census = analysis.region_census(tiny, mats,
                                    analysis.CensusConfig(count=4000, seed=1))
    # the printed depth-1 cap undercounts (see the pattern_bits field the
    # census also reports); the tiny case is gated on the exact enumeration
    tiny_ok = census.distinct == exact and census.distinct <= 2 ** census.pattern_bits
    checks.append(("tiny-exact", census.distinct, exact, tiny_ok))

    ok = all(c[-1] for c in checks)
    detail = "; ".join(f"{name}: {got} vs {bound}" for name, got, bound, _ in checks)
    verdict(3, ok, "region census bound + exact tiny count", detail)


def test_criterion_4_lipschitz():
    """Pairwise bound inside sampled regions; frame network has K == 1."""
    pairs = 0
    worst_gap = -np.inf
    configs = [
        (make_spec(kappa=2, r=2, m=4, q=[1, 2, 3], skip=True,
                   nonlinearity="relu"), 33, 800),
        (make_spec(kappa=2, r=2, m=2, q=[1, 2, 4], skip=True,
                   nonlinearity="relu"), 34, 800),
    ]
    for spec, bank_seed, count in configs:
        bank = netbuild.random_bank(spec, seed=bank_seed)
        mats = netbuild.realize(spec, bank)
        gen = np.random.default_rng(12)
        buckets = {}
        for _ in range(count):
            x = gen.standard_normal(spec.d[0])
            pattern = analysis.extract_pattern(spec, mats, x)
            buckets.setdefault(oracles.pattern_key(pattern), (pattern, []))[1].append(x)
        for pattern, xs in buckets.values():
            if len(xs) < 2:
                continue
            kp = analysis.spectral_norm(
                analysis.linear_rep(spec, mats, pattern=pattern).matrix()
            )
            for a in range(len(xs) - 1):
                y1 = netbuild.forward_matrices(spec, mats, xs[a]).y
                y2 = netbuild.forward_matrices(spec, mats, xs[a + 1]).y
                gap = np.linalg.norm(y1 - y2) - kp * np.linalg.norm(xs[a] - xs[a + 1])
                worst_gap = max(worst_gap, gap)
                pairs += 1

    fspec, fbank = make_frame_pair(kappa=2, skip=True, seed=2, nonlinearity="none")
    fcensus = analysis.region_census(
        fspec, netbuild.realize(fspec, fbank), analysis.CensusConfig(count=64, seed=0)
    )
    k_frame = analysis.lipschitz_global(fcensus)

    ok = pairs >= 100 and worst_gap <= 1e-8 and abs(k_frame - 1.0) <= 1e-10
    verdict(4, ok, "Lipschitz pair bound + frame K",
            f"{pairs} pairs, worst slack {worst_gap:.3e} <= 1e-8, "
            f"|K-1| = {abs(k_frame - 1.0):.3e} <= 1e-10")


def test_criterion_5_jacobian():
    """Analytic region map vs central differences on 200 safe instances."""
    worst = 0.0
    done = 0
    for bank_seed in range(20):
        spec = make_spec(kappa=2, r=2, m=6, skip=bank_seed % 2 == 0,
                         nonlinearity="relu")
        bank = netbuild.random_bank(spec, seed=bank_seed)
        mats = netbuild.realize(spec, bank)
        gen = np.random.default_rng(70_000 + bank_seed)
        found = 0
        while found < 10:
            x = gen.standard_normal(spec.d[0])
            try:
                J = analysis.jacobian_analytic(spec, mats, x, margin=1e-4)
            except analysis.KinkMarginError:
                continue
            Jfd = analysis.fd_jacobian(spec, mats, x, step=1e-6)
            denom = np.linalg.norm(Jfd)
            if denom == 0.0:
                # identically-zero region: the analytic map must vanish too
                rel = 0.0 if np.linalg.norm(J) == 0.0 else np.inf
            else:
                rel = np.linalg.norm(J - Jfd) / denom
            worst = max(worst, rel)
            found += 1
            done += 1
    ok = done == 200 and worst <= 1e-5
    verdict(5, ok, "analytic Jacobian vs finite differences",
            f"{done} instances, max rel Frobenius err {worst:.3e} <= 1e-5")


def test_criterion_6_gradient_sandwich():
    """Skip-gradient bounds and finite-difference agreement, 50 instances."""
    spec = make_spec(kappa=2, r=2, m=4, q=[1, 2, 3], skip=True,
                     nonlinearity="relu")
    assert all(s >= 2 for s in spec.s) and all(d >= spec.d[0] for d in spec.d)
    worst_fd = 0.0
    worst_slack = -np.inf
    for seed in range(50):
        bank = netbuild.random_bank(spec, seed=seed)
        mats = netbuild.realize(spec, bank)
        data = margin_safe_data(spec, mats, bank_seed=seed, T=2)
        p = landscape.training_pass(spec, mats, data)
        for l in (1, 2):
            cert = landscape.certify_bounds_skip(p, l)
            assert cert.applicable
            scale = max(cert.upper, 1e-30)
            worst_slack = max(
                worst_slack,
                (cert.lower - cert.grad_norm) / scale,
                (cert.grad_norm - cert.upper) / scale,
            )
            ga = p.grad("S_tilde", l)
            gf = oracles.fd_grad_skip(spec, mats, data, l)
            worst_fd = max(
                worst_fd,
                np.linalg.norm(ga - gf) / max(np.linalg.norm(gf), 1e-30),
            )
    ok = worst_slack <= 1e-8 and worst_fd <= 1e-5
    verdict(6, ok, "gradient sandwich + FD agreement",
            f"worst sandwich slack {worst_slack:.3e} <= 1e-8, "
            f"worst FD rel err {worst_fd:.3e} <= 1e-5")


def test_criterion_7_stationarity():
    """Positive gradients where the rank conditions hold; zero at zero loss."""
    applicable = 0
    min_grad = np.inf

    full = netbuild.NetworkSpec(kappa=1, r=2, q=(1, 3), m=(2, 2), skip=True,
                                nonlinearity="relu")
    for seed in (4, 7, 11, 21, 22, 26, 29, 34):
        bank = netbuild.random_bank(full, seed=seed)
        mats = netbuild.realize(full, bank)
        gen = np.random.default_rng(seed + 5000)
        data = landscape.TrainingSet(X=gen.standard_normal((full.d[0], 2)),
                                     Y=gen.standard_normal((full.d[0], 2)))
        report = landscape.check_stationarity(
            landscape.training_pass(full, mats, data), loss_floor=1e-6)
        assert report.ok, report.violations
        if report.applicable and report.loss > 1e-6:
            applicable += 1
            min_grad = min(min_grad, min(
                e["grad_norm"] for e in report.layers if e["conditions_hold"]
            ))

    enc_only = make_spec(kappa=2, r=2, m=4, q=[1, 2, 3], skip=True,
                         nonlinearity="relu_encoder")
    for seed in range(10):
        bank = netbuild.random_bank(enc_only, seed=seed)
        mats = netbuild.realize(enc_only, bank)
        gen = np.random.default_rng(seed + 7000)
        data = landscape.TrainingSet(X=gen.standard_normal((enc_only.d[0], 2)),
                                     Y=gen.standard_normal((enc_only.d[0], 2)))
        report = landscape.check_stationarity(
            landscape.training_pass(enc_only, mats, data), loss_floor=1e-6)
        assert report.ok
        if report.applicable and report.loss > 1e-6:
            applicable += 1
            min_grad = min(min_grad, min(
                e["grad_norm"] for e in report.layers if e["conditions_hold"]
            ))

    spec = make_spec(kappa=2, r=2, m=4, q=[1, 2, 3], skip=True)
    bank = netbuild.random_bank(spec, seed=1)
    mats = netbuild.realize(spec, bank)
    X = np.random.default_rng(2).standard_normal((spec.d[0], 2))
    Y = np.column_stack(
        [netbuild.forward_matrices(spec, mats, X[:, i]).y for i in range(2)]
    )
    p = landscape.training_pass(spec, mats, landscape.TrainingSet(X=X, Y=Y))
    zero_grads = [float(np.linalg.norm(p.grad("S_tilde", l))) for l in (1, 2)]

    ok = applicable >= 8 and min_grad > 1e-12 and all(g == 0.0 for g in zero_grads)
    verdict(7, ok, "stationarity iff zero loss",
            f"{applicable} applicable instances, min grad {min_grad:.3e} > 1e-12, "
            f"zero-loss grads {zero_grads}")


def test_criterion_8_cascade_identity():
    """Circulant composition and cascaded-filter identity, exact to 1e-12."""
    worst = 0.0
    gen = np.random.default_rng(3)
    for m in (4, 8, 16):
        for r in (1, 2, 4):
            v = gen.standard_normal(r)
            w = gen.standard_normal(r)
            left = oracles.identity_conv(m, v) @ oracles.identity_conv(m, w)
            right = oracles.identity_conv(
                m, oracles.circ_conv(np.pad(w, (0, m - r)), v)
            )
            worst = max(worst, np.max(np.abs(left - right)))

    for kappa in (1, 2, 3):
        for m in (8, 16):
            spec = make_spec(kappa=kappa, r=2, m=m, nonlinearity="none")
            bank = netbuild.random_bank(spec, seed=kappa * 10 + m)
            eye = tuple(np.eye(m) for _ in range(kappa))
            bank = netbuild.LayerBank(
                enc_filters=bank.enc_filters, dec_filters=bank.dec_filters,
                pool=eye, unpool=eye,
            )
            report = oracles.cascade_filter_check(spec, bank, tol=1e-12)
            worst = max(worst, report["max_deviation"])
    ok = worst <= 1e-12
    verdict(8, ok, "cascade identity", f"max deviation {worst:.3e} <= 1e-12")


def test_criterion_9_determinism(tmp_path):
    """Identical config and seed produce identical reports minus timings."""
    config = {
        "seed": 20240601,
        "network": {"kappa": 2, "r": 2, "q": [1, 2, 4], "m": [8, 8, 8],
                    "skip": True, "nonlinearity": "relu"},
        "bank": {"source": "random", "scale": 1.0},
        "analyses": ["identity", "regions", "lipschitz", "jacobian"],
        "sampler": {"count": 150, "distribution": "gaussian"},
        "jacobian": {"count": 5},
        "enforce": ["identity", "regions", "lipschitz", "jacobian"],
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    codes = []
    for sub in ("a", "b"):
        codes.append(cli.main(["run", str(cfg_path), "--out", str(tmp_path / sub)]))
    ra = json.loads((tmp_path / "a" / "report.json").read_text())
    rb = json.loads((tmp_path / "b" / "report.json").read_text())
    ra.pop("timings")
    rb.pop("timings")
    same = json.dumps(ra) == json.dumps(rb)
    same_csv = ((tmp_path / "a" / "regions.csv").read_text()
                == (tmp_path / "b" / "regions.csv").read_text())
    ok = codes == [0, 0] and same and same_csv
    verdict(9, ok, "deterministic reports",
            f"exit codes {codes}, report match {same}, csv match {same_csv}")
