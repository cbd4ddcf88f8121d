import sys

import numpy as np
import pytest

from framelets import frames, netbuild


def make_spec(kappa=2, r=2, m=6, skip=False, nonlinearity="relu", q=None, m_list=None):
    """Small spec with channels growing r-fold per layer unless given."""
    if q is None:
        q = [1]
        for _ in range(kappa):
            q.append(q[-1] * r)
    if m_list is None:
        m_list = [m] * (kappa + 1)
    return netbuild.NetworkSpec(kappa=kappa, r=r, q=q, m=m_list, skip=skip,
                                nonlinearity=nonlinearity)


def make_frame_pair(kappa=2, r=2, m=8, skip=False, alpha=1.0, seed=0,
                    pooling="orthogonal", nonlinearity="none"):
    """(spec, bank) satisfying the frame conditions."""
    spec = make_spec(kappa=kappa, r=r, m=m, skip=skip, nonlinearity=nonlinearity)
    cfg = frames.FrameConfig.for_spec(spec, alpha=alpha, seed=seed, pooling=pooling)
    return spec, frames.frame_bank(spec, cfg)


@pytest.fixture
def rng():
    return np.random.default_rng(20240601)


def patch_bindings(monkeypatch, original, replacement) -> None:
    """Replace ``original`` at every framelets module binding of it: the
    package imports functions by name, so one function has several."""
    for name, module in list(sys.modules.items()):
        if module is not None and name.split(".")[0] == "framelets":
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


@pytest.fixture
def forward_calls(monkeypatch):
    """One list entry per netbuild.forward_matrices call, through any
    binding: (shape of the call's input, its exact_rows)."""
    calls = []
    original = netbuild.forward_matrices

    def counted(spec, mats, x, exact_rows=True):
        calls.append((np.shape(x), exact_rows))
        return original(spec, mats, x, exact_rows=exact_rows)

    patch_bindings(monkeypatch, original, counted)
    return calls
