import sys

import numpy as np
import pytest

from framelets import analysis, frames, netbuild


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
    return spec, frames.frame_bank(spec, alpha=alpha, seed=seed, pooling=pooling)


@pytest.fixture
def rng():
    return np.random.default_rng(20240601)


@pytest.fixture(params=["batched", "live"])
def kernel_path(request, monkeypatch):
    """Runs a test on each path of the reverse pass (the census and
    ``region_maps``): the path-selection threshold is set so that every net
    takes the named path.  The forward recursion has one path."""
    monkeypatch.setattr(analysis, "_LIVE_FLOPS", 0 if request.param == "live" else np.inf)
    return request.param


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
    binding: the shape of the call's input."""
    calls = []
    original = netbuild.forward_matrices

    def counted(spec, mats, x):
        calls.append(np.shape(x))
        return original(spec, mats, x)

    patch_bindings(monkeypatch, original, counted)
    return calls


@pytest.fixture
def forward_y_calls(monkeypatch):
    """One list entry per netbuild.forward_y call, through any binding: the
    shape of the call's input."""
    calls = []
    original = netbuild.forward_y

    def counted(spec, mats, x):
        calls.append(np.shape(x))
        return original(spec, mats, x)

    patch_bindings(monkeypatch, original, counted)
    return calls
