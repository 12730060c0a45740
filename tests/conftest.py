import copy

import numpy as np
import pytest

from kggan import autodiff as ad


@pytest.fixture(autouse=True)
def clean_tape():
    ad.get_tape().clear()
    yield
    ad.get_tape().clear()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def float64_gan():
    """A function returning a copy of a ``gan.GanModel`` whose parameters,
    spectral ``u`` vectors and sigmas are its own widened to float64, for
    oracles that need double precision; the model is left as it is."""

    def widen(model):
        clone = copy.copy(model)
        for attr, value in vars(model).items():
            if isinstance(value, ad.Tensor):
                setattr(clone, attr, ad.Tensor(value.data.astype(np.float64), name=value.name))
        clone.spectral_u = {name: u.astype(np.float64) for name, u in model.spectral_u.items()}
        clone.sigma = dict(model.sigma)
        return clone

    return widen
