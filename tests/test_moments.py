"""pcrlb.moments holds only what perfbench reads from it: GaussianBelief, and
the four moment-map names its tracer looks up, each raising."""

import dataclasses

import numpy as np
import pytest

import pcrlb
from pcrlb import GaussianBelief, SystemModel

MAP_NAMES = ("propagate_state_moments", "propagate_measurement_moments",
             "state_moment_map_derivatives", "measurement_moment_map_derivatives")


def test_belief_validation():
    GaussianBelief(np.zeros(1), np.zeros((1, 1)))  # PSD accepted
    with pytest.raises(ValueError):
        GaussianBelief(np.zeros(1), np.array([[-1.0]]))
    with pytest.raises(ValueError):
        GaussianBelief(np.zeros(2), np.eye(3))


def test_belief_is_importable_from_moments():
    """perfbench imports GaussianBelief from pcrlb.moments, model's class, and
    traces the four map names there, one function each; the maps and the model
    Hessians they read are gone from the package."""
    import pcrlb.model
    import pcrlb.moments
    public = {name for name in vars(pcrlb.moments) if not name.startswith("_")}
    assert public == {"GaussianBelief", *MAP_NAMES}
    assert pcrlb.moments.GaussianBelief is pcrlb.model.GaussianBelief
    stubs = [getattr(pcrlb.moments, name) for name in MAP_NAMES]
    assert len(set(map(id, stubs))) == len(MAP_NAMES)
    for name, stub in zip(MAP_NAMES, stubs):
        with pytest.raises(NotImplementedError, match=name):
            stub(pcrlb.ungm_model(), 1, pcrlb.ungm_model().prior)
        assert name not in pcrlb.__all__ and not hasattr(pcrlb, name)
    fields = [field.name for field in dataclasses.fields(SystemModel)]
    assert not [name for name in fields + dir(SystemModel) if "hessian" in name.lower()]
