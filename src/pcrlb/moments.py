"""The names the benchmark in ``perfbench/`` reads from this module, and nothing else.

``perfbench/run.py`` imports ``GaussianBelief`` from here, and
``perfbench/tracing.py`` looks up the four moment-map names below to trace
them.  The second-order Taylor maps they named are gone: the bound engines
take the expectation over the belief with the cubature rule (``pcrlb.fim``),
and nothing in the package called the maps.  The names stay, each raising
NotImplementedError, only until ROADMAP item 1 or 12 stops perfbench reading
them; then this module goes.
"""

from .model import GaussianBelief

__all__ = ["GaussianBelief"]


def _removed(name: str):
    """A function of this name that raises; one object per name, so that the
    tracer wraps each name on its own."""
    def removed(*args, **kwargs):
        raise NotImplementedError(f"pcrlb.moments.{name} was removed: the bound "
                                  "engines take the belief expectation by cubature")
    removed.__name__ = removed.__qualname__ = name
    return removed


propagate_state_moments = _removed("propagate_state_moments")
propagate_measurement_moments = _removed("propagate_measurement_moments")
state_moment_map_derivatives = _removed("state_moment_map_derivatives")
measurement_moment_map_derivatives = _removed("measurement_moment_map_derivatives")
