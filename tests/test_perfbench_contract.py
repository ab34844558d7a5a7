"""perfbench's traced run wraps package attributes by name.

``perfbench/run.py --trace 1`` replaces each call site that
``perfbench.layers.make_tracer`` names (``DetectionCluster.reports``,
``DurableEngine.recover``, ...) with a timing wrapper and puts the
original back afterwards.  A renamed or deleted site breaks that run, so
this test builds the tracer, enters and exits it, and checks that every
site exists, was wrapped, and was restored.
"""

from perfbench.layers import make_tracer
from perfbench.spans import _lookup


def test_every_traced_call_site_is_wrapped_and_restored():
    tracer = make_tracer()
    sites = [(owner, attr) for owner, attr, *__ in tracer._targets]
    assert sites
    before = [_lookup(owner, attr) for owner, attr in sites]
    with tracer:
        during = [_lookup(owner, attr) for owner, attr in sites]
    after = [_lookup(owner, attr) for owner, attr in sites]
    for (owner, attr), old, wrapped, restored in zip(
        sites, before, during, after
    ):
        name = f"{getattr(owner, '__name__', owner)}.{attr}"
        assert wrapped is not old, f"{name} was not wrapped"
        assert restored is old, f"{name} was not restored"
