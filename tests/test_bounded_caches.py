"""Process-global caches are bounded (ROADMAP 5(c)).

A long-lived process (a server, a test session) meets new ring degrees,
moduli tuples, rotation exponents and parameter sets; a ``functools`` cache
with ``maxsize=None`` would keep every one of them.  Each cache in the
package names a finite bound that the measured workloads stay under.
"""

from __future__ import annotations

import importlib
import pkgutil

import repro


def _functools_caches():
    """``(qualified name, cache)`` for every functools cache in ``repro.*``."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            found = [(name, value)]
            if isinstance(value, type):  # cached methods
                found += [(f"{name}.{attr}", member)
                          for attr, member in vars(value).items()]
            for qualname, candidate in found:
                if callable(getattr(candidate, "cache_parameters", None)):
                    yield f"{info.name}.{qualname}", candidate


def test_every_functools_cache_has_a_finite_bound():
    caches = dict(_functools_caches())
    assert "repro.core.ntt.twiddle_tables" in caches  # the scan sees them
    unbounded = sorted(
        name for name, cache in caches.items()
        if cache.cache_parameters()["maxsize"] is None
    )
    assert not unbounded, unbounded
