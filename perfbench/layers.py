"""Per-layer self time from a cProfile of the timed phase.

A layer is a ``repro.<package>`` name (``repro/system.py`` and
``repro/errors.py`` form the ``system`` layer).  ``repro.workloads``,
``repro.verify`` and this benchmark's own files form the ``harness``
layer, so the cost of driving and checking the system is never counted
as the system's.

Code outside ``repro`` -- C builtins, the standard library, networkx --
has no layer of its own: its self time is charged to the ``repro`` layer
that called it.  cProfile records, for every caller -> callee edge, the
callee's self time (``tt``) and inclusive time (``ct``) spent on calls
along that edge.  A foreign function's self time is split over its
callers by edge ``tt``; a caller that is itself foreign passes its share
on to its own callers in proportion to their edge ``ct``.  The split is
exact when a foreign function is reached from one layer only, and a
proportional estimate when several layers share it.
"""

from __future__ import annotations

import os
from collections import defaultdict
from typing import Optional

HARNESS = "harness"

#: repro packages reported as the harness layer
HARNESS_PACKAGES = ("workloads", "verify")

#: repro top-level modules folded into the ``system`` layer
SYSTEM_MODULES = ("system", "errors", "__init__")

#: every layer reported, in output order
LAYERS = ("sort", "storage", "btree", "wal", "txn", "sim", "sidefile",
          "core", "query", "metrics", "faultinject", "obs", "system",
          HARNESS)


class LayerMap:
    """Maps a profiled code file to its layer (None: not repro code)."""

    def __init__(self, src_root: str, bench_root: str) -> None:
        self.package_root = os.path.join(os.path.realpath(src_root),
                                         "repro") + os.sep
        self.bench_root = os.path.realpath(bench_root) + os.sep
        self._cache: dict[str, Optional[str]] = {}

    def __call__(self, filename: str) -> Optional[str]:
        layer = self._cache.get(filename, "")
        if layer == "":
            layer = self._cache[filename] = self._classify(filename)
        return layer

    def _classify(self, filename: str) -> Optional[str]:
        if filename.startswith("~") or filename.startswith("<"):
            return None
        path = os.path.realpath(filename)
        if path.startswith(self.bench_root):
            return HARNESS
        if not path.startswith(self.package_root):
            return None
        parts = path[len(self.package_root):].split(os.sep)
        if len(parts) == 1:
            module = parts[0].rsplit(".", 1)[0]
            if module in SYSTEM_MODULES:
                return "system"
            raise ValueError(f"repro module {module!r} has no layer")
        package = parts[0]
        if package in HARNESS_PACKAGES:
            return HARNESS
        if package not in LAYERS:
            raise ValueError(f"repro package {package!r} is not a "
                             f"reported layer")
        return package


def attribute(stats: dict, layer_of: LayerMap) -> dict:
    """Per-layer ``self_s`` and ``calls_in`` from ``pstats``-style stats.

    ``stats`` maps ``(file, line, name)`` to ``(cc, nc, tt, ct,
    callers)`` with ``callers`` mapping each caller to ``(nc, cc, tt,
    ct)``, as ``cProfile.Profile().create_stats()`` leaves in
    ``.stats``.  ``calls_in`` counts calls into a layer from any other
    layer.  The self times sum to the profile's total.
    """
    own = {func: layer_of(func[0]) for func in stats}
    shares: dict = {}

    def share(func, active: set) -> Optional[dict]:
        """Fractions of ``func``'s inclusive time owed to each layer."""
        if own.get(func):
            return {own[func]: 1.0}
        if func in shares:
            return shares[func]
        if func in active or func not in stats:
            return None
        active.add(func)
        acc: dict = defaultdict(float)
        callers = stats[func][4]
        for caller, edge in callers.items():
            weight = edge[3] or edge[0] * 1e-9
            caller_share = share(caller, active)
            if caller_share is not None:
                for layer, fraction in caller_share.items():
                    acc[layer] += weight * fraction
        active.discard(func)
        total = sum(acc.values())
        # No resolvable caller: a top-level entry, called by the
        # benchmark that started the profile.
        result = {layer: value / total for layer, value in acc.items()} \
            if total > 0 else {HARNESS: 1.0}
        shares[func] = result
        return result

    self_s: dict = defaultdict(float)
    calls_in: dict = defaultdict(float)
    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        layer = own[func]
        if layer:
            self_s[layer] += tt
        else:
            # Split self time over callers by the edge's own self time.
            edge_total = sum(edge[2] for edge in callers.values())
            for caller, edge in callers.items():
                weight = edge[2] / edge_total if edge_total > 0 \
                    else 1.0 / len(callers)
                caller_share = share(caller, set()) or share(func, set())
                for owner, fraction in caller_share.items():
                    self_s[owner] += tt * weight * fraction
            if not callers:
                self_s[HARNESS] += tt
            continue
        for caller, edge in callers.items():
            caller_share = share(caller, set()) or {}
            calls_in[layer] += edge[0] * (1.0 - caller_share.get(layer, 0.0))
    return {"self_s": dict(self_s),
            "calls_in": {layer: round(count)
                         for layer, count in calls_in.items()}}
