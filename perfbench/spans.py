"""Per-layer trace of the engine, installed from outside by attribute assignment.

``install()`` replaces the public entry points of ``geometry``, ``ksets``,
``minima``, ``refinement``, ``quadform`` and ``relations`` with wrappers that
record a span around each call.  No source file of the engine is edited.

A span's self time is its duration minus the time covered by the spans it
directly encloses.  Spans are not kept: each one adds its call and its self
time to its name's totals as it closes, which keeps memory flat on the
10k-pair run.  Counts are exact and repeat bit-for-bit between runs of the
same code; times are for attribution only.

The engine imports several names into other modules (``refinement`` imports
``kset``, ``min_n``, ``product3`` and ``Cone``; ``ksets`` imports
``min_complement``; ``relations`` imports ``theta_coeffs``), so each binding
site is patched as well as the defining one.  The defining attribute must
exist; a missing one raises, so a rename fails the traced run instead of
reporting a layer at 0 s.  A re-import site that no longer exists is
skipped: its calls then go through the defining module, or they go
unrecorded and the child's check that each layer the workload needs
recorded calls fails.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self) -> None:
        # One frame per open span: [name, time covered by its child spans].
        self.stack: list[list] = []
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()

    def parent(self) -> str | None:
        return self.stack[-1][0] if self.stack else None

    def wrap(self, name: str, fn, count=None):
        """``fn`` inside a span; ``count(args, kwargs, result)`` runs after it returns."""
        stack, clock = self.stack, time.perf_counter
        calls, self_s = self.calls, self.self_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                self_s[name] += duration - frame[1]
                calls[name] += 1
            if count is not None:
                count(args, kwargs, result)
            return result

        return wrapper


def install() -> Tracer:
    """Wrap every layer entry point and return the tracer that records them."""
    from theta_refine import geometry, ksets, minima, quadform, refinement, relations

    tracer = Tracer()
    counts = tracer.counts

    def patch(name: str, owner, attr: str, also=(), count=None) -> None:
        wrapper = tracer.wrap(name, getattr(owner, attr), count)
        setattr(owner, attr, wrapper)
        for site in also:
            if hasattr(site, attr):
                setattr(site, attr, wrapper)

    # geometry: construction and row normalisation
    cone_init = geometry.Cone.__init__

    def counted_init(self, dim, closed=(), strict=()):
        closed, strict = list(closed), list(strict)
        counts["geometry.cone_init.rows_in"] += len(closed) + len(strict)
        cone_init(self, dim, closed, strict)

    geometry.Cone.__init__ = tracer.wrap("geometry.cone_init", counted_init)
    patch("geometry.intersect", geometry.Cone, "intersect")
    patch("geometry.product3", geometry, "product3", also=(refinement,))
    patch("geometry.edges", geometry.Cone, "edges")

    # geometry: double description, looked up by Cone as a module global and
    # called as _extreme_rays(rows, dim) or _extreme_rays(rows, dim, seed_rays, seed_count)
    def count_dd(args, kwargs, result):
        rows, _dim, seed_rays, seed_count = (*args, None, 0)[:4]
        counts["geometry.dd.seeded_calls"] += seed_rays is not None
        counts["geometry.dd.rows_inserted"] += len(rows) - (seed_count if seed_rays is not None else 0)
        counts["geometry.dd.rays_out"] += len(result[0])

    patch("geometry.dd", geometry, "_extreme_rays", count=count_dd)

    # geometry: pair classification
    patch("geometry.is_member_empty", geometry.Cone, "is_member_empty")
    patch("geometry.is_subset_of", geometry.Cone, "is_subset_of")

    # ksets: a build is a kset_chain call made directly under kset
    def count_build(parent_name: str, key: str):
        def count(args, kwargs, result):
            if tracer.parent() == parent_name:
                counts[key] += 1

        return count

    patch("ksets.kset", ksets, "kset", also=(refinement,))
    patch("ksets.kset_chain", ksets, "kset_chain", count=count_build("ksets.kset", "ksets.kset.builds"))

    # minima
    patch("minima.min_n", minima, "min_n", also=(refinement,))
    patch("minima.min_complement", minima, "min_complement", also=(ksets,))
    patch(
        "minima.min_of_finite",
        minima,
        "min_of_finite",
        count=count_build("minima.min_complement", "minima.min_complement.builds"),
    )

    # refinement
    def count_run(args, kwargs, result):
        for rec in result.log:
            counts["refinement.pairs_total"] += rec.total
            counts["refinement.pairs_live"] += rec.non_empty
            counts["refinement.pairs_absorbed"] += rec.stop_absorbed
        counts["refinement.pairs_retained"] += sum(len(g) for g in result.generations)

    patch("refinement.run_algorithm", refinement, "run_algorithm", count=count_run)
    patch("refinement.refine_pair", refinement, "refine_pair")
    patch("refinement.aux_cones", refinement, "aux_cones")

    # quadform and relations
    patch("quadform.theta_coeffs", quadform, "theta_coeffs", also=(relations,))
    patch("relations.verify", relations, "verify_relation")
    patch("relations.verify", relations, "verify_sp_relation")
    return tracer


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, traced_wall: float) -> dict[str, float]:
    """The per-layer metrics of one traced workload, by their benchmark names."""
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts
    m: dict[str, float] = {}
    for layer in ("cone_init", "intersect", "product3", "edges", "dd", "is_member_empty", "is_subset_of"):
        m[f"geometry.{layer}.calls"] = calls[f"geometry.{layer}"]
        m[f"geometry.{layer}.self_s"] = self_s[f"geometry.{layer}"]
    m["geometry.cone_init.rows_in"] = counts["geometry.cone_init.rows_in"]
    for key in ("seeded_calls", "rows_inserted", "rays_out"):
        m[f"geometry.dd.{key}"] = counts[f"geometry.dd.{key}"]

    m["ksets.kset.calls"] = calls["ksets.kset"]
    m["ksets.kset.builds"] = counts["ksets.kset.builds"]
    m["ksets.kset.hit_rate"] = _ratio(calls["ksets.kset"] - counts["ksets.kset.builds"], calls["ksets.kset"])
    m["ksets.kset.self_s"] = self_s["ksets.kset"] + self_s["ksets.kset_chain"]

    m["minima.min_n.calls"] = calls["minima.min_n"]
    m["minima.min_complement.calls"] = calls["minima.min_complement"]
    m["minima.min_complement.builds"] = counts["minima.min_complement.builds"]
    m["minima.self_s"] = sum(self_s[f"minima.{f}"] for f in ("min_n", "min_complement", "min_of_finite"))

    total = counts["refinement.pairs_total"]
    for key in ("pairs_total", "pairs_live", "pairs_absorbed", "pairs_retained"):
        m[f"refinement.{key}"] = counts[f"refinement.{key}"]
    m["refinement.pairs_empty"] = total - counts["refinement.pairs_live"] - counts["refinement.pairs_absorbed"]
    m["refinement.live_ratio"] = _ratio(counts["refinement.pairs_live"], total)
    m["refinement.classify_per_pair"] = _ratio(calls["geometry.is_member_empty"], total)
    m["refinement.refine_pair.calls"] = calls["refinement.refine_pair"]
    m["refinement.aux_cones.calls"] = calls["refinement.aux_cones"]
    m["refinement.self_s"] = sum(
        self_s[f"refinement.{f}"] for f in ("run_algorithm", "refine_pair", "aux_cones")
    )

    m["quadform.theta_coeffs.calls"] = calls["quadform.theta_coeffs"]
    m["quadform.theta_coeffs.self_s"] = self_s["quadform.theta_coeffs"]
    m["relations.verify.self_s"] = self_s["relations.verify"]
    m["trace.coverage"] = _ratio(sum(self_s.values()), traced_wall)
    return m
