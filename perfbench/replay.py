"""Replay of Monte Carlo replications through the program's public calls.

``replay`` runs one replication the way ``harness._run_methods`` does, in
the same order and with the same seeds, but through the public functions of
each module so that a span can be recorded around every call. It keeps the
results, so the benchmark can check them against ``reference`` and add up
the decisions to compare with a rejection table.

The per-replication seeds are rebuilt from the documented scheme: the
SeedSequence of (master seed, sweep index, replication index) spawns the
data, pairing, crs_u, bootstrap and oracle streams in that order. Rejection
tables of the shipped configs are held bitwise fixed, so this scheme cannot
change without the tables changing too.
"""

from __future__ import annotations

import contextlib
import dataclasses
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

from fewclusters import comparators, engine, estimators
from fewclusters.dgp import LinearDesign, gen_linear, gen_probit
from fewclusters.model import Cluster, EstimateVector, TestConfig, validate_dataset

STREAMS = ("data", "pairing", "crs_u", "bootstrap", "oracle")

# Spans whose self time adds up to the work run_experiment does per
# replication. model.build is an extra measurement on copies of the arrays
# and is left out of that sum.
ON_PATH = (
    "dgp.gen",
    "estimators.fit",
    "engine.test",
    "comparators.im",
    "comparators.crs",
    "comparators.wildboot",
    "comparators.bch",
)

_NULL = contextlib.nullcontext()


class NullTracer:
    """Records nothing; used where end-to-end behaviour is being checked."""

    rep = None

    def span(self, name):
        return _NULL


class Tracer:
    """Spans kept in memory as (name, start_ns, end_ns, parent, rep) tuples."""

    def __init__(self):
        self.spans: list = []
        self._open: list[int] = []
        self.rep = None

    @contextlib.contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(None)
        self._open.append(index)
        start = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            self._open.pop()
            self.spans[index] = (name, start, end, parent, self.rep)

    def self_times(self, first: int = 0) -> dict[str, int]:
        """Self time per span name in ns, over the spans from index ``first`` on.

        A span's self time is its duration minus that of its direct children.
        ``first`` must not split a parent from its children.
        """
        spans = self.spans[first:]
        child_ns = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent is not None:
                child_ns[parent - first] += end - start
        totals: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _, _) in enumerate(spans):
            totals[name] += end - start - child_ns[i]
        return dict(totals)

    def to_json(self) -> list[dict]:
        return [
            {"name": n, "start_ns": s, "end_ns": e, "parent": p, "rep": r}
            for n, s, e, p, r in self.spans
        ]


@dataclasses.dataclass
class Replication:
    """What one replayed replication produced."""

    sweep_index: int
    rep: int
    dataset: object
    fits: list
    results: dict


def streams_for(master_seed: int, sweep_index: int, rep: int) -> dict:
    root = np.random.SeedSequence(master_seed, spawn_key=(sweep_index, rep))
    return dict(zip(STREAMS, root.spawn(len(STREAMS))))


def design_at(spec, sweep_index: int):
    """The spec's design at one point of its beta sweep."""
    return dataclasses.replace(spec.design, beta=float(spec.sweep_values[sweep_index]))


def replay(spec, sweep_index: int, rep: int, tracer) -> Replication:
    """Run one replication of a beta sweep, span by span."""
    if spec.sweep_param != "beta":
        raise ValueError("the benchmark replays beta sweeps only")
    design = design_at(spec, sweep_index)
    linear = isinstance(design, LinearDesign)
    streams = streams_for(spec.master_seed, sweep_index, rep)
    alpha = spec.alpha

    with tracer.span("dgp.gen"):
        dataset = (gen_linear if linear else gen_probit)(design, streams["data"])

    arrays = [(c.id, c.treated, c.outcomes, c.covariate_matrix) for c in dataset]
    with tracer.span("model.build"):
        validate_dataset([Cluster.from_arrays(i, t, y, x) for i, t, y, x in arrays])

    fit = estimators.ols_intercept if linear else estimators.probit_z_estimate
    fits: list = []
    cache: dict = {}

    def cluster_estimates():
        if "x" not in cache:
            for cluster in dataset:
                with tracer.span("estimators.fit"):
                    fits.append(fit(cluster))
            cache["x"] = EstimateVector(
                np.array([f.theta for f in fits]), dataset.layout
            )
        return cache["x"]

    def pair_betas():
        if "pairs" not in cache:
            seed = streams["pairing"] if spec.crs_pairing == "random" else None
            with tracer.span("comparators.crs"):
                pairs = comparators.pair_clusters(dataset, spec.crs_pairing, seed)
                pair_fit = comparators.pair_beta_ols if linear else comparators.pair_beta_probit
                cache["pairs"] = pair_fit(dataset, pairs)
        return cache["pairs"]

    results: dict = {}
    for method in spec.methods:
        if method == "placebo":
            balanced = design.q1 == design.q0
            cfg = TestConfig(alpha=alpha, adjustment="unadjusted" if balanced else "adjusted")
            x = cluster_estimates()
            with tracer.span("engine.test"):
                results[method] = engine.run_placebo_test(x, cfg)
        elif method == "im":
            x = cluster_estimates()
            with tracer.span("comparators.im"):
                results[method] = comparators.im_t_test(x, alpha, "greater")
        elif method in ("crs", "crs_randomized"):
            betas = pair_betas()
            randomized = method == "crs_randomized"
            with tracer.span("comparators.crs"):
                results[method] = comparators.crs_sign_test(
                    betas, alpha, randomized=randomized,
                    seed=streams["crs_u"] if randomized else None,
                )
        elif method == "wild_bootstrap":
            with tracer.span("comparators.wildboot"):
                results[method] = comparators.wild_cluster_bootstrap_test(
                    dataset, alpha, "greater",
                    b_reps=spec.bootstrap_reps, seed=streams["bootstrap"],
                )
        elif method == "bch_t":
            with tracer.span("comparators.bch"):
                fit_crve = comparators.pooled_ols_crve(dataset)
                results[method] = comparators.bch_t_test(fit_crve, alpha, "greater")
        else:
            raise ValueError(f"the benchmark does not replay method {method!r}")
    return Replication(sweep_index, rep, dataset, fits, results)

