"""Reduction of the measuring process's raw report to the named metrics.

The C++ measuring program (perfbench/measure) measures and prints raw samples; this
module turns them into the end-to-end metrics (``--trace 0``) or per-layer
metrics (``--trace 1``) that BENCHMARK.json names. It is pure Python so the
statistics are unit-tested on their own (perfbench/tests).
"""

import math
import statistics

# Samples a percentile needs beyond it before it is reported.
MIN_SAMPLES_BEYOND = 10


def median(values):
    """Median of a non-empty sequence (mean of the middle two when even)."""
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def percentile(values, p):
    """Nearest-rank p-th percentile (0 < p <= 100) of a non-empty sequence."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError("percentile must be in (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(values, p):
    """Samples strictly above the nearest-rank p-th percentile."""
    cut = percentile(values, p)
    return sum(1 for v in values if v > cut)


def reportable_tail(values, candidates=(99, 90)):
    """Highest percentile in `candidates` with at least MIN_SAMPLES_BEYOND
    samples above it, or None when no candidate qualifies."""
    for p in sorted(candidates, reverse=True):
        if values and samples_beyond(values, p) >= MIN_SAMPLES_BEYOND:
            return p
    return None


def pair_p50(latencies, pairs):
    """Mean over the workload's pairs of each pair's median latency.

    A workload's pairs differ in size and shape, so their latencies form
    separate clusters; the plain median of the mix would be one pair's
    latency (or, with an even split, a value between two clusters that is
    no Find()'s latency). Every pair weighs the same here. With one pair
    this is the plain median.
    """
    if not latencies or len(latencies) != len(pairs):
        raise ValueError("pair_p50 needs one pair per latency sample")
    by_pair = {}
    for latency, pair in zip(latencies, pairs):
        by_pair.setdefault(pair, []).append(latency)
    return mean([median(v) for _, v in sorted(by_pair.items())])


def mean(values):
    return sum(values) / len(values) if values else 0.0


def ratio(part, base):
    """part / base, or 0 when the base is empty."""
    return part / base if base else 0.0


def end_to_end(raw):
    """End-to-end metrics of an untraced run, by name (values only), plus the
    extras printed beside them (sample count, failed_frac, optional tail)."""
    finds = raw["finds"]
    latencies = finds["latency_s"]
    ok = finds["ok"]
    metrics = {
        "find_p50_s": pair_p50(latencies, finds["pair"]),
        "finds_per_s": ratio(sum(1 for o in ok if o), raw["wall_s"]),
        "recovery_f1": mean(finds["f1"]),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        "setup_s": sum(raw["setup_steps"].values()),
        "failed_frac": ratio(raw["failed"], raw["attempted"]),
    }
    tail = reportable_tail(latencies, candidates=(90,))
    if tail is not None:
        metrics["find_p90_s"] = percentile(latencies, tail)
    extras = {"find_samples": len(latencies)}
    return metrics, extras


STAGES = ("diff.align", "setup.shortlist", "phase1.signals", "phase2.trees",
          "phase3.fits", "rank.stream")

COUNTS = ("setup.condition_subsets", "setup.transform_subsets",
          "phase1.labelings", "phase2.partitions", "phase3.work_items",
          "phase3.score_leaf_folds", "phase3.leaf_fits_computed",
          "phase3.leaf_fits_reused", "rank.candidates_evaluated",
          "rank.candidates_deduped")

DISTRIBUTED = ("distributed.shard_s", "distributed.signal_round_s",
               "distributed.moments_round_s", "distributed.score_round_s",
               "distributed.tasks_executed", "distributed.rows_scanned",
               "distributed.moment_leaves_elided")


def per_layer(raw):
    """Per-layer metrics of a traced run, by name (values only).

    Per-Find values are means over the traced Find()s, which cover whole
    request cycles, so every request weighs the same.
    """
    traced = raw["traced"]
    if not traced:
        raise ValueError("traced run recorded no Find()")
    metrics = {
        "recovery_f1": mean(raw["finds"]["f1"]),
        "failed_frac": ratio(raw["failed"], raw["attempted"]),
    }
    for stage in STAGES:
        metrics[stage + "_s"] = mean([t["stage_s"][stage] for t in traced])
    for i, phase in enumerate(("phase1", "phase2", "phase3")):
        metrics[phase + ".rss_mb"] = mean([t["rss_mb"][i] for t in traced])
    for name in COUNTS:
        metrics[name] = mean([t["counts"][name] for t in traced])
    computed = metrics["phase3.leaf_fits_computed"]
    reused = metrics["phase3.leaf_fits_reused"]
    metrics["phase3.fit_reuse_base"] = computed + reused
    metrics["phase3.fit_reuse_ratio"] = ratio(reused, computed + reused)
    metrics["phase3.leaf_fits_computed_1t"] = raw["one_thread"]["leaf_fits_computed"]
    metrics["phase3.leaf_fits_reused_1t"] = raw["one_thread"]["leaf_fits_reused"]

    context = raw["context"]
    lookups = context["hits"] + context["misses"]
    metrics["context.cache_lookups"] = lookups
    metrics["context.cache_hit_ratio"] = ratio(context["hits"], lookups)
    metrics["context.cache_evictions"] = context["evictions"]
    metrics["context.runs_queued"] = context["runs_queued"]

    # Sharded workloads report their own traced Find()s; the others report
    # the one sharded replay of their first request.
    sharded = raw.get("sharded_replay")
    for name in DISTRIBUTED:
        metrics[name] = (sharded[name] if sharded is not None
                         else mean([t["counts"][name] for t in traced]))

    replays = raw["replays"]
    metrics["partition_finder.cluster_residuals_s"] = mean(
        [r["cluster_residuals_s"] for r in replays])
    metrics["ml.kmeans.fit_s"] = mean([r["kmeans_fit_s"] for r in replays])
    metrics["partition_finder.induce_candidates_s"] = mean(
        [r["induce_candidates_s"] for r in replays])

    # The traced root span and the untraced client time cover the same
    # scope (engine construction to teardown); both reduce as find_p50_s.
    traced_pairs = [t["pair"] for t in traced]
    untraced_p50 = pair_p50(raw["finds"]["latency_s"], raw["finds"]["pair"])
    metrics["trace.find_s"] = pair_p50([t["find_s"] for t in traced], traced_pairs)
    metrics["trace.stage_sum_s"] = pair_p50(
        [sum(t["stage_s"].values()) for t in traced], traced_pairs)
    metrics["trace.overhead_frac"] = (metrics["trace.find_s"] - untraced_p50) / untraced_p50
    find_span = raw["spans"]["find"]
    metrics["trace.find_self_s"] = find_span["self_s"] / find_span["count"]
    return metrics


def stage_gap_frac(metrics):
    """Share of the traced Find() the six stage spans leave uncovered
    (engine and state construction, pool spawn, teardown)."""
    return (metrics["trace.find_s"] - metrics["trace.stage_sum_s"]) / metrics["trace.find_s"]
