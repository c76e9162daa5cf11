"""Summary statistics of the benchmark: medians, percentiles and span
self time. Pure functions, tested by test_stats.py."""

import math
import statistics

# A percentile is reported only when at least this many samples lie
# beyond it, so p99 needs 1000 samples and p50 needs 20.
MIN_BEYOND = 10


def median(values):
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def fast_half_mean(rates):
    """Mean of the larger half of `rates` (the middle one included when
    their number is odd). Load from other tenants of a shared host only
    ever slows a measurement, so the faster half tracks the program's
    own speed more steadily than the median of all of them."""
    if not rates:
        raise ValueError("mean of no samples")
    ordered = sorted(rates)
    return statistics.mean(ordered[len(ordered) // 2:])


def percentile(values, q):
    """Nearest-rank q-th percentile (0 < q < 100) of `values`.

    Returns None unless at least MIN_BEYOND samples lie above the rank,
    i.e. unless len(values) - ceil(q/100 * n) >= MIN_BEYOND.
    """
    if not 0 < q < 100:
        raise ValueError("percentile rank must be in (0, 100)")
    n = len(values)
    rank = math.ceil(q / 100.0 * n)
    if n - rank < MIN_BEYOND:
        return None
    return sorted(values)[rank - 1]


def read_spans(path):
    """Spans written by the driver: one dict per TSV row."""
    spans = []
    with open(path) as f:
        header = f.readline().rstrip("\n").split("\t")
        for line in f:
            row = dict(zip(header, line.rstrip("\n").split("\t")))
            spans.append({
                "id": int(row["id"]),
                "parent": int(row["parent"]),
                "iter": int(row["iter"]),
                "tid": int(row["tid"]),
                "start": int(row["start_ns"]),
                "end": int(row["end_ns"]),
                "name": row["name"],
            })
    return spans


def _covered(intervals, lo, hi):
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """{span id: self time in ns}: the span's duration minus the part
    of it covered by its children on the same thread. Children on other
    threads run concurrently and do not reduce the parent's wall."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        kids = [(c["start"], c["end"]) for c in children.get(s["id"], [])
                if c["tid"] == s["tid"]]
        out[s["id"]] = (s["end"] - s["start"]) - _covered(
            kids, s["start"], s["end"])
    return out


def descendants(spans, root_ids):
    """Ids of every span under any of `root_ids` (roots included)."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s["id"])
    seen = set()
    todo = list(root_ids)
    while todo:
        i = todo.pop()
        if i in seen:
            continue
        seen.add(i)
        todo.extend(children.get(i, []))
    return seen


def attribute(spans, root_name, layer_of):
    """Self time of the same-thread span trees under every span named
    `root_name`, summed per layer. `layer_of(name)` maps a span name to
    its layer. Returns ({layer: ns}, total root wall in ns)."""
    roots = [s for s in spans if s["name"] == root_name]
    by_id = {s["id"]: s for s in spans}
    selfs = self_times(spans)
    layers = {}
    for i in descendants(spans, [r["id"] for r in roots]):
        s = by_id[i]
        if s["tid"] != 0:
            continue
        layer = layer_of(s["name"])
        layers[layer] = layers.get(layer, 0) + selfs[i]
    wall = sum(r["end"] - r["start"] for r in roots)
    return layers, wall
