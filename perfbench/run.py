#!/usr/bin/env python3
"""Wall-clock benchmark of hetkg training (see README.md).

    python3 perfbench/run.py --workload fb15k-hotcache --seed 7 \\
        --seconds 8 --trace 0

Run from the repository root. Builds the driver into .bench_build/,
runs closed-loop training jobs one at a time in a scratch directory under it,
prints every metric with its unit, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "cmake")
BINARY = os.path.join(BUILD_DIR, "hetkg_perfbench")
WORKLOADS = ("fb15k-hotcache", "freebase-tiered", "fb15k-proc")
RUN_TIMEOUT_S = 170

# name -> (unit, how it is derived from the driver's record).
END_TO_END = {
    "setup_s": ("s", ("median", "setup_s")),
    "train_triples_per_s": ("1/s", ("fast_half", "train_triples_per_s")),
    "ckpt_save_s": ("s", ("median", "ckpt_save_s")),
    "peak_rss_mib": ("MiB", ("value", "peak_rss_mib")),
    "remote_mib_per_epoch": ("MiB", ("value", "remote_mib_per_epoch")),
    "sim_s_per_epoch": ("s", ("value", "sim_s_per_epoch")),
    "test_mr": ("1", ("value", "test_mr")),
    "final_loss": ("1", ("value", "final_loss")),
}
# Printed with the end-to-end metrics but kept out of the JSON, because
# their spread across runs can exceed the largest bound (0.25) a JSON
# metric may carry (see README.md): the eval and restore working sets of
# the FB15k workloads fit in a shared L3, so their speed swings up to 2x
# with the host's load; test_mrr varies with the seed after two epochs.
PRINTED_ONLY = {
    "eval_rankings_per_s": ("1/s", ("median", "eval_rankings_per_s")),
    "ckpt_restore_s": ("s", ("median", "ckpt_restore_s")),
    "test_mrr": ("1", ("value", "test_mrr")),
}


def _pct(sample, q):
    return ("pct", sample, q)


PER_LAYER = {
    "graph.generate_s": ("s", ("value", "graph.generate_s")),
    "graph.contains_ns": ("ns", ("median", "graph.contains_ns")),
    "partition.metis_s": ("s", ("value", "partition.metis_s")),
    "partition.cut_fraction": ("1", ("value", "partition.cut_fraction")),
    "partition.balance": ("1", ("value", "partition.balance")),
    "engine.make_s": ("s", ("value", "engine.make_s")),
    "engine.fork_s": ("s", ("value", "engine.fork_s")),
    "sampler.ns_per_negative": ("ns", ("median", "sampler.ns_per_negative")),
    "prefetch.window_us.p50": ("us", _pct("prefetch.window_us", 50)),
    "prefetch.window_us.p99": ("us", _pct("prefetch.window_us", 99)),
    "filter.us.p50": ("us", _pct("filter.us", 50)),
    "filter.us.p99": ("us", _pct("filter.us", 99)),
    "filter.predicted_hit_ratio": ("1", ("value", "filter.predicted_hit_ratio")),
    "cache.assign_us.p50": ("us", _pct("cache.assign_us", 50)),
    "cache.assign_us.p99": ("us", _pct("cache.assign_us", 99)),
    "cache.admitted_ratio": ("1", ("value", "cache.admitted_ratio")),
    "cache.refresh_ns_per_row": ("ns", ("median", "cache.refresh_ns_per_row")),
    "cache.apply_ns_per_row": ("ns", ("median", "cache.apply_ns_per_row")),
    "cache.hit_ratio": ("1", ("value", "cache.hit_ratio")),
    "ps.pull_us.p50": ("us", _pct("ps.pull_us", 50)),
    "ps.pull_us.p99": ("us", _pct("ps.pull_us", 99)),
    "ps.push_us.p50": ("us", _pct("ps.push_us", 50)),
    "ps.push_us.p99": ("us", _pct("ps.push_us", 99)),
    "ps.pull_ns_per_row": ("ns", ("median", "ps.pull_ns_per_row")),
    "ps.push_ns_per_row": ("ns", ("median", "ps.push_ns_per_row")),
    "ps.remote_bytes_per_call": ("B", ("value", "ps.remote_bytes_per_call")),
    "ps.messages_per_call": ("count", ("value", "ps.messages_per_call")),
    "ps.failed_rows": ("count", ("value", "ps.failed_rows")),
    "tier.cold_reads_per_row": ("count", ("value", "tier.cold_reads_per_row")),
    "tier.mapped_mib": ("MiB", ("value", "tier.mapped_mib")),
    "tier.decode_ns_per_row": ("ns", ("median", "tier.decode_ns_per_row")),
    "tier.encode_ns_per_row": ("ns", ("median", "tier.encode_ns_per_row")),
    "kernel.score_ns_per_triple": ("ns", ("median", "kernel.score_ns_per_triple")),
    "kernel.backward_ns_per_triple":
        ("ns", ("median", "kernel.backward_ns_per_triple")),
    "kernel.adagrad_ns_per_row": ("ns", ("median", "kernel.adagrad_ns_per_row")),
    "kernel.score_bw_frac": ("1", ("bw", "kernel.score_ns_per_triple")),
    "kernel.backward_bw_frac": ("1", ("bw", "kernel.backward_ns_per_triple")),
    "kernel.adagrad_bw_frac": ("1", ("bw", "kernel.adagrad_ns_per_row")),
    "tier.decode_bw_frac": ("1", ("bw", "tier.decode_ns_per_row")),
    "tier.encode_bw_frac": ("1", ("bw", "tier.encode_ns_per_row")),
    "mem.triad_gib_per_s": ("GiB/s", ("value", "mem.triad_gib_per_s")),
    "parallel.batch_us": ("us", ("median", "parallel.batch_us")),
    "parallel.speedup": ("1", ("ratio", "parallel.batch_us.serial",
                               "parallel.batch_us")),
    "eval.score_ns_per_candidate":
        ("ns", ("median", "eval.score_ns_per_candidate")),
    "eval.filter_ns_per_candidate":
        ("ns", ("median", "eval.filter_ns_per_candidate")),
    "ckpt.mib": ("MiB", ("value", "ckpt.mib")),
    "ckpt.save_mib_per_s": ("MiB/s", ("per", "ckpt.mib", "ckpt.save_s")),
    "ckpt.restore_mib_per_s": ("MiB/s", ("per", "ckpt.mib", "ckpt.restore_s")),
    "net.shm_rtt_us.p50": ("us", _pct("net.shm_rtt_us", 50)),
    "net.shm_rtt_us.p99": ("us", _pct("net.shm_rtt_us", 99)),
    "net.step_overhead_us": ("us", ("value", "net.step_overhead_us")),
    "trace.overhead_frac": ("1", ("value", "trace.overhead_frac")),
}

# Library span name -> layer, for attributing the Train() wall.
SPAN_LAYERS = {
    "train.epoch.traced": "engine",
    "ps.epoch": "engine",
    "ps.step": "engine",
    "pipeline.sample": "prefetch",
    "prefetch.window": "prefetch",
    "prefetch.count_only": "prefetch",
    "cache.filter": "hot_filter",
    "cache.assign": "hot_embedding_table",
    "cache.rebuild": "hot_embedding_table",
    "pipeline.pull": "pull_stage",
    "pipeline.push": "push_stage",
    "pipeline.compute": "kernels",
    "compute.chunks": "kernels",
    "ps.pull_batch": "ps",
    "ps.push_batch": "ps",
}
LAYERS = ("engine", "prefetch", "hot_filter", "hot_embedding_table",
          "pull_stage", "push_stage", "kernels", "ps", "other")
for _layer in LAYERS:
    PER_LAYER["train_share." + _layer] = ("1", ("share", _layer))


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver; False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "hetkg_perfbench", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            return False
    return True


def reap_group(pgid):
    """SIGKILLs what is left of the driver's process group (forked
    workers included) and waits until it is empty."""
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return True
        except PermissionError:
            return False
        time.sleep(0.05)
    return False


def run_driver(args, tmp_dir, out_path):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tmp", tmp_dir, "--out", out_path]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("driver timed out after %d s" % RUN_TIMEOUT_S)
        code = None
    finally:
        reap_group(proc.pid)
        proc.wait()
    return code


def source_digest():
    """sha256 over the library sources: identifies the code measured
    even where no git metadata exists."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return "none"
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def derive(rule, record, shares):
    samples, values = record["samples"], record["values"]
    kind = rule[0]
    if kind == "median":
        return stats.median(samples[rule[1]]), len(samples[rule[1]])
    if kind == "fast_half":
        return stats.fast_half_mean(samples[rule[1]]), len(samples[rule[1]])
    if kind == "value":
        return values[rule[1]], 1
    if kind == "pct":
        xs = samples[rule[1]]
        return stats.percentile(xs, rule[2]), len(xs)
    if kind == "ratio":
        return (stats.median(samples[rule[1]]) /
                stats.median(samples[rule[2]]), len(samples[rule[2]]))
    if kind == "per":
        return (values[rule[1]] / stats.median(samples[rule[2]]),
                len(samples[rule[2]]))
    if kind == "bw":
        # Computed bytes moved per item over this host's triad bandwidth.
        ns = stats.median(samples[rule[1]])
        moved = values[rule[1] + ".bytes"]
        return (moved / ns) / (values["mem.triad_gib_per_s"] * 1.073741824), 1
    if kind == "share":
        return shares.get(rule[1], 0.0), 1
    raise ValueError(kind)


def train_shares(record):
    """Self-time share of the traced Train() wall per layer."""
    spans = stats.read_spans(record["info"]["spans"])
    ns, wall = stats.attribute(spans, "train.epoch.traced",
                               lambda n: SPAN_LAYERS.get(n, "other"))
    if wall <= 0:
        return {}
    return {layer: t / wall for layer, t in ns.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not build():
        return 1
    tmp_dir = os.path.join(BUILD_ROOT, "runs",
                           "%s-%d-%d" % (args.workload, args.seed,
                                         os.getpid()))
    shutil.rmtree(tmp_dir, ignore_errors=True)
    os.makedirs(tmp_dir)
    try:
        out_path = os.path.join(tmp_dir, "record.json")
        code = run_driver(args, tmp_dir, out_path)
        if code != 0 or not os.path.exists(out_path):
            log("driver failed (exit %s)" % code)
            return 1
        with open(out_path) as f:
            record = json.load(f)
        shares = train_shares(record) if args.trace else {}
        table = PER_LAYER if args.trace else END_TO_END
        extra = {} if args.trace else PRINTED_ONLY
        metrics, rows, missing = {}, [], []
        for name, (unit, rule) in list(table.items()) + list(extra.items()):
            try:
                value, n = derive(rule, record, shares)
            except (KeyError, ValueError, ZeroDivisionError) as e:
                value, n = None, 0
                log("metric %s: %r" % (name, e))
            if value is None:
                missing.append(name)
                continue
            if name in table:
                metrics[name] = {"value": value, "unit": unit}
            rows.append((name, value, unit, n))
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)

    attempted = int(record["attempted"]) + len(table) + len(extra)
    failed = int(record["failed"]) + len(missing)
    info = dict(record["info"])
    info.pop("spans", None)
    info["git_sha"] = git_sha()
    info["src_sha256"] = source_digest()
    print("# " + " ".join("%s=%s" % kv for kv in sorted(info.items())))
    for name, value, unit, n in rows:
        print("%-32s %16.6g %-6s (n=%d)" % (name, value, unit, n))
    for name in missing:
        print("%-32s %16s" % (name, "MISSING"))
    print("%-32s %16.6g %-6s (%d of %d)" % (
        "error_rate", failed / attempted, "1", failed, attempted))
    for failure in record["failures"]:
        print("# failed: " + failure)
    if args.trace:
        top = sorted(shares.items(), key=lambda kv: -kv[1])[:3]
        print("# Train() wall by layer: " + ", ".join(
            "%s %.1f%%" % (layer, 100 * share) for layer, share in top))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
