#!/usr/bin/env python3
"""Repository benchmark: one command per workload, run from the repo root.

    python3 perfbench/run.py --workload {netflix,yahoomusic} --seed N \
        --seconds T --trace {0,1}

Builds perfbench/ (and the library it links) from this checkout's
sources, prepares the workload's inputs from the seed outside the timed
region (cached per seed), runs the measured program, checks its outputs,
and prints one JSON line: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
are the per-layer ones from a traced run. Exits 1 when a correctness gate
fails. perfbench/README.md maps every metric to its layer and workload.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # keep perfbench/ free of build output
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

WORKLOADS = ("netflix", "yahoomusic")
RUN_TIMEOUT_S = 170
CACHED_SEEDS = 3  # prepared inputs kept per workload

# Open-loop generator validity: it fell behind if its median send was more
# than half a millisecond late, or its p99 more than 50 ms.
LATE_P50_LIMIT_MS = 0.5
LATE_P99_LIMIT_MS = 50.0

# p99 windows hold at least 1000 samples (ten beyond their p99): three
# seconds of the online query thread's 400 qps.
LIVE_WINDOW_S = 3.0


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def fail(msg, code=2):
    log(msg)
    sys.exit(code)


def tree_state_dir(root, build_root):
    """Build tree, inputs and records of this checkout. $CARGO_TARGET_DIR
    may be an absolute directory shared by several checkouts; keying by
    the checkout's path keeps each one building and measuring its own
    sources."""
    key = hashlib.sha256(os.path.realpath(root).encode()).hexdigest()[:12]
    return os.path.join(build_root, "perfbench-" + key)


def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def build(root, state):
    build_dir = os.path.join(state, "build")
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(state, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                        build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, env=env)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target",
                    "perfbench"], stdout=sys.stderr, check=True, env=env)
    return os.path.join(build_dir, "perfbench")


def prepare(binary, binary_sha, cache_root, workload, seed):
    """Generates the workload's inputs for `seed` once. Returns their dir
    and the hash of the binary that generated them."""
    final = os.path.join(cache_root, "%s-%d" % (workload, seed))
    stamp = os.path.join(final, "made_by")
    if os.path.isfile(stamp):
        os.utime(final)
        with open(stamp) as f:
            return final, f.read().strip()
    shutil.rmtree(final, ignore_errors=True)
    os.makedirs(cache_root, exist_ok=True)
    siblings = sorted(
        (d for d in os.listdir(cache_root)
         if d.startswith(workload + "-") and not d.endswith(".tmp")),
        key=lambda d: os.path.getmtime(os.path.join(cache_root, d)))
    for old in siblings[:max(0, len(siblings) - (CACHED_SEEDS - 1))]:
        shutil.rmtree(os.path.join(cache_root, old), ignore_errors=True)
    tmp = final + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    subprocess.run([binary, "prepare", "--workload=" + workload,
                    "--seed=%d" % seed, "--dir=" + tmp],
                   stdout=sys.stderr, check=True, timeout=RUN_TIMEOUT_S)
    with open(os.path.join(tmp, "made_by"), "w") as f:
        f.write(binary_sha + "\n")
    os.rename(tmp, final)
    return final, binary_sha


class Result:
    def __init__(self, raw):
        self.raw = raw
        self.attempted = int(raw["attempted"])
        self.failed = int(raw["failed"])
        self.errors = list(raw["errors"])
        self.metrics = {}

    def value(self, name):
        return self.raw["values"][name]

    def samples(self, name):
        return self.raw["samples"][name]

    def gate(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)

    def put(self, name, value, unit):
        self.metrics[name] = {"value": value, "unit": unit}


def generator_gate(res, late_ms):
    late_p50 = stats.median(late_ms)
    late_p99 = stats.percentile(late_ms, 99)[0]
    res.gate(late_p50 <= LATE_P50_LIMIT_MS and late_p99 <= LATE_P99_LIMIT_MS,
             "open-loop generator fell behind (late p50 %.3f ms, p99 %.3f ms)"
             % (late_p50, late_p99))
    return max(late_ms), late_p99


def open_loop_metrics(res, prefix, window_s):
    """Latency from due time: p50 over all samples and the median of the
    fixed windows' p99s."""
    lat = res.samples(prefix + "lat_ms")
    p50, n, _ = stats.percentile(lat, 50)
    p99, windows, smallest = stats.window_p99(res.samples(prefix + "due_s"),
                                              lat, window_s)
    ok_ratio = res.value(prefix + "ok") / res.value(prefix + "attempted")
    return p50, p99, ok_ratio, n, windows, smallest


# Spans that only group others; their self time is the benchmark's own glue.
GROUP_SPANS = {"setup", "setup.rep", "train", "serve.setup", "rounds", "round",
               "layers"}


def trace_metrics(res):
    spans = res.raw["spans"]
    for name, secs in sorted(stats.self_times(spans).items()):
        if name not in GROUP_SPANS:
            res.put("self.%s_s" % name, secs, "s")
    res.put("trace.spans", len(spans), "count")
    overhead = len(spans) * res.value("trace.per_span_s") / res.value(
        "run.wall_s")
    res.put("trace.overhead_pct", 100.0 * overhead, "%")


def copy_values(res, names_units):
    for name, unit in names_units:
        res.put(name, res.value(name), unit)


def medians(res, names_units):
    for name, unit in names_units:
        res.put(name, stats.median(res.samples(name)), unit)


def finish(res, trace):
    """Turns the raw measurements of one run of the path into the metrics.
    Every workload reports the same metrics."""
    exact = res.raw["exact"]
    open_late_max, open_late_p99 = generator_gate(
        res, res.samples("open.late_ms"))
    live_late_max, live_late_p99 = generator_gate(
        res, res.samples("live.late_ms"))
    # p99 windows hold at least 1100 samples at the loop's rate.
    open_window_s = max(1.0, math.ceil(1100.0 / res.value("open.qps")))
    p50, p99, open_ok, n, windows, smallest = open_loop_metrics(
        res, "open.", open_window_s)
    live_p50, live_p99, live_ok, _, _, _ = open_loop_metrics(
        res, "live.", LIVE_WINDOW_S)
    sat_ok = res.value("sat.ok") / res.value("sat.attempted")
    fresh = res.samples("fresh_s")
    if not trace:
        res.put("setup_s", stats.median(res.samples("setup_s")), "s")
        res.put("peak_rss_mb", res.value("peak_rss_mb"), "MB")
        res.put("train_s", res.value("train_s"), "s")
        res.put("test_rmse", exact["test_rmse"], "rmse")
        res.put("sim_s_to_target", exact["sim_s_to_target"], "sim_s")
        res.put("qps", stats.median(res.samples("sat.window_qps")), "1/s")
        res.put("ok_ratio", min(open_ok, sat_ok, live_ok), "ratio")
        res.put("fresh_p50_s", stats.median(fresh), "s")
        res.put("fresh_p90_s", stats.percentile(fresh, 90)[0], "s")
        return

    # Set-up and training layers.
    medians(res, [("io.load_s", "s"), ("session.create_s", "s"),
                  ("core.rmse_train_s", "s"), ("core.rmse_test_s", "s")])
    copy_values(res, [("io.load_rss_mb", "MB"),
                      ("session.create_rss_delta_mb", "MB"),
                      ("sched.grid_s", "s"), ("sched.bucket_s", "s"),
                      ("core.sgd_sweep_s", "s"),
                      ("core.sgd_updates_per_s", "1/s"),
                      ("rss.after_load_mb", "MB"),
                      ("rss.after_create_mb", "MB"),
                      ("rss.after_train_mb", "MB")])
    epoch_p50 = stats.median(res.samples("session.epoch_s"))
    res.put("session.epoch_s_p50", epoch_p50, "s")
    res.put("sim.event_loop_s", stats.event_loop_residual(
        epoch_p50, res.value("core.sgd_sweep_s"),
        res.metrics["core.rmse_train_s"]["value"],
        res.metrics["core.rmse_test_s"]["value"]), "s")
    for name in ("sim.epochs_to_target", "sched.steals", "sim.block_tasks"):
        res.put(name, exact[name], "count")
    res.put("sim.alpha", exact["sim.alpha"], "ratio")
    res.put("sim.update_rate_cv", exact["sim.update_rate_cv"], "ratio")

    # Serving layers.
    copy_values(res, [("serve.setup_s", "s"), ("rss.after_publish_mb", "MB"),
                      ("serve.shed", "count"), ("serve.rejected", "count")])
    medians(res, [("serve.sweep_single_ms", "ms"),
                  ("serve.sweep_batch_ms", "ms")])
    res.put("serve.p50_ms", p50, "ms")
    res.put("serve.p99_ms", p99, "ms")
    res.put("serve.batch_mean_open",
            res.value("open.served") / res.value("open.batches"), "count")
    res.put("serve.batch_mean_sat",
            res.value("sat.served") / res.value("sat.batches"), "count")
    res.put("serve.queue_wait_p50_ms",
            p50 - res.metrics["serve.sweep_single_ms"]["value"], "ms")
    res.put("serve.gen_late_max_ms", max(open_late_max, live_late_max), "ms")
    res.put("serve.gen_late_p99_ms", max(open_late_p99, live_late_p99), "ms")
    attempted = sum(res.value(p + "attempted") for p in ("open.", "sat.", "live."))
    served = sum(res.value(p + "ok") for p in ("open.", "sat.", "live."))
    res.put("serve.fail_ratio", (attempted - served) / attempted, "ratio")
    res.put("serve.open_samples", n, "count")
    res.put("serve.p99_windows", windows, "count")
    res.put("serve.p99_window_min_samples", smallest, "count")

    # Stream layers.
    for name in ("stream.ingest_s", "stream.wal_append_s", "stream.wal_sync_s",
                 "stream.train_dirty_s", "stream.publish_s"):
        res.put(name + "_p50", stats.median(res.samples(name)), "s")
    medians(res, [("stream.dirty_block_ratio", "ratio"),
                  ("stream.checkpoint_s", "s"),
                  ("serve.snapshot_build_s", "s")])
    res.put("stream.rounds", len(fresh), "count")
    copy_values(res, [("serve.publishes", "count"),
                      ("serve.publish_rejected", "count"),
                      ("rss.after_rounds_mb", "MB")])
    res.put("serve.p50_ms_online", live_p50, "ms")
    res.put("serve.p99_ms_online", live_p99, "ms")


def determinism_gate(res, expected_dir, workload, seed):
    """Exact outputs must repeat across runs of one build on one seed's
    inputs. `expected_dir` is keyed by both, so a change to the code that
    honestly moves these outputs starts a record of its own; the first run
    of a build and seed writes it."""
    exact = res.raw["exact"]
    os.makedirs(expected_dir, exist_ok=True)
    path = os.path.join(expected_dir, "%s-%d.json" % (workload, seed))
    if not os.path.isfile(path):
        with open(path + ".tmp", "w") as f:
            json.dump(exact, f, sort_keys=True)
        os.rename(path + ".tmp", path)
        res.gate(True, "")
        return
    with open(path) as f:
        expected = json.load(f)
    diffs = [k for k in sorted(set(expected) | set(exact))
             if expected.get(k) != exact.get(k)]
    res.gate(not diffs, "exact outputs differ from an earlier run of this "
             "build and seed: %s" % ", ".join(diffs))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        fail("run from the repository root: no CMakeLists.txt and src/ here")
    state = tree_state_dir(root, os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    try:
        binary = build(root, state)
        # The first build in a checkout may take minutes; the time limit
        # covers input preparation and the measured run.
        deadline = time.monotonic() + RUN_TIMEOUT_S
        binary_sha = file_sha256(binary)
        inputs, inputs_sha = prepare(binary, binary_sha,
                                     os.path.join(state, "inputs"),
                                     args.workload, args.seed)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        fail("build or input preparation failed: %s" % e)
    scratch = os.path.join(state, "scratch", str(os.getpid()))
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    try:
        proc = subprocess.run(
            [binary, "run", "--workload=" + args.workload,
             "--seed=%d" % args.seed, "--seconds=%g" % args.seconds,
             "--trace=%d" % args.trace, "--dir=" + inputs,
             "--scratch=" + scratch],
            stdout=subprocess.PIPE, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("the measured run did not finish in time", 1)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0:
        fail("the measured run exited with code %d" % proc.returncode, 1)

    res = Result(json.loads(proc.stdout))
    finish(res, args.trace == 1)
    if args.trace:
        trace_metrics(res)
    record = os.path.join(state, "expected",
                          binary_sha[:16] + "-" + inputs_sha[:16])
    determinism_gate(res, record, args.workload, args.seed)
    for name, m in res.metrics.items():
        v = m["value"]
        res.gate(isinstance(v, (int, float)) and math.isfinite(v),
                 "metric %s is not a finite number" % name)
        if not args.trace:
            res.gate(v != 0, "end-to-end metric %s is 0" % name)
    for e in res.errors:
        log("gate failed: " + e)
    correct = res.failed == 0
    print(json.dumps({"correct": correct, "attempted": res.attempted,
                      "failed": res.failed, "metrics": res.metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
