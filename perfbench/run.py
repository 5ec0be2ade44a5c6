#!/usr/bin/env python3
"""AdaMEL benchmark: one command per workload run.

    python3 perfbench/run.py --workload score|search|train --seed N \\
        --seconds S --trace 0|1

Builds the executor (perfbench/exec, linked against ../src) into
.bench_build/perfbench, runs the workload through it, checks every output
for correctness, prints a readable report, and prints as its last stdout
line one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json, with
--trace 1 the per-layer ones. Any correctness mismatch, or a reported
percentile without ten samples beyond it, exits nonzero without a result.
See perfbench/README.md for what each metric and workload means.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402

BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
EXECUTABLE = os.path.join(BUILD_DIR, "perfbench_exec")
WORKLOADS = ("score", "search", "train")

# How each run measures. The traffic itself (tenant mix, deadlines, the
# reference rate and the latency limit) is set in the executor next to the
# workload it belongs to, and read back with `info`.
# The host's speed drifts over seconds, and set-up CPU time with it, so the
# set-ups of a run are spread over it and setup_s is their median:
# (set-ups before the measured phases, set-ups after them), and for train
# (set-ups before the first fit, set-ups after each fit).
SETUP_REPEATS = {"score": (2, 2), "search": (2, 1), "train": (3, 2)}
WARMUP_S = 2
# score: before the warm-up, a burst at this multiple of the reference rate
# for BURST_S seconds fills the batcher queue to its limit and has both
# workers run full batches. peak_rss_mb is then set by the service's
# configured limits, not by the timing of one run: without it, per-thread
# malloc arenas left peak RSS anywhere from 28 to 41 MB.
BURST_RATE_MULTIPLE = 12
BURST_S = 0.3
# Share of --seconds spent at the reference rate; the rest finds peak_rate.
REFERENCE_SHARE = {"score": 0.5, "search": 0.7}
# The reference phase runs as this many back-to-back chunks; cpu_ms_per_op
# is the median over chunks, so a slow spell of the host in one chunk
# does not set it.
REFERENCE_CHUNKS = 5
# peak_rate ladder: rungs of LADDER_RATIO from half the reference rate.
LADDER_RATIO = 1.05
LADDER_RUNGS = 63
# Fit seeds of `train`, cycled from where the run seed points.
FIT_SEEDS = (11, 12, 13)


class BenchError(Exception):
    """The run cannot produce a valid result; exit nonzero."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("library sources (src/) not found next to perfbench/")
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    result = subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench_exec",
         "-j", jobs], stdout=sys.stderr)
    if result.returncode != 0:
        raise BenchError("build failed")


class Executor:
    """The measuring process: one JSON reply line per command line."""

    def __init__(self, workload, seed):
        self.proc = subprocess.Popen(
            [EXECUTABLE, "--workload", workload, "--seed", str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def call(self, *words):
        self.proc.stdin.write(" ".join(str(w) for w in words) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"executor died during '{words[0]}' "
                             f"(exit {self.proc.wait()})")
        return json.loads(line)

    def close(self):
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("quit\n")
                self.proc.stdin.flush()
                self.proc.wait(timeout=30)
            except (BrokenPipeError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()


def wall_latency(values, prefix, wall, report):
    """Wall-clock p50 and p99 of `values` into `wall` (unbounded; printed).
    p99 is the median over 1000-operation blocks of the block p99, so one
    scheduler stall in one block cannot set it. A percentile the sample
    cannot support under the ten-beyond rule is left out and noted."""
    n = len(values)
    try:
        wall[f"{prefix}p50_ms"] = stats.percentile(values, 0.5)
        value, blocks = stats.windowed_percentile(values, 0.99)
        wall[f"{prefix}p99_ms"] = value
        report.append(f"{prefix}p50/p99: n={n}, p50 has "
                      f"{stats.samples_beyond(n, 0.5)} beyond; p99 is the "
                      f"median of {blocks} block p99s (blocks of >= 1000, "
                      f">= {stats.MIN_BEYOND} beyond each)")
    except stats.InsufficientSamples as e:
        report.append(f"{prefix}p50/p99: not reported: {e}")


def soft_pct(values, q, notes, what):
    """Per-layer percentile, its sample count noted in the report; falls back
    to the highest quantile the sample supports (also noted) instead of
    failing the run."""
    try:
        value = stats.percentile(values, q)
        notes.append(f"{what} p{q * 100:g}: n={len(values)}, "
                     f"{stats.samples_beyond(len(values), q)} beyond")
        return value
    except stats.InsufficientSamples:
        supported = stats.highest_supported_quantile(len(values))
        notes.append(f"{what}: {len(values)} samples support "
                     f"{'no percentile' if supported is None else f'p{supported * 100:g}'}"
                     f"; reported that instead of p{q * 100:g}")
        if supported is None:
            return 0.0
        return stats.percentile(values, supported)


def phase_summary(reply):
    failed = reply["sent"] - reply["ok"]
    late = reply["lateness_ms"]
    line = (f"phase {reply['phase']:<10} rate={reply['rate']:.1f}/s "
            f"sent={reply['sent']} succeeded={reply['ok']} failed={failed} "
            f"(rejected {reply['rejected']}, expired {reply['expired']}, "
            f"late {reply['late']}, errors {reply['errors']})")
    if len(late) >= 1000:
        line += (f" lateness p50={stats.percentile(late, 0.5):.3f} ms "
                 f"p99={stats.percentile(late, 0.99):.3f} ms")
    elif late:
        line += f" lateness p50={statistics.median(late):.3f} ms max={max(late):.3f} ms"
    if "write_ms" in reply:
        line += (f" writes sent={len(reply['write_ms']) + reply['write_failures']}"
                 f" failed={reply['write_failures']}")
    return line


def check_correct(reply, report):
    if reply.get("mismatches", 0):
        report.append(f"MISMATCH: {reply['mismatches']} served scores differ "
                      f"from offline in phase {reply.get('phase')}")
        raise BenchError("served scores differ from the offline reference")


def run_setups(ex, repeats, report):
    """Set-up CPU seconds of `repeats` fresh set-ups. CPU, not wall: the
    host takes CPU from this VM in bursts, which moved wall set-up times by
    14-28% run to run; the wall times are printed with each set-up."""
    times = []
    for _ in range(repeats):
        reply = ex.call("setup")
        times.append(reply["cpu_s"])
        report.append("setup: " + ", ".join(
            f"{k}={v:.4f}" if isinstance(v, float) else f"{k}={v}"
            for k, v in reply.items()))
    return times


def serving_phase(ex, name, rate, seconds, traced, seed, report):
    reply = ex.call("phase", name, rate, seconds, 1 if traced else 0, seed)
    report.append(phase_summary(reply))
    check_correct(reply, report)
    return reply


def find_peak_rate(ex, traffic, budget_s, seed, report):
    rungs = stats.ladder(traffic["reference_rate"] / 2, LADDER_RATIO,
                         LADDER_RUNGS)
    step_s = budget_s / stats.probes_needed(len(rungs))
    limit = traffic["latency_limit_ms"]
    counter = [0]

    def passes(rate):
        counter[0] += 1
        reply = serving_phase(ex, f"ladder{counter[0]}", rate, step_s, False,
                              seed * 1000 + 100 + counter[0], report)
        lat = reply["latency_ms"]
        misses = sum(1 for v in lat if v is None or v > limit)
        verdict = stats.step_passes(lat, limit)
        report.append(f"  ladder step rate={rate:.1f}/s: {misses}/{len(lat)} "
                      f"over {limit} ms, backlog "
                      f"{'growing' if stats.backlog_grows(lat, limit) else 'steady'}"
                      f" -> {'pass' if verdict else 'fail'}")
        return verdict

    index, _ = stats.find_peak(rungs, passes)
    return rungs[index] if index >= 0 else 0.0


def serving_untraced(ex, workload, traffic, seconds, seed, report):
    metrics = {}
    before, after = SETUP_REPEATS[workload]
    setups = run_setups(ex, before, report)
    rate = traffic["reference_rate"]
    if workload == "score":
        serving_phase(ex, "burst", rate * BURST_RATE_MULTIPLE, BURST_S, False,
                      seed * 1000 + 3, report)
    serving_phase(ex, "warmup", rate, WARMUP_S, False, seed * 1000 + 1, report)
    ref_s = seconds * REFERENCE_SHARE[workload]
    chunks = [serving_phase(ex, f"reference{c + 1}", rate,
                            ref_s / REFERENCE_CHUNKS, False,
                            seed * 1000 + 10 + c, report)
              for c in range(REFERENCE_CHUNKS)]
    # Peak RSS up to the end of the reference phase: the overload steps of
    # the ladder below, whose rates follow the bisection, would otherwise
    # set it with their queues.
    metrics["peak_rss_mb"] = ex.call("info")["peak_rss_mb"]
    wall = {}
    wall_latency([v for c in chunks for v in c["latency_ms"]], "", wall,
                 report)
    metrics["cpu_ms_per_op"] = statistics.median(
        c["cpu_s"] * 1000.0 / c["sent"] for c in chunks)
    sent = sum(c["sent"] for c in chunks)
    attempted = sent
    failed = sent - sum(c["ok"] for c in chunks)
    if workload == "search":
        write_failures = sum(c["write_failures"] for c in chunks)
        write_ms = [v for c in chunks for v in c["write_ms"]]
        writes = len(write_ms) + write_failures
        attempted += writes
        failed += write_failures
        report.append(f"writer: {writes} chunks of "
                      f"{chunks[0]['write_chunk_records']} records")
        wall_latency(write_ms, "write_", wall, report)
    metrics["ok_rate"] = (attempted - failed) / attempted
    metrics["quality"] = sum(c["quality"] * c["sent"] for c in chunks) / sent
    wall["peak_rate"] = find_peak_rate(ex, traffic, seconds - ref_s, seed,
                                       report)
    setups += run_setups(ex, after, report)
    metrics["setup_s"] = statistics.median(setups)
    return metrics, wall, attempted, failed


TRAIN_CACHE = os.path.join(BUILD_DIR, "train_pr_auc.json")


def train_determinism(pr_aucs, report):
    """Every fit seed must give the same PR-AUC on every run: within this
    run, and against earlier runs of the same executable build (remembered
    in the build directory)."""
    stamp = os.stat(EXECUTABLE)
    key = f"{stamp.st_mtime_ns}:{stamp.st_size}"
    try:
        with open(TRAIN_CACHE) as f:
            cache = json.load(f)
        if cache.get("executable") != key:
            cache = {"executable": key, "pr_auc": {}}
    except (OSError, ValueError):
        cache = {"executable": key, "pr_auc": {}}
    for fit_seed, value in pr_aucs:
        known = cache["pr_auc"].setdefault(str(fit_seed), value)
        if known != value:
            report.append(f"MISMATCH: fit seed {fit_seed}: PR-AUC {value!r}, "
                          f"earlier {known!r}")
            raise BenchError("training is not deterministic")
    with open(TRAIN_CACHE, "w") as f:
        json.dump(cache, f)


def run_fits(ex, seconds, seed, traced, report, setups=None):
    """Back-to-back fits until `seconds` have passed (at least three, so a
    traced run has traced and untraced fits). Fit seeds cycle through
    FIT_SEEDS, starting where the run seed points. `traced`: trace every
    second fit (only those run the step poller). `setups`: a list that
    collects the CPU seconds of the set-ups run after each fit (not timed as
    part of the fits)."""
    fits = []
    start = time.monotonic()
    i = 0
    while time.monotonic() - start < seconds or len(fits) < 3:
        fit_seed = FIT_SEEDS[(seed + i) % len(FIT_SEEDS)]
        fit_traced = traced and i % 2 == 1
        reply = ex.call("phase", f"fit{i + 1}", 1, 1, 1 if fit_traced else 0,
                        fit_seed)
        reply["traced"] = fit_traced
        fits.append(reply)
        report.append(
            f"fit {i + 1}: seed={fit_seed} traced={int(fit_traced)} "
            f"ok={reply['fit_ok']} wall={reply['wall_s']:.3f} s "
            f"cpu={reply['cpu_s']:.3f} s steps={reply['counters']['train_steps']} "
            f"skipped={reply['counters']['train_skipped']} "
            f"pr_auc={reply['pr_auc']:.6f}")
        if setups is not None:
            setups += run_setups(ex, SETUP_REPEATS["train"][1], report)
        i += 1
    train_determinism([(f["fit_seed"], f["pr_auc"]) for f in fits], report)
    return fits


def train_untraced(ex, seconds, seed, report):
    setups = run_setups(ex, SETUP_REPEATS["train"][0], report)
    fits = run_fits(ex, seconds, seed, False, report, setups)
    metrics = {"setup_s": statistics.median(setups)}
    wall = {}
    wall["train_pairs_per_s"] = statistics.median(
        [f["pair_epochs"] / f["wall_s"] for f in fits])
    metrics["cpu_ms_per_op"] = statistics.median(
        f["cpu_s"] * 1000.0 / f["pair_epochs"] for f in fits)
    steps = sum(f["counters"]["train_steps"] for f in fits)
    bad = (sum(0 if f["fit_ok"] else 1 for f in fits) +
           sum(f["counters"]["train_skipped"] for f in fits))
    metrics["ok_rate"] = 1.0 - bad / max(1, steps)
    by_seed = {}
    for f in fits:
        by_seed[f["fit_seed"]] = f["pr_auc"]
    metrics["quality"] = sum(by_seed[s] for s in sorted(by_seed)) / len(by_seed)
    failed = sum(0 if f["fit_ok"] else 1 for f in fits)
    return metrics, wall, len(fits), failed


# --- traced run -------------------------------------------------------------

PER_LAYER_ZERO_NOTE = "not exercised by this workload (layer idle): 0"


def span_metrics(spans, out):
    """Residual: serving execute/re-rank time (or Fit time) not covered by
    the layer spans under it, from span self times."""
    selfs = stats.self_times(spans)
    residual_ms, covered_total, residual_total = [], 0, 0
    for name, start, end, span_id, _parent, _request in spans:
        if name in ("serve.execute", "serve.rerank_wait", "train.fit"):
            residual_ms.append(selfs[span_id] * 1e-6)
            covered_total += end - start
            residual_total += selfs[span_id]
    if residual_ms:
        out["obs.residual_ms.p50"] = statistics.median(residual_ms)
        out["obs.residual_share"] = residual_total / max(1, covered_total)
    model_ns = {}
    for name, start, end, *_ in spans:
        if name == "core.score_pairs":
            model_ns[(start, end)] = end - start
    return sum(model_ns.values())


def write_trace(workload, seed, spans):
    path = os.path.join(BUILD_DIR, "traces", f"{workload}-seed{seed}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump({"columns": ["name", "start_ns", "end_ns", "id", "parent",
                               "request"], "spans": spans}, f)
    return path


def serving_traced(ex, workload, traffic, seconds, seed, report, notes):
    out = {}
    run_setups(ex, 1, report)
    rate = traffic["reference_rate"]
    serving_phase(ex, "warmup", rate, WARMUP_S, False, seed * 1000 + 1, report)
    # The traced phase gets the untraced run's reference length, so its
    # percentiles have the same sample counts; the rest is untraced.
    traced_s = seconds * REFERENCE_SHARE[workload]
    plain = serving_phase(ex, "untraced", rate, seconds - traced_s, False,
                          seed * 1000 + 2, report)
    ref = serving_phase(ex, "traced", rate, traced_s, True, seed * 1000 + 3,
                        report)
    out["wall.p50_ms"] = soft_pct(plain["latency_ms"], 0.5, notes, "wall")
    out["wall.p99_ms"] = soft_pct(plain["latency_ms"], 0.99, notes, "wall")
    p50_plain = statistics.median([math.inf if v is None else v
                                   for v in plain["latency_ms"]])
    p50_traced = statistics.median([math.inf if v is None else v
                                    for v in ref["latency_ms"]])
    out["obs.trace_overhead_pct"] = (p50_traced - p50_plain) / p50_plain * 100
    out["load.lateness_ms.p50"] = soft_pct(ref["lateness_ms"], 0.5, notes, "lateness")
    out["load.lateness_ms.p99"] = soft_pct(ref["lateness_ms"], 0.99, notes, "lateness")
    b = ref["batcher"]
    out["serve.batch_pairs.mean"] = b["pairs_scored"] / max(1, b["batches"])
    out["serve.coalesced_share"] = b["coalesced_requests"] / max(1, b["submitted"])
    out["serve.rejected"] = b["rejected"]
    out["serve.timed_out"] = b["timed_out"]
    out["serve.failed"] = b["failed"]
    if workload == "score":
        out["serve.admit_us.p50"] = soft_pct(ref["call_us"], 0.5, notes, "admit")
        out["serve.admit_us.p99"] = soft_pct(ref["call_us"], 0.99, notes, "admit")
        out["serve.queue_wait_ms.p50"] = soft_pct(ref["queue_ms"], 0.5, notes, "queue")
        out["serve.queue_wait_ms.p99"] = soft_pct(ref["queue_ms"], 0.99, notes, "queue")
        out["serve.execute_ms.p50"] = soft_pct(ref["execute_ms"], 0.5, notes, "execute")
    else:
        call_ms = [v / 1000.0 for v in ref["call_us"]]
        out["serve.search_call_ms.p50"] = soft_pct(call_ms, 0.5, notes, "search call")
        out["serve.search_call_ms.p99"] = soft_pct(call_ms, 0.99, notes, "search call")
        rerank = [
            (s[2] - s[1]) * 1e-6 for s in ref["spans"] if s[0] == "serve.rerank_wait"]
        out["serve.rerank_wait_ms.p50"] = soft_pct(rerank, 0.5, notes, "rerank wait")
        out["serve.rerank_wait_ms.p99"] = soft_pct(rerank, 0.99, notes, "rerank wait")
        out["gallery.write_p50_ms"] = soft_pct(ref["write_ms"], 0.5, notes, "write")
        out["gallery.write_p99_ms"] = soft_pct(ref["write_ms"], 0.99, notes, "write")
        enroll = ref["enroll_call_ms"]
        out["gallery.enroll_chunk_ms.p99"] = soft_pct(enroll, 0.99, notes, "enroll")
        out["gallery.enroll_us_per_record"] = (
            sum(enroll) * 1000.0 / max(1, len(enroll) * ref["write_chunk_records"]))
    c = ref["counters"]
    out["text.embed_cache_hit_ratio"] = (
        c["embed_hits"] / max(1, c["embed_hits"] + c["embed_misses"]))
    out["nn.gemm_calls_per_pair"] = c["gemm_calls"] / max(1, b["pairs_scored"])
    model_ns = span_metrics(ref["spans"], out)
    out["nn.gemm_gflops"] = c["gemm_flops"] / max(1, model_ns)
    layers = ex.call("layers")
    if workload == "search":
        searches = layers.pop("gallery_search_ms")
        out["gallery.search_ms.p50"] = soft_pct(searches, 0.5, notes, "probe")
        out["gallery.search_ms.p99"] = soft_pct(searches, 0.99, notes, "probe")
    out.update(layers)
    report.append(f"spans: {len(ref['spans'])} written to "
                  f"{write_trace(workload, seed, ref['spans'])}")
    attempted = ref["sent"]
    failed = ref["sent"] - ref["ok"]
    return out, attempted, failed


def train_traced(ex, seconds, seed, report, notes):
    out = {}
    run_setups(ex, 1, report)
    fits = run_fits(ex, seconds, seed, True, report)
    traced = [f for f in fits if f["traced"]]
    # Step latency exists only where the step poller ran: the traced fits.
    steps_ms = [s for f in traced for s in f["step_ms"]]
    out["wall.p50_ms"] = soft_pct(steps_ms, 0.5, notes, "wall (traced steps)")
    out["wall.p99_ms"] = soft_pct(steps_ms, 0.99, notes, "wall (traced steps)")
    plain = [f["pair_epochs"] / f["wall_s"] for f in fits if not f["traced"]]
    rate_traced = statistics.median([f["pair_epochs"] / f["wall_s"] for f in traced])
    out["obs.trace_overhead_pct"] = (
        (statistics.median(plain) - rate_traced) / statistics.median(plain) * 100)
    steps = sum(f["counters"]["train_steps"] for f in traced)
    for part in ("forward", "backward", "optimizer"):
        out[f"train.{part}_ms_per_step"] = (
            sum(f["counters"][f"train_{part}_ns"] for f in traced) * 1e-6 /
            max(1, steps))
    pair_epochs = sum(f["pair_epochs"] for f in traced)
    out["nn.gemm_calls_per_pair"] = (
        sum(f["counters"]["gemm_calls"] for f in traced) / max(1, pair_epochs))
    fb_ns = sum(f["counters"]["train_forward_ns"] + f["counters"]["train_backward_ns"]
                for f in traced)
    out["nn.gemm_gflops"] = (
        sum(f["counters"]["gemm_flops"] for f in traced) / max(1, fb_ns))
    hits = sum(f["counters"]["embed_hits"] for f in traced)
    misses = sum(f["counters"]["embed_misses"] for f in traced)
    out["text.embed_cache_hit_ratio"] = hits / max(1, hits + misses)
    spans = [s for f in traced for s in f["spans"]]
    span_metrics(spans, out)
    report.append(f"spans: {len(spans)} written to "
                  f"{write_trace('train', seed, spans)}")
    out.update(ex.call("layers"))
    failed = sum(0 if f["fit_ok"] else 1 for f in fits)
    return out, len(fits), failed


def load_json(path):
    with open(path) as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    build()
    report = []
    notes = []
    ex = Executor(args.workload, args.seed)
    try:
        info = ex.call("info")
        report.append(
            f"perfbench workload={args.workload} seed={args.seed} "
            f"seconds={args.seconds:g} trace={args.trace} nproc={info['nproc']} "
            f"threads={json.dumps(info['threads'], sort_keys=True)} "
            f"(total {info['threads_total']}) "
            f"reference_rate={info['reference_rate']:g}/s "
            f"latency_limit_ms={info['latency_limit_ms']:g} "
            f"kernel_backend={info['kernel_backend']} "
            f"telemetry={'on' if info['telemetry'] else 'off'}")
        if info["threads_total"] > info["nproc"]:
            raise BenchError(f"{info['threads_total']} threads exceed nproc "
                             f"{info['nproc']}")
        if not info["telemetry"]:
            raise BenchError("telemetry is compiled out; the step and "
                             "counter reads need it")
        wall = {}
        if args.trace == 0:
            if args.workload == "train":
                metrics, wall, attempted, failed = train_untraced(
                    ex, args.seconds, args.seed, report)
            else:
                metrics, wall, attempted, failed = serving_untraced(
                    ex, args.workload, info, args.seconds, args.seed, report)
            specs = bench["end_to_end"]
        else:
            if args.workload == "train":
                metrics, attempted, failed = train_traced(
                    ex, args.seconds, args.seed, report, notes)
            else:
                metrics, attempted, failed = serving_traced(
                    ex, args.workload, info, args.seconds, args.seed, report,
                    notes)
            specs = bench["per_layer"]
        metrics.setdefault("peak_rss_mb", ex.call("info")["peak_rss_mb"])
    except BenchError as e:
        for line in report:
            print(line)
        log(f"perfbench: {e}")
        return 3
    finally:
        ex.close()

    result = {}
    for spec in specs:
        name = spec["name"]
        if name not in metrics:
            if args.trace == 0:
                log(f"perfbench: end-to-end metric {name} was not measured")
                return 3
            metrics[name] = 0
            notes.append(f"{name}: {PER_LAYER_ZERO_NOTE}")
        value = float(metrics[name])
        if not math.isfinite(value):
            for line in report:
                print(line)
            log(f"perfbench: {name} is not finite ({value})")
            return 3
        result[name] = {"value": value, "unit": spec["unit"]}
    for line in report + notes:
        print(line)
    for name, entry in result.items():
        print(f"metric {name} = {entry['value']:.6g} {entry['unit']}")
    for name, value in wall.items():
        unit = "ms" if name.endswith("_ms") else "1/s"
        print(f"wall-clock {name} = {value:.6g} {unit} (reported, not bounded)")
    print(json.dumps({"correct": True, "attempted": int(attempted),
                      "failed": int(failed), "metrics": result}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        log(f"perfbench: {e}")
        sys.exit(3)
