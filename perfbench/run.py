#!/usr/bin/env python3
"""The bgpsim benchmark: one command, four workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The command builds the release binaries
from source, runs the workload, checks its outputs, prints every metric
with its unit and sample count, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}. It exits nonzero when a
check fails. `--smoke` swaps in tiny inputs. See perfbench/README.md.
"""

import argparse
import hashlib
import http.client
import json
import os
import queue
import random
import shutil
import subprocess
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib as bl  # noqa: E402

E2E_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cold_p50_ms": "ms",
}
REPORT_UNITS = {"req_per_s": "1/s", "serve.rejected": "count", "serve.queue_depth_max": "count",
                "oracle_packets": "count", "oracle_memo_hits": "count"}
WORKERS = 2  # nproc of the reference box: runner workers, daemon executors, serve clients
SETUP_SAMPLES = 15
WARM_RERUNS = 9
SERVE_ROUND = 100  # requests per closed-loop round: 1/4 cold, 3/4 warm
SERVE_PRIMED = 24  # distinct warm specs primed before the loop

PROCS = []  # every process started, stopped and reaped before exit


class CheckFailed(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def spawn(cmd, env, **kw):
    proc = subprocess.Popen(cmd, env=env, **kw)
    PROCS.append(proc)
    return proc


def run_timed(cmd, env, stdout, stderr):
    """Runs `cmd` to completion; returns (seconds, exit code, maxrss KiB)."""
    started = time.perf_counter()
    proc = spawn(cmd, env, stdout=stdout, stderr=stderr)
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage.ru_maxrss


def stop_all():
    for proc in PROCS:
        if proc.poll() is None:
            proc.kill()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            pass


class Ctx:
    def __init__(self, args, root):
        self.root = root
        self.seed = args.seed
        self.seconds = args.seconds
        self.smoke = args.smoke
        self.trace = args.trace == 1
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("BGPSIM_")}
        self.work = os.path.join(root, ".perfbench_work", f"{args.workload}-{os.getpid()}")
        self.dirs = 0
        target = self.env.get("CARGO_TARGET_DIR") or os.path.join(root, "target")
        self.target = os.path.join(root, target) if not os.path.isabs(target) else target
        self.env["CARGO_TARGET_DIR"] = self.target
        release = os.path.join(self.target, "release")
        self.bgpsim = os.path.join(release, "bgpsim")
        self.all_figures = os.path.join(release, "all_figures")
        self.harness = os.path.join(release, "perfbench-harness")

    def fresh_dir(self):
        self.dirs += 1
        path = os.path.join(self.work, str(self.dirs))
        os.makedirs(path)
        return path


# ---------------------------------------------------------------- build


def build(ctx):
    steps = [
        ["cargo", "build", "--release", "-p", "bgpsim", "--bin", "bgpsim",
         "-p", "bgpsim-experiments", "--bin", "all_figures"],
        ["cargo", "build", "--release", "--manifest-path",
         os.path.join(ctx.root, "perfbench", "harness", "Cargo.toml")],
    ]
    for cmd in steps:
        proc = spawn(cmd, ctx.env, cwd=ctx.root, stdout=sys.stderr, stderr=sys.stderr)
        if proc.wait() != 0:
            raise SystemExit(f"build failed: {' '.join(cmd)}")
    out = subprocess.run([ctx.harness, "provenance"], env=ctx.env, capture_output=True, text=True)
    if out.returncode != 0 or json.loads(out.stdout)["debug_assertions"]:
        raise SystemExit("refusing to measure: the harness is not an optimized release build")


def provenance(ctx):
    """nproc, rustc, the git commit (when the checkout is a repository)
    and a digest of the measured sources (always)."""
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ctx.root,
                                capture_output=True, text=True, timeout=10).stdout.strip()
    except OSError:
        commit = ""
    digest = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "src", "crates", "vendor", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ctx.root, top)):
            dirnames[:] = sorted(d for d in dirnames if d not in ("target", "__pycache__"))
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ctx.root).encode() + b"\0")
                with open(path, "rb") as f:
                    digest.update(f.read())
        if os.path.isfile(os.path.join(ctx.root, top)):
            with open(os.path.join(ctx.root, top), "rb") as f:
                digest.update(top.encode() + b"\0" + f.read())
    return {"nproc": os.cpu_count(), "rustc": rustc or "unknown", "commit": commit or "none",
            "source": digest.hexdigest()[:16]}


# ---------------------------------------------------------- journals


def journal_jobs(path, skip=0):
    """The `job_done` records of a runner journal, after the first
    `skip` lines, and the journal's line count."""
    with open(path) as f:
        lines = f.readlines()
    done = [json.loads(line) for line in lines[skip:]]
    return [rec for rec in done if rec.get("event") == "job_done"], len(lines)


def journal_counters(path):
    sim = measure = job = 0.0
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            if rec.get("event") == "job_done":
                job += rec["elapsed_ms"]
                if rec.get("counters"):
                    sim += rec["counters"]["sim_ms"]
                    measure += rec["counters"]["measure_ms"]
    return sim, measure, job


def recover_samples(ctx, d, count):
    """Set-up time of a batch workload: `bgpsim recover` start-up plus
    replay of the run's journal against its cache, as a re-run pays."""
    samples = []
    for _ in range(count):
        secs, code, _ = run_timed(
            [ctx.bgpsim, "recover", "--journal", os.path.join(d, "journal.jsonl"),
             "--cache-dir", os.path.join(d, "cache")],
            ctx.env, subprocess.DEVNULL, subprocess.DEVNULL)
        if code != 0:
            raise CheckFailed(f"journal recovery of {d} is not clean (exit {code})")
        samples.append(secs)
    return samples


def rerun_warm(t, rerun):
    """Warm latency of a batch workload: the same invocation re-run
    against the last repetition's cache and journal, every job served
    from the cache. `rerun()` returns (seconds, jobs, failure or None)."""
    for _ in range(WARM_RERUNS):
        secs, jobs, why = rerun()
        t.attempted += jobs
        if why:
            t.fail(jobs, why)
        else:
            t.warm.append(secs * 1e3)


class Tally:
    def __init__(self):
        self.attempted = self.failed = 0
        self.errors = []
        self.wall, self.rss_kb, self.setup, self.cold, self.warm = [], [], [], [], []
        self.extra = {}  # reported, not in the JSON: (value, sample count)

    def fail(self, count, why):
        self.failed += count
        self.errors.append(why)

    def e2e(self):
        if not (self.wall and self.setup and self.cold and self.warm):
            raise CheckFailed("a metric has no samples")
        self.extra["warm_p50_ms"] = (bl.median(self.warm), len(self.warm))
        return {
            "wall_s": (bl.median(self.wall), len(self.wall)),
            "setup_s": (bl.median(self.setup), len(self.setup)),
            "peak_rss_mb": (bl.median(self.rss_kb) / 1024.0, len(self.rss_kb)),
            "cold_p50_ms": (bl.median(self.cold), len(self.cold)),
        }


def repeat(ctx, rep):
    """Runs `rep` for about --seconds: another repetition starts only
    while at least half of one still fits (always at least one)."""
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        rep()
        now = time.perf_counter()
        if now - start + (now - began) / 2 > ctx.seconds:
            return


def repeat_batch(ctx, t, rep):
    """`repeat` for a batch workload; `rep()` returns its run directory.
    Set-up samples are taken after every repetition, so they spread over
    the run like the repetitions do, and topped up after the last."""
    last = {}

    def one():
        last["dir"] = rep()
        t.setup += recover_samples(ctx, last["dir"], 5)

    repeat(ctx, one)
    t.setup += recover_samples(ctx, last["dir"], max(0, SETUP_SAMPLES - len(t.setup)))
    return last["dir"]


# ------------------------------------------------------------ paper_sweep


def paper_sweep(ctx):
    scale = "quick" if ctx.smoke else "paper"
    golden = None
    if not ctx.smoke:
        with open(os.path.join(ctx.root, "all_figures_paper.txt")) as f:
            golden = bl.golden_lines(f.read())
    t = Tally()
    last = {}

    def check_output(stdout_text, claims_passed):
        if not claims_passed:
            return "all_figures did not pass every paper-claim check"
        if golden is not None and bl.golden_lines(stdout_text) != golden:
            return "figure data differs from all_figures_paper.txt"
        return None

    if ctx.trace:
        d = ctx.fresh_dir()
        spans_file = os.path.join(d, "main-spans.jsonl")
        out = harness(ctx, ["trace-paper", "--scale", scale, "--dir", d,
                            "--bgpsim", ctx.bgpsim, "--spans", spans_file])
        with open(os.path.join(d, "stdout.txt")) as f:
            why = check_output(f.read(), out["failed_claims"] == 0)
        if why:
            t.fail(1, why)
        spans_dir = os.path.join(d, "spans")
        files = [spans_file] + [os.path.join(spans_dir, n) for n in sorted(os.listdir(spans_dir))]
        return traced_result(t, files)

    def sweep(d):
        """One all_figures run on d's cache and journal: (seconds, maxrss
        KiB, its job_done records, failure or None)."""
        journal = os.path.join(d, "journal.jsonl")
        skip = journal_jobs(journal)[1] if os.path.exists(journal) else 0
        out_path, err_path = os.path.join(d, "stdout.txt"), os.path.join(d, "stderr.txt")
        with open(out_path, "w") as out, open(err_path, "w") as err:
            secs, code, rss = run_timed(
                [ctx.all_figures, scale, "--jobs", str(WORKERS), "--cache-dir", os.path.join(d, "cache")],
                dict(ctx.env, BGPSIM_JOURNAL=journal), out, err)
        done, _ = journal_jobs(journal, skip)
        with open(out_path) as o, open(err_path) as e:
            why = check_output(o.read(), code == 0 and "all claim checks passed" in e.read())
        return secs, rss, done, why

    def rep():
        d = ctx.fresh_dir()
        secs, rss, done, why = sweep(d)
        t.attempted += len(done)
        if why:
            t.fail(len(done), why)
        t.wall.append(secs)
        t.rss_kb.append(rss)
        t.cold += [rec["elapsed_ms"] for rec in done if not rec["cached"]]
        return d

    def rerun():
        secs, _, done, why = sweep(last["dir"])
        if not why and any(not rec["cached"] for rec in done):
            why = "a warm re-run executed jobs"
        return secs, len(done), why

    last["dir"] = repeat_batch(ctx, t, rep)
    rerun_warm(t, rerun)
    return t


# ------------------------------------------- internet_400 / clique_control


def harness(ctx, args):
    out = subprocess.run([ctx.harness] + args, env=ctx.env, capture_output=True, text=True)
    if out.returncode != 0:
        raise CheckFailed(f"harness {args[0]} failed: {out.stderr.strip()[-500:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def spec_workload(ctx, jobs):
    job_args = []
    for job in jobs:
        job_args += ["--job", json.dumps(job)]
    t = Tally()
    if ctx.trace:
        d = ctx.fresh_dir()
        spans_file = os.path.join(d, "spans.jsonl")
        harness(ctx, ["trace-specs"] + job_args + ["--dir", d, "--bgpsim", ctx.bgpsim, "--spans", spans_file])
        return traced_result(t, [spans_file])
    last = {}

    def batch(d, cached, check=False):
        cmd = [ctx.harness, "batch"] + job_args + [
            "--dir", d, "--cached", str(int(cached)), "--check", str(int(check)),
            "--sample-seed", str(ctx.seed)]
        out_path = os.path.join(d, "out.json")
        with open(out_path, "w") as out:
            secs, code, _ = run_timed(cmd, ctx.env, out, sys.stderr)
        with open(out_path) as f:
            lines = f.read().strip().splitlines()
        if code != 0 or not lines:
            raise CheckFailed(f"harness batch exited {code}")
        res = json.loads(lines[-1])
        why = "; ".join(res["errors"]) or None
        if check and not why and res["checked_jobs"] != res["jobs"]:
            why = f"the oracle checked {res['checked_jobs']} of {res['jobs']} runs"
        if not check and not why and res["metrics_digest"] != last["digest"]:
            why = "metrics differ from those of the run checked against the oracle"
        return secs, res, why

    def rep():
        # The first repetition's runs are checked against the oracle
        # (untimed, after its readings); every later run must give the
        # same metrics.
        check = "digest" not in last
        d = ctx.fresh_dir()
        _, res, why = batch(d, False, check)
        t.attempted += res["jobs"]
        if why:
            t.fail(max(1, res["failed"]), why)
        done, _ = journal_jobs(os.path.join(d, "journal.jsonl"))
        t.wall.append(res["wall_s"])
        t.rss_kb.append(res["peak_rss_kb"])
        t.cold += [rec["elapsed_ms"] for rec in done if not rec["cached"]]
        if check:
            last["digest"] = res["metrics_digest"]
            t.extra["oracle_packets"] = (res["checked_packets"], res["checked_jobs"])
            t.extra["oracle_memo_hits"] = (res["checked_memo_hits"], res["checked_jobs"])
        return d

    def rerun():
        secs, res, why = batch(last["dir"], True)
        return secs, res["jobs"], why

    last["dir"] = repeat_batch(ctx, t, rep)
    rerun_warm(t, rerun)
    return t


def internet_400(ctx):
    # One fixed topology and run seed: see README ("internet_400").
    topology = "internet:29:%d" % ctx.seed if ctx.smoke else "internet:400:1"
    seeds = [ctx.seed] if ctx.smoke else [1]
    return spec_workload(ctx, [{"topology": topology, "event": "tdown", "seeds": seeds}])


def clique_control(ctx):
    seeds = random.Random(ctx.seed).sample(range(1, 1 << 30), 4)
    topology = "clique:8" if ctx.smoke else "clique:80"
    return spec_workload(ctx, [{"topology": topology, "event": "tdown", "seeds": seeds}])


# ----------------------------------------------------------- serve_mixed


class Daemon:
    """A `bgpsim serve` daemon on an ephemeral port over `d`'s cache and
    journal. Its stdout stays open (drained by a thread) for its life."""

    def __init__(self, ctx, d):
        started = time.perf_counter()
        log_file = open(os.path.join(d, "daemon.log"), "a")
        self.proc = spawn(
            [ctx.bgpsim, "serve", "--addr", "127.0.0.1:0", "--exec-workers", str(WORKERS),
             "--jobs", str(WORKERS), "--cache-dir", os.path.join(d, "cache"),
             "--journal", os.path.join(d, "journal.jsonl")],
            ctx.env, stdout=subprocess.PIPE, stderr=log_file, text=True)
        log_file.close()
        lines = queue.Queue()

        def pump():
            for line in self.proc.stdout:
                lines.put(line)

        threading.Thread(target=pump, daemon=True).start()
        while True:
            try:
                line = lines.get(timeout=30)
            except queue.Empty:
                raise CheckFailed("daemon did not report its address")
            if "listening on " in line:
                host, port = line.rsplit("listening on ", 1)[1].strip().rsplit(":", 1)
                self.host, self.port = host, int(port)
                break
        while True:
            try:
                status, _ = self.call("GET", "/v1/healthz")
                if status == 200:
                    break
            except OSError:
                pass
            if time.perf_counter() - started > 30:
                raise CheckFailed("daemon never became healthy")
            time.sleep(0.0005)
        self.setup_s = time.perf_counter() - started

    def call(self, method, path, body=None):
        conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            conn.request(method, path, body=body)
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def peak_rss_kb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        raise CheckFailed("daemon VmHWM unavailable")

    def drain(self):
        self.call("POST", "/v1/drain")
        code = self.proc.wait(timeout=60)
        if code != 0:
            raise CheckFailed(f"daemon exited {code} after drain")


def serve_plan(ctx, rng):
    """The primed warm specs and the request plan of the closed loop:
    rounds of SERVE_ROUND requests, one in four cold (small clique
    T_down/T_long specs with seeds never run before), the rest warm
    repeats of the primed specs, shuffled."""
    topologies = ["clique:4", "clique:5", "clique:6", "clique:7"]
    primed = []
    for i in range(SERVE_PRIMED):
        first = rng.randrange(1, 1 << 30)
        primed.append({"topology": topologies[i % 4], "event": ("tdown", "tlong")[i // 4 % 2],
                       "seeds": [first, first + 1]})
    fresh = rng.randrange(1 << 31, 1 << 40)
    per_round = 50 if ctx.smoke else SERVE_ROUND
    rounds = []
    for r in range(max(4, int(ctx.seconds * 10))):
        reqs = []
        for i in range(per_round):
            if i % 4 == 0:
                reqs.append(("cold", {"topology": topologies[(r + i // 4) % 4],
                                      "event": ("tdown", "tlong")[i // 4 % 2],
                                      "seeds": [fresh + r * per_round + i]}))
            else:
                reqs.append(("warm", primed[rng.randrange(len(primed))]))
        rng.shuffle(reqs)
        rounds.append(reqs)
    return primed, rounds


def serve_loop(ctx, d, daemon, requests, name, seconds, clients, traced=False):
    """Runs planned requests through the harness's closed-loop clients;
    returns (request records, round records, spans file)."""
    plan, out, spans = (os.path.join(d, f"{name}.{ext}") for ext in ("plan", "out", "spans"))
    with open(plan, "w") as f:
        for r, kind, spec, expect in requests:
            f.write(json.dumps({"round": r, "kind": kind, "body": json.dumps(spec),
                                "seeds": len(spec["seeds"]), "expect": expect}) + "\n")
    harness(ctx, ["serve-loop", "--addr", f"{daemon.host}:{daemon.port}", "--plan", plan, "--out", out,
                  "--seconds", str(seconds), "--clients", str(clients), "--trace", str(int(traced)),
                  "--spans", spans])
    with open(out) as f:
        recs = [json.loads(line) for line in f]
    return [r for r in recs if "kind" in r], [r for r in recs if "wall_s" in r], spans


def serve_mixed(ctx):
    rng = random.Random(ctx.seed)
    primed, plan = serve_plan(ctx, rng)
    t = Tally()
    d = ctx.fresh_dir()
    daemon = Daemon(ctx, d)
    reqs, _, _ = serve_loop(ctx, d, daemon, [(0, "prime", spec, None) for spec in primed], "prime", 0, 1)
    streams = {}
    for spec, rec in zip(primed, reqs):
        if rec["why"]:
            raise CheckFailed(f"priming request failed: {rec['why']}")
        streams[json.dumps(spec)] = rec["stream"]
    daemon.drain()
    for _ in range(SETUP_SAMPLES - 1):
        probe = Daemon(ctx, d)
        t.setup.append(probe.setup_s)
        probe.drain()
    daemon = Daemon(ctx, d)
    t.setup.append(daemon.setup_s)

    requests = [(r, kind, spec, streams[json.dumps(spec)] if kind == "warm" else None)
                for r, reqs_r in enumerate(plan) for kind, spec in reqs_r]
    depth = [0]
    done = threading.Event()

    def monitor():
        while not done.wait(0.02):
            try:
                _, body = daemon.call("GET", "/v1/stats")
                depth[0] = max(depth[0], json.loads(body)["queue_depth"])
            except (OSError, ValueError):
                pass

    mon = threading.Thread(target=monitor)
    if ctx.trace:
        mon.start()
    try:
        recs, rounds, spans_file = serve_loop(ctx, d, daemon, requests, "loop", ctx.seconds, WORKERS, ctx.trace)
    finally:
        done.set()
        if ctx.trace:
            mon.join()
    t.rss_kb.append(daemon.peak_rss_kb())
    _, body = daemon.call("GET", "/v1/stats")
    stats = json.loads(body)
    daemon.drain()

    parts = {"submit": [], "first": [], "stream": []}
    rejected = 0
    for rec in recs:
        t.attempted += 1
        if rec["status"] == 429 or rec["status"] >= 500:
            rejected += 1
        if rec["why"]:
            t.fail(1, f"{rec['kind']} request: {rec['why']}")
            continue
        (t.cold if rec["kind"] == "cold" else t.warm).append(rec["lat_ms"])
        parts["submit"].append(rec["submit_ms"])
        parts["first"].append(rec["first_ms"])
        parts["stream"].append(rec["lat_ms"] - rec["first_ms"])
    untraced = [r["wall_s"] for r in rounds if not r["traced"]]
    t.wall = untraced
    served = len(t.cold) + len(t.warm)
    per_round = len([r for r in requests if r[0] == 0])
    t.extra.update({
        "req_per_s": (per_round / bl.median(untraced), len(untraced)),
        "req_p50_ms": (bl.median(t.cold + t.warm), served),
        "serve.submit_ms": (bl.median(parts["submit"]), served),
        "serve.first_result_ms": (bl.median(parts["first"]), served),
        "serve.stream_ms": (bl.median(parts["stream"]), served),
        "serve.rejected": (rejected, t.attempted),
    })
    tail = bl.tail_percentile(t.cold + t.warm)
    if tail:
        t.extra["req_p%g_ms" % tail[0]] = (tail[1], tail[2])
    if not ctx.trace:
        return t

    # Layer decomposition of what the first round's cold requests ran,
    # with the runner probes on the daemon's own cache and journal.
    td = ctx.fresh_dir()
    specs_file = os.path.join(td, "spans.jsonl")
    job_args = []
    for kind, spec in plan[0]:
        if kind == "cold":
            job_args += ["--job", json.dumps(spec)]
    harness(ctx, ["trace-specs"] + job_args + ["--dir", td, "--probe-dir", d,
                                               "--bgpsim", ctx.bgpsim, "--spans", specs_file])
    t.extra["serve.queue_depth_max"] = (depth[0], len(rounds))
    result = traced_result(t, [specs_file, spans_file])
    traced = [r["wall_s"] for r in rounds if r["traced"]]
    sim_ms, measure_ms, job_ms = journal_counters(os.path.join(d, "journal.jsonl"))
    result.layers.update({
        "runner.jobs": stats["runner"]["jobs"],
        "runner.executed": stats["runner"]["executed"],
        "runner.cache_hit_ratio": stats["runner"]["cache_hits"] / max(1, stats["runner"]["jobs"]),
        "runner.sim_ms": sim_ms,
        "runner.measure_ms": measure_ms,
        "runner.job_ms": job_ms,
        "bench.trace_overhead_frac": bl.median(traced) / bl.median(untraced) - 1.0,
    })
    return result


# ---------------------------------------------------------------- traced


def traced_result(t, files):
    spans, counters, errors = bl.load_spans(files)
    if errors:
        t.fail(len(errors), "; ".join(errors[:5]))
    t.attempted += int(counters.get("runner.jobs", 0))
    t.layers = bl.layer_metrics(spans, counters)
    t.self_ms = {k: v / 1e6 for k, v in bl.self_time_by_name(spans).items()}
    t.figures = {s["span"]: s["end_ns"] - s["start_ns"] for s in spans if s["span"].startswith("experiments.fig")}
    return t


def reconcile(t):
    """Checks of the traced run that span every layer."""
    m = t.layers
    if m["runner.sim_ms"] + m["runner.measure_ms"] > m["runner.job_ms"]:
        t.fail(1, "runner.sim_ms + runner.measure_ms exceeds runner.job_ms")


WORKLOADS = {
    "paper_sweep": paper_sweep,
    "internet_400": internet_400,
    "clique_control": clique_control,
    "serve_mixed": serve_mixed,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args()

    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "Cargo.toml")) and os.path.isdir(os.path.join(root, "crates"))):
        log("perfbench: run from the root of a bgpsim checkout (no Cargo.toml and crates/ here)")
        return 2
    ctx = Ctx(args, root)
    try:
        build(ctx)
        os.makedirs(ctx.work)
        t = WORKLOADS[args.workload](ctx)
        if ctx.trace:
            reconcile(t)
    except CheckFailed as err:
        log(f"perfbench: check failed: {err}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        stop_all()
        shutil.rmtree(ctx.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(ctx.work))
        except OSError:
            pass

    prov = provenance(ctx)
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"nproc={prov['nproc']} rustc=\"{prov['rustc']}\" commit={prov['commit']} source={prov['source']}")
    if ctx.trace:
        values = {k: (v, "") for k, v in t.layers.items()}
        units = bl.LAYER_UNITS
    else:
        values = t.e2e()
        units = E2E_UNITS
    for name, (value, n) in list(values.items()) + list(t.extra.items()):
        unit = units.get(name) or REPORT_UNITS.get(name, "ms")
        print(f"{name:32} {value:14.6f} {unit:8} n={n}")
    if ctx.trace:
        layer_self = sorted(((v, k) for k, v in t.self_ms.items() if k in bl.DECOMPOSED), reverse=True)
        print("# self time of the decomposed layer spans (ms): "
              + ", ".join(f"{k}={v:.1f}" for v, k in layer_self))
        print("# self time of the other spans (ms): " + ", ".join(
            f"{k}={v:.1f}" for k, v in sorted(t.self_ms.items(), key=lambda kv: -kv[1])
            if k not in bl.DECOMPOSED))
        for name, ns in sorted(t.figures.items()):
            print(f"{name + '_ms':32} {ns / 1e6:14.3f} ms")
    failed_frac = t.failed / max(1, t.attempted)
    print(f"{'failed_frac':32} {failed_frac:14.6f} {'fraction':8} n={t.attempted}")
    for why in t.errors[:10]:
        print(f"# FAILED: {why}")
    correct = t.failed == 0
    metrics = {name: {"value": value, "unit": units[name]} for name, (value, _) in values.items()}
    print(json.dumps({"correct": correct, "attempted": max(1, t.attempted), "failed": t.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
