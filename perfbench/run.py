#!/usr/bin/env python3
"""ProbGraph serving benchmark.

    python3 perfbench/run.py --workload mine|point|churn --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout. Builds the library, pgtool and the
benchmark's own programs into .bench_build/, generates the workload's input
graph from the seed, and then either

  --trace 0: times `pgtool build` + `pgtool serve --listen` and drives the
             server over loopback TCP, checking every reply against the
             benchmark's own exact computations, or
  --trace 1: replays the workload in-process through the layers' public
             functions and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Everything else (host context, the traced
self-time table) goes to the lines before it. Each result is also appended
to .bench_build/results/<workload>.jsonl for perfbench/compare.py.
"""
import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "cmake")
WORKLOADS = ("mine", "point", "churn")
SETUP_REPEATS = 3
PHASE_TIMEOUT_S = 150

_children = []


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg, code=1):
    log("perfbench: " + msg)
    stop_all()
    sys.exit(code)


def stop_all():
    for p in _children:
        stop_process(p)


def stop_process(p):
    if p.poll() is None:
        p.send_signal(signal.SIGTERM)
        try:
            p.wait(timeout=10)
        except subprocess.TimeoutExpired:
            p.kill()
            p.wait()


def run(cmd, timeout, **kw):
    p = subprocess.Popen(cmd, **kw)
    _children.append(p)
    try:
        p.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop_process(p)
        fail("timed out: " + " ".join(cmd))
    finally:
        _children.remove(p)
    return p.returncode


# --- Build. ---

def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no ProbGraph sources next to perfbench/ (run from a checkout root)", 2)
    os.makedirs(OUT, exist_ok=True)
    logf = os.path.join(OUT, "build.log")
    jobs = str(os.cpu_count() or 1)
    with open(logf, "w") as out:
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            if run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"] + gen,
                   600, stdout=out, stderr=subprocess.STDOUT) != 0:
                fail("cmake configure failed, see " + logf)
        if run(["cmake", "--build", BUILD, "--target", "pgtool", "pgbench", "pgbench_trace",
                "-j", jobs], 880, stdout=out, stderr=subprocess.STDOUT) != 0:
            fail("build failed, see " + logf)
    return {name: os.path.join(BUILD, name) for name in ("pgbench", "pgbench_trace")} | {
        "pgtool": os.path.join(BUILD, "probgraph", "pgtool")}


def build_type():
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            m = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", f.read(), re.M)
            return m.group(1) if m else "unknown"
    except OSError:
        return "unknown"


# --- Inputs: generated from the seed, cached per (workload, seed). ---

def inputs(bins, workload, seed):
    # The cache key includes the generator's source, so a changed generator
    # never reuses stale inputs.
    h = hashlib.sha1()
    for name in ("common.hpp", "client.cpp"):
        with open(os.path.join(HERE, "src", name), "rb") as f:
            h.update(f.read())
    d = os.path.join(OUT, "inputs", "%s-%d-%s" % (workload, seed, h.hexdigest()[:12]))
    if os.path.isfile(os.path.join(d, "done")):
        return d
    tmp = d + ".tmp%d" % os.getpid()
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    if run([bins["pgbench"], "gen", "--workload", workload, "--seed", str(seed), "--out", tmp],
           300) != 0:
        fail("input generation failed")
    open(os.path.join(tmp, "done"), "w").close()
    shutil.rmtree(d, ignore_errors=True)
    os.rename(tmp, d)
    return d


def read_truth(d):
    with open(os.path.join(d, "truth.txt")) as f:
        return dict(line.strip().split("=", 1) for line in f if "=" in line)


# --- The server under test. ---

class Server:
    def __init__(self, pgtool, snapshot, live, log_path):
        cmd = [pgtool, "serve", snapshot, "--listen", "0"] + (["--live"] if live else [])
        self.log_path = log_path
        self.log = open(log_path, "w")
        self.proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                     stderr=self.log)
        _children.append(self.proc)
        self.port = None

    def wait_port(self, timeout=60):
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            with open(self.log_path) as f:
                m = re.search(r"listening on 127\.0\.0\.1:(\d+)", f.read())
            if m:
                self.port = int(m.group(1))
                return self.port
            if self.proc.poll() is not None:
                break
            time.sleep(0.0005)
        fail("server did not start, see " + self.log_path)

    def rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            m = re.search(r"^VmHWM:\s+(\d+) kB", f.read(), re.M)
        return int(m.group(1)) / 1024.0 if m else None

    def stop(self):
        stop_process(self.proc)
        _children.remove(self.proc)
        self.log.close()


def request(port, line, timeout=30):
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as s:
        s.sendall((line + "\n").encode())
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = s.recv(65536)
            if not chunk:
                break
            buf += chunk
    return buf.decode().rstrip("\n")


# --- One untraced run. ---

class Run:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.interactive = None
        self.qps = None
        self.samples = {}
        self.dev = {}
        self.kernel_level = ""

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)

    def add(self, t, native):
        self.attempted += t["attempted"]
        self.failed += t["failed"]
        self.errors += t["errors"]
        if t["interactive"]["count"]:
            self.interactive = t["interactive"]
            self.qps = t["qps"]
        for k, v in t["samples_ms"].items():
            self.samples.setdefault(k, []).extend(v)
        # Deviation counts only the workload's own traffic; probe answers
        # are checked but do not enter it.
        for kind, groups in (t["dev"] if native else {}).items():
            for g, (s, b) in groups.items():
                acc = self.dev.setdefault(kind, {}).setdefault(g, [0.0, 0.0])
                acc[0] += s
                acc[1] += b
        self.kernel_level = self.kernel_level or t["kernel_level"]

    def rel_dev(self, kind):
        # Mean over answer groups (tc, cc, clusters, kept_edges, 4cc, pair)
        # of each group's mean |e-x|/x; the pair group pools Σ|e-x| / Σx.
        groups = self.dev.get(kind, {})
        vals = [s / b for s, b in groups.values() if b > 0]
        return sum(vals) / len(vals) if vals else None


def drive(bins, workload, phase, d, port, seed, seconds, r):
    cmd = [bins["pgbench"], "drive", "--workload", workload, "--phase", phase, "--dir", d,
           "--port", str(port), "--seed", str(seed), "--seconds", str(seconds)]
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    _children.append(p)
    try:
        out, _ = p.communicate(timeout=PHASE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_process(p)
        fail("phase %s timed out" % phase)
    finally:
        _children.remove(p)
    if p.returncode != 0 or not out.strip():
        fail("phase %s exited with %d" % (phase, p.returncode))
    r.add(json.loads(out.strip().splitlines()[-1]), phase == "window")


def setup(bins, d, work, live, truth, r):
    """Times pgtool build on the edge list until the server's first reply,
    SETUP_REPEATS times; returns (median seconds, last server, snapshot)."""
    times = []
    server = snap = None
    for i in range(SETUP_REPEATS):
        if server is not None:
            server.stop()
            os.remove(snap)
        snap = os.path.join(work, "g%d.pgs" % i)
        t0 = time.perf_counter()
        code = run([bins["pgtool"], "build", os.path.join(d, "edges.el"), "-o", snap,
                    "--kinds", "bf,kmv", "--orient", "both"], 300,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        r.check(code == 0, "pgtool build exited with %d" % code)
        if code != 0:
            fail("pgtool build failed")
        server = Server(bins["pgtool"], snap, live, os.path.join(work, "serve%d.log" % i))
        reply = request(server.wait_port(), "stats")
        times.append(time.perf_counter() - t0)
        f = dict(x.split("=", 1) for x in reply.split("\t")[2:] if "=" in x)
        r.check(reply.startswith("ok\tstats\t") and f.get("n") == truth["n"]
                and f.get("m") == truth["m"], "first reply: " + reply[:120])
    return statistics.median(times), server, snap


def untraced(bins, workload, seed, seconds, d):
    truth = read_truth(d)
    work = os.path.join(OUT, "run", "%s-%d-%d" % (workload, seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    r = Run()
    try:
        setup_s, server, snap = setup(bins, d, work, workload == "churn", truth, r)
        snapshot_mb = os.path.getsize(snap) / 1e6
        port = server.port
        drive(bins, workload, "window", d, port, seed, seconds, r)
        if workload == "point":
            drive(bins, workload, "scan", d, port, seed, seconds, r)
        rss = server.rss_mb()
        server.stop()
        if workload != "churn":
            # Seal probe on a second, --live server over the same snapshot.
            live = Server(bins["pgtool"], snap, True, os.path.join(work, "live.log"))
            drive(bins, workload, "seal", d, live.wait_port(), seed, seconds, r)
            live.stop()
    finally:
        stop_all()
        shutil.rmtree(work, ignore_errors=True)

    med = lambda k: statistics.median(r.samples[k]) if r.samples.get(k) else None
    values = {
        "setup_s": setup_s,
        "snapshot_mb": snapshot_mb,
        "server_rss_mb": rss,
        "tc_ms": med("tc_ms"),
        "cc_ms": med("cc_ms"),
        "cluster_ms": med("cluster_ms"),
        "4cc_ms": med("4cc_ms"),
        "exact_ms": med("exact_ms"),
        "p50_us": r.interactive and r.interactive["p50_us"],
        "p99_us": r.interactive and r.interactive["p99_us"],
        "qps": r.qps,
        "seal_ms": med("seal_ms"),
        "bf_rel_dev": r.rel_dev("bf"),
        "kmv_rel_dev": r.rel_dev("kmv"),
    }
    for e in r.errors[:8]:
        log("perfbench: failed: " + e)
    extra = {"interactive_samples": r.interactive and r.interactive["count"],
             "interactive_p99_all_us": r.interactive and r.interactive["p99_all_us"],
             "kernel_level": r.kernel_level,
             "samples_ms": {k: len(v) for k, v in r.samples.items()},
             "rel_dev_groups": {kind: {g: s / b for g, (s, b) in groups.items() if b > 0}
                                for kind, groups in r.dev.items()}}
    return r, values, extra


# --- One traced run. ---

def traced(bins, workload, seed, seconds, d):
    os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
    spans = os.path.join(OUT, "traces", "%s-%d.jsonl" % (workload, seed))
    p = subprocess.Popen([bins["pgbench_trace"], "--workload", workload, "--dir", d,
                          "--seed", str(seed), "--spans", spans], stdout=subprocess.PIPE,
                         text=True)
    _children.append(p)
    try:
        out, _ = p.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        stop_process(p)
        fail("traced replay timed out")
    finally:
        _children.remove(p)
    if p.returncode != 0 or not out.strip():
        fail("traced replay exited with %d" % p.returncode)
    lines = out.strip().splitlines()
    t = json.loads(lines[-1])
    for line in lines[:-1]:
        print("trace " + line)
    m = t["metrics"]
    # Tracing overhead: the traced replay's own interactive round trip with
    # spans on and off, next to the untraced run's p50 for the same seed.
    untraced_p50 = None
    try:
        with open(os.path.join(OUT, "results", workload + ".jsonl")) as f:
            for line in f:
                rec = json.loads(line)
                if rec["seed"] == seed and not rec["trace"]:
                    untraced_p50 = rec["result"]["metrics"].get("p50_us", {}).get("value")
    except (OSError, ValueError):
        pass
    print("trace overhead: in-process pair round trip p50 %.2f us with spans, %.2f us "
          "without; untraced run p50_us %s" % (
              m["net.rtt_us.threads"], m["trace.rtt_us.spans_off"],
              "%.2f us" % untraced_p50 if untraced_p50 else "not recorded for this seed"))
    extra = {"spans": os.path.relpath(spans, ROOT),
             "rtt_us_spans_off": m["trace.rtt_us.spans_off"]}
    r = Run()
    r.attempted, r.failed = t["attempted"], t["failed"]
    return r, m, extra


# --- Host context. ---

def host_context(bins):
    calib = json.loads(subprocess.run([bins["pgbench"], "calib"], capture_output=True,
                                      text=True, timeout=60).stdout)
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            m = re.search(r"^model name\s*:\s*(.*)$", f.read(), re.M)
            cpu = m.group(1) if m else cpu
    except OSError:
        pass
    commit = "unknown"
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=10).stdout.strip() or commit
    except (OSError, subprocess.SubprocessError):
        pass
    return {"nproc": calib["nproc"], "effective_parallelism": calib["effective_parallelism"],
            "cpu_model": cpu, "build_type": build_type(),
            "omp_num_threads": os.environ.get("OMP_NUM_THREADS", "unset (nproc)"),
            "git_commit": commit}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: fail("terminated", 143))

    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        fail("BENCHMARK.json not found at the checkout root", 2)
    spec = load_spec()
    bins = build()
    host = host_context(bins)
    d = inputs(bins, a.workload, a.seed)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    if a.trace:
        r, values, extra = traced(bins, a.workload, a.seed, a.seconds, d)
        wanted = [m["name"] for m in spec["per_layer"]]
    else:
        r, values, extra = untraced(bins, a.workload, a.seed, a.seconds, d)
        wanted = [m["name"] for m in spec["end_to_end"]]
        host["kernel_level"] = extra["kernel_level"]

    missing = [k for k in wanted if values.get(k) is None]
    metrics = {k: {"value": values[k], "unit": units[k]} for k in wanted if k not in missing}
    correct = not missing
    if missing:
        log("perfbench: no value for " + ", ".join(missing))
    result = {"correct": correct, "attempted": r.attempted, "failed": r.failed,
              "metrics": metrics}
    for k, v in sorted(host.items()):
        print("host %s: %s" % (k, v))
    print("workload %s seed %d: attempted %d, failed %d; %s" % (
        a.workload, a.seed, r.attempted, r.failed, json.dumps(extra, sort_keys=True)))
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", a.workload + ".jsonl"), "a") as f:
        f.write(json.dumps({"workload": a.workload, "seed": a.seed, "trace": a.trace,
                            "seconds": a.seconds, "time": time.time(), "host": host,
                            "extra": extra, "result": result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
