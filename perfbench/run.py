#!/usr/bin/env python3
"""Whole-campaign benchmark of the SUIT reproduction.

Runs one workload (a suit_fleet or suit_sweep campaign) from the root
of a source checkout:

    python3 perfbench/run.py --workload fleet_1m --seed 3 \
        --seconds 20 --trace 0

It builds the shipped CLIs and perfbench_probe from source into
.bench_build/, runs a --jobs 1 reference of the campaign, then runs the
campaign with --jobs 4 again and again for --seconds, checking every
output byte-for-byte against the reference.  With --trace 0 the last
line of stdout is a JSON object with the end-to-end metrics of
BENCHMARK.json; with --trace 1 it also runs the traced in-process probe
on the same inputs and reports the per-layer metrics instead.  Full
results, provenance and the recorded spans go to .bench_build/results/.

    python3 perfbench/run.py --self-test

runs every workload at reduced size, traced and untraced, on two seeds,
and checks the result format, the byte-identity checks and that the
outputs depend on the seed.  See README.md for the workloads and
metrics.
"""

import argparse
import concurrent.futures
import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
CMAKE_DIR = os.path.join(BUILD, "cmake")
JOBS = 4
# A campaign takes at most a few seconds; anything near this is a hang
# (and counts every unit of that campaign as failed).
CHILD_TIMEOUT_S = 60.0
# Stop starting campaigns past this point so a run ends well inside
# the 180 s a run may take.
RUN_BUDGET_S = 140.0
MIN_CAMPAIGNS = 3
# Set-up takes 0.1-0.5 ms and its level shifts from process to
# process, so it is sampled in several probe processes.
SETUP_PROCS = 9
SETUP_REPS = 21

# Each workload is one argument list shared by the CLI and the probe.
# "small" is the self-test size (fleet size stays >= the 5 racks).
WORKLOADS = {
    "fleet_1m": {
        "kind": "fleet",
        # The demo fleet with 255 trace variants per rack workload
        # (see the spec file): its work moves ~5 % with the seed, the
        # demo's own ~2x.  A run averages over several program seeds.
        "args": ["--spec", os.path.join(HERE, "fleet_1m.spec"),
                 "--domains", "1000000"],
        "small": ["--spec", os.path.join(HERE, "fleet_1m.spec"),
                  "--domains", "5000"],
        "seeds": 4,
    },
    "sweep_shared": {
        "kind": "sweep",
        "args": ["--cpu", "A", "--cores", "1,2,4",
                 "--strategy", "e,fV,hybrid", "--offset", "-70,-97",
                 "--workload", "all"],
        "small": ["--cpu", "A", "--cores", "1,2", "--strategy", "e,fV",
                  "--offset", "-97", "--workload", "557.xz,Nginx"],
    },
    "sweep_resume": {
        "kind": "resume",
        "args": ["--cpu", "A,B,C", "--cores", "1",
                 "--strategy", "e,f,V,fV,hybrid",
                 "--offset", "-50,-70,-97", "--workload", "all"],
        "stop_after": 560,
        "small": ["--cpu", "B,C", "--cores", "1", "--strategy", "e,fV",
                  "--offset", "-70", "--workload", "557.xz,Nginx,VLC"],
        "small_stop_after": 5,
    },
}


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


# ------------------------------------------------------------- build


def build():
    """Configure once, then bring the three binaries up to date."""
    for needed in ("CMakeLists.txt", "src", "tools/suit_fleet.cc",
                   "tools/suit_sweep.cc"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no SUIT source tree at %s (missing %s)" % (ROOT, needed))
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", CMAKE_DIR, "-j", str(JOBS),
                  "--target", "suit_fleet_cli", "suit_sweep_cli",
                  "perfbench_probe"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed; see %s" % log_path, 1)
    return {
        "suit_fleet": os.path.join(CMAKE_DIR, "tools", "suit_fleet"),
        "suit_sweep": os.path.join(CMAKE_DIR, "tools", "suit_sweep"),
        "probe": os.path.join(CMAKE_DIR, "perfbench_probe"),
    }


def provenance():
    cache = {}
    with open(os.path.join(CMAKE_DIR, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":", 1)[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"],
                                 capture_output=True, text=True,
                                 timeout=30).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        version = "unknown"
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True,
                             timeout=30)
        git_rev = rev.stdout.strip() if rev.returncode == 0 else ""
    except (OSError, subprocess.SubprocessError):
        git_rev = ""
    # Checkouts without git history still get a content identity.
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, n) for d, _, names in os.walk(path)
            for n in names)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return {
        "git_rev": git_rev or "unknown (not a git checkout)",
        "source_sha256": digest.hexdigest(),
        "compiler": "%s (%s)" % (version, compiler),
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "nproc": len(os.sched_getaffinity(0)),
        "jobs": JOBS,
    }


# ------------------------------------------------------------- processes


def spawn(argv, log_path):
    """Run one child to completion; wall, CPU and peak RSS of it."""
    killed = threading.Event()
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                cwd=ROOT)

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(CHILD_TIMEOUT_S, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "rc": None if killed.is_set() else proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }


def read_bytes(path):
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError:
        return None


class Campaign:
    """Command lines of one workload at one seed."""

    def __init__(self, name, seed, bins, work, small=False):
        spec = WORKLOADS[name]
        self.kind = spec["kind"]
        self.args = list(spec["small" if small else "args"])
        self.stop_after = spec.get(
            "small_stop_after" if small else "stop_after", 0)
        self.seed = str(seed)
        self.bins = bins
        self.work = work
        self.cli = bins["suit_fleet" if self.kind == "fleet"
                        else "suit_sweep"]

    def path(self, name):
        return os.path.join(self.work, name)

    def cli_argv(self, jobs, out, extra=()):
        flag = "--report-json" if self.kind == "fleet" else "--out"
        return ([self.cli] + self.args +
                ["--jobs", str(jobs), "--seed", self.seed, flag, out] +
                list(extra))

    def reference(self):
        """Serial, uninterrupted run; its output is the oracle."""
        out = self.path("reference.out")
        metrics = self.path("reference-metrics.json")
        run = spawn(self.cli_argv(1, out, ["--metrics", metrics]),
                    self.path("reference.log"))
        data = read_bytes(out)
        if run["rc"] != 0 or not data:
            return None
        with open(metrics) as f:
            counts = {m["name"]: m.get("count", 0)
                      for m in json.load(f)["metrics"]}
        if self.kind == "fleet":
            units = json.loads(data)["domains"]
        else:
            units = data.count(b"\n") - 1
        return {
            "bytes": data,
            "units": units,
            "events": counts.get("sim.events.total", 0),
            "batched": counts.get("sim.events.batched", 0),
        }

    def run_untraced(self, reference):
        """One --jobs 4 campaign; ok iff exit codes and bytes match."""
        out = self.path("campaign.out")
        if os.path.exists(out):
            os.remove(out)
        if self.kind != "resume":
            run = spawn(self.cli_argv(JOBS, out), self.path("campaign.log"))
            run["ok"] = run["rc"] == 0 and read_bytes(out) == reference
            return run
        journal = self.path("campaign.ckpt")
        if os.path.exists(journal):
            os.remove(journal)
        first = spawn(self.cli_argv(JOBS, out + ".leg1",
                                    ["--checkpoint", journal,
                                     "--stop-after", str(self.stop_after)]),
                      self.path("leg1.log"))
        second = spawn(self.cli_argv(JOBS, out,
                                     ["--checkpoint", journal, "--resume"]),
                       self.path("leg2.log"))
        return {
            "wall_s": first["wall_s"] + second["wall_s"],
            "resume_s": second["wall_s"],
            "cpu_s": first["cpu_s"] + second["cpu_s"],
            "peak_rss_mb": max(first["peak_rss_mb"],
                               second["peak_rss_mb"]),
            # SIGINT-style graceful stop exits 130.
            "ok": (first["rc"] == 130 and second["rc"] == 0 and
                   read_bytes(out) == reference),
        }

    def probe_argv(self, extra):
        kind = "fleet" if self.kind == "fleet" else "sweep"
        argv = [self.bins["probe"], kind] + self.args + [
            "--jobs", str(JOBS), "--seed", self.seed]
        if self.kind == "resume":
            argv += ["--checkpoint", self.path("probe.ckpt"),
                     "--stop-after", str(self.stop_after)]
        return argv + list(extra)

    def setup_samples(self):
        """Set-up times from one probe process, or None."""
        try:
            proc = subprocess.run(
                self.probe_argv(["--setup-reps", str(SETUP_REPS)]),
                capture_output=True, text=True, cwd=ROOT,
                timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None
        if proc.returncode != 0:
            return None
        return json.loads(proc.stdout.splitlines()[-1])["setup_s"]

    def run_traced(self, reference, spans_path):
        out = self.path("probe.out")
        if os.path.exists(out):
            os.remove(out)
        try:
            proc = subprocess.run(
                self.probe_argv(["--out", out, "--spans", spans_path]),
                capture_output=True, text=True, cwd=ROOT,
                timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None
        if proc.returncode != 0 or read_bytes(out) != reference:
            return None
        return json.loads(proc.stdout.splitlines()[-1])


# ------------------------------------------------------------- metrics


def median(values):
    return statistics.median(values) if values else 0.0


def run_workload(name, seed, seconds, trace, small=False, quiet=False):
    """Measure one workload; returns (result line, full record)."""
    contract = load_contract()
    bins = build()
    work = os.path.join(BUILD, "work", "%s-%d" % (name, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    results_dir = os.path.join(BUILD, "results")
    os.makedirs(results_dir, exist_ok=True)
    tag = "%s-seed%s-trace%d" % (name, seed, trace)
    # Program seeds seed*k .. seed*k+k-1: disjoint for distinct seeds.
    k = WORKLOADS[name].get("seeds", 1)
    campaigns = []
    for i in range(k):
        sub = os.path.join(work, str(i))
        os.makedirs(sub)
        campaigns.append(Campaign(name, seed * k + i, bins, sub, small))
    started = time.perf_counter()

    # References are serial runs, so JOBS of them share the machine.
    with concurrent.futures.ThreadPoolExecutor(JOBS) as pool:
        refs = list(pool.map(Campaign.reference, campaigns))
    runs = [[] for _ in campaigns]
    traced = []
    setup_procs = []
    attempted = failed = 0
    if any(ref is None for ref in refs):
        attempted = failed = 1
    else:
        # Cycle over the program seeds until each has MIN_CAMPAIGNS
        # (one when there are several seeds) and --seconds are spent.
        need = MIN_CAMPAIGNS if k == 1 else 1
        # One untimed campaign first: the first after the references
        # runs up to 2x slow (cold page cache and CPU clocks).
        warmup = campaigns[0].run_untraced(refs[0]["bytes"])
        attempted += refs[0]["units"]
        failed += 0 if warmup["ok"] else refs[0]["units"]
        measure_start = time.perf_counter()
        for n in itertools.count():
            i = n % k
            run = campaigns[i].run_untraced(refs[i]["bytes"])
            runs[i].append(run)
            if n < SETUP_PROCS:
                setup_procs.append(campaigns[0].setup_samples())
            attempted += refs[i]["units"]
            failed += 0 if run["ok"] else refs[i]["units"]
            elapsed = time.perf_counter() - measure_start
            if ((min(len(r) for r in runs) >= need and elapsed >= seconds)
                    or time.perf_counter() - started > RUN_BUDGET_S):
                break
        if trace:
            # Traced repetitions of the first program seed get half the
            # measuring time again.
            spans = os.path.join(results_dir, tag + "-spans.json")
            traced_start = time.perf_counter()
            while time.perf_counter() - started < RUN_BUDGET_S:
                probe = campaigns[0].run_traced(refs[0]["bytes"], spans)
                attempted += refs[0]["units"]
                if probe is None:
                    failed += refs[0]["units"]
                    break
                traced.append(probe)
                if time.perf_counter() - traced_start >= seconds / 2:
                    break
    # Set-up is sampled between campaigns, with the machine as warm as
    # the campaigns see it.
    while len(setup_procs) < SETUP_PROCS:
        setup_procs.append(campaigns[0].setup_samples())
    setup = None if None in setup_procs else sum(setup_procs, [])
    shutil.rmtree(work, ignore_errors=True)

    # Medians over every campaign: the program seeds of a run carry
    # nearly equal work, so their campaigns are comparable samples.
    good = [r for rs in runs for r in rs if r["ok"]]
    values = {}
    if good:
        wall = median([r["wall_s"] for r in good])
        units = statistics.fmean(r["units"] for r in refs)
        events = statistics.fmean(r["events"] for r in refs)
        values = {
            "wall_s": wall,
            "units_per_s": units / wall,
            "sim_events_per_s": events / wall,
            "cpu_s": median([r["cpu_s"] for r in good]),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in good]),
        }
        if setup:
            values["setup_s"] = median(setup)
    layer = {}
    first = [r for r in runs[0] if r["ok"]]
    if values and traced and first:
        ref = refs[0]
        # A layer the workload does not exercise (fleet.* on the
        # sweeps, the journal off sweep_resume) reads 0.
        for metric in contract["per_layer"]:
            layer[metric["name"]] = median(
                [t.get(metric["name"], 0.0) for t in traced])
        layer["sim.events_per_s"] = median(
            [ref["events"] / t["sim.busy_s"] for t in traced])
        layer["sim.batched_share"] = ref["batched"] / ref["events"]
        untraced_wall = median([r["wall_s"] for r in first])
        layer["exec.resume_s"] = median(
            [r.get("resume_s", 0.0) for r in first])
        layer["obs.trace_overhead_pct"] = 100.0 * (
            median([t["wall_s"] for t in traced]) - untraced_wall) / \
            untraced_wall
    wanted = contract["per_layer" if trace else "end_to_end"]
    source = layer if trace else values
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in source}
    correct = (failed == 0 and setup is not None and
               len(metrics) == len(wanted))
    line = {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}
    record = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": trace, "small": small,
        "provenance": provenance(),
        "program_seeds": [int(c.seed) for c in campaigns],
        "units": [r["units"] for r in refs if r],
        "sim_events_total": [r["events"] for r in refs if r],
        "failed_frac": failed / attempted,
        "end_to_end": values, "per_layer": layer,
        "campaigns": runs, "traced": traced, "setup_s": setup,
        "reference_sha256": [hashlib.sha256(r["bytes"]).hexdigest()
                             for r in refs if r],
    }
    with open(os.path.join(results_dir, tag + ".json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    if not quiet:
        report(record, contract)
    return line, record


def report(record, contract):
    """Human-readable summary; the JSON result line follows it."""
    p = record["provenance"]
    print("perfbench %s seed %s: %d campaigns over program seeds %s + "
          "%d traced, %s units each"
          % (record["workload"], record["seed"],
             sum(len(r) for r in record["campaigns"]),
             record["program_seeds"], len(record["traced"]),
             record["units"][0] if record["units"] else 0))
    print("  build: %s, %s, nproc %d, --jobs %d, rev %s, source %s"
          % (p["compiler"], p["build_type"], p["nproc"], p["jobs"],
             p["git_rev"], p["source_sha256"][:16]))
    print("  %-28s %14.6g %s" % ("failed_frac", record["failed_frac"], "1"))
    for group, values in (("end_to_end", record["end_to_end"]),
                          ("per_layer", record["per_layer"])):
        for metric in contract[group]:
            if metric["name"] in values:
                print("  %-28s %14.6g %s" % (metric["name"],
                                             values[metric["name"]],
                                             metric["unit"]))


# ------------------------------------------------------------- self-test


def self_test():
    """Reduced-size run of every workload, traced and untraced."""
    contract = load_contract()
    digests = {}
    problems = []
    for name in WORKLOADS:
        for seed in (1, 2):
            for trace in (0, 1):
                line, record = run_workload(name, seed, 1, trace,
                                            small=True, quiet=True)
                wanted = contract["per_layer" if trace else "end_to_end"]
                names = sorted(m["name"] for m in wanted)
                where = "%s seed %d trace %d" % (name, seed, trace)
                if not line["correct"] or line["failed"] != 0:
                    problems.append(where + ": not correct")
                if sorted(line["metrics"]) != names:
                    problems.append(where + ": metric names differ")
                if not trace and any(m["value"] <= 0
                                     for m in line["metrics"].values()):
                    problems.append(where + ": end-to-end value <= 0")
                digests.setdefault(name, set()).add(
                    (seed, tuple(record["reference_sha256"])))
                print("self-test %-34s ok=%s attempted=%d" %
                      (where, line["correct"], line["attempted"]))
        if len({d for _, d in digests[name]}) != 2:
            problems.append(name + ": outputs do not change with the seed")
    for problem in problems:
        print("self-test FAILED: " + problem)
    print("self-test %s" % ("passed" if not problems else "failed"))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    line, _ = run_workload(args.workload, args.seed, args.seconds,
                           args.trace)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
