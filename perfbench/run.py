#!/usr/bin/env python3
"""End-to-end benchmark of edsim.

Builds the simulator and the edbench binary (Release) from the checkout's
own sources, runs one workload in its own process and prints, as the last
line of standard output, one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.

    python3 perfbench/run.py --workload mpeg2_decode --seed 1 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json from untraced
passes; --trace 1 reports its per-layer metrics from a traced pass and
writes the spans to .bench_out/trace-<workload>-s<seed>.json, which
Perfetto (ui.perfetto.dev) and chrome://tracing load. Every run also
writes its full result, with machine context, to
.bench_out/result-<workload>-s<seed>-trace<k>.json.

--record stores the digest of this (workload, seed) in perfbench/digests.txt
instead of checking against it; use it only after a change that is meant
to alter simulated results.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(d):
        d = os.path.join(ROOT, d)
    return os.path.join(d, "perfbench")


def build():
    """Configure (once) and build; a no-op build takes about a second."""
    out = build_dir()
    cache = os.path.join(out, "CMakeCache.txt")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", out, "-G", "Ninja",
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "edbench"])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
        if r.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    with open(cache) as f:
        if "CMAKE_BUILD_TYPE:STRING=Release\n" not in f.read():
            fail("refusing to measure a non-Release build in " + out)
    return os.path.join(out, "edbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no simulator sources (src/) next to perfbench/")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    exe = build()
    out_dir = os.path.join(ROOT, ".bench_out")
    digests = os.path.join(HERE, "digests.txt")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", out_dir, "--digests", digests]
    if args.record:
        cmd.append("--record")
    env = dict(os.environ, EDSIM_THREADS="1")
    r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                       cwd=ROOT, timeout=RUN_TIMEOUT_S)
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        sys.stdout.write(r.stdout)
        fail("edbench exited with code %d" % r.returncode)
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    got = result["metrics"]
    names = [m["name"] for m in wanted]
    if sorted(got) != sorted(names):
        fail("metric set differs from BENCHMARK.json: missing %s, extra %s"
             % (sorted(set(names) - set(got)), sorted(set(got) - set(names))))
    for m in wanted:
        if got[m["name"]]["unit"] != m["unit"]:
            fail("unit of %s is %s, BENCHMARK.json says %s"
                 % (m["name"], got[m["name"]]["unit"], m["unit"]))

    if args.record:
        record = [l[len("record: "):] for l in lines
                  if l.startswith("record: ")]
        keep = []
        if os.path.exists(digests):
            with open(digests) as f:
                keep = [l.rstrip("\n") for l in f
                        if not l.startswith("%s %d " % (args.workload,
                                                        args.seed))]
        with open(digests, "w") as f:
            f.write("\n".join(keep + record) + "\n")

    with open(os.path.join(out_dir, "result-%s-s%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)),
              "w") as f:
        json.dump(dict(result, workload=args.workload, seed=args.seed,
                       seconds=args.seconds, trace=args.trace), f, indent=1)

    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {n: got[n] for n in names},
    }))


if __name__ == "__main__":
    main()
