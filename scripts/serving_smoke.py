#!/usr/bin/env python3
"""CI smoke test for the `skild` serving daemon.

Generates a mixed JSONL batch — clean programs on a sweep of mesh
shapes (2x2, 1x3, 4x4), both engines (vm, native), Skil runtime
errors, crash fault plans, malformed requests (among them the walker,
which is not on the wire), raw non-JSON garbage, and a stats query — streams it through one `skild` process,
and asserts the daemon:

  - stays alive to stdin EOF and exits 0 (no restart, no crash);
  - answers every request with exactly one structured JSON line;
  - classifies each outcome correctly (`ok` / `runtime` / `bad_request`),
    matched by echoed request id;
  - serves >90% of compiles from the program cache at this volume
    (native requests included: machine code is compiled once per
    program and reused);
  - reports per-shape pool counters for every mesh in the sweep.

Two probes of the daemon's bounded stores replace the batch:

  --sweep N   N distinct sources (the gauss template with a new constant
              each), the golden shortest_paths program every 50 of them.
              Asserts from `{"cmd":"stats"}` that the cache evicted and
              holds no more than its budget, that the golden program hit
              every time after its first, and that VmHWM stayed under
              SWEEP_HWM_MB.
  --shapes N  one program on each of N distinct meshes, 1x1 ... 1xN: a
              one-line program beyond 1x60, then the compute-bound
              horner example (whose runs recruit helper threads) on
              1x1 ... 1x60, whose machines the pool then still holds.
              Asserts that the idle pool dropped machines
              (`machines_evicted`), that VmHWM stayed under
              SHAPES_HWM_MB, and that pooled machines own no thread and
              no stack: Threads is at most the daemon's own plus one
              idle helper per core, and VmSize at most the idle stacks'
              8 MiB each plus SHAPES_VMSIZE_EXTRA_MB.

Usage: python3 scripts/serving_smoke.py --bin target/release/skild \
           [--requests 1000 | --sweep 5000 | --shapes 300] [--threads 4]

Exit code: 0 pass, 1 assertion failure, 2 usage error.
"""

import argparse
import json
import os
import subprocess
import sys
import threading

REPO = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
# Bounds of the two probes. The cache holds at most 32 MiB and the idle
# pool at most 4,096 processors, which own no coroutine stack and no
# helper thread: the process keeps at most 4,096 idle stacks, and the
# idle helpers retire down to one per core. Measured on 2 cores at
# --threads 1 / 4: --sweep 5000 peaks at 41 / 46 MB (156 MB before the
# cache had a budget). --shapes 300 peaks at 9.1 / 10.2 MB and ends
# with 4 / 6 threads and 2.6 / 2.7 GB of address space (300 idle
# stacks). With stacks and helpers kept per machine it took 53 / 73 MB,
# 38 / 12 threads and 41 / 59 GB (543 MB before the pool had a cap).
SWEEP_HWM_MB = 64
SHAPES_HWM_MB = 24
STACK_MB = 8
SHAPES_VMSIZE_EXTRA_MB = 1024
SHAPES_COMPUTE_BOUND = 60

HELLO = "void main() { if (procId == 0) { print(42); } }"
FOLD = (
    "int initf(Index ix) { return ix[0] + ix[1]; } "
    "int conv(int v, Index ix) { return v; } "
    "void main() { "
    "array<int> a = array_create(1, {16,1}, {0,0}, {0-1,0-1}, initf, DISTR_DEFAULT); "
    "int total = array_fold(conv, (+), a); "
    "if (procId == 0) { print(total); } }"
)
DIV_ZERO = "void main() { int z = procId - procId; print(100 / z); }"


def build_batch(total):
    """Returns (lines, expectations): expectations maps request id ->
    expected outcome ('ok' or an error kind)."""
    lines, expect = [], {}
    garbage = 0

    def add(req_id, outcome, obj):
        obj["id"] = req_id
        lines.append(json.dumps(obj))
        expect[req_id] = outcome

    # Round-robin a fixed mix until `total` request lines exist.
    i = 0
    while len(lines) < total:
        slot = i % 20
        rid = f"r{i}"
        if slot < 8:
            add(rid, "ok", {"program": HELLO})
        elif slot < 10:
            add(rid, "ok", {"program": FOLD, "engine": "vm"})
        elif slot < 12:
            add(rid, "ok", {"program": FOLD, "engine": "native"})
        elif slot < 13:
            add(rid, "ok", {"program": FOLD, "engine": "vm", "mesh": "1x3"})
        elif slot < 14:
            add(rid, "ok", {"program": FOLD, "engine": "native", "mesh": "4x4"})
        elif slot < 15:
            add(rid, "runtime", {"program": DIV_ZERO, "engine": "vm"})
        elif slot < 16:
            add(rid, "runtime", {"program": DIV_ZERO, "engine": "native"})
        elif slot < 17:
            add(rid, "bad_request", {"program": DIV_ZERO, "engine": "ast"})
        elif slot < 18:
            add(rid, "runtime", {"program": FOLD, "faults": "seed=7,crash=3@50"})
        elif slot < 19:
            add(rid, "bad_request", {"program": HELLO, "mesh": "0x9"})
        else:
            lines.append("this is not json")
            garbage += 1
        i += 1
    lines.append(json.dumps({"cmd": "stats"}))
    return lines, expect, garbage


def serve_live(binary, threads, lines):
    """Stream `lines` through one skild and, once every line is
    answered, a stats request. While the daemon still lives, read its
    /proc status; then end its input. Returns (responses, stats,
    status, returncode)."""
    proc = subprocess.Popen(
        [binary, "--threads", str(threads)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )

    def feed():
        for line in lines:
            proc.stdin.write(line + "\n")
        proc.stdin.flush()

    writer = threading.Thread(target=feed)
    writer.start()
    responses = [json.loads(proc.stdout.readline()) for _ in lines]
    writer.join()
    proc.stdin.write(json.dumps({"cmd": "stats"}) + "\n")
    proc.stdin.flush()
    stats = json.loads(proc.stdout.readline())["stats"]
    with open(f"/proc/{proc.pid}/status") as f:
        status = dict(l.split(":", 1) for l in f if ":" in l)
    _, summary = proc.communicate(timeout=600)
    # the summary's first line; one more per pool shape follows
    print(summary.split("\n", 1)[0], file=sys.stderr)
    return responses, stats, status, proc.returncode


def kb(status, field):
    return int(status[field].split()[0])


def sweep(args):
    """N distinct sources and one hot golden program (see the docstring)."""
    with open(os.path.join(REPO, "benchmark", "programs", "gauss.skil")) as f:
        gauss = f.read().replace("__N__", "4")
    with open(os.path.join(REPO, "examples", "skil", "shortest_paths.skil")) as f:
        hot = f.read()
    lines = []
    for i in range(args.sweep):
        if i % 50 == 0:
            lines.append(json.dumps({"id": f"hot{i}", "program": hot}))
        src = gauss.replace("void main() {", f"void main() {{ if (procId == 0) {{ print({i}); }}", 1)
        lines.append(json.dumps({"id": f"s{i}", "program": src}))
    responses, stats, status, code = serve_live(args.bin, args.threads, lines)
    failures = [f"skild exited {code}"] if code != 0 else []
    failures += [f"{r.get('id')}: {r}" for r in responses if r.get("ok") is not True][:5]
    hot = sorted((int(r["id"][3:]), r) for r in responses if r["id"].startswith("hot"))
    for i, r in hot:
        if r["sim_cycles"] != 2397316 or r["cache"] != ("miss" if i == 0 else "hit"):
            failures.append(f"hot program at {i}: {r['cache']}, {r['sim_cycles']} cycles")
    if stats.get("cache_evictions", 0) == 0:
        failures.append(f"a {args.sweep}-source sweep evicted nothing")
    if stats["cache_bytes"] > stats.get("cache_budget_bytes", 0):
        failures.append(f"cache over its budget: {stats}")
    hwm = kb(status, "VmHWM") / 1024
    if hwm > SWEEP_HWM_MB:
        failures.append(f"VmHWM {hwm:.1f} MB over {SWEEP_HWM_MB} MB")
    report = (
        f"{stats['cache_programs']} programs in {stats['cache_bytes']} B "
        f"(budget {stats.get('cache_budget_bytes')}), {stats.get('cache_evictions')} evicted, "
        f"{len(hot)} hot hits/misses ok, VmHWM {hwm:.1f} MB"
    )
    return failures, report


def shapes(args):
    """One program on each of N distinct meshes (see the docstring)."""
    with open(os.path.join(REPO, "examples", "skil", "horner.skil")) as f:
        horner = f.read()
    small = min(args.shapes, SHAPES_COMPUTE_BOUND)
    order = list(range(small + 1, args.shapes + 1)) + list(range(1, small + 1))
    lines = [
        json.dumps(
            {"id": f"m{k}", "program": horner if k <= small else HELLO, "mesh": f"1x{k}"}
        )
        for k in order
    ]
    responses, stats, status, code = serve_live(args.bin, args.threads, lines)
    failures = [f"skild exited {code}"] if code != 0 else []
    failures += [f"{r.get('id')}: {r}" for r in responses if r.get("ok") is not True][:5]
    idle = sum(p["idle"] * int(p["mesh"].split("x")[1]) for p in stats["pool"])
    if stats.get("machines_evicted", 0) == 0:
        failures.append(f"{args.shapes} shapes evicted no machine")
    if idle > 4096:
        failures.append(f"{idle} idle processors, over 4096")
    hwm = kb(status, "VmHWM") / 1024
    if hwm > SHAPES_HWM_MB:
        failures.append(f"VmHWM {hwm:.1f} MB over {SHAPES_HWM_MB} MB")
    # Every run is over, so no stack is in use: those mapped are idle.
    stacks = stats.get("stacks_idle", 0)
    if stacks > min(4096, args.threads * args.shapes):
        failures.append(f"{stacks} idle stacks, more than could have run at once")
    vmsize = kb(status, "VmSize") / 1024
    if vmsize > stacks * STACK_MB + SHAPES_VMSIZE_EXTRA_MB:
        failures.append(
            f"VmSize {vmsize:.0f} MB over {stacks} idle stacks' {stacks * STACK_MB} MB "
            f"+ {SHAPES_VMSIZE_EXTRA_MB} MB"
        )
    # main, the request threads, and the helpers still idle
    threads, cores = int(status["Threads"]), os.cpu_count() or 1
    if threads > 1 + args.threads + cores:
        failures.append(f"{threads} threads, over 1 + {args.threads} + {cores} cores")
    report = (
        f"{stats.get('machines_evicted')} machines evicted, {idle} processors idle, "
        f"VmHWM {hwm:.1f} MB, VmRSS {kb(status, 'VmRSS') / 1024:.1f} MB, "
        f"VmSize {vmsize:.0f} MB, {stacks} idle stacks, {threads} threads"
    )
    return failures, report


def finish(failures, report):
    if failures:
        print("serving_smoke: FAILURES:", file=sys.stderr)
        for f in failures[:20]:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"serving_smoke: {report}")
    return 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--bin", required=True, help="path to the skild binary")
    ap.add_argument("--requests", type=int, default=1000)
    ap.add_argument("--sweep", type=int, help="N distinct sources plus a hot program")
    ap.add_argument("--shapes", type=int, help="one program on N distinct meshes")
    ap.add_argument("--threads", type=int, default=4)
    args = ap.parse_args()
    if args.sweep:
        return finish(*sweep(args))
    if args.shapes:
        return finish(*shapes(args))

    lines, expect, garbage = build_batch(args.requests)
    payload = "\n".join(lines) + "\n"
    proc = subprocess.run(
        [args.bin, "--threads", str(args.threads)],
        input=payload,
        capture_output=True,
        text=True,
        timeout=600,
    )
    print(proc.stderr, file=sys.stderr, end="")

    failures = []
    if proc.returncode != 0:
        failures.append(f"skild exited {proc.returncode}, expected 0 (daemon must survive)")

    responses = [json.loads(l) for l in proc.stdout.splitlines() if l.strip()]
    if len(responses) != len(lines):
        failures.append(f"{len(lines)} request lines but {len(responses)} response lines")

    stats = None
    unmatched_garbage = 0
    seen = set()
    for resp in responses:
        if "stats" in resp:
            stats = resp["stats"]
            continue
        rid = resp.get("id")
        if rid is None:
            # Non-JSON garbage can't echo an id; it must still get a
            # structured bad_request response.
            if resp.get("ok") is False and resp["error"]["kind"] == "bad_request":
                unmatched_garbage += 1
            else:
                failures.append(f"id-less response isn't a bad_request: {resp}")
            continue
        if rid in seen:
            failures.append(f"duplicate response for {rid}")
        seen.add(rid)
        want = expect.get(rid)
        if want is None:
            failures.append(f"response for unknown id {rid}")
        elif want == "ok":
            if resp.get("ok") is not True or "sim_cycles" not in resp:
                failures.append(f"{rid}: expected ok run, got {resp}")
        else:
            if resp.get("ok") is not False or resp.get("error", {}).get("kind") != want:
                failures.append(f"{rid}: expected {want} error, got {resp}")

    if unmatched_garbage != garbage:
        failures.append(
            f"{garbage} garbage lines sent, {unmatched_garbage} structured "
            "bad_request responses received"
        )
    missing = expect.keys() - seen
    if missing:
        failures.append(f"{len(missing)} request(s) never answered, e.g. {sorted(missing)[:5]}")

    if stats is None:
        failures.append("no response to the stats command")
    else:
        if stats["machines_discarded"] != 0:
            failures.append(f"machines were discarded: {stats}")
        if stats["cache_hit_rate"] < 0.90:
            failures.append(f"cache hit rate {stats['cache_hit_rate']:.3f} below 0.90")
        pool = {p["mesh"]: p for p in stats.get("pool", [])}
        for mesh in ("2x2", "1x3", "4x4"):
            if mesh not in pool:
                failures.append(f"no per-shape pool counters for {mesh}: {stats}")
            elif pool[mesh]["warm"] + pool[mesh]["cold"] == 0:
                failures.append(f"pool counters for {mesh} recorded no checkouts")

    hit_rate = stats["cache_hit_rate"] if stats else 0.0
    return finish(
        failures,
        f"{len(expect)} correlated requests + {garbage} garbage lines "
        f"all answered structurally; cache hit rate {hit_rate:.3f}; daemon exited 0",
    )


if __name__ == "__main__":
    sys.exit(main())
