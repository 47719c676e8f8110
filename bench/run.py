"""sivcav benchmark: one command, four workloads, every metric by name.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The package is not installed: children
get `PYTHONPATH=src` and single-threaded BLAS. Workloads (closed loop, one
client, no extra threads):

* `cli-shipped`: `sivcav validate` then `sivcav run` on each shipped config,
  as subprocesses; an item is one invocation;
* `steady-scan`: in-process, 4 `cpt_scan` and 4 `pump_probe_scan` ops of
  121 points each; an item is one steady-state scan point;
* `pulse-train`: in-process, 4 `t1_recovery` ops of 5 delays and 4
  `spin_pumping` ops of 2 pulses; an item is one delay or one pulse;
* `field-map`: in-process, 4 `magnet_map` ops on a 41 x 1 x 21 grid; an item
  is one grid point.

Times in the JSON line are host-adjusted: every timed op, invocation or
start is scaled by a reference (`bench/reference.py`) run right before and
right after it, to the seconds it would take where the reference takes its
nominal time.
`wall_s` is the sum over the pass's ops of each op's median adjusted latency
(see `median_pass`); `setup_s` is the median adjusted set-up time. The table
also shows both unadjusted (`*_raw_s`).

With `--trace 0` the last stdout line carries the end-to-end metrics; with
`--trace 1` it carries the per-layer metrics of a traced run, whose spans
also go to `.bench_out/spans-<workload>.csv`. The lines before it are a
table of the same metrics with units and sample counts.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import gen  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("cli-shipped", "steady-scan", "pulse-train", "field-map")
#: timed fresh starts per run for set-up time, after one untimed warm-up
SETUP_SAMPLES = 7
#: limit for one child process (s)
CHILD_TIMEOUT = 120.0
#: untraced metrics printed in the table but not bounded in BENCHMARK.json:
#: fail_frac is 0 on a correct program, items_per_s is wall_s turned over,
#: and unadjusted times move with the speed of the host by more than any
#: bound BENCHMARK.json admits
TABLE_ONLY = {"setup_raw_s": "s", "wall_raw_s": "s", "items_per_s": "1/s",
              "validate_p50_s": "s", "run_p50_s": "s", "fail_frac": "ratio"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _spans_path(root, workload):
    return os.path.join(root, ".bench_out", f"spans-{workload}.csv")


def median_pass(samples):
    """Sum over ops of each op's median value; `samples` are (op, value)."""
    by_op = {}
    for op, value in samples:
        by_op.setdefault(op, []).append(value)
    return sum(statistics.median(v) for v in by_op.values())


# A timing is adjusted by multiplying it with nominal reference time / mean
# reference time right before and right after it (see bench/reference.py).

def _op_samples(passes):
    """(op, latency, adjustment factor) of every op that ran."""
    return [(op["name"], op["validate_s"] + op["run_s"],
             reference.NOMINAL_S / op["ref_s"])
            for p in passes for op in p["ops"] if op["error"] is None]


def _call_samples(passes):
    """(invocation, latency, adjustment factor) of every CLI invocation."""
    return [((c["config"], c["command"]), c["latency"],
             reference.NOMINAL_PROCESS_S / c["ref_s"])
            for p in passes for c in p["calls"]]


def _wall_s(samples):
    return median_pass((op, s * f) for op, s, f in samples)


def _pass_metrics(samples, items_per_pass):
    wall_s = _wall_s(samples)
    return {"wall_s": wall_s, "items_per_s": items_per_pass / wall_s,
            "wall_raw_s": median_pass((op, s) for op, s, _f in samples)}


def _with_ref(measure):
    """(seconds `measure()` returns, its adjustment factor by the kernel)."""
    before = reference.seconds()
    seconds = measure()
    return seconds, reference.NOMINAL_S * 2 / (before + reference.seconds())


def _setup_metrics(samples):
    return {"setup_s": statistics.median(s * f for s, f in samples),
            "setup_raw_s": statistics.median(s for s, _f in samples)}


def _layer_medians(per_pass):
    return {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}


def _python_start_times(root, env, code):
    """(seconds from spawn to exit of `python -c <code>`, adjustment factor),
    SETUP_SAMPLES of them after one warm-up."""
    def start():
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                       check=True, timeout=CHILD_TIMEOUT)
        return time.perf_counter() - t0

    return [_with_ref(start) for _ in range(SETUP_SAMPLES + 1)][1:]


def _cli_layer_controls(root, env):
    interp, imp = (_setup_metrics(_python_start_times(root, env, code))["setup_s"]
                   for code in ("pass", "import sivcav.cli"))
    return {"cli.import_s": imp - interp, "cli.interpreter_s": interp}


# ---------------------------------------------------------------------------
# in-process workloads
# ---------------------------------------------------------------------------

def _start_worker(root, env, req, req_path):
    with open(req_path, "w", encoding="utf-8") as fh:
        json.dump(req, fh)
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), req_path],
        cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker failed during set-up (exit {proc.returncode})")
    return proc, setup


def _finish_worker(proc, timeout):
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker timed out")
    finally:
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")


def run_in_process(workload, root, env, work, seed, seconds, trace):
    paths = gen.write_configs(workload, seed, os.path.join(root, "configs"),
                              os.path.join(work, "configs"))
    req = {"configs": paths, "seed": seed, "seconds": seconds, "trace": trace,
           "setup_only": True, "out_dir": os.path.join(work, "out"),
           "result_path": os.path.join(work, "result.json"),
           "spans_path": _spans_path(root, workload)}
    req_path = os.path.join(work, "request.json")
    def setup_once():
        proc, setup = _start_worker(root, env, req, req_path)
        _finish_worker(proc, CHILD_TIMEOUT)
        return setup

    setups = [_with_ref(setup_once)
              for _ in range(0 if trace else SETUP_SAMPLES + 1)][1:]
    req["setup_only"] = False
    proc, _setup = _start_worker(root, env, req, req_path)
    _finish_worker(proc, seconds + CHILD_TIMEOUT)
    with open(req["result_path"], encoding="utf-8") as fh:
        res = json.load(fh)

    passes = res["passes"]
    ops = [op for p in passes for op in p["ops"]]
    out = {"attempted": len(ops), "failed": sum(op["failed"] for op in ops),
           "failures": res["failures"]}
    if trace:
        untraced, traced = passes[:res["traced_from"]], passes[res["traced_from"]:]
        layers = _layer_medians([p["layers"] for p in traced])
        layers.update(_cli_layer_controls(root, env))
        layers.update(_overhead(_op_samples(untraced), _op_samples(traced)))
        out["metrics"] = layers
        out["counts"] = {k: len(traced) for k in layers}
        return out
    done = [op for op in ops if op["error"] is None]
    out["metrics"] = {
        **_setup_metrics(setups),
        **_pass_metrics(_op_samples(passes), gen.items_per_pass(workload)),
        "peak_rss_mb": res["peak_rss_mb"],
        "validate_p50_s": statistics.median(op["validate_s"] for op in done),
        "run_p50_s": statistics.median(op["run_s"] for op in done),
    }
    out["counts"] = {"setup_s": len(setups), "setup_raw_s": len(setups),
                     "wall_s": len(passes), "wall_raw_s": len(passes),
                     "items_per_s": len(passes), "peak_rss_mb": 1,
                     "validate_p50_s": len(done), "run_p50_s": len(done)}
    return out


def _overhead(untraced, traced):
    u, t = _wall_s(untraced), _wall_s(traced)
    return {"trace.wall_s": t, "trace.untraced_wall_s": u, "trace.overhead_s": t - u}


# ---------------------------------------------------------------------------
# cli-shipped
# ---------------------------------------------------------------------------

def _invoke(root, env, argv):
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=root, env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT)
    return time.perf_counter() - t0, proc


def _cli_pass(root, env, work, seed, k, traced):
    """One pass over the shipped configs; returns (wall, invocations)."""
    out_root = os.path.join(work, f"pass{k}")
    calls = []
    ref_s = reference.process_seconds(root, env)
    start = time.perf_counter()
    for cfg in sorted(os.listdir(os.path.join(root, "configs"))):
        if not cfg.endswith(".cfg"):
            continue
        for command in ("validate", "run"):
            args = [command, os.path.join("configs", cfg)]
            if command == "run":
                args += ["--out", out_root, "--seed", str(seed)]
            span_file = os.path.join(work, f"spans-{k}-{len(calls)}.json")
            prefix = ([sys.executable, os.path.join(HERE, "cli_child.py"), span_file]
                      if traced else [sys.executable, "-m", "sivcav.cli"])
            latency, proc = _invoke(root, env, prefix + args)
            before, ref_s = ref_s, reference.process_seconds(root, env)
            calls.append({"config": cfg, "command": command, "latency": latency,
                          "ref_s": (before + ref_s) / 2,
                          "rc": proc.returncode, "stdout": proc.stdout,
                          "stderr": proc.stderr, "spans": span_file if traced else None})
    return time.perf_counter() - start, calls


def _cli_passes(root, env, work, seed, budget, first, traced):
    """Passes until the next one would overrun `budget` (at least one)."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start \
            + statistics.fmean(p["wall_s"] for p in passes) <= budget:
        wall, calls = _cli_pass(root, env, work, seed, first + len(passes), traced)
        passes.append({"wall_s": wall, "calls": calls})
    return passes


def _check_call(root, call):
    where = f"{call['command']} {call['config']}"
    if call["rc"] != 0:
        return [f"{where}: exit {call['rc']}: {call['stderr'].strip()[-300:]}"]
    if call["command"] == "validate":
        return [] if ": valid (" in call["stderr"] else [f"{where}: no 'valid' line"]
    lines = call["stdout"].strip().splitlines()
    if not lines:
        return [f"{where}: no output directory printed"]
    return checks.check_cli_run(call["config"], os.path.join(root, lines[-1]), root)


def _cli_pass_layers(root, calls):
    recorded = []
    for call in calls:
        with open(call["spans"], encoding="utf-8") as fh:
            recorded.append(json.load(fh))
    run_dirs = [os.path.join(root, c["stdout"].strip().splitlines()[-1])
                for c in calls if c["command"] == "run" and c["rc"] == 0]
    merged = spans.merge(recorded)
    return merged, spans.layer_metrics(spans.summarize(merged),
                                       *checks.output_stats(run_dirs))


def run_cli_shipped(root, env, work, seed, seconds, trace):
    if trace:
        untraced = _cli_passes(root, env, work, seed, seconds / 2, 0, False)
        traced = _cli_passes(root, env, work, seed, seconds / 2, len(untraced), True)
        passes = untraced + traced
    else:
        setups = _python_start_times(root, env, "import sivcav.cli")
        passes = _cli_passes(root, env, work, seed, seconds, 0, False)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    calls = [c for p in passes for c in p["calls"]]
    failures = []
    failed = 0
    for call in calls:
        fails = _check_call(root, call)
        failures += fails
        failed += bool(fails)
    out = {"attempted": len(calls), "failed": failed, "failures": failures}
    if trace:
        per_pass, all_spans = [], []
        for p in traced:
            merged, layers = _cli_pass_layers(root, p["calls"])
            all_spans.append(merged)
            per_pass.append(layers)
        layers = _layer_medians(per_pass)
        layers.update(_cli_layer_controls(root, env))
        layers.update(_overhead(_call_samples(untraced), _call_samples(traced)))
        spans.write_spans(_spans_path(root, "cli-shipped"), spans.merge(all_spans))
        out["metrics"] = layers
        out["counts"] = {k: len(traced) for k in layers}
        return out
    validates = [c["latency"] for c in calls if c["command"] == "validate"]
    runs = [c["latency"] for c in calls if c["command"] == "run"]
    out["metrics"] = {
        **_setup_metrics(setups),
        **_pass_metrics(_call_samples(passes), len(passes[0]["calls"])),
        "peak_rss_mb": peak_rss_mb,
        "validate_p50_s": statistics.median(validates),
        "run_p50_s": statistics.median(runs),
    }
    out["counts"] = {"setup_s": len(setups), "setup_raw_s": len(setups),
                     "wall_s": len(passes), "wall_raw_s": len(passes),
                     "items_per_s": len(passes), "peak_rss_mb": len(calls),
                     "validate_p50_s": len(validates), "run_p50_s": len(runs)}
    return out


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _declared(root, trace):
    """{metric: unit} that BENCHMARK.json declares for this kind of run."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    return {m["name"]: m["unit"]
            for m in doc["per_layer" if trace else "end_to_end"]}


def _report(workload, seed, trace, out, declared):
    rows = dict(out["metrics"])
    counts = dict(out["counts"])
    units = dict(declared)
    if not trace:
        rows["fail_frac"] = out["failed"] / out["attempted"]
        counts["fail_frac"] = out["attempted"]
        units.update(TABLE_ONLY)
    print(f"# sivcav benchmark: workload {workload}, seed {seed}, "
          f"{'traced' if trace else 'untraced'}")
    print(f"# {'metric':<38} {'value':>16} {'unit':<6} n")
    for name, value in rows.items():
        print(f"# {name:<38} {value:>16.6g} {units[name]:<6} {counts[name]}")
    for failure in out["failures"][:20]:
        print(f"# FAILED: {failure.splitlines()[0]}")
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": rows[k], "unit": u} for k, u in declared.items()},
    }))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "src", "sivcav", "__init__.py"))
            and os.path.isdir(os.path.join(root, "configs"))):
        print("error: run from the sivcav repository root (no src/sivcav or "
              "configs/ here)", file=sys.stderr)
        return 2
    units = _declared(root, args.trace)
    env = dict(os.environ)
    # one BLAS thread: the host has few cores, and idle BLAS threads spin
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    os.makedirs(os.path.join(root, ".bench_out"), exist_ok=True)
    os.makedirs(os.path.join(root, ".bench_work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=os.path.join(root, ".bench_work"))
    seed = args.seed % 2 ** 31
    try:
        if args.workload == "cli-shipped":
            out = run_cli_shipped(root, env, work, seed, args.seconds, args.trace)
        else:
            out = run_in_process(args.workload, root, env, work, seed,
                                 args.seconds, args.trace)
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    missing = set(units) - set(out["metrics"])
    if missing:
        print(f"error: BENCHMARK.json declares unmeasured metrics {sorted(missing)}",
              file=sys.stderr)
        return 2
    _report(args.workload, args.seed, args.trace, out, units)
    return 0


if __name__ == "__main__":
    sys.exit(main())
