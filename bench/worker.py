"""In-process workload worker, started as a fresh interpreter by run.py.

    python bench/worker.py <request.json>

The worker imports sivcav, loads and validates the workload's configs, then
prints READY so the parent can time set-up. With `setup_only` it exits there.
Otherwise it runs passes over the ops until the time budget is spent; one op
is `load_config` + `run_protocol`, as `sivcav run` does. The reference kernel
(`bench/reference.py`) runs before the first op of a pass and after every op,
and each op records the mean kernel time on its two sides. With `trace` the
first half of the budget runs untraced and the second half traced. Output
checks run after the timed phase. The result goes to `result_path` as JSON.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

import reference
import sivcav.config
import sivcav.protocols

#: fewest passes per timed phase, whatever the budget
MIN_PASSES = 3


def _run_pass(paths, out_dir, tracer=None, pass_index=0):
    ops = []
    ref_s = reference.seconds()
    start = time.perf_counter()
    for i, path in enumerate(paths):
        if tracer is not None:
            tracer.op = f"pass{pass_index}/{os.path.basename(path)}"
        rec = {"name": os.path.basename(path), "error": None, "run_dir": None}
        t0 = time.perf_counter()
        try:
            cfg = sivcav.config.load_config(path)
            t1 = time.perf_counter()
            manifest = sivcav.protocols.run_protocol(
                cfg, out_dir=os.path.join(out_dir, f"op{i}"))
            t2 = time.perf_counter()
            rec.update(validate_s=t1 - t0, run_s=t2 - t1, run_dir=manifest.out_dir)
        except Exception:  # an op failure is counted, not fatal
            rec["error"] = traceback.format_exc(limit=3)
        before, ref_s = ref_s, reference.seconds()
        rec["ref_s"] = (before + ref_s) / 2
        ops.append(rec)
    return time.perf_counter() - start, ops


def _timed_phase(paths, out_root, budget, first_index, tracer=None):
    """Passes until the next one would overrun `budget` (at least MIN_PASSES)."""
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start \
            + statistics.fmean(p["wall_s"] for p in passes) <= budget:
        k = first_index + len(passes)
        lo = len(tracer.spans) if tracer is not None else 0
        wall, ops = _run_pass(paths, os.path.join(out_root, f"pass{k}"), tracer, k)
        entry = {"wall_s": wall, "ops": ops}
        if tracer is not None:
            entry["layers"] = _pass_layers(tracer.spans[lo:], lo, ops)
        passes.append(entry)
    return passes


def _pass_layers(pass_spans, offset, ops):
    import checks
    import spans

    stats = checks.output_stats(op["run_dir"] for op in ops if op["run_dir"])
    return spans.layer_metrics(spans.summarize(pass_spans, offset), *stats)


def _digest(run_dir):
    h = hashlib.sha256()
    for name in ("data.csv", "fits.json"):
        with open(os.path.join(run_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _check(paths, passes, seed):
    """Oracle-check the first pass; later passes must match it byte for byte."""
    import checks

    failures = []
    reference = {}
    for k, p in enumerate(passes):
        for op in p["ops"]:
            if op["error"] is not None:
                failures.append(f"pass {k} {op['name']}: {op['error']}")
                op["failed"] = True
                continue
            digest = _digest(op["run_dir"])
            if op["name"] not in reference:
                cfg = sivcav.config.load_config(
                    [x for x in paths if os.path.basename(x) == op["name"]][0])
                try:
                    fails = checks.check_in_process(op["name"], cfg, op["run_dir"],
                                                    seed)
                except Exception:  # unreadable output is a failed check
                    fails = [f"{op['name']}: check raised\n"
                             + traceback.format_exc(limit=3)]
                reference[op["name"]] = (digest, fails)
            ref_digest, fails = reference[op["name"]]
            if digest != ref_digest:
                fails = fails + [f"pass {k} {op['name']}: output differs from pass 0"]
            op["failed"] = bool(fails)
            failures += fails
    return failures


def main(request_path):
    with open(request_path, encoding="utf-8") as fh:
        req = json.load(fh)
    paths = req["configs"]
    for path in paths:
        sivcav.config.load_config(path)
    print("READY", flush=True)
    if req["setup_only"]:
        return 0

    budget = float(req["seconds"])
    if req["trace"]:
        import spans

        passes = _timed_phase(paths, req["out_dir"], budget / 2, 0)
        traced_from = len(passes)
        tracer = spans.Tracer()
        tracer.install()
        passes += _timed_phase(paths, req["out_dir"], budget / 2, traced_from,
                               tracer)
        tracer.uninstall()
        spans.write_spans(req["spans_path"], tracer.spans)
    else:
        passes = _timed_phase(paths, req["out_dir"], budget, 0)
        traced_from = None
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = _check(paths, passes, req["seed"])
    result = {"passes": passes, "peak_rss_mb": peak_rss_mb,
              "failures": failures, "traced_from": traced_from}
    with open(req["result_path"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
