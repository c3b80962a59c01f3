"""Run one workload of the pdfalearn benchmark and print its metrics.

    python3 perfbench/run.py --workload learn-random --seed 1 --seconds 20 --trace 0

The program is imported from `src/` of the checkout this directory sits in.
Set-up runs three times and the last one is kept; then whole batches run
until the next one would end after `--seconds`. The last line of standard
output is one JSON object:

    {"correct": true, "attempted": 16, "failed": 0,
     "metrics": {"wall_s": {"value": 11.93, "unit": "s"}, ...}}

With `--trace 0` the metrics are the `end_to_end` list of BENCHMARK.json,
each a median over set-ups or batches. With `--trace 1` untraced and traced
batches alternate; the metrics are the `per_layer` list, medians over the
traced batches, and the spans and a report go to `perfbench/out/`.
README.md in this directory describes every metric and workload.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUPS = 3

NOT_REMOTE = ("learn-random", "learn-chain", "analyze")
LEARNING = ("learn-random", "learn-chain", "learn-remote")
LOCAL_LEARNING = ("learn-random", "learn-chain")

# per-layer metric, or layer prefix ending in ".", -> workloads on which it
# has nothing to do, so it must read exactly zero there
IDLE = {
    "learn_s": ("analyze",),
    "mq": ("analyze",),
    "eq": ("analyze",),
    "learner.": ("analyze",),
    "teacher.": ("analyze",),
    "model_requests": NOT_REMOTE,
    "lmbridge.": NOT_REMOTE,
    "sample_per_s": LEARNING,
    "pipeline.": LEARNING,
    "fileio.": LEARNING,
    "automata.termination_mass_s": LEARNING,
    "automata.compose_s": LOCAL_LEARNING,
    "automata.model_next": LOCAL_LEARNING,
    "automata.quotient_s": ("learn-remote",),
    "equivcheck.": ("learn-remote",),
}


def idle_on(name: str) -> tuple:
    for key, workloads in IDLE.items():
        if name == key or name.startswith(key if key.endswith(".") else key + "_"):
            return workloads
    return ()


def layer_metrics(tr, batch) -> dict:
    """Per-layer metrics of one traced batch, by the names in BENCHMARK.json."""
    total, calls, values = tr.total, tr.calls, tr.values
    counts = batch.counts
    sample_s = total["pipeline.guided_sample"]
    request_s = values["lmbridge.request_s"]
    client_requests = values["lmbridge.client_requests"]
    return {
        "learn_s": total["learner.learn"],
        "mq": counts.get("mq", 0),
        "eq": counts.get("eq", 0),
        "model_requests": counts.get("model_requests", 0),
        "sample_per_s": values["pipeline.strings"] / sample_s if sample_s else 0.0,
        "simplex.label_calls": values["simplex.label_calls"],
        "simplex.label_s": values["simplex.label_s"],
        "learner.self_s": tr.self_time["learner.learn"],
        "learner.rounds": values["learner.rounds"],
        "learner.ce_len_sum": values["learner.ce_len_sum"],
        "teacher.mq_calls": calls["teacher.mq"],
        "teacher.mq_s": total["teacher.mq"],
        "teacher.eq_calls": calls["teacher.eq"],
        "teacher.eq_s": total["teacher.eq"],
        "teacher.model_queries": values["teacher.model_queries"],
        "equivcheck.hk_calls": calls["equivcheck.hk_equiv"],
        "equivcheck.hk_s": total["equivcheck.hk_equiv"],
        "equivcheck.pairs_visited": values["equivcheck.pairs_visited"],
        "automata.quotient_s": total["automata.quotient"],
        "automata.compose_s": total["automata.compose"] + total["automata.materialize_compose"],
        "automata.termination_mass_s": total["automata.termination_mass"],
        "automata.model_next_calls": calls["automata.model_next"],
        "automata.model_next_s": total["automata.model_next"],
        "lmbridge.symbol_next_calls": calls["lmbridge.symbol_next"],
        "lmbridge.symbol_next_s": total["lmbridge.symbol_next"],
        "lmbridge.token_calls": calls["lmbridge.token"],
        "lmbridge.client_requests": client_requests,
        "lmbridge.request_s": request_s,
        "lmbridge.server_s": values["lmbridge.server_s"],
        "lmbridge.transport_s": request_s - values["lmbridge.server_s"],
        "lmbridge.retries": client_requests - counts.get("model_requests", 0),
        "pipeline.sample_s": sample_s,
        "pipeline.strings": values["pipeline.strings"],
        "pipeline.truncated": values["pipeline.truncated"],
        "pipeline.compare_s": total["pipeline.compare_distributions"],
        "fileio.load_s": total["fileio.load_pdfa"],
    }


def layer_problems(workload: str, metrics: dict) -> list[str]:
    """Idle layers that did work, and proxies whose counts disagree with the teacher's."""
    problems = [
        f"{name} = {value} on {workload}, where its layer is idle"
        for name, value in metrics.items()
        if workload in idle_on(name) and value != 0
    ]
    for count, calls in (("mq", "teacher.mq_calls"), ("eq", "teacher.eq_calls")):
        if metrics[count] != metrics[calls]:
            problems.append(f"{count} = {metrics[count]} but the proxy saw {metrics[calls]}")
    return problems


def measure(workload, seed: int, seconds: float, traced: bool, workdir: str) -> dict:
    from tracing import NullTracer, Tracer
    from workloads import Batch

    perf = time.perf_counter
    untraced = NullTracer()
    tracer = Tracer(f"{workload.name}/{seed}") if traced else untraced
    setup_s, generate_s = [], []
    plain, layered = [], []  # (wall, Batch) of untraced batches; per-layer dicts
    env = None
    try:
        for _ in range(SETUPS):
            if env is not None:
                workload.close(env)
                env = None
            if traced:
                tracer.reset()
            start = perf()
            env = workload.setup(seed, tracer, workdir)
            setup_s.append(perf() - start)
            if traced:
                generate_s.append(tracer.total["randgen.random_pdfa"])
        # set-up data stays alive for the whole run; frozen, it is left out
        # of the collections that batches trigger, and a collection before
        # each batch starts them all from the same state
        gc.collect()
        gc.freeze()
        start = perf()
        rounds = 0
        while True:
            for tr in (untraced, tracer) if traced else (untraced,):
                if tr.enabled:
                    tr.reset()
                batch = Batch()
                gc.collect()
                began = perf()
                workload.batch(env, tr, batch)
                wall = perf() - began
                if tr.enabled:
                    layered.append((wall, batch, layer_metrics(tr, batch)))
                else:
                    plain.append((wall, batch))
                for error in batch.errors:
                    print(f"perfbench: {workload.name} seed {seed}: {error}", file=sys.stderr)
            rounds += 1
            elapsed = perf() - start
            if elapsed + elapsed / rounds > seconds:
                break
    finally:
        if env is not None:
            workload.close(env)

    batches = [b for _, b in plain] + [b for _, b, _ in layered]
    problems = []
    if any(b.counts != batches[0].counts for b in batches):
        problems.append(f"exact counts differ between batches: {[b.counts for b in batches]}")
    result = {
        "attempted": sum(b.attempted for b in batches),
        "failed": sum(b.failed for b in batches),
    }
    wall_s = statistics.median(w for w, _ in plain)
    if not traced:
        result["metrics"] = {
            "setup_s": statistics.median(setup_s),
            "wall_s": wall_s,
            "verify_s": statistics.median(b.verify_s for _, b in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    else:
        metrics = {
            name: statistics.median_low(m[name] for _, _, m in layered) for name in layered[0][2]
        }
        metrics["randgen.generate_s"] = statistics.median(generate_s)
        traced_wall_s = statistics.median(w for w, _, _ in layered)
        metrics["trace.overhead_s"] = traced_wall_s - wall_s
        for _, _, m in layered:
            problems.extend(layer_problems(workload.name, m))
        result["metrics"] = metrics
        stem = OUT / f"{workload.name}-seed{seed}"
        tracer.write_spans(f"{stem}-spans.csv.gz")
        report = {
            "workload": workload.name,
            "seed": seed,
            "batches": {"untraced": len(plain), "traced": len(layered)},
            "untraced_wall_s": wall_s,
            "traced_wall_s": traced_wall_s,
            "overhead_s": metrics["trace.overhead_s"],
            "per_layer": metrics,
            "problems": problems,
        }
        Path(f"{stem}-trace.json").write_text(json.dumps(report, indent=2) + "\n")
        print(f"perfbench: trace report in {stem}-trace.json", file=sys.stderr)
    for problem in problems:
        print(f"perfbench: {workload.name} seed {seed}: {problem}", file=sys.stderr)
    result["correct"] = result["failed"] == 0 and not problems
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pdfalearn" / "__init__.py").is_file():
        print(f"perfbench: no pdfalearn sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import pdfalearn

    if Path(pdfalearn.__file__).resolve().parent != SRC / "pdfalearn":
        print(f"perfbench: imported pdfalearn from {pdfalearn.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if args.trace else "end_to_end"]

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT)
    try:
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    measured = result.pop("metrics")
    if set(measured) != {m["name"] for m in listed}:
        print(f"perfbench: metrics {sorted(measured)} do not match BENCHMARK.json", file=sys.stderr)
        return 2
    result["metrics"] = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in listed}
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
