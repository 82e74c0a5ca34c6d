"""Offline end-to-end benchmark of langrepo.

Run from the repository root:

    python3 bench/run.py --workload eval-cold --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40

It imports the program from ./src, generates every input from --seed, sets
the workload up SETUP_REPEATS times (reporting the median set-up time), then repeats
the workload's unit of work for about --seconds and checks every output.
Units and set-ups during which the hypervisor took more than STEAL_LIMIT of
the CPU time are left out of the end-to-end metrics, unless that would leave
out more than half of them.
The last line of standard output is one JSON object: {"correct",
"attempted", "failed", "metrics"}. With --trace 0 the metrics are the
end-to-end ones; with --trace 1 the run first times one unit untraced, then
traces the rest and reports per-layer metrics, writing the spans to
bench/_work/. The exit code is 0 only when every check passed; it is 2 when
the program's sources are not there.
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
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
# A unit or set-up during which the hypervisor ran other guests on this
# machine's CPUs for more than this share of its CPU time measures the host,
# not the program; the end-to-end metrics leave it out. When most were
# disturbed, they keep the less disturbed half, so that no run rests on one
# or two samples.
STEAL_LIMIT = 0.05

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "questions_per_s": "questions/s",
    "question_p50_ms": "ms",
    "question_p90_ms": "ms",
    "llm_requests": "count",
    "prompt_kchars": "kchar",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def stolen_s() -> float:
    """CPU time taken by the hypervisor so far, summed over all CPUs (the
    steal column of /proc/stat); 0 where the kernel does not report it."""
    try:
        with open("/proc/stat", encoding="ascii") as stat:
            fields = stat.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def import_program():
    """Put ./src first on the path and import langrepo from there, or exit 2."""
    src = ROOT / "src"
    if not (src / "langrepo" / "__init__.py").is_file():
        print(f"error: no program sources at {src}/langrepo", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import langrepo

    if Path(langrepo.__file__).resolve().parent != (src / "langrepo").resolve():
        print(f"error: langrepo imported from {langrepo.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    return langrepo


def least_disturbed(samples: list, steal_shares: list[float], what: str) -> list:
    """The samples during which the hypervisor took at most STEAL_LIMIT of
    the CPU time, or, when that is fewer than half, the less disturbed half."""
    limit = max(STEAL_LIMIT, statistics.median(steal_shares))
    kept = [x for x, share in zip(samples, steal_shares) if share <= limit]
    print(f"{len(samples) - len(kept)} of {len(samples)} {what}(s) left out: the hypervisor took more than "
          f"{limit:.1%} of the CPU time while they ran", file=sys.stderr)
    return kept


def end_to_end(units, setup_s: list[float], attempted: int, failed: int) -> dict[str, float]:
    questions = [q for u in units for q in u.question_s]
    return {
        "setup_s": statistics.median(setup_s),
        "wall_s": statistics.median(u.wall_s for u in units),
        "questions_per_s": statistics.median(len(u.question_s) / u.wall_s for u in units),
        "question_p50_ms": percentile(questions, 50) * 1000,
        "question_p90_ms": percentile(questions, 90) * 1000,
        "llm_requests": float(statistics.median(u.requests for u in units)),
        "prompt_kchars": statistics.median(u.prompt_chars for u in units) / 1000,
        "ok_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(spans, ranges, units, overhead_s: float, save_s: list[float]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per unit of work, from the spans and backend calls.

    No unit saves a repository, so repository.save.s is the median of the
    saves made in set-up (0 where set-up saves none)."""
    import tracing

    n = len(units)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    by_id = {s.id: s for s in spans}
    own = tracing.self_times(spans)

    def total_s(name):
        return sum(s.end - s.start for s in by_name[name]) / n

    def count(name):
        return len(by_name[name]) / n

    embeds = [s.info for s in by_name["embed.encode"] if s.info]
    texts = sum(t for t, _ in embeds)
    calls = [c for u in units for c in u.calls]
    backend_in: dict[int, float] = defaultdict(float)
    for c in calls:
        if c.span is not None:
            backend_in[c.span] += c.end - c.start
    client_spans = by_name["llm.generate"] + by_name["llm.score"]
    requests = len(client_spans)
    backend_total = sum(sum(u.backend_calls.values()) for u in units)

    rounds, per_question = [], []
    for (lo, hi), unit in zip(ranges, units):
        asked = {s.question for s in spans[lo:hi] if s.name == "vqa.answer_loglik"}
        intervals = defaultdict(list)
        for c in unit.calls:
            intervals[c.question_id].append((c.start, c.end))
        for q in asked:
            rounds.append(tracing.critical_depth(intervals.get(q, [])))
            per_question.append(len(intervals.get(q, [])))

    def under_evaluate(span):
        parent = span.parent
        while parent is not None and parent in by_id:
            if by_id[parent].name == "evalharness.evaluate":
                return True
            parent = by_id[parent].parent
        return False

    repos = [s.info for name in ("repository.build", "repository.load") for s in by_name[name] if s.info]

    def scale_mean(k):
        sized = [r[k] for r in repos if len(r) > k]
        return sum(sized) / len(sized) if sized else 0.0

    rephrase_sizes = [s.info for s in by_name["prompts.render_rephrase"]]
    m = {
        "ingest.load_captions.s": (total_s("ingest.load_captions"), "s"),
        "ingest.chunk_captions.s": (total_s("ingest.chunk_captions"), "s"),
        "embed.encode.calls": (count("embed.encode"), "count"),
        "embed.encode.texts": (texts / n, "count"),
        "embed.encode.s": (total_s("embed.encode"), "s"),
        "embed.encode.repeat_ratio": (sum(r for _, r in embeds) / texts if texts else 0.0, "ratio"),
        "grouping.split.calls": (count("grouping.split"), "count"),
        "grouping.split.s": (total_s("grouping.split"), "s"),
        "grouping.match_and_group.s": (total_s("grouping.match_and_group"), "s"),
        "prompts.render_rephrase.s": (total_s("prompts.render_rephrase"), "s"),
        "prompts.parse_rephrase_output.s": (total_s("prompts.parse_rephrase_output"), "s"),
        "prompts.render_summarize.s": (total_s("prompts.render_summarize"), "s"),
        "prompts.render_qa_loglik.s": (total_s("prompts.render_qa_loglik"), "s"),
        "prompts.rephrase_prompt_kchars_max": (max(rephrase_sizes, default=0) / 1000, "kchar"),
        "llm.requests": (requests / n, "count"),
        "llm.cache_hit_ratio": ((requests - backend_total) / requests if requests else 0.0, "ratio"),
        "llm.backend_calls.rephrase": (sum(u.backend_calls.get("rephrase", 0) for u in units) / n, "count"),
        "llm.backend_calls.summarize": (sum(u.backend_calls.get("summarize", 0) for u in units) / n, "count"),
        "llm.backend_calls.qa": (sum(u.backend_calls.get("qa", 0) for u in units) / n, "count"),
        "llm.backend_calls_per_question": (statistics.median(per_question) if per_question else 0.0, "count"),
        "llm.backend.busy_s": (sum(c.end - c.start for c in calls) / n, "s"),
        "llm.backend_prompt_kchars": (sum(u.backend_prompt_chars for u in units) / 1000 / n, "kchar"),
        "llm.client.wait_s": (sum(s.end - s.start - backend_in[s.id] for s in client_spans) / n, "s"),
        "llm.peak_inflight": (max(u.peak_inflight for u in units), "count"),
        "llm.rounds_per_question": (statistics.median(rounds) if rounds else 0.0, "count"),
        "llm.rephrase_retries": (
            sum(1 for s in by_name["llm.generate"] if s.info and s.info[0] == "rephrase" and s.info[1] > 0) / n,
            "count",
        ),
        "llm.reply_kchars": (sum(u.backend_reply_chars for u in units) / 1000 / n, "kchar"),
        "llm.cache.get_s": (total_s("llm.cache.get"), "s"),
        "llm.cache.put_s": (total_s("llm.cache.put"), "s"),
        "repository.build.s": (total_s("repository.build"), "s"),
        "repository.write_to_repo.self_s": (sum(own[s.id] for s in by_name["repository.write_to_repo"]) / n, "s"),
        "repository.read_from_repo.s": (total_s("repository.read_from_repo"), "s"),
        "repository.load.s": (total_s("repository.load"), "s"),
        "repository.save.s": (statistics.median(save_s) if save_s else 0.0, "s"),
        "repository.descriptions.scale0": (scale_mean(0), "count"),
        "repository.descriptions.scale1": (scale_mean(1), "count"),
        "repository.descriptions.scale2": (scale_mean(2), "count"),
        "vqa.answer_loglik.calls": (count("vqa.answer_loglik"), "count"),
        "vqa.answer_loglik.s": (total_s("vqa.answer_loglik"), "s"),
        "evalharness.evaluate.s": (total_s("evalharness.evaluate"), "s"),
        "evalharness.builds": (sum(1 for s in by_name["repository.build"] if under_evaluate(s)) / n, "count"),
        "evalharness.peak_threads": (max(u.peak_threads for u in units), "count"),
        "trace.overhead_s": (overhead_s, "s"),
        "trace.spans": (len(spans) / n, "count"),
    }
    return m


def timed_units(workload, seconds: float, tracer=None) -> tuple[list, list, int]:
    """Repeat the workload's unit until the next one would overrun ``seconds``.

    Returns the units that completed, each unit's slice of tracer.spans, and
    the number of units that raised.
    """
    units, ranges, failed = [], [], 0
    started = time.perf_counter()
    while True:
        lo = len(tracer.spans) if tracer else 0
        if tracer:
            tracer.new_unit()
        stolen, start = stolen_s(), time.perf_counter()
        try:
            unit = workload.unit(len(units) + failed)
            unit.steal_share = (stolen_s() - stolen) / ((time.perf_counter() - start) * os.cpu_count())
            units.append(unit)
            ranges.append((lo, len(tracer.spans) if tracer else 0))
        except Exception:
            traceback.print_exc()
            failed += 1
        typical = statistics.median(u.wall_s for u in units) if units else 0.0
        if time.perf_counter() - started + typical > seconds or failed > 2:
            return units, ranges, failed


def run_workload(args) -> int:
    langrepo = import_program()
    import tracing
    import workloads
    from langrepo import config

    work_dir = HERE / "_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    app = config.AppConfig()
    workload = workloads.WORKLOADS[args.workload](app, args.seed, work_dir)
    try:
        setup_s, setup_steal, setup_violations = [], [], []
        for attempt in range(SETUP_REPEATS):
            shutil.rmtree(work_dir / f"setup-{attempt - 1}", ignore_errors=True)
            stolen, start = stolen_s(), time.perf_counter()
            workload.setup(work_dir / f"setup-{attempt}")
            setup_s.append(time.perf_counter() - start)
            setup_steal.append((stolen_s() - stolen) / (setup_s[-1] * os.cpu_count()))
            setup_violations += workload.setup_violations

        if args.trace:
            started = time.perf_counter()
            untraced, _, failed = timed_units(workload, 0)
            tracer, patches = tracing.Tracer(app.embed.max_text_chars), tracing.Patches()
            tracer.install(patches, langrepo)
            try:
                units, ranges, failed_traced = timed_units(
                    workload, args.seconds - (time.perf_counter() - started), tracer
                )
            finally:
                patches.restore()
            failed += failed_traced
            units_ok = units and untraced
        else:
            units, _, failed = timed_units(workload, args.seconds)
            untraced, units_ok = [], bool(units)
        if not units_ok:
            print("error: no unit of work completed", file=sys.stderr)
            return 1

        # A unit that raised loses all the builds and questions it would have done.
        failed *= workload.unit_attempts
        attempted = sum(u.attempted for u in units) + failed
        violations = setup_violations + [v for u in untraced + units for v in u.violations]
        if args.trace:
            overhead = statistics.median(u.wall_s for u in units) - untraced[0].wall_s
            values = per_layer(tracer.spans, ranges, units, overhead, workload.save_s)
            out = HERE / "_work" / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
            tracing.write_spans(out, tracer.spans, [c for u in units for c in u.calls])
            print(f"spans written to {out.relative_to(ROOT)}", file=sys.stderr)
        else:
            clean = least_disturbed(units, [u.steal_share for u in units], "unit")
            clean_setup = least_disturbed(setup_s, setup_steal, "set-up")
            values = {k: (v, END_TO_END_UNITS[k])
                      for k, v in end_to_end(clean, clean_setup, attempted, failed).items()}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print("set-up times (s): " + " ".join(f"{t:.3f}" for t in setup_s), file=sys.stderr)
    print("set-up steal shares: " + " ".join(f"{t:.3f}" for t in setup_steal), file=sys.stderr)
    print("unit wall times (s): " + " ".join(f"{u.wall_s:.3f}" for u in units), file=sys.stderr)
    print("unit steal shares: " + " ".join(f"{u.steal_share:.3f}" for u in units), file=sys.stderr)
    for v in violations[:20]:
        print(f"check failed: {v}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}: {len(units)} unit(s), "
          f"{attempted} attempted, {failed} failed, {len(violations)} check failure(s)")
    for name, (value, unit) in values.items():
        print(f"  {name:38s} {value:14.4f} {unit}")
    result = {
        "correct": not violations and not failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own process, then one table of all metrics."""
    import gen

    results, status = {}, 0
    for name in gen.WORKLOAD_WHY:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            status = 1
        if lines and lines[-1].startswith("{"):
            results[name] = json.loads(lines[-1])
    names = list(results)
    metrics = list(dict.fromkeys(m for r in results.values() for m in r["metrics"]))
    print(f"{'metric':38s} {'unit':>11s} " + " ".join(f"{n:>18s}" for n in names))
    for m in metrics:
        unit = next(r["metrics"][m]["unit"] for r in results.values() if m in r["metrics"])
        cells = [results[n]["metrics"].get(m, {}).get("value") for n in names]
        print(f"{m:38s} {unit:>11s} " + " ".join(f"{c:18.4f}" if c is not None else f"{'-':>18s}" for c in cells))
    print("correct: " + ", ".join(f"{n}={results[n]['correct']}" for n in names))
    summary = {
        "correct": status == 0 and all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    import gen

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*gen.WORKLOAD_WHY, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        import_program()
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
