"""sumsetlab benchmark: one seeded CLI workload, measured end to end or per layer.

Run from the repository root:

    python3 bench/run.py --workload desk-enum --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py): desk-enum, paper-chain, depolignac-scan.

With ``--trace 0`` a fresh worker process (worker.py) sends the workload
for ``--seconds`` and the run reports the end-to-end metrics: set-up time
of a fresh interpreter importing ``sumsetlab.cli`` (median of several),
request latency p50/p90, successful requests per second and the worker's
peak RSS. With ``--trace 1`` an untraced and a traced worker each get half
the time and the run reports the per-layer metrics of the traced one.

Every output is checked against the oracles in oracles.py after the
timed loop. A human-readable report, with the machine it ran on, goes to
stderr and to bench/_work/results/; the last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}. Exit status is 0 only
when every output was correct.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
WORKDIR = "bench/_work"  # relative to ROOT; ignored by git

sys.path.insert(0, str(BENCH))
import oracles  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 8
# p90 must leave ten samples beyond it.
MIN_SAMPLES = 100
# A request that fails is recorded at its workload's latency limit.
LATENCY_LIMIT_MS = {"desk-enum": 2000.0, "paper-chain": 100.0, "depolignac-scan": 4000.0}
WORKER_TIMEOUT_S = 160.0

# Layers expected to hold most of the self time, and layers expected to
# do (almost) no work, per workload.
PREDICTED_BUSY = {
    "desk-enum": ("sumset",),
    "paper-chain": ("blocks", "arith", "serialize", "cli"),
    "depolignac-scan": ("arith", "depolignac"),
}
PREDICTED_IDLE = {
    "desk-enum": ("depolignac",),
    "paper-chain": ("depolignac",),
    "depolignac-scan": ("sumset", "blocks"),
}
IDLE_SHARE = 0.02
# Traced runs of these workloads first send the untimed contract probes
# (workloads.contract_probes), which give cli.exit2 and cli.exit3.
# desk-enum carries them because BENCHMARK.json leaves paper-chain out.
PROBED_WORKLOADS = ("desk-enum", "paper-chain")


def _env() -> dict:
    env = dict(os.environ)
    env.pop("SUMSETLAB_ENUM_CAP", None)  # measure the default enumeration budget
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _worker_env() -> dict:
    # A fixed glibc mmap threshold (its 128 KiB default) turns off the
    # allocator's dynamic threshold, so that, as in the fresh process of
    # each CLI call, every large array is mapped and unmapped by the request
    # that uses it instead of being served from heap kept by earlier ones.
    return {**_env(), "MALLOC_MMAP_THRESHOLD_": "131072"}


def measure_setup(repeats: int) -> list[float]:
    """Times from spawning an interpreter until sumsetlab.cli is imported."""
    code = "import sumsetlab.cli, sys; sys.stdout.write('r'); sys.stdout.flush()"
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, env=_env(),
                              stdout=subprocess.PIPE) as proc:
            ready = proc.stdout.read(1)
            times.append(time.perf_counter() - start)
            proc.wait(timeout=30)
        if ready != b"r":
            raise RuntimeError("a fresh interpreter could not import sumsetlab.cli")
    return times


def run_worker(args, seconds: float, trace: bool, min_samples: int) -> tuple[dict, Path]:
    tag = f"{args.workload}-{args.seed}-{'traced' if trace else 'plain'}"
    outputs = ROOT / WORKDIR / f"outputs-{tag}.jsonl"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(int(trace)),
           "--min-samples", str(min_samples), "--workdir", WORKDIR, "--outputs", str(outputs)]
    if trace:
        cmd += ["--spans", str(ROOT / WORKDIR / f"spans-{tag}.jsonl")]
        if args.workload in PROBED_WORKLOADS:
            cmd.append("--probes")
    with subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE) as proc:
        try:
            stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError(f"worker for {tag} did not finish in {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {tag} exited with {proc.returncode}")
    return json.loads(stdout.decode().strip().splitlines()[-1]), outputs


def check_outputs(path: Path) -> tuple[int, list[str]]:
    """Run every successful output through its oracle; repeats must match."""
    seen: dict[tuple, object] = {}
    errors: list[str] = []
    checked = 0
    with open(path) as fh:
        for line in fh:
            item = json.loads(line)
            if item["code"] != 0:
                continue
            argv = tuple(item["argv"])
            payload = json.loads(item["out"])["payload"]
            if argv in seen:
                if seen[argv] != payload:
                    errors.append(f"{' '.join(argv)}: payload differs between repeats")
                continue
            seen[argv] = payload
            checked += 1
            record = {"payload": payload}
            for message in oracles.CHECKS[item["kind"]](item["spec"], record):
                errors.append(f"{' '.join(argv)}: {message}")
    path.unlink()
    return checked, errors


def latency_ms(summary: dict, workload: str) -> list[float]:
    limit = LATENCY_LIMIT_MS[workload]
    return [s * 1000.0 if code == 0 else limit
            for s, code in zip(summary["latencies_s"], summary["codes"])]


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(summary: dict, workload: str, setup_s: float) -> dict:
    ms = latency_ms(summary, workload)
    ok = sum(1 for code in summary["codes"] if code == 0)
    return {
        "setup_s": (setup_s, "s"),
        "op_ms.p50": (statistics.median(ms), "ms"),
        "op_ms.p90": (p90(ms), "ms"),
        "ops_per_s": (ok / summary["loop_s"], "1/s"),
        "peak_rss_mb": (summary["peak_rss_kb"] / 1024.0, "MB"),
    }


def per_layer(plain: dict, traced: dict, workload: str) -> dict:
    trace = traced["trace"]
    self_s, calls, counters = trace["self_s"], trace["calls"], trace["counters"]
    metrics: dict = {}
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
        metrics[f"{layer}.calls"] = (calls.get(layer, 0), "count")
    for name in tracing.FUNCTION_SELF_TIMES:
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    for code in (2, 3):
        metrics[f"cli.exit{code}"] = (traced["exit_codes"].get(str(code), 0), "count")
    for name, unit in (("serialize.bytes_out", "bytes"), ("blocks.blocks_materialized", "count"),
                       ("arith.sieve_values", "count"), ("sumset.bitmap_bytes", "bytes"),
                       ("depolignac.members_scanned", "count")):
        metrics[name] = (counters.get(name, 0), unit)
    marks = sum(oracles.marks(x, oracles.Schedule(s)) for s, x, _ in trace["enumerations"])
    distinct = sum(c for _, _, c in trace["enumerations"])
    metrics["sumset.marks"] = (marks, "count")
    metrics["sumset.dedup_ratio"] = (distinct / marks if marks else 0.0, "ratio")
    members = counters.get("depolignac.members_scanned", 0)
    ap_sieve = counters.get("depolignac.ap_scan_sieve_values", 0)
    metrics["depolignac.sieve_per_member"] = (ap_sieve / members if members else 0.0, "ratio")
    overhead = (statistics.median(latency_ms(traced, workload))
                / statistics.median(latency_ms(plain, workload)))
    metrics["trace_overhead"] = (overhead, "ratio")
    return metrics


def layer_findings(metrics: dict, workload: str) -> list[str]:
    shares = {layer: metrics[f"{layer}.self_s"][0] for layer in tracing.LAYERS}
    total = sum(shares.values()) or 1.0
    top = max(shares, key=shares.get)
    verdict = "as predicted" if top in PREDICTED_BUSY[workload] else (
        f"DIFFERS from the prediction {'/'.join(PREDICTED_BUSY[workload])}")
    lines = [f"largest self time: {top} ({shares[top] / total:.1%} of traced time), {verdict}"]
    lines.append("self-time shares: " + ", ".join(
        f"{layer} {value / total:.1%}" for layer, value in
        sorted(shares.items(), key=lambda kv: -kv[1])))
    for layer in PREDICTED_IDLE[workload]:
        share = shares[layer] / total
        if share > IDLE_SHARE:
            lines.append(f"{layer} was predicted idle but took {share:.1%}: DIFFERS")
    return lines


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def machine_info() -> dict:
    """Where the numbers come from; read from this process's own view only."""
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "ram_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2**20,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "sumsetlab" / "cli.py").is_file():
        print(f"no sumsetlab sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    # Outputs of requests past 2^14284 hold integers longer than the
    # int->str default allows; the oracles must be able to read them.
    sys.set_int_max_str_digits(0)

    workloads.write_custom_schedules(args.workload, args.seed, str(ROOT / WORKDIR))
    runs = []
    if args.trace:
        runs.append(("plain", *run_worker(args, args.seconds / 2, False, 1)))
        runs.append(("traced", *run_worker(args, args.seconds / 2, True, 1)))
    else:
        # half the set-up samples before the worker and half after it, so
        # that their median spans the run's time rather than one moment
        setup_times = measure_setup(SETUP_REPEATS // 2)
        runs.append(("plain", *run_worker(args, args.seconds, False, MIN_SAMPLES)))
        setup_times += measure_setup(SETUP_REPEATS - SETUP_REPEATS // 2)
        setup_s = statistics.median(setup_times)

    errors: list[str] = []
    checked = 0
    for _, _, outputs in runs:
        n, errs = check_outputs(outputs)
        checked += n
        errors += errs
    summaries = {name: summary for name, summary, _ in runs}
    codes = [code for summary in summaries.values() for code in summary["codes"]]
    attempted = len(codes)
    failed = sum(1 for code in codes if code != 0)

    if args.trace:
        metrics = per_layer(summaries["plain"], summaries["traced"], args.workload)
        findings = layer_findings(metrics, args.workload)
    else:
        metrics = end_to_end(summaries["plain"], args.workload, setup_s)
        findings = []
    exit_codes = Counter()
    for summary in summaries.values():
        exit_codes.update({int(k): v for k, v in summary["exit_codes"].items()})

    report = {
        "workload": args.workload,
        "why": workloads.WORKLOADS[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_info(),
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted if attempted else None,
        "exit_codes": dict(sorted(exit_codes.items())),
        "outputs_checked": checked,
        "oracle_errors": errors[:50],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "findings": findings,
    }
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": report["metrics"]}
    results = ROOT / WORKDIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2) + "\n")

    log = sys.stderr
    print(f"[{args.workload} seed={args.seed} trace={args.trace}] "
          f"{json.dumps(report['machine'])}", file=log)
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:>16.6g} {unit}", file=log)
    print(f"  {'fail_frac':34s} {report['fail_frac']:>16.6g} ratio "
          f"({failed} of {attempted} attempted; exit codes {report['exit_codes']})", file=log)
    print(f"  outputs checked by oracles: {checked}; mismatches: {len(errors)}", file=log)
    for line in findings + errors[:10]:
        print(f"  {line}", file=log)

    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
