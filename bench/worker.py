"""One measured run in a fresh interpreter: a closed loop of CLI requests.

One client sends the workload's requests through
``sumsetlab.cli.run_command(argv)`` in-process, each only after the
previous one returned, with stdout and stderr captured, until
``--seconds`` have passed and at least ``--min-samples`` requests were
timed. Every output goes to ``--outputs`` as JSON lines for run.py's
oracles; the timings, exit codes and peak RSS are printed as one JSON line
on stdout. With ``--trace 1`` the layers are
wrapped (tracer.py) and the spans are written to ``--spans``.

run.py starts it from the repository root with ``PYTHONPATH=src``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import sys
import time

import tracer as tracing
import workloads

# A run that cannot finish its minimum sample stops here regardless.
HARD_LIMIT_S = 120.0


def _send(run_command, argv) -> tuple[float, int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(list(argv))
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--min-samples", type=int, default=1)
    parser.add_argument("--probes", action="store_true",
                        help="also send the contract probes (untimed count-b requests)")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--outputs", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()

    from sumsetlab.cli import run_command

    with open(args.outputs, "w") as outputs:

        def record(phase, request, code, out, err) -> None:
            outputs.write(json.dumps({"phase": phase, "kind": request.kind, "spec": request.spec,
                                      "argv": request.argv, "code": code,
                                      "out": out, "err": err}) + "\n")

        exit_codes = {2: 0, 3: 0}
        for request in workloads.warmup(args.workload, args.seed, args.workdir):
            record("warmup", request, *_send(run_command, request.argv)[1:])
        if args.probes:
            for request in workloads.contract_probes(args.seed):
                _, code, out, err = _send(run_command, request.argv)
                exit_codes[code] = exit_codes.get(code, 0) + 1
                record("probe", request, code, out, err)

        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracing.install(tracer)
            from sumsetlab.cli import run_command  # the wrapped binding

        latencies, codes = [], []
        gc.collect()
        started = time.perf_counter()
        for request in workloads.requests(args.workload, args.seed, args.workdir):
            if tracer is not None:
                tracer.begin_request(len(latencies))
            latency, code, out, err = _send(run_command, request.argv)
            latencies.append(latency)
            codes.append(code)
            record("timed", request, code, out, err)
            elapsed = time.perf_counter() - started
            if elapsed > HARD_LIMIT_S or (
                elapsed >= args.seconds and len(latencies) >= args.min_samples
            ):
                break
        loop_s = time.perf_counter() - started
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    for code in codes:
        exit_codes[code] = exit_codes.get(code, 0) + 1
    summary = {
        "latencies_s": latencies,
        "codes": codes,
        "loop_s": loop_s,
        "peak_rss_kb": peak_rss_kb,
        "exit_codes": {str(k): v for k, v in exit_codes.items()},
        "trace": None,
    }
    if tracer is not None:
        if args.spans:
            tracer.write_spans(args.spans)
        summary["trace"] = tracer.summary()
    sys.stdout.write(json.dumps(summary) + "\n")


if __name__ == "__main__":
    main()
