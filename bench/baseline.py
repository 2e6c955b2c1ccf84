"""One-shot reference measurements of the ROADMAP baseline table.

Each row runs once in a fresh interpreter; the row's own process reports
its wall time (import excluded) and its peak RSS (``ru_maxrss``, import
included). These are single measurements reported beside the workloads,
not a workload. Run from the repository root:

    python3 bench/baseline.py            # all rows -> bench/baseline.json
    python3 bench/baseline.py --row NAME # one row, JSON on stdout
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "baseline.json"


def _c_upper_report():
    from sumsetlab import BlockSet, GrowthSchedule, c_upper_report, sieve_covering_odd
    x = 10**8
    table = sieve_covering_odd(8)
    blocks = BlockSet.covering(GrowthSchedule.polynomial(), x, table)
    start = time.perf_counter()
    report = c_upper_report(x, blocks, table)
    return time.perf_counter() - start, {"c_count": report.c_count}


def _enumerate_c():
    from sumsetlab import BlockSet, GrowthSchedule, enumerate_c
    x = 10**8
    blocks = BlockSet.covering(GrowthSchedule.polynomial(), x)
    start = time.perf_counter()
    count, _ = enumerate_c(x, blocks)
    return time.perf_counter() - start, {"c_count": count}


def _ap_scan():
    from sumsetlab import ap_scan, crt_combine, default_covering_system
    cert = crt_combine(default_covering_system())
    start = time.perf_counter()
    scan = ap_scan(cert, 3 * 10**8)
    return time.perf_counter() - start, {"members_scanned": scan.members_scanned,
                                         "exceptions": len(scan.exceptions)}


def _romanov():
    from sumsetlab import romanov_density_scan
    start = time.perf_counter()
    scan = romanov_density_scan(10**8)
    return time.perf_counter() - start, {"representable_fraction": scan.representable_fraction}


def _cli(*argv):
    def row():
        import contextlib
        import io

        from sumsetlab.cli import run_command
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_command(list(argv))
        return time.perf_counter() - start, {"exit_code": code, "stderr": err.getvalue().strip()}
    return row


ROWS = {
    "c_upper_report(10^8), polynomial": _c_upper_report,
    "enumerate_c(10^8), polynomial": _enumerate_c,
    "ap_scan of the Erdos progression to 3*10^8": _ap_scan,
    "romanov_density_scan(10^8)": _romanov,
    "experiment run depolignac-audit": _cli("experiment", "run", "depolignac-audit"),
    "count-b --schedule paper --x 2^20000": _cli("count-b", "--schedule", "paper", "--x", "2^20000"),
    "count-b --schedule paper --x 2^70000": _cli("count-b", "--schedule", "paper", "--x", "2^70000"),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--row", choices=sorted(ROWS))
    args = parser.parse_args()
    if args.row:
        wall, result = ROWS[args.row]()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps({"wall_s": wall, "peak_rss_mb": rss_mb, "result": result}))
        return 0

    sys.path.insert(0, str(ROOT / "bench"))
    from run import _env, machine_info

    rows = []
    for name in ROWS:
        proc = subprocess.run([sys.executable, __file__, "--row", name], cwd=ROOT, env=_env(),
                              capture_output=True, text=True, timeout=600, check=True)
        row = {"row": name, **json.loads(proc.stdout.strip().splitlines()[-1])}
        rows.append(row)
        print(f"{name:46s} {row['wall_s']:9.3f} s {row['peak_rss_mb']:8.1f} MB  "
              f"{json.dumps(row['result'])}", file=sys.stderr)
    OUT.write_text(json.dumps({"machine": machine_info(), "rows": rows}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
