"""Run one prolatesum CLI command in this fresh process and report its cost.

Usage: python3 worker.py [--trace SPANS.jsonl --op-id K] -- <prolatesum arguments>

The last line of standard output is a JSON object: exit code, import time
of prolatesum (numpy and scipy included), time of `prolatesum.cli.main`,
max RSS, and the file the package was imported from. The caller sets
PYTHONPATH and the BLAS thread count.
"""

import time

t_start = time.perf_counter()
import prolatesum.cli  # noqa: E402
t_imported = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    sep = sys.argv.index("--")
    opts, cli_args = sys.argv[1:sep], sys.argv[sep + 1:]
    tracer = None
    if opts[:1] == ["--trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    t0 = time.perf_counter()
    try:
        rc = prolatesum.cli.main(cli_args)
    finally:
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.dump(opts[1], int(opts[3]))
    print(json.dumps({
        "rc": rc,
        "import_s": t_imported - t_start,
        "op_s": t1 - t0,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "package": prolatesum.__file__,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
