"""One execution of the program, as a user runs it: a fresh process that
imports the package, parses a `nonautolin` command line, builds the system
and runs the command through `cli.run_command` and `cli.write_report`.

    python3 perfbench/child.py MODE TRACE SPANS_PATH -- <nonautolin arguments>

MODE is `setup` (stop as soon as the system is built) or `run`.  TRACE is 0
or 1; with 1 the span tracer is installed before the command runs and its
spans are written to SPANS_PATH.  The last stdout line is a JSON object with
the monotonic time at which the system was built (`setup_end`), the wall and
CPU seconds from there until the report was written, the peak resident set
and, when traced, the per-layer counts and self times.
"""

import json
import resource
import sys
import time

from nonautolin import cli


class _SetupDone(Exception):
    pass


def main(argv: list) -> dict:
    mode, trace, spans_path = argv[0], argv[1] == "1", argv[2]
    if argv[3] != "--":
        raise SystemExit("usage: child.py MODE TRACE SPANS_PATH -- ARGS")
    args = cli.build_parser().parse_args(argv[4:])
    cfg = cli.config_from_args(args)
    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    stamp: dict = {}
    build = cli.build_system

    def build_and_stamp(run_cfg):
        spec = build(run_cfg)
        if tracer is not None:
            tracer.wrap_system(spec)
        stamp["setup_end"] = time.monotonic()
        stamp["cpu0"] = time.process_time()
        if mode == "setup":
            raise _SetupDone
        return spec

    cli.build_system = build_and_stamp
    try:
        report = cli.run_command(args.command, cfg)
    except _SetupDone:
        return {"setup_end": stamp["setup_end"]}
    cli.write_report(report, args.out, args.fmt, args.command)
    wall = time.monotonic() - stamp["setup_end"]
    cpu = time.process_time() - stamp["cpu0"]
    out = {
        "setup_end": stamp["setup_end"],
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "verdict": report["verdict"],
    }
    if tracer is not None:
        counts, times = spans.layer_metrics(tracer)
        out["counts"], out["times"] = counts, times
        tracer.save(spans_path)
    return out


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
