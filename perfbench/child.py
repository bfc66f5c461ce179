"""Program-side process of the benchmark; it drives hkverify only through
its public API.

    python3 child.py worker [--trace FILE]
        Serve in-process reports over a JSON-lines pipe. A request line
        {"config": {...ReportConfig fields...}} is answered with
        {"elapsed_s", "exit_code", "json", "md"}, where elapsed_s is the wall
        time of `run_report`, `to_json` and `to_markdown` together; {"reset_trace": true} drops the spans
        recorded so far and is answered with {}. An empty line or end of
        input stops the worker.

    python3 child.py cli --trace FILE -- ARGS...
        Run `hkverify.cli.main(ARGS)` once under the tracer.

With --trace the tracer from tracing.py is installed before any call and
its spans are written to FILE when the process ends.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback

import tracing


def _serve(tracer, trace_path: str | None) -> int:
    import hkverify.report as report

    out = sys.stdout
    sys.stdout = sys.stderr  # keep the protocol stream free of stray prints
    out.write('{"ready": true}\n')
    out.flush()
    for line in sys.stdin:
        if not line.strip():
            break
        try:
            request = json.loads(line)
            if request.get("reset_trace"):
                if tracer is not None:
                    tracer.reset()
                out.write("{}\n")
                out.flush()
                continue
            config = report.ReportConfig(**request["config"])
            start = time.perf_counter()
            result = report.run_report(config)
            json_text, md_text = report.to_json(result), report.to_markdown(result)
            elapsed = time.perf_counter() - start
            reply = {"elapsed_s": elapsed, "exit_code": report.exit_code(result), "json": json_text, "md": md_text}
        except Exception:  # report the failure to the harness and keep serving
            reply = {"error": traceback.format_exc()}
        out.write(json.dumps(reply) + "\n")
        out.flush()
    if tracer is not None:
        tracer.dump(trace_path)
    return 0


def _run_cli(tracer, trace_path: str, argv: list[str]) -> int:
    import hkverify.cli as cli

    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(trace_path)


def main() -> int:
    argv, cli_argv = sys.argv[1:], []
    if "--" in argv:
        argv, cli_argv = argv[: argv.index("--")], argv[argv.index("--") + 1 :]
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("worker", "cli"))
    parser.add_argument("--trace", default=None)
    args = parser.parse_args(argv)
    tracer = tracing.install() if args.trace else None
    if args.mode == "worker":
        return _serve(tracer, args.trace)
    if tracer is None:
        parser.error("cli mode needs --trace")
    return _run_cli(tracer, args.trace, cli_argv)


if __name__ == "__main__":
    sys.exit(main())
