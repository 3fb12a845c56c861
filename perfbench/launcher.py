"""Run one ``lidarseq`` CLI command with stage spans recorded.

Usage: python3 perfbench/launcher.py SPANS_FILE COMMAND [ARGS...]

Installs the benchmark's wrappers, calls ``lidarseq.cli.main`` with the
remaining arguments inside a root span named ``cli.<COMMAND>``, writes the
spans to SPANS_FILE as JSON lines and exits with the command's exit code.
"""

import sys

import spans


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    import lidarseq.cli  # before install, so the names cli imported get wrapped

    tracer = spans.Tracer()
    spans.install(tracer)
    with tracer.span(f"cli.{argv[0]}"):
        code = lidarseq.cli.main(argv)
    tracer.write(spans_file)
    return code


if __name__ == "__main__":
    sys.exit(main())
