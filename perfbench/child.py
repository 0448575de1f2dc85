"""Run one gammavar CLI command in this fresh interpreter and time it.

Usage: python3 child.py SPEC RESULT

SPEC is a JSON file: {"src": path, "argv": [...], "resolve": {"document",
"suite_name", "overrides"}, "trace": bool}.  The BLAS thread variables must
already be set in the environment, since numpy loads during the timed set-up.
RESULT receives {"returncode", "setup_s", "run_s", "peak_rss_mb", "trace"}.

Set-up is the time to import gammavar and resolve the command's config, as
every CLI invocation pays it.  Run time spans the call to gammavar.cli.main
and its return, report rendering and writing included.
"""

import json
import resource
import sys
import time


def main(spec_path: str, result_path: str) -> None:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])

    started = time.perf_counter()
    import gammavar.cli
    from gammavar.suites import resolve_config

    resolve_config(**spec["resolve"])
    setup_s = time.perf_counter() - started

    tracer = None
    if spec["trace"]:
        import tracing  # found next to this script, which is on sys.path

        tracer = tracing.Tracer()
        tracing.install(tracer)

    started = time.perf_counter()
    returncode = gammavar.cli.main(spec["argv"])
    run_s = time.perf_counter() - started

    result = {
        "returncode": returncode,
        "setup_s": setup_s,
        "run_s": run_s,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trace": tracing.layer_metrics(tracer.summary()) if tracer else None,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
