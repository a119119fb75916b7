"""One benchmark pass in a fresh interpreter.

Usage: python3 perfbench/passrun.py <pass_dir>

Reads `<pass_dir>/plan.json`, written by run.py:
  {"commands": [[argv...], ...], "trace": bool}
imports laycon from ./src, resolves the first command's bundle (the end of
set-up), then runs every command through `laycon.cli.main` one after
another and writes `<pass_dir>/result.json`. Exceptions raised by a
command are recorded, not propagated; any other failure exits non-zero.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def _option(argv, flag):
    return argv[argv.index(flag) + 1] if flag in argv else None


def _sim_seconds(cli, argv) -> float:
    """Plant seconds one command simulates (0 for certify)."""
    if argv[0] not in ("run", "sweep"):
        return 0.0
    cfg = cli.resolve_config(_option(argv, "--scenario"), _option(argv, "--config"))
    runs = int(_option(argv, "--seeds")) if argv[0] == "sweep" else 1
    return float(cfg["sim"]["t_end"]) * runs


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main() -> int:
    pass_dir = Path(sys.argv[1])
    plan = json.loads((pass_dir / "plan.json").read_text(encoding="utf-8"))
    src = Path("src").resolve()
    sys.path.insert(0, str(src))

    import laycon.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"laycon imported from {cli.__file__}, not from {src}")
    tracer = None
    if plan["trace"]:
        from tracer import Tracer

        tracer = Tracer(pass_dir / "workers")
        tracer.install()
    first = plan["commands"][0]
    cli.load_bundle(cli.resolve_config(_option(first, "--scenario"), _option(first, "--config")))
    setup_end = time.monotonic()
    exit_codes, errors = [], []
    cpu0, t0 = _cpu_seconds(), time.perf_counter()
    for argv in plan["commands"]:
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                exit_codes.append(cli.main(argv))
            errors.append(None)
        except Exception:  # a failing command is a measured outcome
            exit_codes.append(None)
            errors.append(traceback.format_exc(limit=3))
    wall = time.perf_counter() - t0
    cpu = _cpu_seconds() - cpu0
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    trace = tracer.snapshot() if tracer else None
    result = {
        "setup_end": setup_end,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_kb / 1024.0,
        "sim_seconds": sum(_sim_seconds(cli, argv) for argv in plan["commands"]),
        "exit_codes": exit_codes,
        "errors": errors,
        "trace": trace,
    }
    tmp = pass_dir / "result.json.tmp"
    tmp.write_text(json.dumps(result), encoding="utf-8")
    os.replace(tmp, pass_dir / "result.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
