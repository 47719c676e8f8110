"""Command-line front end.

    sivcav run <config> [--out DIR] [--seed N] [--verbose]
    sivcav validate <config>
    sivcav fit <model> <csv>

Exit codes: 0 success, 1 configuration/validation error, 2 runtime error.
Diagnostics go to stderr; data goes to files or stdout only.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .config import load_config
from .errors import ConfigError, SivCavError

# The physics stack is imported inside the commands that need it: importing
# this module loads neither scipy nor the protocols.


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sivcav",
        description="Cavity-coupled SiV spin-photon interface simulator")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a protocol config")
    run.add_argument("config", help="path to the protocol config file")
    run.add_argument("--out", default=None,
                     help="output directory root (default: the config's "
                          "output_dir, or 'runs')")
    run.add_argument("--seed", type=int, default=None,
                     help="override the config seed")
    run.add_argument("--verbose", action="store_true")
    run.set_defaults(func=_cmd_run)

    val = sub.add_parser("validate", help="validate a protocol config")
    val.add_argument("config", help="path to the protocol config file")
    val.set_defaults(func=_cmd_validate)

    fit = sub.add_parser("fit", help="fit a shipped model to CSV data")
    fit.add_argument("model", help="shipped model name; an unknown name lists them")
    fit.add_argument("csv", help="CSV file with x in the first column and y "
                                 "in the second (header optional)")
    fit.set_defaults(func=_cmd_fit)
    return p


def _read_xy_csv(path: str):
    import numpy as np

    xs, ys, x_line = [], [], {}
    seen_row = False
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            header, seen_row = not seen_row, True
            cells = line.split(",")
            if len(cells) < 2:
                raise SivCavError(f"{path}:{line_no}: need at least two columns")
            try:
                x, y = float(cells[0]), float(cells[1])
            except ValueError:
                if header:
                    continue  # the first non-empty row may be a header
                raise SivCavError(f"{path}:{line_no}: non-numeric data")
            if not (math.isfinite(x) and math.isfinite(y)):
                raise SivCavError(f"{path}:{line_no}: non-finite value")
            if x in x_line:  # the fit sorts x: a repeat is the one non-monotone x
                raise SivCavError(f"{path}:{x_line[x]} and {path}:{line_no}: "
                                  f"x value {x} repeats")
            x_line[x] = line_no
            xs.append(x)
            ys.append(y)
    if len(xs) < 2:
        raise SivCavError(f"{path}: no data rows found")
    return np.array(xs), np.array(ys)


def _cmd_run(args) -> int:
    from .protocols import run_protocol

    cfg = load_config(args.config)
    manifest = run_protocol(cfg, out_dir=args.out, seed=args.seed,
                            verbose=args.verbose)
    print(manifest.out_dir)
    return 0


def _cmd_validate(args) -> int:
    cfg = load_config(args.config)
    print(f"{args.config}: valid ({cfg.protocol}, hash {cfg.config_hash()[:8]})",
          file=sys.stderr)
    return 0


def _cmd_fit(args) -> int:
    import numpy as np

    from ._table import json_text
    from .fitting import MODELS, Spectrum, lm_fit

    if args.model not in MODELS:
        raise SivCavError(f"unknown model '{args.model}' "
                          f"(choose from {', '.join(sorted(MODELS))})")
    try:
        x, y = _read_xy_csv(args.csv)
    except UnicodeDecodeError as exc:
        raise SivCavError(f"cannot read {args.csv}: not UTF-8 ({exc.reason})") from None
    order = np.argsort(x)
    spectrum = Spectrum(x[order], y[order])
    result = lm_fit(MODELS[args.model], spectrum)
    print(json_text(result.as_dict()))
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SivCavError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    """Process entry point of `sivcav` and `python -m sivcav.cli`.

    Runs `main`, flushes stdout and then stderr, and ends the process with
    `os._exit`: no interpreter teardown runs, so neither do `atexit`
    handlers. Output files are closed before `main` returns. A failed
    stdout flush (a closed pipe) is a runtime error: one `error:` line and
    exit 2. `SystemExit` from argparse and uncaught exceptions propagate
    and end the process normally. In-process callers use `main`.
    """
    code = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None:
                stream.flush()
        except OSError as exc:
            code = 2
            if stream is sys.stdout and sys.stderr is not None:
                print(f"error: {exc}", file=sys.stderr)
    os._exit(code)


if __name__ == "__main__":
    entry()
