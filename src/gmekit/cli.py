"""Command-line interface for batch use.

Exit codes are a stable contract:

* 0   evaluated cleanly, no violation detected
* 10  violation detected (genuine entanglement certified)
* 1   soundness failure (a biseparable state violated a condition)
* 2   usage or input error

``GME_TOLERANCE`` in the environment overrides the default violation
tolerance; ``--tolerance`` overrides both.  CSV output uses '.' decimals and
17 significant digits.  All randomised commands are reproducible from their
``--seed``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import downconv as dc
from .exceptions import ToolkitError
from .linalg import kron_all
from .operators import parse_operator_specs
from .search import SEARCH_CONDITIONS, optimize
from .states import (
    PureState,
    all_bipartitions,
    haar_random_state,
    load_state,
    random_biseparable,
)
from .witness import (
    CONDITION_NAMES,
    _fmt,
    _resolve_tolerance,
    condition_arity,
    evaluate_condition,
    noise_margin_curve,
    noise_threshold,
)

EXIT_OK = 0
EXIT_SOUNDNESS_FAILURE = 1
EXIT_INPUT_ERROR = 2
EXIT_VIOLATION = 10


def _tolerance(value: float | None) -> float:
    env = os.environ.get("GME_TOLERANCE")
    if value is None and env is not None:
        try:
            value = float(env)
        except ValueError as exc:
            raise ToolkitError(f"GME_TOLERANCE={env!r} is not a number") from exc
    return _resolve_tolerance(value)


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _ops_for_state(args, state) -> list[np.ndarray]:
    return parse_operator_specs(args.ops, state.dims, args.dagger)


def _grid(name: str, start: float, stop: float, step: float) -> np.ndarray:
    if not (step > 0 and stop >= start):
        raise ToolkitError(f"need {name}-step > 0 and {name}-stop >= {name}-start")
    return np.arange(start, stop + 0.5 * step, step)


def _cmd_evaluate(args) -> int:
    tol = _tolerance(args.tolerance)
    state = load_state(args.state)
    ops = _ops_for_state(args, state)
    if args.condition in ("bi1", "bi2"):
        split = args.split
        n = len(state.dims)
        if not 1 <= split < n:
            raise ToolkitError(f"--split must be in [1, {n - 1}] for {n} subsystems")
        blocks = (tuple(range(split)), tuple(range(split, n)))
        left = kron_all(ops[:split])
        right = kron_all(ops[split:])
        report = evaluate_condition(args.condition, state, [left, right], tol, blocks=blocks)
    else:
        report = evaluate_condition(args.condition, state, ops, tol)
    text = report.to_json() + "\n"
    print(text, end="")
    if args.out:
        _write_text(args.out, text)
    return EXIT_VIOLATION if report.violated else EXIT_OK


def _cmd_scan_noise(args) -> int:
    tol = _tolerance(args.tolerance)
    state = load_state(args.state)
    if not isinstance(state, PureState):
        raise ToolkitError("scan-noise requires a pure state file (kind 'pure')")
    ops = _ops_for_state(args, state)
    s_grid = _grid("s", args.s_start, args.s_stop, args.s_step)
    reports = noise_margin_curve(state, ops, args.condition, s_grid, tolerance=tol)
    if args.out:
        lines = ["s,lhs,rhs_max,rhs_sum,margin,violated"]
        lines += [f"{_fmt(s)},{r.csv_row()}" for s, r in zip(s_grid, reports)]
        _write_text(args.out, "\n".join(lines) + "\n")
    threshold = noise_threshold(state, ops, args.condition, tolerance=tol)
    print(json.dumps({"threshold": threshold, "condition": args.condition}, indent=2))
    return EXIT_VIOLATION if threshold is not None else EXIT_OK


def _cmd_downconv(args) -> int:
    tol = _tolerance(args.tolerance)
    params = dc.DownConversionParams(
        pump_photons=args.N,
        omega1=args.omega1,
        omega2=args.omega2,
        omega3=args.omega3,
        coupling=args.g,
    )
    times = _grid("t", args.t_start, args.t_stop, args.t_step)
    header, rows = dc.sweep_rows(params, times, tolerance=tol)
    lines = [",".join(header)]
    any_violation = False
    for row in rows:
        any_violation = any_violation or row[-1]
        lines.append(
            ",".join(_fmt(x) for x in row[:-1]) + ("," + ("true" if row[-1] else "false"))
        )
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_VIOLATION if any_violation else EXIT_OK


def _cmd_soundness(args) -> int:
    tol = _tolerance(args.tolerance)
    if args.trials < 1:
        raise ToolkitError(f"--trials must be >= 1, got {args.trials}")
    dims = tuple(args.dims)
    arity = condition_arity(args.condition)
    if args.condition in ("bi1", "bi2") or arity != len(dims):
        raise ToolkitError(
            f"soundness supports tri/quad conditions matching the subsystem count, got "
            f"{args.condition!r} on {len(dims)} subsystems"
        )
    partitions = all_bipartitions(len(dims))
    mixture_size = args.mixture_size or len(partitions)
    rng = np.random.default_rng(args.seed)
    max_margin = -np.inf
    violations = 0
    for _ in range(args.trials):
        state = random_biseparable(dims, partitions, mixture_size, rng)
        ops = [
            np.outer(haar_random_state(d, rng), haar_random_state(d, rng).conj())
            for d in dims
        ]
        report = evaluate_condition(args.condition, state, ops, tol)
        max_margin = max(max_margin, report.margin)
        if report.violated:
            violations += 1
    print(
        json.dumps(
            {
                "condition": args.condition,
                "dims": list(dims),
                "trials": args.trials,
                "seed": args.seed,
                "max_margin": max_margin,
                "violations": violations,
                "tolerance": tol,
            },
            indent=2,
        )
    )
    return EXIT_SOUNDNESS_FAILURE if violations else EXIT_OK


def _cmd_optimize(args) -> int:
    tol = _tolerance(args.tolerance)
    state = load_state(args.state)
    result = optimize(
        state,
        args.condition,
        restarts=args.restarts,
        budget=args.budget,
        seed=args.seed,
        tolerance=tol,
    )
    text = result.to_json() + "\n"
    print(text, end="")
    if args.out:
        _write_text(args.out, text)
    return EXIT_VIOLATION if result.best_report.violated else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gme",
        description="Detect genuine multipartite entanglement with local-operator conditions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, ops=True):
        p.add_argument("--tolerance", type=float, default=None, help="violation tolerance")
        if ops:
            p.add_argument("--state", required=True, help="state JSON file")
            p.add_argument(
                "--ops",
                nargs="+",
                required=True,
                metavar="SPEC",
                help="one operator spec per subsystem, e.g. sigma_minus or 'ketbra 0 1'",
            )
            p.add_argument(
                "--dagger",
                default=None,
                help="per-subsystem dagger pattern, e.g. 'd--' to adjoint the first operator",
            )

    p_eval = sub.add_parser("evaluate", help="evaluate one condition on one state")
    add_common(p_eval)
    p_eval.add_argument("--condition", required=True, choices=CONDITION_NAMES)
    p_eval.add_argument("--split", type=int, default=1, help="block size for bi1/bi2")
    p_eval.add_argument("--out", default=None, help="also write the JSON report here")
    p_eval.set_defaults(func=_cmd_evaluate)

    p_scan = sub.add_parser(
        "scan-noise", help="exact white-noise threshold s* of a pure state"
    )
    add_common(p_scan)
    p_scan.add_argument("--condition", required=True, choices=CONDITION_NAMES)
    p_scan.add_argument("--s-start", type=float, default=0.0)
    p_scan.add_argument("--s-stop", type=float, default=1.0)
    p_scan.add_argument("--s-step", type=float, default=0.025)
    p_scan.add_argument("--out", default=None, help="CSV of margins over the s grid")
    p_scan.set_defaults(func=_cmd_scan_noise)

    p_dc = sub.add_parser("downconv", help="down-conversion time series CSV")
    add_common(p_dc, ops=False)
    p_dc.add_argument("--N", type=int, required=True, help="initial pump photon number (even)")
    p_dc.add_argument("--g", type=float, default=1.0, help="trilinear coupling")
    p_dc.add_argument("--omega1", type=float, default=0.0)
    p_dc.add_argument("--omega2", type=float, default=0.0)
    p_dc.add_argument("--omega3", type=float, default=0.0)
    p_dc.add_argument("--t-start", type=float, default=0.0)
    p_dc.add_argument("--t-stop", type=float, default=1.0)
    p_dc.add_argument("--t-step", type=float, default=0.05)
    p_dc.add_argument("--out", default=None, help="CSV path (stdout when omitted)")
    p_dc.set_defaults(func=_cmd_downconv)

    p_sound = sub.add_parser(
        "soundness", help="check a condition never fires on random biseparable states"
    )
    add_common(p_sound, ops=False)
    p_sound.add_argument("--dims", type=int, nargs="+", required=True)
    p_sound.add_argument("--condition", required=True, choices=CONDITION_NAMES)
    p_sound.add_argument("--trials", type=int, required=True)
    p_sound.add_argument("--seed", type=int, default=0)
    p_sound.add_argument("--mixture-size", type=int, default=None)
    p_sound.set_defaults(func=_cmd_soundness)

    p_opt = sub.add_parser("optimize", help="search rank-one operators for the best margin")
    add_common(p_opt, ops=False)
    p_opt.add_argument("--state", required=True)
    p_opt.add_argument("--condition", required=True, choices=SEARCH_CONDITIONS)
    p_opt.add_argument("--restarts", type=int, default=8)
    p_opt.add_argument("--budget", type=int, default=400)
    p_opt.add_argument("--seed", type=int, default=0)
    p_opt.add_argument("--out", default=None)
    p_opt.set_defaults(func=_cmd_optimize)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits with 2 on usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ToolkitError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
