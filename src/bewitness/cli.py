"""Batch command line front end.

Each command returns its result and prints nothing; `main` alone writes
output and picks the exit code.  On success it prints JSON or CSV to
stdout, and the same bytes to --out when given; `verify` prints one text
line per check whatever --format says, and does not echo --seed.  Every
refusal, an unwritable --out included, is one stderr line
"<command>: <message>" with exit 2 and nothing on stdout.  A failed check
or runtime assertion exits 1.  Reruns with the same flags produce
byte-identical primary output.  The argument parser is built once per
process, so repeated in-process `main` calls pay only for parsing.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys

import numpy as np

from . import protocol, states, verify
from .optimize import (AscentConfig, SeesawConfig, ccnr_ascent_bloch_ppt,
                       classical_optimal_strategy_d4, seesaw_classical, seesaw_quantum)

# what a command other than `verify` returns: the JSON payload, the CSV
# header and the CSV rows
Table = tuple[dict, list[str], list[list]]


def _sig12(v: float) -> float:
    """Round to 12 significant digits for table emission."""
    return float(f"{float(v):.12g}")


def _load_state_arg(source: str) -> states.BlochDiagonalState:
    try:
        return states.rho_be() if source == "rho_be" else states.load_state(source)
    except (OSError, ValueError, KeyError, states.ConventionError) as exc:
        raise ValueError(f"cannot load state: {exc}") from exc


def cmd_state_info(args) -> Table:
    state = _load_state_arg(args.state)
    report = states.ppt_check(state)
    if report.min_eig_state < states.PSD_EIG_TOL:
        raise ValueError(
            "not a state: minimum eigenvalue "
            f"{report.min_eig_state:.6g} < {states.PSD_EIG_TOL:g}"
        )
    closed = protocol.witness_closed_form(state, protocol.matched_task(state))
    payload = {
        "seed": args.seed,
        "state": states.state_to_dict(state),
        "report": report.to_dict(),
        "witness_closed_form": closed.value,
        "separability_note": (
            "CCNR <= 1: consistent with separability"
            if report.ccnr <= 1 + 1e-9
            else "CCNR > 1: certifies entanglement"
        ),
    }
    header = ["seed", "n_copies", "ccnr", "is_ppt", "min_eig_state",
              "min_eig_pt", "witness_closed_form"]
    row = [args.seed, state.n_copies, repr(report.ccnr), report.is_ppt,
           repr(report.min_eig_state), repr(report.min_eig_pt),
           repr(closed.value)]
    return payload, header, [row]


def cmd_witness(args) -> Table:
    per_copy = states.rho_be()
    classical = args.strategy == "classical-d4"
    if classical and args.n_copies != 1:
        raise ValueError("classical-d4 is a one-copy strategy")
    if classical and args.method != "brute":
        raise ValueError(f"method {args.method} needs the entangled strategy")

    task = protocol.TaskSpec(n_copies=args.n_copies, channel_dim=4**args.n_copies,
                             signs=per_copy.sign_pattern())
    if args.method == "closed":
        # the closed form takes the per-copy state for any copy count
        result = protocol.witness_closed_form(per_copy, task)
    elif args.method == "brute":
        strat = (
            classical_optimal_strategy_d4()
            if classical
            else protocol.be_strategy(states.tensor_power(per_copy, args.n_copies))
        )
        samples = None
        if args.n_copies == 2:
            samples = protocol.sample_triples(2, args.samples, seed=args.seed)
        result = protocol.witness_brute_force(strat, task, samples=samples)
    else:
        samples = protocol.sample_triples(args.n_copies, args.samples, seed=args.seed)
        ev = protocol.witness_factored(per_copy, task, samples)
        value = float(np.mean(task.weights(samples) * ev))
        result = protocol.WitnessResult(value, "factored", task)

    payload = {
        "seed": args.seed,
        "strategy": args.strategy,
        "method": result.method,
        "n_copies": task.n_copies,
        "value": result.value,
        "task": result.task.to_dict(),
    }
    header = ["seed", "strategy", "method", "n_copies", "value"]
    row = [args.seed, args.strategy, result.method, task.n_copies, repr(result.value)]
    return payload, header, [row]


# the largest copy count whose float columns are all normal numbers: from
# N = 512 the separable bound 2^-2N is subnormal and prints rounded, and
# from N = 538 it prints as 0
_SCALING_N_MAX = 511


def cmd_scaling(args) -> Table:
    if not 1 <= args.n_max <= _SCALING_N_MAX:
        raise ValueError(f"--n-max must lie in 1..{_SCALING_N_MAX}")
    rows = []
    rho = states.rho_be()
    per_copy_w = protocol.witness_closed_form(rho, protocol.matched_task(rho)).value
    for n in range(1, args.n_max + 1):
        w_be = per_copy_w**n
        bound = protocol.sep_upper_bound(4**n, n)
        v_crit = protocol.critical_visibility(n)
        rows.append(
            {
                "n_copies": n,
                "witness_be": _sig12(w_be),
                "sep_bound": _sig12(float(bound)),
                "overhead_dim": protocol.overhead_dimension(n),
                "v_crit": _sig12(float(v_crit)),
                "v_crit_exact": f"{v_crit.numerator}/{v_crit.denominator}",
            }
        )
    header = ["seed", "n_copies", "witness_be", "sep_bound", "overhead_dim", "v_crit"]
    csv_rows = [
        [args.seed, r["n_copies"], f"{r['witness_be']:.12g}",
         f"{r['sep_bound']:.12g}", r["overhead_dim"], f"{r['v_crit']:.12g}"]
        for r in rows
    ]
    return {"seed": args.seed, "rows": rows}, header, csv_rows


def _search_table(args, labels: dict, report) -> Table:
    """A search's summary and full report, and its one-row table."""
    summary = {**labels, "best_value": report.best_value, "seed": args.seed}
    header = ["seed", *labels, "best_value", "converged"]
    row = [args.seed, *labels.values(), repr(report.best_value), report.converged]
    return {"seed": args.seed, "summary": summary, "report": report.to_dict()}, header, [row]


def cmd_seesaw(args) -> Table:
    runner = seesaw_classical if args.kind == "classical" else seesaw_quantum
    cfg = SeesawConfig(
        channel_dim=args.channel_dim,
        n_restarts=args.restarts,
        max_iters=args.max_iters,
        tol=args.tol,
        seed=args.seed,
    )
    return _search_table(args, {"kind": args.kind, "channel_dim": args.channel_dim}, runner(cfg))


def cmd_ccnr_search(args) -> Table:
    cfg = AscentConfig(
        n_restarts=args.restarts,
        max_iters=args.max_iters,
        seed=args.seed,
    )
    report = ccnr_ascent_bloch_ppt(args.local_dim, cfg)
    return _search_table(args, {"local_dim": args.local_dim}, report)


def cmd_verify(args) -> list[verify.CheckResult]:
    state = None
    if args.state is not None:
        state = _load_state_arg(args.state)
        if state.n_copies != 1:
            raise ValueError(
                f"cannot load state: --state takes a one-copy state, got {state.n_copies} copies"
            )
    return verify.run_all(state)


def _render(result: Table | list[verify.CheckResult], fmt: str) -> tuple[str, int]:
    """The primary output of a command's result, and the exit code."""
    if isinstance(result, list):
        text = "".join(r.line() + "\n" for r in result)
        return text, 0 if all(r.passed for r in result) else 1
    payload, header, rows = result
    if fmt == "json":
        return json.dumps(payload, indent=2, sort_keys=True) + "\n", 0
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue(), 0


def _write_out(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write --out {path}: {exc.strerror}") from exc


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built on the first call and shared by
    every later `main` in the process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="bewitness",
        description="Bound entanglement witness toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("state-info", help="diagnostics for a Bloch-diagonal state")
    p.add_argument("--state", default="rho_be", help='builtin "rho_be" or a JSON file path')
    p.set_defaults(fn=cmd_state_info)

    p = sub.add_parser("witness", help="evaluate the task witness")
    p.add_argument("--strategy", choices=("be", "classical-d4"), default="be")
    p.add_argument("--n-copies", type=int, default=1)
    p.add_argument("--method", choices=("brute", "factored", "closed"), default="brute")
    p.add_argument("--samples", type=int, default=10_000,
                   help="triple count for sampled methods")
    p.set_defaults(fn=cmd_witness)

    p = sub.add_parser("scaling", help="copy-scaling table")
    p.add_argument("--n-max", type=int, default=6)
    p.set_defaults(fn=cmd_scaling)

    p = sub.add_parser("seesaw", help="see-saw search over separable strategies")
    p.add_argument("--kind", choices=("classical", "quantum"), required=True)
    p.add_argument("--channel-dim", type=int, required=True)
    p.add_argument("--restarts", type=int, default=50)
    p.add_argument("--max-iters", type=int, default=500)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(fn=cmd_seesaw)

    p = sub.add_parser("ccnr-search", help="CCNR ascent over PPT Bloch-diagonal states")
    p.add_argument("--local-dim", type=int, required=True)
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--max-iters", type=int, default=2000)
    p.set_defaults(fn=cmd_ccnr_search)

    p = sub.add_parser("verify", help="run the acceptance checklist")
    p.add_argument("--state", default=None,
                   help="verify this state file instead of the full checklist")
    p.set_defaults(fn=cmd_verify)

    for p in sub.choices.values():     # listed after each command's own flags
        p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
        p.add_argument("--out", default=None, help="also write primary output to this file")
        p.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command: the only place that prints and maps failures to exit codes."""
    args = build_parser().parse_args(argv)
    try:
        text, code = _render(args.fn(args), args.format)
        if args.out:
            _write_out(args.out, text)
    except ValueError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"{args.command}: runtime assertion failed: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
