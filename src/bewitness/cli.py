"""Batch command line front end.

Emits JSON or CSV to stdout (and to --out when given).  Every command
is deterministic for a fixed flag set: reruns produce byte-identical
primary output.  Exit codes: 0 success, 1 verification or assertion
failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from . import protocol, states, verify
from .optimize import AscentConfig, SeesawConfig, ccnr_ascent_bloch_ppt, seesaw_classical, seesaw_quantum


def _sig12(v: float) -> float:
    """Round to 12 significant digits for table emission."""
    return float(f"{float(v):.12g}")


def _emit(text: str, out_path: str | None) -> None:
    sys.stdout.write(text)
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _emit_json(payload: dict, out_path: str | None) -> None:
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", out_path)


def _emit_csv(header: list[str], rows: list[list], out_path: str | None) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _emit(buf.getvalue(), out_path)


def _load_state_arg(source: str) -> states.BlochDiagonalState:
    if source == "rho_be":
        return states.rho_be()
    return states.load_state(source)


def cmd_state_info(args) -> int:
    try:
        state = _load_state_arg(args.state)
    except (OSError, ValueError, KeyError, states.ConventionError) as exc:
        print(f"state-info: cannot load state: {exc}", file=sys.stderr)
        return 2
    try:
        report = states.ppt_check(state)
        if report.min_eig_state < states.PSD_EIG_TOL:
            raise ValueError(
                "not a state: minimum eigenvalue "
                f"{report.min_eig_state:.6g} < {states.PSD_EIG_TOL:g}"
            )
        closed = protocol.witness_closed_form(state, protocol.matched_task(state))
    except ValueError as exc:
        print(f"state-info: {exc}", file=sys.stderr)
        return 2
    ccnr_val = report.ccnr
    payload = {
        "seed": args.seed,
        "state": states.state_to_dict(state),
        "report": report.to_dict(),
        "witness_closed_form": closed.value,
        "separability_note": (
            "CCNR <= 1: consistent with separability"
            if ccnr_val <= 1 + 1e-9
            else "CCNR > 1: certifies entanglement"
        ),
    }
    if args.format == "csv":
        header = ["seed", "n_copies", "ccnr", "is_ppt", "min_eig_state",
                  "min_eig_pt", "witness_closed_form"]
        row = [args.seed, state.n_copies, repr(ccnr_val), report.is_ppt,
               repr(report.min_eig_state), repr(report.min_eig_pt),
               repr(closed.value)]
        _emit_csv(header, [row], args.out)
    else:
        _emit_json(payload, args.out)
    return 0


def cmd_witness(args) -> int:
    per_copy = states.rho_be()
    classical = args.strategy == "classical-d4"
    if classical and args.n_copies != 1:
        print("witness: classical-d4 is a one-copy strategy", file=sys.stderr)
        return 2
    if classical and args.method != "brute":
        print(f"witness: method {args.method} needs the entangled strategy", file=sys.stderr)
        return 2

    try:
        task = protocol.TaskSpec(
            n_copies=args.n_copies,
            channel_dim=4**args.n_copies,
            signs=per_copy.sign_pattern(),
        )
        if args.method == "closed":
            # the closed form takes the per-copy state for any copy count
            result = protocol.witness_closed_form(per_copy, task)
        elif args.method == "brute":
            strat = (
                protocol.classical_optimal_strategy_d4()
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
    except ValueError as exc:
        print(f"witness: {exc}", file=sys.stderr)
        return 2

    payload = {
        "seed": args.seed,
        "strategy": args.strategy,
        "method": result.method,
        "n_copies": task.n_copies,
        "value": result.value,
        "task": result.task.to_dict(),
    }
    if args.format == "csv":
        header = ["seed", "strategy", "method", "n_copies", "value"]
        row = [args.seed, args.strategy, result.method, task.n_copies, repr(result.value)]
        _emit_csv(header, [row], args.out)
    else:
        _emit_json(payload, args.out)
    return 0


def cmd_scaling(args) -> int:
    if args.n_max < 1:
        print("scaling: --n-max must be at least 1", file=sys.stderr)
        return 2
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
    if args.format == "csv":
        header = ["seed", "n_copies", "witness_be", "sep_bound", "overhead_dim", "v_crit"]
        csv_rows = [
            [args.seed, r["n_copies"], f"{r['witness_be']:.12g}",
             f"{r['sep_bound']:.12g}", r["overhead_dim"], f"{r['v_crit']:.12g}"]
            for r in rows
        ]
        _emit_csv(header, csv_rows, args.out)
    else:
        _emit_json({"seed": args.seed, "rows": rows}, args.out)
    return 0


def cmd_seesaw(args) -> int:
    runner = seesaw_classical if args.kind == "classical" else seesaw_quantum
    try:
        cfg = SeesawConfig(
            channel_dim=args.channel_dim,
            n_restarts=args.restarts,
            max_iters=args.max_iters,
            tol=args.tol,
            seed=args.seed,
        )
        report = runner(cfg)
    except ValueError as exc:
        print(f"seesaw: {exc}", file=sys.stderr)
        return 2
    summary = {
        "kind": args.kind,
        "channel_dim": args.channel_dim,
        "best_value": report.best_value,
        "seed": args.seed,
    }
    if args.format == "csv":
        header = ["seed", "kind", "channel_dim", "best_value", "converged"]
        row = [args.seed, args.kind, args.channel_dim, repr(report.best_value), report.converged]
        _emit_csv(header, [row], args.out)
    else:
        _emit_json({"seed": args.seed, "summary": summary, "report": report.to_dict()}, args.out)
    return 0


def cmd_ccnr_search(args) -> int:
    if args.local_dim not in (4, 8, 16):
        print(
            "ccnr-search: the Bloch basis is built from Pauli strings, so the "
            f"local dimension must be a power of two in {{4, 8, 16}}; got {args.local_dim}. "
            "Other dimensions would need a different operator basis, which this "
            "tool does not construct.",
            file=sys.stderr,
        )
        return 2
    try:
        cfg = AscentConfig(
            n_restarts=args.restarts,
            max_iters=args.max_iters,
            seed=args.seed,
        )
        report = ccnr_ascent_bloch_ppt(args.local_dim, cfg)
    except ValueError as exc:
        print(f"ccnr-search: {exc}", file=sys.stderr)
        return 2
    summary = {
        "local_dim": args.local_dim,
        "best_value": report.best_value,
        "seed": args.seed,
    }
    if args.format == "csv":
        header = ["seed", "local_dim", "best_value", "converged"]
        row = [args.seed, args.local_dim, repr(report.best_value), report.converged]
        _emit_csv(header, [row], args.out)
    else:
        _emit_json({"seed": args.seed, "summary": summary, "report": report.to_dict()}, args.out)
    return 0


def cmd_verify(args) -> int:
    state = None
    if args.state is not None:
        try:
            state = _load_state_arg(args.state)
            if state.n_copies != 1:
                raise ValueError(f"--state takes a one-copy state, got {state.n_copies} copies")
        except (OSError, ValueError, KeyError, states.ConventionError) as exc:
            print(f"verify: cannot load state: {exc}", file=sys.stderr)
            return 2
    results = verify.run_all(state)
    lines = [r.line() for r in results]
    text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bewitness",
        description="Bound entanglement witness toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
        p.add_argument("--out", default=None, help="also write primary output to this file")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("state-info", help="diagnostics for a Bloch-diagonal state")
    p.add_argument("--state", default="rho_be", help='builtin "rho_be" or a JSON file path')
    common(p)
    p.set_defaults(fn=cmd_state_info)

    p = sub.add_parser("witness", help="evaluate the task witness")
    p.add_argument("--strategy", choices=("be", "classical-d4"), default="be")
    p.add_argument("--n-copies", type=int, default=1)
    p.add_argument("--method", choices=("brute", "factored", "closed"), default="brute")
    p.add_argument("--samples", type=int, default=10_000,
                   help="triple count for sampled methods")
    common(p)
    p.set_defaults(fn=cmd_witness)

    p = sub.add_parser("scaling", help="copy-scaling table")
    p.add_argument("--n-max", type=int, default=6)
    common(p)
    p.set_defaults(fn=cmd_scaling)

    p = sub.add_parser("seesaw", help="see-saw search over separable strategies")
    p.add_argument("--kind", choices=("classical", "quantum"), required=True)
    p.add_argument("--channel-dim", type=int, required=True)
    p.add_argument("--restarts", type=int, default=50)
    p.add_argument("--max-iters", type=int, default=500)
    p.add_argument("--tol", type=float, default=1e-9)
    common(p)
    p.set_defaults(fn=cmd_seesaw)

    p = sub.add_parser("ccnr-search", help="CCNR ascent over PPT Bloch-diagonal states")
    p.add_argument("--local-dim", type=int, required=True)
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--max-iters", type=int, default=2000)
    common(p)
    p.set_defaults(fn=cmd_ccnr_search)

    p = sub.add_parser("verify", help="run the acceptance checklist")
    p.add_argument("--state", default=None,
                   help="verify this state file instead of the full checklist")
    common(p)
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except AssertionError as exc:
        print(f"{args.command}: runtime assertion failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
