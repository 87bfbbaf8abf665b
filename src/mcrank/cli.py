"""Command-line interface.

Subcommands: rank, evaluate, sweep-k, synth, predict. Exit codes: 0 on
success, 1 on usage errors, 2 on data or validation errors.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from dataclasses import replace
from pathlib import Path
from . import io
from .core import RANKING_KINDS, SUB_KINDS, CandidateSet, MethodSpec
from .errors import DomainError, McrankError
from .pipeline import Protocol, _candidate_pools, run_experiment, synth_generate
from .predictor import TrainConfig, fit, predict_many
from .ranking import rank_candidates, top_n


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 instead of argparse's 2
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="mcrank",
                     description="Multi-criteria candidate ranking and evaluation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rank", parents=[], help="rank candidates from a CSV of criteria vectors")
    p.add_argument("--input", required=True, help="ratings CSV, or predicted-vectors CSV with --predicted")
    p.add_argument("--method", required=True, choices=RANKING_KINDS)
    p.add_argument("--k", type=float, default=None, help="relaxation factor for kd")
    p.add_argument("--sub", choices=SUB_KINDS, default=None,
                   help="subsort method; turns pr/kd into a hybrid ranking")
    p.add_argument("--user", default=None, help="rank only this user's candidates")
    p.add_argument("--top-n", type=int, default=None, help="print only the first N items")
    p.add_argument("--predicted", action="store_true",
                   help="input holds precomputed criteria vectors (no overall column, no scale check)")

    p = sub.add_parser("evaluate", help="cross-validated top-N evaluation")
    p.add_argument("--input", required=True)
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--out", required=True, help="report JSON path (sibling CSV is written too)")

    p = sub.add_parser("sweep-k", help="evaluate kd over a list of k values")
    p.add_argument("--input", required=True)
    p.add_argument("--k", required=True, help="comma-separated k values, e.g. 0,0.25,0.5")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("synth", help="generate a synthetic rating dataset")
    p.add_argument("--users", type=int, required=True)
    p.add_argument("--items", type=int, required=True)
    p.add_argument("--criteria", type=int, required=True)
    p.add_argument("--density", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("predict", help="fit the baseline predictor and dump predicted vectors")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pairs", choices=["all", "observed", "unrated"], default="all",
                   help="which (user, item) pairs to predict (default: all)")

    return parser


def _method_from_args(args) -> MethodSpec:
    if args.method == "kd" and args.k is None:
        raise _UsageError("--method kd requires --k")
    if args.method != "kd" and args.k is not None:
        raise _UsageError("--k only applies to --method kd")
    try:
        base = MethodSpec(args.method, k=args.k)
        if args.sub is None:
            return base
        return MethodSpec("hybrid", major=base, sub=MethodSpec(args.sub))
    except DomainError as exc:
        raise _UsageError(str(exc)) from exc


def _cmd_rank(args) -> int:
    spec = _method_from_args(args)
    if args.top_n is not None and args.top_n < 1:
        raise _UsageError(f"--top-n must be positive, got {args.top_n}")
    if args.predicted:
        candidate_sets = io.load_candidate_sets(args.input)
    else:
        dataset = io.load_dataset(args.input)
        candidate_sets = {
            user: CandidateSet.from_pairs(user, ((r.item_id, r.criteria) for r in records))
            for user, records in dataset.by_user().items()
        }
    if args.user is not None:
        if args.user not in candidate_sets:
            raise McrankError(f"user {args.user!r} not present in {args.input}")
        users = [args.user]
    else:
        users = sorted(candidate_sets)
    writer = csv.writer(sys.stdout, delimiter="\t", lineterminator="\n")
    for user in users:
        ranked = rank_candidates(candidate_sets[user], spec)
        if args.top_n is not None:
            ranked = top_n(ranked, args.top_n)
        writer.writerows((user, item, score) for item, score in ranked)
    return 0


def _cmd_report(args) -> int:
    """evaluate, or sweep-k over its --k list: run and write the report."""
    swept = None
    if args.command == "sweep-k":
        try:
            swept = tuple(MethodSpec("kd", k=float(t)) for t in args.k.split(",") if t.strip())
        except DomainError as exc:  # a k outside [0, 1]
            raise _UsageError(str(exc)) from exc
        except ValueError as exc:
            raise _UsageError(f"bad --k list {args.k!r}") from exc
        if not swept:
            raise _UsageError("--k needs at least one value")
    out = Path(args.out)
    named = [("--input", Path(args.input)), ("--config", Path(args.config)),
             ("--out", out), ("the CSV next to --out", out.parent / f"{out.stem}.csv")]
    for i in (2, 3):  # the report's two files against every earlier path
        for j in range(i):
            (flag, a), (other, b) = named[i], named[j]
            if a == b or (a.exists() and b.exists() and a.samefile(b)):  # links too
                raise _UsageError(f"{flag} ({a}) and {other} are the same file; "
                                  f"the report would overwrite it")
    dataset = io.load_dataset(args.input)
    cfg = io.load_experiment_config(args.config, dataset_path=args.input)
    started = time.perf_counter()
    report = run_experiment(dataset, cfg if swept is None else replace(cfg, methods=swept))
    io.emit_report(report, args.out)
    print(f"wrote {args.out} in {time.perf_counter() - started:.1f}s", file=sys.stderr)
    return 0


def _cmd_synth(args) -> int:
    dataset = synth_generate(args.users, args.items, args.criteria,
                             args.density, args.seed)
    io.save_dataset(dataset, args.out)
    print(f"wrote {args.out} ({len(dataset.records)} records)", file=sys.stderr)
    return 0


def _cmd_predict(args) -> int:
    dataset = io.load_dataset(args.input)
    model = fit(dataset, TrainConfig(seed=args.seed))
    # each --pairs value is a candidate protocol over the whole dataset
    protocol, train = {
        "observed": (Protocol.TEST_ITEMS, None),
        "unrated": (Protocol.ALL_UNRATED, dataset),
        "all": (Protocol.ALL_UNRATED, replace(dataset, records=())),
    }[args.pairs]
    rows = ((user, item, vector)
            for user, _, items in _candidate_pools(dataset, protocol, train)
            for item, vector in zip(items, predict_many(model, user, items)))
    io.save_predictions(args.out, dataset.criteria_names, rows)
    return 0


_COMMANDS = {
    "rank": _cmd_rank,
    "evaluate": _cmd_report,
    "sweep-k": _cmd_report,
    "synth": _cmd_synth,
    "predict": _cmd_predict,
}


def cli_main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help prints and exits 0
        return int(exc.code or 0)
    except (McrankError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


main = cli_main  # the console-script entry point


if __name__ == "__main__":
    sys.exit(main())
