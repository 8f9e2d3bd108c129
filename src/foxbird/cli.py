"""Command-line entry point.

Subcommands:
    opt run     --config file --seed u64 --out dir
    opt bench   --function sphere --dims 10 --method hraha
    opt tfidf   --input corpus.csv --out matrix.csv
    opt metrics --cand cand.txt --ref ref.txt

Exit codes: 0 success, 1 usage error, 2 data error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from . import textpipe
from .benchmarks import BENCHMARKS
from .harness import (
    ConfigError,
    DataError,
    METHODS,
    child_rng,
    emit_report,
    parse_config,
    run_experiment,
    run_method,
)
from .metrics import bleu4, rouge_l

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_RUNTIME = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="opt", description="Black-box optimization toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured experiment")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the config's master seed")
    p_run.add_argument("--out", required=True, help="output directory")

    p_bench = sub.add_parser("bench", help="run one optimizer on a benchmark")
    p_bench.add_argument("--function", required=True, choices=sorted(BENCHMARKS))
    p_bench.add_argument("--dims", type=int, default=10)
    p_bench.add_argument("--method", default="hraha", choices=METHODS)
    p_bench.add_argument("--pop-size", type=int, default=30)
    p_bench.add_argument("--iters", type=int, default=200)
    p_bench.add_argument("--seed", type=int, default=0)

    p_tfidf = sub.add_parser("tfidf", help="vectorize a corpus to TF-IDF")
    p_tfidf.add_argument("--input", required=True)
    p_tfidf.add_argument("--format", default="csv", choices=["csv", "jsonl"])
    p_tfidf.add_argument("--out", required=True)
    p_tfidf.add_argument("--min-doc-freq", type=int, default=1)
    p_tfidf.add_argument("--max-terms", type=int, default=None)

    p_metrics = sub.add_parser("metrics", help="BLEU-4 / ROUGE-L on text files")
    p_metrics.add_argument("--cand", required=True)
    p_metrics.add_argument("--ref", required=True)
    return parser


def _cmd_run(args) -> int:
    with open(args.config, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except ValueError as e:  # malformed JSON, or an integer past int's digit limit
            raise DataError(str(e)) from None
    exp = parse_config(raw)
    if args.seed is not None:
        exp = exp.with_master_seed(args.seed)
    report = run_experiment(exp)
    os.makedirs(args.out, exist_ok=True)
    for fmt, name in [("csv", "report.csv"), ("json", "report.json"),
                      ("text-table", "report.txt")]:
        with open(os.path.join(args.out, name), "w", encoding="utf-8", newline="") as fh:
            fh.write(emit_report(report, fmt))
    with open(os.path.join(args.out, "timings.json"), "w", encoding="utf-8") as fh:
        json.dump(report.wall_times, fh, indent=2, sort_keys=True)
    print(emit_report(report, "text-table"), end="")
    return EXIT_OK


def _cmd_bench(args) -> int:
    exp = parse_config({
        "task": {"kind": "benchmark", "function": args.function, "dims": args.dims},
        "methods": [args.method],
        "budget": {"pop_size": args.pop_size, "iterations": args.iters},
        "seeds": [args.seed],
    })
    bench = BENCHMARKS[exp.task.function]
    result = run_method(exp.methods[0], bench, bench.space(exp.task.dims), exp.pop_size,
                        exp.iterations, child_rng(exp.seeds[0], 0, 0))
    print(f"function={args.function} dims={args.dims} method={args.method} "
          f"seed={args.seed}")
    print(f"best_fitness={result.best_fitness:.6e} evaluations={result.evaluations}")
    return EXIT_OK


def _cmd_tfidf(args) -> int:
    from .harness import _parse_rows

    for flag, value in (("--min-doc-freq", args.min_doc_freq), ("--max-terms", args.max_terms)):
        if value is not None and value < 1:
            raise ConfigError(f"{flag}: must be >= 1, got {value}")
    rows = _parse_rows(args.input, args.format)
    if not rows:
        raise DataError(f"empty corpus: no documents in {args.input}")
    tokens = [textpipe.preprocess(text) for _, text, _ in rows]
    vocab = textpipe.build_vocabulary(tokens, args.min_doc_freq, args.max_terms)
    matrix = textpipe.tf_idf(tokens, vocab)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", *vocab])
        for (doc_id, _, _), row in zip(rows, matrix):
            writer.writerow([doc_id] + [repr(float(v)) for v in row])
    print(f"wrote {matrix.shape[0]} x {matrix.shape[1]} matrix to {args.out}")
    return EXIT_OK


def _cmd_metrics(args) -> int:
    with open(args.cand, encoding="utf-8") as fh:
        cands = [line.split() for line in fh.read().splitlines()]
    with open(args.ref, encoding="utf-8") as fh:
        refs = [line.split() for line in fh.read().splitlines()]
    if len(cands) != len(refs):
        raise DataError(f"line count mismatch: {len(cands)} candidates vs {len(refs)} references")
    if not refs or any(not r for r in refs):
        raise DataError("references must be non-empty")
    bleus = [bleu4(c, [r]) for c, r in zip(cands, refs)]
    rouges = [rouge_l(c, r) for c, r in zip(cands, refs)]
    print(f"pairs={len(cands)}")
    print(f"bleu4_mean={sum(bleus) / len(bleus):.4f}")
    print(f"rouge_l_mean={sum(rouges) / len(rouges):.4f}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    handlers = {"run": _cmd_run, "bench": _cmd_bench,
                "tfidf": _cmd_tfidf, "metrics": _cmd_metrics}
    try:
        return handlers[args.command](args)
    except ConfigError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, FileNotFoundError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
