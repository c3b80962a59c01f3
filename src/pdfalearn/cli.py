"""Command-line interface: learn, bench, quotient, sample, compare, generate.

All tables are tab-separated with a #-prefixed header line. Every command is
deterministic given its inputs and --seed. Domain and usage errors exit with
status 2 and a machine-readable JSON object on stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from . import bench, fileio
from .automata import compose, materialize_compose, quotient
from .errors import ParseFailureError, PdfaError
from .learner import LearnerMode
from .lmbridge import load_symbol_map, remote_token_model, symbol_model
from .pipeline import compare_distributions, digits_deciding_bin, guided_sample
from .randgen import GenSpec, random_pdfa
from .simplex import Alphabet, TopP, TopR
from .teacher import PacParams, pac_teacher


NO_STRATEGY = ("none", "")


def parse_strategy(spec: str):
    if spec in NO_STRATEGY:
        return None
    kind, _, arg = spec.partition(":")
    try:
        if kind == "topk":
            return TopR(int(arg))
        if kind == "topp":
            return TopP(float(arg))
    except ValueError:
        pass
    raise ParseFailureError(f"bad strategy {spec!r} (want none|topk:R|topp:P)")


class UsageError(Exception):
    """The command line is malformed or names a value out of range."""


class _Parser(argparse.ArgumentParser):
    """Hands every usage error to `main`, which reports it as JSON."""

    def error(self, message):
        raise UsageError(message)


def _checked(parse, ok, want: str):
    """An argparse type: `parse(text)`, refused unless `ok` holds of it."""

    def convert(text: str):
        try:
            value = parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not {want}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {want}")
        return value

    return convert


def _listed(convert):
    """An argparse type for a comma-separated list of `convert`'s values."""
    return lambda text: [convert(x) for x in text.split(",") if x]


POSITIVE = _checked(int, lambda v: v >= 1, "an integer >= 1")
COUNT = _checked(int, lambda v: v >= 0, "an integer >= 0")
THETA = _checked(float, lambda v: 0 <= v < 1, "a number in [0, 1)")
OPEN_UNIT = _checked(float, lambda v: 0 < v < 1, "a number in (0, 1)")
# equal-width value bins that a decimal digit prefix decides
DIGIT_BINS = _checked(int, lambda v: v >= 1 and digits_deciding_bin(v) is not None, "a divisor of 10^6")


# the flags only `learn --endpoint` reads; one not given is absent from the args: the library default applies
ENDPOINT_FLAGS = {"--endpoint": str, "--symbol-map": str, "--epsilon": OPEN_UNIT, "--delta": OPEN_UNIT,
                  "--max-len": POSITIVE, "--bos": int, "--eos": int}


def _write_or_print(text: str, out):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _target_model(args):
    """The --target automaton, composed with --guide under --strategy if a guide is given."""
    pdfa = fileio.load_pdfa(args.target)
    if args.guide:
        return materialize_compose(pdfa, fileio.load_guide(args.guide), parse_strategy(args.strategy))
    return pdfa


def cmd_learn(args):
    partitioner = bench.parse_partitioner(args.equiv)
    fields = dict(theta=float("nan"), mode=args.mode, seed=args.seed)
    if args.target:
        pdfa = _target_model(args)
        teacher, mode = bench.teacher_for_mode(pdfa, partitioner, args.mode)
        learned, record = bench.learning_run(
            teacher, mode, partitioner, quotient(pdfa, partitioner), n=pdfa.n_states, **fields
        )
    else:
        # the language model served at --endpoint, with symbols from --symbol-map;
        # the learned state count stands in for n, and nothing verifies the result
        smap = load_symbol_map(args.symbol_map)
        with remote_token_model(args.endpoint, **{k: v for k, v in vars(args).items() if k in ("bos", "eos")}) as tm:
            model = symbol_model(tm, smap, Alphabet(tuple(name for name, _, _ in smap.entries)))
            if args.guide:
                model = compose(model, fileio.load_guide(args.guide), parse_strategy(args.strategy))
            params = PacParams(**{k: v for k, v in vars(args).items() if k in ("epsilon", "delta", "max_len")})
            teacher = pac_teacher(model, partitioner, params, seed=args.seed)
            learned, record = bench.learning_run(teacher, LearnerMode.OMIT_ZERO, partitioner, n=None, **fields)
    if args.out:
        fileio.save_pdfa(learned, args.out)
    sys.stdout.write(bench.BenchRecord.HEADER + "\n" + record.to_row() + "\n")
    return 0


def cmd_bench(args):
    partitioner = bench.parse_partitioner(args.equiv)
    records = bench.sweep(
        ns=args.n,
        thetas=args.theta,
        m=args.m,
        partitioner=partitioner,
        seeds=range(args.seed, args.seed + args.seeds),
    )
    table = bench.format_records(records)
    if len(args.n) > 1:
        table += bench.format_medians(records, key=lambda r: r.n, key_name="n")
    else:
        table += bench.format_medians(records, key=lambda r: r.theta, key_name="theta")
    _write_or_print(table, args.out)
    return 0


def cmd_quotient(args):
    partitioner = bench.parse_partitioner(args.equiv)
    pdfa = fileio.load_pdfa(args.target)
    _write_or_print(fileio.format_pdfa(quotient(pdfa, partitioner)), args.out)
    return 0


def cmd_sample(args):
    model = _target_model(args)
    samples = guided_sample(model.language_model(), args.n, args.max_len, args.seed)
    lines = ["#string\ttruncated"]
    for s in samples:
        lines.append(f"{model.alphabet.format(s.symbols)}\t{int(s.truncated)}")
    _write_or_print("\n".join(lines) + "\n", args.out)
    return 0


def cmd_compare(args):
    model = _target_model(args)
    samples = guided_sample(model.language_model(), args.n, args.max_len, args.seed)
    report = compare_distributions(
        samples, model.alphabet, model=model, bins=args.bins, max_len=args.max_len
    )
    _write_or_print(report.to_table() + "\n", args.out)
    return 0


def cmd_generate(args):
    spec = GenSpec(n=args.n_states, m=args.m, theta=args.theta_value, seed=args.seed)
    _write_or_print(fileio.format_pdfa(random_pdfa(spec)), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pdfalearn")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, seed=True, equiv=False):
        """A subcommand taking --out, and --seed and --equiv where `func` reads them."""
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        p.add_argument("--out", default=None)
        if seed:
            p.add_argument("--seed", type=COUNT, default=0)
        if equiv:
            p.add_argument("--equiv", default="exact", help="exact|quant:K|topk:R")
        return p

    def guided(p):
        p.add_argument("--guide", default=None)
        p.add_argument("--strategy", default="none", help="none|topk:R|topp:P, with --guide")

    p = command("learn", cmd_learn, "learn a PDFA from a target file or a served model", equiv=True)
    p.add_argument("--target", default=None)
    guided(p)
    p.add_argument("--mode", default="omit-zero", choices=bench.MODES)
    for flag, kind in ENDPOINT_FLAGS.items():
        p.add_argument(flag, type=kind, default=argparse.SUPPRESS)

    p = command("bench", cmd_bench, "run the three-mode benchmark sweep", equiv=True)
    p.add_argument("--n", type=_listed(POSITIVE), default="50", help="comma-separated nominal sizes")
    p.add_argument("--theta", type=_listed(THETA), default="0.9", help="comma-separated zero densities")
    p.add_argument("--m", type=POSITIVE, default=10)
    p.add_argument("--seeds", type=COUNT, default=10, help="number of instances per point")

    p = command("quotient", cmd_quotient, "minimize a PDFA modulo an equivalence", seed=False, equiv=True)
    p.add_argument("--target", required=True)

    for name, func in (("sample", cmd_sample), ("compare", cmd_compare)):
        p = command(name, func, None)
        p.add_argument("--target", required=True)
        guided(p)
        p.add_argument("-n", type=COUNT if name == "sample" else POSITIVE, default=1000)
        p.add_argument("--max-len", type=POSITIVE, default=50)
        if name == "compare":
            p.add_argument("--bins", type=DIGIT_BINS, default=10)

    p = command("generate", cmd_generate, "emit a random benchmark instance")
    p.add_argument("--n", dest="n_states", type=POSITIVE, default=50)
    p.add_argument("--m", type=POSITIVE, default=10)
    p.add_argument("--theta", dest="theta_value", type=THETA, default=0.9)
    return parser


def main(argv=None) -> int:
    level = logging.getLevelName(os.environ.get("PDFA_LOG", "WARNING").upper())
    logging.basicConfig(level=level if isinstance(level, int) else logging.WARNING)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        given = [f for f in ENDPOINT_FLAGS if f[2:].replace("-", "_") in vars(args)]
        if args.command == "learn" and args.target and given:
            parser.error(f"learn --target takes no {given[0]}: only --endpoint reads it")
        if args.command == "learn" and not args.target:
            if not getattr(args, "endpoint", None):
                parser.error("need --target or --endpoint")
            if args.mode != "omit-zero":
                parser.error(f"--endpoint learns in omit-zero mode only, not {args.mode}")
            if "--symbol-map" not in given:
                parser.error("--endpoint needs --symbol-map")
        if getattr(args, "strategy", "none") not in NO_STRATEGY and not args.guide:
            parser.error(f"--strategy {args.strategy} composes with a guide and needs --guide")
    except UsageError as exc:
        print(json.dumps({"error": "UsageError", "detail": str(exc)}), file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except PdfaError as exc:
        print(json.dumps({"error": type(exc).__name__, "detail": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
