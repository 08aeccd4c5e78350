"""Command-line interface.

Subcommands: count, fit, eval, sample, expand, convert, tv-experiment,
bic-compare.  All outputs are TSV or JSON, deterministic given --seed;
exit codes: 0 success, 2 usage error, 1 numerical or I/O failure.
"""

from __future__ import annotations

import argparse
import hashlib
import sys

from .berchtold import BerchtoldConfig, berchtold_fit
from .counts import count_ngrams, write_counts
from .em import EmConfig, fit_with_restarts, init_contingency, loglik_from_counts
from .errors import MtdError
from .experiments import bic_compare, tv_experiment, tv_experiment_summary
from .model import Alphabet, MtdModel, full_transition_matrix, sample_sequence
from .modelfile import read_model, write_model, write_trace
from .reparam import ThetaU, bic, from_theta_u, model_dimension, to_theta_u
from .seqio import read_sequences


class _UsageError(Exception):
    """A flag value the library rejects; reported like argparse's usage errors."""


def _from_flags(build, *args, **kwargs):
    """``build(*args, **kwargs)`` on flag values; a ValueError becomes a usage error."""
    try:
        return build(*args, **kwargs)
    except ValueError as err:
        raise _UsageError(f"invalid flag value: {err}") from None


def parse_alphabet(spec: str) -> Alphabet:
    """'acgt' -> single-character symbols; '1,2,3' -> comma-separated tokens."""
    tokens = spec.split(",") if "," in spec else list(spec)
    return _from_flags(Alphabet, tuple(tokens))


def _digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _provenance(args, argv) -> dict:
    prov = {"command_line": "mtdchain " + " ".join(argv), "seed": args.seed}
    source = getattr(args, "infile", None)
    if source:
        try:
            prov["corpus_digest"] = _digest(source)
        except OSError:
            prov["corpus_digest"] = None
    return prov


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_corpus(args):
    if not args.alphabet:
        raise MtdError("--alphabet is required to read sequences")
    alphabet = parse_alphabet(args.alphabet)
    return read_sequences(args.infile, fmt=args.format, alphabet=alphabet)


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--alphabet", help="symbols, e.g. 'acgt' or '1,2,3'")
    parser.add_argument("--order", type=int, help="Markov order m")
    parser.add_argument("--lag-order", type=int, default=1, help="component block length l")
    parser.add_argument("--variant", choices=("general", "single_matrix"), default="general")
    parser.add_argument("--epsilon", type=float, default=1e-3)
    parser.add_argument("--restarts", type=int, default=5)
    parser.add_argument("--out", help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mtdchain")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count (m+1)-letter words of a corpus")
    _common_flags(p)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--format", choices=("plain", "fasta"), default="plain")

    p = sub.add_parser("fit", help="fit an MTD model to a corpus")
    _common_flags(p)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--format", choices=("plain", "fasta"), default="plain")
    p.add_argument("--algorithm", choices=("em", "berchtold"), default="em")
    p.add_argument("--max-iters", type=int, default=1000)
    p.add_argument("--floor", type=float, default=None)
    p.add_argument("--trace-out", help="write the log-likelihood trace here")

    p = sub.add_parser("eval", help="log-likelihood, dimension, and BIC of a model")
    _common_flags(p)
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--format", choices=("plain", "fasta"), default="plain")
    p.add_argument("--dim-convention", choices=("theta_u", "raw"), default="theta_u")
    p.add_argument("--bic-n", choices=("terms", "length"), default="terms")

    p = sub.add_parser("sample", help="sample a sequence from a model")
    _common_flags(p)
    p.add_argument("--model", required=True)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--prefix", help="initial m letters (default: uniform)")

    p = sub.add_parser("expand", help="expand an MTD model to its dense table")
    _common_flags(p)
    p.add_argument("--model", required=True)
    p.set_defaults(target="full_markov")

    p = sub.add_parser("convert", help="convert between model parametrizations")
    _common_flags(p)
    p.add_argument("--model", required=True)
    p.add_argument("--to", dest="target", choices=("theta_u", "full_markov"), required=True)
    p.add_argument("--ref-letter", help="reference letter for theta_u (default: first symbol)")

    p = sub.add_parser("tv-experiment", help="distance of fitted orders to a known generator")
    _common_flags(p)
    p.add_argument("--gen-order", type=int, default=5)
    p.add_argument("--alphabet-size", type=int, default=4)
    p.add_argument("--length", type=int, default=5000)
    p.add_argument("--fit-orders", default="2,3,4,5,6")
    p.add_argument("--replicates", type=int, default=20)
    p.add_argument("--word-len", type=int, default=6)

    p = sub.add_parser("bic-compare", help="BIC of dense vs mixture models per order")
    _common_flags(p)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--format", choices=("plain", "fasta"), default="plain")
    p.add_argument("--orders", required=True, help="comma-separated orders")
    p.add_argument("--lag-orders", default="1")
    p.add_argument("--max-iters", type=int, default=1000)
    p.add_argument("--dim-convention", choices=("theta_u", "raw"), default="theta_u")

    return parser


def _at_least(flag: str, value: int, low: int = 1) -> int:
    if value < low:
        raise _UsageError(f"invalid flag value: {flag} must be >= {low}, got {value}")
    return value


def _int_list(flag: str, text: str) -> list[int]:
    """A comma-separated list flag of integers, each >= 1."""
    try:
        values = [int(x) for x in text.split(",") if x]
    except ValueError:
        values = []
    if not values or min(values) < 1:
        raise _UsageError(f"invalid flag value: {flag} must list integers >= 1, got {text!r}")
    return values


def _check_variant(variant: str, lag_orders) -> None:
    if variant == "single_matrix" and max(lag_orders) > 1:
        raise _UsageError(f"invalid flag value: single_matrix needs lag order 1, not {lag_orders}")


def _require_order(args) -> int:
    if args.order is None:
        raise MtdError("--order is required")
    return _at_least("--order", args.order)


def cmd_count(args, argv) -> int:
    order = _require_order(args)
    sequences = _load_corpus(args)
    counts = count_ngrams(sequences, order)
    write_counts(counts, args.out or sys.stdout)
    return 0


def _em_config(args, **fields) -> EmConfig:
    return _from_flags(
        EmConfig,
        epsilon=args.epsilon,
        max_iters=args.max_iters,
        n_restarts=args.restarts,
        seed=args.seed,
        variant=args.variant,
        **fields,
    )


def cmd_fit(args, argv) -> int:
    if not args.out:
        raise MtdError("fit requires --out for the model file")
    order = _require_order(args)
    if not 1 <= args.lag_order <= order:
        raise _UsageError(
            f"invalid flag value: --lag-order must be in 1..{order}, got {args.lag_order}"
        )
    _check_variant(args.variant, [args.lag_order])
    # EmConfig checks every fit flag, so Berchtold rejects the same invalid values
    config = _em_config(args, floor=args.floor, lag_order=args.lag_order)
    if args.algorithm == "berchtold":
        config = _from_flags(BerchtoldConfig, epsilon=args.epsilon, max_iters=args.max_iters)
    sequences = _load_corpus(args)
    counts = count_ngrams(sequences, order)
    if args.algorithm == "em":
        report = fit_with_restarts(counts, config)
    else:
        init = init_contingency(counts, args.lag_order, args.variant)
        report = berchtold_fit(counts, init, config)
    write_model(args.out, report.model, provenance=_provenance(args, argv))
    if args.trace_out:
        write_trace(args.trace_out, report.loglik_trace)
    sys.stdout.write(
        "final_loglik\titerations\tconverged\tbic\n"
        f"{report.final_loglik!r}\t{report.iterations}\t{report.converged}\t{report.bic!r}\n"
    )
    return 0


def _as_transition_model(model):
    if isinstance(model, ThetaU):
        return from_theta_u(model)
    return model


def cmd_eval(args, argv) -> int:
    model, _ = read_model(args.model)
    scoring = _as_transition_model(model)
    alphabet = scoring.alphabet
    sequences = read_sequences(args.infile, fmt=args.format, alphabet=alphabet)
    counts = count_ngrams(sequences, scoring.order, alphabet=alphabet)
    loglik = loglik_from_counts(scoring, counts)
    d_theta = model_dimension(model, "theta_u")
    d_raw = model_dimension(model, "raw")
    n_terms = counts.total if args.bic_n == "terms" else sum(len(s) for s in sequences)
    dim = d_theta if args.dim_convention == "theta_u" else d_raw
    value = bic(loglik, dim, n_terms)
    text = (
        "loglik\tdim_theta_u\tdim_raw\tn_terms\tbic\n"
        f"{loglik!r}\t{d_theta}\t{d_raw}\t{n_terms}\t{value!r}\n"
    )
    _emit(text, args.out)
    return 0


def cmd_sample(args, argv) -> int:
    _at_least("--length", args.length)
    # every model has order >= 1; a prefix of another length is a data error
    if args.prefix == "":
        raise _UsageError("invalid flag value: --prefix must not be empty")
    model, _ = read_model(args.model)
    model = _as_transition_model(model)
    init = "uniform"
    if args.prefix is not None:
        init = model.alphabet.encode(
            args.prefix.split(",") if "," in args.prefix else list(args.prefix)
        )
    seq = sample_sequence(model, args.length, seed=args.seed, init=init)
    _emit(seq.labels() + "\n", args.out)
    return 0


def cmd_convert(args, argv) -> int:
    """``convert``, and ``expand``, which is ``convert --to full_markov``."""
    if not args.out:
        raise MtdError(f"{args.command} requires --out for the model file")
    model, _ = read_model(args.model)
    if args.target == "full_markov":
        converted = full_transition_matrix(_as_transition_model(model))
    elif isinstance(model, MtdModel):
        u = model.alphabet.index(args.ref_letter) if args.ref_letter else 0
        converted = to_theta_u(model, u)
    else:
        raise MtdError("only MTD models convert to theta_u")
    write_model(args.out, converted, provenance=_provenance(args, argv))
    return 0


def cmd_tv_experiment(args, argv) -> int:
    q = _at_least("--alphabet-size", args.alphabet_size, 2)
    if args.alphabet:
        q = parse_alphabet(args.alphabet).size
    gen_order = _at_least("--gen-order", args.gen_order)
    rows, _ = tv_experiment(
        gen_order=gen_order,
        q=q,
        seq_len=_at_least("--length", args.length, gen_order),
        fit_orders=_int_list("--fit-orders", args.fit_orders),
        replicates=_at_least("--replicates", args.replicates),
        word_len=_at_least("--word-len", args.word_len),
        seed=args.seed,
    )
    lines = ["replicate\tfit_order\ttv"]
    for row in rows:
        lines.append(f"{row['replicate']}\t{row['fit_order']}\t{row['tv']!r}")
    for m, mean in tv_experiment_summary(rows).items():
        lines.append(f"mean\t{m}\t{mean!r}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_bic_compare(args, argv) -> int:
    config = _em_config(args)
    orders = _int_list("--orders", args.orders)
    lag_orders = _int_list("--lag-orders", args.lag_orders)
    _check_variant(args.variant, lag_orders)
    if min(lag_orders) > max(orders):
        raise _UsageError("invalid flag value: no --lag-orders entry is <= an --orders entry")
    sequences = _load_corpus(args)
    rows = bic_compare(
        sequences, orders, lag_orders, config=config, dim_convention=args.dim_convention
    )
    cols = [
        "order", "lag_order", "n_terms", "loglik_full", "dim_full", "bic_full",
        "loglik_mtd", "dim_mtd", "bic_mtd", "delta_bic",
    ]
    lines = ["\t".join(cols)]
    for row in rows:
        lines.append(
            "\t".join(repr(row[c]) if isinstance(row[c], float) else str(row[c]) for c in cols)
        )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


_COMMANDS = {
    "count": cmd_count,
    "fit": cmd_fit,
    "eval": cmd_eval,
    "sample": cmd_sample,
    "expand": cmd_convert,
    "convert": cmd_convert,
    "tv-experiment": cmd_tv_experiment,
    "bic-compare": cmd_bic_compare,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _at_least("--seed", args.seed, 0)
        return _COMMANDS[args.command](args, argv)
    except _UsageError as err:
        print(f"mtdchain: error: {err}", file=sys.stderr)
        return 2
    except MtdError as err:
        print(f"mtdchain: error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
