"""Command-line interface.

Each subcommand takes only the flags it reads; * marks a required one.

  count          --alphabet* --order* --in* --format --out
  fit            --alphabet* --order* --in* --format --out* --lag-order --variant
                 --epsilon --restarts --max-iters --seed --algorithm --floor --trace-out
  eval           --model* --in* --format --dim-convention --bic-n --out
  sample         --model* --length* --prefix --seed --out
  expand         --model* --out* --seed
  convert        --model* --to* --out* --ref-letter --seed
  tv-experiment  --gen-order --alphabet-size --length --fit-orders --replicates
                 --word-len --seed --out
  bic-compare    --alphabet* --orders* --in* --format --lag-orders --variant
                 --epsilon --restarts --max-iters --dim-convention --seed --out

expand and convert write --seed only into the model file's provenance.
sample --prefix is spelled like one sequence file line over the model's
alphabet: case variants read as their symbols, ',' joins multi-character ones.
All outputs are TSV or JSON, deterministic given --seed.  Exit codes: 0
success; 2 usage error (a missing, unknown, empty or malformed flag, or a
value out of range), found before any work starts; 1 numerical or I/O failure.
Every error is one ``mtdchain: error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import os
import sys

from .berchtold import BerchtoldConfig, berchtold_fit
from .counts import count_ngrams, write_counts
from .em import EmConfig, fit_with_restarts, init_contingency, loglik_from_counts
from .errors import EmptyCorpus, MtdError
from .experiments import bic_compare, tv_experiment, tv_experiment_summary
from .model import Alphabet, MtdModel, full_transition_matrix, sample_sequence
from .modelfile import read_model, write_model, write_trace
from .reparam import ThetaU, bic, from_theta_u, model_dimension, to_theta_u
from .seqio import read_sequences


class _UsageError(Exception):
    """A missing, unknown or rejected flag: one line on stderr and exit code 2."""


class _Parser(argparse.ArgumentParser):
    """An argument parser (and its subparsers) whose errors reach :func:`main` as usage errors."""

    def error(self, message):
        raise _UsageError(message)


def _from_flags(build, *args, **kwargs):
    """``build(*args, **kwargs)`` on flag values; a ValueError becomes a usage error."""
    try:
        return build(*args, **kwargs)
    except ValueError as err:
        raise _UsageError(f"invalid flag value: {err}") from None


def _text(flag: str):
    """The type of a text flag; argparse passes the _UsageError of an empty value on to main."""
    def check(text: str) -> str:
        if not text:  # e.g. ``--out ""`` from an unset shell variable
            raise _UsageError(f"invalid flag value: {flag} must not be empty")
        return text
    return check


def _tokens(text: str) -> list[str]:
    """'acgt' -> single-character symbols; '1,2,3' -> comma-separated tokens."""
    return text.split(",") if "," in text else list(text)


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
    alphabet = _from_flags(Alphabet, tuple(_tokens(args.alphabet)))
    return read_sequences(args.infile, fmt=args.format, alphabet=alphabet)


# each flag's parser settings; _SUBCOMMANDS says which commands take it
_FLAGS = {
    "--seed": dict(type=int, default=0),
    "--alphabet": dict(help="symbols, e.g. 'acgt' or '1,2,3'"),
    "--order": dict(type=int, help="Markov order m"),
    "--in": dict(dest="infile"),
    "--format": dict(choices=("plain", "fasta"), default="plain"),
    "--out": dict(help="output path (where optional, default: stdout)"),
    "--lag-order": dict(type=int, default=1, help="component block length l"),
    "--variant": dict(choices=("general", "single_matrix"), default="general"),
    "--epsilon": dict(type=float, default=1e-3),
    "--restarts": dict(type=int, default=5),
    "--max-iters": dict(type=int, default=1000),
    "--algorithm": dict(choices=("em", "berchtold"), default="em"),
    "--floor": dict(type=float),
    "--trace-out": dict(help="write the log-likelihood trace here"),
    "--model": dict(),
    "--dim-convention": dict(choices=("theta_u", "raw"), default="theta_u"),
    "--bic-n": dict(choices=("terms", "length"), default="terms"),
    "--length": dict(type=int, default=5000),
    "--prefix": dict(help="initial m letters (default: uniform)"),
    "--to": dict(dest="target", choices=("theta_u", "full_markov")),
    "--ref-letter": dict(help="reference letter for theta_u (default: first symbol)"),
    "--gen-order": dict(type=int, default=5),
    "--alphabet-size": dict(type=int, default=4),
    "--fit-orders": dict(default="2,3,4,5,6"),
    "--replicates": dict(type=int, default=20),
    "--word-len": dict(type=int, default=6),
    "--orders": dict(help="comma-separated orders"),
    "--lag-orders": dict(default="1"),
}

# each command's help line and the flags its cmd_* function reads; * marks a required flag
_SUBCOMMANDS = {
    "count": ("count (m+1)-letter words of a corpus",
              "--alphabet* --order* --in* --format --out"),
    "fit": ("fit an MTD model to a corpus",
            "--alphabet* --order* --in* --format --out* --lag-order --variant --epsilon"
            " --restarts --max-iters --seed --algorithm --floor --trace-out"),
    "eval": ("log-likelihood, dimension, and BIC of a model",
             "--model* --in* --format --dim-convention --bic-n --out"),
    "sample": ("sample a sequence from a model", "--model* --length* --prefix --seed --out"),
    "expand": ("expand a model to its dense table", "--model* --out* --seed"),
    "convert": ("convert between model parametrizations",
                "--model* --to* --out* --ref-letter --seed"),
    "tv-experiment": ("distance of fitted orders to a known generator",
                      "--gen-order --alphabet-size --length --fit-orders --replicates"
                      " --word-len --seed --out"),
    "bic-compare": ("BIC of dense vs mixture models per order",
                    "--alphabet* --orders* --in* --format --lag-orders --variant --epsilon"
                    " --restarts --max-iters --dim-convention --seed --out"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mtdchain")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_line, flags) in _SUBCOMMANDS.items():
        p = sub.add_parser(command, help=help_line, allow_abbrev=False)
        for flag in flags.split():
            name = flag.rstrip("*")
            p.add_argument(name, required=flag != name, **{"type": _text(name), **_FLAGS[name]})
    sub.choices["expand"].set_defaults(target="full_markov")
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


def cmd_count(args, argv) -> int:
    order = _at_least("--order", args.order)
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
    order = _at_least("--order", args.order)
    if not 1 <= args.lag_order <= order:
        raise _UsageError(
            f"invalid flag value: --lag-order must be in 1..{order}, got {args.lag_order}"
        )
    _check_variant(args.variant, [args.lag_order])
    # EmConfig checks every fit flag, so Berchtold rejects the same invalid values
    config = _em_config(args, floor=args.floor, lag_order=args.lag_order)
    if args.algorithm == "berchtold":
        config = _from_flags(BerchtoldConfig, epsilon=args.epsilon, max_iters=args.max_iters)
    outputs = [path for path in (args.out, args.trace_out) if path]
    created = [path for path in outputs if not os.path.lexists(path)]
    try:
        for path in outputs:
            open(path, "a").close()  # an output that cannot be written fails before the fit
        sequences = _load_corpus(args)
        counts = count_ngrams(sequences, order)
        if args.algorithm == "em":
            report = fit_with_restarts(counts, config)
        else:
            init = init_contingency(counts, args.lag_order, args.variant)
            report = berchtold_fit(counts, init, config)
        if args.trace_out:
            write_trace(args.trace_out, report.loglik_trace)
        created.append(args.out)  # the model goes last: a failure writing it leaves no part
        write_model(args.out, report.model, provenance=_provenance(args, argv))
    except BaseException:
        for path in created:  # a failed fit removes the files it created
            with contextlib.suppress(OSError):
                os.remove(path)
        raise
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
    if not n_terms:
        raise EmptyCorpus(f"no sequence is longer than order {scoring.order}: no word to score")
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
    model, _ = read_model(args.model)
    model = _as_transition_model(model)
    init = "uniform" if args.prefix is None else model.alphabet.decode(args.prefix.strip())
    seq = sample_sequence(model, args.length, seed=args.seed, init=init)
    _emit(seq.labels() + "\n", args.out)
    return 0


def cmd_convert(args, argv) -> int:
    """``convert``, and ``expand``, which is ``convert --to full_markov``."""
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
    try:
        args = build_parser().parse_args(argv)
        _at_least("--seed", getattr(args, "seed", 0), 0)
        return _COMMANDS[args.command](args, argv)
    except _UsageError as err:
        print(f"mtdchain: error: {err}", file=sys.stderr)
        return 2
    except MtdError as err:
        print(f"mtdchain: error: {err}", file=sys.stderr)
        return 1
    except OSError as err:  # every reader raises IoError, so this is an output that failed
        print(f"mtdchain: error: cannot write: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
