"""Command-line interface.

Each subcommand takes only the flags it reads, as ``_SUBCOMMANDS`` declares;
``mtdchain <command> --help`` lists them.

expand, convert and fit --algorithm berchtold write --seed only into the model
file's provenance.
sample --prefix is spelled like one sequence file line over the model's
alphabet: case variants read as their symbols, ',' joins multi-character ones.
All outputs are TSV or JSON, deterministic given --seed.  Exit codes: 0
success; 2 usage error (a missing, unknown, empty or malformed flag, or a
value out of range), found before any work starts; 1 numerical or I/O failure.
Every error is one ``mtdchain: error:`` line on stderr.

Each integer flag's least value is ``low`` in ``_FLAGS``, checked as argparse
reads the flag; a command checks only what compares two flags.  ``main`` opens
every --out and --trace-out for append before the work starts, refuses two that
name one file as a usage error, and a failed run removes each that it created or
changed if it is a regular file, never a symlink or a device.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import math
import os
import stat
import sys

from .berchtold import berchtold_fit
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


def _int_list(text: str) -> list[int]:
    """A comma-separated list of integers, e.g. '2,3,4'; an empty entry is a ValueError."""
    return [int(x) for x in text.split(",")]


def _flag_type(flag: str, parse, low):
    """The argparse type of ``flag``: ``parse`` its text and check each value is >= ``low``.

    argparse reports a ValueError of ``parse`` as an invalid value and passes
    the _UsageError of an empty or too small value on to main.
    """
    def check(text: str):
        if not text:  # e.g. ``--out ""`` from an unset shell variable
            raise _UsageError(f"invalid flag value: {flag} must not be empty")
        value = parse(text)
        if low is not None and min(value if isinstance(value, list) else [value]) < low:
            raise _UsageError(f"invalid flag value: {flag} must be >= {low}, got {text}")
        return value
    # argparse names the type in its "invalid int value" message
    check.__name__ = parse.__name__.strip("_").replace("_", " ")
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


def _tsv(rows) -> str:
    """A header of the first row's keys, then each row's values: floats by repr, others by str."""
    lines = ["\t".join(rows[0])]
    for row in rows:
        lines.append("\t".join(repr(v) if isinstance(v, float) else str(v) for v in row.values()))
    return "\n".join(lines) + "\n"


def _load_corpus(args):
    """``(sequences, alphabet)``: the ``--in`` file decoded with the ``--alphabet`` flag."""
    try:
        alphabet = Alphabet(tuple(_tokens(args.alphabet)))
    except ValueError as err:
        raise _UsageError(f"invalid flag value: {err}") from None
    return read_sequences(args.infile, fmt=args.format, alphabet=alphabet), alphabet


# each flag's parser settings and, for an integer flag, its least value ``low``;
# _SUBCOMMANDS says which commands take it
_FLAGS = {
    "--seed": dict(type=int, low=0, default=0),
    "--alphabet": dict(help="symbols, e.g. 'acgt' or '1,2,3'"),
    "--order": dict(type=int, low=1, help="Markov order m"),
    "--in": dict(dest="infile"),
    "--format": dict(choices=("plain", "fasta"), default="plain"),
    "--out": dict(help="output path (where optional, default: stdout)"),
    "--lag-order": dict(type=int, low=1, default=EmConfig.lag_order,
                        help="component block length l"),
    "--variant": dict(choices=("general", "single_matrix"), default=EmConfig.variant),
    "--epsilon": dict(type=float, default=EmConfig.epsilon),
    "--restarts": dict(type=int, low=1, default=EmConfig.n_restarts,
                       help="starts of an EM fit (only EM reads it)"),
    "--max-iters": dict(type=int, low=1, default=EmConfig.max_iters),
    "--algorithm": dict(choices=("em", "berchtold"), default="em"),
    "--trace-out": dict(help="write the log-likelihood trace here"),
    "--model": dict(),
    "--dim-convention": dict(choices=("theta_u", "raw"), default="theta_u"),
    "--bic-n": dict(choices=("terms", "length"), default="terms"),
    "--length": dict(type=int, low=1, default=5000),
    "--prefix": dict(help="initial m letters (default: uniform)"),
    "--to": dict(dest="target", choices=("theta_u", "full_markov")),
    "--ref-letter": dict(help="reference letter for theta_u (default: first symbol)"),
    "--gen-order": dict(type=int, low=1, default=5),
    "--alphabet-size": dict(type=int, low=2, default=4),
    "--fit-orders": dict(type=_int_list, low=1, default="2,3,4,5,6"),
    "--replicates": dict(type=int, low=1, default=20),
    "--word-len": dict(type=int, low=1, default=6),
    "--orders": dict(type=_int_list, low=1, help="comma-separated orders"),
    "--lag-orders": dict(type=_int_list, low=1, default="1"),
}

# each command's help line and the flags its cmd_* function reads; * marks a required flag
_SUBCOMMANDS = {
    "count": ("count (m+1)-letter words of a corpus",
              "--alphabet* --order* --in* --format --out"),
    "fit": ("fit an MTD model to a corpus",
            "--alphabet* --order* --in* --format --out* --lag-order --variant --epsilon"
            " --restarts --max-iters --seed --algorithm --trace-out"),
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``mtdchain`` parser, built once per process: parsing leaves no state in it."""
    parser = _Parser(prog="mtdchain")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_line, flags) in _SUBCOMMANDS.items():
        p = sub.add_parser(command, help=help_line, allow_abbrev=False)
        for flag in flags.split():
            name = flag.rstrip("*")
            spec = dict(_FLAGS[name])
            kind = _flag_type(name, spec.pop("type", str), spec.pop("low", None))
            p.add_argument(name, required=flag != name, type=kind, **spec)
    sub.choices["expand"].set_defaults(target="full_markov")
    return parser


def cmd_count(args, argv) -> int:
    sequences, alphabet = _load_corpus(args)
    counts = count_ngrams(sequences, args.order, alphabet=alphabet)
    write_counts(counts, args.out or sys.stdout)
    return 0


def _em_config(args, lag_order: int, lag_flag: str) -> EmConfig:
    """The fit flags as an EmConfig; a value it refuses is a usage error naming the flag.

    ``lag_flag`` is the flag that gives ``lag_order``.  argparse has checked
    --max-iters and --restarts.
    """
    if not 0.0 < args.epsilon < math.inf:
        raise _UsageError(f"invalid flag value: --epsilon must be finite and > 0, "
                          f"got {args.epsilon}")
    if args.variant == "single_matrix" and lag_order != 1:
        raise _UsageError(f"invalid flag value: {lag_flag} must be 1 with --variant "
                          f"single_matrix, got {lag_order}")
    return EmConfig(epsilon=args.epsilon, max_iters=args.max_iters, n_restarts=args.restarts,
                    seed=args.seed, variant=args.variant, lag_order=lag_order)


def cmd_fit(args, argv) -> int:
    if args.lag_order > args.order:
        raise _UsageError(
            f"invalid flag value: --lag-order must be in 1..{args.order}, got {args.lag_order}"
        )
    config = _em_config(args, args.lag_order, "--lag-order")
    sequences, alphabet = _load_corpus(args)
    counts = count_ngrams(sequences, args.order, alphabet=alphabet)
    if args.algorithm == "em":
        report = fit_with_restarts(counts, config)
    else:
        init = init_contingency(counts, args.lag_order, args.variant)
        report = berchtold_fit(counts, init, config)
    if args.trace_out:
        write_trace(args.trace_out, report.loglik_trace)
    write_model(args.out, report.model, provenance=_provenance(args, argv))
    sys.stdout.write(_tsv([{"final_loglik": report.final_loglik, "iterations": report.iterations,
                             "converged": report.converged, "bic": report.bic}]))
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
    if not counts.total:  # whatever --bic-n says, a BIC of no scored word is no score
        raise EmptyCorpus(f"no sequence is longer than order {scoring.order}: no word to score")
    loglik = loglik_from_counts(scoring, counts)
    d_theta = model_dimension(model, "theta_u")
    d_raw = model_dimension(model, "raw")
    n_terms = counts.total if args.bic_n == "terms" else sum(len(s) for s in sequences)
    dim = d_theta if args.dim_convention == "theta_u" else d_raw
    row = {"loglik": loglik, "dim_theta_u": d_theta, "dim_raw": d_raw, "n_terms": n_terms,
           "bic": bic(loglik, dim, n_terms)}
    _emit(_tsv([row]), args.out)
    return 0


def cmd_sample(args, argv) -> int:
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
    if args.length < args.gen_order:
        raise _UsageError(
            f"invalid flag value: --length must be >= {args.gen_order}, got {args.length}"
        )
    if max(args.fit_orders) >= args.length:  # a sample of --length letters has no window
        raise _UsageError(
            f"invalid flag value: --fit-orders entries must be < --length {args.length}, "
            f"got {max(args.fit_orders)}"
        )
    rows, _ = tv_experiment(args.gen_order, args.alphabet_size, args.length, args.fit_orders,
                            args.replicates, args.word_len, args.seed)
    means = [{"replicate": "mean", "fit_order": m, "tv": tv}
             for m, tv in tv_experiment_summary(rows).items()]
    _emit(_tsv(rows + means), args.out)
    return 0


def cmd_bic_compare(args, argv) -> int:
    config = _em_config(args, max(args.lag_orders), "--lag-orders")
    if min(args.lag_orders) > max(args.orders):
        raise _UsageError("invalid flag value: no --lag-orders entry is <= an --orders entry")
    sequences, alphabet = _load_corpus(args)
    rows = bic_compare(sequences, args.orders, args.lag_orders, config=config,
                       dim_convention=args.dim_convention, alphabet=alphabet)
    _emit(_tsv(rows), args.out)
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


def _state(path):
    """Mode, inode, size and mtime of ``path`` itself (a symlink is not followed), or None."""
    try:
        st = os.lstat(path)
    except OSError:
        return None
    return st.st_mode, st.st_ino, st.st_size, st.st_mtime_ns


def _release(claimed: dict) -> None:
    """Remove each claimed output that is a regular file and not in its state before the run."""
    for path, before in claimed.items():
        now = _state(path)
        if now and stat.S_ISREG(now[0]) and now != before:
            with contextlib.suppress(OSError):
                os.remove(path)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    claimed = {}  # each output path of the command and its _state before it was claimed
    try:
        args = build_parser().parse_args(argv)
        outputs = [getattr(args, dest, None) for dest in ("out", "trace_out")]
        for path in filter(None, outputs):
            claimed.setdefault(path, _state(path))
            open(path, "a").close()  # an output that cannot be written fails before the work
        if all(outputs) and os.path.samefile(*outputs):  # the model would overwrite the trace
            raise _UsageError(f"invalid flag value: --trace-out {outputs[1]} is the --out file")
        return _COMMANDS[args.command](args, argv)
    except BaseException as err:
        _release(claimed)  # a failed run leaves no output that it created or changed
        if not isinstance(err, (_UsageError, MtdError, OSError)):
            raise
        # every reader raises IoError, an MtdError, so an OSError is an output that failed
        message = f"cannot write: {err}" if isinstance(err, OSError) else err
        print(f"mtdchain: error: {message}", file=sys.stderr)
        return 2 if isinstance(err, _UsageError) else 1


if __name__ == "__main__":
    sys.exit(main())
