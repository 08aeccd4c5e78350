import argparse
import contextlib
import faulthandler
import functools
import hashlib
import io
import json
import os
import resource
import signal
import subprocess
import sys
import threading
import time
from bisect import bisect_right
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mtdchain import (
    DNA,
    Alphabet,
    EmConfig,
    MtdError,
    MtdModel,
    Sequence,
    ThetaU,
    count_ngrams,
    fit_with_restarts,
    full_transition_matrix,
    random_full_markov,
    random_mtd,
    read_model,
    read_sequences,
    sample_sequence,
    to_theta_u,
    word_to_index,
    write_counts,
    write_model,
)
from mtdchain import cli

# Outputs of these exact commands, recorded before the EM kernel rewrite
# (the count table before the array-backed counts, the fit summary once
# restarts were screened and only the leader polished); scripts parse
# them, so they must stay byte-identical.
FIT_GOLDEN = (
    "final_loglik\titerations\tconverged\tbic\n"
    "-5130.62782493133\t41\tTrue\t10522.181032228846\n"
)
# final_loglik of the same fit by plain EM, 56 EM maps
PLAIN_EM_FIT_LOGLIK = -5130.635749929632
EVAL_GOLDEN = (
    "loglik\tdim_theta_u\tdim_raw\tn_terms\tbic\n"
    "-6474.322710534654\t30\t38\t5988\t13209.570803435494\n"
)
COUNT_GOLDEN = (
    "aa\t116\nac\t975\nag\t275\nat\t150\nca\t116\ncc\t111\ncg\t1007\nct\t228\n"
    "ga\t324\ngc\t122\ngg\t147\ngt\t965\nta\t957\ntc\t255\ntg\t129\ntt\t119\n"
)


def _corpus(n_lines=4, length=1500):
    """Lines over 'acgt' from a pure-Python LCG: lag-1 and lag-3 dependence plus noise."""
    state = 12345
    lines = []
    for _ in range(n_lines):
        letters = [0, 1, 2]
        while len(letters) < length:
            state = (1103515245 * state + 12345) % 2**31
            u = state / 2**31
            if u < 0.5:
                nxt = (letters[-1] + 1) % 4
            elif u < 0.8:
                nxt = letters[-3]
            else:
                nxt = (state >> 16) % 4
            letters.append(nxt)
        lines.append("".join("acgt"[s] for s in letters))
    return "\n".join(lines) + "\n"


@pytest.fixture
def corpus(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text(_corpus())
    return str(path)


def test_fit_summary_golden(corpus, tmp_path, capsys):
    argv = ["fit", "--in", corpus, "--alphabet", "acgt", "--order", "3",
            "--restarts", "3", "--seed", "7", "--out", str(tmp_path / "model.json")]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert out == FIT_GOLDEN
    assert float(out.splitlines()[1].split("\t")[0]) >= PLAIN_EM_FIT_LOGLIK


# (recorded while the baseline still had a configuration class of its own)
BERCHTOLD_FIT_GOLDEN = (
    "final_loglik\titerations\tconverged\tbic\n"
    "-5131.607100501032\t186\tTrue\t10524.139583368249\n"
)
BERCHTOLD_MODEL_SHA256 = "41826c782a3ad7c682084873edf2f28db947d47c466075c26a4187dd2113acca"


def test_berchtold_fit_golden(tmp_path, monkeypatch, capsys):
    # relative paths: the command line is part of the file's provenance
    monkeypatch.chdir(tmp_path)
    (tmp_path / "corpus.txt").write_text(_corpus())
    argv = ["fit", "--in", "corpus.txt", "--alphabet", "acgt", "--order", "3",
            "--algorithm", "berchtold", "--epsilon", "1e-4", "--out", "model.json"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == BERCHTOLD_FIT_GOLDEN
    digest = hashlib.sha256((tmp_path / "model.json").read_bytes()).hexdigest()
    assert digest == BERCHTOLD_MODEL_SHA256


def test_fit_without_out_fails_before_work(corpus, monkeypatch, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    monkeypatch.setattr(cli, "_load_corpus", forbidden)
    monkeypatch.setattr(cli, "fit_with_restarts", forbidden)
    rc = cli.main(["fit", "--in", corpus, "--alphabet", "acgt", "--order", "3"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("mtdchain: error: ") and "--out" in captured.err


def _model():
    pi1 = np.array([[0.1, 0.6, 0.2, 0.1], [0.1, 0.1, 0.6, 0.2],
                    [0.2, 0.1, 0.1, 0.6], [0.6, 0.2, 0.1, 0.1]])
    pi2 = np.array([[0.4, 0.2, 0.2, 0.2], [0.2, 0.4, 0.2, 0.2],
                    [0.2, 0.2, 0.4, 0.2], [0.2, 0.2, 0.2, 0.4]])
    return MtdModel(DNA, 3, 1, [0.5, 0.2, 0.3], [pi1, pi2, pi2])


def test_eval_row_golden(corpus, tmp_path, capsys):
    model_path = str(tmp_path / "model.json")
    write_model(model_path, _model())
    assert cli.main(["eval", "--model", model_path, "--in", corpus]) == 0
    assert capsys.readouterr().out == EVAL_GOLDEN


def test_count_table_golden(corpus, tmp_path, capsys):
    argv = ["count", "--in", corpus, "--alphabet", "acgt", "--order", "1"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == COUNT_GOLDEN
    out = tmp_path / "counts.tsv"
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == COUNT_GOLDEN


@pytest.mark.parametrize("kind", ["mtd", "theta_u"])
def test_expand_equals_convert_to_full_markov(kind, tmp_path):
    model = _model() if kind == "mtd" else to_theta_u(_model(), 0)
    src = str(tmp_path / "model.json")
    write_model(src, model)
    expanded, converted = str(tmp_path / "expanded.json"), str(tmp_path / "converted.json")
    assert cli.main(["expand", "--model", src, "--out", expanded]) == 0
    assert cli.main(["convert", "--model", src, "--to", "full_markov", "--out", converted]) == 0
    dense, _ = read_model(expanded)
    assert dense.is_dense
    assert dense == read_model(converted)[0]


def _undecodable(tmp_path):
    path = tmp_path / "utf16.txt"
    path.write_bytes(b"\xff\xfe" + "acgt".encode("utf-16-le"))
    return str(path)


@pytest.mark.parametrize("command", ["count", "eval"])
def test_undecodable_input_is_one_line_error(command, corpus, tmp_path, capsys):
    bad = _undecodable(tmp_path)
    if command == "count":
        argv = ["count", "--in", bad, "--alphabet", "acgt", "--order", "2"]
    else:
        argv = ["eval", "--model", bad, "--in", corpus]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("mtdchain: error: ") and bad in captured.err


def _forbid_work(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("work started before the flags were checked")

    for name in ("read_sequences", "read_model", "bic_compare", "tv_experiment"):
        monkeypatch.setattr(cli, name, forbidden)


@pytest.mark.parametrize(
    "command, flags",
    [
        ("fit", ["--alphabet", "aa"]),
        ("fit", ["--alphabet", "acgt", "--epsilon", "0"]),
        ("fit", ["--alphabet", "acgt", "--epsilon", "0", "--algorithm", "berchtold"]),
        ("fit", ["--alphabet", "acgt", "--epsilon", "nan"]),
        ("fit", ["--alphabet", "acgt", "--epsilon", "inf"]),
        ("fit", ["--alphabet", "acgt", "--epsilon", "nan", "--algorithm", "berchtold"]),
        ("fit", ["--alphabet", "acgt", "--restarts", "0"]),
        ("fit", ["--alphabet", "acgt", "--max-iters", "0", "--algorithm", "berchtold"]),
        ("fit", ["--alphabet", "acgt", "--order", "0"]),
        ("fit", ["--alphabet", "acgt", "--order", "3", "--lag-order", "5"]),
        ("fit", ["--alphabet", "acgt", "--lag-order", "0"]),
        ("fit", ["--alphabet", "acgt", "--variant", "single_matrix", "--lag-order", "2"]),
        ("fit", ["--alphabet", "acgt", "--variant", "single_matrix", "--lag-order", "2",
                 "--algorithm", "berchtold"]),
        ("bic-compare", ["--orders", "0"]),
        ("bic-compare", ["--orders", "2", "--lag-orders", "0"]),
        ("bic-compare", ["--orders", "1", "--lag-orders", "2"]),
        ("bic-compare", ["--orders", "2", "--lag-orders", "1,2", "--variant", "single_matrix"]),
        ("tv-experiment", ["--fit-orders", "2,0"]),
        ("tv-experiment", ["--gen-order", "0"]),
        ("tv-experiment", ["--word-len", "0"]),
        ("tv-experiment", ["--alphabet-size", "1"]),
        ("tv-experiment", ["--replicates", "0"]),
        ("tv-experiment", ["--gen-order", "5", "--length", "4"]),
        ("tv-experiment", ["--gen-order", "3", "--length", "5", "--fit-orders", "5,8"]),
        ("sample", ["--length", "0"]),
        ("sample", ["--prefix", ""]),
        ("fit", ["--alphabet", "acgt", "--restarts", "0", "--algorithm", "berchtold"]),
        ("fit", ["--alphabet", "acgt", "--seed", "-1"]),
        ("fit", ["--alphabet", "acgt", "--seed", "-1", "--algorithm", "berchtold"]),
        ("sample", ["--seed", "-1"]),
        ("bic-compare", ["--orders", "2", "--seed", "-1"]),
        ("tv-experiment", ["--seed", "-1"]),
    ],
    ids=[
        "alphabet", "epsilon", "epsilon-berchtold", "epsilon-nan", "epsilon-inf",
        "epsilon-nan-berchtold", "restarts", "max-iters-berchtold",
        "order-0", "lag-order-above-order", "lag-order-0",
        "single-matrix-lag-order-2", "single-matrix-lag-order-2-berchtold",
        "orders-0", "lag-orders-0", "lag-orders-above-orders",
        "single-matrix-lag-orders-1-2", "fit-orders-0", "gen-order-0",
        "word-len-0", "alphabet-size-1", "replicates-0", "tv-experiment-length-below-gen-order",
        "tv-experiment-fit-order-not-below-length",
        "sample-length-0", "sample-prefix-empty",
        "restarts-0-berchtold",
        "fit-seed-negative", "fit-seed-negative-berchtold",
        "sample-seed-negative", "bic-compare-seed-negative", "tv-experiment-seed-negative",
    ],
)
def test_rejected_flag_value_is_usage_error(
    command, flags, corpus, tmp_path, monkeypatch, capsys
):
    _forbid_work(monkeypatch)
    argv = {
        "fit": ["fit", "--in", corpus, "--order", "3", "--out", str(tmp_path / "m.json")],
        "sample": ["sample", "--model", str(tmp_path / "m.json"), "--length", "10"],
        "bic-compare": ["bic-compare", "--in", corpus, "--alphabet", "acgt"],
        "tv-experiment": ["tv-experiment"],
    }[command]
    assert cli.main(argv + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("mtdchain: error: invalid flag value: ")


def _assert_one_line_failure(argv, capsys, *mentions, code=1):
    assert cli.main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("mtdchain: error: ")
    for text in mentions:
        assert text in captured.err


# the flags each command reads; * marks a required flag
FLAGS = {
    "count": "--alphabet* --order* --in* --format --out",
    "fit": "--alphabet* --order* --in* --format --out* --lag-order --variant --epsilon"
           " --restarts --max-iters --seed --algorithm --trace-out",
    "eval": "--model* --in* --format --dim-convention --bic-n --out",
    "sample": "--model* --length* --prefix --seed --out",
    "expand": "--model* --out* --seed",
    "convert": "--model* --to* --out* --ref-letter --seed",
    "tv-experiment": "--gen-order --alphabet-size --length --fit-orders --replicates"
                     " --word-len --seed --out",
    "bic-compare": "--alphabet* --orders* --in* --format --lag-orders --variant --epsilon"
                   " --restarts --max-iters --dim-convention --seed --out",
}


def _required_argv(command, corpus, tmp_path):
    """``command`` with a value for each of its required flags."""
    values = {"--alphabet": "acgt", "--order": "3", "--in": corpus,
              "--out": str(tmp_path / "out"), "--model": str(tmp_path / "m.json"),
              "--length": "10", "--to": "theta_u", "--orders": "2"}
    argv = [command]
    for flag in FLAGS[command].split():
        if flag.endswith("*"):
            argv += [flag[:-1], values[flag[:-1]]]
    return argv


def test_each_command_declares_only_the_flags_it_reads():
    (commands,) = [a.choices for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    declared = {
        name: {(f"{a.option_strings[0]}*" if a.required else a.option_strings[0])
               for a in parser._actions if a.dest != "help"}
        for name, parser in commands.items()
    }
    assert declared == {name: set(flags.split()) for name, flags in FLAGS.items()}
    assert sum(len(flags) for flags in declared.values()) == 57


UNREAD_FLAGS = [
    ("count", "--seed", "-1"),
    ("count", "--restarts", "3"),
    ("eval", "--alphabet", "xyzw"),
    ("eval", "--order", "9"),
    ("eval", "--variant", "single_matrix"),
    ("eval", "--restarts", "-4"),
    ("sample", "--epsilon", "0.1"),
    ("sample", "--alphabet", "acgt"),
    ("expand", "--to", "theta_u"),
    ("convert", "--order", "3"),
    ("tv-experiment", "--alphabet", "xyz"),
    ("tv-experiment", "--in", "corpus.txt"),
    ("bic-compare", "--order", "5"),
    ("bic-compare", "--lag-order", "2"),
    ("fit", "--floor", "0.05"),
]


@pytest.mark.parametrize(
    "command, flag, value", UNREAD_FLAGS, ids=[c + f[1:] for c, f, _ in UNREAD_FLAGS]
)
def test_unread_flag_is_usage_error(command, flag, value, corpus, tmp_path, monkeypatch, capsys):
    _forbid_work(monkeypatch)
    argv = _required_argv(command, corpus, tmp_path) + [flag, value]
    _assert_one_line_failure(argv, capsys, "unrecognized arguments: " + flag, code=2)


@pytest.mark.parametrize(
    "command, flag",
    [(c, f[:-1]) for c, flags in FLAGS.items() for f in flags.split() if f.endswith("*")],
    ids=lambda x: x.lstrip("-"),
)
def test_missing_required_flag_is_usage_error(command, flag, corpus, tmp_path, monkeypatch,
                                              capsys):
    _forbid_work(monkeypatch)
    argv = _required_argv(command, corpus, tmp_path)
    i = argv.index(flag)
    del argv[i : i + 2]
    _assert_one_line_failure(argv, capsys, "the following arguments are required: " + flag,
                             code=2)


@pytest.mark.parametrize(
    "argv, mention",
    [
        ([], "required: command"),
        (["fitt"], "invalid choice: 'fitt'"),
        (["count", "--alphabet", "acgt", "--in", "c.txt", "--order", "x"],
         "--order: invalid int value"),
        (["fit", "--alphabet", "acgt", "--in", "c.txt", "--order", "3", "--out", "m.json",
          "--epsilon", "small"], "--epsilon: invalid float value"),
        (["eval", "--model", "m.json", "--in", "c.txt", "--format", "fastq"],
         "--format: invalid choice"),
        (["bic-compare", "--alphabet", "acgt", "--in", "c.txt", "--orders", "2,x"],
         "--orders: invalid int list value: '2,x'"),
        (["fit", "--alphabet", "acgt", "--in", "c.txt", "--order", "3", "--out", ""],
         "invalid flag value: --out must not be empty"),
        (["count", "--alphabet", "acgt", "--in", "", "--order", "3"],
         "invalid flag value: --in must not be empty"),
        (["eval", "--model", "m.json", "--in", "c.txt", "--out="],
         "invalid flag value: --out must not be empty"),
        (["fit", "--alphabet", "acgt", "--in", "c.txt", "--order", "3", "--out", "m.json",
          "--restarts", "0"], "invalid flag value: --restarts must be >= 1, got 0"),
        # these parse, so main claims --out before the command refuses them
        (["fit", "--alphabet", "acgt", "--in", "c.txt", "--order", "3", "--out", os.devnull,
          "--epsilon", "0"], "mtdchain: error: invalid flag value: --epsilon must be finite "
         "and > 0, got 0.0\n"),
        (["fit", "--alphabet", "acgt", "--in", "c.txt", "--order", "3", "--out", os.devnull,
          "--variant", "single_matrix", "--lag-order", "2"],
         "mtdchain: error: invalid flag value: --lag-order must be 1 with --variant "
         "single_matrix, got 2\n"),
        (["bic-compare", "--alphabet", "acgt", "--in", "c.txt", "--orders", "2",
          "--lag-orders", "1,2", "--variant", "single_matrix"],
         "mtdchain: error: invalid flag value: --lag-orders must be 1 with --variant "
         "single_matrix, got 2\n"),
    ],
    ids=["no-command", "unknown-command", "order-not-int", "epsilon-not-float",
         "format-not-a-choice", "orders-not-int", "fit-out-empty", "count-in-empty",
         "eval-out-empty", "fit-restarts-0", "fit-epsilon-0", "fit-single-matrix-lag-order-2",
         "bic-compare-single-matrix-lag-orders-1-2"],
)
def test_malformed_command_line_is_usage_error(argv, mention, monkeypatch, capsys):
    _forbid_work(monkeypatch)
    _assert_one_line_failure(argv, capsys, mention, code=2)


def test_rejected_model_file_is_one_line_error(corpus, tmp_path, capsys):
    path = tmp_path / "model.json"
    write_model(path, _model())
    path.write_text(path.read_text().replace('"phi": [\n    0.5,', '"phi": [\n    0.9,'))
    _assert_one_line_failure(["eval", "--model", str(path), "--in", corpus], capsys, str(path))


def test_bic_compare_order_too_large_is_one_line_error(corpus, capsys):
    argv = ["bic-compare", "--in", corpus, "--alphabet", "acgt", "--orders", "30"]
    _assert_one_line_failure(argv, capsys, "exceeds")


# Outputs of these commands recorded before from_theta_u became a window-chain sum
# (the bic-compare table once restarts were screened and only the leader polished)
CONVERT_THETA_U_SHA256 = "fd98fb43b8d186c14e27c3890bfbab1092957f6d329a83968f789757fe3522fb"
EXPAND_SHA256 = "ddc67beb677009a4cdcaea641387aabd8cece9f9404975091c59b549705e691c"
BIC_COMPARE_GOLDEN = (
    "order\tlag_order\tn_terms\tloglik_full\tdim_full\tbic_full"
    "\tloglik_mtd\tdim_mtd\tbic_mtd\tdelta_bic\n"
    "1\t1\t5996\t-6013.52352539126\t12\t12131.43322509319"
    "\t-6013.52352539126\t12\t12131.43322509319\t0.0\n"
    "2\t1\t5992\t-5750.411482623633\t48\t11918.335630456724"
    "\t-5771.299695049087\t21\t11725.261181127313\t193.07444932941144\n"
    "2\t2\t5992\t-5750.411482623633\t48\t11918.335630456724"
    "\t-5750.411482623633\t48\t11918.335630456724\t0.0\n"
    "3\t1\t5988\t-5048.496614091014\t192\t11766.915675325616"
    "\t-5130.62777099945\t30\t10522.180924365086\t1244.7347509605297\n"
    "3\t2\t5988\t-5048.496614091014\t192\t11766.915675325616"
    "\t-5100.677440419413\t84\t10931.945951464146\t834.9697238614699\n"
)
TV_EXPERIMENT_GOLDEN = (
    "replicate\tfit_order\ttv\n"
    "0\t1\t0.4184718286722858\n0\t2\t0.1956882469390547\n0\t3\t0.20488213819524675\n"
    "1\t1\t0.42855213335935927\n1\t2\t0.22934051136660577\n1\t3\t0.23056088260420932\n"
    "mean\t1\t0.42351198101582255\nmean\t2\t0.21251437915283022\n"
    "mean\t3\t0.21772151039972804\n"
)


def test_convert_to_theta_u_golden(tmp_path, monkeypatch):
    # relative paths: the command line is part of the file's provenance
    monkeypatch.chdir(tmp_path)
    write_model("model.json", random_mtd(4, 4, 2, seed=11, alphabet=DNA))
    argv = ["convert", "--model", "model.json", "--to", "theta_u", "--ref-letter", "g",
            "--out", "theta.json"]
    assert cli.main(argv) == 0
    digest = hashlib.sha256((tmp_path / "theta.json").read_bytes()).hexdigest()
    assert digest == CONVERT_THETA_U_SHA256


def test_expand_golden(tmp_path, monkeypatch):
    # recorded while a full Markov model was still a class of its own
    monkeypatch.chdir(tmp_path)
    write_model("model.json", random_mtd(4, 4, 2, seed=11, alphabet=DNA))
    assert cli.main(["expand", "--model", "model.json", "--out", "dense.json"]) == 0
    digest = hashlib.sha256((tmp_path / "dense.json").read_bytes()).hexdigest()
    assert digest == EXPAND_SHA256


def test_main_calls_in_one_process_share_the_parser_and_nothing_else(tmp_path, monkeypatch,
                                                                     capsys):
    monkeypatch.chdir(tmp_path)
    write_model("model.json", random_mtd(4, 4, 2, seed=11, alphabet=DNA))
    # a usage error, then two commands whose flags differ, then the usage error again
    _assert_one_line_failure(["convert", "--model", "model.json", "--out", "x.json"], capsys,
                             "--to", code=2)
    assert cli.main(["expand", "--model", "model.json", "--out", "dense.json"]) == 0
    argv = ["convert", "--model", "model.json", "--to", "theta_u", "--ref-letter", "g",
            "--out", "theta.json"]
    assert cli.main(argv) == 0
    _assert_one_line_failure(["convert", "--model", "model.json", "--out", "x.json"], capsys,
                             "--to", code=2)
    assert hashlib.sha256(Path("dense.json").read_bytes()).hexdigest() == EXPAND_SHA256
    assert hashlib.sha256(Path("theta.json").read_bytes()).hexdigest() == CONVERT_THETA_U_SHA256
    assert not Path("x.json").exists()
    assert cli.build_parser() is cli.build_parser()


def test_bic_compare_golden(corpus, capsys):
    argv = ["bic-compare", "--in", corpus, "--alphabet", "acgt", "--orders", "1,2,3",
            "--lag-orders", "1,2", "--restarts", "2", "--seed", "3"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == BIC_COMPARE_GOLDEN


def test_tv_experiment_golden(capsys):
    argv = ["tv-experiment", "--gen-order", "2", "--alphabet-size", "3", "--length", "400",
            "--fit-orders", "1,2,3", "--replicates", "2", "--word-len", "3", "--seed", "5"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == TV_EXPERIMENT_GOLDEN


def test_sample_golden(tmp_path, capsys):
    # stdout recorded before the sampler loop and Sequence.labels were reworked
    model_path = str(tmp_path / "model.json")
    write_model(model_path, random_mtd(12, 2, 1, seed=3))
    assert cli.main(["sample", "--model", model_path, "--length", "30", "--seed", "4"]) == 0
    assert capsys.readouterr().out == (
        "s8,s11,s5,s11,s0,s7,s5,s9,s2,s10,s6,s10,s5,s5,s9,"
        "s11,s5,s11,s10,s1,s6,s9,s11,s7,s1,s6,s6,s6,s11,s4\n"
    )


def test_sample_shorter_than_model_order_is_data_error(tmp_path, capsys):
    # the order comes from the model file, so this is not a usage error
    model_path = str(tmp_path / "model.json")
    write_model(model_path, random_mtd(3, 3, 1, seed=3))
    argv = ["sample", "--model", model_path, "--length", "2"]
    _assert_one_line_failure(argv, capsys, "shorter than order 3")


def test_sample_too_long_to_allocate_is_one_line_error(tmp_path, capsys):
    # 10**20 letters exceed numpy's largest array shape, so nothing is allocated
    model_path = str(tmp_path / "model.json")
    write_model(model_path, random_mtd(3, 2, 1, seed=3))
    argv = ["sample", "--model", model_path, "--length", str(10**20)]
    _assert_one_line_failure(argv, capsys, "cannot allocate a sample of 100000000000000000000")


@pytest.mark.parametrize("command", ["eval", "sample", "convert"])
def test_theta_u_too_large_to_expand_is_one_line_error(corpus, tmp_path, capsys, command):
    # thirty 4 x 4 tables in the file; the dense table they expand to has 4**31 entries
    model_path = str(tmp_path / "theta.json")
    write_model(model_path, ThetaU(DNA, 30, 1, 0, [np.full((4, 4), 0.25)] * 30))
    argv = {
        "eval": ["eval", "--model", model_path, "--in", corpus],
        "sample": ["sample", "--model", model_path, "--length", "100"],
        "convert": ["convert", "--model", model_path, "--to", "full_markov",
                    "--out", str(tmp_path / "dense.json")],
    }[command]
    _assert_one_line_failure(argv, capsys, "exceeds")


@pytest.mark.parametrize("command", ["convert", "sample"])
def test_history_index_overflow_is_one_line_error(tmp_path, capsys, command):
    # forty 4 x 4 matrices in the file; 4**40 histories overflow 64-bit indices
    model_path = str(tmp_path / "model.json")
    write_model(model_path, random_mtd(4, 40, 1, seed=1))
    argv = {
        "convert": ["convert", "--model", model_path, "--to", "theta_u",
                    "--out", str(tmp_path / "theta.json")],
        "sample": ["sample", "--model", model_path, "--length", "100"],
    }[command]
    _assert_one_line_failure(argv, capsys, "overflow 64-bit word indices")


def _exact_row(model, history):
    """Next-letter row of a history index, its lag blocks taken with Python integers."""
    q, l = model.alphabet.size, model.lag_order
    return sum(model.phi[g - 1] * model.matrix_for_lag(g)[history // q ** (g - 1) % q**l]
               for g in range(1, model.n_components + 1))


# 3**39 histories fit 64-bit indices but their 3**40 successor words do not
@pytest.mark.parametrize("command", ["convert", "sample"])
def test_histories_whose_words_overflow_int64(tmp_path, capsys, command):
    model = random_mtd(3, 39, 1, seed=2)
    model_path, out_path = str(tmp_path / "model.json"), str(tmp_path / "out")
    write_model(model_path, model)
    if command == "convert":
        # reference letter '2' makes u...u the largest history, 3**39 - 1
        argv = ["convert", "--model", model_path, "--to", "theta_u", "--ref-letter", "2",
                "--out", out_path]
        assert cli.main(argv) == 0
        theta, _ = read_model(out_path)
        u_all = 3**39 - 1
        for g, table in enumerate(theta.tables, 1):
            expected = [_exact_row(model, u_all + (b - 2) * 3 ** (g - 1)) for b in range(3)]
            np.testing.assert_allclose(table, expected, rtol=1e-14)
    else:
        # the documented draw: the first 39 letters from rng.integers, then each
        # history's row bisected at the next value of one rng.random call
        argv = ["sample", "--model", model_path, "--length", "200", "--seed", "5",
                "--out", out_path]
        assert cli.main(argv) == 0
        rng = np.random.default_rng(5)
        letters = [int(a) for a in rng.integers(0, 3, size=39)]
        h = int(np.dot(letters, 3 ** np.arange(38, -1, -1, dtype=object)))
        for draw in rng.random(161):
            letter = bisect_right(np.cumsum(_exact_row(model, h))[:-1], draw)
            letters.append(letter)
            h = h % 3**38 * 3 + letter
        with open(out_path) as fh:
            assert fh.read() == "".join(map(str, letters)) + "\n"


def _capped_memory():
    # a child that regresses into a huge power then fails instead of filling the machine
    resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))


def test_eval_of_a_dense_file_with_a_huge_order_fails_fast(corpus, tmp_path):
    model_path = tmp_path / "huge.json"
    write_model(model_path, full_transition_matrix(random_mtd(4, 1, 1, seed=3, alphabet=DNA)))
    doc = json.loads(model_path.read_text())
    doc["m"] = 10**30
    model_path.write_text(json.dumps(doc))
    # a subprocess with a timeout: the q**m of an unchecked order never finishes
    src = str(Path(cli.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-m", "mtdchain.cli", "eval", "--model", str(model_path), "--in", corpus],
        capture_output=True, text=True, timeout=60, preexec_fn=_capped_memory,
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr.startswith("mtdchain: error: ") and result.stderr.count("\n") == 1
    assert "overflow 64-bit word indices" in result.stderr


def test_sample_then_count_multi_character_symbols(tmp_path, capsys):
    model = random_mtd(12, 2, 1, seed=3)
    model_path, sample_path = str(tmp_path / "model.json"), str(tmp_path / "sample.txt")
    write_model(model_path, model)
    argv = ["sample", "--model", model_path, "--length", "300", "--seed", "4", "--out", sample_path]
    assert cli.main(argv) == 0
    symbols = ",".join(model.alphabet.symbols)
    argv = ["count", "--in", sample_path, "--alphabet", symbols, "--order", "2"]
    assert cli.main(argv) == 0
    expected = io.StringIO()
    write_counts(count_ngrams([sample_sequence(model, 300, seed=4)], 2), expected)
    assert capsys.readouterr().out == expected.getvalue()


@pytest.mark.parametrize(
    "symbols,order,prefix,start",
    [(("10", "11", "12"), 1, "10", "10,"), (tuple("acgt"), 3, " GaT ", "gat")],
    ids=["multi-character", "upper-case"],
)
def test_sample_prefix_is_spelled_like_a_sequence_line(
    symbols, order, prefix, start, tmp_path, capsys
):
    model_path = str(tmp_path / "model.json")
    write_model(model_path, random_mtd(len(symbols), order, 1, seed=3, alphabet=Alphabet(symbols)))
    argv = ["sample", "--model", model_path, "--length", "20", "--prefix", prefix]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.startswith(start)


# '\udcff' is how Python passes on an undecodable byte of the command line
@pytest.mark.parametrize("prefix", ["aN", "a\udcff"], ids=["foreign", "undecodable"])
def test_sample_prefix_with_a_foreign_letter_is_one_line_error(prefix, tmp_path, capsys):
    model_path = str(tmp_path / "model.json")
    write_model(model_path, random_mtd(4, 2, 1, seed=3, alphabet=DNA))
    argv = ["sample", "--model", model_path, "--length", "20", "--prefix", prefix]
    _assert_one_line_failure(argv, capsys, "prefix")


def test_convert_full_markov_to_theta_u_keeps_eval(corpus, tmp_path, capsys):
    # a full Markov model is the MTD model with l = m, so its file converts like any other
    model_path, out_path = str(tmp_path / "dense.json"), str(tmp_path / "theta.json")
    write_model(model_path, full_transition_matrix(_model()))
    argv = ["convert", "--model", model_path, "--to", "theta_u", "--out", out_path]
    assert cli.main(argv) == 0
    assert isinstance(read_model(out_path)[0], ThetaU)
    rows = []
    for path in (model_path, out_path):
        assert cli.main(["eval", "--model", path, "--in", corpus]) == 0
        rows.append(capsys.readouterr().out)
    assert rows[0] == rows[1]
    # theta_u tables are already the target parametrization
    again = tmp_path / "again.json"
    argv = ["convert", "--model", out_path, "--to", "theta_u", "--out", str(again)]
    _assert_one_line_failure(argv, capsys, "only MTD models convert to theta_u")
    assert not again.exists()


def _model_document():
    return {"format_version": 1, "alphabet": ["a", "b"], "model_kind": "mtd", "m": 1, "l": 1,
            "variant": "general", "phi": [1.0], "matrices": [[[0.5, 0.5], [0.5, 0.5]]]}


@pytest.mark.parametrize(
    "broken",
    [lambda doc: [doc], lambda doc: {**doc, "matrices": 5}, lambda doc: {**doc, "alphabet": 5},
     lambda doc: {**doc, "m": None}, lambda doc: {**doc, "alphabet": ["", "a"]},
     lambda doc: {**doc, "model_kind": "full_markov", "matrices": []}],
    ids=["top-level-list", "matrices-number", "alphabet-number", "m-null", "empty-symbol",
         "dense-no-table"],
)
def test_malformed_model_file_is_one_line_error(broken, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(broken(_model_document())))
    argv = ["sample", "--model", str(model_path), "--length", "10"]
    _assert_one_line_failure(argv, capsys, "holds an invalid model")


def test_unwritable_alphabet_flag_is_usage_error(corpus, capsys):
    argv = ["count", "--in", corpus, "--alphabet", "a,,b", "--order", "1"]
    _assert_one_line_failure(argv, capsys, "invalid flag value", "''", code=2)


def _small_run(command, corpus, model_path):
    """``command`` with its required flags on small inputs, leaving out ``--out``."""
    return [command, *{
        "count": ["--alphabet", "acgt", "--order", "1", "--in", corpus],
        "fit": ["--alphabet", "acgt", "--order", "1", "--in", corpus, "--restarts", "1"],
        "eval": ["--model", model_path, "--in", corpus],
        "sample": ["--model", model_path, "--length", "20"],
        "expand": ["--model", model_path],
        "convert": ["--model", model_path, "--to", "theta_u"],
        "tv-experiment": ["--gen-order", "1", "--alphabet-size", "2", "--length", "50",
                          "--fit-orders", "1", "--replicates", "1", "--word-len", "2"],
        "bic-compare": ["--alphabet", "acgt", "--orders", "1", "--in", corpus,
                        "--restarts", "1"],
    }[command]]


OUTPUT_FLAGS = [
    (command, "--out") for command, (_, flags) in cli._SUBCOMMANDS.items()
    if "--out" in flags.replace("*", "").split()
] + [("fit", "--trace-out")]


@pytest.mark.parametrize("command, flag", OUTPUT_FLAGS, ids=lambda x: x.lstrip("-"))
def test_unwritable_output_is_one_line_error(command, flag, corpus, tmp_path, capsys,
                                             monkeypatch):
    model_path = str(tmp_path / "model.json")
    write_model(model_path, _model())
    _forbid_work(monkeypatch)
    bad = str(tmp_path / "missing" / "out")
    argv = _small_run(command, corpus, model_path)
    if flag == "--trace-out":
        argv += ["--out", str(tmp_path / "fit.json")]
    _assert_one_line_failure(argv + [flag, bad], capsys, "cannot write", bad)
    assert sorted(os.listdir(tmp_path)) == ["corpus.txt", "model.json"]


@pytest.mark.parametrize("failing", ["--out", "--trace-out", "fit"])
def test_failed_fit_leaves_no_output_file(failing, corpus, tmp_path, capsys, monkeypatch):
    """An output that cannot be written fails before the fit, and a failed fit writes nothing."""

    def fit(counts, config):
        if failing != "fit":
            raise AssertionError("the fit started")
        raise MtdError("the fit failed")

    monkeypatch.setattr(cli, "fit_with_restarts", fit)
    outputs = {"--out": tmp_path / "fit.json", "--trace-out": tmp_path / "trace.tsv"}
    if failing in outputs:
        outputs[failing] = tmp_path / "missing" / "f"
    argv = _small_run("fit", corpus, None)
    argv += [arg for flag, path in outputs.items() for arg in (flag, str(path))]
    _assert_one_line_failure(argv, capsys, "cannot write" if failing in outputs else "fit failed")
    assert not any(path.exists() for path in outputs.values())


def _failing_fit(counts, config):
    raise MtdError("the fit failed")


@pytest.mark.parametrize("failure", ["usage", "fit"])
def test_failed_run_keeps_a_pre_existing_output(failure, corpus, tmp_path, capsys, monkeypatch):
    """A usage error, or a failure before the write, leaves an existing output byte-identical."""
    outputs = {"--out": tmp_path / "fit.json", "--trace-out": tmp_path / "trace.tsv"}
    for flag, path in outputs.items():
        path.write_text(f"kept {flag}\n")
    argv = _small_run("fit", corpus, None)
    argv += [arg for flag, path in outputs.items() for arg in (flag, str(path))]
    if failure == "usage":
        _forbid_work(monkeypatch)
        argv += ["--lag-order", "2"]  # above --order 1, which only the command checks
    else:
        monkeypatch.setattr(cli, "fit_with_restarts", _failing_fit)
    _assert_one_line_failure(argv, capsys, code=2 if failure == "usage" else 1)
    assert {flag: path.read_text() for flag, path in outputs.items()} == {
        flag: f"kept {flag}\n" for flag in outputs}


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
@pytest.mark.parametrize("alias", ["same", "dot-slash", "symlink", "hard-link"])
def test_out_and_trace_out_naming_one_file_is_usage_error(alias, existing, corpus, tmp_path,
                                                          capsys, monkeypatch):
    """The model would overwrite the trace: refused before the work, the claimed file kept
    as it was or removed if the claim created it."""
    monkeypatch.chdir(tmp_path)
    _forbid_work(monkeypatch)
    if existing:
        Path("fit.json").write_text("an earlier model\n")
    other = {"same": "fit.json", "dot-slash": "./fit.json", "symlink": "link", "hard-link": "hard"}
    if alias == "symlink":
        os.symlink("fit.json", "link")
    elif alias == "hard-link":  # a link needs its file, so this one exists before the run
        Path("fit.json").touch()
        os.link("fit.json", "hard")
    before = Path("fit.json").read_text() if Path("fit.json").exists() else None
    argv = _small_run("fit", corpus, None) + ["--out", "fit.json", "--trace-out", other[alias]]
    _assert_one_line_failure(argv, capsys, "mtdchain: error: invalid flag value: --trace-out "
                             f"{other[alias]} is the --out file\n", code=2)
    assert (Path("fit.json").read_text() if Path("fit.json").exists() else None) == before


@pytest.mark.parametrize("kind", ["symlink", "file"])
def test_failed_write_removes_a_changed_file_but_not_a_link(kind, corpus, tmp_path, capsys,
                                                             monkeypatch):
    target = tmp_path / "target.json"
    target.write_text("an earlier model\n")
    out = target if kind == "file" else tmp_path / "link.json"
    if kind == "symlink":
        out.symlink_to(target)

    def write_model(path, model, provenance):
        with open(path, "w") as fh:
            fh.write("part of a model")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "write_model", write_model)
    argv = _small_run("fit", corpus, None) + ["--out", str(out)]
    _assert_one_line_failure(argv, capsys, "cannot write", "No space left on device")
    if kind == "symlink":
        assert out.is_symlink() and os.readlink(out) == str(target)
    else:
        assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "tv-experiment"])
def test_too_large_block_table_is_one_line_error(command, corpus, tmp_path, capsys):
    # a table of 4**31 entries, which no allocation can hold
    out = tmp_path / "out"
    argv = {
        "fit": ["fit", "--alphabet", "acgt", "--order", "30", "--lag-order", "30", "--in", corpus,
                "--out", str(out)],
        "tv-experiment": ["tv-experiment", "--gen-order", "30", "--length", "40",
                          "--out", str(out)],
    }[command]
    _assert_one_line_failure(argv, capsys, "exceeds")
    assert not out.exists()


def test_fit_of_an_order_14_block_table_fails_before_allocating(corpus, tmp_path):
    # a subprocess under a memory cap: the 4**15-entry table would take 8 GiB
    src = str(Path(cli.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-m", "mtdchain.cli", "fit", "--alphabet", "acgt", "--order", "14",
         "--lag-order", "14", "--restarts", "1", "--in", corpus,
         "--out", str(tmp_path / "fit.json")],
        capture_output=True, text=True, timeout=60, preexec_fn=_capped_memory,
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr.startswith("mtdchain: error: ") and result.stderr.count("\n") == 1
    assert "exceeds" in result.stderr


@pytest.mark.parametrize("word_len", [10**9, 10**12])
def test_huge_word_length_is_one_line_error(word_len, capfd):
    # q**k of a 10**12-letter word was taken before its size was checked, and never finished
    argv = ["tv-experiment", "--gen-order", "2", "--length", "100", "--fit-orders", "2",
            "--replicates", "1", "--word-len", str(word_len)]
    with _wall_clock_guard(2):  # capfd: the guard's faulthandler needs a real stderr
        _assert_one_line_failure(argv, capfd, f"4**{word_len} entries exceeds")


def test_huge_alphabet_size_fails_before_building_the_alphabet(tmp_path):
    # a subprocess under a memory cap: 10**11 symbols ran out of memory in a traceback
    src = str(Path(cli.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-m", "mtdchain.cli", "tv-experiment", "--gen-order", "1",
         "--alphabet-size", str(10**11), "--length", "10", "--fit-orders", "1",
         "--replicates", "1", "--out", str(tmp_path / "tv.tsv")],
        capture_output=True, text=True, timeout=60, preexec_fn=_capped_memory,
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr.startswith("mtdchain: error: ") and result.stderr.count("\n") == 1
    assert f"{10**11}**2 entries exceeds" in result.stderr
    assert not (tmp_path / "tv.tsv").exists()


def _short_corpus(tmp_path):
    """Three letters: no word at order 3, and a 3-letter BIC sample size."""
    corpus = tmp_path / "short.txt"
    corpus.write_text("acg\n")
    model_path = tmp_path / "model.json"
    write_model(model_path, _model())
    return str(corpus), str(model_path)


@pytest.mark.parametrize("command", ["eval", "bic-compare", "eval-bic-n-length"])
def test_corpus_with_no_scored_word_is_one_line_error(command, tmp_path, capsys):
    corpus, model_path = _short_corpus(tmp_path)
    argv = {
        "eval": ["eval", "--model", model_path, "--in", corpus],
        "bic-compare": ["bic-compare", "--alphabet", "acgt", "--orders", "3", "--in", corpus],
        # a BIC over the corpus length would still score no word
        "eval-bic-n-length": ["eval", "--model", model_path, "--in", corpus, "--bic-n", "length"],
    }[command]
    _assert_one_line_failure(argv, capsys, "longer than order 3")


def test_empty_sequence_file_counts_to_an_empty_table(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    out = tmp_path / "counts.tsv"
    argv = ["count", "--alphabet", "acgt", "--order", "2", "--in", str(empty), "--out", str(out)]
    assert cli.main(argv) == 0
    assert capsys.readouterr() == ("", "")
    assert out.read_text() == ""


@pytest.mark.parametrize(
    "command, flags, mention",
    [
        ("fit", ["--order", "2", "--out", "m.json"], "cannot fit from empty counts"),
        ("fit", ["--order", "2", "--out", "m.json", "--algorithm", "berchtold"],
         "cannot fit from empty counts"),
        ("bic-compare", ["--orders", "1,2"], "no sequence is longer than order 1"),
    ],
    ids=["fit-em", "fit-berchtold", "bic-compare"],
)
def test_empty_sequence_file_has_no_word_to_fit(command, flags, mention, tmp_path, capsys,
                                                monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "empty.txt").write_text("")
    argv = [command, "--alphabet", "acgt", "--in", "empty.txt", *flags]
    _assert_one_line_failure(argv, capsys, mention)
    assert not (tmp_path / "m.json").exists()


def _fuzz_documents(tmp_path):
    """Valid model documents: mtd, mtd with l = m, full_markov, theta_u, and an mtd at the
    edge of the row-sum tolerance."""
    ab = Alphabet(("a", "b"))
    docs = {}
    for kind, model in [
        ("mtd", random_mtd(2, 3, 1, seed=1, alphabet=ab)),
        ("full_markov", random_full_markov(2, 2, seed=1, alphabet=ab)),
        ("theta_u", to_theta_u(random_mtd(2, 3, 2, seed=2, alphabet=ab), 1)),
    ]:
        write_model(tmp_path / "base.json", model)
        docs[kind] = json.loads((tmp_path / "base.json").read_text())
    docs["mtd l = m"] = {**docs["full_markov"], "model_kind": "mtd", "l": 2,
                         "variant": "general", "phi": [1.0]}
    # phi and every row sum to 1 + 8e-13, inside read_model's 1e-12 tolerance, so the
    # dense rows sum to 1 + 1.6e-12, outside it
    edge = [0.5, 0.5 + 8e-13]
    docs["tolerance edge"] = {**docs["mtd"], "m": 2, "phi": edge,
                              "matrices": [[edge, edge[::-1]]] * 2}
    return docs


_DELETED = object()
# wrong types, signs and sizes; 10**30 once hung, 1e308 ran out of memory, 2.5 and true
# were truncated to an order
_MUTANTS = [10**30, 1e308, 2.5, True, False, None, -1, 0, 1, 2, 3, "a", "", [], [[]], {},
            [0.5, 0.5], [1 - 1e-13], ["a", "b", "c"], "theta_u", "full_markov", _DELETED]


_KINDS = ["mtd", "mtd l = m", "full_markov", "theta_u", "tolerance edge"]
# every key of a model file; a key the kind does not hold is added
_KEYS = ["format_version", "alphabet", "model_kind", "m", "l", "variant", "phi", "matrices",
         "u", "parametrization", "provenance"]


def _with_examples(test):
    for kind in _KINDS:
        for value in (10**30, 1e308, 2.5, True):
            test = example(kind=kind, key="m", value=value)(test)
    return test


@contextlib.contextmanager
def _wall_clock_guard(seconds):
    """Fail the test if the block runs past ``seconds``, rather than let a hang stall the suite.

    SIGALRM interrupts Python code (POSIX, main thread only; elsewhere the
    block runs unguarded).  A hang inside one native call never returns to
    the handler, so faulthandler then dumps the stacks and ends the process.
    """
    if not hasattr(signal, "setitimer") or threading.current_thread() is not threading.main_thread():
        yield
        return

    def hang(signum, frame):
        pytest.fail(f"ran past the {seconds} s wall-clock guard")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    faulthandler.dump_traceback_later(3 * seconds, exit=True)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_wall_clock_guard_fails_a_hang():
    start = time.monotonic()
    with pytest.raises(pytest.fail.Exception, match="wall-clock guard"):
        with _wall_clock_guard(0.05):
            time.sleep(5)
    assert time.monotonic() - start < 2


@settings(max_examples=120)
@given(kind=st.sampled_from(_KINDS), key=st.sampled_from(_KEYS), value=st.sampled_from(_MUTANTS))
@_with_examples
def test_mutated_model_file_works_or_fails_in_one_line(kind, key, value, tmp_path_factory):
    with _wall_clock_guard(10):
        tmp_path = tmp_path_factory.mktemp("fuzz")
        doc = _fuzz_documents(tmp_path)[kind]
        if value is not _DELETED:
            doc[key] = value
        elif key in doc:
            del doc[key]
        model_path, out_path, corpus = (str(tmp_path / f) for f in ("m.json", "out", "c.txt"))
        Path(model_path).write_text(json.dumps(doc))
        Path(corpus).write_text("abbabaabbbab" * 5 + "\n")
        for argv in (["eval", "--model", model_path, "--in", corpus],
                     ["sample", "--model", model_path, "--length", "30"],
                     ["convert", "--model", model_path, "--to", "theta_u", "--out", out_path],
                     ["expand", "--model", model_path, "--out", out_path]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            assert code in (0, 1), argv
            if code:
                assert (out.getvalue(), err.getvalue().count("\n")) == ("", 1), argv
                assert err.getvalue().startswith("mtdchain: error: "), argv


# bytes inserted into a valid sequence file; None cuts the file there instead
_SEQ_MUTATIONS = {
    "header": b">", "cr": b"\r", "nul": b"\x00", "invalid-utf8": b"\xff",
    "cut-utf8": "\u00e9".encode()[:1], "lone-surrogate": b"\xed\xa0\x80",
    "foreign": b"N", "foreign-wide": "\u00e9\U0001F642".encode(), "truncate": None,
}


def _sequence_file(fmt):
    """A valid acgt sequence file in ``fmt``: three lines, or three records of two lines."""
    lines = _corpus(n_lines=3, length=40).split()
    if fmt == "plain":
        return "".join(line + "\n" for line in lines).encode()
    return "".join(f">r{i} test\n{line[:20]}\n{line[20:]}\n" for i, line in enumerate(lines)).encode()


def _mutated(data, mutations):
    for kind, at in mutations:
        at %= len(data) + 1
        insert = _SEQ_MUTATIONS[kind]
        data = data[:at] if insert is None else data[:at] + insert + data[at:]
    return data


def _with_sequence_examples(test):
    for fmt in ("plain", "fasta"):
        for kind in _SEQ_MUTATIONS:
            test = example(fmt=fmt, mutations=[(kind, 47)])(test)
    return test


@settings(max_examples=120)
@given(
    fmt=st.sampled_from(["plain", "fasta"]),
    mutations=st.lists(
        st.tuples(st.sampled_from(list(_SEQ_MUTATIONS)), st.integers(0, 10**6)),
        min_size=1, max_size=3,
    ),
)
@_with_sequence_examples
def test_mutated_sequence_file_works_or_fails_in_one_line(fmt, mutations, tmp_path_factory):
    with _wall_clock_guard(10):
        tmp_path = tmp_path_factory.mktemp("seqfuzz")
        corpus, model_path, out_path = (str(tmp_path / f) for f in ("c.txt", "m.json", "out"))
        Path(corpus).write_bytes(_mutated(_sequence_file(fmt), mutations))
        write_model(model_path, random_mtd(4, 2, 1, seed=1, alphabet=Alphabet(tuple("acgt"))))
        read = ["--in", corpus, "--format", fmt]
        for argv in (["count", "--alphabet", "acgt", "--order", "2", *read],
                     ["fit", "--alphabet", "acgt", "--order", "2", "--restarts", "2", *read,
                      "--out", out_path],
                     ["eval", "--model", model_path, *read],
                     ["bic-compare", "--alphabet", "acgt", "--orders", "1,2", "--restarts", "2",
                      *read]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            assert code in (0, 1, 2), argv
            if code:
                assert (out.getvalue(), err.getvalue().count("\n")) == ("", 1), argv
                assert err.getvalue().startswith("mtdchain: error: "), argv
            else:
                assert err.getvalue() == "", argv


@st.composite
def _fit_flags(draw):
    """In-range values for the flags of a fit, at orders small enough for a 300-letter corpus."""
    order = draw(st.integers(1, 4))
    variant = draw(st.sampled_from(["general", "single_matrix"]))
    lag_order = 1 if variant == "single_matrix" else draw(st.integers(1, order))
    values = {
        "--order": order, "--lag-order": lag_order, "--variant": variant,
        "--epsilon": draw(st.floats(1e-10, 10.0)), "--restarts": draw(st.integers(1, 4)),
        "--max-iters": draw(st.integers(1, 60)), "--seed": draw(st.integers(0, 2**32)),
        "--algorithm": draw(st.sampled_from(["em", "berchtold"])),
    }
    flags = draw(st.sets(st.sampled_from(sorted(values))))
    return [arg for flag in sorted(flags | {"--order"}) for arg in (flag, str(values[flag]))]


@settings(max_examples=60)
@given(flags=_fit_flags())
def test_fit_flags_work_or_fail_in_one_line(flags, tmp_path_factory):
    with _wall_clock_guard(10):
        tmp_path = tmp_path_factory.mktemp("fitfuzz")
        corpus, model_path, trace_path = (str(tmp_path / f) for f in ("c.txt", "m.json", "t.tsv"))
        Path(corpus).write_text(_corpus(n_lines=1, length=300))
        argv = ["fit", "--alphabet", "acgt", "--in", corpus, "--out", model_path,
                "--trace-out", trace_path, *flags]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code in (0, 1), err.getvalue()
        if code:
            assert (out.getvalue(), err.getvalue().count("\n")) == ("", 1)
            assert err.getvalue().startswith("mtdchain: error: ")
            return
        trace = np.loadtxt(trace_path, skiprows=1, usecols=1, ndmin=1)
        assert np.diff(trace).min(initial=0.0) >= 0.0
        assert trace[-1] == float(out.getvalue().splitlines()[1].split("\t")[0])


_FUZZ_ORDER = 3


@functools.cache
def _fitted_models():
    """Model files of small order-3 fits to one corpus line: MTD fits with l = 1 and 2, the
    theta_u tables of the second, and the dense table of the first."""
    seq = Sequence(DNA, DNA.decode(_corpus(n_lines=1, length=600).strip()))
    counts = count_ngrams([seq], _FUZZ_ORDER)
    fit = {l: fit_with_restarts(counts, EmConfig(n_restarts=1, max_iters=20, lag_order=l)).model
           for l in (1, 2)}
    return {"mtd": fit[1], "mtd l = 2": fit[2], "theta_u": to_theta_u(fit[2], 1),
            "full_markov": full_transition_matrix(fit[1])}


@st.composite
def _model_argv(draw, command):
    """``(argv, corpus text)``: ``command`` on a fitted model, with drawn flags; the corpus
    has lines shorter than the model's order, foreign letters and FASTA headers."""
    kind = draw(st.sampled_from(sorted(_fitted_models())))
    prefix = draw(st.text("acgt", min_size=_FUZZ_ORDER - 1, max_size=_FUZZ_ORDER + 1)
                  | st.text("acgtnx", min_size=_FUZZ_ORDER - 1, max_size=_FUZZ_ORDER + 1))
    choices = {
        "eval": {"--dim-convention": st.sampled_from(["theta_u", "raw"]),
                 "--bic-n": st.sampled_from(["terms", "length"]),
                 "--format": st.sampled_from(["plain", "fasta"])},
        "sample": {"--prefix": st.just(prefix), "--seed": st.integers(0, 2**32)},
        "convert": {"--ref-letter": st.sampled_from(["a", "g", "T", "x"]),
                    "--seed": st.integers(0, 2**32)},
        "expand": {"--seed": st.integers(0, 2**32)},
    }[command]
    flags = [flag for flag in sorted(choices) if draw(st.booleans())]
    length, target = draw(st.integers(1, 300)), draw(st.sampled_from(["theta_u", "full_markov"]))
    argv = [command, "--model", kind, *{
        "eval": ["--in", "corpus"], "sample": ["--length", str(length)],
        "convert": ["--to", target, "--out", "out"], "expand": ["--out", "out"]}[command]]
    argv += [arg for flag in flags for arg in (flag, str(draw(choices[flag])))]
    letters = st.sampled_from("aaaccggtttn>")  # now and then a foreign letter or a header
    lines = draw(st.lists(st.text(letters, max_size=4 * _FUZZ_ORDER), min_size=1, max_size=4))
    return argv, "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("command", ["eval", "sample", "convert", "expand"])
@settings(max_examples=30)
@given(data=st.data())
def test_model_commands_work_or_fail_in_one_line(command, data, tmp_path_factory):
    argv, text = data.draw(_model_argv(command), label="case")
    _run_model_command(argv, text, tmp_path_factory)


def test_eval_of_lines_shorter_than_the_order_fails_in_one_line(tmp_path_factory):
    argv = ["eval", "--model", "mtd", "--in", "corpus", "--bic-n", "length"]
    assert _run_model_command(argv, "acg\nta\n", tmp_path_factory) == 1


def _run_model_command(argv, text, tmp_path_factory) -> int:
    """The exit code of ``argv`` on the fitted model it names and a corpus of ``text``,
    once its output is checked: one error line, or the letters, model or scored words asked."""
    directory = tmp_path_factory.mktemp("argvfuzz")
    write_model(directory / argv[2], _fitted_models()[argv[2]])
    code, out = _run_fuzzed(argv, {"corpus": text}, directory)
    if code:
        return code
    if argv[0] == "sample":
        assert len(out) == int(argv[argv.index("--length") + 1]) + 1
    elif argv[0] == "eval":
        row = dict(zip(*(line.split("\t") for line in out.splitlines())))
        # every probability of a fitted model is below 1, so a scored word lowers the loglik
        assert int(row["n_terms"]) >= 1 and float(row["loglik"]) < 0.0
    else:
        read_model(directory / "out")
    return code


def _run_fuzzed(argv, files, directory) -> tuple[int, str]:
    """``(exit code, output)`` of ``argv`` run in ``directory``, which gets ``files`` (name to
    text), once a failure is checked to be one error line; the output is the ``--out`` file's,
    if one was named, else stdout's."""
    with _wall_clock_guard(10), pytest.MonkeyPatch.context() as patch:
        patch.chdir(directory)
        for name, text in files.items():
            Path(name).write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code in (0, 1, 2), err.getvalue()
        if code:
            assert (out.getvalue(), err.getvalue().count("\n")) == ("", 1)
            assert err.getvalue().startswith("mtdchain: error: ")
            return code, ""
        assert err.getvalue() == ""
        return code, Path("out").read_text() if "--out" in argv else out.getvalue()


@st.composite
def _count_argv(draw):
    """``(argv, corpus text)``: ``count`` with a drawn alphabet (some invalid), order (1-4)
    and flags, on a corpus with short and blank lines, foreign letters and FASTA headers."""
    alphabet = draw(st.sampled_from(["acgt", "ACGT", "ga", "a,c,g,t", "a,cg,t", "aa", "a", "a,,c"]))
    argv = ["count", "--alphabet", alphabet, "--order", str(draw(st.integers(1, 4))),
            "--in", "corpus"]
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["plain", "fasta"]))]
    if draw(st.booleans()):
        argv += ["--out", "out"]
    letters = st.sampled_from("aaaccggtttn>,C")  # now and then a foreign letter or a header
    lines = draw(st.lists(st.text(letters, max_size=16), min_size=1, max_size=5))
    return argv, "".join(line + "\n" for line in lines)


@settings(max_examples=60)
@given(case=_count_argv())
def test_count_flags_work_or_fail_in_one_line(case, tmp_path_factory):
    argv, text = case
    tmp_path = tmp_path_factory.mktemp("countfuzz")
    code, table = _run_fuzzed(argv, {"corpus": text}, tmp_path)
    if code:
        return
    alphabet = Alphabet(tuple(cli._tokens(argv[2])))
    order = int(argv[4])
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "plain"
    rows = [line.split("\t") for line in table.splitlines()]
    # every word spells order + 1 letters of the alphabet, in ascending order, and the
    # counts add up to the windows of the lines that are read
    words = [word_to_index(alphabet.decode(word), alphabet.size) for word, _ in rows]
    assert all(len(alphabet.decode(word)) == order + 1 for word, _ in rows)
    assert words == sorted(set(words))
    sequences = read_sequences(tmp_path / "corpus", fmt=fmt, alphabet=alphabet)
    assert sum(int(n) for _, n in rows) == sum(max(len(seq) - order, 0) for seq in sequences)


@st.composite
def _tv_argv(draw):
    """``tv-experiment`` with drawn flags, capped so no run is large: orders and word lengths
    1-4, up to 4 symbols, 3 replicates and 300 letters."""
    values = {
        "--gen-order": st.integers(1, 4), "--alphabet-size": st.integers(2, 4),
        "--length": st.integers(1, 300),
        "--fit-orders": st.lists(st.integers(1, 4), min_size=1, max_size=3).map(
            lambda orders: ",".join(map(str, orders))),
        "--replicates": st.integers(1, 3), "--word-len": st.integers(1, 4),
        "--seed": st.integers(0, 2**32), "--out": st.just("out"),
    }
    # the defaults of the others are a large run, so these four are always given
    flags = {"--gen-order", "--length", "--fit-orders", "--replicates"}
    flags |= draw(st.sets(st.sampled_from(sorted(values))))
    return ["tv-experiment",
            *(arg for flag in sorted(flags) for arg in (flag, str(draw(values[flag]))))]


@settings(max_examples=40)
@given(argv=_tv_argv())
def test_tv_experiment_flags_work_or_fail_in_one_line(argv, tmp_path_factory):
    code, table = _run_fuzzed(argv, {}, tmp_path_factory.mktemp("tvfuzz"))
    if code:
        return
    flag = dict(zip(argv[1::2], argv[2::2]))
    orders = list(map(int, flag["--fit-orders"].split(",")))
    rows = [line.split("\t") for line in table.splitlines()]
    assert rows[0] == ["replicate", "fit_order", "tv"]
    # one row per replicate and fitted order, then each distinct order's mean
    want = [(str(r), m) for r in range(int(flag["--replicates"])) for m in orders]
    want += [("mean", m) for m in sorted(set(orders))]
    assert [(r, int(m)) for r, m, _ in rows[1:]] == want
    assert all(0.0 <= float(tv) <= 2.0 for _, _, tv in rows[1:])


def test_model_at_the_tolerance_edge_samples_and_converts(tmp_path, capsys):
    model_path, out = str(tmp_path / "m.json"), str(tmp_path / "out.json")
    Path(model_path).write_text(json.dumps(_fuzz_documents(tmp_path)["tolerance edge"]))
    corpus = tmp_path / "ab.txt"
    corpus.write_text("abbabaabbbaababb\n")
    assert cli.main(["sample", "--model", model_path, "--length", "30"]) == 0
    assert len(capsys.readouterr().out) == 31
    # the written rows would sum to 1 + 1.6e-12; the writer renormalizes them, so the
    # output reads back and scores like the model it came from
    assert cli.main(["eval", "--model", model_path, "--in", str(corpus)]) == 0
    want = capsys.readouterr().out.split("\n")[1].split("\t")[0]
    for argv in (["convert", "--model", model_path, "--to", "theta_u", "--out", out],
                 ["expand", "--model", model_path, "--out", out]):
        assert cli.main(argv) == 0
        assert cli.main(["eval", "--model", out, "--in", str(corpus)]) == 0, capsys.readouterr()
        loglik = capsys.readouterr().out.split("\n")[1].split("\t")[0]
        assert float(loglik) == pytest.approx(float(want), abs=1e-9)


# every command's flags that _FLAGS gives a least value, with each kind of value their type rejects
RANGE_CASES = [
    (command, flag, kind)
    for command, (_, flags) in cli._SUBCOMMANDS.items()
    for flag in flags.replace("*", "").split() if "low" in cli._FLAGS[flag]
    for kind in ("below", "not-int", "zero-entry")
    if kind != "zero-entry" or cli._FLAGS[flag]["type"] is cli._int_list
]


def _rejected_values(flag, kind):
    low = cli._FLAGS[flag]["low"]
    if kind == "below":
        return st.integers(low - 10**6, low - 1).map(str)
    if kind == "not-int":
        return st.sampled_from(["1.5", "x", "1e3"])
    entries = st.lists(st.integers(1, 9), max_size=3).flatmap(lambda xs: st.permutations(xs + [0]))
    return entries.map(lambda xs: ",".join(map(str, xs)))


@pytest.mark.parametrize("command, flag, kind", RANGE_CASES,
                         ids=[f"{c}{f[1:]}-{k}" for c, f, k in RANGE_CASES])
@settings(max_examples=5)
@given(data=st.data())
def test_flag_out_of_its_range_is_usage_error(command, flag, kind, data, tmp_path_factory):
    value = data.draw(_rejected_values(flag, kind), label="value")
    with _wall_clock_guard(10), pytest.MonkeyPatch.context() as patch:
        _forbid_work(patch)
        tmp_path = tmp_path_factory.mktemp("range")
        argv = _required_argv(command, str(tmp_path / "corpus.txt"), tmp_path)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv + [f"{flag}={value}"])
        assert (code, out.getvalue(), err.getvalue().count("\n")) == (2, "", 1)
        assert err.getvalue().startswith("mtdchain: error: ")
        assert not any(tmp_path.iterdir())  # a usage error claims no output
