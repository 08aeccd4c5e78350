import io

import numpy as np
import pytest

from mtdchain import (
    DNA,
    FullMarkovModel,
    MtdModel,
    count_ngrams,
    random_mtd,
    read_model,
    sample_sequence,
    to_theta_u,
    write_counts,
    write_model,
)
from mtdchain import cli

# Outputs of these exact commands, recorded before the EM kernel rewrite
# (the count table before the array-backed counts, the fit summary once EM
# ran in SQUAREM cycles); scripts parse them, so they must stay
# byte-identical.
FIT_GOLDEN = (
    "final_loglik\titerations\tconverged\tbic\n"
    "-5130.630734360894\t18\tTrue\t10522.186851087974\n"
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


def test_fit_without_out_fails_before_work(corpus, monkeypatch, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    monkeypatch.setattr(cli, "_load_corpus", forbidden)
    monkeypatch.setattr(cli, "fit_with_restarts", forbidden)
    rc = cli.main(["fit", "--in", corpus, "--alphabet", "acgt", "--order", "3"])
    captured = capsys.readouterr()
    assert rc == 1
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
    assert isinstance(dense, FullMarkovModel)
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


@pytest.mark.parametrize(
    "flags",
    [
        ["--alphabet", "aa"],
        ["--alphabet", "acgt", "--epsilon", "0"],
        ["--alphabet", "acgt", "--epsilon", "0", "--algorithm", "berchtold"],
        ["--alphabet", "acgt", "--restarts", "0"],
        ["--alphabet", "acgt", "--max-iters", "0", "--algorithm", "berchtold"],
    ],
    ids=["alphabet", "epsilon", "epsilon-berchtold", "restarts", "max-iters-berchtold"],
)
def test_rejected_flag_value_is_usage_error(flags, corpus, tmp_path, monkeypatch, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("work started before the flags were checked")

    monkeypatch.setattr(cli, "read_sequences", forbidden)
    argv = ["fit", "--in", corpus, "--order", "3", "--out", str(tmp_path / "m.json"), *flags]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("mtdchain: error: invalid flag value: ")


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
