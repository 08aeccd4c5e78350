import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mtdchain import (
    Alphabet,
    AlphabetMismatch,
    IoError,
    Sequence,
    count_ngrams,
    default_alphabet,
    read_sequences,
    seqio,
    word_to_index,
    write_sequences,
)


class TestPlain:
    def test_single_line(self, dna, tmp_path):
        path = tmp_path / "seqs.txt"
        path.write_text("acgt\n")
        seqs = read_sequences(path, alphabet=dna)
        assert len(seqs) == 1
        assert list(seqs[0].data) == [0, 1, 2, 3]

    def test_multiple_lines_skip_blank(self, dna, tmp_path):
        path = tmp_path / "seqs.txt"
        path.write_text("ac\n\ngt\n")
        seqs = read_sequences(path, alphabet=dna)
        assert [s.labels() for s in seqs] == ["ac", "gt"]

    def test_foreign_symbol_breaks_windows(self, dna, tmp_path):
        path = tmp_path / "seqs.txt"
        path.write_text("acgNt\n")
        seqs = read_sequences(path, alphabet=dna)
        assert [s.labels() for s in seqs] == ["acg", "t"]
        counts = count_ngrams(seqs, 1)
        assert counts.total == 2
        assert counts[word_to_index([0, 1], 4)] == 1  # ac
        assert counts[word_to_index([1, 2], 4)] == 1  # cg
        # no gN / Nt bigrams
        assert counts[word_to_index([2, 3], 4)] == 0

    def test_case_insensitive(self, dna, tmp_path):
        path = tmp_path / "seqs.txt"
        path.write_text("AcGt\n")
        seqs = read_sequences(path, alphabet=dna)
        assert seqs[0].labels() == "acgt"

    def test_alphabet_mismatch(self, dna, tmp_path):
        path = tmp_path / "seqs.txt"
        path.write_text("xyz\n")
        with pytest.raises(AlphabetMismatch):
            read_sequences(path, alphabet=dna)

    def test_missing_file(self, dna, tmp_path):
        with pytest.raises(IoError):
            read_sequences(tmp_path / "absent.txt", alphabet=dna)


class TestFasta:
    def test_two_records(self, dna, tmp_path):
        path = tmp_path / "seqs.fa"
        path.write_text(">first record\nacgt\nacg\n>second\nttt\n")
        seqs = read_sequences(path, fmt="fasta", alphabet=dna)
        assert [s.name for s in seqs] == ["first record", "second"]
        assert [s.labels() for s in seqs] == ["acgtacg", "ttt"]

    def test_record_split_on_foreign(self, dna, tmp_path):
        path = tmp_path / "seqs.fa"
        path.write_text(">r\naaNgg\n")
        seqs = read_sequences(path, fmt="fasta", alphabet=dna)
        assert [s.name for s in seqs] == ["r:0", "r:1"]
        assert [s.labels() for s in seqs] == ["aa", "gg"]

    def test_uppercase_letters(self, dna, tmp_path):
        path = tmp_path / "seqs.fa"
        path.write_text(">r\nACGT\n")
        seqs = read_sequences(path, fmt="fasta", alphabet=dna)
        assert seqs[0].labels() == "acgt"


class TestTokens:
    def test_comma_free_digit_alphabet(self, tmp_path):
        song = Alphabet(("1", "2", "3"))
        path = tmp_path / "songs.txt"
        path.write_text("12321\n")
        seqs = read_sequences(path, alphabet=song)
        assert list(seqs[0].data) == [0, 1, 2, 1, 0]


def test_write_then_read(dna, tmp_path):
    path = tmp_path / "out.txt"
    seqs_in = read_sequences_roundtrip_helper(dna, tmp_path)
    write_sequences(seqs_in, path)
    seqs_out = read_sequences(path, alphabet=dna)
    assert [s.labels() for s in seqs_out] == [s.labels() for s in seqs_in]


def test_multi_character_symbols_round_trip(tmp_path):
    ab = default_alphabet(12)
    seqs_in = [Sequence(ab, [0, 11, 3, 10, 1]), Sequence(ab, [2, 2, 1])]
    assert seqs_in[0].labels() == "s0,s11,s3,s10,s1"
    path = tmp_path / "out.txt"
    write_sequences(seqs_in, path)
    seqs_out = read_sequences(path, alphabet=ab)
    assert [list(s.data) for s in seqs_out] == [list(s.data) for s in seqs_in]
    fasta = tmp_path / "out.fa"
    fasta.write_text(">x\ns0,s11,s3\ns10,s1\n")
    seqs = read_sequences(fasta, fmt="fasta", alphabet=ab)
    assert [list(s.data) for s in seqs] == [[0, 11, 3, 10, 1]]


def test_case_distinct_symbols_round_trip(tmp_path):
    # a symbol's case variant reads as that symbol, never as the symbol it varies
    alphabet = Alphabet(tuple("acgtACGT"))
    path = tmp_path / "out.txt"
    write_sequences([Sequence(alphabet, [0, 4, 1, 5, 2, 6, 3, 7])], path)
    assert path.read_text() == "aAcCgGtT\n"
    assert read_sequences(path, alphabet=alphabet)[0].data.tolist() == [0, 4, 1, 5, 2, 6, 3, 7]


def read_sequences_roundtrip_helper(dna, tmp_path):
    src = tmp_path / "src.txt"
    src.write_text("acgt\nggcc\n")
    return read_sequences(src, alphabet=dna)


def test_unknown_format(dna, tmp_path):
    path = tmp_path / "x.txt"
    path.write_text("acgt\n")
    with pytest.raises(ValueError):
        read_sequences(path, fmt="genbank", alphabet=dna)


def reference_split_record(letters, lookup, alphabet, name):
    """The per-letter decoder read_sequences had before its array rewrite."""
    runs, run = [], []
    for symbol in letters:
        idx = lookup.get(symbol)
        if idx is None:
            if run:
                runs.append(run)
            run = []
        else:
            run.append(idx)
    if run:
        runs.append(run)
    if len(runs) <= 1:
        return [Sequence(alphabet, runs[0], name=name)] if runs else []
    return [Sequence(alphabet, r, name=f"{name}:{i}") for i, r in enumerate(runs)]


def array_split_record(indices, alphabet, name):
    """One record's runs as read_sequences cut them before it decoded a whole file at once."""
    cuts = [-1, *(indices < 0).nonzero()[0].tolist(), indices.size]
    runs = [indices[a + 1 : b] for a, b in zip(cuts, cuts[1:]) if b > a + 1]
    names = [name] if len(runs) == 1 else [f"{name}:{i}" for i in range(len(runs))]
    return [Sequence(alphabet, r, name=n) for r, n in zip(runs, names)]


def oracle_read(path, fmt, alphabet, split_record):
    """read_sequences as it was before it decoded a whole file at once.

    Every record is assembled as then and passed on its own to
    ``split_record(text, name)``.
    """
    sep = alphabet.separator
    lines = path.read_text(encoding="utf-8").splitlines()
    records = []
    if fmt == "plain":
        records = [(f"line{i}", line.strip()) for i, line in enumerate(lines, 1) if line.strip()]
    else:
        name, chunks = None, []
        for line in lines:
            line = line.strip()
            if line.startswith(">"):
                if name is not None:
                    records.append((name, sep.join(chunks)))
                name, chunks = line[1:].strip(), []
            elif line:
                if name is None:
                    name = ""
                chunks.append(line)
        if name is not None:
            records.append((name, sep.join(chunks)))
    sequences = [s for name, text in records for s in split_record(text, name)]
    if any(text for _, text in records) and not sequences:
        raise AlphabetMismatch("no symbols of the alphabet")
    return sequences


def oracle_lookup(alphabet):
    """Letter -> index: a symbol is its own; a case variant that is no symbol is its first source's."""
    lookup = {}
    for i, s in reversed(list(enumerate(alphabet.symbols))):
        lookup.update({s.lower(): i, s.upper(): i})
    lookup.update({s: i for i, s in enumerate(alphabet.symbols)})
    return lookup


def per_letter_read(path, fmt, alphabet):
    """The oracle with the per-letter decoder above."""
    lookup, sep = oracle_lookup(alphabet), alphabet.separator
    return oracle_read(
        path, fmt, alphabet,
        lambda text, name: reference_split_record(
            text.split(sep) if sep else text, lookup, alphabet, name
        ),
    )


def per_record_read(path, fmt, alphabet):
    """The oracle with the alphabet's array decoder called once per record."""
    return oracle_read(
        path, fmt, alphabet,
        lambda text, name: array_split_record(alphabet.decode(text), alphabet, name),
    )


ORACLE_ALPHABETS = {
    "dna": Alphabet(tuple("acgt")),
    "case-pair": Alphabet(("a", "A", "b")),
    "sharp-s": Alphabet(("ß", "a", "b")),  # "ß".upper() is "SS", two characters
    "astral": Alphabet(("\U0001F642", "x")),
    "q12": default_alphabet(12),  # multi-character symbols, ','-separated
}
FOREIGN = ["N", "é", "SS", "\u1e9e", " ", ",", "s", "s99", "\U0001F600", "\x00"]


@st.composite
def corpus_files(draw):
    alphabet = ORACLE_ALPHABETS[draw(st.sampled_from(sorted(ORACLE_ALPHABETS)))]
    variants = [v for s in alphabet.symbols for v in (s, s.lower(), s.upper())]
    letters = st.lists(st.sampled_from(variants + FOREIGN), max_size=10)
    line = letters.map(alphabet.separator.join)
    other = st.sampled_from(["", "  ", ">r", "> two words ", ">"])
    lines = draw(st.lists(st.one_of(line, other), max_size=8))
    return alphabet, draw(st.sampled_from(["plain", "fasta"])), "\n".join(lines) + "\n"


def _outcome(read, path, fmt, alphabet):
    try:
        return [(s.name, s.data.tolist()) for s in read(path, fmt, alphabet)]
    except AlphabetMismatch:
        return "AlphabetMismatch"


@settings(max_examples=300)
@given(corpus=corpus_files())
@example(corpus=(ORACLE_ALPHABETS["dna"], "plain", "NacgNNtN\n\n  AcGt\nN\n"))
@example(corpus=(ORACLE_ALPHABETS["dna"], "fasta", "acN\n>r1\nNac\ngtN\n\n>r2\n>r3\nAC\n"))
@example(corpus=(ORACLE_ALPHABETS["sharp-s"], "plain", "ßaSSbß\n\u1e9eAB\nss\n"))
@example(corpus=(ORACLE_ALPHABETS["case-pair"], "plain", "aAbB\n"))
@example(corpus=(ORACLE_ALPHABETS["q12"], "plain", "s0,S11,x,s3,,s10\ns1\n,s2,\n"))
@example(corpus=(ORACLE_ALPHABETS["q12"], "fasta", ">a\ns0,s1\ns99,s2\n>b\nS4\n"))
def test_decoder_matches_per_letter_oracle(tmp_path_factory, corpus):
    alphabet, fmt, text = corpus
    path = tmp_path_factory.mktemp("oracle") / "corpus.txt"
    path.write_text(text, encoding="utf-8")
    expected = _outcome(per_letter_read, path, fmt, alphabet)
    assert _outcome(read_sequences, path, fmt, alphabet) == expected


def test_oracle_reads_each_case_pair_symbol_as_itself():
    assert oracle_lookup(ORACLE_ALPHABETS["case-pair"]) == {"a": 0, "A": 1, "b": 2, "B": 2}


@pytest.mark.parametrize(
    "name,fmt,text",
    [
        ("dna", "plain", "acgt\nNacgNNtN\n\n  AcGt\nN\nt\n"),
        ("dna", "fasta", "acN\n>r1\nNac\ngtN\n\n>r2\n>r3\nAC\n>r4\nN\n"),
        ("q12", "plain", "s0,S11,x,s3,,s10\ns1\n,s2,\ns4,s5\n"),
        ("q12", "fasta", ">a\ns0,s1\ns99,s2\n>b\nS4\n>c\n>d\nx\n"),
        ("astral", "plain", "\U0001F642x\U0001F600x\n\U0001F642\n"),
    ],
    ids=["plain-foreign", "fasta-foreign", "multi-character", "multi-character-fasta", "astral"],
)
def test_batched_decode_matches_one_record_at_a_time_examples(name, fmt, text, tmp_path):
    alphabet = ORACLE_ALPHABETS[name]
    path = tmp_path / "corpus.txt"
    path.write_text(text, encoding="utf-8")
    expected = _outcome(per_record_read, path, fmt, alphabet)
    assert _outcome(read_sequences, path, fmt, alphabet) == expected
    assert len(expected) > 1


@settings(max_examples=100)
@given(corpus=corpus_files(), batch=st.sampled_from([1, 4, seqio._DECODE_BATCH]))
def test_batched_decode_matches_one_record_at_a_time(tmp_path_factory, corpus, batch):
    alphabet, fmt, text = corpus
    path = tmp_path_factory.mktemp("records") / "corpus.txt"
    path.write_text(text, encoding="utf-8")
    expected = _outcome(per_record_read, path, fmt, alphabet)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(seqio, "_DECODE_BATCH", batch)  # 1: every record decoded on its own
        assert _outcome(read_sequences, path, fmt, alphabet) == expected


# ASCII text is decoded byte to byte and other text as UTF-32; with one record
# per decode call, a file's lines take both paths
MIXED_TEXT = "abgABG\nαβγ\nαaβbγg\nΑΒΓ\nNαN\nßSSßss\nacgt\nACGT\n\U0001F642ax\n>r\nαβ\nab\n"


@pytest.mark.parametrize(
    "symbols",
    [("α", "β", "γ"), ("ß", "a", "b"), ("\U0001F642", "x"), tuple("acgt"), ("a", "A", "b")],
    ids=["greek", "sharp-s", "astral", "dna", "case-pair"],
)
@pytest.mark.parametrize("fmt", ["plain", "fasta"])
@pytest.mark.parametrize("batch", [1, seqio._DECODE_BATCH])
def test_ascii_and_other_lines_match_per_letter_oracle(symbols, fmt, batch, tmp_path):
    alphabet = Alphabet(symbols)
    path = tmp_path / "corpus.txt"
    path.write_text(MIXED_TEXT, encoding="utf-8")
    expected = _outcome(per_letter_read, path, fmt, alphabet)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(seqio, "_DECODE_BATCH", batch)
        assert _outcome(read_sequences, path, fmt, alphabet) == expected


@settings(max_examples=100)
@given(corpus=corpus_files())
def test_one_record_per_decode_matches_per_letter_oracle(tmp_path_factory, corpus):
    alphabet, fmt, text = corpus
    path = tmp_path_factory.mktemp("mixed") / "corpus.txt"
    path.write_text(text, encoding="utf-8")
    expected = _outcome(per_letter_read, path, fmt, alphabet)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(seqio, "_DECODE_BATCH", 1)
        assert _outcome(read_sequences, path, fmt, alphabet) == expected
