import pytest

from mtdchain import (
    Alphabet,
    AlphabetMismatch,
    IoError,
    Sequence,
    count_ngrams,
    default_alphabet,
    read_sequences,
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


def read_sequences_roundtrip_helper(dna, tmp_path):
    src = tmp_path / "src.txt"
    src.write_text("acgt\nggcc\n")
    return read_sequences(src, alphabet=dna)


def test_unknown_format(dna, tmp_path):
    path = tmp_path / "x.txt"
    path.write_text("acgt\n")
    with pytest.raises(ValueError):
        read_sequences(path, fmt="genbank", alphabet=dna)
