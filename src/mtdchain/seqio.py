"""Sequence file readers: plain text (one sequence per line) and FASTA.

:class:`Alphabet`, the single owner of the letter format, decodes and spells every line.
Symbols not in the declared alphabet break the current counting window:
the raw record is split at foreign symbols and each run becomes its own
sequence, so downstream windows never span a foreign symbol.  Records are
decoded in batches of about ``_DECODE_BATCH`` characters (ASCII text byte
to byte), and every run is a view of its batch's letters.
"""

from __future__ import annotations

from bisect import bisect_left

from .errors import AlphabetMismatch, IoError
from .model import Alphabet, Sequence

# one decode call takes consecutive records up to about this many characters:
# short records share a call, and the decoder's buffers stay near the size of
# one long record
_DECODE_BATCH = 1 << 16


def _decode_records(records, alphabet: Alphabet) -> list[Sequence]:
    """Decode ``records``, ``(name, text)`` pairs, in one call and cut the result into runs.

    A run is a maximal stretch of alphabet letters inside one record, and
    each becomes one Sequence, named after its record (with ``:i`` when the
    record has several runs).
    """
    # the separator between records keeps their tokens apart
    sep = alphabet.separator
    indices = alphabet.decode(sep.join(text for _, text in records))
    foreign = (indices < 0).nonzero()[0].tolist()
    # one cast for the batch, so every run is a view of the sequences' dtype; the
    # decoded letters are in the alphabet, so each run is adopted as a Sequence
    indices = indices.astype(alphabet.letter_dtype)
    sequences: list[Sequence] = []
    start = 0
    for name, text in records:
        end = start + (text.count(sep) + 1 if sep else len(text))
        cuts = [start - 1, *foreign[bisect_left(foreign, start) : bisect_left(foreign, end)], end]
        runs = [(a + 1, b) for a, b in zip(cuts, cuts[1:]) if b > a + 1]
        names = [name] if len(runs) == 1 else [f"{name}:{i}" for i in range(len(runs))]
        sequences.extend(
            Sequence.__new__(Sequence)._adopt(alphabet, indices[a:b], n)
            for (a, b), n in zip(runs, names)
        )
        start = end
    return sequences


def read_sequences(path, fmt: str = "plain", alphabet: Alphabet | None = None) -> list[Sequence]:
    """Read sequences from ``path``.

    ``fmt="plain"`` treats every nonblank line as one sequence;
    ``fmt="fasta"`` concatenates the lines of each '>' record and keeps
    the header as the sequence name.  Letters are read by
    :meth:`Alphabet.decode`, as :func:`write_sequences` spells them.
    Raises :class:`AlphabetMismatch` when the file contains letters but
    none belong to the alphabet.
    """
    if alphabet is None:
        raise ValueError("an alphabet is required to decode sequences")
    if fmt not in ("plain", "fasta"):
        raise ValueError(f"unknown format {fmt!r}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as err:
        raise IoError(f"cannot read sequence file {path}: {err}") from err
    sep = alphabet.separator
    if fmt == "plain":
        records = [(f"line{i}", line) for i, line in enumerate(map(str.strip, lines), 1) if line]
    else:
        records = []
        name, chunks = None, []
        for line in lines:
            line = line.strip()
            if line.startswith(">"):
                if name is not None:
                    records.append((name, sep.join(chunks)))
                name, chunks = line[1:].strip(), []
            elif line:
                if name is None:
                    name = ""  # headerless leading data
                chunks.append(line)
        if name is not None:
            records.append((name, sep.join(chunks)))
    sequences: list[Sequence] = []
    first = size = 0
    for i, (_, text) in enumerate(records, start=1):
        size += len(text)
        if size >= _DECODE_BATCH or i == len(records):
            sequences += _decode_records(records[first:i], alphabet)
            first, size = i, 0
    if any(text for _, text in records) and not sequences:
        raise AlphabetMismatch(
            f"{path} contains no symbols of the alphabet {alphabet.symbols}"
        )
    return sequences


def write_sequences(sequences, path) -> None:
    """Write sequences as plain text, one per line, spelled by :meth:`Sequence.labels`."""
    with open(path, "w", encoding="utf-8") as fh:
        for seq in sequences:
            fh.write(seq.labels() + "\n")
