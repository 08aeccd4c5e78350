"""Sequence file readers: plain text (one sequence per line) and FASTA.

Symbols not in the declared alphabet break the current counting window:
the raw record is split at foreign symbols and each run becomes its own
sequence, so downstream windows never span a foreign symbol.
"""

from __future__ import annotations

import numpy as np

from .errors import AlphabetMismatch, IoError
from .model import Alphabet, Sequence, _separator

# one decode call takes consecutive records up to about this many characters:
# short records share a call, and the decoder's buffers stay near the size of
# one long record
_DECODE_BATCH = 1 << 16


def _letter_lookup(alphabet: Alphabet) -> dict[str, int]:
    lookup = {}
    for i, sym in enumerate(alphabet.symbols):
        for variant in {sym, sym.lower(), sym.upper()}:
            lookup.setdefault(variant, i)
    return lookup


def _decoder(alphabet: Alphabet):
    """Record text -> symbol indices, -1 at a foreign symbol (high code points clip to -1)."""
    lookup, sep = _letter_lookup(alphabet), _separator(alphabet)
    if sep:
        def decode(record):
            tokens = record.split(sep)
            index = {t: lookup.get(t, -1) for t in dict.fromkeys(tokens)}
            return np.fromiter(map(index.__getitem__, tokens), np.int64, len(tokens))
        return decode
    table = {ord(k): i for k, i in lookup.items() if len(k) == 1}
    codes = np.array([table.get(c, -1) for c in range(max(table) + 2)], np.int64)
    return lambda text: codes.take(np.frombuffer(text.encode("utf-32-le"), np.uint32), mode="clip")


def _decode_records(decode, records, sep: str, alphabet) -> list[Sequence]:
    """Decode ``records``, ``(name, text)`` pairs, in one call and cut the result into runs.

    A run is a maximal stretch of alphabet letters inside one record, and
    each becomes one Sequence, named after its record (with ``:i`` when the
    record has several runs).
    """
    # the separator between records keeps their tokens apart
    indices = decode(sep.join(text for _, text in records))
    foreign = (indices < 0).nonzero()[0].tolist()
    sequences: list[Sequence] = []
    k, start = 0, 0
    for name, text in records:
        end = start + (text.count(sep) + 1 if sep else len(text))
        cuts = [start - 1]
        while k < len(foreign) and foreign[k] < end:
            cuts.append(foreign[k])
            k += 1
        cuts.append(end)
        runs = [(a + 1, b) for a, b in zip(cuts, cuts[1:]) if b > a + 1]
        names = [name] if len(runs) == 1 else [f"{name}:{i}" for i in range(len(runs))]
        sequences.extend(Sequence(alphabet, indices[a:b], name=n) for (a, b), n in zip(runs, names))
        start = end
    return sequences


def read_sequences(path, fmt: str = "plain", alphabet: Alphabet | None = None) -> list[Sequence]:
    """Read sequences from ``path``.

    ``fmt="plain"`` treats every nonblank line as one sequence;
    ``fmt="fasta"`` concatenates the lines of each '>' record and keeps
    the header as the sequence name.  Letter matching is
    case-insensitive.  When any symbol has several characters, the
    letters are separated by ',' (as :func:`write_sequences` writes
    them).  Raises :class:`AlphabetMismatch` when the file
    contains letters but none belong to the alphabet.
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
    decode = _decoder(alphabet)
    sep = _separator(alphabet)
    records: list[tuple[str, str]] = []
    if fmt == "plain":
        for i, line in enumerate(lines, start=1):
            line = line.strip()
            if line:
                records.append((f"line{i}", line))
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
                    name = ""  # headerless leading data
                chunks.append(line)
        if name is not None:
            records.append((name, sep.join(chunks)))
    sequences: list[Sequence] = []
    first = size = 0
    for i, (_, text) in enumerate(records, start=1):
        size += len(text)
        if size >= _DECODE_BATCH or i == len(records):
            sequences += _decode_records(decode, records[first:i], sep, alphabet)
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
