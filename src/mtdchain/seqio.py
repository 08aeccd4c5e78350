"""Sequence file readers: plain text (one sequence per line) and FASTA.

Symbols not in the declared alphabet break the current counting window:
the raw record is split at foreign symbols and each run becomes its own
sequence, so downstream windows never span a foreign symbol.
"""

from __future__ import annotations

from .errors import AlphabetMismatch, IoError
from .model import Alphabet, Sequence


def _letter_lookup(alphabet: Alphabet) -> dict[str, int]:
    lookup = {}
    for i, sym in enumerate(alphabet.symbols):
        for variant in {sym, sym.lower(), sym.upper()}:
            lookup.setdefault(variant, i)
    return lookup


def _split_record(letters: str, lookup: dict[str, int], alphabet, name):
    """Maximal runs of alphabet letters, one Sequence per run."""
    runs, run = [], []
    for ch in letters:
        idx = lookup.get(ch)
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


def read_sequences(path, fmt: str = "plain", alphabet: Alphabet | None = None) -> list[Sequence]:
    """Read sequences from ``path``.

    ``fmt="plain"`` treats every nonblank line as one sequence;
    ``fmt="fasta"`` concatenates the lines of each '>' record and keeps
    the header as the sequence name.  Letter matching is
    case-insensitive.  Raises :class:`AlphabetMismatch` when the file
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
    lookup = _letter_lookup(alphabet)
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
                    records.append((name, "".join(chunks)))
                name, chunks = line[1:].strip(), []
            elif line:
                if name is None:
                    name = ""  # headerless leading data
                chunks.append(line)
        if name is not None:
            records.append((name, "".join(chunks)))
    sequences: list[Sequence] = []
    total_letters = 0
    for name, letters in records:
        total_letters += len(letters)
        sequences.extend(_split_record(letters, lookup, alphabet, name))
    if total_letters and not sequences:
        raise AlphabetMismatch(
            f"{path} contains no symbols of the alphabet {alphabet.symbols}"
        )
    return sequences


def write_sequences(sequences, path) -> None:
    """Write sequences as plain text, one per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for seq in sequences:
            fh.write(seq.labels() + "\n")
