"""Seeded inputs and independent reference computations for the benchmark.

Nothing here calls into ``mtdchain``: the corpora, the generator models
and the reference log-likelihoods come from this file alone, so a change
to the library's sampler, counter or likelihood code cannot change what
the workloads feed it or what its outputs are checked against.

Conventions match the library's documented file formats: a word spelled
oldest letter first is a base-q numeral (most recent letter least
significant), and model files are ``format_version`` 1 JSON documents.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

ALPHABET = "0123"
Q = len(ALPHABET)
_BLOCK = 1 << 14  # sampler steps per vectorized block


def random_mtd(rng, order: int, lag_order: int = 1) -> dict:
    """An MTD model as a plain dict: phi (G,) and matrices (G, q**l, q).

    phi and every matrix row are normalized uniforms, floored away from 0
    so no word of any corpus has zero probability.
    """
    G = order - lag_order + 1
    phi = _rows(rng, (G,))
    mats = _rows(rng, (G, Q**lag_order, Q))
    return {"m": order, "l": lag_order, "phi": phi, "matrices": mats}


def _rows(rng, shape) -> np.ndarray:
    raw = rng.random(shape) + 0.05
    return raw / raw.sum(axis=-1, keepdims=True)


def sample_corpus(rng, model: dict, n_lines: int, line_length: int) -> list[np.ndarray]:
    """Lines (uint8 letter indices) drawn from an l = 1 MTD model by its
    hidden-lag construction.

    Each letter first picks a lag g with probability phi_g and then draws
    from row y[t-g] of pi_g.  The first m letters of a line are uniform.
    """
    m = model["m"]
    if model["l"] != 1:
        raise ValueError("the corpus sampler handles l = 1 models only")
    cum = np.cumsum(model["matrices"], axis=-1)  # (G, q, q)
    cum[..., -1] = 1.0
    lines = []
    for _ in range(n_lines):
        steps = line_length - m
        lag = rng.choice(m, size=steps, p=model["phi"])  # lag - 1
        u = rng.random(steps)
        y = rng.integers(0, Q, size=m).tolist()
        # in blocks, so the harness's own memory peak stays below the program's
        for start in range(0, steps, _BLOCK):
            stop = min(start + _BLOCK, steps)
            # candidate[t][a]: the letter drawn at step t if the chosen lag holds letter a
            candidate = (u[start:stop, None, None] >= cum[lag[start:stop]]).sum(axis=-1).tolist()
            back = (m - 1 - lag[start:stop]).tolist()
            for t in range(stop - start):
                y.append(candidate[t][y[start + t + back[t]]])
        lines.append(np.array(y, dtype=np.uint8))
    return lines


def corpus_text(lines) -> str:
    table = np.frombuffer(ALPHABET.encode(), dtype=np.uint8)
    return "".join(table[line].tobytes().decode() + "\n" for line in lines)


def model_document(model: dict) -> dict:
    """The model as a ``format_version`` 1 model-file document."""
    return {
        "format_version": 1,
        "alphabet": list(ALPHABET),
        "model_kind": "mtd",
        "m": model["m"],
        "l": model["l"],
        "variant": "general",
        "phi": [float(x) for x in model["phi"]],
        "matrices": [[[float(x) for x in row] for row in mat] for mat in model["matrices"]],
        "provenance": {},
    }


def model_from_document(doc: dict) -> dict:
    if doc["model_kind"] != "mtd" or doc["variant"] != "general":
        raise ValueError(f"reference likelihood needs a general MTD model, got {doc['model_kind']}")
    return {
        "m": doc["m"],
        "l": doc["l"],
        "phi": np.array(doc["phi"], dtype=np.float64),
        "matrices": np.array(doc["matrices"], dtype=np.float64),
    }


def read_model_file(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return model_from_document(json.load(fh))


def word_counts(lines, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct k-letter windows (ascending index) and their counts.

    Tallied over all q**k words line by line, which keeps the harness's
    memory well below that of the commands it measures.
    """
    total = np.zeros(Q**k, dtype=np.int64)
    for line in lines:
        n = line.size - k + 1
        idx = np.zeros(n, dtype=np.int64)
        for off in range(k):
            idx = idx * Q + line[off : off + n]
        total += np.bincount(idx, minlength=Q**k)
    words = np.flatnonzero(total)
    return words, total[words]


def mtd_loglik(model: dict, words: np.ndarray, counts: np.ndarray) -> float:
    """sum_w N(w) log sum_g phi_g pi_g(block_g(w), i0(w))."""
    l = model["l"]
    i0 = words % Q
    p = np.zeros(words.size)
    for g in range(len(model["phi"])):
        block = (words // Q ** (g + 1)) % Q**l
        p += model["phi"][g] * model["matrices"][g][block, i0]
    return float(counts @ np.log(p))


def contingency_start(words: np.ndarray, counts: np.ndarray, order: int, lag_order: int) -> dict:
    """The documented starting point of EM's first restart: uniform phi
    and, per lag g, the (lag-g block, last letter) contingency table with
    +1 pseudocounts, row-normalized."""
    G = order - lag_order + 1
    mats = np.empty((G, Q**lag_order, Q))
    for g in range(G):
        block = (words // Q ** (g + 1)) % Q**lag_order
        table = np.ones((Q**lag_order, Q))
        np.add.at(table, (block, words % Q), counts)
        mats[g] = table / table.sum(axis=1, keepdims=True)
    return {"m": order, "l": lag_order, "phi": np.full(G, 1.0 / G), "matrices": mats}


def converged_em_loglik(words: np.ndarray, counts: np.ndarray, order: int, lag_order: int) -> float:
    """Log-likelihood that plain EM reaches from :func:`contingency_start`
    once an iteration gains less than 1e-6 nats (about 200 iterations at
    order 6 on the benchmark's corpora).

    A fit whose best restart is at least as good as its first restart ends
    no lower than this, less what stopping at a coarser threshold leaves.
    """
    model = contingency_start(words, counts, order, lag_order)
    phi, mats = model["phi"], model["matrices"]
    G, i0 = phi.size, words % Q
    blocks = np.stack([(words // Q ** (g + 1)) % Q**lag_order for g in range(G)])
    ll = prev = -np.inf
    for _ in range(10_000):
        parts = phi[:, None] * mats[np.arange(G)[:, None], blocks, i0]  # (G, words)
        total = parts.sum(axis=0)
        ll = float(counts @ np.log(total))
        if ll - prev < 1e-6:
            break
        prev = ll
        expected = parts * (counts / total)
        phi = expected.sum(axis=1) / counts.sum()
        for g in range(G):
            table = np.zeros((Q**lag_order, Q))
            np.add.at(table, (blocks[g], i0), expected[g])
            rows = table.sum(axis=1, keepdims=True)
            mats[g] = np.where(rows > 0, table / np.where(rows > 0, rows, 1.0), mats[g])
    return ll


def dense_ml_loglik(words: np.ndarray, counts: np.ndarray) -> float:
    """Log-likelihood of the maximum-likelihood dense order-(k-1) chain."""
    hist = words // Q
    starts = np.flatnonzero(np.r_[True, hist[1:] != hist[:-1]])
    row_tot = np.add.reduceat(counts, starts)
    per_word_tot = np.repeat(row_tot, np.diff(np.r_[starts, hist.size]))
    return float(counts @ np.log(counts / per_word_tot))


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def counts_tsv_digest(words: np.ndarray, counts: np.ndarray, k: int) -> str:
    """sha256 of the 'word<TAB>count' lines, words spelled oldest letter first."""
    table = np.frombuffer(ALPHABET.encode(), dtype=np.uint8)
    powers = Q ** np.arange(k - 1, -1, -1)
    h = hashlib.sha256()
    for start in range(0, words.size, _BLOCK):
        block = words[start : start + _BLOCK]
        spelled = table[(block[:, None] // powers) % Q].tobytes().decode()
        n = counts[start : start + _BLOCK].tolist()
        h.update("".join(f"{spelled[i * k : (i + 1) * k]}\t{c}\n" for i, c in enumerate(n)).encode())
    return h.hexdigest()
