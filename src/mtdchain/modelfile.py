"""Versioned JSON model files and plain-text trace files.

One document format covers the three model kinds (``mtd``,
``full_markov``, ``theta_u``); an :class:`MtdModel` is written as
``full_markov`` exactly when it is dense.  Matrices are written row-major in
word-index row order.  Probabilities are serialized with Python's
shortest round-tripping float representation, so write -> read -> write
is byte-identical and read values are bit-exact.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import IoError
from .model import Alphabet, MtdModel
from .reparam import ThetaU

FORMAT_VERSION = 1


def _document(model, provenance: dict | None) -> dict:
    doc: dict = {"format_version": FORMAT_VERSION, "alphabet": list(model.alphabet.symbols)}
    if isinstance(model, MtdModel):
        dense = model.is_dense
        doc["model_kind"] = "full_markov" if dense else "mtd"
        doc["m"] = model.order
        doc["l"] = None if dense else model.lag_order
        doc["variant"] = None if dense else model.variant
        doc["phi"] = None if dense else model.phi.tolist()
        doc["matrices"] = [mat.tolist() for mat in model.matrices]
    elif isinstance(model, ThetaU):
        doc["model_kind"] = "theta_u"
        doc["parametrization"] = "theta_u"
        doc["m"] = model.order
        doc["l"] = model.lag_order
        doc["variant"] = None
        doc["u"] = model.alphabet.symbols[model.u]
        doc["phi"] = None
        doc["matrices"] = [t.tolist() for t in model.tables]
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    doc["provenance"] = dict(provenance or {})
    return doc


def write_model(path, model, provenance: dict | None = None) -> None:
    """Write an MTD model or ThetaU tables as JSON; a dense MTD model as kind ``full_markov``."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_document(model, provenance), fh, indent=2)
        fh.write("\n")


def _integer(doc: dict, key: str) -> int:
    """``doc[key]``, which must be a JSON integer: a float or a bool raises ValueError."""
    if type(doc[key]) is not int:
        raise ValueError(f"{key} must be an integer, got {doc[key]!r}")
    return doc[key]


def read_model(path):
    """Read a model file; returns ``(model, provenance)``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, UnicodeDecodeError) as err:
        raise IoError(f"cannot read model file {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise IoError(f"model file {path} is not valid JSON: {err}") from err
    try:
        version = doc["format_version"]
        if version != FORMAT_VERSION:
            raise IoError(f"unsupported format_version {version!r} in {path}")
        alphabet = Alphabet(tuple(doc["alphabet"]))
        kind = doc["model_kind"]
        mats = [np.array(mat, dtype=np.float64) for mat in doc["matrices"]]
        provenance = doc.get("provenance") or {}
        if kind == "mtd":
            model = MtdModel(
                alphabet, _integer(doc, "m"), _integer(doc, "l"), np.array(doc["phi"]), mats,
                variant=doc["variant"],
            )
        elif kind == "full_markov":
            if len(mats) != 1 or any(doc.get(key) is not None for key in ("l", "variant", "phi")):
                raise ValueError("a full_markov model is one table, with l, variant and phi null")
            m = _integer(doc, "m")
            model = MtdModel(alphabet, m, m, [1.0], mats)
        elif kind == "theta_u":
            m, l = _integer(doc, "m"), _integer(doc, "l")
            model = ThetaU(alphabet, m, l, alphabet.index(doc["u"]), mats)
        else:
            raise IoError(f"unknown model_kind {kind!r} in {path}")
    except KeyError as err:
        raise IoError(f"model file {path} is missing key {err}") from None
    except (IndexError, TypeError, ValueError) as err:
        raise IoError(f"model file {path} holds an invalid model: {err}") from None
    return model, provenance


def write_trace(path, trace) -> None:
    """Write a per-iteration log-likelihood trace as 'iter<TAB>loglik' lines."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("iter\tloglik\n")
        for i, value in enumerate(trace):
            fh.write(f"{i}\t{float(value)!r}\n")
