import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_mtds
from mtdchain import (
    IoError,
    MtdModel,
    full_transition_matrix,
    random_full_markov,
    random_mtd,
    read_model,
    to_theta_u,
    write_model,
    write_trace,
)


def round_trip(tmp_path, model, provenance=None, name="model.json"):
    path = tmp_path / name
    write_model(path, model, provenance=provenance)
    first = path.read_bytes()
    loaded, prov = read_model(path)
    again = tmp_path / ("again_" + name)
    write_model(again, loaded, provenance=prov)
    assert again.read_bytes() == first
    return loaded, prov


@pytest.mark.parametrize("seed", range(10))
def test_mtd_round_trip_bit_exact(tmp_path, seed):
    rng = np.random.default_rng(seed)
    q = int(rng.integers(2, 5))
    m = int(rng.integers(1, 4))
    l = int(rng.integers(1, min(m, 2) + 1))
    model = random_mtd(q, m, l, seed=seed)
    loaded, _ = round_trip(tmp_path, model)
    assert loaded == model


def test_single_matrix_round_trip(tmp_path):
    model = random_mtd(3, 3, 1, variant="single_matrix", seed=3)
    loaded, _ = round_trip(tmp_path, model)
    assert loaded == model
    assert loaded.variant == "single_matrix"


def test_full_markov_round_trip(tmp_path):
    dense = full_transition_matrix(random_mtd(3, 2, 1, seed=4))
    loaded, _ = round_trip(tmp_path, dense)
    assert loaded.is_dense
    assert loaded == dense


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_every_small_model_reads_back_equal(tmp_path, q, m):
    dense = random_full_markov(q, m, seed=q * m)
    models = [
        *(random_mtd(q, m, l, seed=10 * m + l) for l in range(1, m + 1)),
        random_mtd(q, m, 1, variant="single_matrix", seed=m),
        dense,
        full_transition_matrix(random_mtd(q, m, 1, seed=m)),
        MtdModel(dense.alphabet, m, m, [1 - 1e-13], dense.matrices),
    ]
    path = tmp_path / "model.json"
    for model in models:
        write_model(path, model)
        kind = json.loads(path.read_text())["model_kind"]
        assert kind == ("full_markov" if model.is_dense else "mtd")
        assert read_model(path)[0] == model
    # the l = m draw of random_mtd has phi = (1) and one table, so it is dense
    expected = [False] * (m - 1) + [True, False, True, True, False]
    assert [model.is_dense for model in models] == expected


def test_theta_u_round_trip(tmp_path):
    theta = to_theta_u(random_mtd(3, 3, 2, seed=5), 1)
    loaded, _ = round_trip(tmp_path, theta)
    assert loaded == theta


@pytest.mark.parametrize("q, m, l, u", [(2, 4, 1, 1), (2, 5, 3, 0), (4, 3, 2, 3), (3, 3, 3, 2)])
def test_theta_u_round_trip_passes_overlap_check(tmp_path, q, m, l, u):
    theta = to_theta_u(random_mtd(q, m, l, seed=q + m + l), u)
    loaded, _ = round_trip(tmp_path, theta)
    assert loaded == theta


@settings(max_examples=60)
@given(model=random_mtds(), kind=st.sampled_from(["mtd", "theta_u", "dense"]), data=st.data())
def test_round_trip_property(tmp_path_factory, model, kind, data):
    if kind == "theta_u":
        model = to_theta_u(model, data.draw(st.integers(0, model.alphabet.size - 1), label="u"))
    elif kind == "dense":
        model = full_transition_matrix(model)
    loaded, _ = round_trip(tmp_path_factory.mktemp("model"), model)
    assert type(loaded) is type(model)
    assert loaded == model


def test_theta_u_tagged(tmp_path):
    theta = to_theta_u(random_mtd(3, 2, 1, seed=6), 0)
    path = tmp_path / "theta.json"
    write_model(path, theta)
    doc = json.loads(path.read_text())
    assert doc["model_kind"] == "theta_u"
    assert doc["parametrization"] == "theta_u"
    assert doc["u"] == "0"


def test_provenance_carried(tmp_path):
    model = random_mtd(2, 2, 1, seed=7)
    prov = {"command_line": "mtdchain fit --seed 7", "seed": 7, "corpus_digest": "ab" * 32}
    loaded, back = round_trip(tmp_path, model, provenance=prov)
    assert back == prov


def test_values_bit_exact(tmp_path):
    model = random_mtd(4, 2, 1, seed=8)
    path = tmp_path / "m.json"
    write_model(path, model)
    loaded, _ = read_model(path)
    assert np.array_equal(loaded.phi, model.phi)
    for a, b in zip(loaded.matrices, model.matrices):
        assert np.array_equal(a, b)


def test_missing_file(tmp_path):
    with pytest.raises(IoError):
        read_model(tmp_path / "nope.json")


def test_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(IoError):
        read_model(path)


def test_unknown_kind(tmp_path):
    path = tmp_path / "weird.json"
    path.write_text(
        '{"format_version": 1, "alphabet": ["a", "b"], "model_kind": "nope", "matrices": []}'
    )
    with pytest.raises(IoError):
        read_model(path)


def _edited(tmp_path, model, edit):
    path = tmp_path / "edited.json"
    write_model(path, model)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    return path


def test_rejected_phi_is_io_error(tmp_path):
    path = _edited(tmp_path, random_mtd(2, 2, 1, seed=9), lambda doc: doc.update(phi=[0.9, 0.9]))
    with pytest.raises(IoError, match="edited.json"):
        read_model(path)


def test_inconsistent_theta_u_overlap_is_io_error(tmp_path):
    def edit(doc):
        # lag-2 block (u, 1) shares its row with lag-1 block (1, u); change only the lag-2 copy
        doc["matrices"][1][1] = doc["matrices"][1][1][::-1]

    theta = to_theta_u(random_mtd(2, 3, 2, seed=10), 0)
    with pytest.raises(IoError, match="edited.json"):
        read_model(_edited(tmp_path, theta, edit))


def _dense_edit(key, value):
    return lambda doc: doc.update({key: value})


@pytest.mark.parametrize(
    "model,edit",
    [
        (random_mtd(2, 4, 1, seed=11), _dense_edit("m", 3.9)),
        (random_mtd(2, 4, 1, seed=11), _dense_edit("m", 4.0)),
        (random_mtd(2, 4, 1, seed=11), _dense_edit("l", True)),
        (random_full_markov(2, 2), _dense_edit("m", 2.5)),
        (random_full_markov(2, 2), _dense_edit("m", 1e308)),
        (random_full_markov(2, 1), _dense_edit("m", True)),
        (random_full_markov(2, 1), lambda doc: doc["matrices"].append(doc["matrices"][0])),
        (random_full_markov(2, 1), _dense_edit("phi", [0.3, 0.7])),
        (random_full_markov(2, 1), _dense_edit("l", 5)),
        (random_full_markov(2, 1), _dense_edit("variant", "general")),
        (to_theta_u(random_mtd(2, 3, 2, seed=10), 0), _dense_edit("l", 2.0)),
    ],
    ids=["mtd-m-3.9", "mtd-m-4.0", "mtd-l-true", "dense-m-2.5", "dense-m-1e308", "dense-m-true",
         "dense-two-tables", "dense-phi", "dense-l", "dense-variant", "theta-l-2.0"],
)
def test_fields_a_model_kind_does_not_hold_are_io_errors(tmp_path, model, edit):
    with pytest.raises(IoError, match="holds an invalid model"):
        read_model(_edited(tmp_path, model, edit))


def test_trace_file(tmp_path):
    path = tmp_path / "trace.tsv"
    write_trace(path, [-10.5, -9.25, -9.0])
    lines = path.read_text().splitlines()
    assert lines[0] == "iter\tloglik"
    assert lines[1] == "0\t-10.5"
    assert lines[3] == "2\t-9.0"
