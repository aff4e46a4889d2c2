import numpy as np
import pytest

from qlattice.errors import ParseError
from qlattice.lattice import random_subspace
from qlattice.serialize import (dump_json, load_json, matrix_from_json,
                                matrix_to_json, report_record,
                                subspace_from_json, subspace_to_json,
                                vector_from_json)


def test_matrix_roundtrip(rng):
    M = rng.complex_gaussian_matrix(3, 4)
    back = matrix_from_json(matrix_to_json(M))
    assert np.allclose(M, back, atol=0, rtol=0)


def test_matrix_schema_errors():
    with pytest.raises(ParseError):
        matrix_from_json({"rows": 2, "cols": 2, "data": [[1, 0]]})
    with pytest.raises(ParseError):
        matrix_from_json({"rows": 2, "data": []})
    for data in (5, [[float("nan"), 0.0]], [[0.0, float("inf")]]):
        with pytest.raises(ParseError):
            matrix_from_json({"rows": 1, "cols": 1, "data": data})


def test_subspace_roundtrip(rng):
    H = random_subspace(4, 2, rng)
    back = subspace_from_json(subspace_to_json(H))
    assert back.equiv(H)


def test_subspace_loader_orthonormalizes():
    obj = {"d": 3, "vectors": [[[1, 0], [0, 0], [0, 0]],
                               [[2, 0], [0, 0], [0, 0]]]}
    H = subspace_from_json(obj)
    assert H.rank == 1


def test_subspace_empty_vectors_is_zero():
    assert subspace_from_json({"d": 3, "vectors": []}).is_zero()


@pytest.mark.parametrize("vectors", [5, [5], [[[float("nan"), 0], [0, 0]]]])
def test_subspace_schema_errors(vectors):
    with pytest.raises(ParseError):
        subspace_from_json({"d": 2, "vectors": vectors})


def test_vector_requires_single_column():
    with pytest.raises(ParseError):
        vector_from_json(matrix_to_json(np.eye(2)))


def test_report_records():
    rec = report_record("e3", 1e-12, 1e-9)
    assert rec["pass"] is True


def test_load_json_parse_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        load_json(str(bad))


def test_dump_and_load_roundtrip(tmp_path):
    path = tmp_path / "m.json"
    M = np.array([[1.0 + 2.0j]])
    dump_json(matrix_to_json(M), str(path))
    assert np.allclose(matrix_from_json(load_json(str(path))), M)
