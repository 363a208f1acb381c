import warnings

import numpy as np
import pytest

from sparsegrm.data import (MAX_CATEGORIES, QMatrix, ResponseData, derive_seeds,
                            load_responses, read_intercepts, read_matrix,
                            save_responses, split_row_indices, split_rows,
                            take_rows, write_intercepts, write_matrix)


def small_data():
    responses = np.array([[0, 1, 3], [1, 0, 2], [0, 1, 0]])
    mask = np.array([[1, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=bool)
    return ResponseData(responses=responses, mask=mask, categories=[2, 2, 4])


def test_response_data_validates_range():
    with pytest.raises(ValueError):
        ResponseData(responses=np.array([[2]]), mask=np.array([[True]]),
                     categories=[2])


def test_response_data_masked_cells_ignored_in_range_check():
    data = ResponseData(responses=np.array([[9]]), mask=np.array([[False]]),
                        categories=[2])
    assert data.responses[0, 0] == 0


def test_response_data_requires_two_categories():
    with pytest.raises(ValueError):
        ResponseData(responses=np.array([[0]]), mask=np.array([[True]]),
                     categories=[1])


def test_response_data_shape_mismatch():
    with pytest.raises(ValueError):
        ResponseData(responses=np.zeros((2, 3), dtype=int),
                     mask=np.zeros((3, 2), dtype=bool), categories=[2, 2, 2])


def test_qmatrix_rejects_non_binary():
    with pytest.raises(ValueError):
        QMatrix(entries=np.array([[0, 2]]))


@pytest.mark.parametrize("entry", [0.5, np.nan])
def test_qmatrix_checks_entries_before_the_int_cast(entry):
    # the cast would truncate 0.5 to a valid 0 and warn on nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="entries must be 0 or 1"):
            QMatrix(entries=np.array([[1.0, entry]]))


def test_save_load_round_trip(tmp_path):
    data = small_data()
    path = tmp_path / "resp.csv"
    save_responses(path, data, comments=["round trip"])
    back = load_responses(path, categories=data.categories)
    assert np.array_equal(back.responses, data.responses)
    assert np.array_equal(back.mask, data.mask)
    assert np.array_equal(back.categories, data.categories)


def test_load_responses_missing_tokens(tmp_path):
    path = tmp_path / "resp.csv"
    path.write_text("0,NA,1\n1,0,\n")
    data = load_responses(path)
    assert data.mask.tolist() == [[True, False, True], [True, True, False]]


def test_load_responses_header_detected(tmp_path):
    path = tmp_path / "resp.csv"
    path.write_text("item1,item2\n0,1\n1,0\n")
    data = load_responses(path)
    assert data.n_respondents == 2


def test_load_responses_infers_categories(tmp_path):
    path = tmp_path / "resp.csv"
    path.write_text("0,3\n1,0\n")
    data = load_responses(path)
    assert data.categories.tolist() == [2, 4]


def test_load_responses_rejects_non_integer(tmp_path):
    path = tmp_path / "resp.csv"
    path.write_text("0,1\n0.5,0\n")
    with pytest.raises(ValueError):
        load_responses(path)


def test_load_responses_rejects_a_first_row_with_some_text(tmp_path):
    # a first row with numeric fields is data, not a header: dropping it
    # silently loaded two respondents of three
    path = tmp_path / "resp.csv"
    path.write_text("1,2,x\n0,1,1\n1,0,2\n")
    with pytest.raises(ValueError, match=r"resp\.csv: response 'x' on line 1 \(item 2\)"):
        load_responses(path)


def test_load_responses_names_a_text_cell_by_position(tmp_path):
    # the position is the file's line, counting the header, and the item
    path = tmp_path / "resp.csv"
    path.write_text("item1,item2\n0,1\n1,x\n")
    with pytest.raises(ValueError, match=r"resp\.csv: response 'x' on line 3 \(item 1\) "
                                         "is not an integer"):
        load_responses(path)


@pytest.mark.parametrize("read,text,message", [
    (load_responses, "0,1\n1\n", "line 4 has 1 fields, expected 2"),
    (load_responses, "0,1\n1,-2.0\n", r"response '-2.0' on line 4 \(item 1\) is negative"),
    (read_matrix, "0.5,1\n1,x\n", "line 4 is not numeric"),
    (read_intercepts, "0.5,-1\nnan,1\n", "line 4 has NaN before the padding tail"),
])
def test_table_errors_name_the_file_line(tmp_path, read, text, message):
    # comment and blank lines count: the message names the line an editor shows
    path = tmp_path / "table.csv"
    path.write_text("# written by hand\n\n" + text)
    with pytest.raises(ValueError, match=rf"table\.csv: {message}"):
        read(path)


def test_load_responses_keeps_a_missing_first_row(tmp_path):
    path = tmp_path / "resp.csv"
    path.write_text("NA,\n0,1\n1,0\n")
    data = load_responses(path)
    assert data.n_respondents == 3
    assert not data.mask[0].any()


def test_load_responses_rejects_ragged(tmp_path):
    path = tmp_path / "resp.csv"
    path.write_text("0,1\n1\n")
    with pytest.raises(ValueError):
        load_responses(path)


def test_load_responses_rejects_empty_column(tmp_path):
    path = tmp_path / "resp.csv"
    path.write_text("0,NA\n1,NA\n")
    with pytest.raises(ValueError):
        load_responses(path)


def test_split_rows_partition():
    rng = np.random.default_rng(0)
    data = ResponseData(responses=rng.integers(0, 2, (20, 4)),
                        mask=np.ones((20, 4), dtype=bool),
                        categories=[2, 2, 2, 2])
    train, test = split_rows(data, 0.5, seed=3)
    assert train.n_respondents + test.n_respondents == 20
    tr, te = split_row_indices(20, 0.5, seed=3)
    assert np.array_equal(np.sort(np.concatenate([tr, te])), np.arange(20))
    assert np.array_equal(train.responses, data.responses[tr])


def test_split_rows_deterministic():
    a = split_row_indices(30, 0.5, seed=11)
    b = split_row_indices(30, 0.5, seed=11)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_split_rows_bad_fraction():
    with pytest.raises(ValueError):
        split_row_indices(10, 1.0, seed=0)


def test_take_rows_copies():
    data = small_data()
    sub = take_rows(data, [0, 2])
    sub.responses[0, 0] = 1
    assert data.responses[0, 0] == 0


def test_matrix_round_trip_full_precision(tmp_path):
    rng = np.random.default_rng(5)
    mat = rng.normal(size=(4, 3)) * 1e-7
    path = tmp_path / "m.csv"
    write_matrix(path, mat, comments=["config echo"])
    back = read_matrix(path)
    assert np.array_equal(back, mat)


def test_read_matrix_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_matrix(tmp_path / "absent.csv")


def test_write_matrix_rejects_inf(tmp_path):
    with pytest.raises(ValueError):
        write_matrix(tmp_path / "m.csv", np.array([[np.inf]]))


def test_intercepts_round_trip_ragged(tmp_path):
    intercepts = [np.array([1.0, 0.25, -1.0]), np.array([0.5])]
    path = tmp_path / "d.csv"
    write_intercepts(path, intercepts)
    back = read_intercepts(path)
    assert len(back) == 2
    assert np.array_equal(back[0], intercepts[0])
    assert np.array_equal(back[1], intercepts[1])


def test_derive_seeds_distinct_and_reproducible():
    a = derive_seeds(42, 5)
    b = derive_seeds(42, 5)
    assert a == b
    assert len(set(a)) == 5
    assert derive_seeds(43, 5) != a


@pytest.mark.parametrize("cell", ["inf", "1e30", "nan"])
def test_load_responses_rejects_non_finite_and_huge_cells(tmp_path, cell):
    path = tmp_path / "resp.csv"
    path.write_text(f"0,1\n1,{cell}\n")
    with pytest.raises(ValueError, match=rf"resp\.csv: response '{cell}' on line 2 \(item 1\)"):
        load_responses(path)


def test_response_data_rejects_more_than_max_categories():
    cells = dict(responses=np.zeros((2, 2)), mask=np.ones((2, 2), dtype=bool))
    assert ResponseData(**cells, categories=[2, MAX_CATEGORIES]).categories[1] \
        == MAX_CATEGORIES
    with pytest.raises(ValueError,
                       match=rf"item 1 has {MAX_CATEGORIES + 1} categories"):
        ResponseData(**cells, categories=[2, MAX_CATEGORIES + 1])


def test_load_responses_rejects_more_than_max_categories(tmp_path):
    path = tmp_path / "resp.csv"
    path.write_text(f"0,1\n1,{MAX_CATEGORIES - 1}\n")
    assert load_responses(str(path)).categories[1] == MAX_CATEGORIES
    path.write_text("0,1\n1,1000000000000\n")
    with pytest.raises(ValueError, match="item 1 has 1000000000001 categories"):
        load_responses(str(path))
