"""Exact census enumeration over the Gaussian-integer matrix group."""

import hashlib
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from orbitcount.errors import InputError
from orbitcount.group import gauge, radius
from orbitcount.lattice import (
    CSV_HEADER,
    MAX_ENTRY,
    Census,
    _gxgcd_arrays,
    _census_from_keys,
    _key_layout,
    _read_csv_rows,
    _row_keys,
    _sort_keys,
    compact_stabilizer_rows,
    enumerate_naive,
    enumerate_pruned,
    f_threshold,
    form_counts,
    gconj,
    gmul,
    gnorm,
    shell_counts,
)

from lattice_oracles import enumerate_literal, gdivmod, gxgcd

GOLDEN = (1.0 + 5.0**0.5) / 2.0

gint = st.tuples(
    st.integers(min_value=-30, max_value=30), st.integers(min_value=-30, max_value=30)
)


@given(gint, gint)
def test_gxgcd_bezout(x, y):
    if x == (0, 0) and y == (0, 0):
        return
    g, u, v = gxgcd(x, y)
    lhs = tuple(
        a + b for a, b in zip(gmul(u, x), gmul(v, y))
    )
    assert lhs == g
    # g divides both inputs exactly
    for w in (x, y):
        if g != (0, 0):
            _, r = gdivmod(w, g)
            assert r == (0, 0)


@given(st.lists(st.tuples(gint, gint), min_size=1, max_size=40))
def test_gxgcd_arrays_match_scalar(pairs):
    x = np.array([p[0] for p in pairs], dtype=np.int64).T
    y = np.array([p[1] for p in pairs], dtype=np.int64).T
    g, u, v = _gxgcd_arrays(x, y)
    for i, (xs, ys) in enumerate(pairs):
        gi, ui, vi = (tuple(int(w) for w in arr[:, i]) for arr in (g, u, v))
        gs, us, vs = gxgcd(xs, ys)
        assert tuple(p + q for p, q in zip(gmul(ui, xs), gmul(vi, ys))) == gi
        assert (gnorm(gi) == 1) == (gnorm(gs) == 1)
        assert (gi, ui, vi) == (gs, us, vs)


@given(gint, gint)
@example((3, 1), (0, 0))
def test_gdivmod_nearest(x, y):
    if y == (0, 0):
        with pytest.raises(ZeroDivisionError, match="Gaussian division by zero"):
            gdivmod(x, y)
        return
    q, r = gdivmod(x, y)
    assert tuple(a + b for a, b in zip(gmul(q, y), r)) == x
    # nearest rounding keeps the remainder in the half-open fundamental cell
    assert gnorm(r) * 2 <= gnorm(y)


def test_f_threshold_values():
    assert f_threshold(1.0) == 2
    assert f_threshold(2.0) == 4
    assert f_threshold(8.0) == 64
    # golden ratio: B^2 + B^-2 = 3 exactly, and the boundary is included
    assert f_threshold(GOLDEN) == 3
    with pytest.raises(InputError):
        f_threshold(0.9)
    # nan used to reach int(floor(nan)), a bare ValueError
    for call in (f_threshold, enumerate_pruned):
        with pytest.raises(InputError, match="cutoff nan is not a number >= 1.0"):
            call(math.nan)


def test_f_threshold_refuses_a_cutoff_past_the_entry_bound():
    # above n = MAX_ENTRY + 1 the census holds [[1, n], [0, 1]], F = n^2 + 2,
    # even at the next float, and from_rows refuses its entry n
    n = MAX_ENTRY + 1
    above = math.nextafter(float(n), math.inf)
    b2 = Fraction(above) ** 2
    assert n * n + 2 <= b2 + 1 / b2
    with pytest.raises(InputError, match="an entry exceeds 2\\^30"):
        Census.from_rows([[1, 0, n, 0, 0, 0, 1, 0]], cutoff=None)
    for cutoff in (above, 1e200, 10**400):
        with pytest.raises(InputError, match=re.escape(
                f"cutoff {cutoff} is above {n}: its census would hold an entry that exceeds "
                "2^30 in absolute value, the bound on a census row")):
            f_threshold(cutoff)
    assert f_threshold(float(n)) == math.floor(float(n) ** 2)


def test_budget_outside_int64_is_refused_before_any_estimate():
    for budget in (-1, 1 << 63, 10**100, -(10**100)):
        with pytest.raises(InputError, match=r"^work budget must be in \[0, 2\^63\); set --budget"):
            enumerate_pruned(1.0, budget=budget)
    assert enumerate_pruned(1.0, budget=(1 << 63) - 1).size == 8


def test_enumerators_agree_small():
    for cutoff in (1.0, 1.3, GOLDEN):
        lit = enumerate_literal(cutoff)
        nai = enumerate_naive(cutoff)
        pru = enumerate_pruned(cutoff)
        assert lit.row_set() == nai.row_set() == pru.row_set()


def test_census_sizes_frozen(census1, census2, census8):
    assert census1.size == 8
    assert census2.size == 136
    assert census8.size == 42248
    assert enumerate_pruned(GOLDEN).size == 72
    assert len(census8.shells()) == 53
    census12 = enumerate_pruned(12.0)
    assert census12.size == 211592
    assert len(census12.shells()) == 122


@pytest.mark.parametrize("cutoff, rows, shells", [(8.0, 772, 29), (12.0, 1748, 58)])
def test_parabolic_rows_number_four_r2(cutoff, rows, shells):
    # the c = 0 elements [[u, n], [0, u^-1]], u one of the 4 units and n in
    # Z[i], sit at F = 2 + |n|^2: 4 r2(F - 2) rows at each F, with r2 from
    # a box of Z[i]
    census = enumerate_pruned(cutoff)
    f = census.fnorm[~census.rows[:, 4:6].any(axis=1)]
    top = int(census.fnorm[-1])
    n = np.arange(-math.isqrt(top), math.isqrt(top) + 1)
    r2 = np.bincount((n[:, None] ** 2 + n**2).ravel(), minlength=top - 1)[: top - 1]
    assert np.array_equal(np.bincount(f - 2, minlength=top - 1), 4 * r2)
    assert (f.size, np.unique(f).size) == (rows, shells)


def test_naive_agrees_at_depth(census8):
    nai = enumerate_naive(8.0)
    assert nai.row_set() == census8.row_set()
    # cutoffs where the entry box's bound fmax - 1 and floor(cutoff^2) differ
    for cutoff in (4.999999, 5.000001, 7.999999999, 8.000000001):
        assert np.array_equal(enumerate_naive(cutoff).rows, enumerate_pruned(cutoff).rows), cutoff


@pytest.mark.parametrize("name", ["census2", "census8"])
def test_census_invariant_under_unit_diagonals(name, request):
    # diag(u, conj u) g = [[u a, u b], [conj(u) c, conj(u) d]]
    rows = request.getfixturevalue(name).row_set()
    for u in ((0, 1), (-1, 0), (0, -1)):
        image = set()
        for r in rows:
            a, b, c, d = (r[0], r[1]), (r[2], r[3]), (r[4], r[5]), (r[6], r[7])
            image.add((*gmul(u, a), *gmul(u, b), *gmul(gconj(u), c), *gmul(gconj(u), d)))
        assert image == rows


def test_censuses_nest(census1, census2, census8):
    assert census1.row_set() <= census2.row_set() <= census8.row_set()


def test_compact_part_is_the_stabilizer(census2):
    compact = census2.rows[census2.fnorm == 2]
    assert np.array_equal(compact, compact_stabilizer_rows())
    assert compact.shape[0] == 8


def _row_radii(census):
    """Each row's radius, from its shell's."""
    shells = census.shell_table
    return np.repeat(shells.radius, shells.count)


def test_compact_elements_have_radius_zero(census1):
    assert np.allclose(_row_radii(census1), 0.0)
    assert np.allclose(np.exp(0.5 * _row_radii(census1)), 1.0)


def _matrices(census):
    """The census rows as a stacked (N, 2, 2) complex array."""
    return (census.rows[:, 0::2] + 1j * census.rows[:, 1::2]).reshape(-1, 2, 2)


def test_columns_match_group_functions(census2):
    mats = _matrices(census2)
    assert np.allclose(np.exp(0.5 * _row_radii(census2)), gauge(mats), rtol=1e-12)
    assert np.allclose(_row_radii(census2), radius(mats), atol=1e-12)


@pytest.mark.parametrize("name", ["census1", "census2", "census8"])
def test_shell_table_matches_rows(name, request):
    census = request.getfixturevalue(name)
    shells = census.shell_table
    starts = np.flatnonzero(np.diff(census.fnorm, prepend=-1))
    assert np.array_equal(shells.start, starts)
    assert np.array_equal(shells.fnorm, census.fnorm[starts])
    assert shells.count.sum() == census.size
    assert census.shell_table is shells  # built once
    for s, n, r in zip(shells.start, shells.count, shells.radius):
        assert np.allclose(radius(_matrices(census)[s : s + n]), r, atol=1e-12)
    assert census.shells() == [
        (f, s, s + n) for f, s, n in zip(shells.fnorm, shells.start, shells.count)
    ]


def test_shell_table_of_empty_census():
    shells = Census.from_rows(np.zeros((0, 8), np.int64), cutoff=None).shell_table
    assert [col.size for col in shells] == [0, 0, 0]
    assert shells.start.size == 0


def test_rows_canonically_sorted(census2):
    f = census2.fnorm
    assert np.all(np.diff(f) >= 0)
    # within an F-shell, rows are lexicographic
    for _fv, s, e in census2.shells():
        block = census2.rows[s:e]
        key = [tuple(r) for r in block.tolist()]
        assert key == sorted(key)


def test_from_rows_rejects_bad_determinant():
    row = np.array([[1, 0, 0, 0, 0, 0, 2, 0]], dtype=np.int64)  # det 2
    with pytest.raises(InputError):
        Census.from_rows(row, cutoff=2.0)


@pytest.mark.parametrize("cutoff", [4.0, 8.0, 12.0, 16.0])
def test_from_rows_sorts_like_the_nine_column_key(cutoff):
    # the packed one-word key orders rows as the lexicographic sort on
    # (F, re a, ..., im d) does, for canonical and for shuffled input;
    # canonical rows are kept in place, not gathered into a copy
    census = enumerate_pruned(cutoff)
    f = census.fnorm
    ref = np.lexsort(tuple(census.rows[:, j] for j in range(7, -1, -1)) + (f,))
    assert np.array_equal(ref, np.arange(census.size))
    shuffled = census.rows[np.random.default_rng(int(cutoff)).permutation(census.size)]
    for rows in (census.rows, shuffled):
        got = Census.from_rows(rows, cutoff=cutoff)
        assert np.array_equal(got.rows, census.rows)
        assert np.array_equal(got.fnorm, f)
        assert got.cutoff == census.cutoff
        assert np.shares_memory(got.rows, rows) == (rows is census.rows)


def test_from_rows_sorts_wide_rows(census2):
    # entries near 2^29 do not fit one packed word; the order is still
    # lexicographic on (F, entries) and duplicates are still found
    big = 1 << 29
    extra = np.array(
        [[1, 0, big, 0, 0, 0, 1, 0], [1, 0, -big, 1, 0, 0, 1, 0], [1, 0, 0, 0, big, -big, 1, 0]],
        dtype=np.int64,
    )
    rows = np.concatenate([census2.rows, extra])[::-1]
    got = Census.from_rows(rows, cutoff=None)
    keys = [(sum(v * v for v in r), *r) for r in rows.tolist()]
    assert [list(k[1:]) for k in sorted(keys)] == got.rows.tolist()
    assert got.fnorm.tolist() == sorted(k[0] for k in keys)
    with pytest.raises(InputError, match="duplicate row"):
        Census.from_rows(np.concatenate([rows, extra[1:2]]), cutoff=None)


def test_from_rows_finds_a_duplicate_in_sorted_rows(census4):
    # and names it alike in shuffled rows, whose keys are sorted in place
    for k in (0, 1000, census4.size - 1):
        rows = np.insert(census4.rows, k, census4.rows[k], axis=0)  # still sorted
        shuffled = rows[np.random.default_rng(k).permutation(rows.shape[0])]
        for given in (rows, shuffled, shuffled.astype(np.int64)):
            with pytest.raises(InputError) as exc:
                Census.from_rows(given, cutoff=4.0)
            assert str(exc.value) == f"duplicate row {census4.rows[k].tolist()}"


def test_wide_rows_sort_through_lexsort_even_when_sorted(census2, monkeypatch):
    big = 1 << 29
    rows = np.concatenate([census2.rows, [[1, 0, big, 0, 0, 0, 1, 0]]])  # canonical order
    calls = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(1) or lexsort(keys))
    got = Census.from_rows(rows, cutoff=None)
    assert calls and np.array_equal(got.rows, rows)
    with pytest.raises(InputError, match="duplicate row"):
        Census.from_rows(np.concatenate([rows, rows[-1:]]), cutoff=None)


def test_one_word_key_layout_holds_censuses_up_to_cutoff_32():
    # the enumerator's layout: entries in [-m, m], m = isqrt(fmax - 1), and F <= fmax
    def layout(cutoff):
        fmax = f_threshold(cutoff)
        m = math.isqrt(fmax - 1)
        return _key_layout(-m, m, fmax)

    assert f_threshold(32.0) == 1024 and f_threshold(32.02) == 1025
    at_32 = layout(32.0)
    assert at_32.words == 1 and at_32.bits == 6  # 11 + 8 * 6 = 59 bits
    assert at_32.fmax.bit_length() + 8 * at_32.bits <= 63
    assert layout(32.02).words == 2  # m = 32: 8 * 7 bits for the entries, 11 for F
    assert layout(42.0).words == 2  # the default budget's largest cutoff
    assert layout(1.0).words == 1 and layout(12.0).bits == 5
    # 63 bits is the most a key may take: the sign bit stays clear
    assert _key_layout(-31, 31, (1 << 15) - 1).words == 1
    assert _key_layout(-31, 31, 1 << 15).words == 2


def _check_fields(layout):
    """Each word holds its fields within 63 bits, in order and unsplit:
    F first, then the 8 entries, an earlier field in higher bits."""
    widths = [layout.fmax.bit_length()] + [layout.bits] * 8
    assert layout.word[0] == 0 and layout.words == layout.word[-1] + 1
    for i in range(9):
        assert 0 <= layout.shift[i] and layout.shift[i] + widths[i] <= 63
        if i and layout.word[i] == layout.word[i - 1]:
            assert layout.shift[i - 1] == layout.shift[i] + widths[i]
        elif i:  # a new word, because the field did not fit the last one
            assert layout.word[i] == layout.word[i - 1] + 1 and layout.shift[i - 1] == 0
            last = [w for j, w in enumerate(widths) if layout.word[j] == layout.word[i - 1]]
            assert sum(last) + widths[i] > 63
    assert layout.shift[8] == 0


def test_key_words_follow_the_rows_range():
    # the enumerator's layout takes one word exactly up to fmax = 1024,
    # cutoff 32, and two past it through the default budget's cutoff 42
    for fmax in range(2, f_threshold(42.0) + 1):
        m = math.isqrt(fmax - 1)
        layout = _key_layout(-m, m, fmax)
        _check_fields(layout)
        assert layout.words == (1 if fmax <= 1024 else 2), fmax
    # an entry of 2^30 beside the small ones of census2 (bits 31): F's
    # 63 bits, then two entries a word
    edge = _key_layout(-1, 1 << 30, 8 << 60)
    _check_fields(edge)
    assert edge.fmax == (1 << 63) - 1 and edge.words == 5
    # entries of both signs up to 2^30 take 32 bits, one a word
    both = _key_layout(-(1 << 30), 1 << 30, 8 << 60)
    _check_fields(both)
    assert both.fmax.bit_length() == 63 and both.bits == 32 and both.words == 9


@given(st.integers(-(1 << 30), 0), st.integers(0, 1 << 30), st.integers(0, 8 << 60))
def test_key_layout_never_splits_a_field(low, high, fmax):
    _check_fields(_key_layout(low, high, fmax))


def test_key_at_its_range_ends_stays_below_2_pow_63():
    # rows of all-low and all-high entries, their F at the layout's bound, for
    # every word count the entry bound allows
    for low, high in ((-31, 31), (-32, 32), (-1, 1 << 30), (-(1 << 30), 1 << 30)):
        layout = _key_layout(low, high, 8 * max(low * low, high * high))
        place = np.zeros((8, layout.words), dtype=object)
        place[np.arange(8), layout.word[1:]] = [1 << s for s in layout.shift[1:]]
        top = np.full(8, high - low, dtype=object) @ place
        top[0] += layout.fmax << layout.shift[0]
        assert all(0 <= w < 1 << 63 for w in top), (low, high)


def test_enumerate_pruned_past_the_one_word_key_sorts_the_same(census8, monkeypatch):
    # the two-word keys of cutoff 33 (entries in [-32, 32], F <= 1089),
    # forced on cutoff 8, build the same census
    key_layout = _key_layout
    assert (f_threshold(33.0), math.isqrt(f_threshold(33.0) - 1)) == (1089, 32)
    assert key_layout(-32, 32, 1089).words == 2
    monkeypatch.setattr("orbitcount.lattice._key_layout",
                        lambda low, high, fmax: key_layout(-32, 32, 1089))
    wide = enumerate_pruned(8.0)
    assert wide.rows.dtype == np.int32 and wide.fnorm.dtype == np.int64
    assert np.array_equal(wide.rows, census8.rows)
    assert np.array_equal(wide.fnorm, census8.fnorm)
    assert wide.cutoff == census8.cutoff


def test_two_word_keys_sort_and_decode_to_the_census(census8):
    layout = _key_layout(-32, 32, 1089)
    shuffled = census8.rows[np.random.default_rng(33).permutation(census8.size)]
    key = _row_keys(shuffled, 0, layout)
    assert key.shape == (census8.size, 2)
    got = _census_from_keys(_sort_keys(key), layout, 8.0)
    assert np.array_equal(got.rows, census8.rows) and got.rows.dtype == np.int32
    assert np.array_equal(got.fnorm, census8.fnorm) and got.fnorm.flags.c_contiguous
    assert got.cutoff == census8.cutoff
    twice = np.concatenate([shuffled, shuffled[1234:1235]])
    with pytest.raises(InputError) as exc:
        _census_from_keys(_sort_keys(_row_keys(twice, 0, layout)), layout, 8.0)
    assert str(exc.value) == f"duplicate row {shuffled[1234].tolist()}"


def test_key_builder_refuses_what_its_layout_cannot_hold():
    layout = _key_layout(-3, 3, 30)
    good = np.array([[1, 0, 3, -3, 0, 0, 1, 0], [1, 0, 0, 0, -3, 3, 1, 0]], dtype=np.int64)
    keys = _row_keys(good, 0, layout)
    assert keys.shape == (2, 1) and keys[1, 0] < keys[0, 0]  # same F, re a and im a; re b 0 < 3
    assert (keys[:, 0] >> (8 * layout.bits)).tolist() == [20, 20]
    for entry in (4, -4, 1 << 40):
        bad = good.copy()
        bad[1, 2] = entry
        with pytest.raises(InputError, match=r"row 8: an entry is outside \[-3, 3\]"):
            _row_keys(bad, 7, layout)
    with pytest.raises(InputError, match="row 5: F exceeds 19"):
        _row_keys(good, 5, _key_layout(-3, 3, 19))  # F = 20 is no wider, but past fmax
    with pytest.raises(InputError, match="row 3: determinant is not 1"):
        _row_keys(good * [1, 1, 1, 1, 1, 1, 2, 1], 3, layout)  # d doubled


def test_from_rows_refuses_entries_beyond_2_pow_30(census4):
    for entry in (2**32, (1 << 30) + 1, -(1 << 30) - 1, -(2**63)):
        row = np.array([[1, 0, entry, 0, 0, 0, 1, 0]], dtype=np.int64)
        with pytest.raises(InputError, match=f"row {census4.size}: an entry exceeds"):
            Census.from_rows(np.concatenate([census4.rows, row]), cutoff=None)
    edge = np.array([[1, 0, 1 << 30, 0, 0, 0, 1, 0]], dtype=np.int64)
    got = Census.from_rows(np.concatenate([census4.rows, edge]), cutoff=None)
    assert got.size == census4.size + 1 and got.fnorm[-1] == 2 + (1 << 60)


def test_from_rows_rejects_duplicates(census4):
    rows = np.concatenate([census4.rows, np.repeat(census4.rows[100:101], 5, axis=0)])
    with pytest.raises(InputError, match="duplicate row"):
        Census.from_rows(rows, cutoff=4.0)


def test_to_csv_matches_per_row_format(tmp_path, census8):
    lines = [CSV_HEADER] + [",".join(str(int(v)) for v in ints) for ints in census8.rows]
    path = tmp_path / "c8.csv"
    census8.to_csv(path)
    text = path.read_text()
    assert text.endswith("\n")
    assert text[:-1].split("\n") == lines  # a list diff names the first bad row
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "1c998e701d28cf424fd9fcb494679f2a3bfa01de47c5b6a812b23cdf9c484a47"
    assert path.stat().st_size == 813_200


def test_to_csv_wide_and_negative_entries(tmp_path):
    # one-, two-, three- and ten-digit entries of both signs in every column
    rows = set()
    for m in (0, 1, 9, 10, 99, 100, 999, 1 << 30):
        for v in (m, -m):
            for w in (0, 7, -v):
                rows |= {
                    (1, 0, v, w, 0, 0, 1, 0),  # [[1, b], [0, 1]]
                    (-1, 0, w, v, 0, 0, -1, 0),  # [[-1, b], [0, -1]]
                    (1, 0, 0, 0, v, w, 1, 0),  # [[1, 0], [c, 1]]
                    (0, 0, -1, 0, 1, 0, v, w),  # [[0, -1], [1, d]]
                    (v, w, 1, 0, -1, 0, 0, 0),  # [[a, 1], [-1, 0]]
                }
    census = Census.from_rows(sorted(rows), cutoff=None)
    path = tmp_path / "wide.csv"
    census.to_csv(path)
    line = ",".join(["%d"] * 8) + "\n"
    expected = CSV_HEADER + "\n" + "".join(line % tuple(r) for r in census.rows.tolist())
    assert path.read_text() == expected
    # not a complete census, so read back through the row reader: +-2^30,
    # the widest entry a row holds, comes back exactly as int32, and
    # from_csv refuses the file only as incomplete
    back = _read_csv_rows(path)
    assert back.dtype == np.int32 and np.array_equal(back, census.rows)
    with pytest.raises(InputError, match="cannot be a complete census"):
        Census.from_csv(path)


@pytest.mark.parametrize(
    "bad",
    [
        "1,0,0,0,0,0,1",  # 7 fields
        "1,0,0,0,0,0,1,0,0",  # 9 fields
        "1.5,0,0,0,0,0,1,0",
        "x,0,0,0,0,0,1,0",
        "1,0,0,0,0,0,1,99999999999999999999",  # past int64
        "",  # blank line between rows
    ],
)
def test_from_csv_rejects_malformed_rows(tmp_path, census2, bad):
    good = tmp_path / "good.csv"
    census2.to_csv(good)
    lines = good.read_text().splitlines()
    lines.insert(5, bad)
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InputError, match=re.escape(f"{path}:6:")):
        Census.from_csv(path)


def test_from_csv_rejects_uniform_wrong_width(tmp_path, census2):
    # every row 7 integers: one width throughout, still not a census
    path = tmp_path / "narrow.csv"
    rows = [",".join(str(int(v)) for v in ints[:7]) for ints in census2.rows]
    path.write_text("\n".join([CSV_HEADER, *rows]) + "\n")
    with pytest.raises(InputError, match=re.escape(f"{path}:2: expected 8 integers")):
        Census.from_csv(path)


def test_csv_roundtrip_bytes(tmp_path, census2):
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    census2.to_csv(p1)
    back = Census.from_csv(p1)
    assert back.row_set() == census2.row_set()
    back.to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_worker_determinism():
    a = enumerate_pruned(2.0, workers=1)
    b = enumerate_pruned(2.0, workers=3)
    assert np.array_equal(a.rows, b.rows)


def test_budget_error():
    with pytest.raises(InputError, match="work budget"):
        enumerate_naive(8.0, budget=1000)
    with pytest.raises(InputError, match="work budget"):
        enumerate_pruned(8.0, budget=1000)
    # Past the 37,248-pair column scan: the t-disk cells exceed the budget.
    for workers in (1, 2):
        with pytest.raises(InputError, match="work budget"):
            enumerate_pruned(8.0, budget=50_000, workers=workers)


def test_budget_error_names_a_lower_bound_and_the_flag():
    # the check stops counting at the first block over the budget, so the
    # figure is a lower bound on the 96,712 the run needs
    with pytest.raises(InputError, match=r"needs at least \d+ .*; raise --budget to proceed$") as exc:
        enumerate_pruned(8.0, budget=50_000)
    estimated = int(re.search(r"needs at least (\d+) ", str(exc.value)).group(1))
    assert 50_000 < estimated <= 96_712


@pytest.mark.parametrize("workers", [1, 2])
def test_budget_counts_the_whole_census(workers):
    # 96,712 = 37,248 column pairs + the t-square cells of a scan of every a
    with pytest.raises(InputError, match="work budget"):
        enumerate_pruned(8.0, budget=96_711, workers=workers)
    assert enumerate_pruned(8.0, budget=96_712, workers=workers).size == 42248


@pytest.mark.parametrize("enumerate_", [enumerate_literal, enumerate_naive, enumerate_pruned])
def test_budget_refuses_before_the_entry_box(enumerate_, peak_bytes):
    # cutoff 2000's box holds 12.6 million Gaussian integers; building it
    # first peaked at 674 MB
    def refuse():
        with pytest.raises(InputError, match="work budget"):
            enumerate_(2000.0)

    assert peak_bytes(refuse) < 1 << 20


def test_shell_counts_partition(census2, census8):
    bins = shell_counts(census8)
    assert sum(n for _left, n in bins) == census8.size
    # a nan width used to warn in the cast to int and then raise a bare
    # ValueError; an infinite one made a bin whose left edge was nan
    for width in (0.0, -0.25, math.nan, math.inf):
        with pytest.raises(InputError, match=f"bin width must be finite and positive, got {width}"):
            shell_counts(census8, width)
    # a width with more bins than rows used to allocate 98 GiB (1e-10), warn
    # in the cast to int (1e-300) or warn on overflow (5e-324)
    for width in (1e-10, 1e-300, 5e-324):
        with pytest.raises(InputError, match="makes more bins than the census's 136 rows"):
            shell_counts(census2, width)
    # the bound is exact: 136 bins for 136 rows pass, 137 do not
    r_max = float(census2.shell_table.radius.max())
    assert len(shell_counts(census2, r_max / 135.5)) == 136
    with pytest.raises(InputError, match="more bins"):
        shell_counts(census2, r_max / 136.5)
    assert shell_counts(census2, 1e308) == [(0.0, census2.size)]


@pytest.mark.parametrize("cutoff", [8.0, 16.0])
def test_form_counts_match_the_enumerator(cutoff):
    fmax = f_threshold(cutoff)
    counts = np.bincount(enumerate_pruned(cutoff).fnorm, minlength=fmax + 1)
    assert np.array_equal(form_counts(fmax), counts)


def _r3(ns: np.ndarray) -> np.ndarray:
    """r3(n), the points of Z^3 with |v|^2 = n, as sums of r2(n - z^2) over
    z, from a table of r2 over the whole disk."""
    m = math.isqrt(int(ns.max()))
    sq = np.arange(-m, m + 1) ** 2
    r2 = np.bincount((sq[:, None] + sq[None, :]).ravel())
    return np.array([r2[n - sq[sq <= n]].sum() for n in ns.tolist()])


def _legendre_excluded(n: int) -> bool:
    """n = 4^a (8 b + 7): not a sum of three squares."""
    while n and n % 4 == 0:
        n //= 4
    return n % 8 == 7


def test_form_counts_are_sums_of_three_squares():
    # N(F) = 8 r3(F^2 - 4) for even F and (8/3) r3(F^2 - 4) for odd F, far
    # past the cutoffs the enumerator reaches
    f = np.arange(2, 1025)
    n = form_counts(1024)[2:]
    r3 = _r3(f * f - 4)
    assert np.array_equal(np.where(f % 2, 3, 1) * n, 8 * r3)
    # so by Legendre's three-square theorem N(F) = 0 exactly when
    # F^2 - 4 = 4^a (8 b + 7): 150 shells up to 1024, the first F = 8
    empty = [_legendre_excluded(int(x) ** 2 - 4) for x in f]
    assert np.array_equal(n == 0, empty)
    assert sum(empty) == 150 and f[empty.index(True)] == 8


def test_complete_census_bound():
    # from_csv refuses fewer than 2 fmax^2 rows before tabulating: a
    # complete census ending at shell fmax always holds at least that many
    n = form_counts(255)
    total = np.cumsum(n)
    for fmax in range(2, 256):
        if n[fmax]:
            assert total[fmax] >= 2 * fmax * fmax, fmax


def test_from_csv_refuses_a_missing_shell(tmp_path, census4):
    path = tmp_path / "c4.csv"
    Census.from_rows(census4.rows[census4.fnorm != 5], cutoff=None).to_csv(path)
    with pytest.raises(InputError, match="shell F = 5 holds 0 rows, a complete census holds 128"):
        Census.from_csv(path)


def test_from_csv_refuses_a_missing_row(tmp_path, census4):
    for drop in (0, 1000, census4.size - 1):
        path = tmp_path / f"c4-{drop}.csv"
        Census.from_rows(np.delete(census4.rows, drop, axis=0), cutoff=None).to_csv(path)
        f = int(census4.fnorm[drop])
        with pytest.raises(InputError, match=f"shell F = {f} holds"):
            Census.from_csv(path)


def test_from_csv_refuses_an_empty_census(tmp_path):
    # every census holds the 8 compact elements
    path = tmp_path / "empty.csv"
    path.write_text(CSV_HEADER + "\n")
    with pytest.raises(InputError, match="0 rows cannot be a complete census up to shell F = 2"):
        Census.from_csv(path)


def test_from_csv_refuses_too_few_rows_before_tabulating(tmp_path, monkeypatch):
    # [[1, b], [0, 1]] with |b|^2 = 2^40: F near 2^40 would need a huge table
    path = tmp_path / "far.csv"
    rows = np.concatenate([compact_stabilizer_rows(), [[1, 0, 1 << 20, 0, 0, 0, 1, 0]]])
    Census.from_rows(rows, cutoff=None).to_csv(path)
    monkeypatch.setattr("orbitcount.lattice.form_counts", None)  # never reached
    with pytest.raises(InputError, match=f"9 rows cannot be a complete census up to shell F = {2 + (1 << 40)}"):
        Census.from_csv(path)


def _lines(header, rows, end=b"\n", last=b"\n"):
    return end.join([header, *rows]) + last


def _line_4(header, rows, row):
    return _lines(header, [*rows[:2], row, *rows[3:]])


_HEADER_MESSAGE = "expected census header"

# (name, edit of the file's header, rows and bytes, answer): None where the
# file loads as the census, else the error message
_EDGE_FILES = [
    ("crlf", lambda h, r, t: _lines(h, r, b"\r\n", b"\r\n"), None),
    ("cr", lambda h, r, t: _lines(h, r, b"\r", b"\r"), None),
    ("no-final-newline", lambda h, r, t: _lines(h, r, last=b""), None),
    ("extra-final-newlines", lambda h, r, t: _lines(h, r, last=b"\n\n\n"), None),
    ("leading-blank-line", lambda h, r, t: b"\n" + t, None),
    ("spaces-after-the-header", lambda h, r, t: t.replace(b"\n", b"   \n", 1), None),
    ("spaces-around-fields", lambda h, r, t: _lines(h, [b" , ".join(x.split(b",")) for x in r]), None),
    ("leading-plus", lambda h, r, t: _lines(h, [re.sub(rb"(^|,)(\d)", rb"\1+\2", x) for x in r]), None),
    ("whitespace-only-line", lambda h, r, t: _line_4(h, r, b"   "), ":4: expected 8 integers, got '   '"),
    ("blank-line-lf", lambda h, r, t: _lines(h, [*r[:2], b"", *r[2:]]), ":4: blank line inside the census"),
    (
        "blank-line-crlf",
        lambda h, r, t: _lines(h, [*r[:2], b"", *r[2:]], b"\r\n", b"\r\n"),
        ":4: blank line inside the census",
    ),
    (
        "blank-line-cr",
        lambda h, r, t: _lines(h, [*r[:2], b"", *r[2:]], b"\r", b"\r"),
        ":4: blank line inside the census",
    ),
    ("tab-separator", lambda h, r, t: _line_4(h, r, r[2].replace(b",", b"\t", 1)), ":4: expected 8 integers"),
    ("trailing-comma", lambda h, r, t: _line_4(h, r, r[2] + b","), ":4: expected 8 integers"),
    ("comment", lambda h, r, t: _line_4(h, r, r[2] + b" # note"), ":4: expected 8 integers"),
    ("nul-byte", lambda h, r, t: _line_4(h, r, r[2] + b"\x00"), ":4: expected 8 integers"),
    # a form feed does not end a line
    ("form-feed-between-rows", lambda h, r, t: _line_4(h, r, r[2] + b"\x0c" + r[3]), ":4: expected 8 integers"),
    ("damaged-last-row", lambda h, r, t: _lines(h, [*r[:-1], r[-1] + b",0"]), ":2537: expected 8 integers"),
    (
        "blank-line-before-the-last-row",
        lambda h, r, t: _lines(h, [*r[:-1], b"", r[-1]]),
        ":2537: blank line inside the census",
    ),
    ("latin-1-byte", lambda h, r, t: t[:50] + b"\xe9" + t[50:], ": not UTF-8 text at byte 50"),
    ("bom-before-the-header", lambda h, r, t: b"\xef\xbb\xbf" + t, _HEADER_MESSAGE),
    ("empty-file", lambda h, r, t: b"", _HEADER_MESSAGE),
    ("header-only", lambda h, r, t: h + b"\n", "0 rows cannot be a complete census up to shell F = 2"),
    # the row checks of Census.from_rows; rows count from 0 below the header
    ("wrong-determinant", lambda h, r, t: _lines(h, [b"-1,0,0,0,0,0,-2,0", *r[1:]]),
     ": row 0: determinant is not 1"),
    ("duplicate-row", lambda h, r, t: _lines(h, [r[0], *r]),
     ": duplicate row [-1, 0, 0, 0, 0, 0, -1, 0]"),
    ("entry-past-2^30", lambda h, r, t: _lines(h, [*r, b"1,0,1073741825,0,0,0,1,0"]),
     ": row 2536: an entry exceeds 2^30 in absolute value"),
    # rows are parsed as int32: 2^31 - 1 fits it and is refused by the row
    # check, 2^31 and -2^31 - 1 do not and are refused on the parse path,
    # with the same message naming the same row
    ("entry-2^31-1", lambda h, r, t: _lines(h, [*r, b"1,0,2147483647,0,0,0,1,0"]),
     ": row 2536: an entry exceeds 2^30 in absolute value"),
    ("entry-2^31", lambda h, r, t: _lines(h, [*r, b"1,0,2147483648,0,0,0,1,0"]),
     ": row 2536: an entry exceeds 2^30 in absolute value"),
    ("entry-minus-2^31-1", lambda h, r, t: _lines(h, [*r, b"1,0,0,0,-2147483649,0,1,0"]),
     ": row 2536: an entry exceeds 2^30 in absolute value"),
    ("entry-2^31-inside", lambda h, r, t: _line_4(h, r, b"1,0,2147483648,0,0,0,1,0"),
     ": row 2: an entry exceeds 2^30 in absolute value"),
    # the first row past 2^30 is named, though a later one stops the parse
    ("entry-past-2^30-before-one-past-int32",
     lambda h, r, t: _lines(h, [*r[:2], b"1,0,1073741825,0,0,0,1,0", *r[3:], b"1,0,2147483648,0,0,0,1,0"]),
     ": row 2: an entry exceeds 2^30 in absolute value"),
]


@pytest.mark.parametrize("edit, answer", [e[1:] for e in _EDGE_FILES], ids=[e[0] for e in _EDGE_FILES])
def test_from_csv_edge_files(tmp_path, census4, edit, answer):
    # line ends, outer whitespace and field padding that loadtxt takes are
    # accepted; any other damage is refused, naming the line where it can
    good = tmp_path / "good.csv"
    census4.to_csv(good)
    text = good.read_bytes()
    header, *rows = text.split(b"\n")[:-1]
    path = tmp_path / "edge.csv"
    path.write_bytes(edit(header, rows, text))
    if answer is None:
        assert np.array_equal(Census.from_csv(path).rows, census4.rows)
    else:
        with pytest.raises(InputError, match=re.escape(answer)) as exc:
            Census.from_csv(path)
        assert str(exc.value).startswith(f"{path}")


# Peak traced bytes per census row.  Rows are 32 bytes (8 int32 entries);
# the sort key, which becomes F in place, is 8 bytes a row.

def test_from_csv_holds_the_rows_once(tmp_path, census8, peak_bytes):
    # the file's bytes (19.2 a row), the rows once and the key array, F
    # shifted out of it in place: 58.7 measured.  With F beside the key it
    # read 64.9, with int64 rows 88.0; a reader that also held the text, its
    # lines or a sorted copy of int64 rows read 148
    path = tmp_path / "c8.csv"
    census8.to_csv(path)
    assert peak_bytes(lambda: Census.from_csv(path)) <= 65 * census8.size


def test_enumerate_pruned_frees_its_blocks(census8, peak_bytes):
    # at cutoff 8 the scan's first block of a values (two thirds of the rows)
    # sets the peak: 72.6 measured.  Sorting a joined copy of the int32 rows
    # through a permutation read 104.4, with int64 rows 145.2; keeping the
    # scan blocks alive through the sort, 209
    assert peak_bytes(lambda: enumerate_pruned(8.0)) <= 80 * census8.size


def test_enumerate_pruned_at_cutoff_12_frees_its_blocks(peak_bytes):
    # the sorted keys and the rows decoded from them (40 a row), and one
    # block's decode: 45.0 measured.  The scan's first block peaks just
    # under it.  Joining the int32 blocks and sorting them through a
    # permutation and a gathered copy read 83.1, with int64 rows 145.1
    built = []
    peak = peak_bytes(lambda: built.append(enumerate_pruned(12.0)))
    assert built[0].size == 211_592
    assert peak <= 50 * built[0].size


def test_from_rows_of_shuffled_rows_sorts_their_keys_in_place(peak_bytes):
    # the key array, sorted in place, and the rows decoded from it one block
    # at a time: 45.0 measured at cutoff 12.  An argsort permutation and
    # gathered copies of the rows and F read 51.1, and decoding every key
    # at once 60.1
    census = enumerate_pruned(12.0)
    shuffled = census.rows[np.random.default_rng(12).permutation(census.size)]
    built = []
    peak = peak_bytes(lambda: built.append(Census.from_rows(shuffled, cutoff=12.0)))
    assert np.array_equal(built[0].rows, census.rows)
    assert np.array_equal(built[0].fnorm, census.fnorm)
    assert peak <= 51.1 * census.size  # no more than the permutation's sort


def test_census_csv_at_cutoff_12_is_pinned(tmp_path):
    # the census of the benchmark's build workload, byte for byte
    path = tmp_path / "c12.csv"
    enumerate_pruned(12.0).to_csv(path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "f963514786fb9d0888435ec4687afaf0b326f5fa83f1768c37767e54d99f93ff"


def test_rows_are_int32_on_every_path(tmp_path, census4):
    # from_rows keeps canonical int32 rows without a copy, and narrows any
    # other input once its entries are checked
    path = tmp_path / "c4.csv"
    census4.to_csv(path)
    wide = census4.rows.astype(np.int64)
    built = [
        census4,
        enumerate_naive(4.0),
        Census.from_csv(path),
        Census.from_rows(census4.rows.tolist(), cutoff=4.0),
        Census.from_rows(wide, cutoff=4.0),
        Census.from_rows(wide[::-1], cutoff=4.0),
    ]
    for census in built:
        assert census.rows.dtype == np.int32 and census.fnorm.dtype == np.int64
        assert np.array_equal(census.rows, census4.rows)
        assert np.array_equal(census.fnorm, census4.fnorm)
    assert not np.shares_memory(built[4].rows, wide)
    assert np.shares_memory(Census.from_rows(census4.rows, cutoff=4.0).rows, census4.rows)
    assert compact_stabilizer_rows().dtype == np.int32
