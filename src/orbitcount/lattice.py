"""Exact census enumeration for the Gaussian-integer unimodular lattice.

Elements are 2x2 matrices [[a, b], [c, d]] over Z[i] with a d - b c = 1.
All arithmetic that decides membership, ordering, or shell structure is
exact integer arithmetic on the quantity

    F = |a|^2 + |b|^2 + |c|^2 + |d|^2  (an integer),

because for unimodular matrices the gauge (largest singular value) obeys
gauge^2 = (F + sqrt(F^2 - 4)) / 2, so

    gauge <= B  <=>  F <= B^2 + B^{-2},
    radius = arccosh(F / 2) = 2 log(gauge).

A census is therefore a finite, exactly reproducible object: integer rows
sorted by the canonical key (F, re a, im a, re b, im b, re c, im c, re d,
im d).  Its CSV file holds those 8 integers per row and nothing else;
radius and gauge are derived from F.

A census sum of a radial function is a sum over shells of constant F, which
the sums read from :attr:`Census.shell_table`.  Shell sizes have a closed
form (:func:`form_counts`); :meth:`Census.from_csv` refuses a file without them,
and :func:`enumerate_pruned` a census it built.

Two enumerators are provided and cross-checked in the tests:

* :func:`enumerate_pruned` -- the production path.  Scans coprime first
  columns (a, c) (Euclid in Z[i] with nearest-rounding division),
  completes each to a unimodular matrix by the extended Euclid identity,
  and walks the finite family of completions (b0 + t a, d0 + t c) over
  Gaussian integers t in a disk.  Only a = 0 and a in the quadrant
  {re a > 0, im a >= 0} are scanned; left multiplication by the unit
  diagonals diag(u, conj u) maps the census onto itself, keeps F, and
  turns that quarter into the rest.  Vectorized: each block of
  first-column values a is one numpy pass (Euclid on int64 pair arrays,
  t-disks expanded into candidate arrays, exact F filter, rotation).  It
  is the faster of the two at every cutoff from 2 up; below that both
  take under a millisecond.
* :func:`enumerate_naive` -- box scan over (a, b, c) with the determinant
  forcing d exactly (conjugate-multiply then divisibility by |a|^2; the
  a = 0 branch is handled separately).  Vectorized; the work budget is the
  cube of the box size and is checked before any allocation.  Test oracle.

Both must produce identical censuses.  tests/lattice_oracles.py holds the
pure-Python oracles only tests need: a four-entry literal box scan and the
scalar extended Euclid that ``_gxgcd_arrays`` vectorizes.
"""

from __future__ import annotations

import io
import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, InputError

CSV_HEADER = "re_a,im_a,re_b,im_b,re_c,im_c,re_d,im_d"

#: Census rows formatted per write by :meth:`Census.to_csv`.
_CSV_BLOCK = 8192

#: Default cap on candidate tuples examined by an enumeration call: the
#: pruned scan admits cutoff 42 (71,396,840) and refuses 42.5 (75,164,168).
DEFAULT_WORK_BUDGET = 74_000_000

#: First-column values a per numpy pass of :func:`enumerate_pruned`.  Keeps
#: the per-pass arrays to a few MB at the cutoffs the work budget admits.
_PRUNED_BLOCK = 16

#: The 8 gauge-1 elements (the lattice's intersection with the compact
#: subgroup): 4 diagonal unit matrices and 4 antidiagonal ones.
COMPACT_COUNT = 8

#: Largest |entry| a census row may hold: it keeps F and the determinant
#: (sums of products of two entries) inside int64.
MAX_ENTRY = 1 << 30


# ---------------------------------------------------------------------------
# Gaussian-integer arithmetic on (re, im) int pairs

Gint = tuple[int, int]


def gmul(x: Gint, y: Gint) -> Gint:
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def gconj(x: Gint) -> Gint:
    return (x[0], -x[1])


def gneg(x: Gint) -> Gint:
    return (-x[0], -x[1])


def gadd(x: Gint, y: Gint) -> Gint:
    return (x[0] + y[0], x[1] + y[1])


def gsub(x: Gint, y: Gint) -> Gint:
    return (x[0] - y[0], x[1] - y[1])


def gnorm(x: Gint) -> int:
    return x[0] * x[0] + x[1] * x[1]


def _round_nearest(p: int, n: int) -> int:
    """Nearest integer to p/n for n > 0, ties toward +infinity."""
    return (2 * p + n) // (2 * n)


def _gxgcd_arrays(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Extended Euclid in Z[i] on many pairs at once.

    x, y are (2, N) int64 arrays of (re, im) rows.  Each step divides with
    nearest rounding, q = round(r0 conj(r1) / |r1|^2), so |r|^2 <= |r1|^2 / 2
    and the loop ends fast; a pair leaves the working set once its
    remainder is zero.  Returns (g, u, v), each (2, N),
    with u x + v y = g.
    """
    n = x.shape[1]
    zero, one = np.zeros(n, np.int64), np.ones(n, np.int64)
    state = [(x[0], x[1]), (y[0], y[1]), (one, zero), (zero, zero), (zero, zero), (one, zero)]
    out = np.empty((3, 2, n), dtype=np.int64)
    idx = np.arange(n)
    while idx.size:
        r0, r1, u0, u1, v0, v1 = state
        done = (r1[0] == 0) & (r1[1] == 0)
        if done.any():
            out[:, :, idx[done]] = np.array([r0, u0, v0])[:, :, done]
            idx = idx[~done]
            r0, r1, u0, u1, v0, v1 = state = [(re[~done], im[~done]) for re, im in state]
        norm = gnorm(r1)
        p = gmul(r0, gconj(r1))
        q = (_round_nearest(p[0], norm), _round_nearest(p[1], norm))
        state = [r1, gsub(r0, gmul(q, r1)), u1, gsub(u0, gmul(q, u1)), v1, gsub(v0, gmul(q, v1))]
    return out[0], out[1], out[2]


# ---------------------------------------------------------------------------
# census container


def f_threshold(cutoff: float) -> int:
    """Largest integer F compatible with gauge <= cutoff.

    gauge <= B  <=>  F <= B^2 + B^{-2}; the 1e-9 guard keeps cutoffs that
    are themselves exact gauges (golden ratio and friends) inside the
    census, per the boundary-inclusive convention.

    A cutoff above n = MAX_ENTRY + 1 is refused before it is squared: its
    census holds [[1, n], [0, 1]] (gauge < n + 1/n, and the next float above
    n is n + 2^-22), a row :meth:`Census.from_rows` refuses at any budget.
    """
    if not cutoff >= 1.0:  # nan too
        raise InputError(
            f"cutoff {cutoff} is not a number >= 1.0, the gauge of the {COMPACT_COUNT} "
            "compact-stabilizer elements; censuses start at cutoff 1.0"
        )
    if cutoff > MAX_ENTRY + 1:
        raise InputError(f"cutoff {cutoff} is above {MAX_ENTRY + 1}: its census would hold "
                         "an entry that exceeds 2^30 in absolute value, the bound on a census row")
    b2 = float(cutoff) ** 2
    return int(math.floor(b2 + 1.0 / b2 + 1e-9))


class ShellTable(NamedTuple):
    """Each run of constant F, in canonical order: F, row count, arccosh(F/2)."""

    fnorm: np.ndarray
    count: np.ndarray
    radius: np.ndarray

    @property
    def start(self) -> np.ndarray:  # each shell's first census row
        return np.cumsum(self.count) - self.count


@dataclass(frozen=True)
class Census:
    """All lattice elements with gauge <= cutoff, canonically sorted.

    A census that reaches a consumer is certified: :meth:`from_csv` and
    :func:`enumerate_pruned` refuse it unless every shell holds its
    :func:`form_counts` rows.  So its first shell is F = 2, the 8 gauge-1 rows.

    rows: int64 array (N, 8), columns re_a, im_a, ..., re_d, im_d.
    fnorm: int64 array (N,), the exact F of each row (nondecreasing).
    cutoff: enumeration cutoff (or max observed gauge for loaded files).
    """

    rows: np.ndarray
    fnorm: np.ndarray
    cutoff: float

    @property
    def size(self) -> int:
        return int(self.rows.shape[0])

    @cached_property
    def shell_table(self) -> ShellTable:
        start = np.flatnonzero(np.diff(self.fnorm, prepend=-1))
        f = self.fnorm[start]
        return ShellTable(f, np.diff(start, append=self.size), np.arccosh(0.5 * f.astype(float)))

    def shells(self) -> list[tuple[int, int, int]]:
        """Runs of constant F: list of (F, start, stop) in canonical order."""
        t = self.shell_table
        return list(zip(t.fnorm.tolist(), t.start.tolist(), np.cumsum(t.count).tolist()))

    def row_set(self) -> set[tuple[int, ...]]:
        return {tuple(int(v) for v in row) for row in self.rows}

    def to_csv(self, path: str | Path) -> None:
        # Blocks of rows, so the formatted bytes never hold the whole census.
        with open(path, "wb") as fh:
            fh.write(CSV_HEADER.encode() + b"\n")
            for start in range(0, self.size, _CSV_BLOCK):
                fh.write(_csv_bytes(self.rows[start : start + _CSV_BLOCK]))

    @classmethod
    def from_csv(cls, path: str | Path) -> "Census":
        """Load a census file, refused unless each shell up to its largest F
        holds all :func:`form_counts` rows.  Every refusal names the file."""
        rows = _read_csv_rows(path)
        try:
            census = cls.from_rows(rows, cutoff=None)
        except InputError as exc:  # a row check
            raise InputError(f"{path}: {exc}") from None
        t = census.shell_table
        fmax = int(t.fnorm[-1]) if census.size else 2  # F = 2: the compact part
        # a complete census up to fmax holds 2.0 to 11.9 fmax^2 rows; this
        # bound also keeps a huge F from sizing form_counts' tables
        if census.size < 2 * fmax * fmax:
            raise InputError(
                f"{path}: {census.size} rows cannot be a complete census up to "
                f"shell F = {fmax}, which holds at least {2 * fmax * fmax}"
            )
        wrong = census._wrong_shell(fmax)
        if wrong:
            raise InputError(f"{path}: {wrong}; rebuild it with `orbitcount enumerate`")
        return census

    def _wrong_shell(self, fmax: int) -> str | None:
        """The first shell whose row count is not :func:`form_counts`' (0
        above fmax), described, or None when every shell is complete."""
        got = np.bincount(self.fnorm, minlength=fmax + 1)
        want = np.zeros_like(got)
        want[: fmax + 1] = form_counts(fmax)
        bad = np.flatnonzero(got != want)
        if not bad.size:
            return None
        f = bad[0]
        return f"shell F = {f} holds {got[f]} rows, a complete census holds {want[f]}"

    @classmethod
    def from_rows(cls, arr: np.ndarray, cutoff: float | None) -> "Census":
        """Validate entries and determinants, derive F, sort canonically.

        Rows already in canonical order (every file :meth:`to_csv` writes)
        are kept as given: no permutation and no gathered copy.
        """
        arr = np.asarray(arr, dtype=np.int64).reshape(-1, 8)
        low, high = arr.min(initial=0), arr.max(initial=0)  # the sort key reads them too
        if high > MAX_ENTRY or low < -MAX_ENTRY:
            wide = ((arr > MAX_ENTRY) | (arr < -MAX_ENTRY)).any(axis=1)
            raise InputError(f"row {int(np.argmax(wide))}: an entry exceeds 2^30 in absolute value")
        bad = np.flatnonzero(
            (arr[:, 0] * arr[:, 6] - arr[:, 1] * arr[:, 7]
             - arr[:, 2] * arr[:, 4] + arr[:, 3] * arr[:, 5] != 1)
            | (arr[:, 0] * arr[:, 7] + arr[:, 1] * arr[:, 6]
               - arr[:, 2] * arr[:, 5] - arr[:, 3] * arr[:, 4] != 0)
        )
        if bad.size:
            raise InputError(f"row {bad[0]}: determinant is not 1")
        f = np.einsum("ij,ij->i", arr, arr)  # row sums of squares, no (N, 8) temporary
        order, same = _canonical_order(arr, f, low, high)
        if order is not None:
            f = f[order]
            arr = arr[order]
        dup = np.flatnonzero(same)
        if dup.size:
            raise InputError(f"duplicate row {arr[dup[0]].tolist()}")
        if cutoff is None:
            # Loaded files carry no cutoff; the max observed gauge is a valid
            # coverage bound (no element can sit between it and the original
            # cutoff, or it would have been enumerated).
            cutoff = float(np.exp(0.5 * np.arccosh(0.5 * float(f[-1])))) if f.size else 1.0
        return cls(rows=arr, fnorm=f, cutoff=float(cutoff))


def _csv_bytes(rows: np.ndarray) -> np.ndarray:
    """Rows as CSV text bytes, each integer as ``%d`` would print it.

    Every entry gets a slot of width + 2 bytes in an (N, 8, width + 2)
    grid, width the digit count of the largest |entry|: the digits
    right-aligned, a '-' in every place left of them and a ',' (or, after
    the 8th entry, a newline) last.  The mask keeps the digits, the
    separator and, for a negative entry, the '-' just left of the digits.
    """
    mag = np.abs(rows)
    width = len(str(int(mag.max(initial=0))))
    grid = np.full((*rows.shape, width + 2), ord("-"), dtype=np.uint8)
    grid[:, :, -1] = ord(",")
    grid[:, -1, -1] = ord("\n")
    keep = np.ones(grid.shape, dtype=bool)
    neg = rows < 0
    grid[:, :, width] = mag % 10 + ord("0")
    # slot width - p: the 10^p digit while mag >= 10^p, the sign place just
    # after, '-' (dropped) beyond
    for p in range(1, width + 1):
        high = mag >= 10  # mag is |entry| // 10^(p - 1)
        mag //= 10
        grid[:, :, width - p][high] = mag[high] % 10 + ord("0")
        keep[:, :, width - p] = high | neg
        neg &= high
    return grid[keep]


def _canonical_order(arr: np.ndarray, f: np.ndarray, low: int,
                     high: int) -> tuple[np.ndarray | None, np.ndarray]:
    """Permutation sorting rows by (F, re a, im a, ..., im d), and a mask of
    the sorted rows equal to their successor; ``low`` and ``high`` are the
    smallest and largest entry, 0 included.

    Every census up to cutoff 32 fits the key into one int64 word: F in the
    top bits, then each entry, shifted to start at 0, in the bit length of
    the entries' observed range.  Equal words are equal rows, so words that
    already strictly increase mean rows in canonical order without
    duplicates: the permutation is then None and the mask all False.  Wider
    rows are sorted on the 9 columns.
    """
    bits = int(high - low).bit_length()
    if int(f.max(initial=0)).bit_length() + 8 * bits <= 63:
        place = 1 << (bits * np.arange(7, -1, -1))
        # (arr - low) @ place, without an (N, 8) temporary; no partial sum
        # reaches 2^58, as 8 * bits <= 56
        key = arr @ place
        key -= low * place.sum()
        key += f << (8 * bits)
        rise = key[1:] > key[:-1]
        if rise.all():
            return None, ~rise
        keys = [key]
        order = np.argsort(key)
    else:
        keys = [f, *arr.T]
        order = np.lexsort(keys[::-1])
    same = np.logical_and.reduce([s[1:] == s[:-1] for s in (k[order] for k in keys)])
    return order, same


def _read_csv_rows(path: str | Path) -> np.ndarray:
    """A census CSV as an (N, 8) int64 array.

    Any row that is not 8 integers, and any blank line between rows, is an
    InputError naming the file and line.  The file is UTF-8 text whose lines
    end in LF, CRLF or CR; spaces, tabs and line ends around it are dropped.

    The file's bytes are read once, and loadtxt parses the rows from them as
    one text stream, which holds no copy of the text and no list of its
    lines; the line count sizes its output.  Only a file it refuses, or one
    that yields fewer rows than lines (a blank line), goes on to
    :func:`_bad_line`.
    """
    data = Path(path).read_bytes()
    start, end = 0, len(data)
    while start < end and data[start] in b" \t\r\n":
        start += 1
    while end > start and data[end - 1] in b" \t\r\n":
        end -= 1
    lf = data.count(b"\n", start, end)
    cr = crlf = 0
    if data.find(b"\r", start, end) >= 0:  # an LF-only file pays one count pass
        cr, crlf = data.count(b"\r", start, end), data.count(b"\r\n", start, end)
    raw = io.BytesIO(data)  # shares data's buffer
    raw.seek(start)
    text = io.TextIOWrapper(raw, encoding="utf-8", newline=None)
    try:
        if text.readline().strip() == CSV_HEADER:
            return _parse_csv(text, lf + cr - crlf)
    except (ValueError, Warning):
        pass
    raise _bad_line(path, data)


def _bad_line(path: str | Path, data: bytes) -> InputError:
    """The error for a census file :func:`_read_csv_rows` refused: a byte
    that is not UTF-8, the header, or the first line that is blank or does
    not parse as 8 integers, found by bisecting the rows with the same
    parse.  Lines are numbered from the header."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return InputError(f"{path}: not UTF-8 text at byte {exc.start}")
    lines = [line.rstrip("\n") for line in io.StringIO(text.strip(" \t\r\n"), newline=None)]
    if not lines or lines[0].strip() != CSV_HEADER:
        return InputError(
            f"{path}: expected census header '{CSV_HEADER}'; "
            "rebuild the census with `orbitcount enumerate`"
        )
    lo, hi = 1, len(lines)  # lines[lo:hi] holds the first bad line
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            _parse_csv(lines[lo:mid], mid - lo)
        except (ValueError, Warning):
            hi = mid
        else:
            lo = mid
    if not lines[lo]:
        return InputError(f"{path}:{lo + 1}: blank line inside the census")
    return InputError(f"{path}:{lo + 1}: expected 8 integers, got {lines[lo]!r}")


def _parse_csv(source, n_rows: int) -> np.ndarray:
    """n_rows lines of 8 integers from a text stream or a list of lines;
    ValueError or Warning otherwise."""
    if not n_rows:
        return np.zeros((0, 8), dtype=np.int64)
    with warnings.catch_warnings():
        # loadtxt only warns at a blank line and, on older numpy, at an
        # integer written as a float; both are damage
        warnings.simplefilter("error")
        # max_rows lets loadtxt size its output once instead of growing it.
        rows = np.loadtxt(
            source, dtype=np.int64, delimiter=",", comments=None, ndmin=2, max_rows=n_rows
        )
    # loadtxt accepts any width that every row shares
    if rows.shape != (n_rows, 8):
        raise ValueError(f"{rows.shape[0]} rows of {rows.shape[1]} columns")
    return rows


def form_counts(fmax: int) -> np.ndarray:
    """N(F), the number of lattice elements with that F, for F = 0, ..., fmax.

    g -> g g* maps the lattice onto the binary Hermitian forms [[x, w],
    [conj w, y]] over Z[i] with x y - |w|^2 = 1 and trace F, each form the
    image of :data:`COMPACT_COUNT` elements (Elstrodt, Grunewald and
    Mennicke, *Groups Acting on Hyperbolic Space*), so N(F) = 8 sum_{x=1}^{F-1}
    r2(x (F - x) - 1), r2(m) the number of w in Z[i] with |w|^2 = m, here
    4 times the count in the quarter disk {re w > 0, im w >= 0} for m > 0.
    Equivalently N(F) = 8 r3(F^2 - 4) for even F and (8/3) r3(F^2 - 4) for odd F.
    """
    m_max = max(fmax * fmax // 4 - 1, 0)
    side = np.arange(math.isqrt(m_max) + 1)
    norms = (side[1:, None] ** 2 + side[None, :] ** 2).ravel()
    r2 = 4 * np.bincount(norms[norms <= m_max], minlength=m_max + 1)
    r2[0] = 1
    f = np.arange(fmax + 1)[:, None]
    x = np.arange(1, max(fmax, 1))[None, :]
    m = np.where(x < f, x * (f - x) - 1, 0)  # x (F - x) - 1 >= F - 2 >= 0 there
    return COMPACT_COUNT * np.where(x < f, r2[m], 0).sum(axis=1)


def shell_counts(census: Census, width: float = 0.25) -> list[tuple[float, int]]:
    """Histogram of radii into [k w, (k+1) w) bins: list of (left edge, count).

    Bins are emitted for every k from 0 through the last occupied bin, so
    the counts always sum to census.size, and a width that would make more
    bins than the census has rows is refused before any array is made.
    """
    if not 0 < width < math.inf:  # nan too
        raise InputError(f"bin width must be finite and positive, got {width}")
    t = census.shell_table
    if float(t.radius.max()) / width + 1e-12 >= census.size:  # the last bin's k
        raise InputError(f"bin width {width} makes more bins than the census's {census.size} rows")
    idx = np.floor(t.radius / width + 1e-12).astype(int)
    counts = np.bincount(idx, weights=t.count)
    return [(k * width, int(n)) for k, n in enumerate(counts)]


# ---------------------------------------------------------------------------
# enumeration


def _gaussian_box(radius_sq: int) -> np.ndarray:
    """All Gaussian integers with |v|^2 <= radius_sq, as an (K, 2) int array."""
    m = int(math.isqrt(radius_sq))
    vals = np.arange(-m, m + 1, dtype=np.int64)
    re, im = np.meshgrid(vals, vals, indexing="ij")
    keep = re * re + im * im <= radius_sq
    return np.stack([re[keep], im[keep]], axis=1)


def _check_budget(estimate: int, budget: int, what: str) -> None:
    """Refuse a budget outside [0, 2^63), then an estimate over the budget: a
    lower bound, as a check may stop counting at the first step over it."""
    if not 0 <= budget < 1 << 63:  # then numpy can size every entry box
        raise InputError("work budget must be in [0, 2^63); set --budget within it")
    if estimate > budget:
        shown = str(estimate)  # not float(): it overflows past 1e308
        if len(shown) > 20:  # leading digits, truncated, so "at least" holds
            shown = f"{shown[0]}.{shown[1]}e+{len(shown) - 1}"
        raise InputError(f"{what} needs at least {shown} candidate evaluations, over the "
                         f"work budget of {budget}; raise --budget to proceed")


def _entry_box(fmax: int, budget: int, work, what: str) -> np.ndarray:
    """The Gaussian integers v with |v|^2 <= fmax - 1, which hold every entry
    of an element with F <= fmax (an entry with |v|^2 = F leaves the other
    three 0, and det 0), for a scan of ``work(k)`` candidates over k of them.

    The budget is checked first on the (2 isqrt((fmax - 1) // 2) + 1)^2
    points of the box's inscribed square, so a box too large to scan is
    refused before it is built, then on the box's exact size.
    """
    side = 2 * math.isqrt((fmax - 1) // 2) + 1
    _check_budget(work(side * side), budget, what)
    box = _gaussian_box(fmax - 1)
    _check_budget(work(box.shape[0]), budget, what)
    return box


def enumerate_naive(cutoff: float, *, budget: int = DEFAULT_WORK_BUDGET) -> Census:
    """Box-scan enumeration: exhaustive over (a, b, c), d forced by det = 1.

    The candidate count (box size cubed) is checked against the budget
    before anything is allocated, so oversized cutoffs fail fast.
    """
    fmax = f_threshold(cutoff)
    # the entry box holds every entry, so a box scan is a superset; F filters exactly.
    box = _entry_box(fmax, budget, lambda k: k**3, "naive enumeration")

    bre = box[:, 0][:, None]
    bim = box[:, 1][:, None]
    cre = box[:, 0][None, :]
    cim = box[:, 1][None, :]
    # num = 1 + b c, broadcast over the (b, c) grid once.
    num_re = 1 + bre * cre - bim * cim
    num_im = bre * cim + bim * cre

    pieces: list[np.ndarray] = []
    for ar, ai in box.tolist():
        na = ar * ar + ai * ai
        if na == 0:
            continue
        # d = (1 + b c) conj(a) / |a|^2, exact when both parts divide.
        pre = num_re * ar + num_im * ai
        pim = num_im * ar - num_re * ai
        ok = (pre % na == 0) & (pim % na == 0)
        if not ok.any():
            continue
        dre = pre[ok] // na
        dim = pim[ok] // na
        nb = (bre * bre + bim * bim + np.zeros_like(cre))[ok]
        nc = (np.zeros_like(bre) + cre * cre + cim * cim)[ok]
        nd = dre * dre + dim * dim
        f = na + nb + nc + nd
        keep = f <= fmax
        if not keep.any():
            continue
        bidx, cidx = np.nonzero(ok)
        rows = np.empty((int(keep.sum()), 8), dtype=np.int64)
        rows[:, 0] = ar
        rows[:, 1] = ai
        rows[:, 2:4] = box[bidx[keep]]
        rows[:, 4:6] = box[cidx[keep]]
        rows[:, 6] = dre[keep]
        rows[:, 7] = dim[keep]
        pieces.append(rows)

    # a = 0 branch: b c = -1 forces b to be a unit and c = -1/b; d is free
    # in the box subject to the F filter (F = 2 + |d|^2).
    zero_rows = []
    for b in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        c = gneg(gconj(b))  # -1/b for units
        for d in box.tolist():
            f = 2 + d[0] * d[0] + d[1] * d[1]
            if f <= fmax:
                zero_rows.append([0, 0, b[0], b[1], c[0], c[1], d[0], d[1]])
    pieces.append(np.asarray(zero_rows, dtype=np.int64))  # never empty: d = 0 has F = 2

    return Census.from_rows(np.concatenate(pieces), cutoff=cutoff)


def enumerate_pruned(
    cutoff: float,
    *,
    budget: int = DEFAULT_WORK_BUDGET,
    workers: int = 1,
) -> Census:
    """Production enumeration via coprime first columns.

    A pair (a, c) extends to a unimodular matrix iff gcd(a, c) is a unit in
    Z[i]; the extended Euclid identity u a + v c = 1 yields one completion
    (b0, d0) = (-v, u), and every completion is (b0 + t a, d0 + t c) for a
    Gaussian integer t.  With s = |a|^2 + |c|^2, w = a conj(b0) + c conj(d0)
    and F0 the F at t = 0, F(t) = F0 + s |t|^2 + 2 Re(t w), so the
    admissible t fill the disk (s t_re + w_re)^2 + (s t_im - w_im)^2 <= D =
    |w|^2 - s (F0 - fmax), of radius at most sqrt(fmax / s): each column
    contributes O(fmax / s) candidates.

    The map g -> diag(u, conj u) g, for a unit u, sends [[a, b], [c, d]] to
    [[u a, u b], [conj(u) c, conj(u) d]]; it keeps det = 1 and F, so it maps
    the census onto itself.  Each nonzero a has exactly one unit u with u a
    in Q = {re > 0, im >= 0}, so only a = 0 and a in Q are scanned; the rows
    with a in Q are then appended turned by i, -1 and -i.  The a = 0 rows
    are the whole a = 0 set as scanned, and no row is found twice.

    Each block of :data:`_PRUNED_BLOCK` scanned values a is one numpy
    pass: Euclid on all its (a, c) pairs at once, then every whole t in
    the square around each pair's disk, filtered by the exact F, expanded
    into (b, d) arrays and rotated.  Work counts the candidates a scan of
    every a evaluates: all (a, c) pairs of the entry box, plus the square
    cells of every coprime pair, where a pair with a in Q stands for its 4
    rotations (same cell count).
    It is checked against the budget before a block's candidates are
    allocated, so a budget stops the same cutoffs as a full scan would.
    :meth:`Census.from_rows` still checks every row, and every shell's
    count is checked against :func:`form_counts`: a wrong one is a census
    that cannot be certified (``ConvergenceError``).  The blocks are joined
    and freed before it sorts, so at most two copies of the rows are alive:
    the joined ones and their canonical gather.  Blocks are shared out to
    ``workers`` threads; the census is the same for any count.  Threads do
    not pay: at cutoff 12 on a 2-core x86 VM, 2 threads take 0.83-1.12x
    (median 0.98x) the 1-thread time, so the CLI always runs one.
    """
    fmax = f_threshold(cutoff)
    box = _entry_box(fmax, budget, lambda k: k * k - 1, "pruned enumeration (column scan)")
    k = box.shape[0]
    n_pairs = k * k - 1

    # a = 0 and the quadrant Q = {re a > 0, im a >= 0}; rotation fills the rest.
    scanned = box[(box[:, 0] > 0) & (box[:, 1] >= 0) | (box[:, 0] == 0) & (box[:, 1] == 0)]

    def scan_block(a_vals: np.ndarray, work: int) -> tuple[np.ndarray, int]:
        a = np.repeat(a_vals, k, axis=0).T
        c = np.tile(box, (a_vals.shape[0], 1)).T
        # (1 + i) divides z iff re z + im z is even, so a pair with both sums
        # even is not coprime.  Skipping those also drops the pair (0, 0).
        live = ((a[0] + a[1]) | (c[0] + c[1])) & 1 == 1
        a, c = a[:, live], c[:, live]
        g, u, v = _gxgcd_arrays(a, c)
        unit = gnorm(g) == 1
        a, c, g, u, v = (w[:, unit] for w in (a, c, g, u, v))
        ginv = gconj(g)  # inverse of a unit
        b0 = np.array(gneg(gmul(v, ginv)))
        d0 = np.array(gmul(u, ginv))
        # F(t) = F0 + s |t|^2 + 2 Re(t w) <= fmax is the disk
        # (s t_re + w_re)^2 + (s t_im - w_im)^2 <= D; root > sqrt(D) bounds
        # its square of whole t (float(D) is exact below 2^53, a cutoff of
        # about 8000).
        na = gnorm(a)
        s = na + gnorm(c)
        w = gadd(gmul(a, gconj(b0)), gmul(c, gconj(d0)))
        f0 = s + gnorm(b0) + gnorm(d0)
        disc = gnorm(w) - s * (f0 - fmax)
        root = np.floor(np.sqrt(np.maximum(disc, 0))).astype(np.int64) + (disc >= 0)
        lo_re, lo_im = -((w[0] + root) // s), -((root - w[1]) // s)
        n_im = (w[1] + root) // s - lo_im + 1
        # A pair with a != 0 stands for its 4 rotations: (u b0, conj(u) d0)
        # completes the rotated pair, and its disk is this one moved by a
        # Gaussian integer, so has the same cells.
        cells = ((root - w[0]) // s - lo_re + 1) * n_im
        work += int(4 * cells.sum() - 3 * cells[na == 0].sum())
        _check_budget(n_pairs + work, budget, "pruned enumeration")

        pair, step = _runs(cells)
        t = (lo_re[pair] + step // n_im[pair], lo_im[pair] + step % n_im[pair])
        keep = s[pair] * gnorm(t) + 2 * (t[0] * w[0][pair] - t[1] * w[1][pair]) + f0[pair] <= fmax
        t, sel = (t[0][keep], t[1][keep]), pair[keep]
        a, c = a[:, sel], c[:, sel]
        b = gadd(b0[:, sel], gmul(t, a))
        d = gadd(d0[:, sel], gmul(t, c))
        rows = np.stack([a[0], a[1], b[0], b[1], c[0], c[1], d[0], d[1]], axis=1)
        # diag(u, conj u) g for u = i, -1, -i.  Multiplying by i takes
        # (re, im) to (-im, re), by -i to (im, -re).
        moved = rows[rows[:, 0] > 0]  # a in Q; the a = 0 rows are already all of them
        turned = moved[:, [1, 0, 3, 2, 5, 4, 7, 6]] * np.array([-1, 1, -1, 1, 1, -1, 1, -1])
        return np.concatenate([rows, turned, -moved, -turned]), work

    def scan_chunk(blocks: list[np.ndarray]) -> tuple[list[np.ndarray], int]:
        pieces, work = [], 0
        for a_vals in blocks:
            rows, work = scan_block(a_vals, work)
            pieces.append(rows)
        return pieces, work

    blocks = [scanned[i : i + _PRUNED_BLOCK] for i in range(0, len(scanned), _PRUNED_BLOCK)]
    chunks = _split(blocks, workers)
    if workers > 1:  # not for one: the pool thread's malloc arena adds 3 MB peak RSS
        # imported here: concurrent.futures costs each one-worker CLI run ~5 ms
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(scan_chunk, chunks))
    else:
        results = [scan_chunk(c) for c in chunks]

    # Each chunk checked only its own share; the total decides.
    _check_budget(n_pairs + sum(w for _, w in results), budget, "pruned enumeration")

    rows = np.concatenate([rows for res, _ in results for rows in res])
    del results  # free the blocks: sorting gathers a second copy of the rows
    census = Census.from_rows(rows, cutoff=cutoff)
    wrong = census._wrong_shell(fmax)
    if wrong:  # a census that misses or repeats a row is not certified
        raise ConvergenceError(f"enumeration at cutoff {cutoff}: {wrong}")
    return census


def _runs(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Expand runs: the owning index and the position within its run of
    every element, for runs of the given (nonnegative) lengths."""
    owner = np.repeat(np.arange(lengths.size), lengths)
    return owner, np.arange(owner.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)


def _split(seq, parts: int):
    """Contiguous near-even split of a nonempty seq, by len(seq) alone."""
    parts = max(1, int(parts))
    n = len(seq)
    step = (n + parts - 1) // parts
    return [seq[i : i + step] for i in range(0, n, step)]


def compact_stabilizer_rows() -> np.ndarray:
    """The 8 gauge-1 elements, in canonical order: diag(u, 1/u) and
    antidiag(u, -1/u) for the four units u, where 1/u = conj(u)."""
    rows = []
    for u in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        rows.append([*u, 0, 0, 0, 0, *gconj(u)])
        rows.append([0, 0, *u, *gneg(gconj(u)), 0, 0])
    return Census.from_rows(rows, cutoff=1.0).rows
