import numpy as np
import pytest

import nvctrl as nc
from nvctrl.signals import checked_grid, local_maxima, read_csv, top_peaks, write_csv
from tests_support import fwhm


def test_fid_trace_validation():
    with pytest.raises(ValueError, match="tau grid must be non-empty and strictly increasing"):
        nc.FidTrace([0.0, 0.0, 1.0], [0.1, 0.2, 0.3])
    with pytest.raises(ValueError):
        nc.FidTrace([0.0, 1.0], [0.5, 1.5])


# grids every caller of `checked_grid` refuses, and the end of its message
BAD_GRIDS = {
    "nan": ([0.0, np.nan, 2.0], "must be finite"),
    "inf": ([0.0, 1.0, np.inf], "must be finite"),
    "-inf": ([-np.inf, 0.0, 1.0], "must be finite"),
    "repeated": ([0.0, 1.0, 1.0, 2.0], "must be non-empty and strictly increasing"),
    "empty": ([], "must be non-empty and strictly increasing"),
    "2-d": ([[0.0, 1.0], [2.0, 3.0]], "must be non-empty and strictly increasing"),
}
# each caller, with the name its message gives the grid
GRID_CALLERS = {
    "FidTrace": (lambda grid: nc.FidTrace(grid, np.full(np.shape(grid), 0.5)), "tau grid"),
    "Spectrum": (lambda grid: nc.Spectrum(grid, np.ones(np.shape(grid))), "frequency grid"),
    "analytic_fid": (lambda grid: nc.analytic_fid("uc", nc.SystemParams(), grid), "tau grid"),
    "_fid": (lambda grid: nc.fid_u90(nc.SystemParams(), 0, tau_grid=grid), "tau grid"),
    "esr_spectrum": (lambda grid: nc.esr_spectrum([(0.0, 1.0)], 0.05, grid), "frequency grid"),
}


@pytest.mark.parametrize("caller", GRID_CALLERS.values(), ids=GRID_CALLERS.keys())
@pytest.mark.parametrize("bad", BAD_GRIDS.values(), ids=BAD_GRIDS.keys())
def test_every_grid_goes_through_the_one_check(caller, bad):
    build, what = caller
    grid, message = bad
    with pytest.raises(ValueError, match=f"^{what} {message}$"):
        build(np.array(grid))


def test_checked_grid_is_a_float_array_and_compares_without_overflow():
    grid = checked_grid([0, 1, 3], "grid")
    assert grid.dtype == float and list(grid) == [0.0, 1.0, 3.0]
    # np.diff of these ends would overflow to inf with a RuntimeWarning
    assert list(checked_grid([-1e308, 1e308], "grid")) == [-1e308, 1e308]
    with pytest.raises(ValueError, match="strictly increasing"):
        checked_grid([1e308, -1e308], "grid")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fid_trace_refuses_a_non_finite_signal(bad):
    with pytest.raises(ValueError, match=r"signal values must be finite and lie in \[0, 1\]"):
        nc.FidTrace([0.0, 1.0, 2.0], [0.5, bad, 0.25])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_spectrum_refuses_a_non_finite_amplitude(bad):
    with pytest.raises(ValueError, match="amplitude values must be finite"):
        nc.Spectrum([0.0, 0.1, 0.2], [1.0, bad, 0.5])


def test_fid_trace_csv_round_trip(tmp_path):
    tau = np.array([0.0, 1.0, 2.0, 3.0])
    signal = np.array([0.5, 0.123456789012345, 0.25, 0.3])
    trace = nc.FidTrace(tau, signal, "uc_readout")
    path = tmp_path / "fid.csv"
    trace.to_csv(path)
    restored = nc.FidTrace.from_csv(path, protocol="uc_readout")
    assert np.array_equal(restored.tau_us, tau)
    assert np.array_equal(restored.signal, signal)
    assert restored.protocol == "uc_readout"
    assert nc.FidTrace.from_csv(path).protocol is None


def test_spectrum_csv_round_trip(tmp_path):
    spec = nc.Spectrum(np.array([0.0, 0.1, 0.2]), np.array([1.0, 2.0, 0.5]), {"window": "hann"})
    path = tmp_path / "spec.csv"
    spec.to_csv(path)
    freq, amplitude = read_csv(path, ("freq_mhz", "amplitude"))
    assert np.array_equal(freq, spec.freq_mhz)
    assert np.array_equal(amplitude, spec.amplitude)


def test_csv_header_check(tmp_path):
    path = tmp_path / "x.csv"
    write_csv(path, ("a", "b"), (np.array([1.0]), np.array([2.0])))
    with pytest.raises(ValueError):
        read_csv(path, ("c", "d"))


def test_local_maxima_and_top_peaks():
    amp = np.array([0.0, 1.0, 0.2, 3.0, 0.1, 2.0, 0.0])
    assert list(local_maxima(amp)) == [1, 3, 5]
    spec = nc.Spectrum(np.arange(7, dtype=float), amp)
    peaks = top_peaks(spec, 2)
    assert peaks[0] == (3.0, 3.0)
    assert peaks[1] == (5.0, 2.0)
    with pytest.raises(ValueError, match="need at least one peak, got n = 0"):
        top_peaks(spec, 0)


def test_fwhm_of_lorentzian():
    f = np.linspace(-2.0, 2.0, 8001)
    hwhm = 0.05
    amp = hwhm**2 / (f**2 + hwhm**2)
    spec = nc.Spectrum(f, amp)
    assert fwhm(spec, 0.0) == pytest.approx(2 * hwhm, rel=0.02)


def test_write_csv_formats_each_value_as_repr_of_float(tmp_path):
    values = np.array([1e-05, -0.0, 2.0, 5e-324, 1e300])
    path = tmp_path / "x.csv"
    # an integer column is written as floats too
    write_csv(path, ("a", "b"), (values, np.arange(5)))
    lines = [f"{float(x)!r},{float(i)!r}" for i, x in enumerate(values)]
    assert path.read_text() == "a,b\n" + "\n".join(lines) + "\n"
    assert lines[:2] == ["1e-05,0.0", "-0.0,1.0"] and lines[3:] == ["5e-324,3.0", "1e+300,4.0"]
    assert np.array_equal(read_csv(path)[0], values)


def _one_shot_csv(header, columns) -> str:
    """The oracle: the whole file's text formatted at once, row by row."""
    rows = zip(*(np.asarray(c, dtype=float).tolist() for c in columns))
    return "".join(f"{line}\n" for line in [",".join(header), *(",".join(map(repr, row)) for row in rows)])


def test_write_csv_blocks_give_the_one_shot_bytes(tmp_path):
    """Rows written block by block give the bytes of the whole text written
    at once, at 0 and 1 rows and on each side of a block's end."""
    from nvctrl.signals import _CSV_BLOCK_ROWS

    rng = np.random.default_rng(5)
    path = tmp_path / "x.csv"
    for rows in (0, 1, _CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS, _CSV_BLOCK_ROWS + 1):
        columns = [rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows) for _ in range(3)]
        write_csv(path, ("a", "b", "c"), columns)
        assert path.read_bytes() == _one_shot_csv(("a", "b", "c"), columns).encode("utf-8"), rows


def test_write_csv_holds_one_block_of_text(tmp_path):
    """A 2 x 10^5 table (7.5 MB of text) is written with a traced peak below
    8 MB, of which 3.2 MB is the float table itself; holding every row's
    text at once peaked at 43 MB."""
    import tracemalloc

    rng = np.random.default_rng(0)
    columns = [np.cumsum(rng.random(200_000)), rng.random(200_000)]
    path = tmp_path / "x.csv"
    tracemalloc.start()
    try:
        write_csv(path, ("a", "b"), columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 7_000_000
    assert peak < 8_000_000


@pytest.mark.parametrize("lengths", [(3, 2), (2, 3)])
def test_write_csv_rejects_columns_of_different_lengths(tmp_path, lengths):
    path = tmp_path / "x.csv"
    with pytest.raises(ValueError):
        write_csv(path, ("a", "b"), [np.zeros(n) for n in lengths])
    assert not path.exists()


@pytest.mark.parametrize("rows", [
    "1.0,2.0\n3.0\n",          # a short row
    "1.0,2.0\n3.0,4.0,5.0\n",  # a long row
    "1.0,2.0,3.0\n4.0\n5.0,6.0\n",  # fields that add up to whole rows
    "1.0,2.0\n\n3.0,4.0\n",    # an empty line
])
def test_read_csv_rejects_rows_of_different_lengths(tmp_path, rows):
    path = tmp_path / "x.csv"
    path.write_text("a,b\n" + rows)
    with pytest.raises(ValueError):
        read_csv(path)


def test_read_csv_takes_every_field_that_float_takes(tmp_path):
    """Fields are parsed by `float`, so underscores, padding and any case of
    an exponent are accepted, and a field `float` refuses is a ValueError."""
    path = tmp_path / "x.csv"
    path.write_text("a,b\n1_000, 2.5 \n-1E3,7\n")
    a, b = read_csv(path, ("a", "b"))
    assert a.tolist() == [1000.0, -1000.0] and b.tolist() == [2.5, 7.0]
    for field in ("1__0", "", "0x10", "1.0.0"):
        path.write_text(f"a,b\n1.0,2.0\n3.0,{field}\n")
        with pytest.raises(ValueError):
            read_csv(path)


def test_csv_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(7)
    columns = [rng.standard_normal(301) * 10.0 ** rng.integers(-300, 300, 301) for _ in range(7)]
    columns[0][:3] = [-0.0, 5e-324, np.nextafter(1.0, 2.0)]
    header = tuple("abcdefg")
    path = tmp_path / "x.csv"
    write_csv(path, header, columns)
    back = read_csv(path, header)
    assert len(back) == 7
    for col, got in zip(columns, back):
        assert got.tobytes() == col.tobytes()
    # one column is a file of one field per line
    write_csv(path, ("a",), columns[:1])
    assert read_csv(path)[0].tobytes() == columns[0].tobytes()
