"""The Bloch stage over chunks of at most bloch._CHUNK frequencies: bounded
memory, the same bits as one run over the whole array, and the error of the
first failing chunk with its row in the whole array."""

import dataclasses
import json
import operator
import tracemalloc

import numpy as np
import pytest

from rodwave import bloch, cell, cli, stopband_report, sweep, unit_cell
from rodwave.errors import NumericError


def _t_aln2_cells(config, steps):
    """The cells of a t_aln2 sweep over 540-660 nm, the benchmark's geometry sweep."""
    return [
        unit_cell(config, dataclasses.replace(config.geometry, t_aln2=float(t)))
        for t in np.linspace(540e-9, 660e-9, steps)
    ]


def _traced_peak(call) -> int:
    """The peak of the memory tracemalloc traces (numpy's arrays included) during call()."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sweep_memory_is_its_table_and_one_chunk(default_cell):
    # one run over all 1e5 points peaked at 1033 B a point; the Sweep table
    # itself is 186 B a point
    sweep(default_cell, 0.1e9, 6e9, 100)
    n = 100_000
    peak = _traced_peak(lambda: sweep(default_cell, 0.1e9, 6e9, n))
    assert peak / n <= 300, peak / n


def test_sweep_iteration_holds_one_block_of_rows(default_cell):
    # converting all 15 columns of a 1e5-point table up front held 62 MB of
    # Python objects before the first row
    sw = sweep(default_cell, 0.1e9, 6e9, 100_000)
    assert _traced_peak(lambda: next(iter(sw))) <= 1_000_000
    assert _traced_peak(lambda: sum(1 for _ in sw)) <= 1_000_000


@pytest.mark.parametrize("points", [255, 256, 257, 513])
def test_sweep_rows_across_blocks_are_the_whole_columns_rows(default_cell, points):
    # by repr, the rows of the whole columns converted at once
    sw = sweep(default_cell, 0.1e9, 6e9, points)
    columns = [getattr(sw, name).tolist() for name in bloch._SWEEP_FIELDS]
    rows = [bloch.BlochPoint(f, tuple(ev), *rest) for f, ev, *rest in zip(*columns)]
    assert list(map(repr, sw)) == list(map(repr, rows))


def test_sweep_cells_memory_is_its_columns_and_one_chunk(default_config):
    # one front over all 1e5 rows, with ten per-row cell constants, peaked at
    # 296 B a row; the (f, T, in_stopband) columns are 17 B a row
    cells = _t_aln2_cells(default_config, 50)
    bloch.sweep_cells(cells[:2], 1.4e9, 3.2e9, 10)
    peak = _traced_peak(lambda: bloch.sweep_cells(cells, 1.4e9, 3.2e9, 2000))
    assert peak / 100_000 <= 40, peak / 100_000


def test_a_geometry_chunk_peaks_below_the_stage_before_the_anchors_at_minus_one(default_config):
    """One _CHUNK-row chunk of the benchmark's geometry rows (t_aln2 540-660
    nm, 21 steps x 400 points, 1.4-3.2 GHz) as sweep_cells runs it, its
    rows' stacked_cells and _stopband_test, traced warm.  Measured 704 KiB.
    With the anchors built as complex arrays and v as a third copy of the
    roots the chunk peaked at 956 KiB, and before roots were anchored at -1
    at 823.5 KiB; the bound is 823 KiB."""
    cells = _t_aln2_cells(default_config, 21)
    table = cell.constants_table(cells)
    f = np.tile(np.linspace(1.4e9, 3.2e9, 400), 21)[: bloch._CHUNK]
    owner = np.repeat(np.arange(21), 400)[: bloch._CHUNK]

    def chunk():
        bloch._stopband_test(bloch.stacked_cells(table, owner), f)

    chunk()
    assert _traced_peak(chunk) <= 823 * 1024


@pytest.mark.parametrize(
    "chunk, points", [(7, 21), (7, 22), (7, 2000), (300, 600), (300, 601), (300, 2000)]
)
def test_sweep_over_chunks_is_the_one_run(default_cell, monkeypatch, chunk, points):
    """Every column, Re(k_ef) included, and the stopband report, by repr: runs of
    exactly k chunks and of k chunks and one row.  The chunked run goes first:
    np.empty could hand it the freed columns of an equal run, which would hide
    an unwritten row."""
    with monkeypatch.context() as patch:
        patch.setattr(bloch, "_CHUNK", chunk)
        chunked = sweep(default_cell, 0.1e9, 6e9, points)
        report = repr(stopband_report(chunked, default_cell))
    assert points <= bloch._CHUNK
    whole = sweep(default_cell, 0.1e9, 6e9, points)
    for field in dataclasses.fields(bloch.Sweep):
        column, joined = getattr(whole, field.name), getattr(chunked, field.name)
        assert column.dtype == joined.dtype and column.shape == joined.shape, field.name
        assert column.tobytes() == joined.tobytes(), field.name
    assert repr(stopband_report(whole, default_cell)) == report


@pytest.mark.parametrize(
    "chunk, steps, points",
    [(7, 3, 7), (7, 3, 5), (300, 9, 100), (300, 9, 120), (300, 7, 43)],
    ids=["3x7", "2x7+1", "3x300", "steps-across-seams", "300+1"],
)
def test_sweep_cells_over_chunks_is_the_one_run(default_config, monkeypatch, chunk, steps, points):
    cells = _t_aln2_cells(default_config, steps)
    with monkeypatch.context() as patch:
        patch.setattr(bloch, "_CHUNK", chunk)
        chunked = bloch.sweep_cells(cells, 1.4e9, 3.2e9, points)
    whole = bloch.sweep_cells(cells, 1.4e9, 3.2e9, points)
    assert np.count_nonzero(whole[2])  # the grid meets a stopband
    for column, joined in zip(whole, chunked):
        assert column.dtype == joined.dtype and column.tobytes() == joined.tobytes()


def test_error_past_the_first_chunk_names_its_row(default_cell, monkeypatch):
    # the roots overflow from kL = 355, about 1.37e12 Hz on the default cell:
    # row 2480 of this grid, in its second chunk
    with pytest.raises(NumericError, match="non-finite Bloch roots at f=") as chunked:
        sweep(default_cell, 1e9, 2.2e12, 4000)
    grid = np.linspace(1e9, 2.2e12, 4000)
    assert chunked.value.row >= bloch._CHUNK
    assert f"at f={grid[chunked.value.row].item()!r} Hz" in str(chunked.value)
    monkeypatch.setattr(bloch, "_CHUNK", 4000)
    with pytest.raises(NumericError) as whole:
        sweep(default_cell, 1e9, 2.2e12, 4000)
    assert (str(chunked.value), chunked.value.row) == (str(whole.value), whole.value.row)


def test_the_first_failing_chunk_reports_its_error(default_cell, monkeypatch):
    """A run that fails in two ways: the roots are 0/0 at 1e-300 Hz (row 0), and
    from row 50 on f is past the rod's top frequency.  One run reports the rod
    kernel's error, as its front runs before the roots; over chunks of 7 the
    first chunk fails first, on its roots."""
    with pytest.raises(NumericError, match="past the rod's top frequency") as whole:
        sweep(default_cell, 1e-300, 2.0**47, 100)
    assert whole.value.row == 50
    monkeypatch.setattr(bloch, "_CHUNK", 7)
    with pytest.raises(NumericError, match="non-finite Bloch roots at f=1e-300 Hz") as chunked:
        sweep(default_cell, 1e-300, 2.0**47, 100)
    assert chunked.value.row == 0


@pytest.mark.parametrize(
    "command, doc, rows",
    [
        ("sweep", {"sweep": {"points": 10_000}}, 10_000),
        (
            "geom-sweep",
            {
                "sweep": {"points": 2000},
                "geometry_sweep": {"parameter": "t_aln2", "from_nm": 540, "to_nm": 660,
                                   "steps": 21},
            },
            21 * 2000,
        ),
    ],
)
def test_no_front_takes_more_than_a_chunk(tmp_path, monkeypatch, command, doc, rows):
    sizes = []
    front = bloch._front
    monkeypatch.setattr(
        bloch, "_front", lambda cell, f, **kw: sizes.append(f.size) or front(cell, f, **kw)
    )
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(doc, output={"dir": str(tmp_path)})))
    assert cli.main([command, "--config", str(config)]) == 0
    assert max(sizes) <= bloch._CHUNK
    assert sum(sizes) >= rows


def test_a_chunk_stacks_only_the_cells_of_its_rows(default_config, monkeypatch):
    # stacking every cell for every chunk made a geometry sweep's cost grow
    # with steps^2: 5001 steps x 100 points took 1.26 s against 0.18 s.  The
    # cells' table is built once, and each chunk takes its own rows only
    cells = _t_aln2_cells(default_config, 500)
    tables, owners = [], []
    table, stack = bloch.constants_table, bloch.stacked_cells
    monkeypatch.setattr(bloch, "constants_table", lambda cs: tables.append(len(cs)) or table(cs))
    monkeypatch.setattr(
        bloch, "stacked_cells", lambda t, owner: owners.append(owner.copy()) or stack(t, owner)
    )
    bloch.sweep_cells(cells, 1.4e9, 3.2e9, 10)
    assert tables == [500]
    assert len(owners) == 3  # 5000 rows
    assert max(owner.size for owner in owners) <= bloch._CHUNK
    assert np.concatenate(owners).tolist() == np.repeat(np.arange(500), 10).tolist()


def test_a_stacked_front_is_its_owner_cells_constants(default_config, monkeypatch):
    """Every row of every chunk's stacked constants is, by repr, the constant
    of the cell that owns the row, as that cell's own _operands hold it; the
    chunk seams of 21 steps x 300 points fall inside steps."""
    cells = _t_aln2_cells(default_config, 21)
    stacked = []
    stack = bloch.stacked_cells

    def recorded(table, owner):
        stacked.append((owner.copy(), stack(table, owner)))
        return stacked[-1][1]

    monkeypatch.setattr(bloch, "stacked_cells", recorded)
    bloch.sweep_cells(cells, 1.4e9, 3.2e9, 300)
    assert len(stacked) == 4 and bloch._CHUNK % 300
    assert sum(owner.size for owner, _ in stacked) == 21 * 300
    for name in cell._CONSTANTS:
        get = operator.attrgetter(name)
        own = [repr(get(c._operands)) for c in cells]
        assert own == [repr(np.float64(get(c))) for c in cells], name
        for owner, front in stacked:
            assert list(map(repr, get(front))) == [own[i] for i in owner], name
