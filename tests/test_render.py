"""ASCII and SVG renderings."""

from pathlib import Path

import pytest

from sweepmap import (
    PathError,
    StepSequence,
    Tableau,
    TableauError,
    path_ascii,
    path_svg,
    rank_ascii,
    rank_tableau,
    tableau_ascii,
    tableau_svg,
)

RUN_COLUMNS = ((1, 3, 5, 7, 9), (2, 4, 6), (8, 11, 13, 15, 17, 18), (10, 12, 14, 16))
RUN_PREIMAGE = (2, -1, -1, 4, -1, 5, -1, -1, -1, -1, 3, -1, -1, -1, -1, -1, -1, -1)
GOLDEN = Path(__file__).parent / "golden"


def _running_example():
    t = Tableau(RUN_COLUMNS)
    r = rank_tableau(t)
    path = StepSequence(RUN_PREIMAGE)
    return {
        "path.txt": path_ascii(path),
        "path.svg": path_svg(path),
        "tableau.txt": tableau_ascii(t),
        "tableau_ranks.txt": tableau_ascii(t, r),
        "rank.txt": rank_ascii(t, r),
        "tableau.svg": tableau_svg(t),
        "tableau_ranks.svg": tableau_svg(t, r),
    }


@pytest.mark.parametrize("name", sorted(_running_example()))
def test_running_example_bytes_are_golden(name):
    # each file holds a renderer's exact output on the running example, plus a newline
    want = (GOLDEN / name).read_text(encoding="utf-8")
    assert _running_example()[name] + "\n" == want


class TestPathAscii:
    def test_single_peak(self):
        assert path_ascii(StepSequence((1, -1))) == "/\\"

    def test_tall_peak(self):
        assert path_ascii(StepSequence((2, -1, -1))) == "/\\\n/ \\"

    def test_two_peaks(self):
        assert path_ascii(StepSequence((2, -1, 1, -1, -1))) == "/\\/\\\n/   \\"

    def test_one_column_per_step(self):
        s = StepSequence((2, -1, -1, 4, -1, 5, -1, -1, -1, -1, 3, -1, -1, -1, -1, -1, -1, -1))
        art = path_ascii(s)
        assert max(len(line) for line in art.splitlines()) == len(s)


class TestPathSvg:
    def test_polyline_hits_every_lattice_point(self):
        svg = path_svg(StepSequence((2, -1, -1)))
        assert svg.startswith("<svg xmlns=")
        assert "10,50 30,10 50,30 70,50" in svg

    def test_point_count(self):
        s = StepSequence((2, -1, -1, 4, -1, 5, -1, -1, -1, -1, 3, -1, -1, -1, -1, -1, -1, -1))
        svg = path_svg(s)
        points = svg.split('points="')[1].split('"')[0].split()
        assert len(points) == len(s) + 1


@pytest.mark.parametrize("draw", [path_ascii, path_svg])
@pytest.mark.parametrize("steps, error", [
    ((1, -2, 1), "prefix sum -1 is negative (index 2)"),
    ((-1, 1), "prefix sum -1 is negative (index 1)"),
])
def test_path_below_level_zero_is_refused(draw, steps, error):
    # the error ranks raises
    with pytest.raises(PathError) as exc:
        draw(steps)
    assert str(exc.value) == error


class TestTableauAscii:
    def test_running_example(self):
        art = tableau_ascii(Tableau(RUN_COLUMNS))
        lines = art.splitlines()
        assert len(lines) == 6  # tallest column
        assert lines[0].split() == ["1", "2", "8", "10"]
        assert lines[5].split() == ["18"]

    def test_rank_overlay(self):
        t = Tableau(((1, 3), (2, 4)))
        art = tableau_ascii(t, rank_tableau(t))
        assert art.splitlines()[0].split() == ["1:0", "2:0"]

    def test_rank_ascii(self):
        t = Tableau(((1, 3), (2, 4)))
        assert rank_ascii(t, rank_tableau(t)).splitlines()[0].split() == ["0", "0"]


class TestTableauSvg:
    def test_one_rect_per_box(self):
        t = Tableau(RUN_COLUMNS)
        svg = tableau_svg(t)
        assert svg.count("<rect") == t.size
        assert svg.count(">18<") == 1

    def test_rank_overlay_mentions_ranks(self):
        t = Tableau(((1, 3), (2, 4)))
        svg = tableau_svg(t, rank_tableau(t))
        for label in (">1:0<", ">3:1<", ">2:0<", ">4:1<"):
            assert label in svg


@pytest.mark.parametrize("render", [tableau_ascii, rank_ascii, tableau_svg])
@pytest.mark.parametrize("ranks", [(0, 0, 1), (0, 0, 1, 1, 2)], ids=["short", "long"])
def test_rank_overlay_needs_one_rank_per_entry(render, ranks):
    with pytest.raises(TableauError, match=rf"^expected 4 ranks, one per entry, got {len(ranks)}$"):
        render(Tableau(((1, 3), (2, 4))), ranks)
