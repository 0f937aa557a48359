"""Golden output of the scripts in scripts/, which print library results."""

import os
import runpy

import pytest

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")

SURVIVOR_GRID_6 = """\
shape,ordering,method,constraints,survivors,orbits,sound,complete
2x2,lex,leader-full,3,7,7,true,true
2x2,lex,leader-generators,2,7,7,true,true
2x2,revlex,leader-full,3,7,7,true,true
2x2,revlex,leader-generators,2,7,7,true,true
2x2,gray,leader-full,3,7,7,true,true
2x2,gray,leader-generators,2,7,7,true,true
2x2,snakelex,leader-full,3,7,7,true,true
2x2,snakelex,leader-generators,2,7,7,true,true
2x2,lex,doublelex,2,7,7,true,true
2x3,lex,leader-full,11,13,13,true,true
2x3,lex,leader-generators,3,14,13,true,false
2x3,revlex,leader-full,11,13,13,true,true
2x3,revlex,leader-generators,3,14,13,true,false
2x3,gray,leader-full,11,13,13,true,true
2x3,gray,leader-generators,3,19,13,true,false
2x3,snakelex,leader-full,11,13,13,true,true
2x3,snakelex,leader-generators,3,14,13,true,false
2x3,lex,doublelex,3,14,13,true,false
3x2,lex,leader-full,11,13,13,true,true
3x2,lex,leader-generators,3,14,13,true,false
3x2,revlex,leader-full,11,13,13,true,true
3x2,revlex,leader-generators,3,14,13,true,false
3x2,gray,leader-full,11,13,13,true,true
3x2,gray,leader-generators,3,17,13,true,false
3x2,snakelex,leader-full,11,13,13,true,true
3x2,snakelex,leader-generators,3,14,13,true,false
3x2,lex,doublelex,3,14,13,true,false
"""

DOUBLELEX_GAP_SEARCH_6 = """\
2x3: orbit of size 6 keeps 2 members: 001110 011100
3x2: orbit of size 6 keeps 2 members: 010110 011010
"""


@pytest.mark.parametrize("script, expected", [
    ("survivor_grid.py", SURVIVOR_GRID_6),
    ("doublelex_gap_search.py", DOUBLELEX_GAP_SEARCH_6),
])
def test_script_output_at_six_cells(capsys, script, expected):
    main = runpy.run_path(os.path.join(SCRIPTS, script), run_name="script")["main"]
    assert main(["--max-cells", "6"]) == 0
    assert capsys.readouterr().out == expected


PROPAGATION_EVENTS_PINNED = """\
n,instance,events,events_per_n,wakes
1,full,6,6.000,3
1,pinned,4,4.000,3
2,full,4,2.000,4
2,pinned,6,3.000,4
8,full,4,0.500,10
8,pinned,18,2.250,10
16,full,4,0.250,18
16,pinned,34,2.125,18
"""


def test_propagation_events_pinned_output(capsys):
    # the removal and wake counts pin the propagator's queue order
    main = runpy.run_path(os.path.join(SCRIPTS, "propagation_events.py"), run_name="script")["main"]
    assert main(["--pinned", "--widths", "1", "2", "8", "16"]) == 0
    assert capsys.readouterr().out == PROPAGATION_EVENTS_PINNED
