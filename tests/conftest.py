from pathlib import Path

import numpy as np
import pytest

from groupmcdm import PriorityMatrix, composition

DATA_DIR = Path(__file__).resolve().parent.parent / "data"

# five decision-makers scoring four criteria; the worked example used
# throughout the test suite
EXAMPLE_W = np.array(
    [
        [0.220, 0.435, 0.295, 0.050],
        [0.210, 0.434, 0.312, 0.044],
        [0.363, 0.312, 0.107, 0.218],
        [0.243, 0.386, 0.332, 0.039],
        [0.227, 0.381, 0.339, 0.053],
    ]
)
EXAMPLE_LABELS = ("c1", "c2", "c3", "c4")

# fifteen decision-makers scoring two criteria (signed-rank worked example)
TWO_CRITERIA = np.array(
    [
        [0.125, 0.243],
        [0.143, 0.224],
        [0.147, 0.231],
        [0.164, 0.209],
        [0.197, 0.151],
        [0.157, 0.256],
        [0.153, 0.232],
        [0.115, 0.249],
        [0.178, 0.167],
        [0.164, 0.183],
        [0.175, 0.211],
        [0.168, 0.192],
        [0.155, 0.251],
        [0.126, 0.273],
        [0.199, 0.170],
    ]
)


@pytest.fixture
def example_matrix():
    return PriorityMatrix(EXAMPLE_W, labels=EXAMPLE_LABELS)


@pytest.fixture
def two_criteria_matrix():
    return PriorityMatrix(TWO_CRITERIA, labels=("c1", "c2"))


@pytest.fixture
def example_csv():
    return str(DATA_DIR / "example_priorities.csv")


@pytest.fixture
def two_criteria_csv():
    return str(DATA_DIR / "two_criteria_ratings.csv")


@pytest.fixture
def pair_block(monkeypatch):
    """``pair_block(width, per_pair)`` shrinks the one block size, which
    ``pair_statistic`` and the credal kernels read on each call, so that a
    statistic spending ``per_pair`` elements on each pair runs ``width``
    pairs per block; ``width=None`` restores the default."""
    default = composition.PAIR_BLOCK

    def shrink(width, per_pair):
        size = default if width is None else width * per_pair
        monkeypatch.setattr(composition, "PAIR_BLOCK", size)

    return shrink


#: Pair-block widths the blocked statistics are checked at: the default,
#: one pair per block, and a width that leaves a short last block.
WIDTHS = (None, 1, 7)


def random_matrix(rng, n_dms, n_criteria, labels=False):
    """Random priority matrix with Dirichlet rows."""
    values = rng.dirichlet(np.ones(n_criteria), size=n_dms)
    names = tuple(f"c{i + 1}" for i in range(n_criteria)) if labels else None
    return PriorityMatrix(values, labels=names)


# ---------------------------------------------------------------------------
# acceptance reporting: one pass/fail line per criterion at the end of the run

_acceptance_outcomes = {}


def pytest_runtest_logreport(report):
    if "test_acceptance.py" in report.nodeid:
        if report.when == "call" or (report.when == "setup" and report.skipped):
            _acceptance_outcomes[report.nodeid] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for nodeid in sorted(_acceptance_outcomes):
        name = nodeid.split("::")[-1]
        outcome = _acceptance_outcomes[nodeid].upper()
        terminalreporter.write_line(f"{name}: {outcome}")
