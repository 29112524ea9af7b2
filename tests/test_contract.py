"""The library's input contract, the counterpart of ``test_cli_contract``.

Each public call, given arguments drawn from a pool of adversarial values,
returns a finite result or raises ``GroupMcdmError``, with no warning. A
second test holds every export to that contract, and a third holds the
source to one coercion of array input (``composition._floats``) and one rule
for float knobs (``errors._check_positive``).
"""

import ast
import dataclasses
import math
import numbers
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import groupmcdm
from groupmcdm import (
    AwgmmOptions,
    Composition,
    PriorityMatrix,
    aggregate_awgmm,
    aggregate_gmm,
    aitchison_distance,
    array_to_composition,
    average_deviation_array,
    bayesian_signed_rank,
    build_average_array,
    check_pareto,
    close,
    credal_ranking,
    deviation_array_robust,
    inverse_log_ratio,
    kmeans_compositional,
    kmeans_standard_baseline,
    log_ratio_transform,
    madc_distance,
    sign_test,
    signed_rank_summary,
)
from groupmcdm.composition import dimension_from_pairs
from groupmcdm.errors import (
    DimensionMismatch,
    GroupMcdmError,
    InputError,
    NumericError,
)

from conftest import EXAMPLE_W

SRC = Path(__file__).resolve().parent.parent / "src" / "groupmcdm"

# W is never drawn: every call that takes a panel is typed on a PriorityMatrix
W = PriorityMatrix(EXAMPLE_W)
LAM = np.full(W.n_dms, 1.0 / W.n_dms)
HALF = [0.5, 0.5]

#: name -> (callable, valid keyword arguments); a case overrides some of them
CALLS = {
    "AwgmmOptions": (AwgmmOptions, dict(max_iter=500, tol=1e-10)),
    "Composition": (Composition, dict(parts=HALF, labels=None)),
    "close": (close, dict(raw=HALF, labels=None)),
    "PriorityMatrix": (PriorityMatrix, dict(values=EXAMPLE_W, labels=None)),
    "PriorityMatrix.row": (W.row, dict(k=0)),
    "log_ratio_transform": (log_ratio_transform, dict(w=HALF)),
    "inverse_log_ratio": (inverse_log_ratio, dict(v=[0.1], labels=None, tol=1e-8)),
    "array_to_composition": (
        array_to_composition, dict(e=np.zeros((2, 2)), labels=None, tol=1e-8)),
    "dimension_from_pairs": (dimension_from_pairs, dict(m=1)),
    "aitchison_distance": (aitchison_distance, dict(w=HALF, v=HALF)),
    "madc_distance": (madc_distance, dict(w=HALF, v=HALF)),
    "aggregate_awgmm": (aggregate_awgmm, dict(W=W, opts=None)),
    "check_pareto": (check_pareto, dict(W=W, result=aggregate_gmm(W))),
    "build_average_array": (
        build_average_array, dict(W=W, estimator="weighted", dm_weights=LAM)),
    "deviation_array_robust": (deviation_array_robust, dict(W=W, dm_weights=LAM)),
    "average_deviation_array": (
        average_deviation_array, dict(W=W, estimator="awgmm", awgmm_options=None)),
    "signed_rank_summary": (signed_rank_summary, dict(W=W, i=0, j=1)),
    "sign_test": (sign_test, dict(W=W, i=0, j=1, prior_a=1.0, prior_b=1.0)),
    "bayesian_signed_rank": (bayesian_signed_rank, dict(
        W=W, i=0, j=1, mc_samples=1000, seed=1, prior_weight=1.0)),
    "credal_ranking": (credal_ranking, dict(
        W=W, test="sign", mc_samples=1000, seed=1, prior_weight=1.0, prior_a=1.0, prior_b=1.0)),
    "kmeans_compositional": (kmeans_compositional, dict(
        W=W, o=2, distance="aitchison", seed=1, max_iter=300, restarts=2, init_indices=None)),
    "kmeans_standard_baseline": (kmeans_standard_baseline, dict(
        W=W, o=2, seed=1, max_iter=300, restarts=2, init_indices=None)),
}

#: NaN, infinities, subnormals, bools, strings, None, complex, empty,
#: ragged, 0-D and 3-D arrays, floats that hold integers, and a few shapes
#: that fit some argument
POOL = (
    math.nan, math.inf, -math.inf, 5e-324, -5e-324, 0.0, -0.0, 1.0, 2.0, 3.0, 1e16,
    0, 1, 2, 3, -1, True, False, None, "abc", "1", "", 1 + 1j,
    np.array([0.5 + 1j, 0.5]), [], np.empty((0, 0)), [[0.5, 0.5], [0.3]], [1, "a"],
    np.array(0.5), np.ones((2, 2, 2)), HALF, [[0.5, 0.5]], [math.nan, 1.0],
    [5e-324, 1.0], np.zeros((2, 2)), [0, 1], (True, False), np.ones((3, 3)),
)


@st.composite
def cases(draw):
    """A call name and the arguments it overrides with pool values."""
    name = draw(st.sampled_from(sorted(CALLS)))
    names = [k for k in CALLS[name][1] if k != "W"]
    chosen = draw(st.lists(st.sampled_from(names), unique=True, max_size=len(names)))
    return name, {k: draw(st.sampled_from(POOL)) for k in chosen}


def finite(x) -> bool:
    """Whether every number in a result is finite, fields of result objects included."""
    if dataclasses.is_dataclass(x):
        return all(finite(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, (list, tuple)):
        return all(map(finite, x))
    if isinstance(x, (np.ndarray, numbers.Real)):
        return bool(np.isfinite(x).all())
    return True  # labels, names


def ex(name, error=InputError, **overrides):
    """An ``@example`` of a case that must raise ``error``."""
    return example(case=(name, overrides), error=error)


@given(case=cases(), error=st.just(None))
# the roadmap's probe: 18 escapes on calls still exported (2 more were on the
# retired PCM type, 1 on the retired AWGMM scale denominator), each a bare
# exception, a warning or a silent acceptance before the one coercion and the
# one knob rule
@ex("PriorityMatrix", values="abc")
@ex("PriorityMatrix", values=[[0.5, 0.5], [0.3]])
@ex("close", raw=[1, "a"])
@ex("build_average_array", dm_weights="abc")
@ex("array_to_composition", e="ab")
@ex("madc_distance", w="ab")
@ex("AwgmmOptions", tol="1")
@ex("credal_ranking", test="bayes-wilcoxon", prior_weight="1")
@ex("sign_test", prior_a="1")
@ex("PriorityMatrix", values=[[0.5 + 1j, 0.5]])
@ex("aggregate_awgmm", opts=5)
@ex("check_pareto", result=None)
@ex("kmeans_compositional", init_indices=3)
@ex("PriorityMatrix.row", k=5)
@ex("Composition", labels=5)
@ex("dimension_from_pairs", DimensionMismatch, m=-1)
@ex("inverse_log_ratio", DimensionMismatch, v=[[0.1]])
# a complex ndarray, NaN and string tolerances, 2-D DM weights
@ex("PriorityMatrix", values=np.array([[0.5 + 1j, 0.5]]))
@ex("inverse_log_ratio", v=[0.1, 0.2, 5.0], tol=math.nan)
@ex("array_to_composition", e=np.array([[0.0, 1.0], [1.0, 0.0]]), tol=math.nan)
@ex("inverse_log_ratio", tol="1")
@ex("array_to_composition", tol="1")
@ex("build_average_array", DimensionMismatch, dm_weights=[LAM])
# contract tightenings: tol=0, bool float knobs, no negative row
@ex("inverse_log_ratio", tol=0)
@ex("AwgmmOptions", tol=True)
@ex("PriorityMatrix.row", k=-1)
# bool seeds, complex scalars of an object array, a NaN sign-test posterior
@ex("bayesian_signed_rank", seed=True)
@ex("kmeans_compositional", seed=True)
@ex("close", raw=np.array([np.complex128(1 + 1j), 0.5], dtype=object))
@ex("sign_test", NumericError, prior_a=1e16, prior_b=1e16)
@ex("credal_ranking", NumericError, prior_a=1e16, prior_b=1e16)
# integers beyond the float range, as data, as float knobs and as a pair count
@ex("close", raw=[10**400, 1])
@ex("credal_ranking", test="sign", prior_a=10**400)
@ex("dimension_from_pairs", DimensionMismatch, m=2**61)
# finite log-ratios whose sums overflow: the readout warned before its error
@ex("inverse_log_ratio", NumericError, v=[1e308, -1e308, 1e308])
@ex("array_to_composition", NumericError,
    e=[[0, 1e308, 0], [-1e308, 0, 1.7e308], [0, -1.7e308, 0]])
@settings(max_examples=300, deadline=None)
def test_library_contract(case, error):
    # a finite result or a GroupMcdmError, with no warning; an example must raise `error`
    name, overrides = case
    fn, valid = CALLS[name]
    kwargs = {**valid, **overrides}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if error is not None:
            with pytest.raises(error):
                fn(**kwargs)
            return
        try:
            result = fn(**kwargs)
        except GroupMcdmError:
            return
    assert finite(result)


@pytest.mark.parametrize("raw, floats", [
    ([Fraction(1, 2), Fraction(1, 3)], [1 / 2, 1 / 3]),
    ([Decimal("0.5"), Decimal("0.25")], [0.5, 0.25]),
    (np.array([0.5, 0.25], dtype=np.float32), [0.5, 0.25]),
    ([1, 2], [1.0, 2.0]),
])
def test_real_numbers_of_any_type_convert(raw, floats):
    # object arrays of real numbers are real input: only complex ones are refused
    assert close(raw).parts.tolist() == close(floats).parts.tolist()


#: exports that take the panel W alone, which the contract never draws
PANEL_ONLY = ("aggregate_amm", "aggregate_gmm", "deviation_array_std", "deviation_array_mad")
#: exports that are not calls: result types, the errors module, the version
NOT_CALLS = (
    "AggregationResult", "AverageDeviationArray", "ClusterModel", "CredalOrdering",
    "CredalRanking", "SignedRankSummary",
    "errors", "__version__",
)
#: the one call held to the contract that is not exported
UNEXPORTED = ("dimension_from_pairs",)


def test_every_export_is_held_to_the_contract():
    # a new export must join CALLS or a named exemption; a removed one must leave them
    exported = set(groupmcdm.__all__)
    called = {name.split(".")[0] for name in CALLS}
    listed = called | set(PANEL_ONLY) | set(NOT_CALLS)
    assert sorted(exported - listed) == []
    assert sorted(listed - exported) == sorted(UNEXPORTED)


def owners(tree) -> dict:
    """The innermost enclosing function name of every node of ``tree``."""
    owner = {}
    # breadth first: an inner function overwrites its outer function's claim
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            owner.update(dict.fromkeys(ast.walk(fn), fn.name))
    return owner


def is_float_coercion(node) -> bool:
    """``np.asarray(..., dtype=float)`` or ``np.array(..., dtype=float)``."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("asarray", "array")
            and any(k.arg == "dtype" and isinstance(k.value, ast.Name) and k.value.id == "float"
                    for k in node.keywords))


def is_infinity(node) -> bool:
    """``np.inf``, ``math.inf`` or ``float("inf")``."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
        return any(isinstance(a, ast.Constant) and a.value == "inf" for a in node.args)
    return isinstance(node, ast.Attribute) and node.attr == "inf"


def is_inf_bound(node) -> bool:
    """An order comparison against an infinity."""
    return (isinstance(node, ast.Compare)
            and any(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in node.ops)
            and any(map(is_infinity, (node.left, *node.comparators))))


def test_one_coercion_and_one_knob_rule():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = owners(tree)
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', '?')} in {owner.get(node)}"
            if is_float_coercion(node) and owner.get(node) != "_floats":
                found.append(f"float coercion outside _floats at {where}")
            if is_inf_bound(node) and owner.get(node) != "_check_positive":
                found.append(f"inline infinity bound at {where}")
    assert found == []


def test_report_has_one_finiteness_rule():
    # the commands hand their arrays to the JSON encoder, whose allow_nan=False
    # is the one check that keeps NaN and infinity out of every format
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    found = [f"cli.py:{node.lineno} {getattr(node, 'name', 'tolist()')}"
             for node in ast.walk(tree)
             if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                 and node.func.attr == "tolist")
             or (isinstance(node, ast.FunctionDef) and node.name == "_finite")]
    assert found == []


def test_bayesian_rank_chooses_its_form_in_one_place():
    # one kernel per form, each called by name from the one function that picks it
    tree = ast.parse((SRC / "credal.py").read_text(encoding="utf-8"))
    owner = owners(tree)
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    readers = sorted({owner.get(node) for node in ast.walk(tree)
                      if isinstance(node, ast.Name) and node.id == "_MATRIX_FORM_MAX"
                      and isinstance(node.ctx, ast.Load)})
    assert "_walsh_wins" not in defined and {"_matrix_wins", "_sorted_wins"} <= defined
    assert readers == ["_bayes_posteriors"]
