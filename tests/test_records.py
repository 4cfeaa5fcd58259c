"""The package's record types: plain tuples and slotted classes, built with
no dataclass code generation at import."""

import subprocess
import sys
from pathlib import Path

import pytest

import cayley_imc
from cayley_imc import algorithms, engine, node, planes
from cayley_imc.algorithms import ExtremumResult, SearchResult, SortResult
from cayley_imc.engine import Configuration
from cayley_imc.node import NodeFlags
from cayley_imc.oracle import OracleReport
from cayley_imc.topology import TreeParams, build_topology


def test_the_package_imports_no_dataclasses():
    # Nor the spec: node and engine stay out of every run.
    # -S keeps site-packages' start-up hooks out of the count.
    src = str(Path(cayley_imc.__file__).resolve().parent.parent)
    code = (f"import sys; sys.path.insert(0, {src!r}); import cayley_imc, cayley_imc.cli; "
            "print([m for m in ('dataclasses', 'cayley_imc.node', 'cayley_imc.engine') "
            "if m in sys.modules])")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out == "[]\n"


def test_the_spec_re_exports_the_run_contract_of_planes():
    assert node.Mode is engine.Mode is cayley_imc.Mode is planes.Mode
    assert engine.ProtocolError is cayley_imc.ProtocolError is planes.ProtocolError
    assert engine.QuiescenceError is cayley_imc.QuiescenceError is planes.QuiescenceError
    assert engine.default_cycle_budget is planes.default_cycle_budget


def test_algorithms_answers_only_the_tracer_s_name_lazily():
    # perfbench/tracing.py wraps algorithms.run_until_quiescent, and finds a
    # module's functions by hasattr: the hook answers that one name only.
    assert algorithms.run_until_quiescent is engine.run_until_quiescent
    assert not hasattr(algorithms, "reset_configuration")
    with pytest.raises(AttributeError, match="has no attribute 'snapshot'"):
        algorithms.snapshot


_PARAMS = TreeParams(2, 3, 8)


@pytest.mark.parametrize("record,text", [
    (_PARAMS, "TreeParams(eta=2, height=3, word_size=8)"),
    (build_topology(_PARAMS), "CayleyTopology(params=TreeParams(eta=2, height=3, word_size=8), "
                              "n=10, offsets=(0, 1, 4, 10))"),
    (SearchResult(1, 10), "SearchResult(found=1, cycles=10, matched_nodes=frozenset())"),
    (SearchResult(1, 10, frozenset({4})),
     "SearchResult(found=1, cycles=10, matched_nodes=frozenset({4}))"),
    (ExtremumResult(14, 7), "ExtremumResult(value=14, cycles=7)"),
    (SortResult([3, 1], 20, 2, [10, 10]),
     "SortResult(output=[3, 1], cycles_total=20, rounds=2, per_round_cycles=[10, 10])"),
    (OracleReport(0, "x"), "OracleReport(agreed=0, detail='x')"),
], ids=["params", "topology", "search", "search-matches", "extremum", "sort", "oracle"])
def test_records_print_and_refuse_assignment(record, text):
    assert repr(record) == text
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], 0)
    with pytest.raises(AttributeError):
        record.extra = 0


def test_tree_params_compare_and_hash_by_their_fields():
    assert _PARAMS == TreeParams(eta=2, height=3, word_size=8) != TreeParams(3, 2, 8)
    assert hash(_PARAMS) == hash(TreeParams(2, 3, 8)) == hash((2, 3, 8))
    assert not hasattr(_PARAMS, "__dict__")
    assert type(_PARAMS) is TreeParams


@pytest.mark.parametrize("args,message", [
    ((0, 3, 4), "eta must be >= 1, got 0"),
    ((2, 0, 4), "height must be >= 1, got 0"),
    ((2, 3, 0), "word_size must be in 1..64, got 0"),
    ((2, 3, 65), "word_size must be in 1..64, got 65"),
])
def test_bad_tree_params_are_refused(args, message):
    with pytest.raises(ValueError) as err:
        TreeParams(*args)
    assert str(err.value) == message


def test_result_defaults():
    assert SearchResult(0, 4).matched_nodes == frozenset()
    assert OracleReport(1).detail == ""


def test_node_flags_and_configuration_keep_their_defaults_and_check():
    a, b = NodeFlags(), NodeFlags(match=0)
    a.link_child.append(1)
    assert (b.state, b.start, b.match, b.link_mem, b.link_child, b.perm_disabled) == \
        (0, 0, 0, 0, [], 0)
    topo = build_topology(_PARAMS)
    cfg = Configuration(topo, [None] * topo.n)
    assert (cfg.mode.value, cfg.global_cycle, cfg.phase1_only) == ("idle", 0, False)
    with pytest.raises(ValueError) as err:
        Configuration(topo, [])
    assert str(err.value) == "configuration has 0 nodes, topology has 10"
