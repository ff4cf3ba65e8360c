"""The package as a cold process sees it: the lazy namespace, the modules
each entry point loads, and the records that stand in for dataclasses."""

import copy
import os
import pathlib
import pickle
import subprocess
import sys

import pytest

import beilab
from beilab.binomial_edge import PrimeComponentInitial, SetupReport
from beilab.cutsets import AccessibilityReport, Cutset, UnmixednessReport
from beilab.graphs import (BlockDecomposition, Decomposition, Graph,
                           path_graph)
from beilab.homology import (CMCertificate, DepthResult, FieldSpec, Limits,
                             QQ)
from beilab.lab import (AnalysisReport, DepthEqualityRecord,
                        DepthQuestionFilter, TheoremVerdict)
from beilab.monomials import MonomialIdeal, SimplicialComplex

SRC = os.path.dirname(os.path.dirname(os.path.abspath(beilab.__file__)))
DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


def cold(code):
    """(modules loaded, modules -X importtime reports) after running code
    in a fresh interpreter started with -S, with the package's source
    directory as PYTHONPATH."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-c",
         code + "\nimport sys\nprint(' '.join(sys.modules))"],
        env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    timed = {line.rsplit("|", 1)[1].strip()
             for line in proc.stderr.splitlines()
             if line.startswith("import time:") and line.count("|") == 2}
    return set(proc.stdout.split()), timed


def test_cli_imports_no_code_generating_module():
    # concurrent.futures and the logging it loads cost a cold start ~15 ms
    loaded, timed = cold("import beilab.cli")
    for name in ("dataclasses", "inspect", "typing", "concurrent.futures"):
        assert name not in loaded
        assert name not in timed
    assert "beilab.cli" in timed and "beilab.corpus" not in loaded


def test_analyze_loads_no_thread_pool():
    # analyze runs on the calling thread, whatever --threads says
    corpus = str(pathlib.Path(__file__).parent / "data" / "connected_upto6.g6")
    loaded, timed = cold(
        "import contextlib, io\nimport beilab.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    status = beilab.cli.main(['analyze', {corpus!r}, "
        "'--threads', '2'])\n"
        "assert status == 0")
    for name in ("concurrent.futures", "threading"):
        assert name not in loaded
        assert name not in timed


def test_graph_io_loads_graphs_alone():
    loaded, _ = cold("from beilab import parse_edge_list, emit_graph6")
    assert "beilab.graphs" in loaded
    assert not {"beilab.lab", "beilab.homology", "beilab.corpus"} & loaded


def test_lab_skips_the_corpus():
    loaded, _ = cold("from beilab import lab, parse_edge_list")
    assert "beilab.lab" in loaded and "beilab.corpus" not in loaded


@pytest.mark.parametrize("demo", sorted(DEMOS.glob("*.py")),
                         ids=lambda path: path.name)
def test_demo_runs(demo):
    # each demo runs as its docstring says, with the checkout's src/ on
    # PYTHONPATH, so a demo that reads a removed name fails here
    proc = subprocess.run(
        [sys.executable, str(demo)],
        env=dict(os.environ, PYTHONPATH=str(DEMOS.parent / "src")),
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr


def test_every_exported_name_resolves_and_is_listed():
    listed = dir(beilab)
    for name in beilab.__all__:
        assert getattr(beilab, name) is not None
        assert name in listed
    assert beilab.lab.analyze is beilab.analyze
    with pytest.raises(AttributeError):
        beilab.no_such_name


_g = path_graph(3)
_cut = Cutset(frozenset({2}), 2)

# class, every field by keyword, and the defaults of the fields that have
# one; SetupReport holds a dict, so like the dataclass it was it has no hash
RECORDS = [
    (Graph, dict(n=2, edges=frozenset({(1, 2)})), dict(edges=frozenset())),
    (BlockDecomposition, dict(blocks=(frozenset({1, 2}),),
                              cut_vertices=frozenset()), {}),
    (Decomposition, dict(graph=_g, m=2, sides=((path_graph(2), 2),
                                               (path_graph(2), 1))), {}),
    (Cutset, dict(vertices=frozenset({2}), c=2), {}),
    (UnmixednessReport, dict(unmixed=False, witness=_cut, dim=4), {}),
    (AccessibilityReport, dict(accessible=False, witness=_cut), {}),
    (MonomialIdeal, dict(nvars=4, gens=(0b0011, 0b1100)), {}),
    (SimplicialComplex, dict(nverts=4, facets=(0b0011, 0b1100)), {}),
    (PrimeComponentInitial, dict(cutset=_cut, mask=0b1010), {}),
    (SetupReport, dict(m=2, results={1: True}, memberships_ok=True), {}),
    (FieldSpec, dict(characteristic=2), dict(characteristic=0)),
    (Limits, dict(field=FieldSpec(2), lattice_budget=5, face_budget=7),
     dict(field=QQ, lattice_budget=1_000_000, face_budget=5_000_000)),
    (CMCertificate, dict(is_cm=False, witness=("depth", 3, 4)),
     dict(witness=None)),
    (DepthResult, dict(depth=None, witness=(3, 0), depth_bounds=(2, 4)),
     dict(witness=None, depth_bounds=None)),
    (AnalysisReport, dict(
        graph6="Bw", n=3, girth=float("inf"), unmixed=True,
        unmixed_witness=None, accessible=True, accessible_witness=None,
        cm=True, cm_witness=None, field_char=0, depth=4, dim=4), {}),
    (TheoremVerdict, dict(theorem_id="girth", corpus="c", instances=3,
                          violations=(("Bw", "x"),),
                          hypothesis_relevant=(("Bw", "y"),),
                          findings=(("Bw", "z"),), indeterminate=1),
     dict(violations=(), hypothesis_relevant=(), findings=(),
          indeterminate=0)),
    (DepthEqualityRecord, dict(lhs=12, rhs=13, equal=False), {}),
    (DepthQuestionFilter, dict(side1_has_cutset=True, side2_has_cutset=False,
                               v_free_in_side1=False, v_free_in_side2=True),
     {}),
]


@pytest.mark.parametrize("cls, fields, defaults", RECORDS,
                         ids=[case[0].__name__ for case in RECORDS])
def test_record_behaves_as_a_frozen_dataclass(cls, fields, defaults):
    rec = cls(**fields)
    assert cls(*fields.values()) == rec
    assert [getattr(rec, name) for name in fields] == list(fields.values())
    # equal only to a record of its own class: never to a bare tuple
    assert rec != tuple(fields.values()) and rec != object()
    assert copy.copy(rec) == rec
    if cls is SetupReport:
        with pytest.raises(TypeError):
            hash(rec)
    else:
        assert hash(cls(*fields.values())) == hash(rec)
        assert hash(rec) == hash(tuple(fields.values()))
        assert pickle.loads(pickle.dumps(rec)) == rec
    for name in list(fields) + ["other"]:
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    required = {k: v for k, v in fields.items() if k not in defaults}
    plain = cls(**required)
    assert {k: getattr(plain, k) for k in defaults} == defaults
    changed = {k: v for k, v in fields.items() if k in defaults}
    assert plain._replace(**changed) == rec
    # a call that does not fit the fields raises, naming the class
    values = list(fields.values())
    misfits = [(values + [None], {}),               # one value too many
               ((), dict(fields, other=None)),      # an unknown field
               (values[:1], fields)]                # by position and name
    if required:                                    # a required field left out
        misfits.append(((), dict(list(required.items())[1:])))
    for args, kwargs in misfits:
        with pytest.raises(TypeError, match=cls.__name__):
            cls(*args, **kwargs)


def test_records_of_two_classes_never_compare_equal():
    assert MonomialIdeal(4, (1,)) != SimplicialComplex(4, (1,))
    assert len({MonomialIdeal(4, (1,)), SimplicialComplex(4, (1,))}) == 2
    assert Graph(2) != (2, frozenset())


def test_graph_validates_and_builds_neighbors_lazily():
    with pytest.raises(ValueError):
        Graph(-1)
    with pytest.raises(ValueError):
        Graph(2, frozenset({(2, 1)}))
    g, h = path_graph(3), path_graph(3)
    with pytest.raises(AttributeError):
        g._nbr                                  # not built yet
    assert g.neighbors(2) == frozenset({1, 3}) and g.degree(2) == 2
    assert g._nbr is g.neighbor_masks() == (0, 0b100, 0b1010, 0b100)
    # the neighbor masks are a cache, not a field
    assert g == h and hash(g) == hash(h)
    with pytest.raises(AttributeError):
        g.no_such_attribute
