"""The package's public surface: each ``__all__`` and the names the package re-exports."""

import ast
import importlib
from pathlib import Path

import pytest

import darklind

MODULES = ("linalg", "engine", "protocols", "effective", "analysis", "checks")


def package_imports():
    """(module, name) for every ``from .module import name`` of ``darklind/__init__.py``."""
    tree = ast.parse(Path(darklind.__file__).read_text())
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"darklind.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_reexports_only_exported_names():
    imports = package_imports()
    assert {module for module, _ in imports} <= set(MODULES)
    for module, name in imports:
        assert name in importlib.import_module(f"darklind.{module}").__all__, (module, name)


@pytest.mark.parametrize("removed", ["superoperator", "apply_superoperator", "adaptive_rk45"])
def test_removed_superoperator_helpers_are_gone(removed):
    assert not hasattr(darklind, removed)
    for name in MODULES:
        assert not hasattr(importlib.import_module(f"darklind.{name}"), removed)


@pytest.mark.parametrize("removed", ["_spin32_step_weights", "_SPIN32_NODES"])
def test_closed_form_has_no_private_step_rule(removed):
    # the spin-3/2 closed form takes the kernel recurrence's exact-decay rule
    assert not hasattr(importlib.import_module("darklind.analysis"), removed)


@pytest.mark.parametrize("removed", ["_prefix_scan", "_cumulative_product"])
def test_linalg_has_one_scan(removed):
    # every prefix product runs through ``linalg._scan``
    for name in MODULES:
        assert not hasattr(importlib.import_module(f"darklind.{name}"), removed)


@pytest.mark.parametrize("removed", ["_is_grid", "_adiabatic_hamiltonian_grid"])
def test_phases_take_one_path(removed):
    # U, dU, the adiabatic Hamiltonian and the lab jump evaluate phase arrays only
    for name in MODULES:
        assert not hasattr(importlib.import_module(f"darklind.{name}"), removed)


@pytest.mark.parametrize("removed", ["_phase_grid", "_end_jumps", "_kernel_frames"])
def test_per_tau_queries_share_the_cycle_grid(removed):
    # every per-tau query, the gauge check's defects and the frozen-state
    # integral read kernel blocks on the cycle grid, off a cycle record
    # (``effective._CycleRecord``)
    for name in MODULES:
        assert not hasattr(importlib.import_module(f"darklind.{name}"), removed)


@pytest.mark.parametrize("removed", [
    "_frozen_state_integral", "_dissipator_integral", "_purity_after", "_kernel_at", "_frame_series",
    "_frame_jumps",
])
def test_one_frame_jump_series(removed):
    # eq. 12, the end-of-cycle formula and the gauge purities apply one linear
    # map to rho, the frozen-state superoperator M = int D_l dtau that a cycle
    # record forms once from its frame jump series
    # (``effective._CycleRecord.dissipator`` from ``frame``, which also gives
    # the sweep its V_end); the gauge check reads two records, one per frame
    for name in MODULES:
        assert not hasattr(importlib.import_module(f"darklind.{name}"), removed)


def test_analysis_names_no_kernel_driver_internals():
    # the gauge check, eq. 12 and the sweep read cycle records through
    # ``effective._cycle_record`` alone
    tree = ast.parse(Path(importlib.import_module("darklind.analysis").__file__).read_text())
    names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              for alias in node.names}
    assert names & {"_KernelModes", "_CycleRecord", "_jumps", "_check_taus"} == set()


@pytest.mark.parametrize("module", ["analysis", "cli"])
def test_lab_frame_only_in_the_cross_checks(module):
    # every exact-vs-reduced comparison integrates the rotating frame
    # (``analysis.compare_effective_vs_full``); the lab frame runs only in the
    # battery's cross-checks (criteria 1 and 8)
    tree = ast.parse(Path(importlib.import_module(f"darklind.{module}").__file__).read_text())
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              for alias in node.names}
    assert "lab_generator" not in names


def test_one_kernel_recurrence():
    # the reduced propagator reads its kernel off the node blocks of the cycle
    # record, whose growth (``_CycleRecord.grow``) is the one caller of the
    # recurrence, and carries no kernel start
    tree = ast.parse(Path(importlib.import_module("darklind.effective").__file__).read_text())
    callers = {
        outer.name
        for outer in ast.walk(tree) if isinstance(outer, ast.FunctionDef)
        for node in ast.walk(outer)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "_kernel_grid"
    }
    assert callers == {"grow"}
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {node.name for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert names & {"_Level", "_carry", "_LEVEL_CHUNK"} == set()


def top_level_defs(module: str) -> dict:
    """Each top-level function and class of ``darklind.<module>`` by name."""
    tree = ast.parse(Path(importlib.import_module(f"darklind.{module}").__file__).read_text())
    return {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def names_in(node: ast.AST) -> set:
    """Every name and attribute that ``node`` reads."""
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def callers_of(defs: dict, callee: str) -> set:
    """The top-level definitions among ``defs`` that call ``callee`` by name."""
    return {name for name, node in defs.items()
            if any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == callee
                   for n in ast.walk(node))}


@pytest.mark.parametrize("module, reader", [
    ("effective", "_MagnusPropagator"),
    ("effective", "end_of_cycle_state"),
    ("analysis", "purity_prediction_general"),
    ("analysis", "convergence_sweep"),
    ("analysis", "gauge_covariance_check"),
])
def test_cycle_series_read_through_the_record(module, reader):
    # the reduced propagator, the end-of-cycle formula, eq. 12, the sweep's
    # V_end and the gauge check take the cycle series off cycle records made
    # by ``effective._cycle_record`` alone
    names = names_in(top_level_defs(module)[reader])
    assert "_cycle_record" in names
    assert "_CycleRecord" not in names


def test_one_record_builder():
    # every cycle record, the protocol's plain one and the gauge check's
    # gauged one, is made by ``_cycle_record``; a record's kernel blocks are
    # turned into ell in one place (``_jumps``), the one reader of the reduced
    # jump B^dag L U_b; the per-tau queries (``_x_of``), the holonomy and the
    # quadrature oracle read the protocol's record
    defs = top_level_defs("effective")
    assert callers_of(defs, "_CycleRecord") == {"_cycle_record"}
    assert callers_of(defs, "_cycle_record") == {"_x_of", "_MagnusPropagator", "end_of_cycle_state",
                                                 "x_tau_integral", "berry_holonomy"}
    readers = {name for name, node in defs.items() for n in ast.walk(node)
               if isinstance(n, ast.Attribute) and n.attr == "reduce_jump"
               and isinstance(n.ctx, ast.Load)}
    assert readers == {"_jumps"}


def test_one_cycle_record_owns_the_kernel_modes():
    # the bright eigenmodes of L^dag L are formed once, by the record's
    # constructor, and every reader of the modes takes them off a record
    for name in MODULES:
        assert not hasattr(importlib.import_module(f"darklind.{name}"), "_KernelModes")
    defs = top_level_defs("effective")
    eighs = [name for name, node in defs.items() for n in ast.walk(node)
             if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
             and n.func.attr == "eigh"]
    assert eighs == ["_CycleRecord"]


def test_only_the_frame_ends_see_the_gauge():
    # a gauge frame's (mode, drive row) pairs are recurrences of their own,
    # laid out by the record's constructor: only the drive (``_node_blocks``)
    # and the turn into ell (``_jumps``) read the gauge, and the kernel layer
    # between them (the record's ``grow`` and ``sample``, ``_partial_step``,
    # ``_step_maps``, ``_kernel_grid``) has no pair axis
    defs = top_level_defs("effective")
    readers = {name for name, node in defs.items() for n in ast.walk(node)
               if isinstance(n, ast.Attribute) and n.attr == "gauge"
               and isinstance(n.ctx, ast.Load)}
    assert readers == {"_node_blocks", "_jumps"}


def test_no_function_takes_a_list_of_frames():
    # a frame is the gauge of its cycle record (``_CycleRecord.gauge``), one
    # per record: no definition of ``effective`` takes ``gauges``
    tree = ast.parse(Path(importlib.import_module("darklind.effective").__file__).read_text())
    takes = [node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
             for arg in ast.walk(node.args) if isinstance(arg, ast.arg) and arg.arg == "gauges"]
    assert takes == []


def is_affine_update(node: ast.AST) -> bool:
    """Whether ``node`` is ``m[..., :1] * x + m[..., 1:]``, an affine map [decay | gain] applied."""
    def last_axis_slice(sub, lower, upper):
        return (isinstance(sub, ast.Subscript) and isinstance(sub.slice, ast.Tuple)
                and isinstance(sub.slice.elts[-1], ast.Slice)
                and ast.literal_eval(sub.slice.elts[-1].lower or ast.Constant(None)) == lower
                and ast.literal_eval(sub.slice.elts[-1].upper or ast.Constant(None)) == upper)

    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
            and isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.Mult)
            and last_axis_slice(node.left.left, None, 1)
            and last_axis_slice(node.right, 1, None))


def test_one_partial_step_and_one_recurrence_driver():
    # the affine update that ends every partial step, and starts every chunk
    # of the recurrence from its carried block, is written once (``_affine``);
    # the scan has one caller, the record's growth; the partial step is the
    # one kernel path between the nodes, taken by the record's reads (``at``)
    # for the per-tau queries and the reduced propagator alike, with no dense
    # output beside it; the per-tau queries read the protocol's record and run
    # no kernel pass of their own
    defs = top_level_defs("effective")
    owners = [name for name, node in defs.items() for n in ast.walk(node) if is_affine_update(n)]
    assert owners == ["_affine"]
    assert callers_of(defs, "_affine") == {"_partial_step", "_kernel_grid"}
    assert callers_of(defs, "_partial_step") == {"_CycleRecord"}
    assert callers_of(defs, "_kernel_grid") == {"_CycleRecord"}
    assert defs.keys() & {"_dense_output", "_gl3_steps"} == set()
    names = names_in(defs["_x_of"])
    assert "_cycle_record" in names
    assert names & {"_CycleRecord", "_KernelModes", "_partial_step"} == set()


def test_h_between_the_nodes_comes_off_the_record():
    # every row of the adiabatic Hamiltonian is evaluated by ``_node_blocks``,
    # which only the record's growth, the quadrature oracle's ``drive`` and
    # the holonomy's own midpoint pass call; every other reader of the reduced
    # theory (the partial step, the record's ``sample`` and ``at``, the
    # reduced propagator) reads H off the record's samples
    defs = top_level_defs("effective")
    assert callers_of(defs, "_node_blocks") == {"_CycleRecord", "berry_holonomy"}
    methods = {node.name: node for node in defs["_CycleRecord"].body
               if isinstance(node, ast.FunctionDef)}
    assert callers_of(methods, "_node_blocks") == {"grow", "drive"}
    evaluators = {"_node_blocks", "adiabatic_hamiltonian", "projected_hamiltonian"}
    for reader in ("_MagnusPropagator", "_partial_step"):
        assert names_in(defs[reader]) & evaluators == set(), reader
    for module in MODULES + ("cli", "reporting"):
        if module != "effective":
            tree = ast.parse(Path(importlib.import_module(f"darklind.{module}").__file__).read_text())
            assert "_node_blocks" not in names_in(tree), module


def test_every_private_definition_is_used():
    # keep no dead code paths: every private top-level function and class of
    # the package is named by package code outside its own definition, so a
    # helper left with only test callers fails
    package = Path(darklind.__file__).parent
    trees = [ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))]
    private = [node for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")]
    assert private
    unused = [node.name for node in private
              if not any(node.name in names_in(other)
                         for tree in trees for other in tree.body if other is not node)]
    assert unused == []


def test_one_formula_for_the_effective_jump():
    # every ell the package returns is formed by ``_jumps`` from kernel blocks
    # in a record's mode coordinates: the record's own readers, the reduced
    # propagator's Gauss points and the per-tau queries of either source, so
    # ``effective_jump`` forms no B^dag L X B of its own
    defs = top_level_defs("effective")
    assert callers_of(defs, "_jumps") == {"_CycleRecord", "_MagnusPropagator", "effective_jump"}
    assert "L_rot" not in names_in(defs["effective_jump"])


def test_one_cf4_driver():
    # the reduced propagator's CF4 steps, multiplied by the prefix scan, are
    # the package's one CF4 path; ``ordered_exponential`` keeps the midpoint
    # rule alone and starts at the identity
    callers = {(module, name) for module in MODULES + ("cli", "reporting")
               for name in callers_of(top_level_defs(module), "_cf4_steps")}
    assert callers == {("effective", "_MagnusPropagator")}
    defs = top_level_defs("linalg")
    args = defs["ordered_exponential"].args
    assert "start" not in {a.arg for a in args.args + args.kwonlyargs}
    assert names_in(defs["_ordered_steps"]) & {"_cf4_steps", "CF4_NODES", "CF4_WEIGHTS"} == set()


def test_one_cf4_grid():
    # the reduced propagator steps one fixed grid, the graded cycle nodes of
    # ``_graded_grid``: it takes no tolerance and keeps no doubling constant
    defs = top_level_defs("effective")
    args = defs["evolve_effective"].args
    assert {a.arg for a in args.args + args.kwonlyargs} & {"rtol", "atol"} == set()
    assert callers_of(defs, "_graded_grid") == {"_MagnusPropagator"}
    assert names_in(defs["_MagnusPropagator"]) & {"_check_tolerances", "ConvergenceError"} == set()
    effective = vars(importlib.import_module("darklind.effective"))
    assert effective.keys() & {"_MAGNUS_FIRST_STEPS", "_MAGNUS_MAX_DOUBLINGS"} == set()


def test_the_cli_reads_its_config_once():
    # ``validate_config`` turns the merged config into one run record: it alone
    # builds the protocol and parses the initial state, and every runner reads
    # the record's fields, never a config dict by key
    defs = top_level_defs("cli")
    assert callers_of(defs, "build_protocol") == {"validate_config"}
    assert callers_of(defs, "_initial_state") == {"validate_config"}
    runners = {f.__name__ for f in importlib.import_module("darklind.cli")._RUNNERS.values()}
    keyed_reads = {name for name in runners for n in ast.walk(defs[name])
                   if isinstance(n, ast.Subscript) and isinstance(n.ctx, ast.Load)
                   and isinstance(n.slice, ast.Constant) and isinstance(n.slice.value, str)}
    assert len(runners) == 4
    assert keyed_reads == set()
