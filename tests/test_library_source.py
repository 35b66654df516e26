"""Source-level guards on src/hpflow: no dead public names, and one group
exponential.

Every top-level public function or class is used somewhere in the library
outside its own definition; a re-export from the package's __init__ is not
a use, and a verify suite is used through its name in
verify_suites.SCOPE_SUITES.  No module calls an eigen- or singular-value
decomposition or a matrix exponential of numpy or scipy: the group
exponential is soliton_flows.expm_antihermitian.  quat_core makes one real
matrix product, its gather engine's, and the operator, flow and frame
modules form no quaternion product from qmul.  No code compares a flow
kind's name: a kind is a row of soliton_flows.FLOWS and, with a map check,
of curve_geometry.MAP_CHECKS, and code reads the row.
"""

import ast
from pathlib import Path

from hpflow import soliton_flows as sf
from hpflow import verify_suites as vs

SRC = Path(__file__).resolve().parents[1] / "src" / "hpflow"
MODULES = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
DECOMPOSITIONS = {"eig", "eigh", "eigvals", "eigvalsh", "svd", "expm"}


def _used_names():
    """{name: {(module, top-level definition or None)}} for every name the
    library reads, with where it reads it."""
    used = {}
    for module, tree in MODULES.items():
        for top in tree.body:
            owner = top.name if isinstance(top, DEFINITIONS) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias) and module != "__init__":
                    name = node.name
                else:
                    continue
                used.setdefault(name, set()).add((module, owner))
    for suites in vs.SCOPE_SUITES.values():
        for name, _ in suites:
            used.setdefault(name, set()).add(("verify_suites", "SCOPE_SUITES"))
    return used


def test_every_public_name_is_used_in_the_library():
    used = _used_names()
    unused = [
        f"{module}.{top.name}"
        for module, tree in MODULES.items()
        for top in tree.body
        if isinstance(top, DEFINITIONS)
        and not top.name.startswith("_")
        and not used.get(top.name, set()) - {(module, top.name)}
    ]
    assert unused == [], f"public names no library code uses: {unused}"


def test_no_module_calls_a_linalg_decomposition_or_expm():
    calls = [
        f"{module}.py:{node.lineno}: {ast.unparse(node.func)}"
        for module, tree in MODULES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, (ast.Attribute, ast.Name))
        and (node.func.attr if isinstance(node.func, ast.Attribute) else node.func.id)
        in DECOMPOSITIONS
    ]
    assert calls == [], f"use soliton_flows.expm_antihermitian in place of: {calls}"


def test_no_library_code_compares_a_flow_kind_name():
    kinds = set(sf.FLOWS)
    compares = [
        f"{module}.py:{node.lineno}: {ast.unparse(node)}"
        for module, tree in MODULES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and any(
            isinstance(side, ast.Constant) and isinstance(side.value, str) and side.value in kinds
            for side in (node.left, *node.comparators)
        )
    ]
    assert compares == [], f"read the kind's FLOWS or MAP_CHECKS row in place of: {compares}"


def test_one_gather_engine_forms_every_quaternion_vector_and_matrix_product():
    products = [
        f"quat_core.py:{node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(MODULES["quat_core"])
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult))
        or (isinstance(node, ast.Attribute) and node.attr == "matmul")
    ]
    assert len(products) == 1, f"quat_core's real matrix products: {products}"
    qmul_calls = [
        f"{module}.py:{node.lineno}: {ast.unparse(node)}"
        for module in ("curve_geometry", "biham_ops", "soliton_flows")
        for node in ast.walk(MODULES[module])
        if isinstance(node, ast.Call) and ast.unparse(node.func) in ("qc.qmul", "qmul")
    ]
    assert qmul_calls == [], f"use quat_core's gather engine in place of: {qmul_calls}"
