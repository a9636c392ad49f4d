"""Package exports: the names `keyedqkd` exports and the objects they resolve to,
neither a private name shared between its modules nor an import cycle among them,
and no unused import or unreferenced private name left in them."""

import ast
import importlib
import pathlib
import types

import pytest

import keyedqkd
from test_cli import run_python

# The exported names by owning submodule, written out so that a change to
# the package's exports fails here.
EXPORTS = {
    "adversary": [
        "AttackReport", "AttackStrategy", "attack_block_guess", "attack_fixed_basis",
        "attack_intercept_resend", "attack_key_guess", "block_guess_trials",
        "ciphertext_only_state", "measure_resend_interference", "run_attack",
    ],
    "analysis": [
        "ConfidenceInterval", "RateWindow", "SweepRow", "binomial_ci", "eve_capacity", "h2",
        "net_key_rate", "rate_window", "sweep_csv", "sweep_m",
    ],
    "keystream": [
        "LfsrKeystream", "LfsrSpec", "RepetitionKeystream", "RunningKey", "SeedKey",
        "expand_running_key", "lfsr_period", "lfsr_stream", "repetition_running_key",
    ],
    "protocol": [
        "ChannelModel", "DirectEncryptionResult", "KeyLedger", "ProtocolConfig",
        "ProtocolOutcome", "RateVerdict", "pa_output_length", "privacy_amplify", "rate_gate",
        "reconcile", "run_direct_encryption", "run_protocol", "transmit_round",
        "verification_tag", "verify_key",
    ],
    "qubits": [
        "BasisAlphabet", "DensityMatrix", "MeasBasis", "eve_error_key_granted",
        "keyless_error", "measure_many", "optimal_fixed_basis",
    ],
}
NAMES = sorted(name for names in EXPORTS.values() for name in names)
# `from keyedqkd import *` also binds the submodules.
STAR_NAMES = sorted(NAMES + list(EXPORTS))


def test_exported_names_are_unchanged():
    assert len(NAMES) == 51
    assert sorted(keyedqkd.__all__) == STAR_NAMES


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_each_name_is_its_modules_object(module):
    owner = importlib.import_module(f"keyedqkd.{module}")
    assert getattr(keyedqkd, module) is owner
    for name in EXPORTS[module]:
        assert getattr(keyedqkd, name) is getattr(owner, name), name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from keyedqkd import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == STAR_NAMES
    for name, value in namespace.items():
        assert value is getattr(keyedqkd, name)
    assert all(isinstance(namespace[m], types.ModuleType) for m in EXPORTS)


def test_dir_lists_every_name():
    assert set(STAR_NAMES) <= set(dir(keyedqkd))
    assert "__version__" in dir(keyedqkd)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        keyedqkd.no_such_name
    # A submodule's own names are not exported through the package.
    with pytest.raises(AttributeError, match="uniform_bits"):
        keyedqkd.uniform_bits


def test_bare_import_loads_no_submodule_until_first_use():
    probe = (
        "import sys, keyedqkd\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('keyedqkd.'))\n"
        "print(loaded(), set(keyedqkd.__all__) <= set(dir(keyedqkd)))\n"
        "print(keyedqkd.protocol.__name__, loaded())\n"
        "print(keyedqkd.run_attack is sys.modules['keyedqkd.adversary'].run_attack)\n"
    )
    lines = run_python(probe).splitlines()
    assert lines[0] == "[] True"
    assert lines[1] == ("keyedqkd.protocol ['keyedqkd.analysis', 'keyedqkd.keystream', "
                        "'keyedqkd.protocol', 'keyedqkd.qubits']")
    assert lines[2] == "True"


def test_no_module_imports_a_private_name_from_a_sibling():
    # Relative or absolute, at module level or inside a function.
    private = []
    for path in sorted(pathlib.Path(keyedqkd.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "keyedqkd"):
                private += [(path.name, node.module, alias.name) for alias in node.names
                            if alias.name.startswith("_")]
    assert private == []


def _sibling_imports(path: pathlib.Path, siblings: set) -> set:
    """The sibling modules that `path` imports, relative or absolute, at module
    level or inside a function."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[1] for alias in node.names
                      if alias.name.startswith("keyedqkd.")}
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] != "keyedqkd":
                continue
            inner = parts[1:] if node.level == 0 else [p for p in parts if p]
            found |= {inner[0]} if inner else {alias.name for alias in node.names}
    return found & siblings


def test_no_module_reaches_itself_through_sibling_imports():
    paths = {path.stem: path for path in pathlib.Path(keyedqkd.__file__).parent.glob("*.py")}
    graph = {name: _sibling_imports(path, set(paths)) for name, path in paths.items()}
    cyclic = []
    for start in sorted(graph):
        reached, frontier = set(), set(graph[start])
        while frontier:
            name = frontier.pop()
            reached.add(name)
            frontier |= graph[name] - reached
        if start in reached:
            cyclic.append(start)
    assert cyclic == []


def _callers(name: str) -> set:
    """The modules of the package that call `name`, by bare name or as an attribute."""
    found = set()
    for path in pathlib.Path(keyedqkd.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                       getattr(node.func, "attr", None)):
                found.add(path.stem)
    return found


def test_only_the_keyed_send_samples_angles():
    # The attack kernels and in-line interference measure lattice offsets
    # through qubits.measure_codes; float angles are turned and measured
    # only by protocol's keyed send and by measure_codes itself.
    assert _callers("measure_many") == {"protocol", "qubits"}
    assert _callers("turn_by_bits") == {"protocol"}


# Bound in adversary only so that perfbench's trace can wrap that binding;
# nothing in adversary calls it.
UNUSED_IMPORTS = {("adversary", "measure_many")}


def _reads(tree: ast.Module) -> set:
    """Every name that `tree` reads, bare or as an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}


def _defines(node: ast.stmt) -> list:
    """The names a module-level statement defines: a function, a class or
    the plain names an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [target.id for target in targets if isinstance(target, ast.Name)]
    return []


def test_every_import_is_used_and_every_private_name_is_read():
    # Imports at module level or inside a function, each read in its own
    # module; private names defined at module level, each read somewhere in
    # the package, so a helper that loses its last caller fails here.
    trees = {path.stem: ast.parse(path.read_text())
             for path in pathlib.Path(keyedqkd.__file__).parent.glob("*.py")}
    reads = {module: _reads(tree) for module, tree in trees.items()}
    unused = {(module, name) for module, tree in trees.items() for node in ast.walk(tree)
              if isinstance(node, (ast.Import, ast.ImportFrom))
              and getattr(node, "module", None) != "__future__"
              for name in (alias.asname or alias.name.partition(".")[0] for alias in node.names)
              if name not in reads[module]}
    assert unused == UNUSED_IMPORTS
    everywhere = set().union(*reads.values())
    unread = [(module, name) for module, tree in trees.items() for node in tree.body
              for name in _defines(node)
              if name.startswith("_") and not name.startswith("__") and name not in everywhere]
    assert unread == []
