"""Tooling guard: every top-level function and class in src/ratcat, and
every method of a top-level class but the dunders, is reached from the code
that runs, or is a reference route kept for a test.

Reached means called or named, following the bodies of what is reached,
from module-level code or from cli.main. A bare name resolves in its own
module: to that module's definition, or through a `from .module import`.
An attribute `.x` reaches every method and every top-level function named
x. A reached class reaches its dunder methods. The kept names are not
followed, so a helper that only they reach must be kept (and listed) too.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ratcat"

# test-side reference routes that nothing in src/ reaches: name
# (Class.method for a method) -> a test that checks an identity with it
KEPT_FOR_TESTS = {
    # wait on a sweep claim that checks the (n, n+1) frame against them
    "classical_cat_qt": "test_frob::test_classical_case_is_frame_n_n_plus_1",
    "classical_shuffle_side":
        "test_frob::test_classical_case_is_frame_n_n_plus_1",
    # wait on perfbench/tracing.py, whose install() reads symfunc.VarPoly
    "VarPoly": "test_symfunc::test_basis_in_m_matches_the_varpoly_product",
    "VarPoly.one": "test_symfunc::test_basis_in_m_matches_the_varpoly_product",
    "h_poly": "test_symfunc::test_basis_in_m_matches_the_varpoly_product",
    "p_poly": "test_symfunc::test_basis_in_m_matches_the_varpoly_product",
    "varpoly_to_m": "test_symfunc::test_basis_in_m_matches_the_varpoly_product",
    "VarPoly._of": "test_symfunc::test_varpoly_helpers_match_direct_counts",
    "_max_exponent": "test_symfunc::test_varpoly_helpers_match_direct_counts",
    "_distinct_perm_count":
        "test_symfunc::test_varpoly_helpers_match_direct_counts",
}


def _is_function(node):
    return isinstance(node, ast.FunctionDef)


def _module_level(node):
    """The parts of a top-level statement that run at import: all of it but
    the bodies of functions and methods."""
    if _is_function(node):
        return [*node.decorator_list, *node.args.defaults,
                *filter(None, node.args.kw_defaults)]
    if isinstance(node, ast.ClassDef):
        parts = [*node.bases, *node.keywords, *node.decorator_list]
        for item in node.body:
            parts += _module_level(item) if _is_function(item) else [item]
        return parts
    return [node]


def _src_trees():
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(SRC.glob("*.py"))}


def _call_graph(trees):
    """(definitions, roots) of the modules {name: ast}: definitions maps
    each top-level function or class, and Class.method, to (module, the
    definitions its body reaches); roots is what module-level code and
    cli.main reach."""
    nodes, by_short = {}, {}
    for mod, tree in trees.items():
        for node in tree.body:
            if _is_function(node) or isinstance(node, ast.ClassDef):
                assert node.name not in nodes, f"{node.name} defined twice"
                nodes[node.name] = (mod, node)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if _is_function(item):
                        nodes[f"{node.name}.{item.name}"] = (mod, item)
    for name in nodes:
        by_short.setdefault(name.rpartition(".")[2], set()).add(name)

    def resolver(mod):
        own = {n: n for n, (m, _) in nodes.items() if m == mod and "." not in n}
        for node in ast.walk(trees[mod]):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if alias.name in nodes:
                        own.setdefault(alias.asname or alias.name, alias.name)

        def reached(parts):
            out = set()
            for part in parts:
                for node in ast.walk(part):
                    if isinstance(node, ast.Name) and node.id in own:
                        out.add(own[node.id])
                    elif isinstance(node, ast.Attribute):
                        out |= {n for n in by_short.get(node.attr, ())
                                if not n.endswith("__")}
            return out

        return reached

    resolvers = {mod: resolver(mod) for mod in trees}
    definitions = {}
    for name, (mod, node) in nodes.items():
        if isinstance(node, ast.ClassDef):  # its body outside methods is a root
            edges = {f"{name}.{item.name}" for item in node.body
                     if _is_function(item) and item.name.endswith("__")}
        else:
            edges = resolvers[mod]([node])
        definitions[name] = (mod, edges)
    roots = {"main"}  # cli.main, the console script
    for mod, tree in trees.items():
        for node in tree.body:
            roots |= resolvers[mod](_module_level(node))
    return definitions, roots


def _reached(trees, kept):
    """(definitions, every definition reached without passing through a
    kept name)."""
    definitions, roots = _call_graph(trees)
    seen, todo = set(), [n for n in roots if n not in kept]
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        todo += [n for n in definitions[name][1]
                 if n not in seen and n not in kept]
    return definitions, seen


def test_every_top_level_name_is_used_or_kept_for_a_test():
    definitions, reached = _reached(_src_trees(), KEPT_FOR_TESTS)
    unused = {f"{definitions[name][0]}.{name}" for name in definitions
              if not name.endswith("__") and name not in reached
              and name not in KEPT_FOR_TESTS}
    assert unused == set()


def _named_by_test(test):
    """Every name and attribute that the test "module::function" reads,
    itself or through the functions of its module that it calls."""
    module, _, func = test.partition("::")
    tree = ast.parse((SRC.parents[1] / "tests" / f"{module}.py").read_text())
    functions = {n.name: n for n in tree.body if _is_function(n)}
    used, todo = set(), [func]
    while todo:
        body = functions[todo.pop()]
        names = {n.id for n in ast.walk(body) if isinstance(n, ast.Name)}
        names |= {n.attr for n in ast.walk(body) if isinstance(n, ast.Attribute)}
        todo += [n for n in names - used if n in functions]
        used |= names
    return used


def test_the_kept_names_exist_unused_and_in_their_tests():
    definitions, reached = _reached(_src_trees(), KEPT_FOR_TESTS)
    for name, test in KEPT_FOR_TESTS.items():
        assert name in definitions, name
        assert name not in reached, f"{name} is reached from src/; unlist it"
        assert name.rpartition(".")[2] in _named_by_test(test), (name, test)


def test_the_guard_follows_calls():
    # cli.main -> run -> helper is followed, and a kept name's callee is
    # not; a class reached by name reaches its dunders, not its methods
    trees = {
        "cli": ast.parse("from .a import run\ndef main():\n    run()\n"),
        "a": ast.parse(
            "def run():\n    helper()\n    return Box()\n"
            "def helper():\n    pass\n"
            "def kept():\n    only_kept()\n"
            "def only_kept():\n    pass\n"
            "class Box:\n"
            "    def __init__(self):\n        self.size()\n"
            "    def size(self):\n        pass\n"
            "    def unused(self):\n        pass\n"),
    }
    definitions, reached = _reached(trees, {"kept"})
    assert set(definitions) - reached == {"kept", "only_kept", "Box.unused"}
