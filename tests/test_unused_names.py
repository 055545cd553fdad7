"""Tooling guard: every top-level function and class in src/ratcat, and
every method of a top-level class but the dunders, is named somewhere else
in src/, or is a reference route kept for a test."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ratcat"

# test-side reference routes with no caller in src/: name (Class.method for
# a method) -> a test that checks an identity with it
KEPT_FOR_TESTS = {
    "q_factorial": "test_qt::test_q_int_and_factorial",
    "classical_cat_qt": "test_frob::test_classical_case_is_frame_n_n_plus_1",
    "classical_shuffle_side":
        "test_frob::test_classical_case_is_frame_n_n_plus_1",
    "dinv_rational": "test_frob::test_public_statistics_match_the_per_pf_bodies",
    "drw_rational": "test_frob::test_public_statistics_match_the_per_pf_bodies",
    "ides": "test_frob::test_public_statistics_match_the_per_pf_bodies",
    "max_stretched_dinv": "test_parking::test_dinv_levels_match_stretch",
    "to_preference_vector": "test_parking::test_preference_vector_round_trip",
    "h_poly": "test_symfunc::test_basis_in_m_matches_the_varpoly_product",
    "p_poly": "test_symfunc::test_basis_in_m_matches_the_varpoly_product",
    "varpoly_to_m": "test_symfunc::test_basis_in_m_matches_the_varpoly_product",
    "hall_inner": "test_frob::test_classical_shuffle_side",
    "omega": "test_frob::test_pf_qt_descending_is_omega",
    "single": "test_symfunc::test_hall_inner_dualities",
}


def _top_level_and_named():
    """({top-level def or class name, or Class.method: module}, every name
    used in src/ other than at its definition: loaded names, attributes and
    imported names)."""
    defined, named = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node.name] = path.stem
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.endswith("__")):
                        defined[f"{node.name}.{item.name}"] = path.stem
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    return defined, named


def test_every_top_level_name_is_used_or_kept_for_a_test():
    defined, named = _top_level_and_named()
    unused = {f"{mod}.{name}" for name, mod in defined.items()
              if name.rpartition(".")[2] not in named
              and name not in KEPT_FOR_TESTS}
    assert unused == set()


def test_the_kept_names_exist_unused_and_in_their_tests():
    defined, named = _top_level_and_named()
    for name, test in KEPT_FOR_TESTS.items():
        assert name in defined, name
        short = name.rpartition(".")[2]
        assert short not in named, f"{name} has a caller in src/; unlist it"
        module, _, func = test.partition("::")
        tree = ast.parse((SRC.parents[1] / "tests" / f"{module}.py").read_text())
        body = next(n for n in tree.body
                    if isinstance(n, ast.FunctionDef) and n.name == func)
        used = {n.id for n in ast.walk(body) if isinstance(n, ast.Name)}
        used |= {n.attr for n in ast.walk(body) if isinstance(n, ast.Attribute)}
        assert short in used, (name, test)
