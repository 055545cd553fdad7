"""Frobenius characteristics, q,t series, and matrix rendering."""

import subprocess
import sys
from math import gcd
from pathlib import Path

import pytest

from ratcat.frob import (
    QTMatrix,
    cat_qt,
    classical_cat_qt,
    classical_shuffle_side,
    dimension_check,
    frob_h,
    frob_p,
    frob_s,
    frob_via_genfunc,
    hilb,
    matrix_of_poly,
    pf_qt,
    render_matrix,
    schroeder,
    to_matrix,
)
from ratcat.qt import LaurentQT, ONE, q_int
from ratcat.symfunc import basis_convert, hall_inner, omega, single


def test_frob_closed_forms_small():
    assert frob_h(2, 3).as_dict() == {
        (2,): LaurentQT.const(1),
        (1, 1): LaurentQT.const(1),
    }
    assert frob_s(3, 5).as_dict() == {
        (3,): LaurentQT.const(7),
        (2, 1): LaurentQT.const(8),
        (1, 1, 1): LaurentQT.const(2),
    }


def test_frob_routes_agree():
    for a in range(1, 6):
        for b in range(1, 9):
            if gcd(a, b) != 1:
                continue
            fm = basis_convert(frob_h(a, b), "m")
            assert basis_convert(frob_p(a, b), "m") == fm
            assert basis_convert(frob_s(a, b), "m") == fm
            assert frob_via_genfunc(a, b) == fm
            assert dimension_check(a, b)


def test_frob_s_divisibility_check_survives_optimize():
    # s_lam(1^b) must be a multiple of b; the check must raise under -O
    code = (
        "import ratcat.frob as f\n"
        "f.schur_principal_special = lambda lam, b: 1\n"
        "try:\n"
        "    f.frob_s(3, 5)\n"
        "except AssertionError:\n"
        "    print('raised')\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-O", "-c", code], cwd=src,
                         capture_output=True, text=True, check=True)
    assert out.stdout == "raised\n"


def test_frob_genfunc_single_car():
    assert frob_via_genfunc(1, 4) == single(1, "m", (1,))


def test_frob_rejects_non_coprime():
    with pytest.raises(ValueError):
        frob_h(2, 4)


def test_schroeder():
    assert schroeder(5, 3, 4) == 7
    assert schroeder(2, 3, 1) == 2
    assert schroeder(5, 3, 0) == 0  # k < a - b
    with pytest.raises(ValueError):
        schroeder(3, 5, 3)


def test_schroeder_matches_hook_coefficients():
    for a, b in [(2, 3), (3, 5), (4, 7), (5, 3)]:
        fs = frob_s(a, b)
        for k in range(a):
            hook = (k + 1,) + (1,) * (a - k - 1)
            assert fs.coeff(hook).evaluate() == schroeder(a, b, k)


def test_cat_qt_small():
    assert cat_qt(2, 3) == LaurentQT.q() + LaurentQT.t()
    want = LaurentQT(
        {(4, 0): 1, (3, 1): 1, (2, 2): 1, (2, 1): 1, (1, 2): 1, (1, 3): 1, (0, 4): 1}
    )
    assert cat_qt(3, 5) == want


def test_cat_qt_twins_and_symmetry():
    for a, b in [(2, 3), (3, 5), (4, 7)]:
        c = cat_qt(a, b)
        assert c == cat_qt(b, a)
        assert c == c.swap_q_t()


def test_pf_qt_2_3():
    series = pf_qt(2, 3)
    assert series.as_dict() == {
        (2,): LaurentQT.q() + LaurentQT.t(),
        (1, 1): ONE,
    }


def test_pf_qt_descending_is_omega():
    for a, b in [(2, 3), (3, 4), (3, 5)]:
        assert pf_qt(a, b, descending=True) == omega(pf_qt(a, b))


def test_pf_qt_at_one_recovers_frobenius():
    for a, b in [(2, 3), (2, 5), (3, 5), (4, 7), (4, 3)]:
        graded = pf_qt(a, b)
        flat = {lam: c.evaluate() for lam, c in graded.coeffs}
        want = {lam: c.evaluate() for lam, c in frob_s(a, b).coeffs}
        assert flat == want


def test_hilb():
    assert hilb(2, 3) == ONE + LaurentQT.q() + LaurentQT.t()
    # q=t=1 gives the count of parking functions
    for a, b in [(3, 4), (4, 5)]:
        assert hilb(a, b).evaluate() == b ** (a - 1)


def test_hilb_specialization():
    for a, b in [(2, 3), (3, 5), (4, 7)]:
        shift = (a - 1) * (b - 1) // 2
        assert hilb(a, b).specialize_t(-1, shift) == q_int(b) ** (a - 1)


def test_sign_coefficient_vs_cat_qt_reported():
    # whether the s_(1^a) coefficient of the series matches cat_qt is an
    # open comparison: computed and printed, deliberately not asserted
    for a, b in [(2, 3), (3, 4), (3, 5), (4, 3)]:
        same = pf_qt(a, b).coeff((1,) * a) == cat_qt(a, b)
        print(f"pf_qt[1^{a}] == cat_qt for ({a},{b}): {same}")


def test_classical_shuffle_side():
    assert classical_shuffle_side(1) == single(1, "s", (1,))
    for n in (2, 3, 4):
        series = classical_shuffle_side(n)
        got = hall_inner(series, single(n, "s", (1,) * n))
        assert got == classical_cat_qt(n)


def test_to_matrix():
    assert to_matrix(ONE).rows == [[1]]
    assert to_matrix(LaurentQT.q() + LaurentQT.t()).rows == [[0, 1], [1, 0]]
    with pytest.raises(ValueError):
        to_matrix(LaurentQT.monomial(-1, 0))


def test_render_matrix():
    m = QTMatrix([[0, 1], [1, 0]])
    assert render_matrix(m) == ". 1\n1 ."
    assert render_matrix(m, "tex") == ". & 1\n1 & ."
    wide = QTMatrix([[0, 10], [1, 0]])
    assert render_matrix(wide) == " . 10\n 1  ."


def test_matrix_of_poly_cat_3_5():
    want = (
        ". . . . 1\n"
        ". . 1 1 .\n"
        ". 1 1 . .\n"
        ". 1 . . .\n"
        "1 . . . ."
    )
    assert matrix_of_poly(cat_qt(3, 5)) == want
