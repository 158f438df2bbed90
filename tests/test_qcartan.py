import pytest

from qgroth.cartan import CartanDatum, cartan_datum
from qgroth.qcartan import QuantumCartan, quantum_cartan
from qgroth.quiver import QuiverDatum

from conftest import all_orientations, four_coefficient_n, verify_inverse

A4_SERIES = {
    (1, 1): {1: 1, 9: -1, 11: 1, 19: -1},
    (1, 2): {2: 1, 8: -1, 12: 1, 18: -1},
    (1, 3): {3: 1, 7: -1, 13: 1, 17: -1},
    (1, 4): {4: 1, 6: -1, 14: 1, 16: -1},
    (2, 1): {2: 1, 8: -1, 12: 1, 18: -1},
    (2, 2): {1: 1, 3: 1, 7: -1, 9: -1, 11: 1, 13: 1, 17: -1, 19: -1},
    (2, 3): {2: 1, 4: 1, 6: -1, 8: -1, 12: 1, 14: 1, 16: -1, 18: -1},
    (2, 4): {3: 1, 7: -1, 13: 1, 17: -1},
}

ADE_TYPES = [f"A{n}" for n in range(1, 9)] + [f"D{n}" for n in range(4, 9)] + ["E6", "E7", "E8"]


def test_a4_series_worked_example():
    qc = quantum_cartan(cartan_datum("A4"))
    for (i, j), want in A4_SERIES.items():
        assert qc.series(i, j, 19) == [want.get(m, 0) for m in range(1, 20)], (i, j)


def test_rank1_and_rank3_series():
    qc1 = quantum_cartan(cartan_datum("A1"))
    assert qc1.series(1, 1, 10) == [1, 0, -1, 0, 1, 0, -1, 0, 1, 0]
    qc3 = quantum_cartan(cartan_datum("A3"))
    assert qc3.series(1, 1, 16) == [1, 0, 0, 0, 0, 0, -1, 0, 1, 0, 0, 0, 0, 0, -1, 0]
    assert qc3.series(1, 2, 14) == [0, 1, 0, 0, 0, -1, 0, 0, 0, 1, 0, 0, 0, -1]


def test_nonpositive_extension_is_zero():
    qc = quantum_cartan(cartan_datum("D4"))
    for m in (0, -1, -5):
        assert qc.ctilde(1, 2, m) == 0


def test_parity_vanishing_and_height_diagonal():
    cd = cartan_datum("A4")
    qc = quantum_cartan(cd)
    q = QuiverDatum.from_xi(cd, (0, 1, 0, 1))
    for i in cd.vertices:
        for j in cd.vertices:
            for m in range(1, 12):
                if (m + q.xi[i - 1] - q.xi[j - 1] - 1) % 2 == 1:
                    assert qc.ar_value(i, j, m, q) == 0
            if q.xi[i - 1] == q.xi[j - 1]:
                assert qc.ctilde(i, j, 1) == (1 if i == j else 0)


def test_worked_coefficient_rank4():
    cd = cartan_datum("A4")
    qc = quantum_cartan(cd)
    q = QuiverDatum.from_xi(cd, (0, 1, 0, 1))
    assert qc.ar_value(2, 3, 6, q) == -1
    assert qc.series_coeff(2, 3, 6) == -1


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "A5", "D4", "D5", "E6"])
def test_two_route_agreement_and_periodicity(name):
    cd = cartan_datum(name)
    qc = quantum_cartan(cd)
    h = cd.coxeter_number()
    q = QuiverDatum.bipartite(cd)
    for i in cd.vertices:
        for j in cd.vertices:
            for m in range(1, 4 * h + 1):
                assert qc.ctilde(i, j, m) == qc.ar_value(i, j, m, q)
                assert qc.ctilde(i, j, m + 2 * h) == qc.ctilde(i, j, m)
                assert qc.ctilde(i, j, m) == qc.ctilde(j, i, m)


def test_route_agreement_every_orientation_rank_le_4():
    for name in ("A2", "A3", "A4", "D4"):
        cd = cartan_datum(name)
        qc = quantum_cartan(cd)
        h = cd.coxeter_number()
        for q in all_orientations(name):
            for i in cd.vertices:
                for j in cd.vertices:
                    for m in range(1, 2 * h + 1):
                        assert qc.ctilde(i, j, m) == qc.ar_value(i, j, m, q)


def test_verify_inverse():
    assert verify_inverse(quantum_cartan(cartan_datum("A2")), 20) == (True, None)
    qc = QuantumCartan(cartan_datum("D4"))
    assert verify_inverse(qc, 4 * qc.h)[0]
    # negative control: corrupt one table entry and expect a witness
    qc._table[1][0][0] += 1
    ok, witness = verify_inverse(qc, 8)
    assert not ok and witness is not None


def test_n_pair_examples():
    qc = quantum_cartan(cartan_datum("A3"))
    assert qc.n_pair(1, 0, 2, 1) == 1
    assert qc.n_pair(1, 5, 1, 5) == 0
    for (i, p, j, s) in [(1, 0, 2, 1), (1, 0, 1, 2), (2, 3, 3, 0), (1, -2, 3, 4)]:
        assert qc.n_pair(i, p, j, s) == -qc.n_pair(j, s, i, p)


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "D4", "D5", "E6", "E7"])
def test_pairing_table_matches_the_four_coefficient_formula(name):
    cd = cartan_datum(name)
    qc = quantum_cartan(cd)
    h = cd.coxeter_number()
    for i in cd.vertices:
        for j in cd.vertices:
            for d in range(-6 * h, 6 * h + 1):
                assert qc.n_pair(i, d, j, 0) == four_coefficient_n(qc, i, d, j, 0), (i, j, d)


@pytest.mark.parametrize("name", ADE_TYPES)
def test_recurrence_table_matches_the_series_and_translation_routes(name):
    cd = cartan_datum(name)
    qc = quantum_cartan(cd)
    q = QuiverDatum.bipartite(cd)
    for i in cd.vertices:
        for j in cd.vertices:
            for m in range(1, 2 * qc.h + 1):
                assert qc.ctilde(i, j, m) == qc.series_coeff(i, j, m) == qc.ar_value(i, j, m, q), (i, j, m)


def test_building_a_table_never_uses_the_series_route(monkeypatch):
    def refuse(self, i, j, m):
        raise AssertionError("series_coeff called while building the table")

    monkeypatch.setattr(QuantumCartan, "series_coeff", refuse)
    for name in ADE_TYPES:
        qc = QuantumCartan(cartan_datum(name))
        assert qc.series(1, 1, 4 * qc.h) == [qc.ctilde(1, 1, m) for m in range(1, 4 * qc.h + 1)]


@pytest.mark.parametrize("i", [0, -1, 5])
def test_out_of_range_vertex_is_named(i):
    qc = quantum_cartan(cartan_datum("A2"))
    for call in (lambda: qc.ctilde(i, 1, 1), lambda: qc.ctilde(1, i, 1), lambda: qc.series(i, i, 3)):
        with pytest.raises(ValueError, match=f"^vertex {i} out of range for A2$"):
            call()


def test_periodicity_failure_is_an_internal_error(monkeypatch, capsys):
    import qgroth.qcartan as qcartan
    from qgroth.cli import main

    coxeter_number = CartanDatum.coxeter_number

    def off_by_one(self):
        return coxeter_number(self) + 1

    monkeypatch.setattr(qcartan, "_registry", {})
    monkeypatch.setattr(CartanDatum, "coxeter_number", off_by_one)
    with pytest.raises(RuntimeError):
        QuantumCartan(cartan_datum("A2"))
    assert main(["qcartan", "--type", "A2", "--mmax", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal check failed: periodicity of the inverse table failed\n"
