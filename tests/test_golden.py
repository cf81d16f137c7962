from casimir.golden import SEPARATIONS_UM, TABLES, TEMPERATURES_K


def test_every_table_fills_the_grid():
    for table_id, fixture in TABLES.items():
        assert len(fixture.values_mPa) == len(SEPARATIONS_UM), table_id
        for row in fixture.values_mPa:
            assert len(row) == len(TEMPERATURES_K), table_id
            assert all(value > 0.0 for value in row), table_id


def test_every_correction_lies_on_the_grid():
    for table_id, fixture in TABLES.items():
        for (a_um, T_K), value in fixture.corrections.items():
            assert a_um in SEPARATIONS_UM and T_K in TEMPERATURES_K, table_id
            assert value > 0.0
            assert fixture.reference(a_um, T_K) == (value, True)
