"""Reference pressure grids for the material-pair regression tables.

Values are stored exactly as printed in the reference tabulation: pressure
magnitudes in mPa on a fixed grid of 12 separations x 3 temperatures.  One
cell of the Cu-Cu grid is a known misprint (a dropped digit); it is stored
as printed and carries an explicit correction used for comparisons, so the
fixture stays auditable against its source.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

__all__ = [
    "TableFixture",
    "SEPARATIONS_UM",
    "TEMPERATURES_K",
    "TABLES",
    "cell_tolerance",
    "SHORT_RANGE_UM",
]

SEPARATIONS_UM = (0.16, 0.2, 0.4, 0.5, 0.7, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)
TEMPERATURES_K = (1.0, 300.0, 350.0)
SHORT_RANGE_UM = 0.5  # cells below this gap take the looser tolerance


@dataclass(frozen=True)
class TableFixture:
    """One reference grid: |pressure| in mPa for a material pair."""

    pair: tuple[str, str]
    values_mPa: tuple[tuple[float, float, float], ...]  # rows follow SEPARATIONS_UM
    corrections: Mapping = field(default_factory=lambda: MappingProxyType({}))

    def printed(self, a_um: float, T_K: float) -> float:
        """Value exactly as printed in the source tabulation."""
        i = SEPARATIONS_UM.index(a_um)
        j = TEMPERATURES_K.index(T_K)
        return self.values_mPa[i][j]

    def reference(self, a_um: float, T_K: float) -> tuple[float, bool]:
        """(comparison value, was_corrected): misprints are fixed here."""
        corrected = (a_um, T_K) in self.corrections
        if corrected:
            return self.corrections[(a_um, T_K)], True
        return self.printed(a_um, T_K), False


def cell_tolerance(a_um: float, short_tol: float = 0.05, long_tol: float = 0.02) -> float:
    """Relative tolerance for a grid cell.

    The short-range grid is looser: there the Drude surrogate omits the
    interband structure present in the measured data behind the reference
    values.
    """
    return short_tol if a_um < SHORT_RANGE_UM else long_tol


TABLES: dict[int, TableFixture] = {
    1: TableFixture(
        pair=("Au", "Au"),
        values_mPa=(
            (1144.0, 1127.0, 1124.0),
            (508.2, 497.8, 495.7),
            (38.61, 36.70, 36.35),
            (16.56, 15.49, 15.30),
            (4.556, 4.127, 4.052),
            (1.143, 0.9852, 0.9590),
            (0.2342, 0.1856, 0.1787),
            (7.549e-2, 5.550e-2, 5.344e-2),
            (3.128e-2, 2.176e-2, 2.135e-2),
            (1.520e-2, 1.033e-2, 1.049e-2),
            (8.252e-3, 5.674e-3, 5.990e-3),
            (4.858e-3, 3.481e-3, 3.804e-3),
        ),
    ),
    2: TableFixture(
        pair=("Cu", "Cu"),
        values_mPa=(
            (1141.0, 1123.0, 1120.0),
            (507.4, 496.8, 49.47),  # printed with a dropped digit, see corrections
            (38.63, 36.69, 36.34),
            (16.57, 15.49, 15.30),
            (4.560, 4.127, 4.052),
            (1.145, 0.9854, 0.9592),
            (0.2345, 0.1857, 0.1787),
            (7.559e-2, 5.551e-2, 5.345e-2),
            (3.132e-2, 2.177e-2, 2.135e-2),
            (1.522e-2, 1.033e-2, 1.049e-2),
            (8.263e-3, 5.674e-3, 5.990e-3),
            (4.864e-3, 3.481e-3, 3.805e-3),
        ),
        # The row pattern (507.4, 496.8, ...) implies 494.7; comparisons use that.
        corrections=MappingProxyType({(0.2, 350.0): 494.7}),
    ),
    3: TableFixture(
        pair=("Al", "Al"),
        values_mPa=(
            (1290.0, 1271.0, 1267.0),
            (565.3, 553.9, 551.6),
            (41.17, 39.15, 38.77),
            (17.45, 16.34, 16.13),
            (4.734, 4.290, 4.212),
            (1.175, 1.012, 0.9853),
            (0.2383, 0.1889, 0.1818),
            (7.648e-2, 5.617e-2, 5.404e-2),
            (3.160e-2, 2.195e-2, 2.150e-2),
            (1.533e-2, 1.039e-2, 1.053e-2),
            (8.311e-3, 5.693e-3, 6.003e-3),
            (4.888e-3, 3.488e-3, 3.809e-3),
        ),
    ),
    4: TableFixture(
        pair=("Au", "Cu"),
        values_mPa=(
            (1143.0, 1125.0, 1122.0),
            (507.8, 497.3, 495.2),
            (38.62, 36.70, 36.34),
            (16.56, 15.49, 15.30),
            (4.558, 4.127, 4.052),
            (1.144, 0.9853, 0.9591),
            (0.2343, 0.1857, 0.1787),
            (7.554e-2, 5.550e-2, 5.345e-2),
            (3.130e-2, 2.177e-2, 2.135e-2),
            (1.521e-2, 1.033e-2, 1.049e-2),
            (8.258e-3, 5.674e-3, 5.990e-3),
            (4.861e-3, 3.481e-3, 3.805e-3),
        ),
    ),
    5: TableFixture(
        pair=("Au", "Al"),
        values_mPa=(
            (1213.0, 1195.0, 1191.0),
            (535.4, 524.5, 522.3),
            (39.85, 37.89, 37.52),
            (16.99, 15.90, 15.70),
            (4.643, 4.207, 4.130),
            (1.159, 0.9986, 0.9720),
            (0.2362, 0.1873, 0.1802),
            (7.598e-2, 5.583e-2, 5.374e-2),
            (3.144e-2, 2.185e-2, 2.142e-2),
            (1.527e-2, 1.036e-2, 1.051e-2),
            (8.281e-3, 5.684e-3, 5.996e-3),
            (4.873e-3, 3.485e-3, 3.807e-3),
        ),
    ),
    6: TableFixture(
        pair=("Cu", "Al"),
        values_mPa=(
            (1211.0, 1193.0, 1189.0),
            (535.0, 524.0, 521.8),
            (39.86, 37.89, 37.52),
            (17.00, 15.90, 15.70),
            (4.646, 4.207, 4.130),
            (1.159, 0.9987, 0.9720),
            (0.2364, 0.1873, 0.1802),
            (7.603e-2, 5.584e-2, 5.375e-2),
            (3.146e-2, 2.186e-2, 2.143e-2),
            (1.528e-2, 1.036e-2, 1.051e-2),
            (8.287e-3, 5.684e-3, 5.997e-3),
            (4.876e-3, 3.485e-3, 3.807e-3),
        ),
    ),
}
