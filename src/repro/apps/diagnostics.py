"""Pixie3D diagnostic routines (Fig. 2): derived quantities.

Pixie3D's analysis pipeline computes energy, flux, divergence, and
maximum velocity from the raw field output; VisIt then reads both raw
and derived data.  Provided both as plain functions over field dicts
and as a PreDatA operator that computes the global quantities
in-transit, one chunk at a time.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

import numpy as np

from repro.adios.group import OutputStep
from repro.core.operator import Emit, OperatorContext, PreDatAOperator

__all__ = [
    "kinetic_energy",
    "magnetic_flux",
    "divergence",
    "max_velocity",
    "DiagnosticsOperator",
]


def kinetic_energy(rho: np.ndarray, px, py, pz) -> float:
    """Total kinetic energy: sum(|p|^2 / (2 rho)) over cells.

    Cells with vanishing density contribute nothing (vacuum regions).
    """
    rho = np.asarray(rho, dtype=float)
    p2 = np.asarray(px) ** 2 + np.asarray(py) ** 2 + np.asarray(pz) ** 2
    safe = np.abs(rho) > 1e-300
    return float((p2[safe] / (2.0 * rho[safe])).sum())


def magnetic_flux(ax, ay, az) -> float:
    """Surface-integrated flux proxy: mean |A| x domain cross-section
    (unit cell spacing)."""
    amag = np.sqrt(
        np.asarray(ax) ** 2 + np.asarray(ay) ** 2 + np.asarray(az) ** 2
    )
    return float(amag.mean() * amag.shape[1] * amag.shape[2])


def divergence(fx, fy, fz) -> np.ndarray:
    """Central-difference divergence of a vector field (unit cell spacing)."""
    gx = np.gradient(np.asarray(fx, dtype=float), axis=0)
    gy = np.gradient(np.asarray(fy, dtype=float), axis=1)
    gz = np.gradient(np.asarray(fz, dtype=float), axis=2)
    return gx + gy + gz


def max_velocity(rho, px, py, pz) -> float:
    """Max |p| / rho over cells with non-vanishing density."""
    rho = np.asarray(rho, dtype=float)
    pmag = np.sqrt(
        np.asarray(px) ** 2 + np.asarray(py) ** 2 + np.asarray(pz) ** 2
    )
    safe = np.abs(rho) > 1e-300
    if not safe.any():
        return 0.0
    return float((pmag[safe] / np.abs(rho[safe])).max())


class DiagnosticsOperator(PreDatAOperator):
    """In-transit Pixie3D diagnostics: global energy / flux / max-v.

    Map computes per-chunk partial quantities; a single reducer
    combines them into the global derived values the visualisation
    pipeline reads.
    """

    _TAG = "diag"
    name = "pixie3d_diag"

    def map(self, ctx: OperatorContext, step: OutputStep) -> Iterable[Emit]:
        v = step.values
        partial = {
            "energy": kinetic_energy(v["rho"], v["px"], v["py"], v["pz"]),
            "flux": magnetic_flux(v["ax"], v["ay"], v["az"]),
            "max_v": max_velocity(v["rho"], v["px"], v["py"], v["pz"]),
            "div_max": float(
                np.abs(divergence(v["px"], v["py"], v["pz"])).max()
            ),
            "cells": int(np.asarray(v["rho"]).size),
        }
        return [Emit(self._TAG, partial)]

    def map_flops(self, step: OutputStep) -> float:
        return 12.0 * step.nbytes_logical / 8.0

    def reduce(self, ctx: OperatorContext, tag: Any, values: list[Any]) -> Any:
        return {
            "energy": sum(p["energy"] for p in values),
            "flux": sum(p["flux"] for p in values),
            "max_v": max(p["max_v"] for p in values),
            "div_max": max(p["div_max"] for p in values),
            "cells": sum(p["cells"] for p in values),
        }

    def reduce_flops(self, ctx, tag: Any, values: list[Any]) -> float:
        return float(5 * len(values))

    def finalize(self, ctx: OperatorContext, reduced: dict) -> Optional[Any]:
        return reduced.get(self._TAG)

    def logical_fraction_shuffled(self) -> float:
        return 0.0
