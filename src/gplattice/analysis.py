"""Norm estimates, frequency-shell statistics, and localization readouts.

The central quantitative objects are two scale functions; in the supported
dimensions d <= 3 they read

    f(xi) = xi^(-1/4)            (ground-energy flatness scale)
    g(eps) = eps^(d/4)           (four-norm scale of flat fields)

A field with unit l2 norm and kinetic form <-Delta u, u> <= eps^2 has
||u||_4 <= C g(eps).  The bound comes from splitting its spectrum into
frequency shells |gamma| in [e^(k-1) eps L, e^k eps L) whose sup norms obey
||u_k||_inf <= ||u_k||_2 (e^k eps)^(d/2) and whose l2 norms the kinetic form
controls.  ``shell_norms`` gives each shell's l2 and sup norm, and
``shell_statistics`` the three numbers a ``shells`` record keeps per eps:
||u||_4 / g(eps), the largest shell sup ratio, and the annulus bound's
verdict, from one transform and one kinetic form.  Two explicit trial
families (a delta spike on a flat background, and a flat Fourier window)
witness that g(eps) cannot be improved.  Norms are numpy's, and a
localization center is the first peak site in the lattice's site order,
which is lexicographic in the coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import (
    SUPPORTED_DIMS,
    LatticeGeometry,
    coordinate_norms,
    dft,
    dirichlet_energy,
    idft,
)
from .gp import GPResult
from .spectral import EigenSolution


def f_scale(xi: float) -> float:
    """Flatness scale f(xi)."""
    if xi <= 0:
        raise ValueError(f"argument must be positive, got {xi}")
    return xi ** (-0.25)


def g_scale(eps: float, dim: int) -> float:
    """Four-norm scale g(eps)."""
    if eps <= 0:
        raise ValueError(f"argument must be positive, got {eps}")
    if dim not in SUPPORTED_DIMS:
        raise ValueError(f"dim must be one of {SUPPORTED_DIMS}, got {dim}")
    return eps ** (dim / 4.0)


def _check_scale(geom: LatticeGeometry, eps: float) -> None:
    """Refuse a shell scale outside 0 < eps < 1 or with eps L < 1."""
    if not 0 < eps < 1:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if eps * geom.half_side < 1:
        raise ValueError(
            f"eps*L must be >= 1, got {eps * geom.half_side} (eps={eps}, L={geom.half_side})"
        )


def shell_norms(
    geom: LatticeGeometry, u: np.ndarray, eps: float
) -> tuple[np.ndarray, np.ndarray]:
    """l2 and sup norms of a unit real field's k_eps + 1 frequency shells.

    Shell 0 holds frequencies |gamma| < eps L, shell k the annulus
    [e^(k-1) eps L, e^k eps L), and the last shell k_eps (the first index
    with e^k eps >= 1) everything from e^(k_eps - 1) eps L outward, so the
    shells partition frequency space and the l2 norms square-sum to 1.
    """
    _check_scale(geom, eps)
    norm = np.linalg.norm(u)
    if abs(norm - 1.0) > 1e-8:
        raise ValueError(f"field must have unit l2 norm, got {norm}")
    k_eps = math.ceil(-math.log(eps))
    edges = [0.0] + [math.e**k * eps * geom.half_side for k in range(k_eps)] + [np.inf]
    coeffs = dft(geom, u)
    radius = coordinate_norms(geom)
    l2, sup = np.zeros(k_eps + 1), np.zeros(k_eps + 1)
    for k in range(k_eps + 1):
        mask = (radius >= edges[k]) & (radius < edges[k + 1])
        l2[k] = np.sqrt(np.sum(np.abs(coeffs[mask]) ** 2))
        sup[k] = np.abs(idft(geom, np.where(mask, coeffs, 0.0)).real).max()
    return l2, sup


def shell_statistics(
    geom: LatticeGeometry, u: np.ndarray, eps: float
) -> tuple[float, float, bool]:
    """``(four_norm_ratio, sup_ratio, annulus_ok)`` of a unit field with kinetic form <= eps^2.

    ``four_norm_ratio`` is ||u||_4 / g(eps); ``sup_ratio`` the largest
    ||u_k||_inf / (||u_k||_2 (e^k eps)^(d/2)) over the populated shells
    k >= 1 (NaN when there is none); ``annulus_ok`` whether
    sum_{k>=1} e^(2k-2) eps^2 ||u_k||_2^2 stays under the kinetic form
    times (2L+1)^2 / (16 L^2), the constant in h(gamma) >= 16 |gamma|^2 / (2L+1)^2.
    """
    l2, sup = shell_norms(geom, u, eps)
    kinetic = dirichlet_energy(geom, u)
    if kinetic > eps**2 * (1 + 1e-12):
        raise ValueError(
            f"kinetic form {kinetic} exceeds eps^2 = {eps**2}; not a scale-eps field"
        )
    ratios, annulus = [], 0.0
    for k in range(1, len(l2)):
        annulus += math.e ** (2 * k - 2) * eps**2 * l2[k] ** 2
        if l2[k] > 0:
            ratios.append(sup[k] / (l2[k] * (math.e**k * eps) ** (geom.dim / 2.0)))
    sup_ratio = max((r for r in ratios if math.isfinite(r)), default=math.nan)
    bound = (geom.side / geom.half_side) ** 2 / 16.0 * kinetic * (1 + 1e-12) + 1e-15
    four_norm_ratio = float(np.linalg.norm(u, 4)) / g_scale(eps, geom.dim)
    return four_norm_ratio, float(sup_ratio), bool(annulus <= bound)


@dataclass(frozen=True)
class LocalizationReport:
    """Position of the amplitude peak of a field."""

    center: tuple[int, ...]


def localization_center(geom: LatticeGeometry, field: np.ndarray) -> LocalizationReport:
    """Locate the peak of |u|.

    Ties resolve to the first peak site in site order, which is the
    lexicographically smallest coordinate tuple.
    """
    site = int(np.argmax(np.abs(np.asarray(field, dtype=float))))
    return LocalizationReport(center=geom.coordinate(site))


@dataclass(frozen=True)
class GapOverlapReport:
    """Spectral gap, ground-state overlap of the minimizer, and phi0 shape data."""

    gap: float
    overlap: float
    kinetic: float   # <-Delta phi0, phi0>
    ipr: float       # ||phi0||_4^4, the inverse participation ratio


def gap_and_overlap(
    geom: LatticeGeometry, eig: EigenSolution, gp: GPResult
) -> GapOverlapReport:
    """Gap, overlap, kinetic form and IPR of a solved sample; no pipeline calls
    it, and it is kept only for the traced replay in ``perfbench/measure.py``."""
    if eig.values.size < 2:
        raise ValueError("need the two lowest eigenpairs")
    phi0 = eig.vectors[:, 0]
    return GapOverlapReport(
        gap=float(eig.values[1] - eig.values[0]),
        overlap=abs(float(phi0 @ gp.phi)),
        kinetic=dirichlet_energy(geom, phi0),
        ipr=float(np.sum(np.abs(phi0) ** 4)),
    )


def default_band_scale(half_side: int, kinetic: float) -> float:
    """Scale eps of a field with kinetic form ``kinetic``: its square root, at least 1/L.

    So eps L >= 1, and kinetic <= eps^2 up to rounding.
    """
    floor = 1.0 / half_side
    if floor * half_side < 1:  # (1/L) * L rounds below 1 for some L, e.g. 49
        floor = math.nextafter(floor, 1.0)
    return max(math.sqrt(max(kinetic, 0.0)), floor)


def random_low_energy_field(
    geom: LatticeGeometry, eps: float, rng: np.random.Generator
) -> np.ndarray:
    """Random unit field with kinetic form <= eps^2 and mass in every shell.

    A hard low-pass piece guarantees the kinetic budget; a broadband piece is
    mixed in with a weight small enough to keep the total under eps^2 while
    still populating the high-frequency shells.
    """
    _check_scale(geom, eps)
    radius = coordinate_norms(geom)
    cutoff = eps * geom.half_side / (math.pi * math.sqrt(2.0))
    low_mask = radius < max(cutoff, 0.5)  # always keeps the zero frequency

    def masked_noise(mask: np.ndarray) -> np.ndarray | None:
        noise = rng.standard_normal(geom.n_sites)
        coeffs = np.where(mask, dft(geom, noise), 0.0)
        piece = idft(geom, coeffs).real
        norm = np.linalg.norm(piece)
        return piece / norm if norm > 0 else None

    low = masked_noise(low_mask)
    high = masked_noise(~low_mask)
    if low is None:
        raise RuntimeError("low-frequency component collapsed")
    if high is None:
        return low

    high_kinetic = dirichlet_energy(geom, high)
    weight_sq = min(0.5, 0.5 * eps**2 / max(high_kinetic, 1e-300))
    u = math.sqrt(1.0 - weight_sq) * low + math.sqrt(weight_sq) * high
    return u / np.linalg.norm(u)


def trial_delta_background(geom: LatticeGeometry, eps: float) -> np.ndarray:
    """Flat background (2L+1)^(-d/2) with the origin raised to eps.

    Not normalized: the l2 norm lies in [1, 1+eps] once eps^2 >= 1/n, the
    kinetic form is at most 2d eps^2, and ||u||_4 >= eps by the spike alone.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    u = np.full(geom.n_sites, geom.n_sites**-0.5)
    origin = geom.site_index((0,) * geom.dim)
    u[origin] = eps
    return u


def trial_flat_fourier(geom: LatticeGeometry, eps: float) -> np.ndarray:
    """Unit field with a flat Fourier window on |gamma| <= eps L."""
    _check_scale(geom, eps)
    window = coordinate_norms(geom) <= eps * geom.half_side
    coeffs = window / math.sqrt(window.sum())
    return idft(geom, coeffs).real
