"""Norm estimates, frequency-shell decompositions, and localization readouts.

The central quantitative objects are two scale functions; in the supported
dimensions d <= 3 they read

    f(xi) = xi^(-1/4)            (ground-energy flatness scale)
    g(eps) = eps^(d/4)           (four-norm scale of flat fields)

A field with unit l2 norm and kinetic form <-Delta u, u> <= eps^2 has
||u||_4 <= C g(eps); the shell decomposition splits its spectrum into
frequency annuli |gamma| in [e^(k-1) eps L, e^k eps L) whose sup norms obey
||u_k||_inf <= ||u_k||_2 (e^k eps)^(d/2), which is where that bound comes
from.  Two explicit trial families (a delta spike on a flat background, and
a flat Fourier window) witness that g(eps) cannot be improved.
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


def lp_norm(field: np.ndarray, p) -> float:
    """l2, l4 or sup norm of a field."""
    u = np.abs(np.asarray(field))
    if p == 2:
        return float(np.sqrt(np.sum(u**2)))
    if p == 4:
        return float(np.sum(u**4) ** 0.25)
    if p == math.inf or p == np.inf:
        return float(u.max(initial=0.0))
    raise ValueError(f"p must be 2, 4 or inf, got {p!r}")


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


@dataclass(frozen=True)
class ShellDecomposition:
    """Frequency-annulus split of a field.

    Shell 0 holds frequencies |gamma| < eps L, shell k the annulus
    [e^(k-1) eps L, e^k eps L), and the last shell k_eps (the first index
    with e^k eps >= 1) absorbs everything from e^(k_eps - 1) eps L outward,
    so the shells partition frequency space exactly.
    """

    eps: float
    k_eps: int
    shells: list[np.ndarray]
    shell_l2: np.ndarray
    shell_sup: np.ndarray
    kinetic: float
    lattice_constant: float   # in h(gamma) >= 16 |gamma|^2 / (2L+1)^2

    @property
    def count(self) -> int:
        return len(self.shells)

    def sup_bound_ratios(self, dim: int) -> np.ndarray:
        """||u_k||_inf / (||u_k||_2 (e^k eps)^(d/2)) for k >= 1 (nan if empty)."""
        out = np.full(self.count, np.nan)
        for k in range(1, self.count):
            if self.shell_l2[k] > 0:
                bound = self.shell_l2[k] * (math.e**k * self.eps) ** (dim / 2.0)
                out[k] = self.shell_sup[k] / bound
        return out

    def annulus_kinetic_stat(self) -> float:
        """sum_{k>=1} e^(2k-2) eps^2 ||u_k||_2^2, controlled by the kinetic form."""
        total = 0.0
        for k in range(1, self.count):
            total += math.e ** (2 * k - 2) * self.eps**2 * self.shell_l2[k] ** 2
        return total


def shell_decompose(
    geom: LatticeGeometry, field: np.ndarray, eps: float
) -> ShellDecomposition:
    """Split a unit field into frequency shells at scale eps (0 < eps < 1, eps L >= 1)."""
    if not 0 < eps < 1:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if eps * geom.half_side < 1:
        raise ValueError(
            f"eps*L must be >= 1, got {eps * geom.half_side} (eps={eps}, L={geom.half_side})"
        )
    u = np.asarray(field)
    norm = lp_norm(u, 2)
    if abs(norm - 1.0) > 1e-8:
        raise ValueError(f"field must have unit l2 norm, got {norm}")

    k_eps = math.ceil(-math.log(eps))
    coeffs = dft(geom, u)
    radius = coordinate_norms(geom)
    real_input = not np.iscomplexobj(u)

    edges = [0.0, eps * geom.half_side]
    for k in range(1, k_eps):
        edges.append(math.e**k * eps * geom.half_side)
    edges.append(np.inf)

    shells: list[np.ndarray] = []
    l2 = np.zeros(k_eps + 1)
    sup = np.zeros(k_eps + 1)
    for k in range(k_eps + 1):
        mask = (radius >= edges[k]) & (radius < edges[k + 1])
        piece = idft(geom, np.where(mask, coeffs, 0.0))
        if real_input:
            piece = piece.real
        shells.append(piece)
        l2[k] = float(np.sqrt(np.sum(np.abs(coeffs[mask]) ** 2)))
        sup[k] = lp_norm(piece, math.inf)

    side_over_l = geom.side / geom.half_side
    return ShellDecomposition(
        eps=eps,
        k_eps=k_eps,
        shells=shells,
        shell_l2=l2,
        shell_sup=sup,
        kinetic=dirichlet_energy(geom, u),
        lattice_constant=side_over_l**2 / 16.0,
    )


def four_norm_bound_check(geom: LatticeGeometry, field: np.ndarray, eps: float) -> float:
    """||u||_4 / g(eps) for a unit field with kinetic form <= eps^2."""
    u = np.asarray(field)
    norm = lp_norm(u, 2)
    if abs(norm - 1.0) > 1e-8:
        raise ValueError(f"field must have unit l2 norm, got {norm}")
    if eps * geom.half_side < 1:
        raise ValueError(f"eps*L must be >= 1, got {eps * geom.half_side}")
    kinetic = dirichlet_energy(geom, u)
    if kinetic > eps**2 * (1 + 1e-12):
        raise ValueError(
            f"kinetic form {kinetic} exceeds eps^2 = {eps**2}; not a scale-eps field"
        )
    return lp_norm(u, 4) / g_scale(eps, geom.dim)


@dataclass(frozen=True)
class LocalizationReport:
    """Position of the amplitude peak of a field."""

    center: tuple[int, ...]


def localization_center(geom: LatticeGeometry, field: np.ndarray) -> LocalizationReport:
    """Locate the peak of |u|.

    Ties at the maximum resolve to the lexicographically smallest coordinate
    tuple.
    """
    u = np.abs(np.asarray(field, dtype=float))
    peak = u.max()
    tied = np.flatnonzero(u == peak)
    order = np.lexsort(geom.coords[tied].T[::-1])
    center_site = int(tied[order[0]])
    return LocalizationReport(center=geom.coordinate(center_site))


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
    """Bundle the observables every condensation record carries."""
    if eig.values.size < 2:
        raise ValueError("need the two lowest eigenpairs")
    phi0 = eig.vectors[:, 0]
    return GapOverlapReport(
        gap=float(eig.values[1] - eig.values[0]),
        overlap=abs(float(phi0 @ gp.phi)),
        kinetic=dirichlet_energy(geom, phi0),
        ipr=float(np.sum(phi0**4)),
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
    if not 0 < eps < 1:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if eps * geom.half_side < 1:
        raise ValueError(f"eps*L must be >= 1, got {eps * geom.half_side}")
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
    if not 0 < eps < 1:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if eps * geom.half_side < 1:
        raise ValueError(f"eps*L must be >= 1, got {eps * geom.half_side}")
    window = coordinate_norms(geom) <= eps * geom.half_side
    coeffs = window / math.sqrt(window.sum())
    return idft(geom, coeffs).real
