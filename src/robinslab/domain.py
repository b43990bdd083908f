"""Geometry, the lateral basis, spectral-grid fields, and discrete Sobolev calculus.

The domain is the box (0, a) x (0, a) x (0, inf), truncated at z = l_z.
Fields vanish on the lateral walls, so the lateral directions are carried
in sine modes while z stays a uniform point grid.  One LateralBasis, each
Discretization's `lateral`, owns all the basis fixes: the mode labels, the
coefficient shape lateral.shape(n_z) of a 3-d field, the rates mu, the L2
and Sobolev weights, and the collocation matrices of values and products.
Its tables are cached by value, so equal discretizations share them.  The
z stencils write into their output buffer and a norm reduces each profile
by one row dot, so neither allocates a temporary of the field's size
beyond the profiles.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "MAX_DERIVATIVE_ORDER",
    "SOBOLEV_S",
    "TAIL_TOL",
    "ModelParams",
    "LateralBasis",
    "Discretization",
    "SpectralField3",
    "zero_field3",
    "field3_from_profile",
    "sobolev_norm",
    "d_z",
    "wall_slope",
    "lateral_values",
    "field_from_lateral_values",
    "pointwise_product",
    "product_ratio",
    "random_field3",
    "RANDOM_KINDS",
    "multi_indices",
]

# The paper's Sobolev index s: the Picard iteration runs with v in H^{s+1}
# and w in H^s.
SOBOLEV_S = 2
# Highest z-derivative order the norm machinery supports; the H^{s+1} norm
# of the velocity-square component uses all of it.
MAX_DERIVATIVE_ORDER = SOBOLEV_S + 1
# largest z-truncation tail e^{-rate l_z} a discretization may leave; a
# config is refused unless both gamma and the slowest lateral rate mu_min
# keep within it
TAIL_TOL = 1e-10


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of the model.

    a      lateral box size (both horizontal directions)
    nu     viscosity of the vorticity equation
    gamma  Robin coefficient of the vorticity wall condition at z = 0
    beta   Robin coefficient of the stream-function wall condition

    The Sobolev index of the construction is not a parameter: it is the
    constant SOBOLEV_S.
    """

    a: float
    nu: float
    gamma: float
    beta: float

    def __post_init__(self):
        if not self.a > 0:
            raise ValueError(f"lateral size a must be positive, got {self.a}")
        if not self.nu > 0:
            raise ValueError(f"viscosity nu must be positive, got {self.nu}")


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class LateralBasis:
    """The lateral sine modes sin(k1*pi*x1/a) * sin(k2*pi*x2/a), 1 <= k1, k2 <= k_max.

    coeffs[i1, i2, ...] of a field multiply the mode labelled
    mode((i1, i2)) = (i1 + 1, i2 + 1).  Bases compare by k_max, and each
    table is cached per basis and argument, so equal bases share one
    read-only copy.
    """

    k_max: int

    @cached_property
    def k(self) -> np.ndarray:
        """Mode numbers 1..k_max of one direction, as floats, read-only."""
        return _readonly(np.arange(1, self.k_max + 1, dtype=float))

    def shape(self, *trailing: int) -> tuple[int, ...]:
        """Shape of lateral coefficients: (k_max, k_max), then trailing."""
        return (self.k_max, self.k_max, *trailing)

    def mode(self, index) -> tuple:
        """Mode label (k1, k2) of an array index (i1, i2), or of index arrays."""
        return tuple(i + 1 for i in index)

    def index(self, mode) -> tuple:
        """Array index of a mode label: the inverse of mode."""
        return tuple(k - 1 for k in mode)

    def in_band(self, mode) -> bool:
        """Whether the mode label (k1, k2) is resolved."""
        return all(1 <= k <= self.k_max for k in mode)

    @lru_cache(maxsize=16)
    def mu(self, a: float) -> np.ndarray:
        """Rates pi*|k|/a over the (k1, k2) grid, read-only."""
        k = self.k
        return _readonly(np.pi * np.sqrt(k[:, None] ** 2 + k[None, :] ** 2) / a)

    def mu_min(self, a: float) -> float:
        """The slowest rate, pi*sqrt(2)/a of mode (1, 1)."""
        return float(self.mu(a)[0, 0])

    @staticmethod
    def l2_weight(a: float) -> float:
        """One direction's squared L2 norm of every mode, Int_0^a sin^2(k pi x/a) dx."""
        return 0.5 * a

    @lru_cache(maxsize=16)
    def norm_weights(self, a: float, s: int) -> np.ndarray:
        """W[r] of the H^s norm (below), shape (s + 1, k_max, k_max), times l2_weight^2."""
        kk = (np.pi * self.k / a) ** 2  # kx = kk[k1 - 1], ky = kk[k2 - 1]
        weights = np.zeros((s + 1, *self.shape()))
        for a1, a2, r in multi_indices(s):
            weights[r] += kk[:, None] ** a1 * kk[None, :] ** a2
        w = self.l2_weight(a)
        weights *= w * w
        return _readonly(weights)

    @property
    def pad_points(self) -> int:
        """Collocation points per direction a product is formed on."""
        return 2 * self.k_max + 1

    @lru_cache(maxsize=16)
    def collocation(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """Synthesis S (m, k_max) and projection P (k_max, m) on m points, read-only."""
        if m < self.k_max:
            raise ValueError("collocation grid smaller than the resolved band")
        j = np.arange(1, m + 1, dtype=float)
        synth = np.sin(np.pi * j[:, None] * self.k[None, :] / (m + 1))
        proj = (2.0 / (m + 1)) * synth.T
        return _readonly(synth), _readonly(proj)


@dataclass(frozen=True)
class Discretization:
    """Grid resolution knobs.

    k_max  lateral sine modes per direction
    n_z    z grid points on [0, l_z]
    l_z    truncation depth of the half-infinite direction
    n_t    stored time slices (uniform grid on [0, T])
    """

    k_max: int
    n_z: int
    l_z: float
    n_t: int = 9

    def __post_init__(self):
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")
        if self.n_z < 8:
            raise ValueError("n_z must be >= 8")
        if not self.l_z > 0:
            raise ValueError("l_z must be positive")
        if self.n_t < 2:
            raise ValueError("n_t must be >= 2")

    @cached_property
    def z(self) -> np.ndarray:
        return _readonly(np.linspace(0.0, self.l_z, self.n_z))

    @cached_property
    def lateral(self) -> LateralBasis:
        """The lateral basis; equal discretizations' bases share its tables."""
        return LateralBasis(self.k_max)

    @property
    def dz(self) -> float:
        return self.l_z / (self.n_z - 1)

    def check_tail(self, rate: float) -> None:
        """Require exp(-rate*l_z) below TAIL_TOL so truncation stays in budget."""
        tail = np.exp(-rate * self.l_z)
        if tail >= TAIL_TOL:
            raise ValueError(
                f"l_z={self.l_z} too short: exp(-{rate:g}*l_z)={tail:.3e} "
                f"exceeds tail tolerance {TAIL_TOL:g}"
            )


# no generated ==, hash or repr: the first two would fail on the arrays,
# and generating them costs every process set-up time
@dataclass(frozen=True, eq=False, repr=False)
class SpectralField3:
    """Lateral-mode x z-grid coefficients of a 3-d field.

    coeffs has shape disc.lateral.shape(n_z): coeffs[i1, i2, j] multiplies
    the lateral mode disc.lateral.mode((i1, i2)) at z_j.  Instances are
    immutable; operations return new fields.
    """

    coeffs: np.ndarray
    disc: Discretization

    def __post_init__(self):
        shape = self.disc.lateral.shape(self.disc.n_z)
        arr = np.array(self.coeffs, dtype=float)
        if arr.shape != shape:
            raise ValueError(f"coefficient array must have shape {shape}, got {arr.shape}")
        object.__setattr__(self, "coeffs", _readonly(arr))

    def replace_coeffs(self, coeffs: np.ndarray) -> "SpectralField3":
        return SpectralField3(coeffs, self.disc)

    def scaled(self, factor: float) -> "SpectralField3":
        return SpectralField3(self.coeffs * factor, self.disc)

    def __sub__(self, other: "SpectralField3") -> "SpectralField3":
        _require_same_disc(self, other)
        return SpectralField3(self.coeffs - other.coeffs, self.disc)


def _require_same_disc(u, v) -> None:
    if u.disc != v.disc:
        raise ValueError("fields live on different discretizations")


def zero_field3(disc: Discretization) -> SpectralField3:
    return SpectralField3(np.zeros(disc.lateral.shape(disc.n_z)), disc)


def field3_from_profile(
    disc: Discretization, mode: tuple[int, int], profile: np.ndarray
) -> SpectralField3:
    """Single lateral mode with the given z profile."""
    if not disc.lateral.in_band(mode):
        raise ValueError(f"mode {mode} outside resolved range 1..{disc.k_max}")
    coeffs = np.zeros(disc.lateral.shape(disc.n_z))
    coeffs[disc.lateral.index(mode)] = np.asarray(profile, dtype=float)
    return SpectralField3(coeffs, disc)


# ---------------------------------------------------------------------------
# z derivatives: second-order centered stencils, one-sided at both ends.


def wall_slope(c: np.ndarray, dz: float) -> np.ndarray:
    """One-sided second-order z derivative at the wall z = 0 (last axis)."""
    return (-3.0 * c[..., 0] + 4.0 * c[..., 1] - c[..., 2]) / (2.0 * dz)


# The interior stencils run once over the flattened C-ordered array, which
# is one contiguous pass instead of one strided pass per z profile.  Where
# the stencil straddles two profiles it writes end points only, and those
# are overwritten by the one-sided rows.  Both arrays must be C-contiguous:
# reshape(-1) of any other layout is a copy, and writes to it would be lost.
# Each operation writes into the output buffer, so a stencil allocates no
# temporary of the field's size.


def _dz1(c: np.ndarray, dz: float) -> np.ndarray:
    c = np.ascontiguousarray(c)
    out = np.empty(c.shape)
    flat, inner = c.reshape(-1), out.reshape(-1)[1:-1]
    np.subtract(flat[2:], flat[:-2], out=inner)
    inner /= 2.0 * dz
    out[..., 0] = wall_slope(c, dz)
    # the far end is the wall stencil mirrored: reversed z flips the sign
    out[..., -1] = -wall_slope(c[..., ::-1], dz)
    return out


def _dz2(c: np.ndarray, dz: float) -> np.ndarray:
    h2 = dz * dz
    c = np.ascontiguousarray(c)
    out = np.empty(c.shape)
    flat, inner = c.reshape(-1), out.reshape(-1)[1:-1]
    np.multiply(flat[1:-1], 2.0, out=inner)
    np.subtract(flat[2:], inner, out=inner)
    inner += flat[:-2]
    inner /= h2
    out[..., 0] = (
        2.0 * c[..., 0] - 5.0 * c[..., 1] + 4.0 * c[..., 2] - c[..., 3]
    ) / h2
    out[..., -1] = (
        2.0 * c[..., -1] - 5.0 * c[..., -2] + 4.0 * c[..., -3] - c[..., -4]
    ) / h2
    return out


def d_z(f: SpectralField3, order: int = 1) -> SpectralField3:
    """z derivative of a field, order 1 or 2."""
    if order not in (1, 2):
        raise ValueError(f"d_z supports orders 1 and 2, got {order}")
    if f.disc.n_z < 4:
        raise ValueError("n_z >= 4 required for one-sided boundary stencils")
    stencil = _dz1 if order == 1 else _dz2
    return f.replace_coeffs(stencil(f.coeffs, f.disc.dz))


# ---------------------------------------------------------------------------
# Sobolev norms.  Unweighted derivative-sum convention:
#     ||f||_{H^s}^2 = sum over all multi-indices |alpha| <= s of ||D^alpha f||_{L2}^2
# Lateral derivatives act mode-wise (sin <-> cos flips preserve the mode's L2
# weight a/2 per direction), so the lateral part of the sum collapses into a
# weight table W[r] = sum_{a1 + a2 <= s - r} kx^a1 ky^a2 per mode, with
# kx = (pi k1/a)^2 and ky = (pi k2/a)^2 (LateralBasis.norm_weights), paired
# with the trapezoid integral of the squared r-th z-derivative profile
# (stencils above).


def multi_indices(s: int) -> list[tuple[int, int, int]]:
    """All 3-d multi-indices with |alpha| <= s, in a fixed order."""
    out = []
    for total in range(s + 1):
        for a1, a2 in itertools.product(range(total + 1), repeat=2):
            a3 = total - a1 - a2
            if a3 >= 0:
                out.append((a1, a2, a3))
    return out


def sobolev_norm(f: SpectralField3, s: int, a: float) -> float:
    """Discrete H^s norm of a field on the box of lateral size a."""
    if int(s) != s or s < 0:
        raise ValueError(f"Sobolev order must be a nonnegative integer, got {s}")
    s = int(s)
    if s > MAX_DERIVATIVE_ORDER:
        raise ValueError(
            f"Sobolev order {s} above supported maximum {MAX_DERIVATIVE_ORDER}"
        )
    # C order makes every profile's z sums run in one order, whatever the layout
    c, dz = np.ascontiguousarray(f.coeffs), f.disc.dz
    profiles = [c]
    if s >= 1:
        profiles.append(_dz1(c, dz))
    if s >= 2:
        profiles.append(_dz2(c, dz))
    if s >= 3:
        profiles.append(_dz1(profiles[2], dz))
    # trapezoid sums of squares: one row dot per profile, less half its end squares
    zint = [np.vecdot(p, p) - 0.5 * (p[..., 0] ** 2 + p[..., -1] ** 2) for p in profiles]
    acc = dz * np.vdot(f.disc.lateral.norm_weights(float(a), s), zint)
    return float(np.sqrt(acc))


# ---------------------------------------------------------------------------
# Lateral collocation transforms and padded products.
#
# Values live on the interior sine-collocation grid x_j = j a / (m + 1),
# j = 1..m, per direction.  Synthesis is the dense matrix
# S[j, k] = sin(pi j k / (m + 1)) of shape (m, k_max); projection onto the
# resolved band is P = 2/(m + 1) S^T, exact for modes k <= m by discrete
# sine orthogonality.  Each map contracts the two lateral axes with one
# matmul apiece.  Products are formed on a padded grid (2*k_max + 1 points
# per direction) and projected back.  That padding would dealias a cosine
# or Fourier series, but not a sine series: sin(jx) sin(kx) is a cosine
# series, whose sine coefficients decay only like k^-3, so every mode past
# the grid aliases into the kept band.  For sin^2 x on (0, pi) the exact
# mode-1 sine coefficient is 0.848826; projection from 3 points gives
# 0.853553 and from 5 points 0.849679.


def _contract_lateral(mat: np.ndarray, arr: np.ndarray) -> np.ndarray:
    """mat applied along both lateral axes of arr (shape (n, n, n_z))."""
    n, _, n_z = arr.shape
    first = np.matmul(mat, arr.reshape(n, n * n_z)).reshape(mat.shape[0], n, n_z)
    return np.matmul(mat, first)


def lateral_values(f: SpectralField3, n_pad: int | None = None) -> np.ndarray:
    """Evaluate on the interior sine-collocation grid, shape (M, M, n_z)."""
    lateral = f.disc.lateral
    synth, _ = lateral.collocation(n_pad if n_pad is not None else lateral.pad_points)
    return _contract_lateral(synth, f.coeffs)


def field_from_lateral_values(vals: np.ndarray, disc: Discretization) -> SpectralField3:
    """Project collocation values back onto the resolved sine band."""
    _, proj = disc.lateral.collocation(vals.shape[0])
    return SpectralField3(_contract_lateral(proj, vals), disc)


def pointwise_product(u: SpectralField3, v: SpectralField3) -> SpectralField3:
    """Pointwise product of two fields on the padded grid, projected back
    onto the resolved band; for sine series it still aliases (see above)."""
    _require_same_disc(u, v)
    m = u.disc.lateral.pad_points
    vals = lateral_values(u, m) * lateral_values(v, m)
    return field_from_lateral_values(vals, u.disc)


def product_ratio(u: SpectralField3, v: SpectralField3, s: int, a: float) -> float:
    """||u*v||_{H^s} / (||u||_{H^s} ||v||_{H^s}); factors must have nonzero norm."""
    nu_ = sobolev_norm(u, s, a)
    nv = sobolev_norm(v, s, a)
    if nu_ == 0.0 or nv == 0.0:
        raise ValueError("product_ratio requires factors with nonzero H^s norm")
    return sobolev_norm(pointwise_product(u, v), s, a) / (nu_ * nv)


# ---------------------------------------------------------------------------
# Reproducible random fields for calibration ensembles.

# the kinds random_field3 draws
RANDOM_KINDS = ("generic", "robin", "vspace", "flat")


def random_field3(
    disc: Discretization,
    rng: np.random.Generator,
    kind: str = "generic",
    gamma: float | None = None,
    amplitude: float = 1.0,
) -> SpectralField3:
    """Random smooth decaying field; lateral amplitudes are normal draws over |k|^3.

    kind = "generic"  two decaying exponentials per mode, free wall trace
           "robin"    z profiles satisfying c'(0) + gamma*c(0) = 0
           "vspace"   z**3-type profiles: value, slope and curvature vanish at z=0
           "flat"     slowly decaying lateral amplitudes 1/(k1*k2), rough data
    """
    lateral, z = disc.lateral, disc.z
    kk1, kk2 = lateral.k[:, None], lateral.k[None, :]
    if kind == "flat":
        amps = rng.choice([-1.0, 1.0], size=lateral.shape()) / (kk1 * kk2)
    else:
        amps = rng.normal(size=lateral.shape()) / (kk1**2 + kk2**2) ** 1.5

    if kind in ("generic", "flat"):
        p = rng.uniform(1.0, 2.0, size=lateral.shape(1))
        q = rng.uniform(2.0, 3.0, size=lateral.shape(1))
        g = rng.uniform(-1.0, 1.0, size=lateral.shape(1))
        profiles = np.exp(-p * z) + g * np.exp(-q * z)
    elif kind == "robin":
        if gamma is None or gamma <= 0:
            raise ValueError("robin profiles need gamma > 0")
        p = gamma * rng.uniform(1.3, 2.2, size=lateral.shape(1))
        q = gamma * rng.uniform(2.3, 3.2, size=lateral.shape(1))
        # c(z) = e^{-pz} + w e^{-qz} with w chosen so c'(0) + gamma c(0) = 0
        w = -(gamma - p) / (gamma - q)
        profiles = np.exp(-p * z) + w * np.exp(-q * z)
    elif kind == "vspace":
        p = rng.uniform(1.5, 2.5, size=lateral.shape(1))
        raw = z**3 * np.exp(-p * z)
        profiles = raw / np.max(raw, axis=-1, keepdims=True)
    else:
        raise ValueError(f"unknown random field kind {kind!r}")

    coeffs = amplitude * amps[:, :, None] * profiles
    return SpectralField3(coeffs, disc)
