"""Scenario construction: initial phase field, transport catalog, config files.

The initial phase is built from a shape's signed distance d as
``phi0 = l * psi(-d / eps) + l - 1`` with a C^2 cutoff l that is 1 on the
inner inset box and 0 outside the outer one, so phi0 = -1 along the domain
boundary and the pure 1D profile sits on the inner box. The sign flip -d puts
the +1 phase inside the shape.

Transport fields come from a small analytic catalog (zero, constant,
rotation, radial gradient with optional sinusoidal time modulation); velocity
and Jacobian are evaluated in closed form, never by differencing. Gradient
entries also expose g and dt_g so weighted-energy diagnostics can reuse them.

Config files are flat ``key = value`` text with shapes and transports given
as s-expressions, e.g. ``shape = (union (ball 0.5 0.5 0.25) (box 0 0 1 1))``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
import numpy as np

from .grid import GridSpec, ScalarField, VectorField, integrate
from .potential import DoubleWell, _smoothstep, profile_psi
from .shapes import Ball, Box, Complement, HalfSpace, Intersection, Shape, Union


class ConfigError(ValueError):
    """Raised for malformed configs, including exponent-condition failures."""


class MarginError(ValueError):
    """Raised when the initial interface comes too close to the cutoff collar."""


class TransportBoundWarning(UserWarning):
    """Emitted when a sampled velocity violates the eps-scaled bounds."""


# ---------------------------------------------------------------------------
# Transport catalog
# ---------------------------------------------------------------------------


class Transport:
    """Analytic velocity field; catalog entries subclass this."""

    is_gradient = False
    time_dependent = False

    def velocity(self, pts: np.ndarray, t: float) -> np.ndarray:
        raise NotImplementedError

    def jacobian(self, pts: np.ndarray, t: float) -> np.ndarray:
        raise NotImplementedError

    def g(self, pts: np.ndarray, t: float) -> np.ndarray:
        raise NotImplementedError("transport is not a gradient field")

    def dt_g(self, pts: np.ndarray, t: float) -> np.ndarray:
        raise NotImplementedError("transport is not a gradient field")

    def sup_dt_g(self, spec: GridSpec, t0: float, t1: float) -> float:
        """Bound on |dt_g| over the box and time window."""
        raise NotImplementedError("transport is not a gradient field")

    def sup_speed(self, spec: GridSpec, t0: float, t1: float) -> float:
        """Bound on |u| over the box and time window (time-dependent transports)."""
        raise NotImplementedError("transport has no analytic speed bound")


@dataclass
class ZeroTransport(Transport):
    is_gradient = True

    def velocity(self, pts, t):
        return np.zeros_like(pts)

    def jacobian(self, pts, t):
        n = pts.shape[-1]
        return np.zeros(pts.shape[:-1] + (n, n))

    def g(self, pts, t):
        return np.zeros(pts.shape[:-1])

    def dt_g(self, pts, t):
        return np.zeros(pts.shape[:-1])

    def sup_dt_g(self, spec, t0, t1):
        return 0.0


@dataclass
class ConstantTransport(Transport):
    """u = a everywhere; the gradient of the linear g = a . x."""

    vector: tuple[float, ...]
    is_gradient = True

    def velocity(self, pts, t):
        return np.broadcast_to(np.asarray(self.vector), pts.shape).copy()

    def jacobian(self, pts, t):
        n = pts.shape[-1]
        return np.zeros(pts.shape[:-1] + (n, n))

    def g(self, pts, t):
        return np.sum(pts * np.asarray(self.vector), axis=-1)

    def dt_g(self, pts, t):
        return np.zeros(pts.shape[:-1])

    def sup_dt_g(self, spec, t0, t1):
        return 0.0


@dataclass
class RotationTransport(Transport):
    """Rigid rotation u = omega * (x2 - c2, -(x1 - c1)); divergence-free, not a gradient."""

    omega: float
    center: tuple[float, ...] = (0.5, 0.5)

    def velocity(self, pts, t):
        if pts.shape[-1] != 2:
            raise ConfigError("rotation transport is 2D only")
        d = pts - np.asarray(self.center)
        return self.omega * np.stack([d[..., 1], -d[..., 0]], axis=-1)

    def jacobian(self, pts, t):
        j = np.zeros(pts.shape[:-1] + (2, 2))
        j[..., 0, 1] = self.omega
        j[..., 1, 0] = -self.omega
        return j


@dataclass
class RadialGradient(Transport):
    """u = m(t) (x - x0), the gradient of g = m(t) |x - x0|^2 / 2.

    m(t) = strength + mod_amp * sin(mod_freq * t); the unmodulated case is
    time-independent.
    """

    strength: float
    center: tuple[float, ...] = (0.5, 0.5)
    mod_amp: float = 0.0
    mod_freq: float = 0.0
    is_gradient = True

    def __post_init__(self):
        self.time_dependent = self.mod_amp != 0.0 and self.mod_freq != 0.0

    def _m(self, t: float) -> float:
        return self.strength + self.mod_amp * math.sin(self.mod_freq * t)

    def velocity(self, pts, t):
        return self._m(t) * (pts - np.asarray(self.center))

    def jacobian(self, pts, t):
        n = pts.shape[-1]
        return self._m(t) * np.broadcast_to(np.eye(n), pts.shape[:-1] + (n, n)).copy()

    def g(self, pts, t):
        d = pts - np.asarray(self.center)
        return 0.5 * self._m(t) * np.sum(d * d, axis=-1)

    def dt_g(self, pts, t):
        d = pts - np.asarray(self.center)
        return 0.5 * self.mod_amp * self.mod_freq * math.cos(self.mod_freq * t) * np.sum(d * d, axis=-1)

    def _far2(self, spec: GridSpec) -> float:
        """max |x - x0|^2 over the box, attained at a corner."""
        return sum(max((c - l) ** 2, (c - h) ** 2) for c, l, h in zip(self.center, spec.lo, spec.hi))

    def sup_dt_g(self, spec, t0, t1):
        return 0.5 * abs(self.mod_amp * self.mod_freq) * self._far2(spec)

    def sup_speed(self, spec, t0, t1):
        """(|strength| + |mod_amp|) max |x - x0|: holds at every t, between samples too."""
        return (abs(self.strength) + abs(self.mod_amp)) * math.sqrt(self._far2(spec))


# ---------------------------------------------------------------------------
# Scenario configuration
# ---------------------------------------------------------------------------


def exponent_condition(n: int, p: float, q: float) -> str | None:
    """Integrability-exponent admissibility; returns a complaint or None."""
    if not q > 2.0:
        return f"exponent condition requires q > 2, got q = {q:g}"
    lower = n * q / (2.0 * (q - 1.0))
    if not p > lower:
        return f"exponent condition requires p > nq/(2(q-1)) = {lower:g}, got p = {p:g}"
    if n == 2 and not p >= 4.0 / 3.0:
        return f"exponent condition requires p >= 4/3 when n = 2, got p = {p:g}"
    return None


@dataclass
class ScenarioConfig:
    """Full problem setup: geometry, transport, parameters and inset boxes."""

    grid: GridSpec
    shape: Shape
    transport: Transport
    epsilon: float
    t_end: float
    well: DoubleWell = field(default_factory=DoubleWell.quartic)
    beta: float = 0.25
    tau: float | None = None
    p: float | None = None
    q: float = 4.0
    lambda0: float = 100.0
    inset_prime: float | None = None
    inset_dprime: float | None = None

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ConfigError(f"epsilon must lie in (0,1), got {self.epsilon}")
        if not 0.0 < self.beta < 0.5:
            raise ConfigError(f"beta must lie in (0,1/2), got {self.beta}")
        if self.p is None:
            self.p = float(self.grid.dim)  # p = n meets the exponent condition for q > 2
        complaint = exponent_condition(self.grid.dim, self.p, self.q)
        if complaint:
            raise ConfigError(complaint)
        if self.tau is None:
            self.tau = 4.0 * self.epsilon**2
        if not self.tau < self.t_end:
            raise ConfigError(f"tau={self.tau:g} must be smaller than T={self.t_end:g}")
        h = self.grid.h
        if self.epsilon < 4.0 * h:
            raise ConfigError(
                f"epsilon={self.epsilon:g} under-resolved: need epsilon >= 4h = {4 * h:g}"
            )
        if self.epsilon < 6.0 * h:
            warnings.warn(
                f"epsilon={self.epsilon:g} is below 6h={6 * h:g}; interface marginally resolved",
                stacklevel=2,
            )
        ext = min(hi - lo for lo, hi in zip(self.grid.lo, self.grid.hi))
        if self.inset_prime is None:
            self.inset_prime = 0.1 * ext
        if self.inset_dprime is None:
            self.inset_dprime = 0.05 * ext
        if not 0.0 < self.inset_dprime < self.inset_prime < 0.5 * ext:
            raise ConfigError(
                f"need 0 < inset_dprime < inset_prime < half extent, got "
                f"{self.inset_dprime:g}, {self.inset_prime:g}"
            )

    def omega_prime(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        d = self.inset_prime
        return (
            tuple(l + d for l in self.grid.lo),
            tuple(h - d for h in self.grid.hi),
        )

    def omega_dprime(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        d = self.inset_dprime
        return (
            tuple(l + d for l in self.grid.lo),
            tuple(h - d for h in self.grid.hi),
        )


def cutoff_field(cfg: ScenarioConfig) -> ScalarField:
    """C^2 cutoff: 1 on the inner inset box, 0 outside the outer one.

    Built from the two box distances with a quintic ramp across the collar;
    smooth away from box-corner diagonals, which is enough at grid tolerance.
    """
    pts = np.stack(cfg.grid.meshgrid(), axis=-1)
    dp = Box(*cfg.omega_prime()).sdf(pts)
    dd = Box(*cfg.omega_dprime()).sdf(pts)
    l = np.ones(pts.shape[:-1])
    collar = (dp > 0) & (dd < 0)
    l[collar] = 1.0 - _smoothstep(dp[collar] / (dp[collar] - dd[collar]))
    l[dd >= 0] = 0.0
    return ScalarField(cfg.grid, l)


def build_initial_phase(cfg: ScenarioConfig) -> ScalarField:
    """phi0 = l * psi(-d/eps) + l - 1: +1 inside the shape, -1 off the outer inset.

    Requires the interface (zero set of the shape distance) to clear the
    cutoff collar by at least 4 eps, otherwise the cutoff would distort it.
    """
    pts = np.stack(cfg.grid.meshgrid(), axis=-1)
    d = cfg.shape.sdf(pts)
    l = cutoff_field(cfg).values
    off_core = l < 1.0
    if np.any(off_core):
        margin = float(np.min(d[off_core]))
        if margin < 4.0 * cfg.epsilon:
            raise MarginError(
                f"shape must clear the cutoff collar by 4*eps = {4 * cfg.epsilon:g}; "
                f"measured margin {margin:g}"
            )
    psi = profile_psi(cfg.well, -d / cfg.epsilon)
    return ScalarField(cfg.grid, l * psi + l - 1.0)


def build_transport(cfg: ScenarioConfig, t: float, check_bounds: bool = True) -> VectorField:
    """Sample u on the grid; bound violations are reported, never clamped."""
    pts = np.stack(cfg.grid.meshgrid(), axis=-1)
    u = cfg.transport.velocity(pts, t)
    if check_bounds:
        sup_u = float(np.max(np.sqrt(np.sum(u * u, axis=-1))))
        jac = cfg.transport.jacobian(pts, t)
        sup_ju = float(np.max(np.sqrt(np.sum(jac * jac, axis=(-2, -1)))))
        cap_u = cfg.epsilon ** (-cfg.beta)
        cap_ju = cfg.epsilon ** (-(cfg.beta + 1.0))
        if sup_u > cap_u or sup_ju > cap_ju:
            warnings.warn(
                f"transport bound violated at t={t:g}: sup|u|={sup_u:.4g} vs "
                f"eps^-beta={cap_u:.4g}, sup|grad u|={sup_ju:.4g} vs "
                f"eps^-(beta+1)={cap_ju:.4g}",
                TransportBoundWarning,
                stacklevel=2,
            )
    return VectorField(cfg.grid, u)


@dataclass
class TransportBoundsReport:
    sup_u: float
    sup_grad_u: float
    cap_u: float
    cap_grad_u: float
    first_violation: float | None


def transport_bounds_report(cfg: ScenarioConfig, n_samples: int = 17) -> TransportBoundsReport:
    """Scan [0, T] for the first time the eps-scaled bounds fail.

    A finite first_violation caps the usable horizon for this epsilon.
    """
    pts = np.stack(cfg.grid.meshgrid(), axis=-1)
    cap_u = cfg.epsilon ** (-cfg.beta)
    cap_ju = cfg.epsilon ** (-(cfg.beta + 1.0))
    sup_u = sup_ju = 0.0
    first = None
    for t in np.linspace(0.0, cfg.t_end, n_samples):
        u = cfg.transport.velocity(pts, float(t))
        jac = cfg.transport.jacobian(pts, float(t))
        su = float(np.max(np.sqrt(np.sum(u * u, axis=-1))))
        sj = float(np.max(np.sqrt(np.sum(jac * jac, axis=(-2, -1)))))
        sup_u = max(sup_u, su)
        sup_ju = max(sup_ju, sj)
        if first is None and (su > cap_u or sj > cap_ju):
            first = float(t)
    return TransportBoundsReport(sup_u, sup_ju, cap_u, cap_ju, first)


def transport_norm(cfg: ScenarioConfig, time_samples: int = 65) -> float:
    """Space-time transport norm: L^q in time of the W^{1,p} spatial norm.

    Spatial norm: (integral of |u|^p + |grad u|^p)^{1/p} with trapezoid
    quadrature; time integral by trapezoid over >= 64 intervals.
    """
    complaint = exponent_condition(cfg.grid.dim, cfg.p, cfg.q)
    if complaint:
        raise ConfigError(complaint)
    if time_samples < 65:
        time_samples = 65
    pts = np.stack(cfg.grid.meshgrid(), axis=-1)

    def spatial_norm(t: float) -> float:
        u = cfg.transport.velocity(pts, t)
        jac = cfg.transport.jacobian(pts, t)
        dens = (
            np.sqrt(np.sum(u * u, axis=-1)) ** cfg.p
            + np.sqrt(np.sum(jac * jac, axis=(-2, -1))) ** cfg.p
        )
        return integrate(ScalarField(cfg.grid, dens)) ** (1.0 / cfg.p)

    if not cfg.transport.time_dependent:
        return float(spatial_norm(0.0) * cfg.t_end ** (1.0 / cfg.q))
    times = np.linspace(0.0, cfg.t_end, time_samples)
    norms = np.array([spatial_norm(float(t)) for t in times])
    return float(np.trapezoid(norms**cfg.q, times) ** (1.0 / cfg.q))


# ---------------------------------------------------------------------------
# Config files: flat key = value lines, s-expression shapes/transports
# ---------------------------------------------------------------------------

KNOWN_KEYS = {
    "dim", "cells", "lo", "hi", "epsilon", "beta", "shape", "transport",
    "tau", "T", "p", "q", "lambda0", "inset_prime", "inset_dprime",
    "potential", "alpha", "kappa", "scheme", "cfl", "diag_every",
    "snap_every",
}

REQUIRED_KEYS = ("dim", "cells", "epsilon", "shape", "T")


def parse_sexpr(text: str):
    """Parse one s-expression into nested lists of atoms (strings)."""
    toks = text.replace("(", " ( ").replace(")", " ) ").split()
    if not toks:
        raise ConfigError("empty s-expression")

    def build(i: int):
        if toks[i] == "(":
            out = []
            i += 1
            while i < len(toks) and toks[i] != ")":
                node, i = build(i)
                out.append(node)
            if i >= len(toks):
                raise ConfigError(f"unbalanced parentheses in {text!r}")
            return out, i + 1
        if toks[i] == ")":
            raise ConfigError(f"unexpected ')' in {text!r}")
        return toks[i], i + 1

    node, i = build(0)
    if i != len(toks):
        raise ConfigError(f"trailing tokens in s-expression {text!r}")
    return node


def shape_from_sexpr(node, dim: int) -> Shape:
    if isinstance(node, str):
        raise ConfigError(f"shape must be a parenthesized form, got {node!r}")
    head, *args = node
    if head == "ball":
        vals = [float(a) for a in args]
        if len(vals) != dim + 1:
            raise ConfigError(f"(ball ...) needs {dim} center coords + radius, got {len(vals)}")
        return Ball(tuple(vals[:dim]), vals[dim])
    if head == "box":
        vals = [float(a) for a in args]
        if len(vals) != 2 * dim:
            raise ConfigError(f"(box ...) needs {2 * dim} numbers, got {len(vals)}")
        return Box(tuple(vals[:dim]), tuple(vals[dim:]))
    if head == "halfspace":
        vals = [float(a) for a in args]
        if len(vals) != dim + 1:
            raise ConfigError(f"(halfspace ...) needs {dim} normal coords + offset")
        return HalfSpace(tuple(vals[:dim]), vals[dim])
    if head == "union":
        return Union(*[shape_from_sexpr(a, dim) for a in args])
    if head == "intersection":
        return Intersection(*[shape_from_sexpr(a, dim) for a in args])
    if head == "complement":
        if len(args) != 1:
            raise ConfigError("(complement ...) takes exactly one shape")
        return Complement(shape_from_sexpr(args[0], dim))
    raise ConfigError(f"unknown shape kind {head!r}")


def transport_from_sexpr(node, dim: int) -> Transport:
    if isinstance(node, str):
        node = [node]
    head, *args = node
    vals = [float(a) for a in args]
    if head == "zero":
        return ZeroTransport()
    if head == "constant":
        if len(vals) != dim:
            raise ConfigError(f"(constant ...) needs {dim} components")
        return ConstantTransport(tuple(vals))
    if head == "rotation":
        if len(vals) not in (1, 1 + dim):
            raise ConfigError("(rotation omega [center...])")
        center = tuple(vals[1:]) if len(vals) > 1 else (0.5,) * dim
        return RotationTransport(vals[0], center)
    if head == "radial":
        if len(vals) != 1 + dim:
            raise ConfigError(f"(radial c center...) needs 1 + {dim} numbers")
        return RadialGradient(vals[0], tuple(vals[1:]))
    if head == "radial-pulsed":
        if len(vals) != 3 + dim:
            raise ConfigError(f"(radial-pulsed c amp freq center...) needs 3 + {dim} numbers")
        return RadialGradient(vals[0], tuple(vals[3:]), mod_amp=vals[1], mod_freq=vals[2])
    raise ConfigError(f"unknown transport kind {head!r}")


def config_entries(text: str):
    """(line number, key, value) of each ``key = value`` line; ``#`` starts a comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        yield lineno, key, value


def parse_config(text: str) -> dict[str, str]:
    """key = value lines into a dict; unknown keys are rejected with their line."""
    out: dict[str, str] = {}
    for lineno, key, value in config_entries(text):
        if key not in KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def scenario_from_config(conf: dict[str, str]) -> ScenarioConfig:
    for key in REQUIRED_KEYS:
        if key not in conf:
            raise ConfigError(f"missing required key {key!r}")
    dim = int(conf["dim"])
    cells_vals = [int(v) for v in conf["cells"].split()]
    cells = tuple(cells_vals * dim if len(cells_vals) == 1 else cells_vals)
    lo = tuple(float(v) for v in conf.get("lo", "0 " * dim).split())
    hi = tuple(float(v) for v in conf.get("hi", "1 " * dim).split())
    grid = GridSpec(dim, lo, hi, cells)
    shape = shape_from_sexpr(parse_sexpr(conf["shape"]), dim)
    transport = transport_from_sexpr(parse_sexpr(conf.get("transport", "zero")), dim)
    pot = conf.get("potential", "quartic").split()
    alpha = float(conf.get("alpha", "0.8"))
    kappa = float(conf.get("kappa", "1.0"))
    if pot[0] == "quartic":
        well = DoubleWell.quartic(alpha=alpha, kappa=kappa)
    elif pot[0] == "poly":
        well = DoubleWell.from_coeffs([float(c) for c in pot[1:]], alpha=alpha, kappa=kappa)
    else:
        raise ConfigError(f"unknown potential {pot[0]!r}")
    kwargs = {}
    if "tau" in conf:
        kwargs["tau"] = float(conf["tau"])
    if "inset_prime" in conf:
        kwargs["inset_prime"] = float(conf["inset_prime"])
    if "inset_dprime" in conf:
        kwargs["inset_dprime"] = float(conf["inset_dprime"])
    if "p" in conf:
        kwargs["p"] = float(conf["p"])
    return ScenarioConfig(
        grid=grid,
        shape=shape,
        transport=transport,
        epsilon=float(conf["epsilon"]),
        t_end=float(conf["T"]),
        well=well,
        beta=float(conf.get("beta", "0.25")),
        q=float(conf.get("q", "4")),
        lambda0=float(conf.get("lambda0", "100")),
        **kwargs,
    )
