"""Scenario construction: initial phase field, transport catalog, config files.

The initial phase is built from a shape's signed distance d as
``phi0 = l * psi(-d / eps) + l - 1`` with a C^2 cutoff l that is 1 on the
inner inset box and 0 outside the outer one, so phi0 = -1 along the domain
boundary and the pure 1D profile sits on the inner box. The sign flip -d puts
the +1 phase inside the shape.

Every transport of the config catalog (zero, constant, rotation, radial
gradient with optional sinusoidal time modulation) is one affine field
u(x, t) = m(t) (A (x - x0) + b) (``Transport``): a scalar time factor m
(1 except for the radial entries) times a spatial part U in closed form,
never differenced, evaluated one axis at a time over the grid's open mesh of
node coordinates (``GridSpec.coords``). grad U = A is one n x n matrix, and
a gradient entry u = grad g has g = m(t) G with a potential G. The grid's U
and G are evaluated once and cached (``transport_field``, one grid at a
time); m(t) scales the numbers built on U (the step's transport sum, a
kernel integral, the bounds), never U itself. U is stored component-major,
shape (n,) + nodes, so that the step's block sweep (``grid.stencil_rhs``)
reads each component of a block as one contiguous run; the sums over
components (|U|^2 in the bounds, the report and ``measures.kernel_terms``)
run over its leading axis.

Config files are flat ``key = value`` text with shapes and transports given
as s-expressions, e.g. ``shape = (union (ball 0.5 0.5 0.25) (box 0 0 1 1))``.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .grid import SLAB_NODES, GridSpec, ScalarField, integrate, sum_sq
from .potential import DoubleWell, _smoothstep, profile_psi, validate_conditions
from .shapes import Ball, Box, Complement, HalfSpace, Intersection, Shape, Union


class ConfigError(ValueError):
    """Raised for malformed configs, including exponent-condition failures."""


class MarginError(ConfigError):
    """Raised when the initial interface comes too close to the cutoff collar."""


# ---------------------------------------------------------------------------
# Transport catalog
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Transport:
    """u(x, t) = m(t) U(x), U = A (x - x0) + b, m(t) = c + amp sin(freq t); the
    default is u = 0.

    A is its listed entries (i, k, A_ik), b its components (none: no shift) and
    x0 the centre (none: the origin). U's rows and G sum the listed terms alone,
    so an unlisted entry adds no +0.0 that would flip a -0.0. A gradient entry
    u = grad g, g = m G, has a diagonal A and the potential
    G = (x - x0)^T A (x - x0) / 2 + b . (x - x0); an off-diagonal entry (the
    skew rotation) leaves u without one. Callers scale U, G and the constant
    matrix grad U = A by m(t)."""

    entries: tuple[tuple[int, int, float], ...] = ()
    shift: tuple[float, ...] = ()
    center: tuple[float, ...] = ()
    c: float = 1.0
    amp: float = 0.0
    freq: float = 0.0

    @property
    def time_dependent(self) -> bool:
        return self.amp != 0.0 and self.freq != 0.0

    @property
    def gradient(self) -> bool:
        """Whether u has a potential G: A is diagonal."""
        return all(i == k for i, k, _ in self.entries)

    def m(self, t: float) -> float:
        return self.c + self.amp * math.sin(self.freq * t)

    def spatial(self, x) -> tuple[np.ndarray | None, np.ndarray | None]:
        """(U, G) as fresh arrays at the nodes of the coordinate sequence ``x``
        (``GridSpec.coords()``, or anything indexed by axis whose entries
        broadcast), U component-major: a leading component axis, as
        ``grid.VectorField.components``; None for one that is 0 or does not
        exist."""
        if not (self.entries or self.shift):
            return None, None
        d = self._offsets(x)
        u = np.empty((len(d),) + np.broadcast_shapes(*(np.shape(dk) for dk in d)))
        for row, ui in enumerate(self._rows(d)):
            u[row] = ui
        if not self.gradient:
            return u, None
        # +0.0 starts the sums, as np.sum does, so -0.0 terms sum to +0.0
        quad = sum((a * d[i] * d[i] for i, _, a in self.entries), 0.0)
        return u, sum((b * dk for b, dk in zip(self.shift, d)), 0.5 * quad)

    def _rows(self, d) -> list:
        """U's components at the offsets d = x - x0, each the sum of its listed
        terms in order (A's entries in the row, then b's component), 0.0 if none."""
        rows = [[a * d[k] for i, k, a in self.entries if i == row] for row in range(len(d))]
        for row, b in enumerate(self.shift):
            rows[row].append(b)
        return [sum(terms[1:], terms[0]) if terms else 0.0 for terms in rows]

    def _offsets(self, x) -> list:
        """x - x0 for each axis of the coordinate sequence ``x``."""
        if self.center and len(self.center) != len(x):
            raise ConfigError(f"transport center {self.center} does not match dim {len(x)}")
        return [xk - x0 for xk, x0 in zip(x, self.center or (0.0,) * len(x))]

    def _corner_offsets(self, spec: GridSpec) -> list:
        """x - x0 at the box's corners, as an open mesh of two values per axis."""
        return self._offsets(np.ix_(*zip(spec.lo, spec.hi)))

    def spatial_jacobian(self, n: int) -> np.ndarray:
        jac = np.zeros((n, n))
        for i, k, a in self.entries:
            jac[i, k] = a
        return jac

    def velocity(self, pts: np.ndarray, t: float) -> np.ndarray:
        """m(t) U at stacked points, shape (..., n), through ``spatial`` on their
        component views: the node-major view of a component-major array."""
        u = self.spatial(np.moveaxis(pts, -1, 0))[0]
        return np.zeros(pts.shape) if u is None else np.moveaxis(np.multiply(u, self.m(t), out=u), 0, -1)

    def radial_rate(self) -> float | None:
        """a when u = a (x - x0) at all times (A = I or 0, b = 0, m constant), the
        transport of the sphere law ``interface.mcf_oracle``; None otherwise."""
        if self.time_dependent or self.shift or self.entries not in ((), _identity(len(self.center))):
            return None
        return self.c if self.entries else 0.0

    def sup_dt_g(self, spec: GridSpec, t0: float, t1: float) -> float:
        """Bound on |dt g| = |m'(t) G| over the box and time window: |amp freq|
        times the sum of G's terms at their largest on the box; 0 while m is
        constant or without G."""
        if not (self.time_dependent and self.gradient):
            return 0.0
        far = [max(float(v) ** 2 for v in dk.flat) for dk in self._corner_offsets(spec)]
        size = (sum(0.5 * abs(a) * far[i] for i, _, a in self.entries)
                + sum(abs(b) * math.sqrt(far[i]) for i, b in enumerate(self.shift)))
        return abs(self.amp * self.freq) * size

    def sup_speed(self, spec: GridSpec, t0: float, t1: float) -> float:
        """Bound on |u| over the box and time window. Static: |m(t0)| max |U| over
        the nodes. Pulsed: |c| + |amp| times the root of the sum over components
        of max U_i^2 at the box's corners (an affine U_i peaks at one), which
        holds between samples too."""
        if not self.time_dependent:
            u = transport_field(self, spec).u
            return 0.0 if u is None else abs(self.m(t0)) * math.sqrt(float(np.max(sum_sq(u, axis=0))))
        rows = self._rows(self._corner_offsets(spec))
        peak = sum(max(float(v) ** 2 for v in np.ravel(ui)) for ui in rows)
        return (abs(self.c) + abs(self.amp)) * math.sqrt(peak)


def _identity(n: int) -> tuple[tuple[int, int, float], ...]:
    return tuple((i, i, 1.0) for i in range(n))


class TransportField(NamedTuple):
    """A transport's ``spatial`` (U, G) at the nodes of one grid; shared and read-only."""

    u: np.ndarray | None
    g: np.ndarray | None


def transport_field(transport: Transport, spec: GridSpec) -> TransportField:
    """The transport's ``TransportField`` on ``spec``; the last one evaluated is
    kept, by the transport and its repr: == takes -0.0 for 0.0, where U and G
    differ in the sign bits of their zeros."""
    return _transport_field_cached(transport, repr(transport), spec)


@functools.lru_cache(maxsize=1)
def _transport_field_cached(transport: Transport, _repr: str, spec: GridSpec) -> TransportField:
    parts = TransportField(*transport.spatial(spec.coords()))
    for a in parts:
        if a is not None:
            a.flags.writeable = False
    return parts


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


def _cutoff(cfg: ScenarioConfig, x, out: np.ndarray | None = None) -> np.ndarray:
    """The cutoff at the nodes of the open mesh ``x`` (the grid's, or a slab of
    it), in a fresh array or in ``out``.

    Built from the two box distances with a quintic ramp across the collar;
    smooth away from box-corner diagonals, which is enough at grid tolerance.
    """
    dp = Box(*cfg.omega_prime()).sdf(x)
    dd = Box(*cfg.omega_dprime()).sdf(x)
    collar, outer = (dp > 0) & (dd < 0), dd >= 0
    ramp = 1.0 - _smoothstep(dp[collar] / (dp[collar] - dd[collar]))
    del dp, dd
    l = np.empty(collar.shape) if out is None else out
    l.fill(1.0)
    l[collar] = ramp
    l[outer] = 0.0
    return l


def build_initial_phase(cfg: ScenarioConfig, out: np.ndarray | None = None) -> ScalarField:
    """phi0 = l * psi(-d/eps) + l - 1: +1 inside the shape, -1 off the outer inset;
    in a fresh field, or in ``out`` (C-contiguous float64, of the grid's shape).

    Requires the interface (zero set of the shape distance) to clear the
    cutoff collar by at least 4 eps, otherwise the cutoff would distort it.

    The field is built by axis-0 slabs of about ``grid.SLAB_NODES`` nodes,
    each written into the one result: per slab the cutoff (``_cutoff``), the
    shape's distance d, the smallest d where the cutoff is below 1 (the
    margin) and the profile. Every step is pointwise, so the bits are those of
    the whole-field form, while no temporary is larger than a slab.
    """
    spec = cfg.grid
    x = spec.coords()
    phi = np.empty(spec.nodes) if out is None else out
    rows = max(1, SLAB_NODES // (spec.n_nodes // spec.nodes[0]))
    margin = min(_phase_slab(cfg, (x[0][i : i + rows],) + x[1:], phi[i : i + rows])
                 for i in range(0, spec.nodes[0], rows))
    if margin < 4.0 * cfg.epsilon:
        raise MarginError(
            f"shape must clear the cutoff collar by 4*eps = {4 * cfg.epsilon:g}; "
            f"measured margin {margin:g}"
        )
    return ScalarField(spec, phi)


def _phase_slab(cfg: ScenarioConfig, x, out: np.ndarray) -> float:
    """phi0 at the nodes of the mesh slab ``x``, into ``out``; returns the smallest
    shape distance where the cutoff is below 1 (inf where there is none)."""
    l = _cutoff(cfg, x, out)  # in out until phi0 replaces it there
    d = cfg.shape.sdf(x)
    margin = float(np.min(d, initial=math.inf, where=l < 1.0))
    # l * psi(-d / eps) + l - 1 in place, in the same operation order
    d /= -cfg.epsilon
    psi = profile_psi(cfg.well, d)
    psi *= l
    psi += l
    np.subtract(psi, 1.0, out=out)
    return margin


@dataclass
class TransportReport:
    """The L^q(W^{1,p}) norm; sup |u| and sup |grad u|_F over nodes and sample times
    against eps^-beta and eps^-(beta+1), and the first sample time a cap fails."""

    norm: float
    sup_u: float
    sup_grad_u: float
    cap_u: float
    cap_grad_u: float
    first_violation: float | None


def transport_report(cfg: ScenarioConfig) -> TransportReport:
    """The norm and the bounds from one spatial integral (never clamped).

    For u = m(t) U, a sample's spatial norm (integral of |u|^p + |grad u|_F^p)^{1/p}
    is |m(t)| N with N = (integral of |U|^p + |grad U|_F^p)^{1/p}, integrated once
    by trapezoid over the grid's cached U (``transport_field``); its sup |u| and
    sup |grad u|_F are |m(t)| max |U| and |m(t)| |grad U|_F. A static transport
    is sampled at t = 0 and its norm is that times T^{1/q}; otherwise 65
    equispaced times over [0, T] give the L^q time norm by trapezoid. A
    transport without U is zero, with a zero norm and bounds, and forms no field.
    """
    u_field = transport_field(cfg.transport, cfg.grid).u
    cap_u = cfg.epsilon ** (-cfg.beta)
    cap_ju = cfg.epsilon ** (-(cfg.beta + 1.0))
    if u_field is None:
        return TransportReport(0.0, 0.0, 0.0, cap_u, cap_ju, None)
    abs_u = np.sqrt(sum_sq(u_field, axis=0))
    jac = cfg.transport.spatial_jacobian(cfg.grid.dim)
    max_u, abs_ju = float(np.max(abs_u)), math.sqrt(float(np.sum(jac * jac)))
    n_u = integrate(ScalarField(cfg.grid, abs_u**cfg.p + abs_ju**cfg.p)) ** (1.0 / cfg.p)
    static = not cfg.transport.time_dependent
    times = np.zeros(1) if static else np.linspace(0.0, cfg.t_end, 65)
    ms = np.abs([cfg.transport.m(float(t)) for t in times])
    over = np.flatnonzero((ms * max_u > cap_u) | (ms * abs_ju > cap_ju))
    norm = (ms[0] * n_u * cfg.t_end ** (1.0 / cfg.q) if static
            else np.trapezoid((ms * n_u) ** cfg.q, times) ** (1.0 / cfg.q))
    top = float(np.max(ms))  # max(ms) c = max(ms c) for c >= 0: rounding is monotone
    return TransportReport(float(norm), top * max_u, top * abs_ju, cap_u, cap_ju,
                           float(times[over[0]]) if over.size else None)


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

# Every numeric key with its type; ``cells``, ``lo`` and ``hi`` take several numbers.
NUMBERS = {
    "dim": int, "cells": int, "epsilon": float, "lo": float, "hi": float,
    "T": float, "beta": float, "tau": float, "p": float, "q": float, "lambda0": float,
    "inset_prime": float, "inset_dprime": float, "alpha": float, "kappa": float,
    "cfl": float, "diag_every": int, "snap_every": int,
}


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


def _form(node) -> str:
    """An s-expression node written back as text."""
    return node if isinstance(node, str) else "(" + " ".join(_form(a) for a in node) + ")"


def _numbers(key: str, head, args) -> list[float]:
    """The arguments of a ``(head ...)`` form in ``key``'s value as floats;
    ``ConfigError`` naming the key and the argument if one is not a number."""
    vals = []
    for a in args:
        try:
            vals.append(float(a))
        except (TypeError, ValueError):  # a nested form, or an atom such as '0.8x'
            what = f"the form {_form(a)}" if isinstance(a, list) else repr(a)
            raise ConfigError(f"({_form(head)} ...) takes numbers, got {what} in {key}") from None
    return vals


def shape_from_sexpr(node, dim: int) -> Shape:
    """The shape a ``(ball ...)``, ``(box ...)``, ``(halfspace ...)``, ``(union ...)``,
    ``(intersection ...)`` or ``(complement ...)`` form describes. A form whose
    shape would be empty or undefined (radius <= 0, lo >= hi on an axis, a zero
    normal, a union or intersection of nothing) raises ``ConfigError``."""
    if isinstance(node, str):
        raise ConfigError(f"shape must be a parenthesized form, got {node!r}")
    head, *args = node
    if head == "ball":
        vals = _numbers("shape", head, args)
        if len(vals) != dim + 1:
            raise ConfigError(f"(ball ...) needs {dim} center coords + radius, got {len(vals)}")
        if not vals[dim] > 0.0:
            raise ConfigError(f"(ball ...) radius must be positive, got {vals[dim]:g}")
        return Ball(tuple(vals[:dim]), vals[dim])
    if head == "box":
        vals = _numbers("shape", head, args)
        if len(vals) != 2 * dim:
            raise ConfigError(f"(box ...) needs {2 * dim} numbers, got {len(vals)}")
        if not all(lo < hi for lo, hi in zip(vals[:dim], vals[dim:])):
            raise ConfigError(f"(box lo... hi...) needs lo < hi on every axis, got {_form(node)}")
        return Box(tuple(vals[:dim]), tuple(vals[dim:]))
    if head == "halfspace":
        vals = _numbers("shape", head, args)
        if len(vals) != dim + 1:
            raise ConfigError(f"(halfspace ...) needs {dim} normal coords + offset")
        if not 0.0 < float(np.linalg.norm(vals[:dim])) < math.inf:
            raise ConfigError(f"(halfspace ...) normal must have a finite nonzero length, got {_form(node)}")
        return HalfSpace(tuple(vals[:dim]), vals[dim])
    if head in ("union", "intersection"):
        if not args:
            raise ConfigError(f"({head} ...) takes at least one shape")
        parts = [shape_from_sexpr(a, dim) for a in args]
        return Union(*parts) if head == "union" else Intersection(*parts)
    if head == "complement":
        if len(args) != 1:
            raise ConfigError("(complement ...) takes exactly one shape")
        return Complement(shape_from_sexpr(args[0], dim))
    raise ConfigError(f"unknown shape kind {head!r}")


def transport_from_sexpr(node, dim: int) -> Transport:
    """The transport a ``(zero)``, ``(constant b...)``, ``(rotation w cx cy)`` (2D),
    ``(radial c x0...)`` or ``(radial-pulsed c amp freq x0...)`` form describes."""
    if isinstance(node, str):
        node = [node]
    head, *args = node
    vals = _numbers("transport", head, args)
    if head == "zero":
        if vals:
            raise ConfigError(f"(zero) takes no arguments, got {len(vals)}")
        return Transport()
    if head == "constant":
        if len(vals) != dim:
            raise ConfigError(f"(constant ...) needs {dim} components")
        return Transport(shift=tuple(vals))
    if head == "rotation":
        if dim != 2:
            raise ConfigError("rotation transport is 2D only")
        if len(vals) != 3:
            raise ConfigError("(rotation omega cx cy) needs 3 numbers")
        return Transport(((0, 1, vals[0]), (1, 0, -vals[0])), center=tuple(vals[1:]))
    if head == "radial":
        if len(vals) != 1 + dim:
            raise ConfigError(f"(radial c center...) needs 1 + {dim} numbers")
        return Transport(_identity(dim), center=tuple(vals[1:]), c=vals[0])
    if head == "radial-pulsed":
        if len(vals) != 3 + dim:
            raise ConfigError(f"(radial-pulsed c amp freq center...) needs 3 + {dim} numbers")
        return Transport(_identity(dim), center=tuple(vals[3:]), c=vals[0], amp=vals[1], freq=vals[2])
    raise ConfigError(f"unknown transport kind {head!r}")


def config_entries(text: str):
    """(line number, key, value) of each ``key = value`` line; ``#`` starts a comment.

    A key given twice is rejected with the line of its second occurrence.
    """
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        yield lineno, key, value


def numbers(lineno: int, key: str, value: str, kind: type, several: bool = False) -> list:
    """``value``'s numbers as ``kind``; ``ConfigError`` naming the line if one does
    not parse, there are none, or several where one is due."""
    try:
        nums = [kind(v) for v in value.split()]
    except ValueError:
        nums = []
    if not nums or (len(nums) > 1 and not several):
        raise ConfigError(f"line {lineno}: bad {key} value {value!r}")
    return nums


def check_entry(lineno: int, key: str, value: str) -> None:
    """Reject an unknown key or a malformed number (``NUMBERS``), naming the line."""
    if key not in KNOWN_KEYS:
        raise ConfigError(f"line {lineno}: unknown key {key!r}")
    if key in NUMBERS:
        numbers(lineno, key, value, NUMBERS[key], key in ("cells", "lo", "hi"))


def parse_config(text: str) -> dict[str, str]:
    """key = value lines into a dict, each checked by ``check_entry``."""
    out: dict[str, str] = {}
    for lineno, key, value in config_entries(text):
        check_entry(lineno, key, value)
        out[key] = value
    return out


def config_box(conf: dict[str, str], dim: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(lo, hi) of a config's box: the unit box unless ``lo``/``hi`` are set."""
    lo = tuple(float(v) for v in conf.get("lo", "0 " * dim).split())
    hi = tuple(float(v) for v in conf.get("hi", "1 " * dim).split())
    return lo, hi


def scenario_from_config(conf: dict[str, str]) -> ScenarioConfig:
    """The scenario a parsed config describes; a key the config does not set
    keeps the default of ``ScenarioConfig`` or ``DoubleWell``. A well that
    fails a structural condition of ``validate_conditions`` is rejected."""
    for key in REQUIRED_KEYS:
        if key not in conf:
            raise ConfigError(f"missing required key {key!r}")
    dim = int(conf["dim"])
    cells_vals = [int(v) for v in conf["cells"].split()]
    cells = tuple(cells_vals * dim if len(cells_vals) == 1 else cells_vals)
    grid = GridSpec(dim, *config_box(conf, dim), cells)
    shape = shape_from_sexpr(parse_sexpr(conf["shape"]), dim)
    transport = transport_from_sexpr(parse_sexpr(conf.get("transport", "zero")), dim)
    kind, *coeffs = conf.get("potential", "quartic").split() or [""]
    params = {key: float(conf[key]) for key in ("alpha", "kappa") if key in conf}
    if kind == "quartic" and not coeffs:
        well = DoubleWell.quartic(**params)
    elif kind == "poly":
        well = DoubleWell.from_coeffs(_numbers("potential", kind, coeffs), **params)
    elif kind == "quartic":
        raise ConfigError(f"potential 'quartic' takes no coefficients, got {' '.join(coeffs)!r}")
    else:
        raise ConfigError(f"unknown potential {kind!r}")
    report = validate_conditions(well)
    for name, cond in zip("abc", (report.condition_a, report.condition_b, report.condition_c)):
        if not cond.passed:
            raise ConfigError(f"potential fails well condition ({name}): {cond.detail}")
    keys = ("beta", "tau", "p", "q", "lambda0", "inset_prime", "inset_dprime")
    return ScenarioConfig(
        grid=grid,
        shape=shape,
        transport=transport,
        epsilon=float(conf["epsilon"]),
        t_end=float(conf["T"]),
        well=well,
        **{key: float(conf[key]) for key in keys if key in conf},
    )
