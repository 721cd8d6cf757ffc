"""Double-well potentials and the 1D heteroclinic interface profile.

A well is either the standard quartic W(s) = (1 - s^2)^2 / 2 or a
user-supplied polynomial. Structural requirements (wells at +-1, single
derivative sign change at gamma, convexity kappa beyond alpha) are checked by
``validate_conditions`` rather than assumed.

The interface profile psi solves psi' = sqrt(2 W(psi)), psi(0) = gamma: the
exact tanh for the standard quartic, an RK4 table (step 1e-3, cubic-Hermite
interpolation) otherwise. Beyond |s| = 8 the profile is blended to exactly
+-1 by a C^2 quintic ramp ending at |s| = 10; the perturbation is below 1e-6
since tanh(8) is already within 7e-7 of 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

PSI_BLEND_START = 8.0
PSI_CUT = 10.0
_RK4_STEP = 1e-3


class PotentialError(ValueError):
    """Raised for malformed wells or failed quadrature."""


def _smoothstep(t: np.ndarray) -> np.ndarray:
    """Quintic ramp: 0 at 0, 1 at 1, C^2 at both ends."""
    t = np.clip(t, 0.0, 1.0)
    return t**3 * (10.0 + t * (-15.0 + 6.0 * t))


@dataclass(eq=False)
class DoubleWell:
    """Potential with wells at +-1 and parameters (gamma, alpha, kappa).

    ``family`` is "quartic" or "poly"; polynomial coefficients are ascending.
    gamma (the W' zero strictly between the wells) is located at construction.
    """

    family: str = "quartic"
    coeffs: tuple[float, ...] = ()
    alpha: float = 0.8
    kappa: float = 1.0
    gamma: float = field(init=False, default=0.0)

    def __post_init__(self):
        if self.family not in ("quartic", "poly"):
            raise PotentialError(f"unknown well family {self.family!r}")
        if not 0.0 < self.alpha < 1.0:
            raise PotentialError(f"alpha must lie in (0,1), got {self.alpha}")
        if self.kappa <= 0.0:
            raise PotentialError(f"kappa must be positive, got {self.kappa}")
        if self.family == "poly":
            if len(self.coeffs) < 3:
                raise PotentialError("polynomial well needs at least 3 coefficients")
            self.coeffs = tuple(float(c) for c in self.coeffs)
            self.gamma = self._locate_gamma()
        else:
            self.coeffs = ()
            self.gamma = 0.0

    @classmethod
    def quartic(cls, **params) -> "DoubleWell":
        return cls(family="quartic", **params)

    @classmethod
    def from_coeffs(cls, coeffs, **params) -> "DoubleWell":
        return cls(family="poly", coeffs=tuple(coeffs), **params)

    def _locate_gamma(self) -> float:
        # W' > 0 left of gamma and < 0 right of it, so bisect the sign change.
        lo, hi = -1.0 + 1e-9, 1.0 - 1e-9
        flo = float(self.wprime(lo))
        fhi = float(self.wprime(hi))
        if not (flo > 0 > fhi):
            raise PotentialError(
                f"W' does not change sign from + to - inside (-1,1): W'({lo:.3g})={flo:.3g}, "
                f"W'({hi:.3g})={fhi:.3g}"
            )
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self.wprime(mid) > 0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    @cached_property
    def _poly_derivs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Ascending coefficients of W, W' and W'' (polynomial family)."""
        c = np.asarray(self.coeffs)
        cp = (c * np.arange(len(c)))[1:]
        cpp = (cp * np.arange(len(cp)))[1:]
        return c, cp, cpp

    def wprime_coeffs(self) -> tuple[float, ...]:
        """Ascending coefficients of W': (0, -2, 0, 2) for the quartic."""
        if self.family == "poly":
            return tuple(float(c) for c in self._poly_derivs[1])
        return (0.0, -2.0, 0.0, 2.0)

    def wprime(self, s) -> np.ndarray:
        """W'(s) alone, for the search for gamma; ``eval`` takes its W' from here.
        The explicit step evaluates W' from ``wprime_coeffs`` instead."""
        s = np.asarray(s, dtype=np.float64)
        if self.family == "poly":
            return np.polynomial.polynomial.polyval(s, self._poly_derivs[1])
        return -2.0 * s * (1.0 - s * s)

    def w(self, s) -> np.ndarray:
        """W(s) alone, for the per-frame diagnostics, the profile psi and the
        surface tension; ``eval`` takes its W from here.

        The quartic's (1 - s^2)^2 / 2 is evaluated as 0.5 (1 - s^2) (1 - s^2)
        into two explicit arrays, in the operation order of the expression:
        the expression makes field-sized temporaries, whose fresh memory
        costs several times the arithmetic on a 257^2 field.
        """
        s = np.asarray(s, dtype=np.float64)
        if self.family == "poly":
            return np.polynomial.polynomial.polyval(s, self._poly_derivs[0])
        one_m = np.multiply(s, s, out=np.empty(s.shape))
        np.subtract(1.0, one_m, out=one_m)
        w = np.multiply(one_m, 0.5, out=np.empty(s.shape))
        w *= one_m
        return w

    def eval(self, s):
        """(W, W', W'') at s; accepts scalars or arrays, total on all of R."""
        s = np.asarray(s, dtype=np.float64)
        w = self.w(s)
        wp = self.wprime(s)
        if self.family == "quartic":
            wpp = 6.0 * s * s - 2.0
        else:
            cpp = self._poly_derivs[2]
            wpp = np.polynomial.polynomial.polyval(s, cpp) if cpp.size else np.zeros_like(s)
        if s.ndim == 0:
            return float(w), float(wp), float(wpp)
        return w, wp, wpp

    def wpp_max(self, bound: float = 1.1, samples: int = 4097) -> float:
        """sup of |W''| over [-bound, bound], by dense sampling."""
        s = np.linspace(-bound, bound, samples)
        return float(np.max(np.abs(self.eval(s)[2])))

    @cached_property
    def _psi_table(self) -> tuple[np.ndarray, np.ndarray]:
        """RK4 solution of psi' = sqrt(2W(psi)) on [-PSI_CUT, PSI_CUT]."""

        def f(p: float) -> float:
            return float(np.sqrt(max(2.0 * float(self.w(p)), 0.0)))

        m = int(round(PSI_CUT / _RK4_STEP))
        fwd = np.empty(m + 1)
        fwd[0] = self.gamma
        for sign in (1.0, -1.0):
            vals = np.empty(m + 1)
            vals[0] = self.gamma
            hstep = sign * _RK4_STEP
            p = self.gamma
            for i in range(m):
                k1 = f(p)
                k2 = f(p + 0.5 * hstep * k1)
                k3 = f(p + 0.5 * hstep * k2)
                k4 = f(p + hstep * k3)
                p = p + hstep / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
                p = min(max(p, -1.0), 1.0)
                vals[i + 1] = p
            if sign > 0:
                fwd = vals
            else:
                bwd = vals
        s_grid = np.linspace(-PSI_CUT, PSI_CUT, 2 * m + 1)
        psi = np.concatenate([bwd[::-1], fwd[1:]])
        return s_grid, psi


def profile_psi(w: DoubleWell, s):
    """Monotone interface profile: psi(0)=gamma, psi(+-inf)=+-1, truncated at +-10."""
    s_arr = np.asarray(s, dtype=np.float64)
    scalar = s_arr.ndim == 0
    s_arr = np.atleast_1d(s_arr)

    if w.family == "quartic":
        core = np.tanh(s_arr)
    else:
        s_grid, table = w._psi_table
        sc = np.clip(s_arr, -PSI_CUT, PSI_CUT)
        idx = np.clip(np.searchsorted(s_grid, sc, side="right") - 1, 0, len(s_grid) - 2)
        s0 = s_grid[idx]
        p0 = table[idx]
        p1 = table[idx + 1]
        m0 = np.sqrt(np.maximum(2.0 * w.w(p0), 0.0))
        m1 = np.sqrt(np.maximum(2.0 * w.w(p1), 0.0))
        t = (sc - s0) / _RK4_STEP
        h00 = (1 + 2 * t) * (1 - t) ** 2
        h10 = t * (1 - t) ** 2
        h01 = t * t * (3 - 2 * t)
        h11 = t * t * (t - 1)
        core = h00 * p0 + h10 * _RK4_STEP * m0 + h01 * p1 + h11 * _RK4_STEP * m1

    # C^2 blend to exactly +-1 on [8,10], constant beyond. core is a fresh
    # array and the two bands are disjoint, so the blend writes into it.
    out = core
    for sign in (1.0, -1.0):
        band = (sign * s_arr >= PSI_BLEND_START) & (sign * s_arr < PSI_CUT)
        if np.any(band):
            t = (sign * s_arr[band] - PSI_BLEND_START) / (PSI_CUT - PSI_BLEND_START)
            wgt = _smoothstep(t)
            out[band] = (1 - wgt) * core[band] + wgt * sign
        out[sign * s_arr >= PSI_CUT] = sign
    return float(out[0]) if scalar else out


@dataclass
class ConditionReport:
    """Outcome of one structural check; witness locates the failure."""

    passed: bool
    detail: str
    witness: float | None = None


@dataclass
class WellReport:
    condition_a: ConditionReport
    condition_b: ConditionReport
    condition_c: ConditionReport
    gamma: float

    @property
    def passed(self) -> bool:
        return self.condition_a.passed and self.condition_b.passed and self.condition_c.passed


def validate_conditions(w: DoubleWell, samples: int = 10_000) -> WellReport:
    """Check the well structure on a dense sample; never raises."""
    tol = 1e-12
    vals = [w.eval(s) for s in (-1.0, 1.0)]
    bad_a = [
        (s, v)
        for s, v in zip((-1.0, 1.0), vals)
        if abs(v[0]) > tol or abs(v[1]) > tol
    ]
    ca = ConditionReport(
        passed=not bad_a,
        detail="W(+-1)=W'(+-1)=0"
        if not bad_a
        else f"W({bad_a[0][0]})={bad_a[0][1][0]:.3e}, W'({bad_a[0][0]})={bad_a[0][1][1]:.3e}",
        witness=None if not bad_a else bad_a[0][0],
    )

    gamma = w.gamma
    s = np.linspace(-1.0, 1.0, samples)
    wp = w.eval(s)[1]
    margin = 2.0 / samples
    left_bad = s[(s < gamma - margin) & (s > -1.0) & (wp <= 0)]
    right_bad = s[(s > gamma + margin) & (s < 1.0) & (wp >= 0)]
    if left_bad.size or right_bad.size:
        wit = float(left_bad[0]) if left_bad.size else float(right_bad[0])
        cb = ConditionReport(False, f"W' has the wrong sign at s={wit:.6g}", wit)
    else:
        cb = ConditionReport(True, f"W'>0 on (-1,{gamma:.3g}), W'<0 on ({gamma:.3g},1)")

    s = np.linspace(w.alpha, 2.0, samples)
    s = np.concatenate([-s[::-1], s])
    wpp = w.eval(s)[2]
    if np.all(wpp >= w.kappa):
        cc = ConditionReport(True, f"W'' >= {w.kappa:g} for |s| >= {w.alpha:g}")
    else:
        worst = float(s[np.argmin(wpp)])
        cc = ConditionReport(
            False,
            f"W''({worst:.6g}) = {w.eval(worst)[2]:.6g} < kappa={w.kappa:g}",
            witness=worst,
        )
    return WellReport(ca, cb, cc, gamma)


def surface_tension(w: DoubleWell) -> float:
    """sigma = integral of sqrt(2W) over [-1,1], relative error <= 1e-8."""
    from scipy.integrate import quad  # local, so importing actx does not load scipy.integrate

    val, err = quad(lambda s: np.sqrt(max(2.0 * float(w.w(s)), 0.0)), -1.0, 1.0, epsabs=0.0, epsrel=1e-10, limit=200)
    if val <= 0.0 or err > 1e-8 * val:
        raise PotentialError(f"surface tension quadrature did not converge (value {val}, err {err})")
    return float(val)
