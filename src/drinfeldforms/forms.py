"""Truncated u-expansions of the classical forms and their t-deformations.

FormCatalog fixes a field F_q and a working precision and caches:

  g       weight q-1 form,  1 - (theta**q - theta) * sum u_c**(q-1)
  h       weight q+1 form,  sum c**q u_c = u + ...
  delta   discriminant,     -h**(q-1)
  delta_t delta (t - theta**q), the tau**2 coefficient of the recurrence
          below (and of the operators L1 and L2 in taurec)
  e       false Eisenstein, sum c u_c
  d2      the unit-root deformation: the unique series with constant
          term 1 solving X = g X^(1) + delta_t X^(2),
          relaxed: only reachable exponents are solved
  ee      deformation of e with expansion sum chi_t(c) u_c

plus the families f_{l,nu} = sum c**(l q**nu) u_c**l (1 <= l <= q) and
f_s = sum c**(1 + s(q-1)) u_c.  Each sum runs over the monic c whose
term valuation stays below the precision, so truncations are exact.

Every A-expansion sum w(c) u_c**l has two twins with the same arguments
(power, coefficient_of=None, degrees=None; None is the weight 1).
a_expansion, one u_c per monic c, is the definition and the brute-force
oracle, for any weight and power.  linear_a_expansion makes one closed-form
series.coset_sum per degree, for a weight F_q-linear in c at power 1 or
the weight 1 at any power l <= q (the Goss polynomials G_k(X) = X**k for
k <= q); it sums g, h, e, ee and f_{1,nu}, on one chain of denominators per
degree, which depends on neither the weight nor the power.  Every other
f_{l,nu} is pow(f_{1,nu}, l, prec) (a Frobenius image at l = q, char p),
and f_s is f_{1,nu} when 1 + s(q-1) = q**nu.  a_expansion computes the
other f_s and the other side of the checks; its u_c**l with 1 < l < q come
from sparse steps (see u_c_power).  Every object the catalog builds (forms,
the monic of each degree, each u_c**l, each chain) sits in one cache.

All comparisons are reported with the first differing u-exponent, never
asserted, so the same machinery drives both the verified identities and
the open-ended experiments.
"""

from .errors import PrecisionError
from .polynomials import BiPoly, UniPoly, enumerate_monic
from .series import (USeries, _relaxed_solve, coset_denominators, coset_sum, u_c_expansion,
                     u_c_power)


def t_minus_theta_pow(field, k):
    """The coefficient t - theta**k."""
    return BiPoly.from_pairs(field, [((0, 1), 1), ((k, 0), field.neg(1))])


def bracket_twisted(field, n, twist=0):
    """(theta**(q**n) - theta)**(q**twist); zero when n == 0."""
    q = field.q
    return BiPoly.from_pairs(field, [((q ** (n + twist), 0), 1),
                                     ((q ** twist, 0), field.neg(1))])


def power_weight(k):
    """The weight c -> c**k; F_q-linear in c when k is a power of q."""
    return lambda c: (c ** k).to_bipoly()


def compare_series(lhs, rhs):
    """Equality report for two series, to the shared provable precision."""
    diff = lhs.first_difference(rhs)
    return {
        "equal": diff is None,
        "first_difference": diff,
        "compared_precision": min(lhs.prec, rhs.prec),
    }


class FormCatalog:
    """Shared cache of u-expansions over one field at one precision."""

    def __init__(self, field, prec):
        if prec < 1:
            raise PrecisionError("catalog precision must be >= 1")
        self.field = field
        self.prec = int(prec)
        self._cache = {}

    # -- summation helpers -----------------------------------------------------

    def monic(self, d):
        return self._cached(("monic", d), lambda: enumerate_monic(self.field, d))

    def summation_degrees(self, power):
        """Degrees d with power * q**d < prec: exactly the terms that matter."""
        out, d = [], 0
        while power * self.field.q ** d < self.prec:
            out.append(d)
            d += 1
        return out

    def _reached_degrees(self, power, name):
        """summation_degrees(power); none would make a check certify nothing."""
        degrees = self.summation_degrees(power)
        if not degrees:
            raise PrecisionError(f"precision {self.prec} reaches no term of {name}")
        return degrees

    def u_c(self, c, power=1):
        def build():
            if power == 1:
                return u_c_expansion(c, self.prec)
            if 1 < power < self.field.q:
                return u_c_power(self.u_c(c), c, power)
            return pow(self.u_c(c), power, self.prec)
        return self._cached(("u_c", c.coeffs, power), build)

    def a_expansion(self, power, coefficient_of=None, degrees=None):
        """sum over monic c of coefficient_of(c) * u_c**power, modulo u**prec;
        coefficient_of None is the weight 1.

        The sum runs over the monic of the given degrees, by default every
        summation degree.  Each u-coefficient is one BiPoly.sum_of_products
        over the monic c."""
        one = BiPoly.one(self.field)
        pairs = {}
        for d in self.summation_degrees(power) if degrees is None else degrees:
            for c in self.monic(d):
                coef = one if coefficient_of is None else coefficient_of(c)
                for n, a in self.u_c(c, power).coeffs.items():
                    pairs.setdefault(n, []).append((coef, a))
        return USeries(self.field, self.prec,
                       {n: BiPoly.sum_of_products(self.field, ps) for n, ps in pairs.items()})

    def linear_a_expansion(self, power, coefficient_of=None, degrees=None):
        """a_expansion(power, coefficient_of, degrees) in closed form: one
        series.coset_sum per degree, on that degree's denominator chain.

        coefficient_of must be F_q-linear in c: it is only evaluated at the
        theta**k, k <= d.  None is the weight 1, and then power may be any
        1 <= power <= q: the sum of the u_c**power of one degree is the
        power of the sum of its u_c.  A weighted sum needs power 1."""
        field, prec, q = self.field, self.prec, self.field.q
        if coefficient_of is None:
            if not 1 <= power <= q:
                raise ValueError(f"power must satisfy 1 <= power <= q, got {power}")
        elif power != 1:
            raise ValueError("a weighted closed-form sum needs power 1")
        total = USeries.zero(field, prec)
        for d in self.summation_degrees(power) if degrees is None else degrees:
            if power * q ** d >= prec:
                continue  # every u_c**power of degree d is 0 modulo u**prec
            chain = self._cached(("chain", d),
                                 lambda: coset_denominators(field, d, prec - q ** d))
            if coefficient_of is None:
                weights = [BiPoly.zero(field)] * d + [BiPoly.one(field)]
            else:
                weights = [coefficient_of(UniPoly(field, [0] * k + [1])) for k in range(d + 1)]
            total = total + pow(coset_sum(chain, weights), power, prec)
        return total

    # -- the catalog -------------------------------------------------------------

    def _cached(self, name, build):
        if name not in self._cache:
            self._cache[name] = build()
        return self._cache[name]

    @property
    def g(self):
        def build():
            s = self.linear_a_expansion(self.field.q - 1)
            return USeries.one(self.field, self.prec) - s.scale(bracket_twisted(self.field, 1))
        return self._cached("g", build)

    @property
    def h(self):
        """sum c**q u_c, which is f_{1, 1}."""
        return self.f_l_nu(1, 1)

    @property
    def delta(self):
        q = self.field.q
        return self._cached(
            "delta", lambda: -pow(self.h, q - 1, self.prec))

    @property
    def delta_t(self):
        """delta (t - theta**q)."""
        return self._cached(
            "delta_t", lambda: self.delta.scale(t_minus_theta_pow(self.field, self.field.q)))

    @property
    def e(self):
        """Gekeler's false Eisenstein series sum c u_c, which is f_{1, 0}."""
        return self.f_l_nu(1, 0)

    @property
    def ee(self):
        """The t-deformation sum chi_t(c) u_c."""
        return self._cached("ee", lambda: self.linear_a_expansion(1, UniPoly.chi_t))

    @property
    def d2(self):
        return self._cached("d2", self._d2_recurrence)

    def _d2_recurrence(self):
        """Solve X = g X^(1) + D X^(2), D = delta_t, from x_0 = 1.

        Comparing coefficients of u**n gives
            x_n = sum_k g_(n - kq) tau(x_k) + sum_k D_(n - kq**2) tau**2(x_k),
        and for n >= 1 every x_k on the right has k <= n / q < n, so one
        relaxed solve in increasing n gives it: each nonzero x_k is twisted
        once and pushed to the exponents kq + m and kq**2 + m it reaches.
        """
        field, prec = self.field, self.prec
        terms = [(1, sorted(self.g.coeffs.items())), (2, sorted(self.delta_t.coeffs.items()))]
        return USeries._raw(field, prec, _relaxed_solve(
            field, prec, {0: BiPoly.one(field)}, terms))

    # -- A-expansion families ------------------------------------------------------

    def f_l_nu(self, l, nu):
        """f_{l, nu} = sum c**(l q**nu) u_c**l for 1 <= l <= q, nu >= 0.

        f_{1, nu} is summed in closed form and f_{l, nu} = f_{1, nu}**l
        (f_{q, nu} is its Frobenius image, char p); check_f_power compares
        each with the brute-force sum."""
        q = self.field.q
        if not 1 <= l <= q:
            raise ValueError(f"l must satisfy 1 <= l <= q, got {l}")
        if nu < 0:
            raise ValueError("nu must be >= 0")

        def build():
            if l == 1:
                return self.linear_a_expansion(1, power_weight(q ** nu))
            return pow(self.f_l_nu(1, nu), l, self.prec)
        return self._cached(("f", l, nu), build)

    def f_s(self, s):
        """f_s = sum c**(1 + s(q-1)) u_c for s >= 1; f_{1, nu} when
        1 + s(q-1) = q**nu."""
        if s < 1:
            raise ValueError("s must be >= 1")
        q = self.field.q
        exp = 1 + s * (q - 1)
        nu = 0
        while q ** nu < exp:
            nu += 1
        if q ** nu == exp:
            return self.f_l_nu(1, nu)
        return self._cached(("fs", s), lambda: self.a_expansion(1, power_weight(exp)))

    # -- identity reports ------------------------------------------------------------

    def check_ee_power(self, l):
        """Compare ee**l with sum chi_t(c)**l u_c**l; equality is a theorem
        only for 1 <= l <= q, so callers beyond that range get a report."""
        if l < 1:
            raise ValueError("l must be >= 1")
        self._reached_degrees(l, f"EE**{l}")
        lhs = pow(self.ee, l, self.prec)
        rhs = self.a_expansion(l, lambda c: c.chi_t() ** l)
        return compare_series(lhs, rhs)

    def check_coset_sums(self, nus=(1, 2)):
        """Per summation degree, linear_a_expansion against the brute-force
        a_expansion over the same degree, for g (the unweighted
        sum u_c**(q-1)), h, e, ee and f_{1, nu} for each nu in nus.

        One row per form; a mismatch names the first degree and the first
        differing u-exponent there, and so does a coset sum known to less
        than the catalog precision (first_difference None).  A precision
        that reaches no term of some form certifies nothing and raises."""
        q = self.field.q
        if any(nu < 1 for nu in nus):
            raise ValueError("nu must be >= 1")
        sums = [({"form": "g"}, q - 1, None), ({"form": "h"}, 1, power_weight(q)),
                ({"form": "E"}, 1, power_weight(1)), ({"form": "EE"}, 1, UniPoly.chi_t)]
        sums += [({"form": "f", "l": 1, "nu": nu}, 1, power_weight(q ** nu)) for nu in nus]
        rows = []
        for labels, power, weight in sums:
            degrees = self._reached_degrees(power, labels["form"])
            row = {**labels, "degrees": len(degrees), "degree": None,
                   "first_difference": None, "pass": True}
            for d in degrees:
                closed = self.linear_a_expansion(power, weight, [d])
                brute = self.a_expansion(power, weight, [d])
                diff = closed.first_difference(brute)
                if diff is not None or closed.prec != self.prec:
                    row.update({"degree": d, "first_difference": diff, "pass": False})
                    break
            rows.append(row)
        return rows

    def check_ee_h_tau_d2(self):
        """Compare ee with Pellarin's h * tau(d2); it passes when they agree
        to the full catalog precision."""
        self._reached_degrees(1, "EE")
        report = compare_series(self.ee, self.h * self.d2.tau(1))
        report["pass"] = report["equal"] and report["compared_precision"] == self.prec
        return report

    def check_f_power(self, l, nu):
        """Compare f_l_nu(l, nu), which is f_{1, nu}**l, with the brute-force
        sum c**(l q**nu) u_c**l (a theorem for 1 <= l <= q)."""
        q = self.field.q
        if not 1 <= l <= q:
            raise ValueError(f"l must satisfy 1 <= l <= q, got {l}")
        if nu < 1:
            raise ValueError("nu must be >= 1")
        self._reached_degrees(l, f"f_{{{l}, {nu}}}")
        return compare_series(self.f_l_nu(l, nu), self.a_expansion(l, power_weight(l * q ** nu)))

    def resolve_recursive(self, nu):
        """Test the candidate recursions
            ( g**q f_{i, nu-1}**q - B f_{i, nu-2}**(q*q) ) / h**(q-1)
        against the directly summed f_{1, nu}, for inner index i in {1, 2}
        and bracket B among the Frobenius twists of theta**(q**(nu-2)) - theta.
        """
        if nu < 2:
            raise ValueError("nu must be >= 2")
        field, q = self.field, self.field.q
        oracle = self.f_l_nu(1, nu)
        gq = pow(self.g, q, self.prec)
        inv = None
        candidates = []
        for inner in (1, 2):
            gq_fa = gq * pow(self.f_l_nu(inner, nu - 1), q, self.prec)
            fb = pow(self.f_l_nu(inner, nu - 2), q * q, self.prec)
            # h = u * unit, so x / h**(q-1) is (x * inv).shift(1 - q) with
            # inv = 1 / unit**(q-1), which both parts meet once for all three
            # brackets.  val(gq_fa) >= q and val(fb) >= q**2, so the
            # products keep precision prec.
            parts = None
            for twist in (2, 1, 0):
                bracket = bracket_twisted(field, nu - 2, twist)
                entry = {"inner": inner, "bracket_index": nu - 2,
                         "bracket_twist": twist}
                try:
                    if parts is None:
                        if inv is None:
                            unit = self.h.shift(-1) ** (q - 1)
                            inv = USeries.one(field, unit.prec) / unit
                        parts = gq_fa * inv, fb * inv
                    rhs = (parts[0] - parts[1].scale(bracket)).shift(1 - q)
                except (ValueError, PrecisionError) as exc:
                    entry.update({"equal": False, "first_difference": None,
                                  "division_error": str(exc)})
                else:
                    entry.update(compare_series(rhs, oracle))
                candidates.append(entry)
        matching = [i for i, c in enumerate(candidates) if c["equal"]]
        return {"candidates": candidates, "matching": matching}

    def conjecture_fs(self, s):
        """Compare f_s * d2 with sum chi_t(c) c**(s(q-1)) u_c (report only)."""
        if s < 1:
            raise ValueError("s must be >= 1")
        exp = s * (self.field.q - 1)
        lhs = (self.f_s(s) * self.d2).truncate(self.prec)
        rhs = self.a_expansion(
            1, lambda c: c.chi_t() * (c ** exp).to_bipoly())
        return compare_series(lhs, rhs)
