//! Multivariate integer polynomials over a procedure's entry slots.
//!
//! The *polynomial parameter jump function* represents each actual
//! parameter as a polynomial over the values the caller's formals (and the
//! globals) had **on entry** to the caller. This module is the algebra
//! behind it: exact, overflow-checked polynomials with variables drawn
//! from entry-slot indices.
//!
//! Division and remainder are only represented when they are *exact for
//! every integer assignment* — i.e. when the divisor is a nonzero constant
//! that divides every coefficient (then truncating division coincides with
//! rational division). Everything else falls out of the polynomial world
//! and the symbolic evaluator maps it to ⊥.
//!
//! Sizes are capped ([`Poly::MAX_TERMS`], [`Poly::MAX_DEGREE`]) so that
//! adversarial programs cannot blow up jump-function construction; capped
//! results are reported as `None` (not representable).
//!
//! Almost every value symbolic evaluation finds is a constant or `c·x + k`
//! in one variable, so those two shapes are stored inline and cost no
//! heap allocation; only wider polynomials hold a term map. Each value has
//! exactly one representation, which keeps `==` and `Hash` exact.

use std::collections::BTreeMap;
use std::fmt;

/// A variable of the polynomial ring: the index of an entry slot
/// (formal `i`, or `arity + j` for the `j`-th scalar global).
pub type PolyVar = u32;

/// A monomial: variables with positive exponents, sorted by variable.
type Monomial = Vec<(PolyVar, u32)>;

/// A multivariate polynomial with `i64` coefficients.
///
/// The zero polynomial has no terms. Construction and arithmetic are
/// overflow-checked: any operation whose result would overflow `i64`
/// coefficients, exceed [`Poly::MAX_TERMS`] terms, or exceed
/// [`Poly::MAX_DEGREE`] total degree returns `None`.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Poly {
    repr: Repr,
}

/// The canonical representation: a polynomial that fits `Const` or
/// `Affine` is never stored as `Terms`.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Repr {
    /// A constant, zero included.
    Const(i64),
    /// `coeff·x + off` with `coeff != 0`. `mono` is the monomial `(x, 1)`,
    /// kept whole so [`Poly::terms_raw`] can lend it as a slice.
    Affine {
        mono: (PolyVar, u32),
        coeff: i64,
        off: i64,
    },
    /// Two or more variables, or degree two and up. Invariant: no zero
    /// coefficients.
    Terms(BTreeMap<Monomial, i64>),
}

impl Default for Repr {
    fn default() -> Repr {
        Repr::Const(0)
    }
}

/// One term as [`Poly::terms_raw`] yields it.
type Term<'a> = (&'a [(PolyVar, u32)], i64);

impl Poly {
    /// Maximum number of terms a polynomial may hold.
    pub const MAX_TERMS: usize = 64;
    /// Maximum total degree of any monomial.
    pub const MAX_DEGREE: u32 = 8;

    /// The zero polynomial.
    pub fn zero() -> Poly {
        Poly::default()
    }

    /// The constant polynomial `c`.
    pub fn constant(c: i64) -> Poly {
        Poly {
            repr: Repr::Const(c),
        }
    }

    /// The polynomial consisting of the single variable `v`.
    pub fn var(v: PolyVar) -> Poly {
        Poly::affine(v, 1, 0)
    }

    /// `coeff·v + off`; `coeff` must be nonzero.
    fn affine(v: PolyVar, coeff: i64, off: i64) -> Poly {
        debug_assert!(coeff != 0, "affine polynomial with a zero coefficient");
        Poly {
            repr: Repr::Affine {
                mono: (v, 1),
                coeff,
                off,
            },
        }
    }

    /// `coeff·v + off`, or the constant `off` when `coeff` is zero.
    fn linear(v: PolyVar, coeff: i64, off: i64) -> Poly {
        if coeff == 0 {
            Poly::constant(off)
        } else {
            Poly::affine(v, coeff, off)
        }
    }

    /// The canonical polynomial holding `terms`.
    fn from_map(terms: BTreeMap<Monomial, i64>) -> Poly {
        let linear = |m: &Monomial| m.len() == 1 && m[0].1 == 1;
        let small = {
            let mut it = terms.iter();
            match (terms.len(), it.next(), it.next()) {
                (0, ..) => Some(Poly::zero()),
                (1, Some((m, &c)), _) if m.is_empty() => Some(Poly::constant(c)),
                (1, Some((m, &c)), _) if linear(m) => Some(Poly::affine(m[0].0, c, 0)),
                (2, Some((k, &off)), Some((m, &c))) if k.is_empty() && linear(m) => {
                    Some(Poly::affine(m[0].0, c, off))
                }
                _ => None,
            }
        };
        small.unwrap_or(Poly {
            repr: Repr::Terms(terms),
        })
    }

    /// The terms as a map, for the general (multi-variable) algorithms.
    fn to_map(&self) -> BTreeMap<Monomial, i64> {
        match &self.repr {
            Repr::Terms(t) => t.clone(),
            _ => self.terms_iter().map(|(m, c)| (m.to_vec(), c)).collect(),
        }
    }

    /// The terms in canonical order, from either end.
    fn terms_iter(&self) -> impl DoubleEndedIterator<Item = Term<'_>> {
        let (small, map): ([Option<Term<'_>>; 2], _) = match &self.repr {
            Repr::Const(c) => ([(*c != 0).then_some((&[][..], *c)), None], None),
            Repr::Affine { mono, coeff, off } => (
                [
                    (*off != 0).then_some((&[][..], *off)),
                    Some((std::slice::from_ref(mono), *coeff)),
                ],
                None,
            ),
            Repr::Terms(t) => ([None, None], Some(t)),
        };
        small
            .into_iter()
            .flatten()
            .chain(map.into_iter().flatten().map(|(m, &c)| (m.as_slice(), c)))
    }

    /// The constant value, if the polynomial is constant.
    pub fn as_const(&self) -> Option<i64> {
        match self.repr {
            Repr::Const(c) => Some(c),
            _ => None,
        }
    }

    /// `Some(v)` iff the polynomial is exactly the single variable `v`
    /// (coefficient 1, no constant term) — the *pass-through* shape.
    pub fn as_var(&self) -> Option<PolyVar> {
        match self.repr {
            Repr::Affine {
                mono: (v, _),
                coeff: 1,
                off: 0,
            } => Some(v),
            _ => None,
        }
    }

    /// The set of variables occurring in the polynomial — the jump
    /// function's *support*, in ascending order.
    pub fn support(&self) -> Vec<PolyVar> {
        match &self.repr {
            Repr::Const(_) => Vec::new(),
            Repr::Affine { mono, .. } => vec![mono.0],
            Repr::Terms(t) => {
                let mut vars: Vec<PolyVar> =
                    t.keys().flat_map(|m| m.iter().map(|&(v, _)| v)).collect();
                vars.sort_unstable();
                vars.dedup();
                vars
            }
        }
    }

    /// Total degree of the polynomial (0 for constants).
    pub fn degree(&self) -> u32 {
        match &self.repr {
            Repr::Const(_) => 0,
            Repr::Affine { .. } => 1,
            Repr::Terms(t) => t
                .keys()
                .map(|m| m.iter().map(|&(_, e)| e).sum())
                .max()
                .unwrap_or(0),
        }
    }

    /// Number of terms.
    pub fn n_terms(&self) -> usize {
        match &self.repr {
            Repr::Const(c) => usize::from(*c != 0),
            Repr::Affine { off, .. } => 1 + usize::from(*off != 0),
            Repr::Terms(t) => t.len(),
        }
    }

    /// Whether the polynomial's shape is within the given caps — used by
    /// analysis budgets tighter than the intrinsic [`Poly::MAX_TERMS`] /
    /// [`Poly::MAX_DEGREE`] ceilings. Support is counted as distinct
    /// variables.
    pub fn fits_within(&self, max_terms: usize, max_degree: u32, max_support: usize) -> bool {
        let support = match &self.repr {
            Repr::Const(_) => 0,
            Repr::Affine { .. } => 1,
            Repr::Terms(_) => self.support().len(),
        };
        self.n_terms() <= max_terms && self.degree() <= max_degree && support <= max_support
    }

    /// The raw term list `(monomial, coefficient)` in the canonical
    /// (sorted) order — the stable shape used by the serve summary store.
    /// Monomials are `(variable, exponent)` pairs sorted by variable.
    pub fn terms_raw(&self) -> impl Iterator<Item = (&[(PolyVar, u32)], i64)> {
        self.terms_iter()
    }

    /// Rebuilds a polynomial from raw terms, enforcing every invariant
    /// [`Poly::terms_raw`] guarantees: monomials strictly sorted by
    /// variable with positive exponents, no zero coefficients, no
    /// duplicate monomials, and the term/degree caps. Returns `None` for
    /// any violation — deserializers map that to a corrupt-input error
    /// rather than admitting an invariant-breaking value.
    pub fn from_terms_raw(terms: Vec<(Vec<(PolyVar, u32)>, i64)>) -> Option<Poly> {
        if terms.len() > Self::MAX_TERMS {
            return None;
        }
        let mut out = BTreeMap::new();
        for (m, c) in terms {
            if c == 0 {
                return None;
            }
            let mut degree: u32 = 0;
            for pair in m.windows(2) {
                if pair[0].0 >= pair[1].0 {
                    return None;
                }
            }
            for &(_, e) in &m {
                if e == 0 {
                    return None;
                }
                degree = degree.checked_add(e)?;
            }
            if degree > Self::MAX_DEGREE {
                return None;
            }
            if out.insert(m, c).is_some() {
                return None;
            }
        }
        Some(Poly::from_map(out))
    }

    /// Checked addition.
    #[must_use]
    pub fn add(&self, other: &Poly) -> Option<Poly> {
        use Repr::{Affine, Const};
        match (&self.repr, &other.repr) {
            (Const(a), Const(b)) => Some(Poly::constant(a.checked_add(*b)?)),
            (Const(k), &Affine { mono, coeff, off }) | (&Affine { mono, coeff, off }, Const(k)) => {
                Some(Poly::affine(mono.0, coeff, off.checked_add(*k)?))
            }
            (
                &Affine {
                    mono: (x, _),
                    coeff: ca,
                    off: ka,
                },
                &Affine {
                    mono: (y, _),
                    coeff: cb,
                    off: kb,
                },
            ) if x == y => Some(Poly::linear(x, ca.checked_add(cb)?, ka.checked_add(kb)?)),
            _ => {
                let mut out = self.to_map();
                for (m, c) in other.terms_iter() {
                    insert_term(&mut out, m, c)?;
                }
                Some(Poly::from_map(out))
            }
        }
    }

    /// Checked subtraction.
    #[must_use]
    pub fn sub(&self, other: &Poly) -> Option<Poly> {
        match other.repr {
            Repr::Terms(_) => {
                let mut out = self.to_map();
                for (m, c) in other.terms_iter() {
                    insert_term(&mut out, m, c.checked_neg()?)?;
                }
                Some(Poly::from_map(out))
            }
            _ => self.add(&other.neg()?),
        }
    }

    /// Checked negation.
    #[must_use]
    pub fn neg(&self) -> Option<Poly> {
        match self.repr {
            Repr::Const(c) => Some(Poly::constant(c.checked_neg()?)),
            Repr::Affine {
                mono: (x, _),
                coeff,
                off,
            } => Some(Poly::affine(x, coeff.checked_neg()?, off.checked_neg()?)),
            Repr::Terms(_) => Poly::zero().sub(self),
        }
    }

    /// Checked multiplication (respecting the degree/term caps).
    #[must_use]
    pub fn mul(&self, other: &Poly) -> Option<Poly> {
        use Repr::{Affine, Const};
        match (&self.repr, &other.repr) {
            (Const(0), _) | (_, Const(0)) => Some(Poly::zero()),
            (Const(a), Const(b)) => Some(Poly::constant(a.checked_mul(*b)?)),
            (Const(k), &Affine { mono, coeff, off }) | (&Affine { mono, coeff, off }, Const(k)) => {
                Some(Poly::affine(
                    mono.0,
                    coeff.checked_mul(*k)?,
                    off.checked_mul(*k)?,
                ))
            }
            _ => {
                let mut out = BTreeMap::new();
                for (ma, ca) in self.terms_iter() {
                    for (mb, cb) in other.terms_iter() {
                        let c = ca.checked_mul(cb)?;
                        let m = mul_monomials(ma, mb)?;
                        insert_term(&mut out, &m, c)?;
                    }
                }
                Some(Poly::from_map(out))
            }
        }
    }

    /// Exact division by a constant: defined only when `d != 0` divides
    /// every coefficient, in which case truncating integer division of the
    /// value equals the divided polynomial for **every** assignment.
    #[must_use]
    pub fn div_exact(&self, d: i64) -> Option<Poly> {
        if d == 0 {
            return None;
        }
        // `i64::MIN / -1` overflows: not representable, like any other
        // overflow.
        let div = |c: i64| {
            if c.wrapping_rem(d) == 0 {
                c.checked_div(d)
            } else {
                None
            }
        };
        match &self.repr {
            Repr::Const(c) => Some(Poly::constant(div(*c)?)),
            &Repr::Affine { mono, coeff, off } => {
                Some(Poly::affine(mono.0, div(coeff)?, div(off)?))
            }
            Repr::Terms(t) => {
                let mut out = BTreeMap::new();
                for (m, &c) in t {
                    out.insert(m.clone(), div(c)?);
                }
                Some(Poly::from_map(out))
            }
        }
    }

    /// Whether every coefficient is divisible by `d` (so `self % d == 0`
    /// identically). Requires `d != 0`.
    pub fn divisible_by(&self, d: i64) -> bool {
        d != 0 && self.terms_iter().all(|(_, c)| c.wrapping_rem(d) == 0)
    }

    /// Evaluates the polynomial; `env[v]` supplies variable `v`.
    ///
    /// Returns `None` on arithmetic overflow or when a variable is out of
    /// range of `env`.
    pub fn eval(&self, env: &[i64]) -> Option<i64> {
        match self.repr {
            Repr::Const(c) => Some(c),
            Repr::Affine {
                mono: (x, _),
                coeff,
                off,
            } => off.checked_add(coeff.checked_mul(*env.get(x as usize)?)?),
            Repr::Terms(_) => {
                let mut total: i64 = 0;
                for (m, c) in self.terms_iter() {
                    let mut term = c;
                    for &(v, e) in m {
                        let x = *env.get(v as usize)?;
                        for _ in 0..e {
                            term = term.checked_mul(x)?;
                        }
                    }
                    total = total.checked_add(term)?;
                }
                Some(total)
            }
        }
    }

    /// Evaluates over the constant lattice: `None` if any support variable
    /// lacks a constant in `env` (caller maps that to ⊤/⊥ as appropriate).
    pub fn eval_partial(&self, env: impl Fn(PolyVar) -> Option<i64>) -> Option<i64> {
        match self.repr {
            Repr::Const(c) => Some(c),
            Repr::Affine {
                mono: (x, _),
                coeff,
                off,
            } => off.checked_add(coeff.checked_mul(env(x)?)?),
            Repr::Terms(_) => {
                let mut values = Vec::new();
                let support = self.support();
                let max = support.iter().copied().max().unwrap_or(0);
                values.resize(max as usize + 1, 0);
                for v in support {
                    values[v as usize] = env(v)?;
                }
                self.eval(&values)
            }
        }
    }

    /// Substitutes polynomials for variables: variable `v` becomes
    /// `subst(v)`. Used to compose return jump functions with the actual
    /// argument polynomials at a call site.
    ///
    /// Returns `None` if any substitution is unavailable or a cap/overflow
    /// is hit.
    pub fn substitute(&self, subst: impl Fn(PolyVar) -> Option<Poly>) -> Option<Poly> {
        let mut out = Poly::zero();
        for (m, c) in self.terms_iter() {
            let mut term = Poly::constant(c);
            for &(v, e) in m {
                let p = subst(v)?;
                for _ in 0..e {
                    term = term.mul(&p)?;
                }
            }
            out = out.add(&term)?;
        }
        Some(out)
    }
}

/// Adds `c·m` into `terms`, dropping a coefficient that cancels to zero;
/// `None` on coefficient overflow or past [`Poly::MAX_TERMS`].
fn insert_term(terms: &mut BTreeMap<Monomial, i64>, m: &[(PolyVar, u32)], c: i64) -> Option<()> {
    if c == 0 {
        return Some(());
    }
    match terms.get_mut(m) {
        Some(existing) => {
            *existing = existing.checked_add(c)?;
            if *existing == 0 {
                terms.remove(m);
            }
        }
        None => {
            terms.insert(m.to_vec(), c);
        }
    }
    if terms.len() > Poly::MAX_TERMS {
        return None;
    }
    Some(())
}

fn mul_monomials(a: &[(PolyVar, u32)], b: &[(PolyVar, u32)]) -> Option<Monomial> {
    let mut out: Monomial = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        let next = match (a.get(i), b.get(j)) {
            (Some(&(va, ea)), Some(&(vb, _))) if va < vb => {
                i += 1;
                (va, ea)
            }
            (Some(&(va, _)), Some(&(vb, eb))) if vb < va => {
                j += 1;
                (vb, eb)
            }
            (Some(&(va, ea)), Some(&(_, eb))) => {
                i += 1;
                j += 1;
                (va, ea.checked_add(eb)?)
            }
            (Some(&t), None) => {
                i += 1;
                t
            }
            (None, Some(&t)) => {
                j += 1;
                t
            }
            (None, None) => unreachable!("loop condition"),
        };
        out.push(next);
    }
    let total: u32 = out.iter().map(|&(_, e)| e).sum();
    if total > Poly::MAX_DEGREE {
        None
    } else {
        Some(out)
    }
}

/// Prints the term map, the same for every representation.
impl fmt::Debug for Poly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Terms<'a>(&'a Poly);
        impl fmt::Debug for Terms<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map().entries(self.0.terms_iter()).finish()
            }
        }
        f.debug_struct("Poly").field("terms", &Terms(self)).finish()
    }
}

impl fmt::Display for Poly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.n_terms() == 0 {
            return write!(f, "0");
        }
        let mut first = true;
        for (m, c) in self.terms_iter().rev() {
            if first {
                if c < 0 {
                    write!(f, "-")?;
                }
                first = false;
            } else if c < 0 {
                write!(f, " - ")?;
            } else {
                write!(f, " + ")?;
            }
            let mag = c.unsigned_abs();
            if m.is_empty() {
                write!(f, "{mag}")?;
            } else {
                if mag != 1 {
                    write!(f, "{mag}*")?;
                }
                for (k, &(v, e)) in m.iter().enumerate() {
                    if k > 0 {
                        write!(f, "*")?;
                    }
                    if e == 1 {
                        write!(f, "x{v}")?;
                    } else {
                        write!(f, "x{v}^{e}")?;
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x() -> Poly {
        Poly::var(0)
    }

    fn y() -> Poly {
        Poly::var(1)
    }

    #[test]
    fn constants_and_vars() {
        assert_eq!(Poly::constant(5).as_const(), Some(5));
        assert_eq!(Poly::constant(0), Poly::zero());
        assert_eq!(Poly::zero().as_const(), Some(0));
        assert_eq!(x().as_var(), Some(0));
        assert_eq!(Poly::constant(5).as_var(), None);
        assert_eq!(x().mul(&Poly::constant(2)).unwrap().as_var(), None);
    }

    #[test]
    fn ring_identities() {
        // (x + y)^2 == x^2 + 2xy + y^2
        let lhs = x().add(&y()).unwrap();
        let lhs = lhs.mul(&lhs.clone()).unwrap();
        let rhs = x()
            .mul(&x())
            .unwrap()
            .add(&x().mul(&y()).unwrap().mul(&Poly::constant(2)).unwrap())
            .unwrap()
            .add(&y().mul(&y()).unwrap())
            .unwrap();
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn add_cancels_to_zero() {
        let p = x().mul(&Poly::constant(3)).unwrap();
        let q = p.neg().unwrap();
        assert_eq!(p.add(&q).unwrap(), Poly::zero());
    }

    #[test]
    fn eval_matches_algebra() {
        // p = 2x^2 - 3y + 7
        let p = x()
            .mul(&x())
            .unwrap()
            .mul(&Poly::constant(2))
            .unwrap()
            .sub(&y().mul(&Poly::constant(3)).unwrap())
            .unwrap()
            .add(&Poly::constant(7))
            .unwrap();
        assert_eq!(p.eval(&[3, 5]), Some(2 * 9 - 15 + 7));
        assert_eq!(p.eval(&[0, 0]), Some(7));
        assert_eq!(p.support(), vec![0, 1]);
        assert_eq!(p.degree(), 2);
    }

    #[test]
    fn eval_detects_overflow() {
        let p = Poly::constant(i64::MAX).mul(&x()).unwrap();
        assert_eq!(p.eval(&[2]), None);
        assert_eq!(p.eval(&[1]), Some(i64::MAX));
    }

    #[test]
    fn div_exact_only_when_all_coefficients_divide() {
        let p = x()
            .mul(&Poly::constant(4))
            .unwrap()
            .add(&Poly::constant(6))
            .unwrap();
        let q = p.div_exact(2).unwrap();
        assert_eq!(
            q,
            x().mul(&Poly::constant(2))
                .unwrap()
                .add(&Poly::constant(3))
                .unwrap()
        );
        assert!(p.div_exact(4).is_none());
        assert!(p.div_exact(0).is_none());
        // Semantics check: (4x+6)/2 == 2x+3 under truncating division for
        // any x because 4x+6 is always even.
        for xv in [-5i64, -1, 0, 1, 7] {
            assert_eq!((4 * xv + 6) / 2, q.eval(&[xv]).unwrap());
        }
    }

    #[test]
    fn divisible_by_matches_rem_semantics() {
        let p = x()
            .mul(&Poly::constant(6))
            .unwrap()
            .add(&Poly::constant(9))
            .unwrap();
        assert!(p.divisible_by(3));
        assert!(!p.divisible_by(2));
        for xv in [-4i64, 0, 5] {
            assert_eq!((6 * xv + 9) % 3, 0);
        }
    }

    #[test]
    fn substitute_composes() {
        // p(x) = x^2 + 1, substitute x := y + 2 → (y+2)^2 + 1
        let p = x().mul(&x()).unwrap().add(&Poly::constant(1)).unwrap();
        let sub = p
            .substitute(|v| {
                assert_eq!(v, 0);
                y().add(&Poly::constant(2))
            })
            .unwrap();
        for yv in [-3i64, 0, 4] {
            assert_eq!(sub.eval(&[0, yv]).unwrap(), (yv + 2) * (yv + 2) + 1);
        }
    }

    #[test]
    fn term_cap_is_enforced() {
        // Sum of 100 distinct variables exceeds MAX_TERMS.
        let mut p = Poly::zero();
        let mut capped = false;
        for v in 0..100u32 {
            match p.add(&Poly::var(v)) {
                Some(q) => p = q,
                None => {
                    capped = true;
                    break;
                }
            }
        }
        assert!(capped);
    }

    #[test]
    fn degree_cap_is_enforced() {
        let mut p = x();
        let mut capped = false;
        for _ in 0..Poly::MAX_DEGREE + 1 {
            match p.mul(&x()) {
                Some(q) => p = q,
                None => {
                    capped = true;
                    break;
                }
            }
        }
        assert!(capped);
    }

    #[test]
    fn fits_within_checks_all_three_axes() {
        // p = x*y + 3: 2 terms, degree 2, support {x, y}.
        let p = x().mul(&y()).unwrap().add(&Poly::constant(3)).unwrap();
        assert!(p.fits_within(2, 2, 2));
        assert!(!p.fits_within(1, 2, 2), "term cap");
        assert!(!p.fits_within(2, 1, 2), "degree cap");
        assert!(!p.fits_within(2, 2, 1), "support cap");
        // Constants fit any budget.
        assert!(Poly::constant(7).fits_within(1, 0, 0));
    }

    #[test]
    fn raw_terms_round_trip_and_reject_invariant_breaks() {
        // p = 2x^2 - 3y + 7
        let p = x()
            .mul(&x())
            .unwrap()
            .mul(&Poly::constant(2))
            .unwrap()
            .sub(&y().mul(&Poly::constant(3)).unwrap())
            .unwrap()
            .add(&Poly::constant(7))
            .unwrap();
        let raw: Vec<(Vec<(PolyVar, u32)>, i64)> =
            p.terms_raw().map(|(m, c)| (m.to_vec(), c)).collect();
        assert_eq!(Poly::from_terms_raw(raw).unwrap(), p);
        assert_eq!(Poly::from_terms_raw(Vec::new()).unwrap(), Poly::zero());

        // Zero coefficient.
        assert!(Poly::from_terms_raw(vec![(vec![(0, 1)], 0)]).is_none());
        // Zero exponent.
        assert!(Poly::from_terms_raw(vec![(vec![(0, 0)], 1)]).is_none());
        // Unsorted monomial variables.
        assert!(Poly::from_terms_raw(vec![(vec![(1, 1), (0, 1)], 1)]).is_none());
        // Duplicate monomials.
        assert!(Poly::from_terms_raw(vec![(vec![(0, 1)], 1), (vec![(0, 1)], 2)]).is_none());
        // Degree over the cap.
        assert!(Poly::from_terms_raw(vec![(vec![(0, Poly::MAX_DEGREE + 1)], 1)]).is_none());
    }

    #[test]
    fn display_is_readable() {
        let p = x()
            .mul(&x())
            .unwrap()
            .mul(&Poly::constant(2))
            .unwrap()
            .sub(&y())
            .unwrap()
            .add(&Poly::constant(-7))
            .unwrap();
        let s = p.to_string();
        assert!(s.contains("2*x0^2"), "{s}");
        assert!(s.contains("x1"), "{s}");
        assert_eq!(Poly::zero().to_string(), "0");
        assert_eq!(Poly::constant(-3).to_string(), "-3");
    }

    #[test]
    fn eval_partial_requires_support_only() {
        let p = x().add(&Poly::constant(10)).unwrap();
        // y's value is irrelevant and unavailable.
        let r = p.eval_partial(|v| if v == 0 { Some(5) } else { None });
        assert_eq!(r, Some(15));
        let r = p.eval_partial(|_| None);
        assert_eq!(r, None);
    }
}
