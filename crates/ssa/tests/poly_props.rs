//! Property-style algebra checks: the polynomial ring under evaluation,
//! and the Figure-1 lattice laws over arbitrary elements. Randomness comes
//! from the suite's deterministic PRNG, so every run tests the same cases.

use ipcp_ssa::lattice::Lattice;
use ipcp_ssa::poly::Poly;
use ipcp_suite::Rng;

/// A small random polynomial over variables 0..4, built from a list of
/// (coefficient, exponents) terms by repeated checked ring operations.
fn arb_poly(rng: &mut Rng) -> Poly {
    let n_terms = rng.below(5);
    let mut p = Poly::zero();
    for _ in 0..n_terms {
        let c = rng.range(-20, 20);
        let mut term = Poly::constant(c);
        for v in 0..4u32 {
            let e = rng.range(0, 2);
            for _ in 0..e {
                term = match term.mul(&Poly::var(v)) {
                    Some(t) => t,
                    None => return p,
                };
            }
        }
        p = match p.add(&term) {
            Some(q) => q,
            None => return p,
        };
    }
    p
}

fn arb_env(rng: &mut Rng) -> Vec<i64> {
    (0..4).map(|_| rng.range(-9, 9)).collect()
}

/// eval is a ring homomorphism: eval(a ⊕ b) = eval(a) ⊕ eval(b).
#[test]
fn eval_commutes_with_ring_ops() {
    let mut rng = Rng::new(0xA11CE);
    for _ in 0..256 {
        let (a, b, env) = (arb_poly(&mut rng), arb_poly(&mut rng), arb_env(&mut rng));
        if let (Some(sum), Some(va), Some(vb)) = (a.add(&b), a.eval(&env), b.eval(&env)) {
            if let (Some(vs), Some(expect)) = (sum.eval(&env), va.checked_add(vb)) {
                assert_eq!(vs, expect);
            }
        }
        if let (Some(prod), Some(va), Some(vb)) = (a.mul(&b), a.eval(&env), b.eval(&env)) {
            if let (Some(vp), Some(expect)) = (prod.eval(&env), va.checked_mul(vb)) {
                assert_eq!(vp, expect);
            }
        }
        if let (Some(diff), Some(va), Some(vb)) = (a.sub(&b), a.eval(&env), b.eval(&env)) {
            if let (Some(vd), Some(expect)) = (diff.eval(&env), va.checked_sub(vb)) {
                assert_eq!(vd, expect);
            }
        }
    }
}

/// Ring laws at the representation level (canonical form ⇒ equality).
#[test]
fn ring_laws() {
    let mut rng = Rng::new(0xB0B);
    for _ in 0..256 {
        let (a, b, c) = (arb_poly(&mut rng), arb_poly(&mut rng), arb_poly(&mut rng));
        // Commutativity.
        assert_eq!(a.add(&b), b.add(&a));
        assert_eq!(a.mul(&b), b.mul(&a));
        // a - a = 0.
        assert_eq!(a.sub(&a), Some(Poly::zero()));
        // Identities.
        assert_eq!(a.add(&Poly::zero()), Some(a.clone()));
        assert_eq!(a.mul(&Poly::constant(1)), Some(a.clone()));
        assert_eq!(a.mul(&Poly::zero()), Some(Poly::zero()));
        // Associativity of addition (when all steps fit).
        if let (Some(ab), Some(bc)) = (a.add(&b), b.add(&c)) {
            if let (Some(l), Some(r)) = (ab.add(&c), a.add(&bc)) {
                assert_eq!(l, r);
            }
        }
        // Distributivity (when all steps fit).
        if let (Some(bc), Some(ab), Some(ac)) = (b.add(&c), a.mul(&b), a.mul(&c)) {
            if let (Some(l), Some(r)) = (a.mul(&bc), ab.add(&ac)) {
                assert_eq!(l, r);
            }
        }
    }
}

/// Exact division round-trips and matches truncating semantics.
#[test]
fn div_exact_round_trips() {
    let mut rng = Rng::new(0xD1F);
    for _ in 0..256 {
        let a = arb_poly(&mut rng);
        let d = {
            let mag = rng.range(1, 9);
            if rng.chance(1, 2) {
                mag
            } else {
                -mag
            }
        };
        let env = arb_env(&mut rng);
        if let Some(scaled) = a.mul(&Poly::constant(d)) {
            let q = scaled.div_exact(d).expect("scaled poly divides exactly");
            assert_eq!(&q, &a);
            assert!(scaled.divisible_by(d));
            if let (Some(vs), Some(vq)) = (scaled.eval(&env), q.eval(&env)) {
                assert_eq!(vs / d, vq); // truncating division is exact here
                assert_eq!(vs % d, 0);
            }
        }
    }
}

/// Substitution composes with evaluation: eval(p[x := q]) =
/// eval-with-x-replaced.
#[test]
fn substitute_commutes_with_eval() {
    let mut rng = Rng::new(0x5AB);
    for _ in 0..256 {
        let (p, q, env) = (arb_poly(&mut rng), arb_poly(&mut rng), arb_env(&mut rng));
        let composed = p.substitute(|v| {
            if v == 0 {
                Some(q.clone())
            } else {
                Some(Poly::var(v))
            }
        });
        if let (Some(composed), Some(qv)) = (composed, q.eval(&env)) {
            let mut env2 = env.clone();
            env2[0] = qv;
            if let (Some(l), Some(r)) = (composed.eval(&env), p.eval(&env2)) {
                assert_eq!(l, r);
            } // overflow on one side: nothing to compare
        }
    }
}

/// Support is exactly the set of variables eval depends on.
#[test]
fn support_is_precise() {
    let mut rng = Rng::new(0x5EED);
    for _ in 0..256 {
        let p = arb_poly(&mut rng);
        let env = arb_env(&mut rng);
        let delta = rng.range(1, 5);
        let support = p.support();
        for v in 0..4u32 {
            if support.contains(&v) {
                continue;
            }
            let mut env2 = env.clone();
            env2[v as usize] += delta;
            if let (Some(a), Some(b)) = (p.eval(&env), p.eval(&env2)) {
                assert_eq!(a, b, "non-support var {v} mattered");
            }
        }
    }
}

/// Lattice laws over arbitrary elements (extends the unit tests' fixed
/// samples).
#[test]
fn lattice_laws() {
    let mut rng = Rng::new(0x1A7);
    let arb_lattice = |rng: &mut Rng| match rng.below(4) {
        0 => Lattice::Top,
        1 => Lattice::Bottom,
        _ => Lattice::Const(rng.range(-5, 5)),
    };
    for _ in 0..256 {
        let a = arb_lattice(&mut rng);
        let b = arb_lattice(&mut rng);
        let c = arb_lattice(&mut rng);
        assert_eq!(a.meet(b), b.meet(a));
        assert_eq!(a.meet(a), a);
        assert_eq!(a.meet(b).meet(c), a.meet(b.meet(c)));
        assert_eq!(Lattice::Top.meet(a), a);
        assert_eq!(Lattice::Bottom.meet(a), Lattice::Bottom);
        assert!(a.meet(b).height() >= a.height().max(b.height()));
    }
}

/// A naive model of `Poly`: one `BTreeMap` from monomial to nonzero
/// coefficient for every value, with the same overflow, `MAX_TERMS` and
/// `MAX_DEGREE` rules. `Poly` keeps constants and `c·x + k` inline; every
/// operation must agree with this model, `None` results included.
mod model {
    use ipcp_ssa::poly::{Poly, PolyVar};
    use std::collections::BTreeMap;

    pub type Mono = Vec<(PolyVar, u32)>;

    #[derive(Clone, Debug, Default, PartialEq)]
    pub struct Model(pub BTreeMap<Mono, i64>);

    impl Model {
        pub fn from_poly(p: &Poly) -> Model {
            Model(p.terms_raw().map(|(m, c)| (m.to_vec(), c)).collect())
        }

        pub fn to_poly(&self) -> Poly {
            let raw = self.0.iter().map(|(m, &c)| (m.clone(), c)).collect();
            Poly::from_terms_raw(raw).expect("model values respect the caps")
        }

        pub fn constant(c: i64) -> Model {
            let mut out = Model::default();
            if c != 0 {
                out.0.insert(Vec::new(), c);
            }
            out
        }

        fn insert(&mut self, m: Mono, c: i64) -> Option<()> {
            if c == 0 {
                return Some(());
            }
            match self.0.get_mut(&m) {
                Some(e) => {
                    *e = e.checked_add(c)?;
                    if *e == 0 {
                        self.0.remove(&m);
                    }
                }
                None => {
                    self.0.insert(m, c);
                }
            }
            (self.0.len() <= Poly::MAX_TERMS).then_some(())
        }

        pub fn add(&self, o: &Model) -> Option<Model> {
            let mut out = self.clone();
            for (m, &c) in &o.0 {
                out.insert(m.clone(), c)?;
            }
            Some(out)
        }

        pub fn sub(&self, o: &Model) -> Option<Model> {
            let mut out = self.clone();
            for (m, &c) in &o.0 {
                out.insert(m.clone(), c.checked_neg()?)?;
            }
            Some(out)
        }

        pub fn neg(&self) -> Option<Model> {
            Model::default().sub(self)
        }

        pub fn mul(&self, o: &Model) -> Option<Model> {
            let mut out = Model::default();
            for (ma, &ca) in &self.0 {
                for (mb, &cb) in &o.0 {
                    let c = ca.checked_mul(cb)?;
                    let mut m: BTreeMap<PolyVar, u32> = ma.iter().copied().collect();
                    for &(v, e) in mb {
                        let slot = m.entry(v).or_insert(0);
                        *slot = slot.checked_add(e)?;
                    }
                    if m.values().sum::<u32>() > Poly::MAX_DEGREE {
                        return None;
                    }
                    out.insert(m.into_iter().collect(), c)?;
                }
            }
            Some(out)
        }

        pub fn div_exact(&self, d: i64) -> Option<Model> {
            if d == 0 {
                return None;
            }
            let mut out = Model::default();
            for (m, &c) in &self.0 {
                if c.checked_rem(d).unwrap_or(0) != 0 {
                    return None;
                }
                out.insert(m.clone(), c.checked_div(d)?)?;
            }
            Some(out)
        }

        pub fn divisible_by(&self, d: i64) -> bool {
            d != 0 && self.0.values().all(|&c| c.checked_rem(d).unwrap_or(0) == 0)
        }

        pub fn eval(&self, env: &[i64]) -> Option<i64> {
            let mut total: i64 = 0;
            for (m, &c) in &self.0 {
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

        pub fn support(&self) -> Vec<PolyVar> {
            let mut vs: Vec<PolyVar> = self.0.keys().flatten().map(|&(v, _)| v).collect();
            vs.sort_unstable();
            vs.dedup();
            vs
        }

        pub fn eval_partial(&self, env: impl Fn(PolyVar) -> Option<i64>) -> Option<i64> {
            let support = self.support();
            let mut values = vec![0; support.last().map_or(1, |&v| v as usize + 1)];
            for v in support {
                values[v as usize] = env(v)?;
            }
            self.eval(&values)
        }

        pub fn substitute(&self, subst: impl Fn(PolyVar) -> Option<Model>) -> Option<Model> {
            let mut out = Model::default();
            for (m, &c) in &self.0 {
                let mut term = Model::constant(c);
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

        pub fn degree(&self) -> u32 {
            self.0
                .keys()
                .map(|m| m.iter().map(|&(_, e)| e).sum())
                .max()
                .unwrap_or(0)
        }

        pub fn as_const(&self) -> Option<i64> {
            match self.0.len() {
                0 => Some(0),
                1 => self.0.get(&Vec::new()).copied(),
                _ => None,
            }
        }

        pub fn as_var(&self) -> Option<PolyVar> {
            match self.0.iter().next() {
                Some((m, 1)) if self.0.len() == 1 && m.len() == 1 && m[0].1 == 1 => Some(m[0].0),
                _ => None,
            }
        }

        pub fn display(&self) -> String {
            if self.0.is_empty() {
                return "0".to_string();
            }
            let mut s = String::new();
            for (i, (m, &c)) in self.0.iter().rev().enumerate() {
                s += match (i, c < 0) {
                    (0, true) => "-",
                    (0, false) => "",
                    (_, true) => " - ",
                    (_, false) => " + ",
                };
                let mag = c.unsigned_abs();
                if m.is_empty() {
                    s += &mag.to_string();
                    continue;
                }
                if mag != 1 {
                    s += &format!("{mag}*");
                }
                let vars: Vec<String> = m
                    .iter()
                    .map(|&(v, e)| match e {
                        1 => format!("x{v}"),
                        _ => format!("x{v}^{e}"),
                    })
                    .collect();
                s += &vars.join("*");
            }
            s
        }
    }
}

use model::Model;
use std::hash::{Hash, Hasher};

/// A coefficient weighted toward the shapes that matter: small values,
/// ±1, and values next to `i64::MAX`/`MIN` where the overflow checks
/// fire.
fn arb_coeff(rng: &mut Rng) -> i64 {
    match rng.below(8) {
        0 => i64::MAX - rng.range(0, 2),
        1 => i64::MIN + rng.range(0, 2),
        2 => (i64::MAX / 2) * if rng.chance(1, 2) { 1 } else { -1 } + rng.range(-2, 2),
        3 => {
            if rng.chance(1, 2) {
                1
            } else {
                -1
            }
        }
        _ => rng.range(-9, 9),
    }
}

/// An operand: zero, constants, `±x`, `c·x + k`, and wider polynomials
/// (a few near the degree and term caps).
fn arb_model(rng: &mut Rng) -> Model {
    let var = |rng: &mut Rng| rng.below(4) as u32;
    let mut m = Model::default();
    let put = |m: &mut Model, mono: Vec<(u32, u32)>, c: i64| {
        if c != 0 {
            m.0.insert(mono, c);
        }
    };
    match rng.below(10) {
        0 => {}
        1 | 2 => put(&mut m, Vec::new(), arb_coeff(rng)),
        3 => put(
            &mut m,
            vec![(var(rng), 1)],
            if rng.chance(1, 2) { 1 } else { -1 },
        ),
        4..=6 => {
            put(&mut m, vec![(var(rng), 1)], arb_coeff(rng));
            put(&mut m, Vec::new(), arb_coeff(rng));
        }
        7 => {
            // Near the degree cap: one monomial of degree 4..=8.
            let v = var(rng);
            put(&mut m, vec![(v, rng.range(4, 8) as u32)], arb_coeff(rng));
            put(&mut m, Vec::new(), arb_coeff(rng));
        }
        8 => {
            // Near the term cap: 30..=40 distinct linear terms.
            for v in 0..rng.range(30, 40) as u32 {
                put(&mut m, vec![(v, 1)], arb_coeff(rng));
            }
        }
        _ => {
            for _ in 0..rng.range(1, 4) {
                let a = var(rng);
                let b = a + 1 + rng.below(3) as u32;
                let mono = match rng.below(3) {
                    0 => vec![(a, 1)],
                    1 => vec![(a, 2)],
                    _ => vec![(a, 1), (b, 1)],
                };
                put(&mut m, mono, arb_coeff(rng));
            }
            put(&mut m, Vec::new(), arb_coeff(rng));
        }
    }
    m
}

fn hash_of(p: &Poly) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    p.hash(&mut h);
    h.finish()
}

/// `got` agrees with the model result `want`: both absent, or the same
/// terms, equal (and equally hashed) to the canonical value of `want`.
fn check(op: &str, got: Option<Poly>, want: Option<Model>) {
    match (got, want) {
        (None, None) => {}
        (Some(p), Some(m)) => {
            assert_eq!(Model::from_poly(&p), m, "{op}: terms differ");
            let canon = m.to_poly();
            assert_eq!(p, canon, "{op}: not canonical");
            assert_eq!(hash_of(&p), hash_of(&canon), "{op}: hash differs");
        }
        (got, want) => panic!("{op}: got {got:?}, model says {want:?}"),
    }
}

/// Every observation of one operand agrees with the model.
fn check_unary(rng: &mut Rng, a: &Model) {
    let p = a.to_poly();
    let ctx = format!("{a:?}");
    assert_eq!(Model::from_poly(&p), *a, "terms_raw of {ctx}");
    assert_eq!(p.as_const(), a.as_const(), "as_const of {ctx}");
    assert_eq!(p.as_var(), a.as_var(), "as_var of {ctx}");
    assert_eq!(p.support(), a.support(), "support of {ctx}");
    assert_eq!(p.degree(), a.degree(), "degree of {ctx}");
    assert_eq!(p.n_terms(), a.0.len(), "n_terms of {ctx}");
    assert_eq!(p.to_string(), a.display(), "Display of {ctx}");
    let (t, d, s) = (
        rng.below(4) as usize,
        rng.below(3) as u32,
        rng.below(3) as usize,
    );
    assert_eq!(
        p.fits_within(t, d, s),
        a.0.len() <= t && a.degree() <= d && a.support().len() <= s,
        "fits_within({t}, {d}, {s}) of {ctx}"
    );
    check(&format!("neg {ctx}"), p.neg(), a.neg());
    let divisor = match rng.below(6) {
        0 => 0,
        1 => -1,
        2 => i64::MIN,
        _ => rng.range(-4, 4),
    };
    check(
        &format!("div_exact {ctx} / {divisor}"),
        p.div_exact(divisor),
        a.div_exact(divisor),
    );
    assert_eq!(p.divisible_by(divisor), a.divisible_by(divisor));
    let env: Vec<i64> = (0..rng.range(0, 5)).map(|_| arb_coeff(rng)).collect();
    assert_eq!(p.eval(&env), a.eval(&env), "eval {ctx} at {env:?}");
    let known = rng.below(16);
    let partial =
        |v: u32| (known >> (v % 4) & 1 == 1).then(|| env.get(v as usize).copied().unwrap_or(3));
    assert_eq!(p.eval_partial(partial), a.eval_partial(partial));
}

#[test]
fn inline_poly_agrees_with_the_naive_model() {
    let mut rng = Rng::new(0x9011);
    for _ in 0..4000 {
        let (a, b) = (arb_model(&mut rng), arb_model(&mut rng));
        check_unary(&mut rng, &a);
        let (pa, pb) = (a.to_poly(), b.to_poly());
        let ctx = format!("{a:?} ∘ {b:?}");
        check(&format!("add {ctx}"), pa.add(&pb), a.add(&b));
        check(&format!("sub {ctx}"), pa.sub(&pb), a.sub(&b));
        check(&format!("mul {ctx}"), pa.mul(&pb), a.mul(&b));
        assert_eq!(pa == pb, a == b, "== of {ctx}");
        if a == b {
            assert_eq!(hash_of(&pa), hash_of(&pb));
        }
        // Substitute `b` for one variable, a fresh operand or nothing for
        // the others.
        let (c, gap) = (arb_model(&mut rng), rng.below(4) as u32);
        let hole = rng.below(5) as u32;
        check(
            &format!("substitute {ctx}"),
            pa.substitute(|v| match v {
                _ if v == hole => None,
                _ if v == gap => Some(pb.clone()),
                _ => Some(c.to_poly()),
            }),
            a.substitute(|v| match v {
                _ if v == hole => None,
                _ if v == gap => Some(b.clone()),
                _ => Some(c.clone()),
            }),
        );
    }
}

/// The operations cross both caps on purpose: products past
/// `MAX_DEGREE`, and sums past `MAX_TERMS` that only a later term would
/// cancel, still come back `None` exactly when the model says so.
#[test]
fn cap_crossings_agree_with_the_naive_model() {
    let mut rng = Rng::new(0xCA95);
    let wide = |rng: &mut Rng, lo: u32| -> Model {
        let mut m = Model::default();
        for v in lo..lo + rng.range(30, 40) as u32 {
            m.0.insert(vec![(v, 1)], rng.range(1, 5));
        }
        m
    };
    for _ in 0..200 {
        let (a, b) = (wide(&mut rng, 0), wide(&mut rng, 20));
        let (pa, pb) = (a.to_poly(), b.to_poly());
        check("wide add", pa.add(&pb), a.add(&b));
        check("wide sub", pa.sub(&pb), a.sub(&b));
        let x = Model::from_poly(&Poly::var(rng.below(4) as u32));
        let mut power = Model::constant(1);
        for _ in 0..=Poly::MAX_DEGREE {
            let next = power.mul(&x);
            check("power", power.to_poly().mul(&x.to_poly()), next.clone());
            match next {
                Some(n) => power = n,
                None => break,
            }
        }
    }
}
