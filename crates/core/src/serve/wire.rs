//! Dependency-free binary codecs for the persisted summary store.
//!
//! The store persists the results of the expensive per-procedure units —
//! MOD/REF effects and return jump functions with their recorded
//! governor charges — without pulling in a serialization crate. It does
//! not persist the SSA and symbolic forms behind forward jump functions:
//! those are scratch work a restart rebuilds exactly as a cold run does.
//! This module is the byte representation: a little-endian,
//! length-prefixed wire format with explicit tag bytes for every enum,
//! written so that
//!
//! * **encoding is canonical** — equal values produce equal bytes, so
//!   decode∘encode∘decode is byte-idempotent and the store's checksums
//!   are meaningful;
//! * **decoding never panics** — every read is bounds-checked, every
//!   length prefix is validated against the bytes actually remaining
//!   (so a corrupt length cannot trigger a huge allocation), every tag
//!   and boolean byte must be exact, and a [`Poly`] is rebuilt through
//!   its validating constructor. Any violation surfaces as a
//!   [`WireError`] value.
//!
//! Integrity against bit rot is the store's job (checksums in
//! `serve::store`); this layer's job is that *no* byte sequence, however
//! mangled, makes the decoder panic or allocate unboundedly.

use crate::jump::JumpFn;
use crate::serve::cache::{CachedSummary, Charges, SummaryStage};
use ipcp_analysis::ModSet;
use ipcp_ssa::{Poly, PolyVar};

/// A decoding failure: truncated input, an invalid tag or boolean byte,
/// an implausible length prefix, or a value that violates its type's
/// invariants. Deliberately carries no detail — the store maps any wire
/// error to "bad record, discard the store", and the bytes themselves
/// are the diagnostic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireError;

/// Decoding result.
pub type WireResult<T> = Result<T, WireError>;

/// An append-only byte writer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends raw bytes.
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u128`.
    pub fn put_u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64` (two's-complement little-endian).
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a boolean as `0`/`1`.
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends a sequence length as a `u64`.
    pub fn put_len(&mut self, n: usize) {
        self.put_u64(n as u64);
    }
}

/// A bounds-checked byte reader.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte was consumed.
    pub fn is_done(&self) -> bool {
        self.remaining() == 0
    }

    /// Consumes exactly `n` bytes.
    pub fn take(&mut self, n: usize) -> WireResult<&'a [u8]> {
        if n > self.remaining() {
            return Err(WireError);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> WireResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> WireResult<u32> {
        let b = self.take(4)?;
        let mut a = [0u8; 4];
        a.copy_from_slice(b);
        Ok(u32::from_le_bytes(a))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> WireResult<u64> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Reads a little-endian `u128`.
    pub fn get_u128(&mut self) -> WireResult<u128> {
        let b = self.take(16)?;
        let mut a = [0u8; 16];
        a.copy_from_slice(b);
        Ok(u128::from_le_bytes(a))
    }

    /// Reads an `i64`.
    pub fn get_i64(&mut self) -> WireResult<i64> {
        Ok(self.get_u64()? as i64)
    }

    /// Reads a boolean; any byte other than `0`/`1` is an error.
    pub fn get_bool(&mut self) -> WireResult<bool> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError),
        }
    }

    /// Reads a sequence length and validates it against the bytes left:
    /// a sequence of `n` items each at least `min_item_bytes` long
    /// cannot be encoded in fewer than `n * min_item_bytes` bytes, so a
    /// corrupt length fails here instead of sizing an allocation.
    pub fn get_len(&mut self, min_item_bytes: usize) -> WireResult<usize> {
        let n = self.get_u64()?;
        let n = usize::try_from(n).map_err(|_| WireError)?;
        let need = n.checked_mul(min_item_bytes.max(1)).ok_or(WireError)?;
        if need > self.remaining() {
            return Err(WireError);
        }
        Ok(n)
    }
}

fn put_vec<T>(w: &mut Writer, items: &[T], mut put: impl FnMut(&mut Writer, &T)) {
    w.put_len(items.len());
    for item in items {
        put(w, item);
    }
}

fn get_vec<'a, T>(
    r: &mut Reader<'a>,
    min_item_bytes: usize,
    mut get: impl FnMut(&mut Reader<'a>) -> WireResult<T>,
) -> WireResult<Vec<T>> {
    let n = r.get_len(min_item_bytes)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(get(r)?);
    }
    Ok(out)
}

fn put_bools(w: &mut Writer, bits: impl ExactSizeIterator<Item = bool>) {
    w.put_len(bits.len());
    for b in bits {
        w.put_bool(b);
    }
}

fn get_bools(r: &mut Reader<'_>) -> WireResult<Vec<bool>> {
    get_vec(r, 1, |r| r.get_bool())
}

/// Encodes a [`ModSet`].
pub fn put_mod_set(w: &mut Writer, m: &ModSet) {
    put_bools(w, m.formal_flags());
    put_bools(w, m.global_flags());
}

/// Decodes a [`ModSet`].
pub fn get_mod_set(r: &mut Reader<'_>) -> WireResult<ModSet> {
    let formals = get_bools(r)?;
    Ok(ModSet::from_bools(&formals, &get_bools(r)?))
}

/// Encodes a [`Poly`] as its canonical sorted term list.
pub fn put_poly(w: &mut Writer, p: &Poly) {
    w.put_len(p.n_terms());
    for (m, c) in p.terms_raw() {
        put_vec(w, m, |w, &(v, e)| {
            w.put_u32(v);
            w.put_u32(e);
        });
        w.put_i64(c);
    }
}

/// Decodes a [`Poly`], re-validating every invariant (sortedness, no
/// zero coefficients or exponents, term/degree caps).
pub fn get_poly(r: &mut Reader<'_>) -> WireResult<Poly> {
    let n = r.get_len(16)?;
    let mut terms: Vec<(Vec<(PolyVar, u32)>, i64)> = Vec::with_capacity(n);
    for _ in 0..n {
        let m = get_vec(r, 8, |r| Ok((r.get_u32()?, r.get_u32()?)))?;
        let c = r.get_i64()?;
        terms.push((m, c));
    }
    Poly::from_terms_raw(terms).ok_or(WireError)
}

/// Encodes a [`JumpFn`].
pub fn put_jump_fn(w: &mut Writer, f: &JumpFn) {
    match f {
        JumpFn::Const(c) => {
            w.put_u8(0);
            w.put_i64(*c);
        }
        JumpFn::PassThrough(v) => {
            w.put_u8(1);
            w.put_u32(*v);
        }
        JumpFn::Poly(p) => {
            w.put_u8(2);
            put_poly(w, p);
        }
        JumpFn::Bottom => w.put_u8(3),
    }
}

/// Decodes a [`JumpFn`].
pub fn get_jump_fn(r: &mut Reader<'_>) -> WireResult<JumpFn> {
    Ok(match r.get_u8()? {
        0 => JumpFn::Const(r.get_i64()?),
        1 => JumpFn::PassThrough(r.get_u32()?),
        2 => JumpFn::Poly(get_poly(r)?),
        3 => JumpFn::Bottom,
        _ => return Err(WireError),
    })
}

/// Encodes recorded governor charges.
pub fn put_charges(w: &mut Writer, c: &Charges) {
    w.put_u8(c.len() as u8);
    for &v in c.iter() {
        w.put_u64(v);
    }
}

/// Decodes recorded governor charges; the stage count must match this
/// build's [`Stage::ALL`](crate::config::Stage::ALL).
pub fn get_charges(r: &mut Reader<'_>) -> WireResult<Charges> {
    let mut out: Charges = Default::default();
    if r.get_u8()? as usize != out.len() {
        return Err(WireError);
    }
    for v in out.iter_mut() {
        *v = r.get_u64()?;
    }
    Ok(out)
}

/// Whether the store persists a summary family: MOD/REF and return jump
/// functions. The `Jump` family holds SSA and symbolic forms, which a
/// restart rebuilds, so they stay in memory only.
pub fn persisted(stage: SummaryStage) -> bool {
    stage != SummaryStage::Jump
}

/// The stable tag byte of a summary family.
pub fn stage_code(stage: SummaryStage) -> u8 {
    match stage {
        SummaryStage::ModRef => 0,
        SummaryStage::RetJump => 1,
        SummaryStage::Jump => 2,
    }
}

/// Decodes the tag byte of a [`persisted`] family. The `Jump` tag is an
/// error like any unknown byte: a store never holds a form.
pub fn stage_from(code: u8) -> WireResult<SummaryStage> {
    Ok(match code {
        0 => SummaryStage::ModRef,
        1 => SummaryStage::RetJump,
        _ => return Err(WireError),
    })
}

/// Encodes one cached summary payload (the key travels separately in
/// the store record header). A form encodes as its bare tag, which
/// [`get_summary`] rejects: the store keeps results, not forms.
pub fn put_summary(w: &mut Writer, s: &CachedSummary) {
    match s {
        CachedSummary::ModRef { mods, refs } => {
            w.put_u8(stage_code(SummaryStage::ModRef));
            put_mod_set(w, mods);
            put_mod_set(w, refs);
        }
        CachedSummary::RetJump { fns, charges } => {
            w.put_u8(stage_code(SummaryStage::RetJump));
            put_vec(w, fns, put_jump_fn);
            put_charges(w, charges);
        }
        CachedSummary::Jump { .. } => w.put_u8(stage_code(SummaryStage::Jump)),
    }
}

/// Decodes one cached summary payload. The payload tag must agree with
/// `stage` — a record whose key names one family but whose payload is
/// another is corrupt — and a form is corrupt whatever its bytes.
pub fn get_summary(r: &mut Reader<'_>, stage: SummaryStage) -> WireResult<CachedSummary> {
    let tag = r.get_u8()?;
    if tag != stage_code(stage) {
        return Err(WireError);
    }
    Ok(match stage {
        SummaryStage::ModRef => CachedSummary::ModRef {
            mods: get_mod_set(r)?,
            refs: get_mod_set(r)?,
        },
        SummaryStage::RetJump => CachedSummary::RetJump {
            fns: get_vec(r, 1, get_jump_fn)?,
            charges: get_charges(r)?,
        },
        SummaryStage::Jump => return Err(WireError),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn poly_xy_plus_7() -> Poly {
        // 2*x0*x1 + 7
        let x = Poly::var(0);
        let y = Poly::var(1);
        x.mul(&y)
            .and_then(|p| p.mul(&Poly::constant(2)))
            .and_then(|p| p.add(&Poly::constant(7)))
            .expect("small poly")
    }

    fn round_trip<T>(
        value: &T,
        put: impl Fn(&mut Writer, &T),
        get: impl Fn(&mut Reader<'_>) -> WireResult<T>,
    ) -> T {
        let mut w = Writer::new();
        put(&mut w, value);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let decoded = get(&mut r).expect("decodes");
        assert!(r.is_done(), "trailing bytes");
        // Byte idempotence: re-encoding the decoded value reproduces the
        // original bytes exactly (the canonical-encoding property the
        // store's checksums rely on).
        let mut w2 = Writer::new();
        put(&mut w2, &decoded);
        assert_eq!(w2.into_bytes(), bytes, "encoding not canonical");
        decoded
    }

    #[test]
    fn primitive_round_trips() {
        let mut w = Writer::new();
        w.put_u8(0xAB);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_u128(u128::MAX / 3);
        w.put_i64(-42);
        w.put_bool(true);
        w.put_bool(false);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 0xAB);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_u128().unwrap(), u128::MAX / 3);
        assert_eq!(r.get_i64().unwrap(), -42);
        assert!(r.get_bool().unwrap());
        assert!(!r.get_bool().unwrap());
        assert!(r.is_done());
        assert_eq!(r.get_u8(), Err(WireError), "reading past the end");
    }

    #[test]
    fn booleans_must_be_exact() {
        let mut r = Reader::new(&[2]);
        assert_eq!(r.get_bool(), Err(WireError));
    }

    #[test]
    fn corrupt_lengths_cannot_size_allocations() {
        // A length prefix claiming u64::MAX items with no bytes behind it.
        let mut w = Writer::new();
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_len(1), Err(WireError));
        let mut r = Reader::new(&bytes);
        assert_eq!(get_bools(&mut r), Err(WireError));
    }

    #[test]
    fn mod_set_round_trip() {
        let m = ModSet::from_bools(&[true, false, true], &[false]);
        assert_eq!(round_trip(&m, put_mod_set, get_mod_set), m);
    }

    #[test]
    fn poly_and_jump_fn_round_trip() {
        let p = poly_xy_plus_7();
        assert_eq!(round_trip(&p, put_poly, get_poly), p);
        for f in [
            JumpFn::Const(-9),
            JumpFn::PassThrough(3),
            JumpFn::Poly(poly_xy_plus_7()),
            JumpFn::Bottom,
        ] {
            assert_eq!(round_trip(&f, put_jump_fn, get_jump_fn), f);
        }
    }

    #[test]
    fn poly_decoding_revalidates_invariants() {
        // Hand-encode a "poly" with a zero coefficient: 1 term, empty
        // monomial, coefficient 0.
        let mut w = Writer::new();
        w.put_len(1);
        w.put_len(0);
        w.put_i64(0);
        let bytes = w.into_bytes();
        assert_eq!(get_poly(&mut Reader::new(&bytes)), Err(WireError));
    }

    #[test]
    fn charges_round_trip_and_reject_arity_skew() {
        let c: Charges = [1, 2, 3, 4, 5, 6];
        assert_eq!(round_trip(&c, put_charges, get_charges), c);
        let mut w = Writer::new();
        w.put_u8(3); // wrong stage count
        w.put_u64(0);
        w.put_u64(0);
        w.put_u64(0);
        let bytes = w.into_bytes();
        assert_eq!(get_charges(&mut Reader::new(&bytes)), Err(WireError));
    }

    #[test]
    fn truncated_summaries_fail_cleanly() {
        let mut w = Writer::new();
        put_summary(
            &mut w,
            &CachedSummary::RetJump {
                fns: vec![JumpFn::Const(1), JumpFn::Bottom],
                charges: [0; 6],
            },
        );
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(
                get_summary(&mut r, SummaryStage::RetJump).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn summary_payload_must_match_its_family() {
        let mut w = Writer::new();
        put_summary(
            &mut w,
            &CachedSummary::ModRef {
                mods: ModSet::default(),
                refs: ModSet::default(),
            },
        );
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(get_summary(&mut r, SummaryStage::RetJump).is_err());
        // A form is never persisted: its tag is corrupt as a record's
        // family and as a payload, whatever follows it.
        assert_eq!(stage_from(stage_code(SummaryStage::Jump)), Err(WireError));
        for tail in [&[][..], &bytes[1..]] {
            let mut jump = vec![stage_code(SummaryStage::Jump)];
            jump.extend_from_slice(tail);
            let mut r = Reader::new(&jump);
            assert!(get_summary(&mut r, SummaryStage::Jump).is_err());
        }
        assert!(!persisted(SummaryStage::Jump));
        assert!(persisted(SummaryStage::ModRef) && persisted(SummaryStage::RetJump));
    }
}
