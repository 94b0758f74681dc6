//! Dependency-free binary codecs for the persisted summary store.
//!
//! The store needs a byte representation for every summary the cache
//! holds — including the deep SSA + symbolic form behind forward jump
//! functions — without pulling in a serialization crate. This module is
//! that representation: a little-endian, length-prefixed wire format
//! with explicit tag bytes for every enum, written so that
//!
//! * **encoding is canonical** — equal values produce equal bytes (maps
//!   are emitted in their sorted order, sets are sorted before writing),
//!   so decode∘encode∘decode is byte-idempotent and the store's
//!   checksums are meaningful;
//! * **decoding never panics** — every read is bounds-checked, every
//!   length prefix is validated against the bytes actually remaining
//!   (so a corrupt length cannot trigger a huge allocation), every tag
//!   and boolean byte must be exact, and values with internal
//!   invariants ([`Poly`], [`DomTree`]) are rebuilt through validating
//!   constructors. Any violation surfaces as a [`WireError`] value.
//!
//! Integrity against bit rot is the store's job (checksums in
//! `serve::store`); this layer's job is that *no* byte sequence, however
//! mangled, makes the decoder panic or allocate unboundedly.

use crate::jump::{JumpFn, ProcSymbolic};
use crate::serve::cache::{CachedSummary, Charges, SummaryStage};
use ipcp_analysis::ModSet;
use ipcp_ir::cfg::{BlockId, CallSiteId};
use ipcp_ir::lang::ast::{BinOp, UnOp};
use ipcp_ir::program::{ProcId, VarId};
use ipcp_ssa::ssa::SsaAssembler;
use ipcp_ssa::{
    DomTree, DomTreeParts, Lattice, Poly, PolyVar, SccpResult, SsaProc, StmtInfo, SymVal, Symbolic,
    ValueId, ValueKind,
};
use std::collections::HashSet;

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

fn put_u32_id(w: &mut Writer, index: usize) {
    w.put_u32(index as u32);
}

fn put_opt<T>(w: &mut Writer, v: &Option<T>, put: impl FnOnce(&mut Writer, &T)) {
    match v {
        None => w.put_u8(0),
        Some(x) => {
            w.put_u8(1);
            put(w, x);
        }
    }
}

fn get_opt<'a, T>(
    r: &mut Reader<'a>,
    get: impl FnOnce(&mut Reader<'a>) -> WireResult<T>,
) -> WireResult<Option<T>> {
    match r.get_u8()? {
        0 => Ok(None),
        1 => Ok(Some(get(r)?)),
        _ => Err(WireError),
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

/// `usize` carrier that round-trips the `usize::MAX` sentinel exactly
/// (used by `rpo_pos` for unreachable blocks).
fn put_usize(w: &mut Writer, v: usize) {
    w.put_u64(if v == usize::MAX { u64::MAX } else { v as u64 });
}

fn get_usize(r: &mut Reader<'_>) -> WireResult<usize> {
    let v = r.get_u64()?;
    if v == u64::MAX {
        Ok(usize::MAX)
    } else {
        usize::try_from(v).map_err(|_| WireError)
    }
}

fn put_value_id(w: &mut Writer, v: ValueId) {
    w.put_u32(v.0);
}

fn get_value_id(r: &mut Reader<'_>) -> WireResult<ValueId> {
    Ok(ValueId(r.get_u32()?))
}

fn put_block_id(w: &mut Writer, b: BlockId) {
    put_u32_id(w, b.index());
}

fn get_block_id(r: &mut Reader<'_>) -> WireResult<BlockId> {
    Ok(BlockId::from(r.get_u32()? as usize))
}

fn bin_op_code(op: BinOp) -> u8 {
    match op {
        BinOp::Add => 0,
        BinOp::Sub => 1,
        BinOp::Mul => 2,
        BinOp::Div => 3,
        BinOp::Rem => 4,
        BinOp::Eq => 5,
        BinOp::Ne => 6,
        BinOp::Lt => 7,
        BinOp::Le => 8,
        BinOp::Gt => 9,
        BinOp::Ge => 10,
        BinOp::And => 11,
        BinOp::Or => 12,
    }
}

fn bin_op_from(code: u8) -> WireResult<BinOp> {
    Ok(match code {
        0 => BinOp::Add,
        1 => BinOp::Sub,
        2 => BinOp::Mul,
        3 => BinOp::Div,
        4 => BinOp::Rem,
        5 => BinOp::Eq,
        6 => BinOp::Ne,
        7 => BinOp::Lt,
        8 => BinOp::Le,
        9 => BinOp::Gt,
        10 => BinOp::Ge,
        11 => BinOp::And,
        12 => BinOp::Or,
        _ => return Err(WireError),
    })
}

fn un_op_code(op: UnOp) -> u8 {
    match op {
        UnOp::Neg => 0,
        UnOp::Not => 1,
    }
}

fn un_op_from(code: u8) -> WireResult<UnOp> {
    Ok(match code {
        0 => UnOp::Neg,
        1 => UnOp::Not,
        _ => return Err(WireError),
    })
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

fn put_value_kind(w: &mut Writer, k: &ValueKind) {
    match k {
        ValueKind::Entry { var } => {
            w.put_u8(0);
            put_u32_id(w, var.index());
        }
        ValueKind::Const(c) => {
            w.put_u8(1);
            w.put_i64(*c);
        }
        ValueKind::Unary(op, a) => {
            w.put_u8(2);
            w.put_u8(un_op_code(*op));
            put_value_id(w, *a);
        }
        ValueKind::Binary(op, a, b) => {
            w.put_u8(3);
            w.put_u8(bin_op_code(*op));
            put_value_id(w, *a);
            put_value_id(w, *b);
        }
        ValueKind::Phi { block, var } => {
            w.put_u8(4);
            put_block_id(w, *block);
            put_u32_id(w, var.index());
        }
        ValueKind::Load { array, index } => {
            w.put_u8(5);
            put_u32_id(w, array.index());
            put_value_id(w, *index);
        }
        ValueKind::ReadInput { seq } => {
            w.put_u8(6);
            w.put_u32(*seq);
        }
        ValueKind::CallDef { site, callee, var } => {
            w.put_u8(7);
            put_u32_id(w, site.index());
            put_u32_id(w, callee.index());
            put_u32_id(w, var.index());
        }
    }
}

fn get_value_kind(r: &mut Reader<'_>) -> WireResult<ValueKind> {
    Ok(match r.get_u8()? {
        0 => ValueKind::Entry {
            var: VarId::from(r.get_u32()? as usize),
        },
        1 => ValueKind::Const(r.get_i64()?),
        2 => {
            let op = un_op_from(r.get_u8()?)?;
            ValueKind::Unary(op, get_value_id(r)?)
        }
        3 => {
            let op = bin_op_from(r.get_u8()?)?;
            ValueKind::Binary(op, get_value_id(r)?, get_value_id(r)?)
        }
        4 => ValueKind::Phi {
            block: get_block_id(r)?,
            var: VarId::from(r.get_u32()? as usize),
        },
        5 => ValueKind::Load {
            array: VarId::from(r.get_u32()? as usize),
            index: get_value_id(r)?,
        },
        6 => ValueKind::ReadInput { seq: r.get_u32()? },
        7 => ValueKind::CallDef {
            site: CallSiteId::from(r.get_u32()? as usize),
            callee: ProcId::from(r.get_u32()? as usize),
            var: VarId::from(r.get_u32()? as usize),
        },
        _ => return Err(WireError),
    })
}

fn put_value_ids(w: &mut Writer, vs: &[ValueId]) {
    put_vec(w, vs, |w, &v| put_value_id(w, v));
}

fn get_value_ids(r: &mut Reader<'_>) -> WireResult<Vec<ValueId>> {
    get_vec(r, 4, get_value_id)
}

fn put_stmt_info(w: &mut Writer, s: StmtInfo<'_>) {
    match s {
        StmtInfo::Assign { value, use_vals } => {
            w.put_u8(0);
            put_value_id(w, value);
            put_value_ids(w, use_vals);
        }
        StmtInfo::Store {
            index,
            value,
            use_vals,
        } => {
            w.put_u8(1);
            put_value_id(w, index);
            put_value_id(w, value);
            put_value_ids(w, use_vals);
        }
        StmtInfo::Read { def } => {
            w.put_u8(2);
            put_value_id(w, def);
        }
        StmtInfo::Print { value, use_vals } => {
            w.put_u8(3);
            put_value_id(w, value);
            put_value_ids(w, use_vals);
        }
        StmtInfo::Call {
            site,
            arg_vals,
            defs,
            use_vals,
            global_pre,
        } => {
            w.put_u8(4);
            put_u32_id(w, site.index());
            put_vec(w, arg_vals, |w, v| {
                put_opt(w, v, |w, &x| put_value_id(w, x));
            });
            put_vec(w, defs, |w, &(var, val)| {
                put_u32_id(w, var.index());
                put_value_id(w, val);
            });
            put_value_ids(w, use_vals);
            put_value_ids(w, global_pre);
        }
    }
}

/// Decodes one statement annotation straight into `asm`'s open block.
fn get_stmt_info(r: &mut Reader<'_>, asm: &mut SsaAssembler) -> WireResult<()> {
    match r.get_u8()? {
        0 => {
            let value = get_value_id(r)?;
            let use_vals = get_value_ids(r)?;
            asm.push_stmt(StmtInfo::Assign {
                value,
                use_vals: &use_vals,
            });
        }
        1 => {
            let index = get_value_id(r)?;
            let value = get_value_id(r)?;
            let use_vals = get_value_ids(r)?;
            asm.push_stmt(StmtInfo::Store {
                index,
                value,
                use_vals: &use_vals,
            });
        }
        2 => asm.push_stmt(StmtInfo::Read {
            def: get_value_id(r)?,
        }),
        3 => {
            let value = get_value_id(r)?;
            let use_vals = get_value_ids(r)?;
            asm.push_stmt(StmtInfo::Print {
                value,
                use_vals: &use_vals,
            });
        }
        4 => {
            let site = CallSiteId::from(r.get_u32()? as usize);
            let arg_vals = get_vec(r, 1, |r| get_opt(r, get_value_id))?;
            let defs = get_vec(r, 8, |r| {
                Ok((VarId::from(r.get_u32()? as usize), get_value_id(r)?))
            })?;
            let use_vals = get_value_ids(r)?;
            let global_pre = get_value_ids(r)?;
            asm.push_stmt(StmtInfo::Call {
                site,
                arg_vals: &arg_vals,
                defs: &defs,
                use_vals: &use_vals,
                global_pre: &global_pre,
            });
        }
        _ => return Err(WireError),
    }
    Ok(())
}

fn put_ssa_block(w: &mut Writer, ssa: &SsaProc, b: BlockId) {
    put_value_ids(w, ssa.phis(b));
    let stmts = ssa.stmts(b);
    w.put_len(stmts.len());
    for s in stmts {
        put_stmt_info(w, s);
    }
    put_opt(w, &ssa.term_cond(b), |w, &v| put_value_id(w, v));
    put_value_ids(w, ssa.term_use_vals(b));
}

fn get_ssa_block(r: &mut Reader<'_>, asm: &mut SsaAssembler) -> WireResult<()> {
    asm.begin_block(&get_value_ids(r)?);
    for _ in 0..r.get_len(1)? {
        get_stmt_info(r, asm)?;
    }
    let term_cond = get_opt(r, get_value_id)?;
    asm.end_block(term_cond, &get_value_ids(r)?);
    Ok(())
}

fn put_dom_tree(w: &mut Writer, dom: &DomTree) {
    let parts = dom.to_parts();
    put_vec(w, &parts.idom, |w, v| {
        put_opt(w, v, |w, &b| put_block_id(w, b));
    });
    put_vec(w, &parts.children, |w, kids| {
        put_vec(w, kids, |w, &b| put_block_id(w, b));
    });
    put_vec(w, &parts.rpo, |w, &b| put_block_id(w, b));
    put_vec(w, &parts.rpo_pos, |w, &p| put_usize(w, p));
    put_block_id(w, parts.entry);
}

fn get_dom_tree(r: &mut Reader<'_>) -> WireResult<DomTree> {
    let parts = DomTreeParts {
        idom: get_vec(r, 1, |r| get_opt(r, get_block_id))?,
        children: get_vec(r, 8, |r| get_vec(r, 4, get_block_id))?,
        rpo: get_vec(r, 4, get_block_id)?,
        rpo_pos: get_vec(r, 8, |r| get_usize(r))?,
        entry: get_block_id(r)?,
    };
    DomTree::from_parts(parts).ok_or(WireError)
}

fn put_ssa_proc(w: &mut Writer, ssa: &SsaProc) {
    put_u32_id(w, ssa.proc.index());
    put_vec(w, &ssa.values, put_value_kind);
    w.put_len(ssa.len());
    for v in 0..ssa.len() {
        put_vec(w, ssa.phi_args(ValueId::from(v)), |w, &(b, v)| {
            put_block_id(w, b);
            put_value_id(w, v);
        });
    }
    w.put_len(ssa.n_blocks());
    for b in 0..ssa.n_blocks() {
        put_ssa_block(w, ssa, BlockId::from(b));
    }
    put_dom_tree(w, &ssa.dom);
    put_vec(w, &ssa.entry_vals, |w, v| {
        put_opt(w, v, |w, &x| put_value_id(w, x));
    });
    let exits = ssa.exits();
    w.put_len(exits.len());
    for (b, vals) in exits {
        put_block_id(w, b);
        put_vec(w, vals, |w, v| put_opt(w, v, |w, &x| put_value_id(w, x)));
    }
    put_vec(w, &ssa.call_sites, |w, site| {
        put_opt(w, site, |w, &(b, i)| {
            put_block_id(w, b);
            put_usize(w, i);
        });
    });
}

fn get_ssa_proc(r: &mut Reader<'_>) -> WireResult<SsaProc> {
    let proc = ProcId::from(r.get_u32()? as usize);
    let mut asm = SsaAssembler::new(proc, get_vec(r, 1, get_value_kind)?);
    for _ in 0..r.get_len(8)? {
        asm.push_phi_args(&get_vec(r, 8, |r| {
            Ok((get_block_id(r)?, get_value_id(r)?))
        })?);
    }
    for _ in 0..r.get_len(1)? {
        get_ssa_block(r, &mut asm)?;
    }
    let dom = get_dom_tree(r)?;
    let entry_vals = get_vec(r, 1, |r| get_opt(r, get_value_id))?;
    for _ in 0..r.get_len(12)? {
        let b = get_block_id(r)?;
        asm.push_exit(b, &get_vec(r, 1, |r| get_opt(r, get_value_id))?);
    }
    let call_sites = get_vec(r, 1, |r| {
        get_opt(r, |r| Ok((get_block_id(r)?, get_usize(r)?)))
    })?;
    asm.finish(dom, entry_vals, call_sites).ok_or(WireError)
}

fn put_sym_val(w: &mut Writer, v: &SymVal) {
    match v {
        SymVal::Top => w.put_u8(0),
        SymVal::Poly(p) => {
            w.put_u8(1);
            put_poly(w, p);
        }
        SymVal::Bottom => w.put_u8(2),
    }
}

fn get_sym_val(r: &mut Reader<'_>) -> WireResult<SymVal> {
    Ok(match r.get_u8()? {
        0 => SymVal::Top,
        1 => SymVal::Poly(get_poly(r)?),
        2 => SymVal::Bottom,
        _ => return Err(WireError),
    })
}

fn put_symbolic(w: &mut Writer, s: &Symbolic) {
    put_vec(w, &s.values, put_sym_val);
    put_vec(w, &s.slot_of_var, |w, v| {
        put_opt(w, v, |w, &x| w.put_u32(x));
    });
}

fn get_symbolic(r: &mut Reader<'_>) -> WireResult<Symbolic> {
    Ok(Symbolic {
        values: get_vec(r, 1, get_sym_val)?,
        slot_of_var: get_vec(r, 1, |r| get_opt(r, |r| r.get_u32()))?,
    })
}

fn put_lattice(w: &mut Writer, v: Lattice) {
    match v {
        Lattice::Top => w.put_u8(0),
        Lattice::Const(c) => {
            w.put_u8(1);
            w.put_i64(c);
        }
        Lattice::Bottom => w.put_u8(2),
    }
}

fn get_lattice(r: &mut Reader<'_>) -> WireResult<Lattice> {
    Ok(match r.get_u8()? {
        0 => Lattice::Top,
        1 => Lattice::Const(r.get_i64()?),
        2 => Lattice::Bottom,
        _ => return Err(WireError),
    })
}

fn put_sccp(w: &mut Writer, s: &SccpResult) {
    put_vec(w, &s.values, |w, &v| put_lattice(w, v));
    put_bools(w, s.block_exec.iter().copied());
    // Canonical order for the edge set so equal results encode equally.
    let mut edges: Vec<(BlockId, BlockId)> = s.edge_exec.iter().copied().collect();
    edges.sort_unstable_by_key(|&(a, b)| (a.index(), b.index()));
    put_vec(w, &edges, |w, &(a, b)| {
        put_block_id(w, a);
        put_block_id(w, b);
    });
}

fn get_sccp(r: &mut Reader<'_>) -> WireResult<SccpResult> {
    let values = get_vec(r, 1, get_lattice)?;
    let block_exec = get_bools(r)?;
    let edges = get_vec(r, 8, |r| Ok((get_block_id(r)?, get_block_id(r)?)))?;
    let mut edge_exec = HashSet::with_capacity(edges.len());
    for e in edges {
        edge_exec.insert(e);
    }
    Ok(SccpResult {
        values,
        block_exec,
        edge_exec,
    })
}

/// Encodes a full [`ProcSymbolic`] (SSA form, symbolic evaluation, and
/// the optional SCCP gate).
pub fn put_proc_symbolic(w: &mut Writer, ps: &ProcSymbolic) {
    put_ssa_proc(w, &ps.ssa);
    put_symbolic(w, &ps.sym);
    put_opt(w, &ps.gate, put_sccp);
}

/// Decodes a full [`ProcSymbolic`].
pub fn get_proc_symbolic(r: &mut Reader<'_>) -> WireResult<ProcSymbolic> {
    Ok(ProcSymbolic {
        ssa: get_ssa_proc(r)?,
        sym: get_symbolic(r)?,
        gate: get_opt(r, get_sccp)?,
    })
}

/// The stable tag byte of a summary family.
pub fn stage_code(stage: SummaryStage) -> u8 {
    match stage {
        SummaryStage::ModRef => 0,
        SummaryStage::RetJump => 1,
        SummaryStage::Jump => 2,
    }
}

/// Decodes a summary-family tag byte.
pub fn stage_from(code: u8) -> WireResult<SummaryStage> {
    Ok(match code {
        0 => SummaryStage::ModRef,
        1 => SummaryStage::RetJump,
        2 => SummaryStage::Jump,
        _ => return Err(WireError),
    })
}

/// Encodes one cached summary payload (the key travels separately in
/// the store record header).
pub fn put_summary(w: &mut Writer, s: &CachedSummary) {
    match s {
        CachedSummary::ModRef { mods, refs } => {
            w.put_u8(0);
            put_mod_set(w, mods);
            put_mod_set(w, refs);
        }
        CachedSummary::RetJump { fns, charges } => {
            w.put_u8(1);
            put_vec(w, fns, put_jump_fn);
            put_charges(w, charges);
        }
        CachedSummary::Jump { sym } => {
            w.put_u8(2);
            put_proc_symbolic(w, sym);
        }
    }
}

/// Decodes one cached summary payload. The payload tag must agree with
/// `stage` — a record whose key names one family but whose payload is
/// another is corrupt.
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
        SummaryStage::Jump => CachedSummary::Jump {
            sym: std::sync::Arc::new(get_proc_symbolic(r)?),
        },
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
        assert_eq!(get_value_ids(&mut r), Err(WireError));
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
        let c: Charges = [1, 2, 3, 4, 5, 6, 7];
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
    fn every_op_code_round_trips() {
        for code in 0..13u8 {
            let op = bin_op_from(code).expect("valid code");
            assert_eq!(bin_op_code(op), code);
        }
        assert_eq!(bin_op_from(13), Err(WireError));
        for code in 0..2u8 {
            let op = un_op_from(code).expect("valid code");
            assert_eq!(un_op_code(op), code);
        }
        assert_eq!(un_op_from(2), Err(WireError));
    }

    #[test]
    fn sym_val_and_lattice_round_trip() {
        for v in [SymVal::Top, SymVal::Poly(poly_xy_plus_7()), SymVal::Bottom] {
            assert_eq!(round_trip(&v, put_sym_val, get_sym_val), v);
        }
        for v in [Lattice::Top, Lattice::Const(-1), Lattice::Bottom] {
            assert_eq!(round_trip(&v, |w, &x| put_lattice(w, x), get_lattice), v);
        }
    }

    #[test]
    fn truncated_summaries_fail_cleanly() {
        let mut w = Writer::new();
        put_summary(
            &mut w,
            &CachedSummary::RetJump {
                fns: vec![JumpFn::Const(1), JumpFn::Bottom],
                charges: [0; 7],
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
    }
}
