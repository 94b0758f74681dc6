//! Golden digests of every procedure's SSA form and symbolic evaluation,
//! and their round trip through the summary store's codec.
//!
//! For each suite program and the 1k scale tier, under the default and
//! the pruned-SSA configurations, the test encodes every reachable
//! procedure's committed form with `serve::wire::put_proc_symbolic` and
//! hashes the bytes in procedure order. The encoding carries SSA value
//! numbering, phi and statement operand order, the dominator tree, exit
//! snapshots and every `SymVal`, so a change to how SSA is built or how
//! values are represented that moves any of them moves a digest. The
//! summary store persists exactly these bytes, which is why its format
//! version can stay as it is while the digests hold.
//!
//! The expected digests were produced by the nested-vector SSA layout and
//! the map-only `Poly`, so they hold the dense representations to the
//! same bytes. Regenerate them only for an intended change of SSA
//! numbering, operand order or the encoding, and say why in that change.

use ipcp::serve::wire::{get_proc_symbolic, put_proc_symbolic, Reader, Writer};
use ipcp::{Analysis, Config};
use ipcp_ir::{lower_module, parse_and_resolve, ModuleCfg};
use ipcp_suite::{generate_scale, ScaleSpec, PROGRAMS};

/// `(program, configuration, FNV-1a-64 of the concatenated encodings)`.
const EXPECTED: &[(&str, &str, u64)] = &[
    ("adm", "default", 0xa72990d4689b41ac),
    ("adm", "pruned", 0x518e3e16c1a11754),
    ("doduc", "default", 0x7c02a4f09c4c59aa),
    ("doduc", "pruned", 0x7c02a4f09c4c59aa),
    ("fpppp", "default", 0x3e7763300edccb84),
    ("fpppp", "pruned", 0x3e7763300edccb84),
    ("linpackd", "default", 0x2647621701301f19),
    ("linpackd", "pruned", 0x2647621701301f19),
    ("matrix300", "default", 0x6b3b8a8517dd4dd9),
    ("matrix300", "pruned", 0x6b3b8a8517dd4dd9),
    ("mdg", "default", 0x2f59c2368e3936f1),
    ("mdg", "pruned", 0x2f59c2368e3936f1),
    ("ocean", "default", 0xb9c4be6d6004fbaa),
    ("ocean", "pruned", 0xb9c4be6d6004fbaa),
    ("qcd", "default", 0x01a2d8ff6bd1f513),
    ("qcd", "pruned", 0x01a2d8ff6bd1f513),
    ("simple", "default", 0xf3d580b7aa32da7a),
    ("simple", "pruned", 0xf3d580b7aa32da7a),
    ("snasa7", "default", 0x0805ff8c11f95fca),
    ("snasa7", "pruned", 0x0805ff8c11f95fca),
    ("spec77", "default", 0x53ab6c3dc83b2520),
    ("spec77", "pruned", 0x53ab6c3dc83b2520),
    ("trfd", "default", 0xed13b5c16cfa2166),
    ("trfd", "pruned", 0xed13b5c16cfa2166),
    ("poly_demo", "default", 0xbe984f5b150e8d64),
    ("poly_demo", "pruned", 0xbe984f5b150e8d64),
    ("scale-1k", "default", 0x8a1fc1b027928781),
    ("scale-1k", "pruned", 0x72fa9ea47fd3a9f7),
];

fn configs() -> Vec<(&'static str, Config)> {
    vec![
        ("default", Config::default()),
        (
            "pruned",
            Config::builder()
                .pruned_ssa(true)
                .build()
                .expect("valid combination"),
        ),
    ]
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// The digest of every reachable procedure's encoded form, in order.
fn digest(mcfg: &ModuleCfg, config: &Config) -> u64 {
    let a = Analysis::run(mcfg, config);
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for (pi, ps) in a.symbolics.iter().enumerate() {
        if !a.cg.reachable[pi] {
            continue;
        }
        let ps = ps
            .as_ref()
            .unwrap_or_else(|| panic!("reachable proc {pi} has no form"));
        let mut w = Writer::new();
        put_proc_symbolic(&mut w, ps);
        let bytes = w.into_bytes();
        // The store decodes what it encoded: same form, same bytes again.
        let back = get_proc_symbolic(&mut Reader::new(&bytes))
            .unwrap_or_else(|_| panic!("proc {pi}'s encoding decodes"));
        assert_eq!(&back, &**ps, "proc {pi} round trip");
        let mut again = Writer::new();
        put_proc_symbolic(&mut again, &back);
        assert_eq!(again.into_bytes(), bytes, "proc {pi} re-encoding");
        fnv1a(&mut hash, &(bytes.len() as u64).to_le_bytes());
        fnv1a(&mut hash, &bytes);
    }
    hash
}

fn programs() -> Vec<(String, ModuleCfg)> {
    let mut out: Vec<(String, ModuleCfg)> = PROGRAMS
        .iter()
        .map(|p| {
            let m = parse_and_resolve(p.source).expect("suite program resolves");
            (p.name.to_string(), lower_module(&m))
        })
        .collect();
    let spec = ScaleSpec::parse("procs=1k,shape=mixed,recursion=8,seed=101").unwrap();
    let m = parse_and_resolve(&generate_scale(&spec)).expect("1k tier resolves");
    out.push(("scale-1k".to_string(), lower_module(&m)));
    out
}

#[test]
fn encoded_forms_match_the_recorded_digests() {
    let mut actual = Vec::new();
    for (name, mcfg) in programs() {
        for (cname, config) in configs() {
            actual.push((name.clone(), cname, digest(&mcfg, &config)));
        }
    }
    let mismatches: Vec<String> = actual
        .iter()
        .filter(|(n, c, d)| {
            !EXPECTED
                .iter()
                .any(|(en, ec, ed)| en == n && ec == c && ed == d)
        })
        .map(|(n, c, d)| format!("    (\"{n}\", \"{c}\", {d:#018x}),"))
        .collect();
    assert_eq!(
        actual.len(),
        EXPECTED.len(),
        "digest table size differs; actual digests:\n{}",
        mismatches.join("\n")
    );
    assert!(
        mismatches.is_empty(),
        "encoded SSA/symbolic forms moved:\n{}",
        mismatches.join("\n")
    );
}
