//! Grammar-aware source mutations for fuzzing.
//!
//! Unlike byte-level fuzzing, these mutations usually produce programs
//! that *parse*, driving faults deep into the analysis instead of
//! bouncing off the frontend. They were grown inside `tests/robustness.rs`
//! and `tests/parallel.rs`; the property harness ([`crate::prop`]) and the
//! tests now share this one copy.

use crate::rng::Rng;

/// Swaps one arithmetic operator for another — the program stays
/// syntactically valid but computes something else.
pub fn swap_operator(src: &str, rng: &mut Rng) -> String {
    const OPS: &[u8] = b"+-*";
    let positions: Vec<usize> = src
        .bytes()
        .enumerate()
        .filter(|(_, b)| OPS.contains(b))
        .map(|(i, _)| i)
        .collect();
    if positions.is_empty() {
        return src.to_string();
    }
    let mut bytes = src.as_bytes().to_vec();
    bytes[positions[rng.below(positions.len() as u64) as usize]] =
        OPS[rng.below(OPS.len() as u64) as usize];
    // ASCII in, ASCII out; fall back to the original on the impossible.
    String::from_utf8(bytes).unwrap_or_else(|_| src.to_string())
}

/// Copies a `;`-terminated statement to a random other position —
/// typically into a *different* procedure, where its variables may be
/// undefined or shadow locals.
pub fn splice_statement(src: &str, rng: &mut Rng) -> String {
    let semis: Vec<usize> = src
        .char_indices()
        .filter(|&(_, c)| c == ';')
        .map(|(i, _)| i)
        .collect();
    if semis.len() < 2 {
        return src.to_string();
    }
    let pick = semis[rng.below(semis.len() as u64) as usize];
    let start = src[..pick].rfind(['{', ';']).map_or(0, |i| i + 1);
    let stmt = src[start..=pick].to_string();
    let dest = semis[rng.below(semis.len() as u64) as usize];
    let mut out = src.to_string();
    out.insert_str(dest + 1, &stmt);
    out
}

/// Adds 1 to 3 to one integer literal — the edit the serve benchmark
/// times: the program keeps its shape and its calls, and a value that
/// may or may not reach a callee or a return moves.
pub fn bump_literal(src: &str, rng: &mut Rng) -> String {
    let bytes = src.as_bytes();
    let starts: Vec<usize> = (0..bytes.len())
        .filter(|&i| {
            bytes[i].is_ascii_digit()
                && (i == 0 || !(bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_'))
        })
        .collect();
    if starts.is_empty() {
        return src.to_string();
    }
    let at = starts[rng.below(starts.len() as u64) as usize];
    let len = bytes[at..]
        .iter()
        .take_while(|b| b.is_ascii_digit())
        .count();
    let Ok(value) = src[at..at + len].parse::<i64>() else {
        return src.to_string();
    };
    let bumped = value.saturating_add(1 + rng.below(3) as i64);
    format!("{}{bumped}{}", &src[..at], &src[at + len..])
}

/// Assigns `global` a literal at the top of the first procedure body in
/// `src`, so that procedure's direct MOD set gains the global (unless a
/// formal or local of the same name shadows it).
pub fn add_global_write(src: &str, global: &str, rng: &mut Rng) -> String {
    let Some(open) = src.find('{') else {
        return src.to_string();
    };
    let value = rng.below(100);
    format!("{} {global} = {value};{}", &src[..=open], &src[open + 1..])
}

/// Passes `global` by reference in place of one actual at a random call
/// site, preferring an actual that is already a bare variable: the call
/// edges and, for such an actual, the caller's direct effects stay the
/// same, while what a callee's formal effects reach in the caller moves.
pub fn bind_global_by_reference(src: &str, global: &str, rng: &mut Rng) -> String {
    let actuals = call_actuals(src);
    let bare: Vec<(usize, usize)> = actuals
        .iter()
        .copied()
        .filter(|&(lo, hi)| {
            let a = &src[lo..hi];
            a.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_')
                && a.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
        })
        .collect();
    let pool = if bare.is_empty() { &actuals } else { &bare };
    if pool.is_empty() {
        return src.to_string();
    }
    let (lo, hi) = pool[rng.below(pool.len() as u64) as usize];
    format!("{}{global}{}", &src[..lo], &src[hi..])
}

/// Rewrites one call's actual argument: a literal becomes another literal
/// or a variable the text assigns, and anything else becomes a literal.
/// The call edges and arities stay, while the value the call transmits —
/// and so `VAL` below the call — moves.
pub fn perturb_actual(src: &str, rng: &mut Rng) -> String {
    let actuals = call_actuals(src);
    if actuals.is_empty() {
        return src.to_string();
    }
    let (lo, hi) = actuals[rng.below(actuals.len() as u64) as usize];
    let assigned = assigned_names(src);
    let new = match src[lo..hi].parse::<i64>() {
        Ok(_) if !assigned.is_empty() && rng.below(2) == 0 => {
            assigned[rng.below(assigned.len() as u64) as usize].to_string()
        }
        Ok(value) => value.saturating_add(1 + rng.below(5) as i64).to_string(),
        Err(_) => rng.below(50).to_string(),
    };
    format!("{}{new}{}", &src[..lo], &src[hi..])
}

/// The names `src` assigns with `name = ...`, in order of first
/// assignment.
fn assigned_names(src: &str) -> Vec<&str> {
    let mut names: Vec<&str> = Vec::new();
    for (at, _) in src.match_indices(" = ") {
        let head = &src[..at];
        let start = head
            .rfind(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .map_or(0, |i| i + 1);
        let name = &head[start..];
        if name.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_') && !names.contains(&name)
        {
            names.push(name);
        }
    }
    names
}

/// The byte ranges of every call's actuals in `src`, each trimmed of
/// surrounding blanks.
fn call_actuals(src: &str) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (at, _) in src.match_indices("call ") {
        let Some(open) = src[at..].find('(').map(|i| at + i) else {
            continue;
        };
        let mut depth = 0i32;
        let mut start = open + 1;
        for (i, c) in src[open..].char_indices() {
            let i = open + i;
            match c {
                '(' => depth += 1,
                ')' | ',' if depth == 1 => {
                    let arg = &src[start..i];
                    let lead = arg.len() - arg.trim_start().len();
                    if !arg.trim().is_empty() {
                        out.push((start + lead, start + lead + arg.trim().len()));
                    }
                    start = i + 1;
                    if c == ')' {
                        break;
                    }
                }
                ')' => depth -= 1,
                _ => {}
            }
        }
    }
    out
}

/// Adds or drops one argument at a random call site, so formal/actual
/// arity no longer matches the callee.
pub fn perturb_call_arity(src: &str, rng: &mut Rng) -> String {
    let calls: Vec<usize> = src.match_indices("call ").map(|(i, _)| i).collect();
    if calls.is_empty() {
        return src.to_string();
    }
    let at = calls[rng.below(calls.len() as u64) as usize];
    let Some(open) = src[at..].find('(').map(|i| at + i) else {
        return src.to_string();
    };
    let mut depth = 0i32;
    let mut close = None;
    for (i, c) in src[open..].char_indices() {
        match c {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    close = Some(open + i);
                    break;
                }
            }
            _ => {}
        }
    }
    let Some(close) = close else {
        return src.to_string();
    };
    let args = &src[open + 1..close];
    let new_args = if args.trim().is_empty() {
        "7".to_string()
    } else if rng.below(2) == 0 {
        format!("{args}, 7")
    } else {
        // Drop the last top-level argument.
        let mut depth = 0i32;
        let mut cut = None;
        for (i, c) in args.char_indices() {
            match c {
                '(' => depth += 1,
                ')' => depth -= 1,
                ',' if depth == 0 => cut = Some(i),
                _ => {}
            }
        }
        cut.map_or(String::new(), |i| args[..i].to_string())
    };
    format!("{}{}{}", &src[..=open], new_args, &src[close..])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenConfig};

    #[test]
    fn mutations_are_deterministic_under_a_fixed_seed() {
        let base = generate(&GenConfig::default(), 7);
        for f in [
            swap_operator,
            splice_statement,
            perturb_call_arity,
            perturb_actual,
        ] {
            let a = f(&base, &mut Rng::new(99));
            let b = f(&base, &mut Rng::new(99));
            assert_eq!(a, b);
        }
    }

    #[test]
    fn mutations_change_something_on_generated_programs() {
        let base = generate(&GenConfig::default(), 3);
        let mut rng = Rng::new(5);
        assert_ne!(swap_operator(&base, &mut rng), base.as_str());
        assert_ne!(splice_statement(&base, &mut rng), base.as_str());
        assert_ne!(perturb_call_arity(&base, &mut rng), base.as_str());
    }

    #[test]
    fn a_global_replaces_one_bare_actual() {
        let src = "proc main() { call f(1 + x, y, (2)); }";
        let got = bind_global_by_reference(src, "g", &mut Rng::new(4));
        assert_eq!(got, "proc main() { call f(1 + x, g, (2)); }");
        let src = "proc main() { call f(1, (x)); }";
        let got = bind_global_by_reference(src, "g", &mut Rng::new(4));
        assert!(got.contains("call f(g, (x))") || got.contains("call f(1, g)"));
    }

    #[test]
    fn an_actual_moves_between_literals_and_variables() {
        let src = "proc p(a) { v = 2; call f(3, a); }";
        let outs: Vec<String> = (0..32)
            .map(|k| perturb_actual(src, &mut Rng::new(k)))
            .collect();
        for out in &outs {
            assert_ne!(out, src);
            assert!(out.starts_with("proc p(a) { v = 2; call f("), "{out}");
        }
        assert!(outs.iter().any(|o| o.contains("call f(v, a)")));
        assert!(outs
            .iter()
            .any(|o| o.contains("call f(3, ") && !o.contains(", a)")));
        assert!(outs.iter().any(|o| {
            let n: Option<i64> = o
                .split("call f(")
                .nth(1)
                .and_then(|r| r.split(',').next()?.parse().ok());
            n.is_some_and(|n| n > 3)
        }));
        assert_eq!(perturb_actual("no calls", &mut Rng::new(1)), "no calls");
    }

    #[test]
    fn degenerate_inputs_pass_through() {
        let mut rng = Rng::new(1);
        assert_eq!(swap_operator("", &mut rng), "");
        assert_eq!(splice_statement(";", &mut rng), ";");
        assert_eq!(
            perturb_call_arity("no calls here", &mut rng),
            "no calls here"
        );
    }
}
