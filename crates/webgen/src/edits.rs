//! Deterministic edit operations over generated benchmark sources: the
//! edit chains a daemon workload replays to model a developer saving
//! successive versions of one program.
//!
//! Each operation takes a jweb source and a seed and produces an edited
//! source (or `None` when the operation does not apply, e.g. removing a
//! class from a program that has none left). Operations target the
//! filler code emitted by [`crate::generate`], whose shape is stable:
//! every filler class carries a chain of `method int m<k>(int depth)`
//! methods, so the edits land on known lines without a parser.
//!
//! The operations cover the usual kinds of source change:
//!
//! - [`EditKind::Comment`] — textual change, no method changes;
//! - [`EditKind::Body`] — one method body changes;
//! - [`EditKind::AddClass`] — methods appear;
//! - [`EditKind::RemoveClass`] — methods disappear;
//! - [`EditKind::Signature`] — a method's arity changes, and the in-class
//!   caller is patched to match (so the edit is a genuine multi-method
//!   change).
//!
//! Everything here is deterministic in `(source, kind, seed)` — replays
//! of one seed send identical edit sequences.

use std::fmt;

/// One kind of structural edit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EditKind {
    /// Append a trailing comment: no method changes at all.
    Comment,
    /// Insert a statement into one filler method body.
    Body,
    /// Append a new `Pad<seed>` class with a small method chain.
    AddClass,
    /// Remove the last filler (or previously added pad) class.
    RemoveClass,
    /// Add a parameter to one filler method, patching its caller.
    Signature,
}

/// Every edit kind, in the order the robustness tests cycle through.
pub const EDIT_KINDS: [EditKind; 5] = [
    EditKind::Comment,
    EditKind::Body,
    EditKind::AddClass,
    EditKind::RemoveClass,
    EditKind::Signature,
];

impl fmt::Display for EditKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            EditKind::Comment => "comment",
            EditKind::Body => "body",
            EditKind::AddClass => "add-class",
            EditKind::RemoveClass => "remove-class",
            EditKind::Signature => "signature",
        };
        f.write_str(name)
    }
}

/// Applies `kind` to `source`, deterministically in `seed`. Returns
/// `None` when the operation has no target in this source (no filler
/// methods for [`EditKind::Body`]/[`EditKind::Signature`], no removable
/// class for [`EditKind::RemoveClass`]).
pub fn apply_edit(source: &str, kind: EditKind, seed: u64) -> Option<String> {
    match kind {
        EditKind::Comment => Some(format!("{source}\n// inert edit {seed}\n")),
        EditKind::Body => edit_body(source, seed),
        EditKind::AddClass => Some(add_class(source, seed)),
        EditKind::RemoveClass => remove_class(source),
        EditKind::Signature => edit_signature(source, seed),
    }
}

/// Applies a `steps`-long deterministic edit chain, each step editing
/// the previous step's output. Steps whose kind does not apply are
/// skipped (the chain records only applied edits), so the result can be
/// shorter than `steps` on degenerate sources.
pub fn edit_chain(source: &str, seed: u64, steps: usize) -> Vec<(EditKind, String)> {
    let mut chain = Vec::new();
    let mut current = source.to_string();
    for i in 0..steps {
        // xorshift over the seed so consecutive steps decorrelate which
        // method/class each edit lands on.
        let step_seed = {
            let mut x = seed.wrapping_add(i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let kind = EDIT_KINDS[(step_seed % EDIT_KINDS.len() as u64) as usize];
        if let Some(edited) = apply_edit(&current, kind, step_seed) {
            current = edited;
            chain.push((kind, current.clone()));
        }
    }
    chain
}

/// Line index and chain position `k` of every filler-method header
/// `method int m<k>(int depth) {`.
fn filler_headers(lines: &[&str]) -> Vec<(usize, usize)> {
    let mut headers = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let t = line.trim_start();
        if let Some(rest) = t.strip_prefix("method int m") {
            if let Some(end) = rest.find('(') {
                if rest[end..].starts_with("(int depth) {") {
                    if let Ok(k) = rest[..end].parse::<usize>() {
                        headers.push((i, k));
                    }
                }
            }
        }
    }
    headers
}

fn join_lines(lines: &[String], trailing_newline: bool) -> String {
    let mut out = lines.join("\n");
    if trailing_newline {
        out.push('\n');
    }
    out
}

fn edit_body(source: &str, seed: u64) -> Option<String> {
    let lines: Vec<&str> = source.lines().collect();
    let headers = filler_headers(&lines);
    let (line_idx, _) = *headers.get(seed as usize % headers.len().max(1))?;
    let mut out: Vec<String> = lines.iter().map(|s| s.to_string()).collect();
    out.insert(line_idx + 1, format!("        int e{seed} = depth + {};", seed % 7));
    Some(join_lines(&out, source.ends_with('\n')))
}

fn add_class(source: &str, seed: u64) -> String {
    format!(
        "{source}\nclass Pad{seed} {{\n    field int v;\n    \
         method int pad0(int x) {{ return x + 1; }}\n    \
         method int pad1(int x) {{ return this.pad0(x) + {}; }}\n}}\n",
        seed % 9
    )
}

/// Removes the last removable class: a `Pad<seed>` class appended by
/// [`EditKind::AddClass`] if one exists, else the last filler pair
/// (`Filler<i>State` + `Filler<i>`), which nothing else references.
fn remove_class(source: &str) -> Option<String> {
    let lines: Vec<&str> = source.lines().collect();
    // The emitters put a blank separator line before each class; remove
    // it with the class so an add-then-remove round-trips byte-exactly.
    let block_start = |start: usize| {
        if start > 0 && lines[start - 1].is_empty() {
            start - 1
        } else {
            start
        }
    };
    // Prefer a pad class: one block, ends at the next column-0 `}`.
    if let Some(start) = lines.iter().rposition(|l| l.starts_with("class Pad")) {
        let end = (start..lines.len()).find(|&i| lines[i] == "}")?;
        let mut out: Vec<String> = lines.iter().map(|s| s.to_string()).collect();
        out.drain(block_start(start)..=end);
        return Some(join_lines(&out, source.ends_with('\n')));
    }
    // Else the last filler pair: from `class Filler<i>State {` through
    // the *second* column-0 `}` (the state class close, then the
    // servlet class close).
    let start = lines
        .iter()
        .rposition(|l| l.starts_with("class Filler") && l.trim_end().ends_with("State {"))?;
    let mut closes = (start..lines.len()).filter(|&i| lines[i] == "}");
    let _state_close = closes.next()?;
    let servlet_close = closes.next()?;
    let mut out: Vec<String> = lines.iter().map(|s| s.to_string()).collect();
    out.drain(block_start(start)..=servlet_close);
    Some(join_lines(&out, source.ends_with('\n')))
}

fn edit_signature(source: &str, seed: u64) -> Option<String> {
    let lines: Vec<&str> = source.lines().collect();
    // Only methods with an in-class caller (k >= 1): the caller is
    // patched in the same edit, keeping the program well-formed.
    let headers: Vec<(usize, usize)> =
        filler_headers(&lines).into_iter().filter(|&(_, k)| k >= 1).collect();
    let (line_idx, k) = *headers.get(seed as usize % headers.len().max(1))?;
    let mut out: Vec<String> = lines.iter().map(|s| s.to_string()).collect();
    out[line_idx] = out[line_idx].replace("(int depth) {", "(int depth, int extra) {");
    // The caller `return this.m<k>(depth + 1);` sits in m<k-1>, the
    // nearest such line above the header — the generator emits the
    // chain in order, so a backward scan stays inside this class.
    let call = format!("return this.m{k}(depth + 1);");
    let caller_idx = (0..line_idx).rev().find(|&i| lines[i].trim() == call)?;
    out[caller_idx] = out[caller_idx].replace(&call, &format!("return this.m{k}(depth + 1, 0);"));
    Some(join_lines(&out, source.ends_with('\n')))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate, standard_mix, BenchmarkSpec};

    fn base_source() -> String {
        generate(&BenchmarkSpec {
            name: "edit-base".into(),
            pattern_counts: standard_mix(4, 0, false),
            filler_classes: 3,
            methods_per_class: 4,
            seed: 0xED17,
        })
        .source
    }

    fn parses(source: &str) -> bool {
        jir::frontend::parse_program(source).is_ok()
    }

    #[test]
    fn every_edit_kind_applies_and_still_parses() {
        let base = base_source();
        assert!(parses(&base));
        for kind in EDIT_KINDS {
            let edited = apply_edit(&base, kind, 42).unwrap_or_else(|| panic!("{kind} applies"));
            assert_ne!(edited, base, "{kind} changed the source");
            assert!(parses(&edited), "{kind} result parses");
        }
    }

    #[test]
    fn edits_are_deterministic_in_seed() {
        let base = base_source();
        for kind in EDIT_KINDS {
            assert_eq!(apply_edit(&base, kind, 7), apply_edit(&base, kind, 7));
        }
        // And different seeds pick different body targets.
        assert_ne!(apply_edit(&base, EditKind::Body, 0), apply_edit(&base, EditKind::Body, 1));
    }

    #[test]
    fn remove_class_prefers_pads_then_fillers_then_gives_up() {
        let base = base_source();
        let with_pad = apply_edit(&base, EditKind::AddClass, 5).expect("add applies");
        let removed = remove_class(&with_pad).expect("pad removable");
        assert_eq!(removed, base, "removing the pad restores the original");
        // Without pads, the last filler pair goes.
        let no_filler = remove_class(&base).expect("filler removable");
        assert!(!no_filler.contains("class Filler2State"), "last filler removed");
        assert!(no_filler.contains("class Filler1State"), "earlier fillers stay");
        assert!(parses(&no_filler));
        // A source with no removable classes declines.
        assert_eq!(remove_class("class A { field int x; }"), None);
    }

    #[test]
    fn signature_edit_patches_the_caller_too() {
        let base = base_source();
        let edited = apply_edit(&base, EditKind::Signature, 3).expect("applies");
        assert!(edited.contains("int depth, int extra"), "signature widened");
        assert!(edited.contains("(depth + 1, 0);"), "caller patched");
        assert!(parses(&edited));
    }

    #[test]
    fn edit_chain_is_deterministic_and_parses_throughout() {
        let base = base_source();
        let a = edit_chain(&base, 99, 8);
        let b = edit_chain(&base, 99, 8);
        assert_eq!(a.len(), b.len());
        for ((ka, sa), (kb, sb)) in a.iter().zip(&b) {
            assert_eq!(ka, kb);
            assert_eq!(sa, sb);
            assert!(parses(sa), "{ka} step parses");
        }
        assert!(a.len() >= 4, "most steps apply on a filler-rich source");
    }
}
