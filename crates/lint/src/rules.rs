//! The rule engine: ~a dozen named invariants checked over lexed token
//! streams, plus the `// ldp-lint: …` annotation grammar.
//!
//! Rules are heuristic by design — this is a lexer-level tool, not a type
//! checker — but every heuristic errs toward *reporting*, and the annotation
//! grammar exists precisely so a human can discharge a finding with a written
//! reason that the `unused-allow` rule then keeps honest.

use crate::lexer::{Tok, TokKind};
use crate::{FileLex, Finding};
use std::ops::Range;

/// The rule catalog: `(name, summary)`. DESIGN.md §9 carries the rationale.
pub const RULES: &[(&str, &str)] = &[
    ("wall-clock", "no SystemTime::now / Instant::now / thread::sleep in deterministic crates"),
    ("entropy-rng", "no entropy-seeded RNG (thread_rng, from_entropy, OsRng, …) in deterministic crates"),
    ("unordered-iter", "no HashMap/HashSet iteration in deterministic or collector code unless annotated"),
    ("panic-path", "no panic site (unwrap/expect/panic!/unchecked indexing) reachable from a daemon entry point"),
    ("hot-path-lock", "no lock acquisition inside or called from ldp-lint: hot-path(begin/end) regions"),
    ("hot-path-ordering", "no non-Relaxed atomic ordering (SeqCst/Acquire/Release/AcqRel) inside hot-path regions"),
    ("lock-order", "no acquisition against the global registry → slot → shard lock order, across calls"),
    ("opcode-arm", "every wire frame opcode must be referenced by collector non-test code"),
    ("opcode-proptest", "every wire frame opcode must be exercised by a proptest file"),
    ("alloc-cap", "every allocation in a decode/read path must follow a length cap or proof"),
    ("ack-before-durable", "no ACK/SUMMARY reply staged before the journal append in the frame-apply path"),
    ("allow-without-reason", "allow annotations must carry `-- reason`"),
    ("unused-allow", "allow annotations that suppress nothing are errors"),
    ("annotation-syntax", "malformed ldp-lint annotations and unbalanced hot-path regions"),
];

/// Crates whose `src/` trees must be bit-deterministic: estimators, attacks,
/// defenses and scenario replay all promise identical output for identical
/// seeds. `crates/collector` and `crates/obs` are deliberately absent —
/// the scoped carve-out of DESIGN.md §10: stall timeouts and latency
/// histograms are *observational* wall-clock reads that never feed a
/// modelled value.
const DETERMINISTIC_PREFIXES: &[&str] = &[
    "crates/graph/src/",
    "crates/mechanisms/src/",
    "crates/protocols/src/",
    "crates/core/src/",
    "crates/defense/src/",
];

/// Files holding length-prefixed decoders that must cap before allocating.
const ALLOC_CAP_FILES: &[&str] = &[
    "crates/protocols/src/wire.rs",
    "crates/collector/src/checkpoint.rs",
    "crates/collector/src/codec.rs",
];

const WIRE_FILE: &str = "crates/protocols/src/wire.rs";

fn is_deterministic(rel: &str) -> bool {
    DETERMINISTIC_PREFIXES.iter().any(|p| rel.starts_with(p))
}

fn is_collector_src(rel: &str) -> bool {
    rel.starts_with("crates/collector/src/")
}

fn is_proptest_file(rel: &str) -> bool {
    rel.contains("/tests/")
        && rel
            .rsplit('/')
            .next()
            .is_some_and(|f| f.starts_with("proptest"))
}

fn rule_exists(name: &str) -> bool {
    RULES.iter().any(|(r, _)| *r == name)
}

/// A finding before suppression: carries what the allow-matcher needs plus
/// the interprocedural witness path (empty for token-level rules).
pub(crate) struct Raw {
    pub rule: &'static str,
    pub line: u32,
    pub message: String,
    pub call_path: Vec<crate::Hop>,
}

struct Allow {
    rule: String,
    /// Line of the annotation comment itself (reported on misuse).
    line: u32,
    /// Line the annotation governs: the next non-comment code line, so an
    /// annotation may span several comment lines of justification.
    applies: u32,
    has_reason: bool,
    used: bool,
}

#[derive(Default)]
struct Annotations {
    allows: Vec<Allow>,
    /// Inclusive line ranges of `hot-path(begin)` … `hot-path(end)`.
    regions: Vec<(u32, u32)>,
    /// `annotation-syntax` / `allow-without-reason` findings (not
    /// suppressible — an allow cannot excuse a malformed allow).
    meta: Vec<Raw>,
}

/// Run every rule over the lexed workspace: per-file token rules first, then
/// the interprocedural passes over the symbol table and call graph, then
/// allow-suppression per file.
pub(crate) fn run(files: &[FileLex]) -> Vec<Finding> {
    // Cross-file reference sets for the wire-totality rules.
    let mut collector_idents: Vec<&str> = Vec::new();
    let mut proptest_idents: Vec<&str> = Vec::new();
    for f in files {
        if is_collector_src(&f.rel) {
            for (i, t) in f.toks.iter().enumerate() {
                if t.kind == TokKind::Ident && !f.test_mask[i] {
                    collector_idents.push(&t.text);
                }
            }
        }
        if is_proptest_file(&f.rel) {
            for t in &f.toks {
                if t.kind == TokKind::Ident {
                    proptest_idents.push(&t.text);
                }
            }
        }
    }

    let mut anns: Vec<Annotations> = files.iter().map(parse_annotations).collect();

    // Per-file token rules.
    let mut raws: Vec<Vec<Raw>> = files
        .iter()
        .enumerate()
        .map(|(fi, f)| {
            let mut out: Vec<Raw> = Vec::new();
            if is_deterministic(&f.rel) {
                wall_clock(f, &mut out);
                entropy_rng(f, &mut out);
            }
            if is_deterministic(&f.rel) || is_collector_src(&f.rel) {
                unordered_iter(f, &mut out);
            }
            if ALLOC_CAP_FILES.contains(&f.rel.as_str()) {
                alloc_cap(f, &mut out);
            }
            if is_collector_src(&f.rel) {
                ack_before_durable(f, &mut out);
            }
            hot_path_lock(f, &anns[fi].regions, &mut out);
            hot_path_ordering(f, &anns[fi].regions, &mut out);
            if f.rel == WIRE_FILE {
                opcode_totality(f, &collector_idents, &proptest_idents, &mut out);
            }
            out
        })
        .collect();

    // Interprocedural passes: symbol table → call graph → reachability.
    let sym = crate::symbols::build(files);
    let graph = crate::callgraph::build(files, &sym);
    let locks = crate::reach::lock_closures(files, &sym, &graph);
    let regions: Vec<Vec<(u32, u32)>> = anns.iter().map(|a| a.regions.clone()).collect();
    let inter = crate::reach::panic_paths(files, &sym, &graph)
        .into_iter()
        .chain(crate::reach::lock_order_global(files, &sym, &graph, &locks))
        .chain(crate::reach::hot_path_transitive(
            files, &sym, &graph, &locks, &regions,
        ));
    for (fi, raw) in inter {
        raws[fi].push(raw);
    }

    // Suppression: an allow with a reason discharges findings of its rule
    // on its own line or the line directly below (for interprocedural rules,
    // the line of the offending *site*).
    let mut findings = Vec::new();
    for (fi, f) in files.iter().enumerate() {
        let ann = &mut anns[fi];
        let mut file_raws = std::mem::take(&mut raws[fi]);
        file_raws.retain(|raw| {
            for a in ann.allows.iter_mut() {
                if a.has_reason
                    && a.rule == raw.rule
                    && (a.line == raw.line || a.applies == raw.line)
                {
                    a.used = true;
                    return false;
                }
            }
            true
        });

        for a in &ann.allows {
            if a.has_reason && !a.used {
                ann.meta.push(Raw {
                    rule: "unused-allow",
                    line: a.line,
                    message: format!("allow({}) suppresses nothing; remove it", a.rule),
                    call_path: Vec::new(),
                });
            }
        }

        for raw in file_raws.into_iter().chain(ann.meta.drain(..)) {
            findings.push(Finding {
                rule: raw.rule,
                rel: f.rel.clone(),
                line: raw.line,
                message: raw.message,
                call_path: raw.call_path,
            });
        }
    }
    findings
}

// ---------------------------------------------------------------------------
// Annotation grammar
// ---------------------------------------------------------------------------

fn parse_annotations(f: &FileLex) -> Annotations {
    let mut ann = Annotations::default();
    let mut open_region: Option<u32> = None;
    for (idx, t) in f.toks.iter().enumerate() {
        if t.kind != TokKind::Comment || !t.text.starts_with("//") {
            continue;
        }
        let body = t.text.trim_start_matches('/').trim();
        let Some(directive) = body.strip_prefix("ldp-lint:") else {
            continue;
        };
        let directive = directive.trim();
        let (head, reason) = match directive.split_once("--") {
            Some((h, r)) => (h.trim(), Some(r.trim())),
            None => (directive, None),
        };
        match head {
            _ if head.starts_with("allow(") && head.ends_with(')') => {
                let rule = head["allow(".len()..head.len() - 1].trim().to_string();
                if !rule_exists(&rule) {
                    ann.meta.push(Raw {
                        call_path: Vec::new(),
                        rule: "annotation-syntax",
                        line: t.line,
                        message: format!("allow names unknown rule `{rule}`"),
                    });
                    continue;
                }
                let has_reason = reason.is_some_and(|r| !r.is_empty());
                if !has_reason {
                    ann.meta.push(Raw {
                        call_path: Vec::new(),
                        rule: "allow-without-reason",
                        line: t.line,
                        message: format!("allow({rule}) is missing `-- reason`"),
                    });
                }
                // The annotation governs the next non-comment line, so the
                // justification may continue over further comment lines.
                let applies = f.toks[idx + 1..]
                    .iter()
                    .find(|n| n.kind != TokKind::Comment)
                    .map_or(t.line + 1, |n| n.line);
                // A reasonless allow is recorded but suppresses nothing.
                ann.allows.push(Allow {
                    rule,
                    line: t.line,
                    applies,
                    has_reason,
                    used: false,
                });
            }
            "hot-path(begin)" => {
                if let Some(start) = open_region {
                    ann.meta.push(Raw {
                        call_path: Vec::new(),
                        rule: "annotation-syntax",
                        line: t.line,
                        message: format!(
                            "hot-path(begin) while region from line {start} is still open"
                        ),
                    });
                }
                open_region = Some(t.line);
            }
            "hot-path(end)" => match open_region.take() {
                Some(start) => ann.regions.push((start, t.line)),
                None => ann.meta.push(Raw {
                    call_path: Vec::new(),
                    rule: "annotation-syntax",
                    line: t.line,
                    message: "hot-path(end) without a matching begin".to_string(),
                }),
            },
            _ => ann.meta.push(Raw {
                call_path: Vec::new(),
                rule: "annotation-syntax",
                line: t.line,
                message: format!("unknown ldp-lint directive `{directive}`"),
            }),
        }
    }
    if let Some(start) = open_region {
        ann.meta.push(Raw {
            call_path: Vec::new(),
            rule: "annotation-syntax",
            line: start,
            message: "hot-path(begin) is never closed".to_string(),
        });
    }
    ann
}

// ---------------------------------------------------------------------------
// #[cfg(test)] masking
// ---------------------------------------------------------------------------

/// Mark every token belonging to a `#[cfg(test)]` or `#[test]` item
/// (attribute included). The item is the next `;`-terminated statement or
/// balanced `{…}` block after the attribute stack.
pub(crate) fn test_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_punct('#') && i + 1 < toks.len() && toks[i + 1].is_punct('[') {
            let (end, is_test) = scan_attr(toks, i);
            if is_test {
                let start = i;
                let mut j = end;
                // Skip any further attributes on the same item.
                while j < toks.len()
                    && toks[j].is_punct('#')
                    && j + 1 < toks.len()
                    && toks[j + 1].is_punct('[')
                {
                    j = scan_attr(toks, j).0;
                }
                // Consume the item: to the first `;` at depth 0, or to the
                // `}` closing the first brace block.
                let mut depth = 0i32;
                while j < toks.len() {
                    let t = &toks[j];
                    if t.is_punct('{') {
                        depth += 1;
                    } else if t.is_punct('}') {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    } else if t.is_punct(';') && depth == 0 {
                        j += 1;
                        break;
                    }
                    j += 1;
                }
                for m in mask.iter_mut().take(j).skip(start) {
                    *m = true;
                }
                i = j;
                continue;
            }
            i = end;
            continue;
        }
        i += 1;
    }
    mask
}

/// Scan an attribute starting at `#`; return (index past `]`, is-test-attr).
fn scan_attr(toks: &[Tok], start: usize) -> (usize, bool) {
    let mut depth = 0i32;
    let mut is_test = false;
    let mut saw_cfg = false;
    let mut j = start + 1;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                j += 1;
                break;
            }
        } else if t.kind == TokKind::Ident {
            if t.text == "cfg" {
                saw_cfg = true;
            }
            if t.text == "test" && (saw_cfg || j == start + 2) {
                // `#[cfg(test)]`, `#[cfg(any(test, …))]`, or bare `#[test]`.
                is_test = true;
            }
        }
        j += 1;
    }
    (j, is_test)
}

// ---------------------------------------------------------------------------
// Determinism rules
// ---------------------------------------------------------------------------

fn wall_clock(f: &FileLex, out: &mut Vec<Raw>) {
    for (i, t) in f.toks.iter().enumerate() {
        if f.test_mask[i] || t.kind != TokKind::Ident {
            continue;
        }
        let flagged = match t.text.as_str() {
            "now" => path_prefix_is(&f.toks, i, &["Instant", "SystemTime"]),
            "sleep" => path_prefix_is(&f.toks, i, &["thread"]),
            "elapsed" => false,
            _ => false,
        };
        if flagged {
            let root = path_root(&f.toks, i);
            out.push(Raw {
                call_path: Vec::new(),
                rule: "wall-clock",
                line: t.line,
                message: format!(
                    "wall-clock call `{root}::{}` in a deterministic crate",
                    t.text
                ),
            });
        }
    }
}

fn entropy_rng(f: &FileLex, out: &mut Vec<Raw>) {
    const ENTROPY: &[&str] = &[
        "thread_rng",
        "from_entropy",
        "OsRng",
        "getrandom",
        "ThreadRng",
    ];
    for (i, t) in f.toks.iter().enumerate() {
        if f.test_mask[i] || t.kind != TokKind::Ident {
            continue;
        }
        let flagged = ENTROPY.contains(&t.text.as_str())
            || (t.text == "random" && path_prefix_is(&f.toks, i, &["rand"]));
        if flagged {
            out.push(Raw {
                call_path: Vec::new(),
                rule: "entropy-rng",
                line: t.line,
                message: format!(
                    "entropy-seeded RNG `{}` in a deterministic crate; derive from the scenario seed",
                    t.text
                ),
            });
        }
    }
}

/// Is token `i` preceded by `Root ::` with `Root` in `roots`?
fn path_prefix_is(toks: &[Tok], i: usize, roots: &[&str]) -> bool {
    i >= 3
        && toks[i - 1].is_punct(':')
        && toks[i - 2].is_punct(':')
        && toks[i - 3].kind == TokKind::Ident
        && roots.contains(&toks[i - 3].text.as_str())
}

fn path_root(toks: &[Tok], i: usize) -> &str {
    if i >= 3 {
        &toks[i - 3].text
    } else {
        ""
    }
}

/// Methods whose iteration order on HashMap/HashSet is unordered.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "into_keys",
    "into_values",
    "drain",
];

fn unordered_iter(f: &FileLex, out: &mut Vec<Raw>) {
    let known = unordered_bindings(f);
    if known.is_empty() {
        return;
    }
    let toks = &f.toks;
    for (i, t) in toks.iter().enumerate() {
        if f.test_mask[i] || t.kind != TokKind::Ident {
            continue;
        }
        // `name.iter()` / `read_lock(&self.map).keys()` — walk the postfix
        // chain backwards and see if any receiver ident is a known
        // HashMap/HashSet binding.
        if ITER_METHODS.contains(&t.text.as_str())
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            && i > 0
            && toks[i - 1].is_punct('.')
        {
            if let Some(name) = chain_hit(toks, i - 1, &known) {
                out.push(Raw {
                    call_path: Vec::new(),
                    rule: "unordered-iter",
                    line: t.line,
                    message: format!(
                        "iteration over HashMap/HashSet `{name}` has nondeterministic order; \
                         use BTreeMap/BTreeSet, sort first, or annotate with a reason"
                    ),
                });
            }
        }
        // `for x in &name {` / `for x in name {` — a by-value or by-ref move
        // iteration with no method call to anchor on.
        if t.is_ident("for") {
            if let Some((name, line)) = for_in_known(toks, i, &known) {
                out.push(Raw {
                    call_path: Vec::new(),
                    rule: "unordered-iter",
                    line,
                    message: format!(
                        "`for … in {name}` iterates a HashMap/HashSet in nondeterministic order; \
                         use BTreeMap/BTreeSet, sort first, or annotate with a reason"
                    ),
                });
            }
        }
    }
}

/// Names bound to HashMap/HashSet in this file: `let` bindings whose
/// initializer/type mentions the type, plus `name: …HashMap…` field and
/// parameter declarations.
fn unordered_bindings(f: &FileLex) -> Vec<String> {
    let toks = &f.toks;
    let mut names: Vec<String> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || (t.text != "HashMap" && t.text != "HashSet") {
            continue;
        }
        // Field / parameter form: walk back to the nearest `,` `{` `(` `;`
        // boundary; the declaration starts `name :` (single colon).
        let mut j = i;
        while j > 0 {
            let p = &toks[j - 1];
            if p.is_punct(',')
                || p.is_punct('{')
                || p.is_punct('(')
                || p.is_punct(')')
                || p.is_punct(';')
                || p.is_punct('}')
            {
                break;
            }
            j -= 1;
        }
        if toks[j].kind == TokKind::Ident
            && toks.get(j + 1).is_some_and(|c| c.is_punct(':'))
            && !toks.get(j + 2).is_some_and(|c| c.is_punct(':'))
        {
            push_unique(&mut names, &toks[j].text);
        }
    }
    // `let [mut] name … = … HashMap/HashSet …;` — scan each let-statement.
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("let") {
            let mut k = i + 1;
            if toks.get(k).is_some_and(|t| t.is_ident("mut")) {
                k += 1;
            }
            if let Some(name_tok) = toks.get(k).filter(|t| t.kind == TokKind::Ident) {
                let mut depth = 0i32;
                let mut j = k + 1;
                let mut mentions = false;
                while j < toks.len() {
                    let t = &toks[j];
                    if t.is_punct('{') || t.is_punct('(') {
                        depth += 1;
                    } else if t.is_punct('}') || t.is_punct(')') {
                        depth -= 1;
                    } else if t.is_punct(';') && depth <= 0 {
                        break;
                    } else if t.kind == TokKind::Ident
                        && (t.text == "HashMap" || t.text == "HashSet")
                    {
                        mentions = true;
                    }
                    j += 1;
                }
                if mentions {
                    push_unique(&mut names, &name_tok.text);
                }
                i = j;
                continue;
            }
        }
        i += 1;
    }
    names
}

fn push_unique(names: &mut Vec<String>, name: &str) {
    if !names.iter().any(|n| n == name) {
        names.push(name.to_string());
    }
}

/// Walk a postfix receiver chain backwards from the `.` before a method call
/// and return the first known binding mentioned in it.
fn chain_hit(toks: &[Tok], dot: usize, known: &[String]) -> Option<String> {
    let mut j = dot;
    let mut steps = 0;
    while j > 0 && steps < 24 {
        let t = &toks[j - 1];
        let chained = t.kind == TokKind::Ident
            || t.is_punct('.')
            || t.is_punct('(')
            || t.is_punct(')')
            || t.is_punct('&')
            || t.is_punct(':')
            || t.is_punct('?')
            || t.is_punct('[')
            || t.is_punct(']');
        if !chained {
            break;
        }
        if t.kind == TokKind::Ident && known.iter().any(|n| n == &t.text) {
            return Some(t.text.clone());
        }
        j -= 1;
        steps += 1;
    }
    None
}

/// Match `for … in [& [mut]] name {` with `name` a known unordered binding.
fn for_in_known(toks: &[Tok], for_idx: usize, known: &[String]) -> Option<(String, u32)> {
    let mut depth = 0i32;
    let mut j = for_idx + 1;
    while j < toks.len() && j - for_idx < 48 {
        let t = &toks[j];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if depth == 0 && t.is_ident("in") {
            let mut k = j + 1;
            while toks
                .get(k)
                .is_some_and(|t| t.is_punct('&') || t.is_ident("mut"))
            {
                k += 1;
            }
            let name = toks.get(k).filter(|t| t.kind == TokKind::Ident)?;
            if toks.get(k + 1).is_some_and(|t| t.is_punct('{'))
                && known.iter().any(|n| n == &name.text)
            {
                return Some((name.text.clone(), name.line));
            }
            return None;
        } else if t.is_punct('{') {
            return None;
        }
        j += 1;
    }
    None
}

// ---------------------------------------------------------------------------
// Locking discipline
// ---------------------------------------------------------------------------

/// Lock-acquiring call names recognized inside hot-path regions and by the
/// interprocedural lock passes ([`crate::reach`]).
pub(crate) const LOCK_CALLS: &[&str] = &[
    "lock",
    "try_lock",
    "read",
    "write",
    "try_read",
    "try_write",
    "read_lock",
    "write_lock",
];

fn hot_path_lock(f: &FileLex, regions: &[(u32, u32)], out: &mut Vec<Raw>) {
    if regions.is_empty() {
        return;
    }
    let toks = &f.toks;
    for (i, t) in toks.iter().enumerate() {
        if f.test_mask[i] || t.kind != TokKind::Ident {
            continue;
        }
        if LOCK_CALLS.contains(&t.text.as_str())
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            && regions.iter().any(|&(a, b)| t.line > a && t.line < b)
        {
            out.push(Raw {
                call_path: Vec::new(),
                rule: "hot-path-lock",
                line: t.line,
                message: format!(
                    "lock acquisition `{}(` inside a hot-path region; folds must run lock-free \
                     under the already-held shard lock",
                    t.text
                ),
            });
        }
    }
}

/// Atomic orderings whose fences have no place on a per-report path: a
/// metric tick inside a hot-path region must be `Ordering::Relaxed` —
/// the counters are monotone sums reconciled at a `SYNC`/`CLOSE`
/// barrier, so the stronger orderings buy nothing but pipeline stalls.
const STRONG_ORDERINGS: &[&str] = &["SeqCst", "Acquire", "Release", "AcqRel"];

fn hot_path_ordering(f: &FileLex, regions: &[(u32, u32)], out: &mut Vec<Raw>) {
    if regions.is_empty() {
        return;
    }
    for (i, t) in f.toks.iter().enumerate() {
        if f.test_mask[i] || t.kind != TokKind::Ident {
            continue;
        }
        if STRONG_ORDERINGS.contains(&t.text.as_str())
            && regions.iter().any(|&(a, b)| t.line > a && t.line < b)
        {
            out.push(Raw {
                call_path: Vec::new(),
                rule: "hot-path-ordering",
                line: t.line,
                message: format!(
                    "atomic ordering `{}` inside a hot-path region; per-report metric \
                     ticks must be Ordering::Relaxed",
                    t.text
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Wire totality
// ---------------------------------------------------------------------------

/// Every `const NAME: u8 = 0x..;` inside `mod frames { … }` of wire.rs must
/// be referenced by collector non-test code (a decode arm) and exercised by a
/// proptest file.
fn opcode_totality(f: &FileLex, collector: &[&str], proptest: &[&str], out: &mut Vec<Raw>) {
    for (name, line) in frame_consts(&f.toks) {
        if !collector.iter().any(|i| *i == name) {
            out.push(Raw {
                call_path: Vec::new(),
                rule: "opcode-arm",
                line,
                message: format!(
                    "opcode `{name}` is not referenced by collector non-test code; \
                     every frame kind needs a decode arm"
                ),
            });
        }
        if !proptest.iter().any(|i| *i == name) {
            out.push(Raw {
                call_path: Vec::new(),
                rule: "opcode-proptest",
                line,
                message: format!("opcode `{name}` is not exercised by any proptest file"),
            });
        }
    }
}

fn frame_consts(toks: &[Tok]) -> Vec<(String, u32)> {
    let mut consts = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("mod") && toks.get(i + 1).is_some_and(|t| t.is_ident("frames")) {
            // Find the module body and scan it.
            let mut j = i + 2;
            while j < toks.len() && !toks[j].is_punct('{') {
                j += 1;
            }
            let mut depth = 0i32;
            while j < toks.len() {
                let t = &toks[j];
                if t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if t.is_ident("const") {
                    if let Some(name) = toks.get(j + 1).filter(|t| t.kind == TokKind::Ident) {
                        // Only opcode consts (hex literal initializer).
                        let hex = toks[j..toks.len().min(j + 10)]
                            .iter()
                            .take_while(|t| !t.is_punct(';'))
                            .any(|t| t.kind == TokKind::Num && t.text.starts_with("0x"));
                        if hex {
                            consts.push((name.text.clone(), name.line));
                        }
                    }
                }
                j += 1;
            }
            i = j;
        }
        i += 1;
    }
    consts
}

// ---------------------------------------------------------------------------
// Allocation caps in decode paths
// ---------------------------------------------------------------------------

/// Reply-staging frame constants, and `View`, the frame outcome that hands
/// a finalized round to the connection pump to stream its `VIEW` (the
/// handoff is where that reply is staged): an occurrence of one of these
/// in the frame-apply path before any journal append is the write-ahead
/// inversion.
const REPLY_IDENTS: &[&str] = &["ACK", "SUMMARY", "DEGREE_SUMMARY", "VIEW", "View"];

/// The function every state-changing frame goes through, live and in
/// journal replay — the one place the write-ahead order lives.
const APPLY_FN: &str = "apply_frame";

/// The write-ahead ordering of DESIGN.md §11: in the frame-apply path
/// ([`APPLY_FN`]), the journal append must come before any reply
/// constant is staged. A crash between
/// an early `ACK` and a late append would acknowledge a report the
/// journal never saw — exactly the loss the WAL exists to rule out.
///
/// Token-level heuristic: within such a function, flag any
/// [`REPLY_IDENTS`] identifier seen before the first identifier
/// containing `append`; then, per `frames::KIND =>` match arm that
/// appends, any reply identifier before that arm's own append
/// ([`ack_before_durable_arms`]). Token order over-approximates control
/// flow (an append behind an `if` is trusted), but the daemon funnels
/// every state-changing frame through that one function, where the
/// textual order *is* the execution order, and the annotation grammar
/// can discharge deliberate exceptions.
fn ack_before_durable(f: &FileLex, out: &mut Vec<Raw>) {
    let (frames, enclosing) = fn_frames(f);
    let mut appended = vec![false; frames.len()];
    for (i, t) in f.toks.iter().enumerate() {
        if f.test_mask[i] || t.kind != TokKind::Ident || t.text == "fn" {
            continue;
        }
        let Some(k) = enclosing[i].filter(|&k| frames[k].0 == APPLY_FN) else {
            continue;
        };
        if t.text.contains("append") {
            appended[k] = true;
            continue;
        }
        if REPLY_IDENTS.contains(&t.text.as_str()) && !appended[k] {
            out.push(Raw {
                call_path: Vec::new(),
                rule: "ack-before-durable",
                line: t.line,
                message: format!(
                    "reply `{}` staged in frame-apply path `{APPLY_FN}` before any journal \
                     append; a crash here acknowledges a report the journal never saw",
                    t.text
                ),
            });
        }
    }
    for (name, body) in &frames {
        if *name == APPLY_FN && !body.is_empty() {
            ack_before_durable_arms(f, name, body.clone(), out);
        }
    }
}

/// The per-arm half of [`ack_before_durable`] over one frame-apply
/// `body`: once any arm has appended, the linear pass trusts every later
/// token, so each `frames::KIND =>` arm that journals is checked on its
/// own — no reply identifier before the arm's first `append`. Replies
/// before the body's first append are the linear pass's findings.
fn ack_before_durable_arms(f: &FileLex, name: &str, body: Range<usize>, out: &mut Vec<Raw>) {
    let toks = &f.toks;
    let live = |i: usize| !f.test_mask[i] && toks[i].kind == TokKind::Ident;
    let appends = |i: usize| live(i) && toks[i].text.contains("append");
    let is_head = |i: usize| {
        let at = |k: usize| toks.get(i + k);
        live(i)
            && toks[i].text == "frames"
            && at(1).is_some_and(|t| t.is_punct(':'))
            && at(2).is_some_and(|t| t.is_punct(':'))
            && at(3).is_some_and(|t| t.kind == TokKind::Ident)
            && at(4).is_some_and(|t| t.is_punct('='))
            && at(5).is_some_and(|t| t.is_punct('>'))
    };
    let Some(first_append) = body.clone().find(|&i| appends(i)) else {
        return;
    };
    let heads: Vec<usize> = body.clone().filter(|&i| is_head(i)).collect();
    for (k, &head) in heads.iter().enumerate() {
        let end = heads.get(k + 1).copied().unwrap_or(body.end);
        let Some(append) = (head..end).find(|&i| appends(i)) else {
            continue;
        };
        for i in (head + 6).max(first_append)..append {
            if live(i) && REPLY_IDENTS.contains(&toks[i].text.as_str()) {
                out.push(Raw {
                    call_path: Vec::new(),
                    rule: "ack-before-durable",
                    line: toks[i].line,
                    message: format!(
                        "reply `{}` staged in a `{}` arm of frame-apply path `{name}` \
                         before that arm's journal append; a crash here acknowledges a \
                         frame the journal never saw",
                        toks[i].text,
                        toks[head + 3].text
                    ),
                });
            }
        }
    }
}

/// Function-name prefixes that mark untrusted-input decode paths.
const DECODE_FN_PREFIXES: &[&str] = &["decode", "read", "get", "resume", "parse"];

/// Allocation calls that must be preceded (in the same function) by a length
/// proof: a `MAX_*` constant, `checked_len`, `split_at_checked`, or a
/// `len()` comparison.
fn alloc_cap(f: &FileLex, out: &mut Vec<Raw>) {
    const ALLOCS: &[&str] = &["with_capacity", "resize", "reserve"];
    let toks = &f.toks;
    let (frames, enclosing) = fn_frames(f);
    let mut proved = vec![false; frames.len()];
    for (i, t) in toks.iter().enumerate() {
        if f.test_mask[i] || t.kind != TokKind::Ident || t.text == "fn" {
            continue;
        }
        let Some(k) = enclosing[i] else {
            continue;
        };
        // A proof counts for the innermost enclosing function only.
        let is_proof = t.text.starts_with("MAX_")
            || t.text == "checked_len"
            || t.text == "split_at_checked"
            || (t.text == "len"
                && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
                && toks.get(i + 2).is_some_and(|n| n.is_punct(')'))
                && toks.get(i + 3).is_some_and(|n| {
                    n.is_punct('<') || n.is_punct('>') || n.is_punct('=') || n.is_punct('!')
                }));
        if is_proof {
            proved[k] = true;
            continue;
        }
        let name = frames[k].0;
        if !DECODE_FN_PREFIXES.iter().any(|p| name.starts_with(p)) {
            continue;
        }
        let is_alloc = (ALLOCS.contains(&t.text.as_str())
            && toks.get(i + 1).is_some_and(|n| n.is_punct('(')))
            || (t.text == "vec" && toks.get(i + 1).is_some_and(|n| n.is_punct('!')));
        if is_alloc && !proved[k] {
            out.push(Raw {
                call_path: Vec::new(),
                rule: "alloc-cap",
                line: t.line,
                message: format!(
                    "allocation `{}` in decode path `{name}` before any length cap \
                     (MAX_* bound, checked_len, or len() comparison)",
                    t.text
                ),
            });
        }
    }
}

/// A named function body: its name, and the token range from its `{` to
/// its `}` (empty while unclosed).
type FnFrame<'a> = (&'a str, Range<usize>);

/// The enclosing-function walk of [`alloc_cap`] and
/// [`ack_before_durable`]: every named non-test `fn` body in `f`, and for
/// each token the index of the innermost such body holding it. A trait
/// method declared without a body opens none.
fn fn_frames(f: &FileLex) -> (Vec<FnFrame<'_>>, Vec<Option<usize>>) {
    let toks = &f.toks;
    let mut frames: Vec<FnFrame<'_>> = Vec::new();
    let mut enclosing = vec![None; toks.len()];
    // (index into `frames`, open depth) of each body the walk is inside.
    let mut stack: Vec<(usize, i32)> = Vec::new();
    let mut pending_fn: Option<&str> = None;
    let mut depth = 0i32;
    for (i, t) in toks.iter().enumerate() {
        enclosing[i] = stack.last().map(|&(k, _)| k);
        if t.is_punct('{') {
            depth += 1;
            if let Some(name) = pending_fn.take() {
                stack.push((frames.len(), depth));
                frames.push((name, i..i));
            }
        } else if t.is_punct('}') {
            if let Some(&(k, d)) = stack.last() {
                if d == depth {
                    stack.pop();
                    frames[k].1.end = i;
                }
            }
            depth -= 1;
        } else if t.is_punct(';') && depth == 0 {
            pending_fn = None; // trait method declaration without body
        } else if t.kind == TokKind::Ident && t.text == "fn" && !f.test_mask[i] {
            if let Some(name) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) {
                pending_fn = Some(&name.text);
            }
        }
    }
    (frames, enclosing)
}
