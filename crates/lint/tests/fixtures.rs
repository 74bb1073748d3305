//! Every rule is pinned by a fixture pair: a `bad/` tree whose seeded
//! violation the rule must flag, and a `good/` tree (the compliant twin,
//! annotated or restructured) that must lint clean. The trees mimic the
//! real workspace layout (`crates/protocols/src/wire.rs`, …) so the
//! path-scoped rules activate.

use ldp_lint::lint_workspace;
use std::path::{Path, PathBuf};

fn fixture(tree: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(tree)
}

/// Lints `fixtures/<tree>` and returns the findings.
fn lint(tree: &str) -> Vec<ldp_lint::Finding> {
    let root = fixture(tree);
    lint_workspace(&root).unwrap_or_else(|e| panic!("linting fixture {tree} failed: {e}"))
}

/// Asserts the `bad` tree fires `rule` (at least once) and the `good`
/// twin is completely clean — not merely free of `rule`, free of
/// *everything*, so fixtures can't accumulate incidental noise.
fn assert_rule_pinned(dir: &str, rule: &str) {
    let bad = lint(&format!("{dir}/bad"));
    assert!(
        bad.iter().any(|f| f.rule == rule),
        "{dir}/bad: expected a `{rule}` finding, got: {bad:#?}"
    );
    let good = lint(&format!("{dir}/good"));
    assert!(
        good.is_empty(),
        "{dir}/good: expected a clean run, got: {good:#?}"
    );
}

#[test]
fn wall_clock_is_pinned() {
    assert_rule_pinned("wall-clock", "wall-clock");
    // All three wall-clock reads in the bad tree are caught: the two
    // `now()` calls and the sleep.
    let bad = lint("wall-clock/bad");
    assert!(
        bad.iter().filter(|f| f.rule == "wall-clock").count() >= 3,
        "{bad:#?}"
    );
}

#[test]
fn entropy_rng_is_pinned() {
    assert_rule_pinned("entropy-rng", "entropy-rng");
}

#[test]
fn unordered_iter_is_pinned() {
    assert_rule_pinned("unordered-iter", "unordered-iter");
    // Both the HashMap and the HashSet iteration are flagged.
    let bad = lint("unordered-iter/bad");
    assert!(
        bad.iter().filter(|f| f.rule == "unordered-iter").count() >= 2,
        "{bad:#?}"
    );
}

#[test]
fn panic_path_is_pinned() {
    assert_rule_pinned("panic-path", "panic-path");
    let bad = lint("panic-path/bad");
    let findings: Vec<_> = bad.iter().filter(|f| f.rule == "panic-path").collect();
    // The unchecked index and the unwrap are two separate findings, both
    // in the helper two calls away from the entry point.
    assert_eq!(findings.len(), 2, "{bad:#?}");
    for f in &findings {
        assert_eq!(f.rel, "crates/collector/src/shard.rs", "{f}");
        // Cross-file, multi-hop witness: process_frame → route → fold_entry.
        assert!(f.call_path.len() >= 3, "want a multi-hop path: {f:#?}");
        assert_eq!(f.call_path[0].func, "process_frame");
        assert_eq!(f.call_path[0].rel, "crates/collector/src/server.rs");
        assert_eq!(f.call_path.last().unwrap().func, "fold_entry");
        // The last hop anchors on the offending site itself.
        assert_eq!(f.call_path.last().unwrap().line, f.line);
        assert!(f.message.contains("process_frame"), "{f}");
    }
}

#[test]
fn panic_path_dyn_over_approximation_is_pinned() {
    assert_rule_pinned("panic-path-dyn", "panic-path");
    let bad = lint("panic-path-dyn/bad");
    let f = bad
        .iter()
        .find(|f| f.rule == "panic-path")
        .unwrap_or_else(|| panic!("expected panic-path in {bad:#?}"));
    // The dyn call resolves to *every* impl of `estimate`; the panicking
    // impl is charged even though the concrete receiver is unknown.
    assert_eq!(f.rel, "crates/collector/src/estimators.rs", "{f}");
    assert!(f.call_path.len() >= 2, "{f:#?}");
    assert_eq!(f.call_path.last().unwrap().func, "Partial::estimate");
}

#[test]
fn hot_path_lock_is_pinned() {
    assert_rule_pinned("hot-path-lock", "hot-path-lock");
    let bad = lint("hot-path-lock/bad");
    // Both the literal acquisition inside the region and the transitive one
    // (region → `publish` → lock) fire; the transitive finding carries the
    // witness path.
    let findings: Vec<_> = bad.iter().filter(|f| f.rule == "hot-path-lock").collect();
    assert_eq!(findings.len(), 2, "{bad:#?}");
    let transitive = findings
        .iter()
        .find(|f| !f.call_path.is_empty())
        .unwrap_or_else(|| panic!("expected a transitive finding in {bad:#?}"));
    assert!(transitive.call_path.len() >= 2, "{transitive:#?}");
    assert_eq!(transitive.call_path[0].func, "Shard::fold_indirect");
    assert_eq!(transitive.call_path.last().unwrap().func, "Shard::publish");
}

#[test]
fn hot_path_ordering_is_pinned() {
    assert_rule_pinned("hot-path-ordering", "hot-path-ordering");
    let bad = lint("hot-path-ordering/bad");
    // Both the SeqCst tick and the Acquire read inside the region fire;
    // the good twin's Relaxed tick and out-of-region Release are clean.
    assert_eq!(
        bad.iter().filter(|f| f.rule == "hot-path-ordering").count(),
        2,
        "{bad:#?}"
    );
}

/// The observability carve-out: `crates/obs/` reads wall clocks freely
/// (trace timestamps, latency probes) while the same tokens in a
/// deterministic crate fire — scoping is by path, not annotation.
#[test]
fn wall_clock_carve_out_for_obs_is_pinned() {
    let good = lint("wall-clock/good");
    assert!(
        good.is_empty(),
        "obs wall-clock reads must lint clean: {good:#?}"
    );
}

#[test]
fn lock_order_is_pinned() {
    assert_rule_pinned("lock-order", "lock-order");
    let bad = lint("lock-order/bad");
    let findings: Vec<_> = bad.iter().filter(|f| f.rule == "lock-order").collect();
    // One direct inversion, one across a call.
    assert_eq!(findings.len(), 2, "{bad:#?}");
    let cross = findings
        .iter()
        .find(|f| f.call_path.len() >= 2)
        .unwrap_or_else(|| panic!("expected a cross-call inversion in {bad:#?}"));
    assert_eq!(cross.call_path[0].func, "Registry::inverted_across_calls");
    assert_eq!(cross.call_path.last().unwrap().func, "Registry::census");
}

#[test]
fn opcode_arm_is_pinned() {
    assert_rule_pinned("opcode", "opcode-arm");
    // The orphaned opcode is reported at its const declaration in wire.rs.
    let bad = lint("opcode/bad");
    let arm = bad.iter().find(|f| f.rule == "opcode-arm").unwrap();
    assert_eq!(arm.rel, "crates/protocols/src/wire.rs");
    assert!(arm.message.contains("ORPHANED"), "{arm}");
}

#[test]
fn opcode_proptest_is_pinned() {
    let bad = lint("opcode/bad");
    let pt = bad
        .iter()
        .find(|f| f.rule == "opcode-proptest")
        .unwrap_or_else(|| panic!("expected opcode-proptest in {bad:#?}"));
    assert!(pt.message.contains("ORPHANED"), "{pt}");
    // OPEN is wired on both ends, so only the orphan is flagged.
    assert!(!bad.iter().any(|f| f.message.contains("OPEN")), "{bad:#?}");
}

#[test]
fn alloc_cap_is_pinned() {
    assert_rule_pinned("alloc-cap", "alloc-cap");
}

#[test]
fn ack_before_durable_is_pinned() {
    assert_rule_pinned("ack-before-durable", "ack-before-durable");
    let bad = lint("ack-before-durable/bad");
    // Both the early `ACK` and the early `SUMMARY` fire, and the finding
    // names the frame-apply function.
    let findings: Vec<_> = bad
        .iter()
        .filter(|f| f.rule == "ack-before-durable")
        .collect();
    assert_eq!(findings.len(), 2, "{bad:#?}");
    for f in &findings {
        assert!(f.message.contains("apply_frame"), "{f}");
    }
}

#[test]
fn ack_before_durable_checks_each_arm() {
    assert_rule_pinned("ack-before-durable-arms", "ack-before-durable");
    // The report-batch append at the top of the function comes first in
    // token order, so only the per-arm pass sees the early handoff.
    let bad = lint("ack-before-durable-arms/bad");
    let findings: Vec<_> = bad
        .iter()
        .filter(|f| f.rule == "ack-before-durable")
        .collect();
    assert_eq!(findings.len(), 1, "{bad:#?}");
    let message = &findings[0].message;
    assert!(
        message.contains("`View`") && message.contains("`FINALIZE` arm"),
        "{message}"
    );
}

#[test]
fn allow_without_reason_is_pinned() {
    assert_rule_pinned("allow-without-reason", "allow-without-reason");
    // A reasonless allow suppresses nothing: the underlying wall-clock
    // finding fires alongside the meta finding.
    let bad = lint("allow-without-reason/bad");
    assert!(bad.iter().any(|f| f.rule == "wall-clock"), "{bad:#?}");
    // And it is *not* additionally reported as unused — one defect, one
    // actionable message.
    assert!(!bad.iter().any(|f| f.rule == "unused-allow"), "{bad:#?}");
}

#[test]
fn unused_allow_is_pinned() {
    assert_rule_pinned("unused-allow", "unused-allow");
}

/// Regression pin for the EOF edge: an allow on the last line of a file —
/// with no trailing newline, so there is no token after it — must still be
/// reported when unused (bad), and an allow whose governed line is the
/// final line must still suppress (good).
#[test]
fn unused_allow_at_eof_is_pinned() {
    assert_rule_pinned("unused-allow-eof", "unused-allow");
    let bad = lint("unused-allow-eof/bad");
    let f = bad.iter().find(|f| f.rule == "unused-allow").unwrap();
    assert_eq!(f.line, 6, "reported at the trailing allow itself: {f}");
}

#[test]
fn annotation_syntax_is_pinned() {
    assert_rule_pinned("annotation-syntax", "annotation-syntax");
    let bad = lint("annotation-syntax/bad");
    // Unknown rule, unknown directive, stray end, unclosed begin: four
    // distinct syntax findings.
    assert!(
        bad.iter().filter(|f| f.rule == "annotation-syntax").count() >= 4,
        "{bad:#?}"
    );
}

/// The full catalog: every rule named in `RULES` has a fixture test in
/// this file, and every rule exercised here is in the catalog.
#[test]
fn rule_catalog_is_complete() {
    let pinned = [
        "wall-clock",
        "entropy-rng",
        "unordered-iter",
        "panic-path",
        "hot-path-lock",
        "hot-path-ordering",
        "lock-order",
        "opcode-arm",
        "opcode-proptest",
        "alloc-cap",
        "ack-before-durable",
        "allow-without-reason",
        "unused-allow",
        "annotation-syntax",
    ];
    let catalog: Vec<&str> = ldp_lint::rules::RULES
        .iter()
        .map(|&(name, _)| name)
        .collect();
    for rule in pinned {
        assert!(
            catalog.contains(&rule),
            "fixture-pinned rule `{rule}` missing from RULES"
        );
    }
    for rule in &catalog {
        assert!(
            pinned.contains(rule),
            "catalog rule `{rule}` has no fixture pin"
        );
    }
    assert!(
        catalog.len() >= 10,
        "issue floor: at least 10 distinct rules"
    );
}
