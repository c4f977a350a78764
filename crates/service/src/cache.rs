//! Content-addressed artifact cache with LRU byte-budget eviction.
//!
//! Three artifact kinds are cached, mirroring the pipeline stages the
//! daemon can skip on a hit:
//!
//! - **Prepared** programs (`prepare`: parse + modeling passes + SSA),
//!   keyed by `(source hash, rules hash)`;
//! - **Phase-1** results (pointer analysis + call graph + escape/MHP),
//!   keyed by the prepared key plus the call-graph settings
//!   `(max_cg_nodes, priority)` — the exact validity domain of
//!   [`taj_core::Phase1::matches`];
//! - **Reports**: the serialized response body, keyed by the prepared key
//!   plus configuration name and output format, so a repeat request is
//!   answered byte-identically without re-running phase 2.
//!
//! Values are held behind [`Arc`], so a hit hands out a shared pointer —
//! never a deep copy of a multi-megabyte analysis product.

use std::collections::HashMap;
use std::sync::Arc;

use taj_core::{Phase1, PreparedProgram};

use crate::protocol::OutputFormat;

/// 128-bit FNV-1a over arbitrary bytes: the content address. 128 bits
/// keeps accidental collisions out of reach for any realistic corpus
/// (unlike 64-bit hashes, where a few billion sources would collide).
/// Canonically defined in `taj-store` so the in-memory tiers and the
/// on-disk tier share one addressing discipline.
pub use taj_store::content_hash;

/// Cache key: which artifact, for which content, under which settings.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum ArtifactKey {
    /// A prepared program.
    Prepared {
        /// Hash of the source text.
        src: u128,
        /// Hash of the rules text (0 for the default rule set).
        rules: u128,
    },
    /// A phase-1 result.
    Phase1 {
        /// Hash of the source text.
        src: u128,
        /// Hash of the rules text (0 for the default rule set).
        rules: u128,
        /// Call-graph node budget of the configuration.
        max_cg_nodes: Option<usize>,
        /// Priority-driven call-graph construction flag.
        priority: bool,
    },
    /// A serialized response body.
    Report {
        /// Hash of the source text.
        src: u128,
        /// Hash of the rules text (0 for the default rule set).
        rules: u128,
        /// Configuration name.
        config: String,
        /// Output rendering.
        format: OutputFormat,
        /// Whether the request allowed ladder degradation — a degraded
        /// report and a hard `out_of_memory` failure for the same input
        /// must not share a slot.
        degrade: bool,
    },
}

/// A cached artifact, shared by `Arc` — a hit never deep-copies.
#[derive(Clone)]
pub enum Artifact {
    /// Prepared program.
    Prepared(Arc<PreparedProgram>),
    /// Phase-1 result.
    Phase1(Arc<Phase1>),
    /// Serialized response body.
    Report(Arc<String>),
}

struct Entry {
    value: Artifact,
    bytes: usize,
    last_used: u64,
}

/// Counter snapshot for the `stats` command and tests, aggregated over
/// all three tiers. Per-tier breakdowns come from
/// [`ArtifactCache::tier_stats`].
#[derive(Clone, Copy, Debug, Default, serde::Serialize)]
pub struct CacheStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that found nothing (including post-eviction re-lookups).
    pub misses: u64,
    /// Entries evicted to stay under the byte budget.
    pub evictions: u64,
    /// Estimated bytes currently held.
    pub bytes_used: usize,
    /// Configured byte budget.
    pub bytes_budget: usize,
    /// Live entries.
    pub entries: usize,
}

/// Counters for a single cache tier (prepared, phase-1, or report).
#[derive(Clone, Copy, Debug, Default, serde::Serialize)]
pub struct TierStats {
    /// Lookups that found a live entry in this tier.
    pub hits: u64,
    /// Lookups that found nothing in this tier.
    pub misses: u64,
    /// Entries of this tier evicted for the byte budget.
    pub evictions: u64,
    /// Estimated bytes currently held by this tier.
    pub bytes_used: usize,
    /// Live entries in this tier.
    pub entries: usize,
}

/// Per-tier counter snapshot: one [`TierStats`] per pipeline stage the
/// cache can skip. A phase-1 hit saves far more work than a report hit,
/// so the aggregate numbers alone cannot tell whether the cache is
/// earning its memory.
#[derive(Clone, Copy, Debug, Default, serde::Serialize)]
pub struct CacheTiers {
    /// Prepared programs (parse + modeling + SSA).
    pub prepared: TierStats,
    /// Phase-1 results (pointer analysis + escape/MHP).
    pub phase1: TierStats,
    /// Serialized response bodies.
    pub report: TierStats,
}

/// Stable tier names, index-aligned with `tier_index`.
pub const TIER_NAMES: [&str; 3] = ["prepared", "phase1", "report"];

fn tier_index(key: &ArtifactKey) -> usize {
    match key {
        ArtifactKey::Prepared { .. } => 0,
        ArtifactKey::Phase1 { .. } => 1,
        ArtifactKey::Report { .. } => 2,
    }
}

/// The LRU byte-budget cache. Not internally synchronized — the server
/// wraps it in a `Mutex` and keeps critical sections to lookup/insert
/// (analysis itself runs outside the lock).
pub struct ArtifactCache {
    budget: usize,
    map: HashMap<ArtifactKey, Entry>,
    tick: u64,
    tiers: [TierStats; 3],
    bytes: usize,
}

impl ArtifactCache {
    /// Creates a cache bounded at `budget_bytes` (estimated bytes).
    pub fn new(budget_bytes: usize) -> ArtifactCache {
        ArtifactCache {
            budget: budget_bytes,
            map: HashMap::new(),
            tick: 0,
            tiers: [TierStats::default(); 3],
            bytes: 0,
        }
    }

    /// Looks up `key`, bumping its recency and the hit/miss counters of
    /// its tier.
    pub fn get(&mut self, key: &ArtifactKey) -> Option<Artifact> {
        self.tick += 1;
        let tier = &mut self.tiers[tier_index(key)];
        match self.map.get_mut(key) {
            Some(entry) => {
                entry.last_used = self.tick;
                tier.hits += 1;
                Some(entry.value.clone())
            }
            None => {
                tier.misses += 1;
                None
            }
        }
    }

    /// Looks up `key` without touching the hit/miss counters or recency.
    /// The insert path uses this to stay first-writer-wins: a racing
    /// loser must return the winner's bytes, but the race is not a cache
    /// hit or miss from the caller's point of view — it already counted
    /// its miss on the way in.
    pub fn peek(&self, key: &ArtifactKey) -> Option<Artifact> {
        self.map.get(key).map(|entry| entry.value.clone())
    }

    /// Inserts (or replaces) an entry, then evicts least-recently-used
    /// entries until the byte budget holds. The just-inserted entry is
    /// never evicted, so a single oversized artifact still caches (it
    /// simply occupies the whole budget until displaced).
    pub fn insert(&mut self, key: ArtifactKey, value: Artifact, bytes: usize) {
        self.tick += 1;
        let idx = tier_index(&key);
        if let Some(old) =
            self.map.insert(key.clone(), Entry { value, bytes, last_used: self.tick })
        {
            self.bytes -= old.bytes;
            self.tiers[idx].bytes_used -= old.bytes;
            self.tiers[idx].entries -= 1;
        }
        self.bytes += bytes;
        self.tiers[idx].bytes_used += bytes;
        self.tiers[idx].entries += 1;
        while self.bytes > self.budget && self.map.len() > 1 {
            let victim = self
                .map
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            match victim {
                Some(v) => {
                    if let Some(e) = self.map.remove(&v) {
                        let vt = &mut self.tiers[tier_index(&v)];
                        vt.bytes_used -= e.bytes;
                        vt.entries -= 1;
                        vt.evictions += 1;
                        self.bytes -= e.bytes;
                    }
                }
                None => break,
            }
        }
    }

    /// Current counters, aggregated over all tiers.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.tiers.iter().map(|t| t.hits).sum(),
            misses: self.tiers.iter().map(|t| t.misses).sum(),
            evictions: self.tiers.iter().map(|t| t.evictions).sum(),
            bytes_used: self.bytes,
            bytes_budget: self.budget,
            entries: self.map.len(),
        }
    }

    /// Current counters, per tier.
    pub fn tier_stats(&self) -> CacheTiers {
        CacheTiers { prepared: self.tiers[0], phase1: self.tiers[1], report: self.tiers[2] }
    }
}

/// Estimated footprint of a prepared program, driven by source size (the
/// IR scales roughly linearly with it).
pub fn prepared_bytes(source_len: usize) -> usize {
    4096 + source_len * 12
}

/// Footprint of a phase-1 result: an estimate driven by the solver's own
/// size counters, plus the exact heap bytes of its def-use index.
pub fn phase1_bytes(phase1: &Phase1) -> usize {
    let s = &phase1.pts.stats;
    let solver =
        4096 + s.pointer_keys * 96 + s.instance_keys * 96 + s.call_edges * 48 + s.nodes * 64;
    solver + phase1.index.heap_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_key(src: u128, config: &str) -> ArtifactKey {
        ArtifactKey::Report {
            src,
            rules: 0,
            config: config.to_string(),
            format: OutputFormat::Report,
            degrade: false,
        }
    }

    fn report(text: &str) -> Artifact {
        Artifact::Report(Arc::new(text.to_string()))
    }

    #[test]
    fn hit_miss_accounting() {
        let mut c = ArtifactCache::new(1 << 20);
        assert!(c.get(&report_key(1, "hybrid")).is_none());
        c.insert(report_key(1, "hybrid"), report("r"), 100);
        assert!(c.get(&report_key(1, "hybrid")).is_some());
        assert!(c.get(&report_key(2, "hybrid")).is_none());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 2, 0));
        assert_eq!(s.bytes_used, 100);
        assert_eq!(s.entries, 1);
    }

    #[test]
    fn keys_distinguish_configs_and_settings() {
        // Same source under different configurations must occupy distinct
        // slots — a hit for one config must never serve another's bytes.
        let mut c = ArtifactCache::new(1 << 20);
        c.insert(report_key(1, "hybrid"), report("a"), 10);
        c.insert(report_key(1, "cs"), report("b"), 10);
        let k_sarif = ArtifactKey::Report {
            src: 1,
            rules: 0,
            config: "hybrid".to_string(),
            format: OutputFormat::Sarif,
            degrade: false,
        };
        c.insert(k_sarif.clone(), report("c"), 10);
        let p1 = ArtifactKey::Phase1 { src: 1, rules: 0, max_cg_nodes: None, priority: false };
        let p2 = ArtifactKey::Phase1 { src: 1, rules: 0, max_cg_nodes: Some(3500), priority: true };
        assert_ne!(p1, p2);
        assert_eq!(c.stats().entries, 3);
        match c.get(&report_key(1, "hybrid")) {
            Some(Artifact::Report(r)) => assert_eq!(*r, "a"),
            other => panic!("expected hybrid report, got {}", other.is_some()),
        }
        match c.get(&k_sarif) {
            Some(Artifact::Report(r)) => assert_eq!(*r, "c"),
            _ => panic!("expected sarif report"),
        }
    }

    #[test]
    fn lru_eviction_under_byte_budget() {
        let mut c = ArtifactCache::new(250);
        c.insert(report_key(1, "hybrid"), report("a"), 100);
        c.insert(report_key(2, "hybrid"), report("b"), 100);
        // Touch 1 so 2 becomes the LRU victim.
        assert!(c.get(&report_key(1, "hybrid")).is_some());
        c.insert(report_key(3, "hybrid"), report("c"), 100);
        let s = c.stats();
        assert_eq!(s.evictions, 1);
        assert!(s.bytes_used <= 250, "{s:?}");
        assert!(c.get(&report_key(2, "hybrid")).is_none(), "LRU entry evicted");
        assert!(c.get(&report_key(1, "hybrid")).is_some(), "recently-used entry kept");
        assert!(c.get(&report_key(3, "hybrid")).is_some(), "new entry kept");
    }

    #[test]
    fn oversized_entry_still_caches() {
        let mut c = ArtifactCache::new(50);
        c.insert(report_key(1, "hybrid"), report("big"), 500);
        assert!(c.get(&report_key(1, "hybrid")).is_some());
        c.insert(report_key(2, "hybrid"), report("next"), 500);
        // The older oversized entry is displaced, the new one kept.
        assert_eq!(c.stats().evictions, 1);
        assert!(c.get(&report_key(2, "hybrid")).is_some());
        assert!(c.get(&report_key(1, "hybrid")).is_none());
    }

    #[test]
    fn replacement_updates_bytes() {
        let mut c = ArtifactCache::new(1000);
        c.insert(report_key(1, "hybrid"), report("a"), 400);
        c.insert(report_key(1, "hybrid"), report("a2"), 100);
        assert_eq!(c.stats().bytes_used, 100);
        assert_eq!(c.stats().entries, 1);
    }

    #[test]
    fn tier_stats_attribute_to_the_right_tier() {
        let mut c = ArtifactCache::new(1 << 20);
        let pk = ArtifactKey::Prepared { src: 1, rules: 0 };
        assert!(c.get(&pk).is_none());
        c.insert(pk.clone(), report("p"), 10);
        assert!(c.get(&pk).is_some());
        c.insert(report_key(1, "hybrid"), report("r"), 20);
        let t = c.tier_stats();
        assert_eq!((t.prepared.hits, t.prepared.misses), (1, 1));
        assert_eq!((t.prepared.entries, t.prepared.bytes_used), (1, 10));
        assert_eq!((t.report.entries, t.report.bytes_used), (1, 20));
        assert_eq!((t.phase1.hits, t.phase1.misses, t.phase1.entries), (0, 0, 0));
        let agg = c.stats();
        assert_eq!((agg.hits, agg.misses), (1, 1));
        assert_eq!((agg.bytes_used, agg.entries), (30, 2));
    }

    #[test]
    fn eviction_attributes_to_the_victims_tier() {
        let mut c = ArtifactCache::new(150);
        c.insert(ArtifactKey::Prepared { src: 1, rules: 0 }, report("p"), 100);
        c.insert(report_key(2, "hybrid"), report("r"), 100);
        let t = c.tier_stats();
        assert_eq!(t.prepared.evictions, 1, "the prepared entry was the LRU victim");
        assert_eq!(t.report.evictions, 0);
        assert_eq!((t.prepared.entries, t.prepared.bytes_used), (0, 0));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn tier_names_align_with_tier_indices() {
        assert_eq!(TIER_NAMES, ["prepared", "phase1", "report"]);
        assert_eq!(tier_index(&ArtifactKey::Prepared { src: 0, rules: 0 }), 0);
        assert_eq!(
            tier_index(&ArtifactKey::Phase1 {
                src: 0,
                rules: 0,
                max_cg_nodes: None,
                priority: false
            }),
            1
        );
        assert_eq!(tier_index(&report_key(0, "hybrid")), 2);
    }

    #[test]
    fn content_hash_separates_similar_inputs() {
        assert_ne!(content_hash(b"class A {}"), content_hash(b"class B {}"));
        assert_ne!(content_hash(b""), content_hash(b"\0"));
        assert_eq!(content_hash(b"same"), content_hash(b"same"));
    }
}
