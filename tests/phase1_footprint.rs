//! Pins the memory the def-use index adds to a phase-1 result. The daemon
//! caches `Phase1` values whole, so the index must stay small next to the
//! points-to solution it is built from, and the cache must charge what it
//! really holds: `phase1_bytes` counts the index by its exact heap bytes.
//!
//! Live bytes are measured with a counting global allocator. The file
//! holds a single test, so no other test thread allocates meanwhile.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use taj::core::{prepare, run_phase1, RuleSet, TajConfig};
use taj::sdg::DefUseIndex;
use taj::service::cache::phase1_bytes;
use taj::webgen::{generate, presets, Scale};

/// Forwards to the system allocator and keeps a count of live bytes.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counter only observes sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            LIVE.fetch_add(new_size, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        new
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn live() -> usize {
    LIVE.load(Ordering::Relaxed)
}

#[test]
fn def_use_index_is_small_and_charged_exactly() {
    for name in ["Webgoat", "SBM", "GridSphere"] {
        let preset = presets().into_iter().find(|p| p.name == name).expect("preset exists");
        let bench = generate(&preset.spec(Scale::standard()));
        let prepared = prepare(&bench.source, Some(&bench.descriptor), RuleSet::default_rules())
            .expect("preset prepares");
        for config in [TajConfig::hybrid_optimized(), TajConfig::hybrid_unbounded()] {
            let label = format!("[{name} {}]", config.name);
            let before = live();
            let phase1 = run_phase1(&prepared, &config);
            let phase1_live = live() - before;
            // The same build as the one inside phase 1, measured alone.
            let before = live();
            let index = DefUseIndex::build(&prepared.program, &phase1.pts);
            let index_live = live() - before;
            assert_eq!(index.stats(), phase1.index.stats(), "{label} builds are deterministic");
            drop(index);
            let rest = phase1_live - index_live;
            assert!(
                index_live * 10 <= rest * 3,
                "{label} index holds {index_live} B, more than 0.3x the {rest} B of the rest \
                 of phase 1"
            );
            let charged = phase1.index.heap_bytes();
            assert!(
                charged * 100 >= index_live * 80 && charged * 100 <= index_live * 125,
                "{label} index charged {charged} B against {index_live} B live"
            );
            assert!(phase1_bytes(&phase1) > charged, "{label} phase1_bytes counts the index");
            eprintln!(
                "{label} phase 1 without index {rest} B, index {index_live} B ({:.2}x), \
                 charged {charged} B",
                index_live as f64 / rest as f64
            );
        }
    }
}
