//! Fleet-scale memoization of fault models and variation maps.
//!
//! Every consumer of the die model — a characterization sweep, a `Vmin`
//! search probe, a campaign worker churning through jobs, the §V
//! accelerator ladders, the `uvf-serve` server answering FVM queries for
//! millions of chip seeds — models the same dies again and again.
//! Generating a die walks every bitcell of it, and `variation_map`
//! re-censuses it. Both are pure functions of their keys, so memoizing
//! them is invisible to every record, fingerprint and checkpoint byte.
//!
//! [`FvmCache`] is a bounded LRU over both:
//!
//! * models keyed by `(platform, chip_seed)`,
//! * variation maps keyed by `(platform, chip_seed, temp_c, v_ref)`.
//!
//! Entries are `Arc`s, so a hit costs a clone of a pointer. The model
//! table is the die's one construction path: [`FaultModel::with_chip_seed`]
//! clones its handle out of [`FvmCache::global`], so one die per key is
//! resident process-wide however many callers model it. Hit/miss/
//! eviction totals are kept as atomics and surfaced through `uvf-trace`
//! counters ([`FvmCache::publish`]); publication is driver-side (bench,
//! `repro`, the campaign server) so the deterministic core's event streams
//! stay byte-comparable across warm and cold caches.

use crate::fvm::FaultVariationMap;
use crate::model::FaultModel;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use uvf_fpga::{Millivolts, Platform, PlatformKind};
use uvf_trace::Tracer;

/// Tiny LRU: linear probe over a bounded `Vec`, recency by monotone stamp.
/// Capacities are small (tens of entries) and values are `Arc`s, so the
/// O(n) scan is cheaper than any pointer-chasing structure here.
struct Lru<K, V> {
    cap: usize,
    tick: u64,
    entries: Vec<(K, V, u64)>,
}

impl<K: PartialEq, V: Clone> Lru<K, V> {
    fn new(cap: usize) -> Lru<K, V> {
        Lru {
            cap: cap.max(1),
            tick: 0,
            entries: Vec::new(),
        }
    }

    fn get(&mut self, key: &K) -> Option<V> {
        self.tick += 1;
        let tick = self.tick;
        self.entries
            .iter_mut()
            .find(|(k, _, _)| k == key)
            .map(|(_, v, stamp)| {
                *stamp = tick;
                v.clone()
            })
    }

    /// Insert `value` unless `key` is already cached, and return the value
    /// the cache now holds for `key` plus whether an older entry was
    /// evicted. A racing loser adopts the winner's entry, so two builds of
    /// the same key never leave two live copies behind.
    fn insert(&mut self, key: K, value: V) -> (V, bool) {
        self.tick += 1;
        if let Some(slot) = self.entries.iter_mut().find(|(k, _, _)| *k == key) {
            slot.2 = self.tick;
            return (slot.1.clone(), false);
        }
        let mut evicted = false;
        if self.entries.len() >= self.cap {
            if let Some(oldest) = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, _, stamp))| *stamp)
                .map(|(i, _)| i)
            {
                self.entries.swap_remove(oldest);
                evicted = true;
            }
        }
        self.entries.push((key, value.clone(), self.tick));
        (value, evicted)
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn clear(&mut self) {
        self.entries.clear();
    }
}

/// Variation-map cache key: `(platform, chip_seed, temp in milli-°C,
/// v_ref in mV)`. Temperature is quantized to fixed point so `f64` never
/// participates in key equality.
type MapKey = (PlatformKind, u64, i64, u32);

/// Bounded LRU cache of [`FaultModel`]s and [`FaultVariationMap`]s with
/// hit/miss/eviction counters. Share one instance process-wide via
/// [`FvmCache::global`] — models are pure functions of their keys, so
/// sharing never changes a record byte.
pub struct FvmCache {
    models: Mutex<Lru<(PlatformKind, u64), Arc<FaultModel>>>,
    maps: Mutex<Lru<MapKey, Arc<FaultVariationMap>>>,
    model_capacity: usize,
    map_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    /// Totals already published as trace counters (counters are deltas).
    published: [AtomicU64; 3],
}

impl FvmCache {
    /// Default bound on cached models; a model carries the whole weak-cell
    /// population of a die (a few MiB for a ZC702, ~27 MiB for a VC707),
    /// so the bound is modest.
    pub const DEFAULT_MODEL_CAPACITY: usize = 16;
    /// Default bound on cached variation maps (one `u32` per BRAM each).
    pub const DEFAULT_MAP_CAPACITY: usize = 256;

    #[must_use]
    pub fn new(model_capacity: usize, map_capacity: usize) -> FvmCache {
        FvmCache {
            models: Mutex::new(Lru::new(model_capacity)),
            maps: Mutex::new(Lru::new(map_capacity)),
            model_capacity: model_capacity.max(1),
            map_capacity: map_capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            published: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
        }
    }

    /// The process-wide shared cache: every [`FaultModel::with_chip_seed`]
    /// (and so in-process campaigns, `Vmin` searches, the accelerator
    /// ladders, serve workers and the campaign server) consults this one
    /// instance, so a die generated anywhere is reusable everywhere.
    #[must_use]
    pub fn global() -> &'static FvmCache {
        static GLOBAL: OnceLock<FvmCache> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            FvmCache::new(
                FvmCache::DEFAULT_MODEL_CAPACITY,
                FvmCache::DEFAULT_MAP_CAPACITY,
            )
        })
    }

    /// The memoized die model for `(platform, chip_seed)`, generated on a
    /// miss — the only place a die is ever generated. A fresh cache (e.g.
    /// `FvmCache::new(1, 1)`) therefore always builds, which is how a cold
    /// build is measured or checked against the shared one.
    #[must_use]
    pub fn model(&self, platform: Platform, chip_seed: u64) -> Arc<FaultModel> {
        let key = (platform.kind, chip_seed);
        if let Some(hit) = self.models.lock().expect("fvm cache poisoned").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return hit;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        // Built outside the lock: die generation is the expensive part and
        // concurrent workers must not serialize on it. A racing duplicate
        // build costs time, never correctness: the loser adopts the cached
        // winner and drops its own copy.
        let model = Arc::new(FaultModel::build(platform, chip_seed));
        let (model, evicted) = self
            .models
            .lock()
            .expect("fvm cache poisoned")
            .insert(key, model);
        if evicted {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        model
    }

    /// The memoized variation map for `(platform, chip_seed, temp_c,
    /// v_ref)` — bit-identical to `FaultModel::variation_map_at` by purity.
    #[must_use]
    pub fn variation_map(
        &self,
        platform: Platform,
        chip_seed: u64,
        temp_c: f64,
        v_ref: Millivolts,
    ) -> Arc<FaultVariationMap> {
        let key = (platform.kind, chip_seed, Self::temp_key(temp_c), v_ref.0);
        if let Some(hit) = self.maps.lock().expect("fvm cache poisoned").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return hit;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let model = self.model(platform, chip_seed);
        let map = Arc::new(model.variation_map_at(v_ref, temp_c));
        let (map, evicted) = self
            .maps
            .lock()
            .expect("fvm cache poisoned")
            .insert(key, map);
        if evicted {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        map
    }

    /// Drop every cached die and map, so the next lookup of each key builds
    /// it afresh (a cold-cache check). Handles already given out keep
    /// their die alive; the counters are left as they are.
    pub fn clear(&self) {
        self.models.lock().expect("fvm cache poisoned").clear();
        self.maps.lock().expect("fvm cache poisoned").clear();
    }

    /// Fixed-point temperature key (milli-°C): `f64` stays out of `Eq`.
    fn temp_key(temp_c: f64) -> i64 {
        (temp_c * 1000.0).round() as i64
    }

    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Cached entries right now: `(models, maps)`.
    #[must_use]
    pub fn sizes(&self) -> (usize, usize) {
        (
            self.models.lock().expect("fvm cache poisoned").len(),
            self.maps.lock().expect("fvm cache poisoned").len(),
        )
    }

    /// Configured bounds: `(model_capacity, map_capacity)`.
    #[must_use]
    pub fn capacities(&self) -> (usize, usize) {
        (self.model_capacity, self.map_capacity)
    }

    /// Surface the counters through `uvf-trace` as `fvm_cache_hits`,
    /// `fvm_cache_misses` and `fvm_cache_evictions`. Counters are deltas,
    /// so repeated publishes never double-count; call it from drivers
    /// (bench, `repro`, the campaign server) at reporting boundaries, not
    /// from the deterministic sweep core. Occupancy is published alongside
    /// as absolute gauges (`fvm_cache_size`, `fvm_cache_capacity`; models
    /// and maps combined), so a metrics endpoint shows how full the cache
    /// is without replaying the JSONL counter deltas.
    pub fn publish(&self, tracer: &Tracer) {
        if !tracer.enabled() {
            return;
        }
        let totals = [self.hits(), self.misses(), self.evictions()];
        let names = ["fvm_cache_hits", "fvm_cache_misses", "fvm_cache_evictions"];
        for ((total, published), name) in totals.iter().zip(&self.published).zip(names) {
            let before = published.swap(*total, Ordering::Relaxed);
            tracer.counter(name, total.saturating_sub(before));
        }
        let (models, maps) = self.sizes();
        tracer.gauge("fvm_cache_size", (models + maps) as u64);
        tracer.gauge(
            "fvm_cache_capacity",
            (self.model_capacity + self.map_capacity) as u64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uvf_fpga::PlatformKind;

    #[test]
    fn model_hits_share_the_same_arc_and_count() {
        let cache = FvmCache::new(4, 4);
        let p = PlatformKind::Zc702.descriptor();
        let a = cache.model(p, 42);
        let b = cache.model(p, 42);
        assert!(Arc::ptr_eq(&a, &b), "hit must reuse the cached die");
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        let fresh = FaultModel::build(p, 42);
        assert_eq!(a.total_weak_cells(), fresh.total_weak_cells());
        assert_eq!(a.sentinel(), fresh.sentinel());
    }

    #[test]
    fn map_hits_are_keyed_by_temperature_and_v_ref() {
        let cache = FvmCache::new(4, 8);
        let p = PlatformKind::Zc702.descriptor();
        let v = p.vccbram.vcrash;
        let cold = cache.variation_map(p, 7, 25.0, v);
        let cold_again = cache.variation_map(p, 7, 25.0, v);
        assert!(Arc::ptr_eq(&cold, &cold_again));
        let hot = cache.variation_map(p, 7, 80.0, v);
        assert!(!Arc::ptr_eq(&cold, &hot), "temperature is part of the key");
        assert!(hot.total() < cold.total(), "ITD shrinks the hot census");
        let model = FaultModel::build(p, 7);
        assert_eq!(*cold, model.variation_map(v));
        assert_eq!(*hot, model.variation_map_at(v, 80.0));
    }

    #[test]
    fn inserting_a_cached_key_keeps_and_returns_the_first_value() {
        let mut lru = Lru::new(2);
        assert_eq!(lru.insert(1, Arc::new("first")), (Arc::new("first"), false));
        let first = lru.get(&1).unwrap();
        let (kept, evicted) = lru.insert(1, Arc::new("second"));
        assert!(!evicted);
        assert!(
            Arc::ptr_eq(&kept, &first),
            "the loser adopts the cached entry"
        );
        assert!(Arc::ptr_eq(&lru.get(&1).unwrap(), &first));
        assert_eq!(lru.len(), 1);
    }

    #[test]
    fn clear_empties_both_tables_and_forces_a_rebuild() {
        let cache = FvmCache::new(4, 4);
        let p = PlatformKind::Zc702.descriptor();
        let before = cache.model(p, 9);
        let _ = cache.variation_map(p, 9, 25.0, p.vccbram.vcrash);
        cache.clear();
        assert_eq!(cache.sizes(), (0, 0));
        let misses = cache.misses();
        let rebuilt = cache.model(p, 9);
        assert_eq!(cache.misses(), misses + 1);
        assert!(!Arc::ptr_eq(&before, &rebuilt), "cleared dies are rebuilt");
    }

    #[test]
    fn capacity_is_bounded_and_evictions_counted() {
        let cache = FvmCache::new(2, 2);
        let p = PlatformKind::Zc702.descriptor();
        for seed in 0..5u64 {
            let _ = cache.model(p, seed);
        }
        assert_eq!(cache.sizes().0, 2, "model table stays bounded");
        assert_eq!(cache.evictions(), 3);
        // LRU: the most recent seed survives the churn.
        let before = cache.hits();
        let _ = cache.model(p, 4);
        assert_eq!(cache.hits(), before + 1);
    }

    #[test]
    fn publish_emits_deltas_not_totals() {
        let cache = FvmCache::new(2, 2);
        let p = PlatformKind::Zc702.descriptor();
        let sink = Arc::new(uvf_trace::PrometheusSink::new());
        let tracer = Tracer::builder().sink(Arc::clone(&sink) as _).build();
        let _ = cache.model(p, 1);
        let _ = cache.model(p, 1);
        cache.publish(&tracer);
        cache.publish(&tracer); // no activity since: all-zero deltas
        let counters = sink.counters();
        assert_eq!(counters.get("fvm_cache_hits"), Some(&1));
        assert_eq!(counters.get("fvm_cache_misses"), Some(&1));
        assert_eq!(counters.get("fvm_cache_evictions"), Some(&0));
    }

    #[test]
    fn publish_emits_absolute_occupancy_gauges() {
        let cache = FvmCache::new(2, 3);
        let p = PlatformKind::Zc702.descriptor();
        let sink = Arc::new(uvf_trace::PrometheusSink::new());
        let tracer = Tracer::builder().sink(Arc::clone(&sink) as _).build();
        cache.publish(&tracer);
        assert_eq!(sink.gauge("fvm_cache_size").get(&None), Some(&0));
        assert_eq!(sink.gauge("fvm_cache_capacity").get(&None), Some(&5));
        let _ = cache.model(p, 1);
        let _ = cache.variation_map(p, 1, 25.0, p.vccbram.vcrash);
        cache.publish(&tracer);
        // One model + one map cached; gauges are absolute, not deltas.
        assert_eq!(sink.gauge("fvm_cache_size").get(&None), Some(&2));
        assert_eq!(sink.gauge("fvm_cache_capacity").get(&None), Some(&5));
        assert_eq!(cache.capacities(), (2, 3));
    }
}
