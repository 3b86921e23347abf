//! [`AnalysisCache`]: the shared, sharded memo of [`ComponentAnalysis`]
//! results — structural key, TinyLFU admission, clock eviction.

use super::ComponentAnalysis;
use crate::component::Component;
use crate::tiling::{Infeasible, Solution};
use crate::timing::ExecModel;
use prem_polyhedral::ReduceOp;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Cache key: the component's loop structure, the execution model and the
/// search coordinates. Platform timing scalars are deliberately absent —
/// that is the whole point of the cache.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct AnalysisKey {
    levels: Vec<(usize, i64)>,
    /// Per-level `parallel` flags plus the privatized accumulators: reduction
    /// privatization mutates the component (levels become parallel, arrays
    /// gain combine buffers and a combine phase), so analyses of the
    /// privatized and unprivatized variants of one kernel must not collide.
    parallel: Vec<bool>,
    privatized: Vec<(usize, ReduceOp)>,
    model_bits: Vec<u64>,
    cores: usize,
    solution: Solution,
}

fn analysis_key(
    component: &Component,
    exec_model: &ExecModel,
    cores: usize,
    solution: &Solution,
) -> AnalysisKey {
    AnalysisKey {
        levels: component
            .levels
            .iter()
            .map(|l| (l.loop_id, l.count))
            .collect(),
        parallel: component.levels.iter().map(|l| l.parallel).collect(),
        privatized: component
            .arrays
            .iter()
            .enumerate()
            .filter_map(|(i, a)| a.privatized.map(|op| (i, op)))
            .collect(),
        model_bits: exec_model
            .o
            .iter()
            .map(|v| v.to_bits())
            .chain([exec_model.w.to_bits()])
            .collect(),
        cores,
        solution: solution.clone(),
    }
}

type CacheEntry = Result<Arc<ComponentAnalysis>, Infeasible>;

const CACHE_SHARDS: usize = 16;
/// Analyses heavier than this (in [`ComponentAnalysis::weight`] units) are
/// not cached — a `K = 1` solution of a large kernel can carry 100k+
/// segments and would evict everything useful.
const MAX_ENTRY_WEIGHT: usize = 1 << 16;
/// Default total cache budget in weight units (~a few hundred MB worst
/// case), split evenly across shards.
const MAX_TOTAL_WEIGHT: usize = 1 << 22;

/// Counters per shard frequency sketch (power of two).
const SKETCH_WIDTH: usize = 1024;
/// Touches between counter halvings — the TinyLFU aging window, sized so a
/// sweep-long scan cannot freeze the sketch at saturation.
const SKETCH_SAMPLE: usize = 8 * SKETCH_WIDTH;
/// 4-bit counter ceiling.
const SKETCH_CAP: u8 = 15;

/// A tiny count-min-style frequency sketch (TinyLFU): every lookup bumps 4
/// double-hashed 4-bit counters; the estimated frequency of a key is the
/// minimum over its counters. All counters halve every [`SKETCH_SAMPLE`]
/// touches, so the estimate tracks *recent* popularity — one-shot scan keys
/// stay near 0 while the resident working set climbs.
struct FreqSketch {
    counters: Vec<u8>,
    touches: usize,
}

impl Default for FreqSketch {
    fn default() -> Self {
        FreqSketch {
            counters: vec![0; SKETCH_WIDTH],
            touches: 0,
        }
    }
}

impl FreqSketch {
    /// Kirsch–Mitzenmacher double hashing: probe `i` lives at `h1 + i·h2`.
    fn slot(h: u64, i: u64) -> usize {
        let h2 = (h >> 32) | 1;
        (h.wrapping_add(i.wrapping_mul(h2)) as usize) & (SKETCH_WIDTH - 1)
    }

    /// Records one lookup of the key hashing to `h`.
    fn touch(&mut self, h: u64) {
        self.touches += 1;
        if self.touches >= SKETCH_SAMPLE {
            self.touches = 0;
            for c in &mut self.counters {
                *c >>= 1;
            }
        }
        for i in 0..4u64 {
            let s = Self::slot(h, i);
            if self.counters[s] < SKETCH_CAP {
                self.counters[s] += 1;
            }
        }
    }

    /// Estimated recent lookup frequency of the key hashing to `h`.
    fn estimate(&self, h: u64) -> u8 {
        (0..4u64)
            .map(|i| self.counters[Self::slot(h, i)])
            .min()
            .unwrap_or(0)
    }
}

/// One resident cache entry with its clock reference bit.
struct ShardSlot {
    key: AnalysisKey,
    /// The key's 64-bit hash, kept for frequency comparisons at admission.
    hash: u64,
    entry: CacheEntry,
    weight: usize,
    referenced: bool,
}

/// One cache shard: a key→slot index, the slot arena the clock hand sweeps,
/// the admission frequency sketch and the shard's resident weight — all
/// guarded by one mutex, so weight accounting cannot race with admission.
#[derive(Default)]
struct Shard {
    map: HashMap<AnalysisKey, usize>,
    slots: Vec<Option<ShardSlot>>,
    free: Vec<usize>,
    hand: usize,
    weight: usize,
    sketch: FreqSketch,
}

impl Shard {
    /// Looks up a key, recording the lookup in the frequency sketch (hit or
    /// miss — a miss that comes back as an insertion is judged on it).
    fn get(&mut self, key: &AnalysisKey, hash: u64) -> Option<CacheEntry> {
        self.sketch.touch(hash);
        let slot = *self.map.get(key)?;
        let s = self.slots[slot].as_mut().expect("mapped slot is occupied");
        s.referenced = true;
        Some(s.entry.clone())
    }

    /// Admits an entry, evicting via the clock until it fits the budget —
    /// unless the frequency filter finds the clock's victim hotter than the
    /// candidate, in which case admission is declined (scan resistance: a
    /// one-shot sweep point must not churn the resident working set).
    /// Frequency ties admit, keeping recency as the tie-breaker.
    /// Returns `(evicted, admitted)`.
    fn insert(
        &mut self,
        key: AnalysisKey,
        hash: u64,
        entry: CacheEntry,
        weight: usize,
        budget: usize,
    ) -> (usize, bool) {
        // Replace-in-place when the key is already resident: release the old
        // slot's weight before admitting the new entry. Without this, a
        // duplicate insert would overwrite the map index while the stale
        // slot's weight stayed accounted forever — a leak that compounds on
        // a long-lived cross-request cache. Both callers re-check occupancy
        // under this same lock, so this is defense in depth rather than a
        // reachable path today.
        if let Some(&slot) = self.map.get(&key) {
            self.evict_at(slot);
        }
        let cand_freq = self.sketch.estimate(hash);
        let mut evicted = 0;
        while self.weight + weight > budget {
            let Some(victim) = self.find_victim() else {
                break;
            };
            let victim_hash = self.slots[victim]
                .as_ref()
                .expect("victim slot is occupied")
                .hash;
            if cand_freq < self.sketch.estimate(victim_hash) {
                return (evicted, false);
            }
            self.evict_at(victim);
            evicted += 1;
        }
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            self.slots.len() - 1
        });
        self.slots[slot] = Some(ShardSlot {
            key: key.clone(),
            hash,
            entry,
            weight,
            referenced: true,
        });
        self.map.insert(key, slot);
        self.weight += weight;
        (evicted, true)
    }

    /// Evicts the clock's next victim unconditionally. Returns `false` when
    /// the shard is empty. Production inserts go through [`Shard::insert`]'s
    /// admission loop; this bypass exercises bare clock rotation in tests.
    #[cfg(test)]
    fn evict_one(&mut self) -> bool {
        match self.find_victim() {
            Some(i) => {
                self.evict_at(i);
                true
            }
            None => false,
        }
    }

    /// Second-chance sweep: clears reference bits until it finds a cold
    /// entry, and returns its slot without removing it. Bounded at two
    /// revolutions (everything is referenced on the first, something is
    /// evictable on the second).
    fn find_victim(&mut self) -> Option<usize> {
        if self.map.is_empty() {
            return None;
        }
        let n = self.slots.len();
        for _ in 0..2 * n + 1 {
            let i = self.hand;
            self.hand = (self.hand + 1) % n;
            if let Some(s) = self.slots[i].as_mut() {
                if s.referenced {
                    s.referenced = false;
                } else {
                    return Some(i);
                }
            }
        }
        None
    }

    /// Removes the entry in slot `i`.
    fn evict_at(&mut self, i: usize) {
        let s = self.slots[i].take().expect("evicted slot is occupied");
        self.map.remove(&s.key);
        self.weight -= s.weight;
        self.free.push(i);
    }
}

/// Cross-check of the cache's incremental weight/entry accounting against a
/// ground-truth recount of the resident slots. See [`AnalysisCache::audit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheAudit {
    /// Resident entries per the per-shard key maps.
    pub entries: usize,
    /// Total weight per the incrementally maintained per-shard counters —
    /// what admission decisions are based on.
    pub accounted_weight: usize,
    /// Total weight recomputed by walking every resident slot.
    pub recomputed_weight: usize,
    /// True when, for every shard, the accounted weight equals the recounted
    /// slot weight, the key map and slot arena agree entry-for-entry, and
    /// the free list is consistent with the occupied slots.
    pub consistent: bool,
}

/// Outcome of one [`AnalysisCache::get_or_build_with`] lookup.
pub struct CacheLookup {
    /// The analysis or infeasibility verdict.
    pub entry: CacheEntry,
    /// True when the result came from the cache.
    pub hit: bool,
    /// Entries evicted to admit this one — attributed to the caller so
    /// telemetry aggregation stays race-free.
    pub evicted: usize,
    /// True when the entry was built but the frequency-based admission
    /// filter declined to cache it (the candidate was colder than the
    /// clock's eviction victim).
    pub rejected: bool,
}

/// Shared, sharded memo of [`ComponentAnalysis`] results (including
/// infeasibility verdicts), keyed by structure only. One cache serves every
/// optimizer run of a sweep: points that differ only in bus speed or API
/// costs hit for every candidate the previous points explored. Admission is
/// weight-aware with per-shard clock (second-chance) eviction, so a long
/// multi-kernel sweep keeps its hot keys resident instead of freezing the
/// cache at first saturation.
pub struct AnalysisCache {
    shards: Vec<Mutex<Shard>>,
    shard_budget: usize,
    evictions: AtomicUsize,
    admission_rejects: AtomicUsize,
}

impl Default for AnalysisCache {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for AnalysisCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnalysisCache")
            .field("entries", &self.len())
            .field("weight", &self.weight())
            .field("evictions", &self.evictions())
            .field("admission_rejects", &self.admission_rejects())
            .finish()
    }
}

impl AnalysisCache {
    /// Creates an empty cache with the default weight budget.
    pub fn new() -> Self {
        Self::with_total_weight(MAX_TOTAL_WEIGHT)
    }

    /// Creates an empty cache with a custom total weight budget (split
    /// evenly across shards; mainly for eviction tests).
    pub fn with_total_weight(total: usize) -> Self {
        AnalysisCache {
            shards: (0..CACHE_SHARDS)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            shard_budget: (total / CACHE_SHARDS).max(1),
            evictions: AtomicUsize::new(0),
            admission_rejects: AtomicUsize::new(0),
        }
    }

    /// Number of cached analyses across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap().map.len())
            .sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total resident weight across all shards.
    pub fn weight(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().weight).sum()
    }

    /// Total entries evicted since creation.
    pub fn evictions(&self) -> usize {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Total insertions declined by the frequency-based admission filter
    /// since creation.
    pub fn admission_rejects(&self) -> usize {
        self.admission_rejects.load(Ordering::Relaxed)
    }

    /// Returns the analysis (or infeasibility verdict) for the key, calling
    /// `build` on a miss. The build runs outside the shard lock; when two
    /// threads race on the same miss, both build but only the entry that
    /// lands in the shard is weight-accounted (admission re-checks occupancy
    /// under the lock). Oversized entries are returned but not admitted.
    pub fn get_or_build_with<F>(
        &self,
        component: &Component,
        solution: &Solution,
        cores: usize,
        exec_model: &ExecModel,
        build: F,
    ) -> CacheLookup
    where
        F: FnOnce() -> CacheEntry,
    {
        let key = analysis_key(component, exec_model, cores, solution);
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        let hash = hasher.finish();
        let shard = &self.shards[(hash as usize) % CACHE_SHARDS];
        if let Some(entry) = shard.lock().unwrap().get(&key, hash) {
            return CacheLookup {
                entry,
                hit: true,
                evicted: 0,
                rejected: false,
            };
        }
        let entry = build();
        let weight = entry.as_ref().map(|a| a.weight()).unwrap_or(1);
        let mut evicted = 0;
        let mut rejected = false;
        if weight <= MAX_ENTRY_WEIGHT && weight <= self.shard_budget {
            let mut guard = shard.lock().unwrap();
            if !guard.map.contains_key(&key) {
                let (e, admitted) =
                    guard.insert(key, hash, entry.clone(), weight, self.shard_budget);
                evicted = e;
                rejected = !admitted;
            }
        }
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
        if rejected {
            self.admission_rejects.fetch_add(1, Ordering::Relaxed);
        }
        CacheLookup {
            entry,
            hit: false,
            evicted,
            rejected,
        }
    }

    /// Cache-only lookup: returns the entry when resident, `None` on a miss
    /// — no build, no insertion. The lookup is recorded in the shard's
    /// frequency sketch and reference bit exactly like the hit path of
    /// [`AnalysisCache::get_or_build_with`], so the batched scan path (probe
    /// everything first, bulk-build the misses, then insert) sees the same
    /// admission dynamics as per-candidate lookups.
    pub fn probe(
        &self,
        component: &Component,
        solution: &Solution,
        cores: usize,
        exec_model: &ExecModel,
    ) -> Option<CacheEntry> {
        let key = analysis_key(component, exec_model, cores, solution);
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        let hash = hasher.finish();
        self.shards[(hash as usize) % CACHE_SHARDS]
            .lock()
            .unwrap()
            .get(&key, hash)
    }

    /// Inserts a prebuilt entry for the key (unless already resident),
    /// applying the same weight gates and frequency-based admission as
    /// [`AnalysisCache::get_or_build_with`]'s miss path. Returns
    /// `(evicted, rejected)` for the caller's telemetry. Unlike a
    /// `get_or_build_with` round-trip, this does not touch the frequency
    /// sketch again — the preceding [`AnalysisCache::probe`] already
    /// recorded the lookup.
    pub fn admit(
        &self,
        component: &Component,
        solution: &Solution,
        cores: usize,
        exec_model: &ExecModel,
        entry: CacheEntry,
    ) -> (usize, bool) {
        let key = analysis_key(component, exec_model, cores, solution);
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        let hash = hasher.finish();
        let shard = &self.shards[(hash as usize) % CACHE_SHARDS];
        let weight = entry.as_ref().map(|a| a.weight()).unwrap_or(1);
        let mut evicted = 0;
        let mut rejected = false;
        if weight <= MAX_ENTRY_WEIGHT && weight <= self.shard_budget {
            let mut guard = shard.lock().unwrap();
            if !guard.map.contains_key(&key) {
                let (e, admitted) = guard.insert(key, hash, entry, weight, self.shard_budget);
                evicted = e;
                rejected = !admitted;
            }
        }
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
        if rejected {
            self.admission_rejects.fetch_add(1, Ordering::Relaxed);
        }
        (evicted, rejected)
    }

    /// Recounts every resident slot and cross-checks the incrementally
    /// maintained weight/entry accounting against it — the invariant the
    /// concurrent miss-path hammer test pins. Takes each shard lock in turn,
    /// so concurrent lookups may land between shards; run it quiesced when
    /// exact totals matter.
    pub fn audit(&self) -> CacheAudit {
        let mut audit = CacheAudit {
            entries: 0,
            accounted_weight: 0,
            recomputed_weight: 0,
            consistent: true,
        };
        for shard in &self.shards {
            let s = shard.lock().unwrap();
            let occupied: Vec<(usize, &ShardSlot)> = s
                .slots
                .iter()
                .enumerate()
                .filter_map(|(i, slot)| slot.as_ref().map(|sl| (i, sl)))
                .collect();
            let recounted: usize = occupied.iter().map(|(_, sl)| sl.weight).sum();
            audit.entries += s.map.len();
            audit.accounted_weight += s.weight;
            audit.recomputed_weight += recounted;
            let maps_agree = s.map.len() == occupied.len()
                && occupied.iter().all(|(i, sl)| s.map.get(&sl.key) == Some(i));
            let free_consistent = s.free.len() + occupied.len() == s.slots.len()
                && s.free.iter().all(|&i| s.slots[i].is_none());
            audit.consistent &= s.weight == recounted && maps_agree && free_consistent;
        }
        audit
    }

    /// [`AnalysisCache::get_or_build_with`] with the default from-scratch
    /// build. The second element is `true` when the result came from the
    /// cache.
    pub fn get_or_build(
        &self,
        component: &Component,
        solution: &Solution,
        cores: usize,
        exec_model: &ExecModel,
    ) -> (CacheEntry, bool) {
        let lookup = self.get_or_build_with(component, solution, cores, exec_model, || {
            ComponentAnalysis::build(component, solution, cores, exec_model, false).map(Arc::new)
        });
        (lookup.entry, lookup.hit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key_for(i: i64) -> AnalysisKey {
        AnalysisKey {
            levels: vec![(0, 64)],
            parallel: vec![true],
            privatized: vec![],
            model_bits: vec![0],
            cores: 1,
            solution: Solution {
                k: vec![i],
                r: vec![1],
            },
        }
    }

    fn feasible_entry() -> CacheEntry {
        Err(Infeasible::TooManySegments { count: 0 })
    }

    fn hash_of(key: &AnalysisKey) -> u64 {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        hasher.finish()
    }

    #[test]
    fn clock_spares_referenced_entries() {
        let mut shard = Shard::default();
        let budget = usize::MAX;
        for i in 1..=3 {
            let key = key_for(i);
            let h = hash_of(&key);
            shard.insert(key, h, feasible_entry(), 1, budget);
        }
        // First sweep clears all three fresh reference bits, then evicts
        // key 1 (clock order), leaving the hand at slot 1.
        assert!(shard.evict_one());
        let h1 = hash_of(&key_for(1));
        assert!(shard.get(&key_for(1), h1).is_none());
        // Touch key 3: its bit protects it from the next sweep, while the
        // untouched key 2 sits right under the hand.
        let h3 = hash_of(&key_for(3));
        assert!(shard.get(&key_for(3), h3).is_some());
        assert!(shard.evict_one());
        let h2 = hash_of(&key_for(2));
        assert!(
            shard.get(&key_for(2), h2).is_none(),
            "cold entry is the victim"
        );
        assert!(shard.get(&key_for(3), h3).is_some(), "hot entry survives");
        assert_eq!(shard.weight, 1);
    }

    #[test]
    fn shard_weight_tracks_evictions() {
        let mut shard = Shard::default();
        let budget = 10;
        for i in 0..20 {
            let key = key_for(i);
            let h = hash_of(&key);
            // Equal (zero) sketch frequencies tie, so admission proceeds.
            let (_, admitted) = shard.insert(key, h, feasible_entry(), 3, budget);
            assert!(admitted, "frequency ties must admit");
        }
        assert!(shard.weight <= budget);
        assert_eq!(
            shard.weight,
            shard.map.len() * 3,
            "weight matches resident entries"
        );
        // The freelist recycles slots instead of growing the arena forever.
        assert!(shard.slots.len() <= 4);
    }

    #[test]
    fn duplicate_insert_replaces_without_leaking_weight() {
        let mut shard = Shard::default();
        let key = key_for(1);
        let h = hash_of(&key);
        shard.insert(key.clone(), h, feasible_entry(), 3, usize::MAX);
        assert_eq!(shard.weight, 3);
        // Inserting the same key again must release the old slot's weight,
        // not strand it behind the overwritten map index.
        shard.insert(key.clone(), h, feasible_entry(), 5, usize::MAX);
        assert_eq!(shard.map.len(), 1);
        assert_eq!(shard.weight, 5);
        let resident: usize = shard.slots.iter().flatten().map(|s| s.weight).sum();
        assert_eq!(shard.weight, resident);
        assert!(shard.get(&key, h).is_some());
    }

    #[test]
    fn sketch_estimates_and_ages() {
        let mut sketch = FreqSketch::default();
        let (hot, cold) = (0xdead_beef_1234_5678u64, 0x0bad_cafe_8765_4321u64);
        for _ in 0..10 {
            sketch.touch(hot);
        }
        sketch.touch(cold);
        assert!(sketch.estimate(hot) >= sketch.estimate(cold));
        assert!(sketch.estimate(hot) >= 10u8.min(SKETCH_CAP));
        // Counters saturate at the 4-bit cap…
        for _ in 0..100 {
            sketch.touch(hot);
        }
        assert_eq!(sketch.estimate(hot), SKETCH_CAP);
        // …and the periodic halving ages old popularity away.
        for i in 0..(2 * SKETCH_SAMPLE as u64) {
            sketch.touch(i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        }
        assert!(sketch.estimate(hot) < SKETCH_CAP);
    }

    #[test]
    fn cold_candidate_does_not_evict_hot_incumbent() {
        let mut shard = Shard::default();
        let budget = 3;
        let hot = key_for(1);
        let hot_hash = hash_of(&hot);
        shard.insert(hot.clone(), hot_hash, feasible_entry(), 3, budget);
        for _ in 0..5 {
            assert!(shard.get(&hot, hot_hash).is_some());
        }
        // A once-seen scan key must be declined, leaving the incumbent.
        let scan = key_for(2);
        let scan_hash = hash_of(&scan);
        shard.sketch.touch(scan_hash);
        let (evicted, admitted) = shard.insert(scan, scan_hash, feasible_entry(), 3, budget);
        assert_eq!(evicted, 0);
        assert!(!admitted, "cold candidate must be rejected");
        assert!(shard.get(&hot, hot_hash).is_some(), "incumbent survives");
    }
}
