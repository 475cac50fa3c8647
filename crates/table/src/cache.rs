//! A sharded, bounded, LRU-evicting concurrent cache.
//!
//! [`ShardedLruCache`] is the one caching type of the workspace: every
//! cache of the CATE engine in `faircap-causal` (estimates, adjustment
//! sets, group tables) and of the solve session in
//! `faircap-core` (grouping patterns, intervention evaluations) is an
//! instance of it. Keys are distributed
//! over `N` independently locked shards by hash, so concurrent solve
//! workers contend on `1/N`-th of the cache instead of a single mutex; a
//! global capacity bounds the total entry count, with least-recently-used
//! eviction (exact within a shard, approximate across shards — see
//! [`ShardedLruCache::insert`]). The capacity is fixed when the cache is
//! built ([`ShardedLruCache::new`] / [`ShardedLruCache::unbounded`]).
//!
//! Hit / miss / eviction counters are maintained per shard and summed on
//! demand ([`ShardedLruCache::counters`]), so reading statistics never
//! serializes the hot path. Recency is a single cache-wide atomic clock,
//! which keeps last-use ticks comparable across shards (needed when an
//! insert into a sparse cache sweeps every shard for the globally oldest
//! entry). An unbounded cache never evicts, so it keeps no clock: a hit
//! there writes nothing but its shard's hit count.

use parking_lot::Mutex;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Outcome of a [`ShardedLruCache::insert`].
#[derive(Debug)]
pub struct Inserted<K, V> {
    /// The key already existed: its value was replaced and the entry count
    /// did not grow.
    pub replaced: bool,
    /// Entries evicted to respect the capacity bound.
    pub evicted: Vec<(K, V)>,
}

/// Aggregate hit/miss/eviction counters of a [`ShardedLruCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheCounters {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries evicted to respect the capacity bound.
    pub evictions: u64,
    /// Entries currently held.
    pub entries: usize,
}

struct Shard<K, V> {
    map: HashMap<K, (V, u64)>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<K, V> Default for Shard<K, V> {
    fn default() -> Self {
        Shard {
            map: HashMap::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }
}

impl<K: Hash + Eq + Clone, V> Shard<K, V> {
    /// Remove and return this shard's least-recently-used entry.
    fn evict_lru(&mut self) -> Option<(K, V)> {
        let lru_key = self
            .map
            .iter()
            .min_by_key(|(_, (_, tick))| *tick)
            .map(|(k, _)| k.clone())?;
        let (value, _) = self.map.remove(&lru_key)?;
        self.evictions += 1;
        Some((lru_key, value))
    }
}

/// A concurrent cache with hash-sharded locking, a global entry bound, and
/// LRU eviction. See the [module docs](self).
///
/// # Examples
///
/// ```
/// use faircap_table::cache::ShardedLruCache;
///
/// let cache: ShardedLruCache<u32, String> = ShardedLruCache::new(2, 1);
/// cache.insert(1, "one".into());
/// cache.insert(2, "two".into());
/// assert_eq!(cache.get(&1).as_deref(), Some("one")); // 1 is now most recent
/// cache.insert(3, "three".into());                   // bound 2 → evicts LRU (2)
/// assert_eq!(cache.get(&2), None);
/// assert_eq!(cache.len(), 2);
/// let c = cache.counters();
/// assert_eq!((c.hits, c.misses, c.evictions), (1, 1, 1));
/// ```
pub struct ShardedLruCache<K, V> {
    shards: Box<[Mutex<Shard<K, V>>]>,
    shard_bits: u32,
    capacity: usize,
    entries: AtomicUsize,
    tick: AtomicU64,
}

impl<K: Hash + Eq + Clone, V: Clone> std::fmt::Debug for ShardedLruCache<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedLruCache")
            .field("capacity", &self.capacity)
            .field("counters", &self.counters())
            .finish_non_exhaustive()
    }
}

impl<K: Hash + Eq + Clone, V: Clone> ShardedLruCache<K, V> {
    /// A cache holding at most `capacity` entries across `n_shards` lock
    /// shards. `n_shards` is rounded up to a power of two (minimum 1).
    pub fn new(capacity: usize, n_shards: usize) -> Self {
        let n = n_shards.max(1).next_power_of_two();
        ShardedLruCache {
            shards: (0..n).map(|_| Mutex::new(Shard::default())).collect(),
            shard_bits: n.trailing_zeros(),
            capacity,
            entries: AtomicUsize::new(0),
            tick: AtomicU64::new(0),
        }
    }

    /// An effectively unbounded cache (capacity `usize::MAX`).
    pub fn unbounded(n_shards: usize) -> Self {
        Self::new(usize::MAX, n_shards)
    }

    /// Number of lock shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Entries currently held across all shards.
    pub fn len(&self) -> usize {
        self.entries.load(Ordering::Relaxed)
    }

    /// True when no entry is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn shard_index(&self, key: &K) -> usize {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        // Use the high bits for shard selection so the map (which consumes
        // the low bits) and the shard index stay decorrelated.
        let idx = (h.finish() >> (64 - self.shard_bits.max(1) as u64)) as usize;
        idx & (self.shards.len() - 1)
    }

    fn shard_of(&self, key: &K) -> &Mutex<Shard<K, V>> {
        &self.shards[self.shard_index(key)]
    }

    /// Whether the cache can evict: only a bounded cache reads recency.
    fn bounded(&self) -> bool {
        self.capacity != usize::MAX
    }

    /// The next recency tick; 0 for an unbounded cache, which never reads
    /// one.
    fn next_tick(&self) -> u64 {
        if self.bounded() {
            self.tick.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Look up a key, refreshing its recency in a bounded cache. Counts a
    /// hit or a miss.
    pub fn get(&self, key: &K) -> Option<V> {
        let tick = self.next_tick();
        let bounded = self.bounded();
        let mut shard = self.shard_of(key).lock();
        let found = shard.map.get_mut(key).map(|(value, last_used)| {
            if bounded {
                *last_used = tick;
            }
            value.clone()
        });
        match found {
            Some(_) => shard.hits += 1,
            None => shard.misses += 1,
        }
        found
    }

    /// Return the cached entry for `key`, building (and caching) it with
    /// `build` on a miss. A failed build caches nothing. Two threads that
    /// miss the same key at once both build; the second insert replaces
    /// the first.
    pub fn get_or_build<E>(&self, key: K, build: impl FnOnce() -> Result<V, E>) -> Result<V, E> {
        if let Some(hit) = self.get(&key) {
            return Ok(hit);
        }
        let built = build()?;
        self.insert(key, built.clone());
        Ok(built)
    }

    /// [`get_or_build`](Self::get_or_build) for a value that may already
    /// exist outside the cache: on a miss, `resolve` returns the value and
    /// whether it had to build it. A miss that `resolve` answers without
    /// building counts as a hit, so `misses` counts builds.
    pub fn get_or_resolve<E>(
        &self,
        key: K,
        resolve: impl FnOnce() -> Result<(V, bool), E>,
    ) -> Result<V, E> {
        if let Some(hit) = self.get(&key) {
            return Ok(hit);
        }
        let (value, built) = resolve()?;
        if !built {
            let mut shard = self.shard_of(&key).lock();
            shard.misses -= 1;
            shard.hits += 1;
        }
        self.insert(key, value.clone());
        Ok(value)
    }

    /// Insert (or replace) an entry, evicting least-recently-used entries
    /// while the cache is over capacity.
    ///
    /// The insert shard's lock is released before any eviction, so no two
    /// shard locks are ever held at once. To keep steady-state eviction
    /// cheap, a full cache prefers evicting the LRU entry of the shard just
    /// inserted into (an `O(shard)` scan) and only falls back to the
    /// globally ordered sweep when that shard holds at most the fresh entry
    /// itself — which only happens while the cache is sparse, exactly when
    /// the global sweep is cheap. Cross-shard LRU order is therefore
    /// approximate at steady state (exact for a single-shard cache). Under
    /// concurrent inserts the bound can be overshot transiently, but every
    /// inserting thread evicts until the bound holds again. An unbounded
    /// cache never evicts.
    pub fn insert(&self, key: K, value: V) -> Inserted<K, V> {
        let tick = self.next_tick();
        let shard_idx = self.shard_index(&key);
        let replaced;
        {
            let mut shard = self.shards[shard_idx].lock();
            replaced = shard.map.insert(key, (value, tick)).is_some();
            if !replaced {
                self.entries.fetch_add(1, Ordering::Relaxed);
            }
        }
        let evicted = self.enforce_capacity(shard_idx);
        Inserted { replaced, evicted }
    }

    /// Evict until the capacity bound holds, preferring the LRU entry of
    /// `prefer_shard` while it holds other entries besides the freshest
    /// one. Locks one shard at a time.
    fn enforce_capacity(&self, prefer_shard: usize) -> Vec<(K, V)> {
        let mut evicted = Vec::new();
        while self.entries.load(Ordering::Relaxed) > self.capacity {
            {
                let mut shard = self.shards[prefer_shard].lock();
                if shard.map.len() > 1 {
                    if let Some(pair) = shard.evict_lru() {
                        self.entries.fetch_sub(1, Ordering::Relaxed);
                        evicted.push(pair);
                        continue;
                    }
                }
            }
            // Global sweep: find the shard holding the oldest entry, then
            // evict from it. Ticks are globally comparable because they
            // come from one cache-wide clock.
            let mut oldest: Option<(usize, u64)> = None;
            for (i, shard) in self.shards.iter().enumerate() {
                let shard = shard.lock();
                if let Some(min) = shard.map.values().map(|(_, t)| *t).min() {
                    if oldest.is_none_or(|(_, best)| min < best) {
                        oldest = Some((i, min));
                    }
                }
            }
            let Some((i, _)) = oldest else { break };
            let mut shard = self.shards[i].lock();
            if let Some(pair) = shard.evict_lru() {
                self.entries.fetch_sub(1, Ordering::Relaxed);
                evicted.push(pair);
            }
        }
        evicted
    }

    /// Visit every entry (shard by shard). Used to export cache contents
    /// for snapshots; recency is not refreshed.
    pub fn for_each(&self, mut f: impl FnMut(&K, &V)) {
        for shard in self.shards.iter() {
            let shard = shard.lock();
            for (k, (v, _)) in shard.map.iter() {
                f(k, v);
            }
        }
    }

    /// Drop every entry (counters are retained).
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            let mut shard = shard.lock();
            let n = shard.map.len();
            shard.map.clear();
            self.entries.fetch_sub(n, Ordering::Relaxed);
        }
    }

    /// Hit/miss/eviction counters summed over all shards.
    pub fn counters(&self) -> CacheCounters {
        let mut c = CacheCounters {
            entries: self.len(),
            ..CacheCounters::default()
        };
        for shard in self.shards.iter() {
            let shard = shard.lock();
            c.hits += shard.hits;
            c.misses += shard.misses;
            c.evictions += shard.evictions;
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn bound_is_respected() {
        let cache: ShardedLruCache<u64, u64> = ShardedLruCache::new(8, 4);
        for i in 0..100 {
            cache.insert(i, i * 10);
            assert!(
                cache.len() <= 8,
                "len {} exceeds bound after {i}",
                cache.len()
            );
        }
        assert_eq!(cache.len(), 8);
        let c = cache.counters();
        assert_eq!(c.evictions, 92);
        assert_eq!(c.entries, 8);
    }

    #[test]
    fn evicts_lru_first_single_shard() {
        let cache: ShardedLruCache<u32, u32> = ShardedLruCache::new(3, 1);
        cache.insert(1, 1);
        cache.insert(2, 2);
        cache.insert(3, 3);
        // Touch 1 and 2 so 3 is the LRU.
        assert!(cache.get(&1).is_some());
        assert!(cache.get(&2).is_some());
        let ins = cache.insert(4, 4);
        assert!(!ins.replaced);
        assert_eq!(ins.evicted.len(), 1);
        assert_eq!(ins.evicted[0].0, 3, "LRU entry must go first");
        assert!(cache.get(&3).is_none());
        assert!(cache.get(&1).is_some() && cache.get(&2).is_some() && cache.get(&4).is_some());
    }

    #[test]
    fn replacement_does_not_grow_or_evict() {
        let cache: ShardedLruCache<u32, u32> = ShardedLruCache::new(2, 1);
        assert!(!cache.insert(1, 10).replaced);
        let ins = cache.insert(1, 11);
        assert!(ins.replaced, "second insert of the same key replaces");
        assert!(ins.evicted.is_empty());
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&1), Some(11));
    }

    #[test]
    fn counters_consistent_across_shards() {
        let cache: ShardedLruCache<u64, u64> = ShardedLruCache::unbounded(8);
        for i in 0..200 {
            cache.insert(i, i);
        }
        for i in 0..100 {
            assert_eq!(cache.get(&i), Some(i)); // hits
        }
        for i in 200..250 {
            assert_eq!(cache.get(&i), None); // misses
        }
        let c = cache.counters();
        assert_eq!(c.hits, 100);
        assert_eq!(c.misses, 50);
        assert_eq!(c.evictions, 0);
        assert_eq!(c.entries, 200);
        assert_eq!(cache.len(), 200);
    }

    #[test]
    fn sparse_insert_evicts_globally_oldest() {
        // Ten entries over 64 shards leave most shards empty. An insert
        // into an empty shard has nothing of its own to evict, so it
        // sweeps every shard for the globally oldest entry.
        let cache: ShardedLruCache<u64, u64> = ShardedLruCache::new(10, 64);
        for i in 0..10 {
            cache.insert(i, i);
        }
        // Refresh all but 7, so 7 is the oldest.
        for i in (0..10).filter(|&i| i != 7) {
            cache.get(&i);
        }
        let fresh = (10..)
            .find(|k| cache.shards[cache.shard_index(k)].lock().map.is_empty())
            .unwrap();
        let evicted: Vec<u64> = cache
            .insert(fresh, fresh)
            .evicted
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        assert_eq!(evicted, vec![7]);
        assert_eq!(cache.len(), 10);
    }

    #[test]
    fn capacity_zero_holds_nothing() {
        let cache: ShardedLruCache<u32, u32> = ShardedLruCache::new(0, 2);
        let ins = cache.insert(1, 1);
        assert_eq!(ins.evicted.len(), 1);
        assert_eq!(cache.len(), 0);
        assert!(cache.get(&1).is_none());
    }

    #[test]
    fn for_each_visits_every_entry() {
        let cache: ShardedLruCache<u32, u32> = ShardedLruCache::unbounded(4);
        for i in 0..17 {
            cache.insert(i, i + 100);
        }
        let mut seen = Vec::new();
        cache.for_each(|k, v| seen.push((*k, *v)));
        seen.sort_unstable();
        assert_eq!(seen.len(), 17);
        for (i, (k, v)) in seen.into_iter().enumerate() {
            assert_eq!((k, v), (i as u32, i as u32 + 100));
        }
    }

    #[test]
    fn concurrent_inserts_respect_bound() {
        let cache: Arc<ShardedLruCache<u64, u64>> = Arc::new(ShardedLruCache::new(64, 8));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    for i in 0..500 {
                        let k = t * 1_000 + i;
                        cache.insert(k, k);
                        cache.get(&k);
                    }
                });
            }
        });
        assert!(cache.len() <= 64, "len {}", cache.len());
        let c = cache.counters();
        assert_eq!(c.entries as u64 + c.evictions, 2_000);
    }

    /// An unbounded cache keeps no clock, and its books stay exact; a
    /// bounded one evicts in exact LRU order on one shard.
    #[test]
    fn unbounded_cache_keeps_no_clock_and_bounded_keeps_lru_order() {
        let unbounded: ShardedLruCache<u32, u32> = ShardedLruCache::unbounded(4);
        for i in 0..10 {
            unbounded.insert(i, i);
        }
        for i in 0..15 {
            assert_eq!(unbounded.get(&i), (i < 10).then_some(i));
        }
        assert_eq!(unbounded.tick.load(Ordering::Relaxed), 0);
        let c = unbounded.counters();
        assert_eq!((c.hits, c.misses, c.evictions, c.entries), (10, 5, 0, 10));

        let bounded: ShardedLruCache<u32, u32> = ShardedLruCache::new(3, 1);
        for i in 0..3 {
            bounded.insert(i, i);
        }
        // Use order 2, 0, 1: each insert beyond the bound evicts the
        // least recently used key.
        for i in [2, 0, 1] {
            bounded.get(&i);
        }
        let evicted: Vec<u32> = (3..6)
            .flat_map(|i| bounded.insert(i, i).evicted)
            .map(|(k, _)| k)
            .collect();
        assert_eq!(evicted, vec![2, 0, 1]);
        assert_eq!(bounded.tick.load(Ordering::Relaxed), 9);
    }

    #[test]
    fn resolved_misses_count_as_hits() {
        let cache: ShardedLruCache<u32, u32> = ShardedLruCache::new(4, 2);
        let found = cache.get_or_resolve(1, || Ok::<_, ()>((10, false)));
        let built = cache.get_or_resolve(2, || Ok::<_, ()>((20, true)));
        assert_eq!((found, built), (Ok(10), Ok(20)));
        assert_eq!(cache.get_or_resolve(1, || Err(())), Ok(10));
        assert_eq!(
            cache.get_or_resolve(3, || Err::<(u32, bool), _>(())),
            Err(())
        );
        let c = cache.counters();
        assert_eq!((c.hits, c.misses, c.entries), (2, 2, 2));
    }

    #[test]
    fn clear_empties_but_keeps_counters() {
        let cache: ShardedLruCache<u32, u32> = ShardedLruCache::unbounded(2);
        cache.insert(1, 1);
        cache.get(&1);
        cache.clear();
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.counters().hits, 1);
    }
}
