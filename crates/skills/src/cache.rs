//! Sub-DAG identity, and the cross-session materialized sub-DAG cache.
//!
//! Every [`crate::exec::Executor`] checkpoints the sub-DAG results of its
//! runs, but those checkpoints are born empty and die with the executor —
//! N collaborators asking overlapping questions against the same catalog
//! recompute the shared plan prefixes N times. The [`MaterializedCache`]
//! is the cross-session tier: a size-bounded, thread-safe store of
//! materialized sub-DAG results, handed to executors through
//! [`crate::env::Env::shared_cache`].
//!
//! ## Keying and invalidation
//!
//! Both tiers, the driver's alias detection and the analyzer's structural
//! ids ([`crate::exec::structural_ids`]) decide "same sub-DAG" by one
//! rule, [`SubDagKey::of`]. A load's key is salted with the source's
//! current storage version (`CloudDatabase::table_version`,
//! `SnapshotStore::snapshot_version`), and a node's key hashes its inputs'
//! keys — so a `create_table`, `drop_table`, or snapshot write changes the
//! leaf key and every ancestor key with it. Stale entries are never
//! *served*; they simply stop being reachable and age out under eviction
//! pressure.
//!
//! Only keys whose whole ancestor cone is version-addressable — pure
//! transforms over `LoadTable` / `UseSnapshot` leaves — are
//! [`SubDagKey::shareable`]. Side-effecting or environment-reading nodes
//! (model training, SQL, artifact saves, file/URL loads...) are never
//! shared: replaying their result from a cache would skip the side effect
//! that other sessions rely on. Degraded (block-sampled) results are
//! excluded by the executor before admission — see `Executor::finish`.
//!
//! ## What an entry holds, and what it is charged
//!
//! The node's output plus the table that flows on to its consumers. Tables
//! share column buffers, and a transforming node's flow table *is* its
//! output, so such an entry is charged for those buffers once. A hit clones
//! handles, never buffers; the columns are immutable, whichever threads
//! hold them. Buffers two entries (or an entry and a storage block) share
//! are charged to each, so the counted total never understates residency.
//!
//! ## Eviction
//!
//! Cost-aware: each entry records the scan footprint
//! (`bytes_scanned + bytes_pruned`) its recomputation would charge, and
//! eviction drops the entry with the lowest footprint **per resident
//! byte** first (ties broken LRU). A small aggregate that took a
//! terabyte of scans to produce is the last thing to go; a huge raw
//! load that was cheap per byte goes first.
//!
//! The entries are kept in that order: beside the map sits an ordered
//! index of `(score bits, last_used, key)`, whose first element is the
//! next victim. A hit re-keys its entry and an admission pops victims off
//! the front, each in O(log n) under the mutex, whatever the number of
//! resident entries. Evicted and replaced entries are dropped after the
//! mutex is released, so freeing a large table never holds it.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::{Arc, Mutex};

use dc_engine::Table;

use crate::dag::SkillDag;
use crate::env::Env;
use crate::exec::needs_env;
use crate::output::SkillOutput;
use crate::skill::SkillCall;

/// The hash of a [`SubDagKey`]: what an executor's checkpoints and, for a
/// shareable key, this cache are keyed by.
pub type SharedKey = u128;

/// The identity of one sub-DAG: a call over the identities of the
/// sub-DAGs feeding it.
///
/// `hash` is 128-bit FNV-1a over a prefix-free encoding — the call
/// signature's length and bytes, the storage-version salt of a
/// `LoadTable` / `UseSnapshot`, the input count, then the inputs' hashes —
/// so input groupings cannot alias: `T(M(p, q))` and `T(M(p), q)` encode
/// differently. Every executor computes the same key for the same
/// sub-DAG over the same storage versions, without sharing any state,
/// which is what lets sessions meet in the shared tier.
///
/// Two sub-DAGs share a key if and only if they are structurally equal,
/// barring a 128-bit hash collision. Every tier assumes that: a collision
/// would serve one sub-DAG's result for another.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SubDagKey {
    /// The FNV-1a hash of the encoding above.
    pub hash: SharedKey,
    /// Whether the result may be served across sessions: the call is
    /// pure or reads versioned storage, and so is every input's.
    pub shareable: bool,
}

/// 128-bit FNV-1a of `bytes`, continuing from `h`.
fn fnv128(mut h: u128, bytes: &[u8]) -> u128 {
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013B;
    for &b in bytes {
        h ^= b as u128;
        h = h.wrapping_mul(PRIME);
    }
    h
}

impl SubDagKey {
    /// The key of `call` over inputs keyed `inputs`. `version` is the
    /// storage version of the source a `LoadTable` / `UseSnapshot` reads;
    /// `None` for every other call, for a missing source (its run errors
    /// before anything is checkpointed) and for structural identity.
    pub fn of(call: &SkillCall, version: Option<u64>, inputs: &[SubDagKey]) -> SubDagKey {
        const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
        let sig = call.cache_key();
        let mut h = fnv128(FNV128_OFFSET, &(sig.len() as u64).to_le_bytes());
        h = fnv128(h, sig.as_bytes());
        h = match version {
            Some(v) => fnv128(fnv128(h, &[1]), &v.to_le_bytes()),
            None => fnv128(h, &[0]),
        };
        h = fnv128(h, &(inputs.len() as u64).to_le_bytes());
        for input in inputs {
            h = fnv128(h, &input.hash.to_le_bytes());
        }
        let own = version.is_some() || !needs_env(call, !inputs.is_empty());
        SubDagKey {
            hash: h,
            shareable: own && inputs.iter().all(|k| k.shareable),
        }
    }
}

/// Every node's key, indexed by node id. With `env` each load is salted
/// with its source's current version, so a recipe keys differently after a
/// catalog or snapshot mutation; without, the keys are structural.
pub fn sub_dag_keys(dag: &SkillDag, env: Option<&Env>) -> Vec<SubDagKey> {
    let mut keys: Vec<SubDagKey> = Vec::with_capacity(dag.len());
    // Node ids are positions and inputs come first, so every input's key
    // is in place when its consumer is reached.
    for node in dag.nodes() {
        let inputs: Vec<SubDagKey> = node.inputs.iter().map(|&i| keys[i]).collect();
        let version = env.and_then(|env| match &node.call {
            SkillCall::LoadTable {
                database, table, ..
            } => env.catalog.database(database).ok()?.table_version(table),
            SkillCall::UseSnapshot { name } => env.snapshots.snapshot_version(name),
            _ => None,
        });
        keys.push(SubDagKey::of(&node.call, version, &inputs));
    }
    keys
}

/// Per-tenant slice of the cache counters, keyed by the attribution
/// string executors carry in [`crate::env::Env::attribution`]. Lets a
/// serving layer answer "whose queries is this cache actually helping"
/// without guessing from aggregate counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantCacheStats {
    /// Probes by this tenant that found a live entry.
    pub hits: u64,
    /// Probes by this tenant that found nothing.
    pub misses: u64,
    /// Entries this tenant's executions admitted.
    pub insertions: u64,
    /// Scan footprint this tenant's hits avoided re-charging.
    pub bytes_saved: u64,
}

/// One cache hit: the node output and the downstream-facing table (both
/// sharing the resident entry's columns), and the scan footprint the hit
/// avoided recomputing.
#[derive(Debug, Clone)]
pub struct CacheHit {
    pub output: SkillOutput,
    pub table: Arc<Table>,
    /// `bytes_scanned + bytes_pruned` recomputing this sub-DAG would
    /// have charged.
    pub footprint_bytes: u64,
}

/// Aggregate counters, snapshotted by [`MaterializedCache::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Probes that found a live entry.
    pub hits: u64,
    /// Probes that found nothing.
    pub misses: u64,
    /// Entries admitted (including replacements).
    pub insertions: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Admissions refused because the entry alone exceeds capacity.
    pub rejected: u64,
    /// Total scan footprint served from hits — bytes of storage traffic
    /// the cache absorbed instead of the catalog.
    pub bytes_saved: u64,
    /// Bytes currently resident.
    pub resident_bytes: u64,
    /// Entries currently resident.
    pub entries: usize,
}

struct Entry {
    output: SkillOutput,
    table: Arc<Table>,
    footprint: u64,
    /// Bytes this entry is charged for: the flow table, plus the output
    /// when it holds buffers of its own (see `admit_as`).
    resident: u64,
    last_used: u64,
}

/// An entry's place in the eviction order: the bits of its score
/// (recompute footprint per resident byte), then `last_used`, then its key.
/// The score is never negative, so its bits sort like its value; no two
/// entries share a `last_used`, so the key never decides.
type Rank = (u64, u64, SharedKey);

impl Entry {
    fn rank(&self, key: SharedKey) -> Rank {
        let score = self.footprint as f64 / self.resident.max(1) as f64;
        (score.to_bits(), self.last_used, key)
    }
}

struct Inner {
    entries: HashMap<SharedKey, Entry>,
    /// The rank of every entry in `entries`; the first is the next victim.
    order: BTreeSet<Rank>,
    used: u64,
    /// Logical clock for LRU tie-breaking.
    clock: u64,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
    rejected: u64,
    bytes_saved: u64,
    /// Attributed counters, one slice per tenant that ever probed or
    /// admitted with an attribution set.
    per_tenant: BTreeMap<String, TenantCacheStats>,
}

impl Inner {
    /// The tenant's counters; its name is allocated on first touch only
    /// (this runs under the cache mutex on every attributed probe).
    fn tenant(&mut self, who: &str) -> &mut TenantCacheStats {
        if !self.per_tenant.contains_key(who) {
            self.per_tenant
                .insert(who.to_string(), TenantCacheStats::default());
        }
        self.per_tenant
            .get_mut(who)
            .expect("present or just inserted")
    }
}

/// The shared, size-bounded, thread-safe materialized-result store.
pub struct MaterializedCache {
    inner: Mutex<Inner>,
    capacity_bytes: u64,
}

impl std::fmt::Debug for MaterializedCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("MaterializedCache")
            .field("capacity_bytes", &self.capacity_bytes)
            .field("stats", &s)
            .finish()
    }
}

impl Default for MaterializedCache {
    fn default() -> Self {
        MaterializedCache::new(MaterializedCache::DEFAULT_CAPACITY)
    }
}

impl MaterializedCache {
    /// Default capacity: 256 MiB of materialized results.
    pub const DEFAULT_CAPACITY: u64 = 256 * 1024 * 1024;

    /// A cache bounded at `capacity_bytes` of resident results.
    pub fn new(capacity_bytes: u64) -> MaterializedCache {
        MaterializedCache {
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                order: BTreeSet::new(),
                used: 0,
                clock: 0,
                hits: 0,
                misses: 0,
                insertions: 0,
                evictions: 0,
                rejected: 0,
                bytes_saved: 0,
                per_tenant: BTreeMap::new(),
            }),
            capacity_bytes,
        }
    }

    /// Capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A poisoned lock only means some thread panicked mid-update of
        // the counters; the map itself is always left consistent.
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Probe for `key`. A hit hands back the stored output and the
    /// downstream-facing table as pointer copies of the resident columns,
    /// never a data copy.
    pub fn get(&self, key: SharedKey) -> Option<CacheHit> {
        self.get_as(key, None)
    }

    /// [`MaterializedCache::get`] with the probe attributed to a tenant,
    /// so [`MaterializedCache::tenant_stats`] can report per-tenant hit
    /// rates and bytes saved.
    pub fn get_as(&self, key: SharedKey, who: Option<&str>) -> Option<CacheHit> {
        let mut guard = self.lock();
        let inner = &mut *guard;
        inner.clock += 1;
        let clock = inner.clock;
        match inner.entries.get_mut(&key) {
            Some(e) => {
                inner.order.remove(&e.rank(key));
                e.last_used = clock;
                inner.order.insert(e.rank(key));
                let hit = CacheHit {
                    output: e.output.clone(),
                    table: Arc::clone(&e.table),
                    footprint_bytes: e.footprint,
                };
                inner.hits += 1;
                inner.bytes_saved += hit.footprint_bytes;
                if let Some(who) = who {
                    let t = inner.tenant(who);
                    t.hits += 1;
                    t.bytes_saved += hit.footprint_bytes;
                }
                Some(hit)
            }
            None => {
                inner.misses += 1;
                if let Some(who) = who {
                    inner.tenant(who).misses += 1;
                }
                None
            }
        }
    }

    /// Admit a result under `key`, evicting lowest-value entries
    /// (footprint per resident byte, LRU tie-break) until it fits. An
    /// entry larger than the whole capacity is refused. Re-admitting an
    /// existing key replaces it.
    ///
    /// Callers are responsible for only admitting authoritative results:
    /// the executor never calls this for degraded (block-sampled)
    /// outputs or for non-version-addressable sub-DAGs.
    pub fn admit(&self, key: SharedKey, output: SkillOutput, table: Arc<Table>, footprint: u64) {
        self.admit_as(key, output, table, footprint, None)
    }

    /// [`MaterializedCache::admit`] with the insertion attributed to a
    /// tenant for [`MaterializedCache::tenant_stats`].
    pub fn admit_as(
        &self,
        key: SharedKey,
        output: SkillOutput,
        table: Arc<Table>,
        footprint: u64,
        who: Option<&str>,
    ) {
        // The flow table, plus the output unless that *is* the flow table
        // (see the module docs): buffers that exist once are charged once.
        let resident = (table.byte_size() as u64)
            + match &output {
                SkillOutput::Table(t) if t.shares_columns_with(&table) => 0,
                SkillOutput::Table(t) => t.byte_size() as u64,
                _ => 64,
            };
        let mut guard = self.lock();
        let inner = &mut *guard;
        if resident > self.capacity_bytes {
            inner.rejected += 1;
            return;
        }
        inner.clock += 1;
        let clock = inner.clock;
        let mut dropped = Vec::new();
        if let Some(old) = inner.entries.remove(&key) {
            inner.order.remove(&old.rank(key));
            inner.used -= old.resident;
            dropped.push(old);
        }
        while inner.used + resident > self.capacity_bytes {
            let Some((_, _, victim)) = inner.order.pop_first() else {
                break;
            };
            if let Some(e) = inner.entries.remove(&victim) {
                inner.used -= e.resident;
                inner.evictions += 1;
                dropped.push(e);
            }
        }
        inner.used += resident;
        inner.insertions += 1;
        if let Some(who) = who {
            inner.tenant(who).insertions += 1;
        }
        let entry = Entry {
            output,
            table,
            footprint,
            resident,
            last_used: clock,
        };
        inner.order.insert(entry.rank(key));
        inner.entries.insert(key, entry);
        debug_assert_eq!(inner.order.len(), inner.entries.len());
        // Freed after the guard: dropping a large table never holds the mutex.
        drop(guard);
        drop(dropped);
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every entry (counters keep accumulating).
    pub fn clear(&self) {
        let mut inner = self.lock();
        let entries = std::mem::take(&mut inner.entries);
        inner.order.clear();
        inner.used = 0;
        drop(inner);
        drop(entries);
    }

    /// Snapshot the attributed counters: one slice per tenant that ever
    /// probed or admitted with an attribution set, sorted by tenant name.
    pub fn tenant_stats(&self) -> Vec<(String, TenantCacheStats)> {
        self.lock()
            .per_tenant
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// One tenant's attributed counters (zeroes when the tenant never
    /// touched the cache).
    pub fn stats_for(&self, who: &str) -> TenantCacheStats {
        self.lock().per_tenant.get(who).copied().unwrap_or_default()
    }

    /// Snapshot the aggregate counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            insertions: inner.insertions,
            evictions: inner.evictions,
            rejected: inner.rejected,
            bytes_saved: inner.bytes_saved,
            resident_bytes: inner.used,
            entries: inner.entries.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_engine::Column;
    use proptest::prelude::*;

    fn table(n: usize) -> Arc<Table> {
        Arc::new(Table::new(vec![("v", Column::from_ints((0..n as i64).collect()))]).unwrap())
    }

    fn entry(n: usize) -> (SkillOutput, Arc<Table>) {
        let t = table(n);
        (SkillOutput::Table(t.as_ref().clone()), t)
    }

    #[test]
    fn get_after_admit_is_zero_copy() {
        let cache = MaterializedCache::new(1 << 20);
        let (out, t) = entry(100);
        cache.admit(1, out, Arc::clone(&t), 800);
        let hit = cache.get(1).expect("hit");
        assert!(Arc::ptr_eq(&hit.table, &t));
        assert_eq!(hit.footprint_bytes, 800);
        assert!(cache.get(2).is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert_eq!(s.bytes_saved, 800);
    }

    #[test]
    fn eviction_prefers_high_footprint_per_byte() {
        // Capacity fits roughly two of the three entries. (An entry whose
        // output is its flow table is charged once — this was `2 *` while
        // admission counted the two handles separately.)
        let (out, t) = entry(1000);
        let resident = t.byte_size() as u64;
        let cache = MaterializedCache::new(resident * 2 + resident / 2);
        // Entry 1: huge footprint per byte (expensive to recompute).
        cache.admit(1, out, t, 1 << 40);
        // Entry 2: cheap per byte.
        let (out, t) = entry(1000);
        cache.admit(2, out, t, 1);
        // Entry 3 forces one eviction; the cheap entry 2 must go.
        let (out, t) = entry(1000);
        cache.admit(3, out, t, 1 << 30);
        assert!(cache.get(1).is_some());
        assert!(cache.get(2).is_none());
        assert!(cache.get(3).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn lru_breaks_footprint_ties() {
        let (out, t) = entry(1000);
        // Charged once, as above.
        let resident = t.byte_size() as u64;
        let cache = MaterializedCache::new(resident * 2 + resident / 2);
        cache.admit(1, out, t, 500);
        let (out, t) = entry(1000);
        cache.admit(2, out, t, 500);
        // Touch 1 so 2 becomes the LRU victim among equal scores.
        cache.get(1);
        let (out, t) = entry(1000);
        cache.admit(3, out, t, 500);
        assert!(cache.get(1).is_some());
        assert!(cache.get(2).is_none());
    }

    #[test]
    fn an_output_that_is_the_flow_table_is_charged_once() {
        let cache = MaterializedCache::new(1 << 20);
        let (out, t) = entry(100);
        let bytes = t.byte_size() as u64;
        assert!(out.as_table().unwrap().shares_columns_with(&t));
        cache.admit(1, out, Arc::clone(&t), 1);
        assert_eq!(cache.stats().resident_bytes, bytes);
        // An output with buffers of its own (equal values, different
        // allocation) is resident beside the flow table: both count.
        let own = SkillOutput::Table(table(100).as_ref().clone());
        cache.admit(2, own, Arc::clone(&t), 1);
        assert_eq!(cache.stats().resident_bytes, 3 * bytes);
        // Sharing across entries stays uncounted: entry 3 is charged in
        // full although entry 1 already holds the same columns.
        let again = SkillOutput::Table(t.as_ref().clone());
        cache.admit(3, again, Arc::clone(&t), 1);
        assert_eq!(cache.stats().resident_bytes, 4 * bytes);
        // Non-table outputs are a flat 64 bytes beside the flow table.
        cache.admit(4, SkillOutput::Text("n".into()), t, 1);
        assert_eq!(cache.stats().resident_bytes, 5 * bytes + 64);
    }

    #[test]
    fn oversized_entry_rejected() {
        let cache = MaterializedCache::new(16);
        let (out, t) = entry(10_000);
        cache.admit(1, out, t, 999);
        assert!(cache.get(1).is_none());
        assert_eq!(cache.stats().rejected, 1);
        assert_eq!(cache.stats().resident_bytes, 0);
    }

    #[test]
    fn readmit_replaces_without_leaking_bytes() {
        let cache = MaterializedCache::new(1 << 20);
        let (out, t) = entry(100);
        cache.admit(1, out, t, 10);
        let used = cache.stats().resident_bytes;
        let (out, t) = entry(100);
        cache.admit(1, out, t, 20);
        assert_eq!(cache.stats().resident_bytes, used);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(1).unwrap().footprint_bytes, 20);
    }

    #[test]
    fn per_tenant_attribution_splits_counters() {
        let cache = MaterializedCache::new(1 << 20);
        let (out, t) = entry(100);
        cache.admit_as(1, out, t, 640, Some("ann"));
        assert!(cache.get_as(1, Some("bob")).is_some());
        assert!(cache.get_as(2, Some("bob")).is_none());
        assert!(cache.get_as(1, Some("ann")).is_some());
        // Unattributed traffic lands only in the aggregate counters.
        assert!(cache.get(1).is_some());
        let ann = cache.stats_for("ann");
        let bob = cache.stats_for("bob");
        assert_eq!((ann.hits, ann.misses, ann.insertions), (1, 0, 1));
        assert_eq!(ann.bytes_saved, 640);
        assert_eq!((bob.hits, bob.misses, bob.insertions), (1, 1, 0));
        assert_eq!(bob.bytes_saved, 640);
        assert_eq!(cache.stats_for("carol"), TenantCacheStats::default());
        let all = cache.stats();
        assert_eq!((all.hits, all.misses), (3, 1));
        let names: Vec<String> = cache.tenant_stats().into_iter().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["ann", "bob"]);
    }

    /// The eviction rule as it was before the cache kept an ordered index:
    /// a linear `min_by` over every resident entry. It is the oracle of
    /// `eviction_order_matches_the_linear_rule`, so keep it as it is.
    #[derive(Default)]
    struct Linear {
        entries: HashMap<SharedKey, Slot>,
        used: u64,
        clock: u64,
        counts: CacheStats,
    }

    struct Slot {
        footprint: u64,
        resident: u64,
        last_used: u64,
    }

    impl Slot {
        fn score(&self) -> f64 {
            self.footprint as f64 / self.resident.max(1) as f64
        }
    }

    impl Linear {
        fn get(&mut self, key: SharedKey) -> Option<u64> {
            self.clock += 1;
            match self.entries.get_mut(&key) {
                Some(e) => {
                    e.last_used = self.clock;
                    self.counts.hits += 1;
                    self.counts.bytes_saved += e.footprint;
                    Some(e.footprint)
                }
                None => {
                    self.counts.misses += 1;
                    None
                }
            }
        }

        /// Admit under `capacity`; returns the evicted keys.
        fn admit(
            &mut self,
            key: SharedKey,
            resident: u64,
            footprint: u64,
            capacity: u64,
        ) -> Vec<SharedKey> {
            let mut victims = Vec::new();
            if resident > capacity {
                self.counts.rejected += 1;
                return victims;
            }
            self.clock += 1;
            if let Some(old) = self.entries.remove(&key) {
                self.used -= old.resident;
            }
            while self.used + resident > capacity {
                // Victim: lowest footprint-per-byte; oldest on ties.
                let victim = self
                    .entries
                    .iter()
                    .min_by(|(_, a), (_, b)| {
                        a.score()
                            .partial_cmp(&b.score())
                            .unwrap_or(std::cmp::Ordering::Equal)
                            .then(a.last_used.cmp(&b.last_used))
                    })
                    .map(|(k, _)| *k);
                match victim {
                    Some(k) => {
                        let e = self.entries.remove(&k).expect("victim exists");
                        self.used -= e.resident;
                        self.counts.evictions += 1;
                        victims.push(k);
                    }
                    None => break,
                }
            }
            self.used += resident;
            self.counts.insertions += 1;
            let slot = Slot {
                footprint,
                resident,
                last_used: self.clock,
            };
            self.entries.insert(key, slot);
            victims
        }

        fn clear(&mut self) {
            self.entries.clear();
            self.used = 0;
        }

        fn stats(&self) -> CacheStats {
            CacheStats {
                resident_bytes: self.used,
                entries: self.entries.len(),
                ..self.counts
            }
        }

        fn keys(&self) -> Vec<SharedKey> {
            let mut keys: Vec<_> = self.entries.keys().copied().collect();
            keys.sort_unstable();
            keys
        }
    }

    fn resident_keys(cache: &MaterializedCache) -> Vec<SharedKey> {
        let inner = cache.lock();
        let mut keys: Vec<_> = inner.entries.keys().copied().collect();
        keys.sort_unstable();
        // The index holds exactly the entries' ranks, in eviction order.
        let ranks: BTreeSet<Rank> = inner.entries.iter().map(|(k, e)| e.rank(*k)).collect();
        assert_eq!(ranks, inner.order);
        keys
    }

    proptest! {
        /// Admits (re-admits of live keys, zero footprints, equal scores,
        /// oversized entries), hits, misses and clears: after every step the
        /// ordered index keeps the entries, victims and counters the linear
        /// rule keeps.
        #[test]
        fn eviction_order_matches_the_linear_rule(
            capacity in 1_024u64..16_384,
            steps in prop::collection::vec(
                ((0u8..20, 0u64..16), (0usize..600, 0u8..3), (0u8..4, 0u64..100_000)),
                1..200,
            ),
        ) {
            let cache = MaterializedCache::new(capacity);
            let mut oracle = Linear::default();
            for ((op, key), (rows, shape), (price, raw)) in steps {
                let key = SharedKey::from(key);
                match op {
                    0..=11 => {
                        let t = table(rows);
                        let bytes = t.byte_size() as u64;
                        let (output, resident) = match shape {
                            0 => (SkillOutput::Table(t.as_ref().clone()), bytes),
                            1 => (SkillOutput::Table(table(rows).as_ref().clone()), 2 * bytes),
                            _ => (SkillOutput::Text("n".into()), bytes + 64),
                        };
                        // Zero, a score shared with every entry of the same
                        // multiplier, a free footprint, or a whole-table load.
                        let footprint = match price {
                            0 => 0,
                            1 => resident * (raw % 4),
                            2 => raw,
                            _ => resident,
                        };
                        let before = resident_keys(&cache);
                        cache.admit(key, output, t, footprint);
                        let mut victims = oracle.admit(key, resident, footprint, capacity);
                        victims.sort_unstable();
                        let after = resident_keys(&cache);
                        let gone: Vec<_> = before
                            .into_iter()
                            .filter(|k| *k != key && !after.contains(k))
                            .collect();
                        prop_assert_eq!(gone, victims);
                    }
                    12..=18 => {
                        let hit = cache.get(key).map(|h| h.footprint_bytes);
                        prop_assert_eq!(hit, oracle.get(key));
                    }
                    _ => {
                        cache.clear();
                        oracle.clear();
                    }
                }
                prop_assert_eq!(resident_keys(&cache), oracle.keys());
                prop_assert_eq!(cache.stats(), oracle.stats());
            }
        }
    }

    #[test]
    fn clear_empties_but_keeps_counters() {
        let cache = MaterializedCache::new(1 << 20);
        let (out, t) = entry(10);
        cache.admit(7, out, t, 5);
        cache.get(7);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().hits, 1);
        assert!(cache.get(7).is_none());
    }
}
