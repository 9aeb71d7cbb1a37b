//! The namespace engine: a sharded inode tree with epoch-snapshot reads.
//!
//! [`ShardedNamespace`] is the only code that executes or replays namespace
//! operations — on actives, standbys and juniors, in every baseline, and in
//! pool compaction. A single mutable tree would run one op at a time with
//! reads blocking behind mutations; this structure lifts that ceiling
//! while keeping the replicated-state contract intact:
//!
//! * **Inode-id sharding.** Inodes live in N power-of-two shards keyed by
//!   `id % N`, each behind its own `RwLock`. Directory entries, the interned
//!   component-name table, and the parent-directory resolution cache all move
//!   to per-shard state, so ops on unrelated directories touch disjoint
//!   locks. New *file* ids are allocated from their parent directory's shard
//!   (a create or block op locks exactly one shard); new *directory* ids are
//!   spread by hashing `(parent, name)` so a deep tree doesn't collapse into
//!   the root's shard.
//!
//! * **Epoch-snapshot reads.** Every mutation is stamped from a global
//!   counter and published in stamp order to a `visible` epoch. A reader can
//!   [`pin`] the current epoch and see a point-in-time namespace regardless
//!   of concurrent mutations: mutators that run while a pin is registered
//!   preserve the displaced version of each inode they touch in a per-slot
//!   history chain (copy-on-write at inode granularity). When no pin is
//!   registered — the common case on the hot path — mutations write in
//!   place and the structure behaves like a plain tree behind a lock.
//!
//! * **Deterministic multi-shard lock order.** Ops that touch several shards
//!   (mkdir, cross-directory file rename) lock them in ascending shard-index
//!   order; structural subtree ops (directory rename, recursive delete) take
//!   every shard — the namespace-level analogue of the paper's "structural
//!   operations are distributed transactions". Readers never hold two shard
//!   locks at once (each path step locks exactly one shard), so they can
//!   never deadlock against ascending-order writers.
//!
//! ### Pin/mutator protocol
//!
//! The correctness pivot is the race between a mutator deciding "no pins ⇒
//! in-place write is safe" and a reader concurrently registering a pin at an
//! epoch that still needs the displaced version. A `gate: RwLock<()>` closes
//! it: every mutator holds `gate.read()` from before its first write until
//! after it publishes its stamp; a pin registers under `gate.write()`. Pin
//! registration therefore sees a quiescent namespace (`visible` equals the
//! latest allocated stamp) and any mutator that starts afterwards observes
//! the registered pin and copies on write. Unpinning is a plain atomic store
//! — a mutator that still sees a dying pin merely preserves a version nobody
//! reads, which the lazy pruning below reclaims.
//!
//! Version chains are pruned on the next write to a slot once the pins that
//! needed them are gone; subtree deletions performed while a pin was active
//! leave tombstones that each shard sweeps at the start of a later mutation.
//!
//! ### Replay parity
//!
//! Standbys replay journal records through [`ShardedReplaySession`] (a
//! validate-skip fast path over [`ShardedNamespace::apply`]) and juniors
//! install decoded images via [`ShardedNamespace::from_tree`]; all three
//! produce the same [`fingerprint`] for the same history — inode ids may
//! differ (per-shard allocators), but the fingerprint hashes structure,
//! names, and attributes, never ids. Randomized suites hold every op result,
//! read and fingerprint to a path-keyed reference model
//! (`tests/sharded_parity.rs`, `tests/model`).
//!
//! [`pin`]: ShardedNamespace::pin
//! [`fingerprint`]: ShardedNamespace::fingerprint

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock, RwLockWriteGuard};

use mams_journal::Txn;

use crate::inode::{FileInfo, Inode, InodeId, DEFAULT_PERM, ROOT_ID};
use crate::partition::fnv1a64;
use crate::path::{self, PathError};
use crate::tree::{NamespaceTree, NsError};

/// Mutation stamp: allocated per mutation, published in order to `visible`.
pub type Stamp = u64;

/// Default shard count (power of two).
pub const DEFAULT_SHARDS: usize = 16;
/// Concurrent snapshot-pin capacity; `pin` waits for a free slot beyond it.
const MAX_PINS: usize = 32;
/// Sentinel for an unoccupied pin slot.
const PIN_EMPTY: u64 = u64::MAX;
/// Per-shard intern-table bound.
const SHARD_NAME_CAP: usize = 1 << 12;
/// Per-shard resolution-cache bound.
const SHARD_CACHE_CAP: usize = 1 << 10;

/// One inode's versions. `stamp`/`node` is the newest version; `hist` holds
/// displaced versions (oldest first) and is `None` unless mutations ran while
/// a snapshot pin was registered — boxed, so a slot without history costs
/// one word for it. `node == None` is a tombstone: the inode was deleted at
/// `stamp` but an older version may still be pinned.
#[derive(Debug)]
struct Slot {
    stamp: Stamp,
    node: Option<Inode>,
    #[allow(clippy::box_collection)] // one word instead of three (see above)
    hist: Option<Box<Vec<Version>>>,
}

/// A displaced version: the stamp it was written at and the inode then
/// (`None` for a tombstone).
type Version = (Stamp, Option<Inode>);

impl Slot {
    fn base(node: Inode) -> Slot {
        Slot { stamp: 0, node: Some(node), hist: None }
    }

    fn fresh(stamp: Stamp, node: Inode) -> Slot {
        Slot { stamp, node: Some(node), hist: None }
    }

    /// Newest version (what unpinned readers and mutators see).
    fn latest(&self) -> Option<&Inode> {
        self.node.as_ref()
    }

    /// The version visible at `epoch`, if the inode existed then.
    fn at(&self, epoch: Stamp) -> Option<&Inode> {
        if self.stamp <= epoch {
            return self.node.as_ref();
        }
        let hist = self.hist.as_deref().map_or(&[][..], Vec::as_slice);
        hist.iter().rev().find(|(s, _)| *s <= epoch).and_then(|(_, n)| n.as_ref())
    }

    /// Version visible at `epoch`, or newest when `epoch` is `None`.
    fn view(&self, epoch: Option<Stamp>) -> Option<&Inode> {
        match epoch {
            None => self.latest(),
            Some(e) => self.at(e),
        }
    }

    /// Open the newest version for writing at `stamp`. `keep` is the oldest
    /// registered pin epoch: when present, the displaced version is pushed
    /// onto the history chain (after pruning what no pin can read any more);
    /// when absent the chain is cleared and the write happens in place.
    /// Idempotent per stamp, so one op may touch a slot twice.
    fn open(&mut self, stamp: Stamp, keep: Option<Stamp>) -> &mut Option<Inode> {
        if self.stamp == stamp {
            return &mut self.node;
        }
        match keep {
            None => self.hist = None,
            Some(w) => {
                let hist = self.hist.get_or_insert_with(Box::default);
                // Keep the newest history entry at-or-below the oldest pin
                // (it serves that pin) and everything newer.
                if let Some(pos) = hist.iter().rposition(|(s, _)| *s <= w) {
                    hist.drain(..pos);
                }
                hist.push((self.stamp, self.node.clone()));
            }
        }
        self.stamp = stamp;
        &mut self.node
    }
}

/// Hasher for inode-id keys. Ids are sequential per shard (stride = shard
/// count), so SipHash's DoS resistance buys nothing here while dominating
/// the cost of every slot lookup on the hot path; a SplitMix-style mix is
/// a few cycles and fully scrambles the stride (a bare multiply would leave
/// the low bits — the bucket index — in lock-step).
#[derive(Default, Clone, Copy)]
struct IdHasher(u64);

impl std::hash::Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("inode-id keys hash via write_u64");
    }

    fn write_u64(&mut self, n: u64) {
        let mut z = n.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z ^= z >> 32;
        self.0 = z.wrapping_mul(0xd6e8_feb8_6659_fd93);
    }
}

type IdBuild = std::hash::BuildHasherDefault<IdHasher>;

/// Hasher for path and name string keys (resolution cache, name interner).
/// Paths are short (tens of bytes) trusted strings, so FNV-1a beats
/// SipHash's fixed finalization cost on every probe.
#[derive(Clone, Copy)]
struct PathHasher(u64);

impl Default for PathHasher {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl std::hash::Hasher for PathHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1_0000_0000_01b3);
        }
        self.0 = h;
    }
}

type PathBuild = std::hash::BuildHasherDefault<PathHasher>;

/// Mutable per-shard state, behind the shard's `RwLock`.
#[derive(Debug, Default)]
struct ShardState {
    slots: HashMap<InodeId, Slot, IdBuild>,
    /// Interned child-name handles for entries living in this shard's
    /// directories. Bounded: cleared when full; live names stay alive
    /// through the directories that hold them and re-intern on next use.
    names: HashSet<Arc<str>, PathBuild>,
    /// Next inode id this shard hands out (always ≡ shard index mod N).
    next_id: InodeId,
    /// Tombstoned ids awaiting the no-pins sweep.
    dead: Vec<InodeId>,
}

impl ShardState {
    fn intern(&mut self, name: &str) -> Arc<str> {
        if let Some(n) = self.names.get(name) {
            return n.clone();
        }
        if self.names.len() >= SHARD_NAME_CAP {
            self.names.clear();
        }
        let n: Arc<str> = Arc::from(name);
        self.names.insert(n.clone());
        n
    }

    fn alloc_id(&mut self, nshards: u64) -> InodeId {
        let id = self.next_id;
        self.next_id += nshards;
        id
    }
}

#[derive(Debug)]
struct Shard {
    state: RwLock<ShardState>,
}

/// One shard of the path → directory-id resolution cache (sharded by path
/// hash, independently of the inode shards). Entries are stamped with the
/// mutation that inserted them: an entry is valid for an unpinned reader
/// whenever present (inode ids are never reused, directories never become
/// files, and only delete/rename relocate a directory — both remove the
/// entry and, for directories, every entry beneath it), and valid for a pinned
/// reader at epoch `E` when its stamp is ≤ `E` (the binding has held
/// continuously from the stamp to now, which covers `E`).
struct CacheShard {
    map: Mutex<HashMap<Box<str>, (InodeId, Stamp), PathBuild>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl std::fmt::Debug for CacheShard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheShard")
            .field("hits", &self.hits.load(Ordering::Relaxed))
            .field("misses", &self.misses.load(Ordering::Relaxed))
            .finish()
    }
}

/// Resolution-cache hit/miss counters, summed across shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
}

/// Ascending-order write guards over a set of shards (the deterministic
/// multi-shard lock order for cross-shard ops).
struct Locked<'a> {
    guards: Vec<(usize, RwLockWriteGuard<'a, ShardState>)>,
}

impl Locked<'_> {
    fn get(&mut self, shard: usize) -> &mut ShardState {
        let i = self
            .guards
            .binary_search_by_key(&shard, |g| g.0)
            .expect("op touched a shard outside its lock set");
        &mut self.guards[i].1
    }
}

/// The sharded, concurrently-usable namespace. All operations take `&self`;
/// the structure is `Sync` and is shared across shard workers and reader
/// threads without external locking.
pub struct ShardedNamespace {
    shards: Box<[Shard]>,
    cache: Box<[CacheShard]>,
    mask: usize,
    /// Pin/mutator coordination gate (see module docs): mutators hold it
    /// shared across apply+publish, pin registration takes it exclusively.
    gate: RwLock<()>,
    next_stamp: AtomicU64,
    visible: AtomicU64,
    pins_active: AtomicUsize,
    pin_slots: Box<[AtomicU64]>,
    num_files: AtomicU64,
    num_dirs: AtomicU64,
}

impl std::fmt::Debug for ShardedNamespace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedNamespace")
            .field("shards", &self.shards.len())
            .field("num_files", &self.num_files())
            .field("num_dirs", &self.num_dirs())
            .field("visible", &self.visible.load(Ordering::Relaxed))
            .finish()
    }
}

impl Default for ShardedNamespace {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardedNamespace {
    /// A namespace containing only the root directory, with
    /// [`DEFAULT_SHARDS`] shards.
    pub fn new() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }

    /// A namespace with `n` shards (rounded up to a power of two, clamped to
    /// `1..=256`).
    pub fn with_shards(n: usize) -> Self {
        let n = n.clamp(1, 256).next_power_of_two();
        let mut shards = Vec::with_capacity(n);
        for k in 0..n {
            let mut st = ShardState {
                // Shard k hands out ids ≡ k (mod n); id 0 is the root.
                next_id: if k == 0 { n as u64 } else { k as u64 },
                ..ShardState::default()
            };
            if k == 0 {
                st.slots.insert(ROOT_ID, Slot::base(Inode::new_dir()));
            }
            shards.push(Shard { state: RwLock::new(st) });
        }
        let cache = (0..n)
            .map(|_| CacheShard {
                map: Mutex::new(HashMap::default()),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
            })
            .collect::<Vec<_>>();
        ShardedNamespace {
            shards: shards.into_boxed_slice(),
            cache: cache.into_boxed_slice(),
            mask: n - 1,
            gate: RwLock::new(()),
            next_stamp: AtomicU64::new(0),
            visible: AtomicU64::new(0),
            pins_active: AtomicUsize::new(0),
            pin_slots: (0..MAX_PINS).map(|_| AtomicU64::new(PIN_EMPTY)).collect(),
            num_files: AtomicU64::new(0),
            num_dirs: AtomicU64::new(0),
        }
    }

    /// Install a decoded image (the streaming decoder produces a flat
    /// [`NamespaceTree`]; juniors, baselines and pool compaction install it
    /// here). Inodes move, none is cloned. Ids are preserved; placement
    /// follows `id % N`.
    pub fn from_tree(tree: NamespaceTree) -> Self {
        Self::from_tree_with_shards(tree, DEFAULT_SHARDS)
    }

    /// [`from_tree`](Self::from_tree) with an explicit shard count.
    pub fn from_tree_with_shards(tree: NamespaceTree, n: usize) -> Self {
        let ns = Self::with_shards(n);
        let nshards = ns.shards.len() as u64;
        let (inodes, next_id, num_files, num_dirs) = tree.into_parts();
        {
            let mut guards: Vec<_> = ns.shards.iter().map(|s| s.state.write().unwrap()).collect();
            // Size every slot table once: growing them while the image's
            // table is still alive would hold both plus the growth garbage.
            let mut per_shard = vec![0usize; guards.len()];
            for id in inodes.keys() {
                per_shard[(*id as usize) & ns.mask] += 1;
            }
            for (g, n) in guards.iter_mut().zip(per_shard) {
                g.slots.reserve(n);
            }
            for (id, inode) in inodes {
                guards[(id as usize) & ns.mask].slots.insert(id, Slot::base(inode));
            }
            // Each shard's allocator resumes above every image id.
            for (k, g) in guards.iter_mut().enumerate() {
                let k = k as u64;
                let base = next_id.max(1);
                // Smallest value ≥ base that is ≡ k (mod n).
                let rem = base % nshards;
                let mut v = base + (k + nshards - rem) % nshards;
                if v == 0 {
                    v = nshards;
                }
                g.next_id = g.next_id.max(v);
            }
        }
        ns.num_files.store(num_files, Ordering::Relaxed);
        ns.num_dirs.store(num_dirs, Ordering::Relaxed);
        ns
    }

    /// Flatten the newest versions into the image form (checkpoint encoding
    /// goes through this; ids are preserved).
    pub fn to_tree(&self) -> NamespaceTree {
        let mut inodes = HashMap::new();
        let mut next_id: InodeId = 1;
        for shard in self.shards.iter() {
            let st = shard.state.read().unwrap();
            next_id = next_id.max(st.next_id);
            for (&id, slot) in &st.slots {
                if let Some(node) = slot.latest() {
                    inodes.insert(id, node.clone());
                }
            }
        }
        NamespaceTree::from_parts(inodes, next_id, self.num_files(), self.num_dirs())
    }

    /// [`to_tree`](Self::to_tree) by value: the newest versions move out,
    /// so encoding a namespace that is no longer needed (pool compaction)
    /// never holds two copies of it.
    pub fn into_tree(self) -> NamespaceTree {
        let (num_files, num_dirs) = (self.num_files(), self.num_dirs());
        let mut shards = self.shards.into_vec();
        let total = shards.iter_mut().map(|s| s.state.get_mut().unwrap().slots.len()).sum();
        let mut inodes = HashMap::with_capacity(total);
        let mut next_id: InodeId = 1;
        for shard in shards {
            let st = shard.state.into_inner().unwrap();
            next_id = next_id.max(st.next_id);
            inodes.extend(st.slots.into_iter().filter_map(|(id, slot)| Some((id, slot.node?))));
        }
        NamespaceTree::from_parts(inodes, next_id, num_files, num_dirs)
    }

    /// Number of shards (always a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of files.
    pub fn num_files(&self) -> u64 {
        self.num_files.load(Ordering::Relaxed)
    }

    /// Number of directories, excluding the root.
    pub fn num_dirs(&self) -> u64 {
        self.num_dirs.load(Ordering::Relaxed)
    }

    /// Resolution-cache hit/miss counters summed over shards.
    pub fn cache_stats(&self) -> CacheStats {
        let mut s = CacheStats::default();
        for c in self.cache.iter() {
            s.hits += c.hits.load(Ordering::Relaxed);
            s.misses += c.misses.load(Ordering::Relaxed);
        }
        s
    }

    /// The shard worker an op on `p` should run on: ops against the same
    /// parent directory map to the same worker, so per-shard journal order
    /// matches per-directory serve order. Purely a scheduling hint — any
    /// assignment is correct.
    pub fn home_shard(&self, p: &str) -> usize {
        let dir = path::parent(p).unwrap_or("/");
        (fnv1a64(dir.as_bytes()) as usize) & self.mask
    }

    // ------------------------------------------------------------------
    // Internal plumbing
    // ------------------------------------------------------------------

    #[inline]
    fn shard_of(&self, id: InodeId) -> usize {
        (id as usize) & self.mask
    }

    /// Target shard for a new directory id: spread by (parent, name) so deep
    /// trees don't pile into one shard. Deterministic, so replicas replaying
    /// the same journal allocate identically.
    fn dir_home(&self, parent: InodeId, name: &str) -> usize {
        let mut h = fnv1a64(name.as_bytes());
        h ^= parent.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (h as usize) & self.mask
    }

    fn alloc_stamp(&self) -> Stamp {
        self.next_stamp.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Publish `s` once every earlier stamp is visible. Called after the
    /// shard locks are dropped but while the gate is still held shared.
    fn publish(&self, s: Stamp) {
        let mut spins = 0u32;
        while self.visible.load(Ordering::Acquire) != s - 1 {
            spins = spins.wrapping_add(1);
            if spins.is_multiple_of(64) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        self.visible.store(s, Ordering::Release);
    }

    /// Oldest registered pin epoch, or `None` when no snapshot is pinned
    /// (the in-place fast path).
    fn watermark(&self) -> Option<Stamp> {
        if self.pins_active.load(Ordering::Acquire) == 0 {
            return None;
        }
        let mut w = None;
        for s in self.pin_slots.iter() {
            let v = s.load(Ordering::Acquire);
            if v != PIN_EMPTY {
                w = Some(w.map_or(v, |x: u64| x.min(v)));
            }
        }
        w
    }

    /// Reclaim tombstoned slots once no pin can see them. Runs at the start
    /// of mutations on shards that accumulated tombstones.
    fn sweep(&self, st: &mut ShardState) {
        if st.dead.is_empty() || self.pins_active.load(Ordering::Acquire) != 0 {
            return;
        }
        for id in st.dead.drain(..) {
            if st.slots.get(&id).is_some_and(|s| s.node.is_none()) {
                st.slots.remove(&id);
            }
        }
    }

    fn lock_set(&self, idxs: &[usize]) -> Locked<'_> {
        let mut v: Vec<usize> = idxs.to_vec();
        v.sort_unstable();
        v.dedup();
        Locked {
            guards: v.into_iter().map(|i| (i, self.shards[i].state.write().unwrap())).collect(),
        }
    }

    fn lock_all(&self) -> Locked<'_> {
        Locked {
            guards: (0..self.shards.len())
                .map(|i| (i, self.shards[i].state.write().unwrap()))
                .collect(),
        }
    }

    fn cache_shard(&self, p: &str) -> &CacheShard {
        &self.cache[(fnv1a64(p.as_bytes()) as usize) & self.mask]
    }

    /// Probe the resolution cache. `epoch` filters entries stamped after a
    /// pinned snapshot. Contended probes count as misses (`try_lock`): the
    /// reader falls back to the walk rather than blocking.
    fn cache_get(&self, p: &str, epoch: Option<Stamp>) -> Option<InodeId> {
        let cs = self.cache_shard(p);
        let m = cs.map.try_lock().ok()?;
        let &(id, s) = m.get(p)?;
        if epoch.is_some_and(|e| s > e) {
            return None;
        }
        Some(id)
    }

    /// Record `p → id` (mutation paths only, while holding the op's shard
    /// write locks — this serializes inserts against the invalidations of
    /// structural ops, which also hold their shard locks).
    fn cache_put(&self, p: &str, id: InodeId, stamp: Stamp) {
        let cs = self.cache_shard(p);
        let mut m = cs.map.lock().unwrap();
        if m.contains_key(p) {
            // Keep the older entry: the binding is unchanged and the older
            // stamp serves more pinned epochs.
            return;
        }
        if m.len() >= SHARD_CACHE_CAP {
            m.clear();
        }
        m.insert(Box::from(p), (id, stamp));
    }

    /// Drop the entry for `p` — and, when `p` was a directory, every entry
    /// beneath it (the subtree moved or disappeared). Scans all cache shards
    /// for the subtree case: descendant paths hash anywhere.
    fn cache_invalidate(&self, p: &str, was_dir: bool) {
        if was_dir {
            for cs in self.cache.iter() {
                cs.map
                    .lock()
                    .unwrap()
                    .retain(|k, _| !(k.as_ref() == p || path::is_strict_descendant(k, p)));
            }
        } else {
            self.cache_shard(p).map.lock().unwrap().remove(p);
        }
    }

    /// Read the version of `id` visible at `epoch` (newest when `None`).
    fn with_node<R>(
        &self,
        id: InodeId,
        epoch: Option<Stamp>,
        f: impl FnOnce(&Inode) -> R,
    ) -> Option<R> {
        let st = self.shards[self.shard_of(id)].state.read().unwrap();
        st.slots.get(&id).and_then(|s| s.view(epoch)).map(f)
    }

    /// From-root component walk at `epoch`. One shard read lock per step —
    /// readers never hold two shard locks at once.
    fn walk(&self, p: &str, epoch: Option<Stamp>) -> Option<InodeId> {
        let mut cur = ROOT_ID;
        for comp in path::components(p) {
            let st = self.shards[self.shard_of(cur)].state.read().unwrap();
            match st.slots.get(&cur)?.view(epoch)? {
                Inode::Directory { children, .. } => cur = *children.get(comp)?,
                Inode::File { .. } => return None,
            }
        }
        Some(cur)
    }

    /// Resolve a validated path at `epoch`: full-path cache probe first
    /// (directories are the cached population, and dir resolution dominates
    /// this fast path — parent lookups for mutations), then a parent-dir
    /// probe (covers files with a warm parent), then the walk. Maintains
    /// the hit/miss counters — a walk fallback is a miss.
    fn resolve(&self, p: &str, epoch: Option<Stamp>) -> Option<InodeId> {
        if p == "/" {
            return Some(ROOT_ID);
        }
        let cs = self.cache_shard(p);
        if let Ok(m) = cs.map.try_lock() {
            if let Some(&(id, s)) = m.get(p) {
                if epoch.is_none_or(|e| s <= e) {
                    drop(m);
                    cs.hits.fetch_add(1, Ordering::Relaxed);
                    return Some(id);
                }
            }
        }
        if let Some((dir, name)) = path::split(p) {
            let pid = if dir == "/" { Some(ROOT_ID) } else { self.cache_get(dir, epoch) };
            if let Some(pid) = pid {
                let st = self.shards[self.shard_of(pid)].state.read().unwrap();
                if let Some(Inode::Directory { children, .. }) =
                    st.slots.get(&pid).and_then(|s| s.view(epoch))
                {
                    cs.hits.fetch_add(1, Ordering::Relaxed);
                    return children.get(name).copied();
                }
            }
        }
        cs.misses.fetch_add(1, Ordering::Relaxed);
        self.walk(p, epoch)
    }

    /// Resolve the parent directory of `p` at `epoch`, classifying failures
    /// (see [`parent_missing_error`](Self::parent_missing_error)).
    fn resolve_parent(&self, p: &str, epoch: Option<Stamp>) -> Result<InodeId, NsError> {
        let parent = path::parent(p).ok_or(NsError::RootImmutable)?;
        match self.resolve(parent, epoch) {
            Some(id) => match self.with_node(id, epoch, Inode::is_dir) {
                Some(true) => Ok(id),
                Some(false) => Err(NsError::ParentNotDirectory(p.to_string())),
                None => Err(NsError::ParentNotFound(p.to_string())),
            },
            None => Err(self.parent_missing_error(p, parent, epoch)),
        }
    }

    /// Classify a failed parent resolution: a file somewhere along the
    /// chain is `ParentNotDirectory`, anything else `ParentNotFound`.
    fn parent_missing_error(&self, p: &str, parent: &str, epoch: Option<Stamp>) -> NsError {
        if self.chain_has_file(parent, epoch) {
            NsError::ParentNotDirectory(p.to_string())
        } else {
            NsError::ParentNotFound(p.to_string())
        }
    }

    fn chain_has_file(&self, p: &str, epoch: Option<Stamp>) -> bool {
        let mut cur = ROOT_ID;
        for comp in path::components(p) {
            let st = self.shards[self.shard_of(cur)].state.read().unwrap();
            match st.slots.get(&cur).and_then(|s| s.view(epoch)) {
                Some(Inode::Directory { children, .. }) => match children.get(comp) {
                    Some(id) => cur = *id,
                    None => return false,
                },
                Some(Inode::File { .. }) => return true,
                None => return false,
            }
        }
        self.with_node(cur, epoch, Inode::is_file).unwrap_or(false)
    }

    fn info_of(p: &str, node: &Inode) -> FileInfo {
        match node {
            Inode::Directory { children, perm } => FileInfo {
                path: p.to_string(),
                is_dir: true,
                blocks: Vec::new(),
                replication: 0,
                sealed: false,
                perm: *perm,
                child_count: children.len(),
            },
            Inode::File { blocks, replication, sealed, perm } => FileInfo {
                path: p.to_string(),
                is_dir: false,
                blocks: blocks.clone(),
                replication: *replication,
                sealed: *sealed,
                perm: *perm,
                child_count: 0,
            },
        }
    }

    // ------------------------------------------------------------------
    // Reads (newest-version path; snapshot reads live on SnapshotView)
    // ------------------------------------------------------------------

    /// `getfileinfo`: read-only metadata lookup against the newest published
    /// state. Fused fast path: when the parent directory is cached and the
    /// target is co-located in the parent's shard (the file-create layout),
    /// the whole read is one cache probe plus one shard read lock.
    pub fn getfileinfo(&self, p: &str) -> Result<FileInfo, NsError> {
        path::validate(p)?;
        if p == "/" {
            return self
                .with_node(ROOT_ID, None, |n| Self::info_of(p, n))
                .ok_or_else(|| NsError::NotFound(p.to_string()));
        }
        if let Some((dir, name)) = path::split(p) {
            // Probe the parent path directly on its own cache shard so the
            // hit counter costs no extra hash over the full path.
            let probe = if dir == "/" {
                Some((ROOT_ID, self.cache_shard(p)))
            } else {
                let cs = self.cache_shard(dir);
                let id = cs.map.try_lock().ok().and_then(|m| m.get(dir).map(|&(id, _)| id));
                id.map(|id| (id, cs))
            };
            if let Some((pid, cs)) = probe {
                let pk = self.shard_of(pid);
                let st = self.shards[pk].state.read().unwrap();
                if let Some(Inode::Directory { children, .. }) =
                    st.slots.get(&pid).and_then(Slot::latest)
                {
                    cs.hits.fetch_add(1, Ordering::Relaxed);
                    let id = *children.get(name).ok_or_else(|| NsError::NotFound(p.to_string()))?;
                    if self.shard_of(id) == pk {
                        return st
                            .slots
                            .get(&id)
                            .and_then(Slot::latest)
                            .map(|n| Self::info_of(p, n))
                            .ok_or_else(|| NsError::NotFound(p.to_string()));
                    }
                    drop(st);
                    return self
                        .with_node(id, None, |n| Self::info_of(p, n))
                        .ok_or_else(|| NsError::NotFound(p.to_string()));
                }
            }
        }
        let id = self.resolve(p, None).ok_or_else(|| NsError::NotFound(p.to_string()))?;
        self.with_node(id, None, |n| Self::info_of(p, n))
            .ok_or_else(|| NsError::NotFound(p.to_string()))
    }

    /// List child names of a directory (sorted), newest state.
    pub fn list(&self, p: &str) -> Result<Vec<String>, NsError> {
        path::validate(p)?;
        let id = self.resolve(p, None).ok_or_else(|| NsError::NotFound(p.to_string()))?;
        self.with_node(id, None, |n| match n {
            Inode::Directory { children, .. } => {
                Ok(children.keys().map(|k| k.to_string()).collect())
            }
            Inode::File { .. } => Err(NsError::IsFile(p.to_string())),
        })
        .ok_or_else(|| NsError::NotFound(p.to_string()))?
    }

    /// Resolve a path to its inode id (cached fast path, newest state).
    pub fn resolve_path(&self, p: &str) -> Option<InodeId> {
        path::validate(p).ok()?;
        self.resolve(p, None)
    }

    /// Resolve by walking from the root, ignoring the cache (the oracle the
    /// fast path must agree with; does not touch the hit/miss counters).
    pub fn resolve_path_uncached(&self, p: &str) -> Option<InodeId> {
        path::validate(p).ok()?;
        self.walk(p, None)
    }

    /// Whether a path exists in the newest state.
    pub fn exists(&self, p: &str) -> bool {
        path::validate(p).is_ok() && self.resolve(p, None).is_some()
    }

    // ------------------------------------------------------------------
    // Snapshot pinning
    // ------------------------------------------------------------------

    /// Pin the current epoch: the returned view reads a frozen namespace
    /// while mutations proceed underneath. Registration excludes in-flight
    /// mutators via the gate (see module docs); the view itself never blocks
    /// mutators and mutators never block it.
    pub fn pin(&self) -> SnapshotView<'_> {
        let _g = self.gate.write().unwrap();
        let slot = loop {
            match self.pin_slots.iter().position(|s| s.load(Ordering::Acquire) == PIN_EMPTY) {
                Some(i) => break i,
                // All pin slots taken: wait for an unpin (which does not
                // need the gate, so progress is guaranteed).
                None => std::thread::yield_now(),
            }
        };
        let epoch = self.visible.load(Ordering::Acquire);
        self.pin_slots[slot].store(epoch, Ordering::SeqCst);
        self.pins_active.fetch_add(1, Ordering::SeqCst);
        SnapshotView { ns: self, epoch, slot }
    }

    // ------------------------------------------------------------------
    // Mutations
    // ------------------------------------------------------------------

    /// `create`: make an empty file. The new id comes from the parent's
    /// shard, so the op locks exactly one shard.
    pub fn create(&self, p: &str, replication: u8) -> Result<FileInfo, NsError> {
        path::validate(p)?;
        let (dir, name) = path::split(p).ok_or(NsError::RootImmutable)?;
        // Bare resolve for the candidate parent id; its kind (and the
        // error precedence) is classified under the write lock
        // below, saving a separate read-locked kind check per create.
        // Probing inline also tells us whether the parent is already
        // cached, so the steady-state create skips the cache insert.
        let cached = if dir == "/" {
            Some(ROOT_ID)
        } else {
            let cs = self.cache_shard(dir);
            let hit = cs.map.try_lock().ok().and_then(|m| m.get(dir).map(|&(id, _)| id));
            if hit.is_some() {
                cs.hits.fetch_add(1, Ordering::Relaxed);
            }
            hit
        };
        let (pid, from_cache) = match cached {
            Some(id) => (id, true),
            None => match self.resolve(dir, None) {
                Some(pid) => (pid, false),
                None => return Err(self.parent_missing_error(p, dir, None)),
            },
        };
        let _gate = self.gate.read().unwrap();
        let pk = self.shard_of(pid);
        let mut st = self.shards[pk].state.write().unwrap();
        self.sweep(&mut st);
        match st.slots.get(&pid).and_then(Slot::latest) {
            Some(Inode::Directory { children, .. }) => {
                if children.contains_key(name) {
                    return Err(NsError::AlreadyExists(p.to_string()));
                }
            }
            Some(Inode::File { .. }) => return Err(NsError::ParentNotDirectory(p.to_string())),
            None => return Err(NsError::ParentNotFound(p.to_string())),
        }
        let keep = self.watermark();
        let s = self.alloc_stamp();
        let name = st.intern(name);
        let id = st.alloc_id(self.shards.len() as u64);
        match st.slots.get_mut(&pid).expect("parent checked above").open(s, keep) {
            Some(Inode::Directory { children, .. }) => {
                children.insert(name, id);
            }
            _ => unreachable!("parent kind checked above"),
        }
        st.slots.insert(id, Slot::fresh(s, Inode::new_file(replication)));
        if !from_cache {
            self.cache_put(dir, pid, s);
        }
        self.num_files.fetch_add(1, Ordering::Relaxed);
        drop(st);
        self.publish(s);
        Ok(FileInfo {
            path: p.to_string(),
            is_dir: false,
            blocks: Vec::new(),
            replication,
            sealed: false,
            perm: DEFAULT_PERM,
            child_count: 0,
        })
    }

    /// `mkdir`: make a directory (parent must exist). The new id is spread
    /// across shards, so this locks the parent's shard and the new id's.
    pub fn mkdir(&self, p: &str) -> Result<(), NsError> {
        path::validate(p)?;
        let (dir, name) = path::split(p).ok_or(NsError::RootImmutable)?;
        let pid = match self.resolve(dir, None) {
            Some(pid) => pid,
            None => return Err(self.parent_missing_error(p, dir, None)),
        };
        let _gate = self.gate.read().unwrap();
        let pk = self.shard_of(pid);
        let tk = self.dir_home(pid, name);
        let mut locked = self.lock_set(&[pk, tk]);
        self.sweep(locked.get(pk));
        match locked.get(pk).slots.get(&pid).and_then(Slot::latest) {
            Some(Inode::Directory { children, .. }) => {
                if children.contains_key(name) {
                    return Err(NsError::AlreadyExists(p.to_string()));
                }
            }
            Some(Inode::File { .. }) => return Err(NsError::ParentNotDirectory(p.to_string())),
            None => return Err(NsError::ParentNotFound(p.to_string())),
        }
        let keep = self.watermark();
        let s = self.alloc_stamp();
        let id = locked.get(tk).alloc_id(self.shards.len() as u64);
        let name = locked.get(pk).intern(name);
        match locked.get(pk).slots.get_mut(&pid).expect("parent checked above").open(s, keep) {
            Some(Inode::Directory { children, .. }) => {
                children.insert(name, id);
            }
            _ => unreachable!("parent kind checked above"),
        }
        locked.get(tk).slots.insert(id, Slot::fresh(s, Inode::new_dir()));
        self.cache_put(dir, pid, s);
        self.cache_put(p, id, s);
        self.num_dirs.fetch_add(1, Ordering::Relaxed);
        drop(locked);
        self.publish(s);
        Ok(())
    }

    /// `mkdir -p`: create all missing ancestors. Ok if the directory exists.
    pub fn mkdir_p(&self, p: &str) -> Result<(), NsError> {
        path::validate(p)?;
        if p == "/" {
            return Ok(());
        }
        for prefix in path::prefixes(p) {
            match self.mkdir(prefix) {
                Ok(()) => {}
                Err(NsError::AlreadyExists(_)) => {
                    if let Some(id) = self.resolve(prefix, None) {
                        if self.with_node(id, None, Inode::is_file).unwrap_or(false) {
                            return Err(NsError::IsFile(prefix.to_string()));
                        }
                    }
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// `delete`: remove a file, or a directory (recursively when asked).
    /// Returns `(files_removed, dirs_removed)`. Directory deletion takes
    /// every shard (the subtree may live anywhere); file deletion locks at
    /// most two.
    pub fn delete(&self, p: &str, recursive: bool) -> Result<(u64, u64), NsError> {
        path::validate(p)?;
        if p == "/" {
            return Err(NsError::RootImmutable);
        }
        loop {
            let id = self.resolve(p, None).ok_or_else(|| NsError::NotFound(p.to_string()))?;
            let is_dir = self
                .with_node(id, None, Inode::is_dir)
                .ok_or_else(|| NsError::NotFound(p.to_string()))?;
            let pid = self.resolve_parent(p, None)?;
            let (dir, name) = path::split(p).expect("non-root validated path");
            let _gate = self.gate.read().unwrap();
            let mut locked = if is_dir {
                self.lock_all()
            } else {
                self.lock_set(&[self.shard_of(pid), self.shard_of(id)])
            };
            // Revalidate under the locks; a concurrent structural op may
            // have changed the binding since the unlocked resolution.
            let pk = self.shard_of(pid);
            match locked.get(pk).slots.get(&pid).and_then(Slot::latest) {
                Some(Inode::Directory { children, .. }) if children.get(name) == Some(&id) => {}
                _ => continue,
            }
            let (empty, still_dir) = match locked.get(self.shard_of(id)).slots.get(&id) {
                Some(slot) => match slot.latest() {
                    Some(Inode::Directory { children, .. }) => (children.is_empty(), true),
                    Some(Inode::File { .. }) => (true, false),
                    None => continue,
                },
                None => continue,
            };
            if still_dir != is_dir {
                continue;
            }
            if is_dir && !empty && !recursive {
                return Err(NsError::NotEmpty(p.to_string()));
            }
            let keep = self.watermark();
            let s = self.alloc_stamp();
            // Unlink from the parent.
            match locked.get(pk).slots.get_mut(&pid).expect("revalidated").open(s, keep) {
                Some(Inode::Directory { children, .. }) => {
                    children.remove(name);
                }
                _ => unreachable!("revalidated directory parent"),
            }
            // Collect and drop the subtree (just `id` itself for files).
            let mut files = 0u64;
            let mut dirs = 0u64;
            let mut stack = vec![id];
            while let Some(cur) = stack.pop() {
                let ck = self.shard_of(cur);
                let st = locked.get(ck);
                match st.slots.get(&cur).and_then(Slot::latest) {
                    Some(Inode::Directory { children, .. }) => {
                        dirs += 1;
                        stack.extend(children.values().copied());
                    }
                    Some(Inode::File { .. }) => files += 1,
                    None => continue,
                }
                if keep.is_none() {
                    st.slots.remove(&cur);
                } else {
                    *st.slots.get_mut(&cur).expect("visited above").open(s, keep) = None;
                    st.dead.push(cur);
                }
            }
            self.cache_invalidate(p, is_dir);
            self.cache_put(dir, pid, s);
            self.num_files.fetch_sub(files, Ordering::Relaxed);
            self.num_dirs.fetch_sub(dirs, Ordering::Relaxed);
            drop(locked);
            self.publish(s);
            return Ok((files, dirs));
        }
    }

    /// `rename`: move `src` to `dst` (which must not exist). File renames
    /// lock the two parents' shards; directory renames take every shard
    /// (cached subtree paths must be invalidated consistently).
    pub fn rename(&self, src: &str, dst: &str) -> Result<(), NsError> {
        path::validate(src)?;
        path::validate(dst)?;
        if src == "/" || dst == "/" {
            return Err(NsError::RootImmutable);
        }
        if src == dst {
            return Err(NsError::AlreadyExists(dst.to_string()));
        }
        if path::is_strict_descendant(dst, src) {
            return Err(NsError::RenameIntoSelf { src: src.to_string(), dst: dst.to_string() });
        }
        loop {
            let src_id =
                self.resolve(src, None).ok_or_else(|| NsError::NotFound(src.to_string()))?;
            if self.resolve(dst, None).is_some() {
                return Err(NsError::AlreadyExists(dst.to_string()));
            }
            let dst_parent = self.resolve_parent(dst, None)?;
            let src_parent = self.resolve_parent(src, None)?;
            let (src_dir, src_name) = path::split(src).expect("non-root");
            let (dst_dir, dst_name) = path::split(dst).expect("non-root");
            let src_is_dir = self
                .with_node(src_id, None, Inode::is_dir)
                .ok_or_else(|| NsError::NotFound(src.to_string()))?;
            let _gate = self.gate.read().unwrap();
            let sk = self.shard_of(src_parent);
            let dk = self.shard_of(dst_parent);
            let mut locked = if src_is_dir { self.lock_all() } else { self.lock_set(&[sk, dk]) };
            match locked.get(sk).slots.get(&src_parent).and_then(Slot::latest) {
                Some(Inode::Directory { children, .. })
                    if children.get(src_name) == Some(&src_id) => {}
                _ => continue,
            }
            match locked.get(dk).slots.get(&dst_parent).and_then(Slot::latest) {
                Some(Inode::Directory { children, .. }) if !children.contains_key(dst_name) => {}
                _ => continue,
            }
            let keep = self.watermark();
            let s = self.alloc_stamp();
            match locked.get(sk).slots.get_mut(&src_parent).expect("revalidated").open(s, keep) {
                Some(Inode::Directory { children, .. }) => {
                    children.remove(src_name);
                }
                _ => unreachable!("revalidated directory parent"),
            }
            let dst_name_arc = locked.get(dk).intern(dst_name);
            match locked.get(dk).slots.get_mut(&dst_parent).expect("revalidated").open(s, keep) {
                Some(Inode::Directory { children, .. }) => {
                    children.insert(dst_name_arc, src_id);
                }
                _ => unreachable!("revalidated directory parent"),
            }
            // Every cached path at or under `src` now points somewhere else
            // (or nowhere).
            self.cache_invalidate(src, src_is_dir);
            self.cache_put(src_dir, src_parent, s);
            self.cache_put(dst_dir, dst_parent, s);
            if src_is_dir {
                self.cache_put(dst, src_id, s);
            }
            drop(locked);
            self.publish(s);
            return Ok(());
        }
    }

    /// Shared frame for the single-inode file mutations (`add_block`,
    /// `close_file`, `set_perm`): resolve, lock one shard, revalidate,
    /// mutate at a fresh stamp.
    fn mutate_node(
        &self,
        p: &str,
        f: impl Fn(&mut Inode, &str) -> Result<(), NsError>,
    ) -> Result<(), NsError> {
        path::validate(p)?;
        let id = self.resolve(p, None).ok_or_else(|| NsError::NotFound(p.to_string()))?;
        let _gate = self.gate.read().unwrap();
        let mut st = self.shards[self.shard_of(id)].state.write().unwrap();
        self.sweep(&mut st);
        match st.slots.get(&id).and_then(Slot::latest) {
            Some(node) => {
                // Validate against the newest version before opening a new
                // one (a failed op must not bump the slot's stamp).
                let mut probe = node.clone();
                f(&mut probe, p)?;
            }
            None => return Err(NsError::NotFound(p.to_string())),
        }
        let keep = self.watermark();
        let s = self.alloc_stamp();
        let node = st.slots.get_mut(&id).expect("checked above").open(s, keep);
        f(node.as_mut().expect("latest version exists"), p).expect("validated above");
        drop(st);
        self.publish(s);
        Ok(())
    }

    /// Append a block to an unsealed file.
    pub fn add_block(&self, p: &str, block_id: u64) -> Result<(), NsError> {
        self.mutate_node(p, |node, p| match node {
            Inode::File { blocks, sealed, .. } => {
                if *sealed {
                    return Err(NsError::FileSealed(p.to_string()));
                }
                blocks.push(block_id);
                Ok(())
            }
            Inode::Directory { .. } => Err(NsError::IsDirectory(p.to_string())),
        })
    }

    /// Seal a file. Idempotent.
    pub fn close_file(&self, p: &str) -> Result<(), NsError> {
        self.mutate_node(p, |node, p| match node {
            Inode::File { sealed, .. } => {
                *sealed = true;
                Ok(())
            }
            Inode::Directory { .. } => Err(NsError::IsDirectory(p.to_string())),
        })
    }

    /// Change permission bits (files, directories, and the root).
    pub fn set_perm(&self, p: &str, perm: u16) -> Result<(), NsError> {
        self.mutate_node(p, |node, _| {
            node.set_perm(perm);
            Ok(())
        })
    }

    /// Apply a journalled transaction (the naive replay path; standbys use
    /// [`ShardedReplaySession`]).
    pub fn apply(&self, txn: &Txn) -> Result<(), NsError> {
        match txn {
            Txn::Create { path, replication } => self.create(path, *replication).map(|_| ()),
            Txn::Mkdir { path } => self.mkdir(path),
            Txn::Delete { path, recursive } => self.delete(path, *recursive).map(|_| ()),
            Txn::Rename { src, dst } => self.rename(src, dst),
            Txn::AddBlock { path, block_id, .. } => self.add_block(path, *block_id),
            Txn::CloseFile { path } => self.close_file(path),
            Txn::SetPerm { path, perm } => self.set_perm(path, *perm),
        }
    }

    /// Deterministic structural fingerprint: FNV-1a over a DFS in sorted
    /// child order, hashing depth, kind, attributes and child names. Inode
    /// ids are not hashed, so per-shard allocation does not affect it.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint_at(None)
    }

    fn fingerprint_at(&self, epoch: Option<Stamp>) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x1_0000_0000_01b3);
            }
        };
        let mut stack: Vec<(InodeId, u32)> = vec![(ROOT_ID, 0)];
        while let Some((id, depth)) = stack.pop() {
            mix(&depth.to_le_bytes());
            let st = self.shards[self.shard_of(id)].state.read().unwrap();
            match st.slots.get(&id).and_then(|s| s.view(epoch)) {
                Some(Inode::Directory { children, perm }) => {
                    mix(b"D");
                    mix(&perm.to_le_bytes());
                    for (name, child) in children.iter().rev() {
                        mix(name.as_bytes());
                        stack.push((*child, depth + 1));
                    }
                }
                Some(Inode::File { blocks, replication, sealed, perm }) => {
                    mix(&[b'F', *replication, *sealed as u8]);
                    mix(&perm.to_le_bytes());
                    for b in blocks {
                        mix(&b.to_le_bytes());
                    }
                }
                None => {
                    // Unreachable in a quiescent namespace; a concurrent
                    // delete between parent visit and child visit lands
                    // here. Mix nothing: the caller wanted a point-in-time
                    // fingerprint and should have pinned first.
                }
            }
        }
        h
    }
}

/// A pinned point-in-time view of the namespace (see
/// [`ShardedNamespace::pin`]). Reads through the view are stable against
/// concurrent mutations; dropping the view unpins the epoch and lets the
/// preserved versions be reclaimed.
pub struct SnapshotView<'a> {
    ns: &'a ShardedNamespace,
    epoch: Stamp,
    slot: usize,
}

impl Drop for SnapshotView<'_> {
    fn drop(&mut self) {
        self.ns.pin_slots[self.slot].store(PIN_EMPTY, Ordering::SeqCst);
        self.ns.pins_active.fetch_sub(1, Ordering::SeqCst);
    }
}

impl SnapshotView<'_> {
    /// The pinned epoch (the stamp of the last mutation this view sees).
    pub fn epoch(&self) -> Stamp {
        self.epoch
    }

    /// `getfileinfo` against the pinned epoch.
    pub fn getfileinfo(&self, p: &str) -> Result<FileInfo, NsError> {
        path::validate(p)?;
        let e = Some(self.epoch);
        let id = self.ns.resolve(p, e).ok_or_else(|| NsError::NotFound(p.to_string()))?;
        self.ns
            .with_node(id, e, |n| ShardedNamespace::info_of(p, n))
            .ok_or_else(|| NsError::NotFound(p.to_string()))
    }

    /// `list` against the pinned epoch.
    pub fn list(&self, p: &str) -> Result<Vec<String>, NsError> {
        path::validate(p)?;
        let e = Some(self.epoch);
        let id = self.ns.resolve(p, e).ok_or_else(|| NsError::NotFound(p.to_string()))?;
        self.ns
            .with_node(id, e, |n| match n {
                Inode::Directory { children, .. } => {
                    Ok(children.keys().map(|k| k.to_string()).collect())
                }
                Inode::File { .. } => Err(NsError::IsFile(p.to_string())),
            })
            .ok_or_else(|| NsError::NotFound(p.to_string()))?
    }

    /// Resolve a path at the pinned epoch.
    pub fn resolve_path(&self, p: &str) -> Option<InodeId> {
        path::validate(p).ok()?;
        self.ns.resolve(p, Some(self.epoch))
    }

    /// Whether a path exists at the pinned epoch.
    pub fn exists(&self, p: &str) -> bool {
        path::validate(p).is_ok() && self.ns.resolve(p, Some(self.epoch)).is_some()
    }

    /// Structural fingerprint of the pinned state.
    pub fn fingerprint(&self) -> u64 {
        self.ns.fingerprint_at(Some(self.epoch))
    }
}

/// Resolution-skipping journal replay. Journalled records were validated by
/// the active before they were logged, so a replica can skip
/// `path::validate` and most of the from-root resolution of naive
/// [`ShardedNamespace::apply`]: the last-resolved parent directory and the
/// last-touched node are cached across records (a run of creates into one
/// directory, or `Create f → AddBlock f → CloseFile f`, resolves once), and
/// creates attach directly under the cached parent id.
///
/// The caches rest on the resolution-cache invariant (ids are never reused,
/// directories never become files, only `Delete`/`Rename` relocate or
/// remove inodes), so the session drops them on those records; callers must
/// [`reset`](Self::reset) after mutating the namespace outside the session.
/// Errors are returned, not panicked on: error *kinds* can differ from
/// naive apply on malformed records, success/failure agrees.
#[derive(Debug, Default)]
pub struct ShardedReplaySession {
    dir: String,
    dir_id: InodeId,
    dir_valid: bool,
    node: String,
    node_id: InodeId,
    node_valid: bool,
}

impl ShardedReplaySession {
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop the cached handles (image install, state reset, or a stint as
    /// active mutating the namespace through other paths).
    pub fn reset(&mut self) {
        self.dir_valid = false;
        self.node_valid = false;
    }

    /// Apply one journalled record via the fast path.
    pub fn apply(&mut self, ns: &ShardedNamespace, txn: &Txn) -> Result<(), NsError> {
        match txn {
            Txn::Create { path, replication } => {
                let (pid, name) = self.parent_of(ns, path)?;
                let id = ns.attach_file(pid, name, *replication)?;
                self.remember_node(path, id);
                Ok(())
            }
            Txn::Mkdir { path } => {
                let (pid, name) = self.parent_of(ns, path)?;
                let id = ns.attach_dir(pid, name)?;
                self.remember_dir(path, id);
                Ok(())
            }
            Txn::Delete { path, recursive } => {
                self.reset();
                ns.delete(path, *recursive).map(|_| ())
            }
            Txn::Rename { src, dst } => {
                self.reset();
                ns.rename(src, dst)
            }
            Txn::AddBlock { path, block_id, .. } => {
                let id = self.resolve_node(ns, path)?;
                ns.mutate_by_id(id, path, |node, p| match node {
                    Inode::File { blocks, sealed, .. } => {
                        if *sealed {
                            return Err(NsError::FileSealed(p.to_string()));
                        }
                        blocks.push(*block_id);
                        Ok(())
                    }
                    Inode::Directory { .. } => Err(NsError::IsDirectory(p.to_string())),
                })
            }
            Txn::CloseFile { path } => {
                let id = self.resolve_node(ns, path)?;
                ns.mutate_by_id(id, path, |node, p| match node {
                    Inode::File { sealed, .. } => {
                        *sealed = true;
                        Ok(())
                    }
                    Inode::Directory { .. } => Err(NsError::IsDirectory(p.to_string())),
                })
            }
            Txn::SetPerm { path, perm } => {
                let id = self.resolve_node(ns, path)?;
                ns.mutate_by_id(id, path, |node, _| {
                    node.set_perm(*perm);
                    Ok(())
                })
            }
        }
    }

    fn remember_dir(&mut self, path: &str, id: InodeId) {
        self.dir.clear();
        self.dir.push_str(path);
        self.dir_id = id;
        self.dir_valid = true;
    }

    fn remember_node(&mut self, path: &str, id: InodeId) {
        self.node.clear();
        self.node.push_str(path);
        self.node_id = id;
        self.node_valid = true;
    }

    fn parent_of<'p>(
        &mut self,
        ns: &ShardedNamespace,
        path: &'p str,
    ) -> Result<(InodeId, &'p str), NsError> {
        let (dir, name) = path::split(path).ok_or(NsError::RootImmutable)?;
        if name.is_empty() {
            return Err(NsError::Invalid(PathError(format!("{path:?} has a trailing slash"))));
        }
        if self.dir_valid && self.dir == dir {
            return Ok((self.dir_id, name));
        }
        let pid = ns.resolve(dir, None).ok_or_else(|| NsError::ParentNotFound(path.to_string()))?;
        self.remember_dir(dir, pid);
        Ok((pid, name))
    }

    fn resolve_node(&mut self, ns: &ShardedNamespace, path: &str) -> Result<InodeId, NsError> {
        if path == "/" {
            return Ok(ROOT_ID);
        }
        if self.node_valid && self.node == path {
            return Ok(self.node_id);
        }
        if self.dir_valid && self.dir == path {
            return Ok(self.dir_id);
        }
        let (pid, name) = self.parent_of(ns, path)?;
        let id = ns
            .with_node(pid, None, |n| match n {
                Inode::Directory { children, .. } => children.get(name).copied(),
                Inode::File { .. } => None,
            })
            .flatten()
            .ok_or_else(|| NsError::NotFound(path.to_string()))?;
        self.remember_node(path, id);
        Ok(id)
    }
}

impl ShardedNamespace {
    /// Replay-path create: attach a new file directly under `parent` (error
    /// payloads carry the bare name, as the image decoder's `attach_child`).
    fn attach_file(
        &self,
        parent: InodeId,
        name: &str,
        replication: u8,
    ) -> Result<InodeId, NsError> {
        let _gate = self.gate.read().unwrap();
        let pk = self.shard_of(parent);
        let mut st = self.shards[pk].state.write().unwrap();
        self.sweep(&mut st);
        match st.slots.get(&parent).and_then(Slot::latest) {
            Some(Inode::Directory { children, .. }) => {
                if children.contains_key(name) {
                    return Err(NsError::AlreadyExists(name.to_string()));
                }
            }
            Some(Inode::File { .. }) => return Err(NsError::ParentNotDirectory(name.to_string())),
            None => return Err(NsError::ParentNotFound(name.to_string())),
        }
        let keep = self.watermark();
        let s = self.alloc_stamp();
        let name = st.intern(name);
        let id = st.alloc_id(self.shards.len() as u64);
        match st.slots.get_mut(&parent).expect("checked above").open(s, keep) {
            Some(Inode::Directory { children, .. }) => {
                children.insert(name, id);
            }
            _ => unreachable!("parent kind checked above"),
        }
        st.slots.insert(id, Slot::fresh(s, Inode::new_file(replication)));
        self.num_files.fetch_add(1, Ordering::Relaxed);
        drop(st);
        self.publish(s);
        Ok(id)
    }

    /// Replay-path mkdir: attach a new directory directly under `parent`.
    fn attach_dir(&self, parent: InodeId, name: &str) -> Result<InodeId, NsError> {
        let _gate = self.gate.read().unwrap();
        let pk = self.shard_of(parent);
        let tk = self.dir_home(parent, name);
        let mut locked = self.lock_set(&[pk, tk]);
        self.sweep(locked.get(pk));
        match locked.get(pk).slots.get(&parent).and_then(Slot::latest) {
            Some(Inode::Directory { children, .. }) => {
                if children.contains_key(name) {
                    return Err(NsError::AlreadyExists(name.to_string()));
                }
            }
            Some(Inode::File { .. }) => return Err(NsError::ParentNotDirectory(name.to_string())),
            None => return Err(NsError::ParentNotFound(name.to_string())),
        }
        let keep = self.watermark();
        let s = self.alloc_stamp();
        let id = locked.get(tk).alloc_id(self.shards.len() as u64);
        let name = locked.get(pk).intern(name);
        match locked.get(pk).slots.get_mut(&parent).expect("checked above").open(s, keep) {
            Some(Inode::Directory { children, .. }) => {
                children.insert(name, id);
            }
            _ => unreachable!("parent kind checked above"),
        }
        locked.get(tk).slots.insert(id, Slot::fresh(s, Inode::new_dir()));
        self.num_dirs.fetch_add(1, Ordering::Relaxed);
        drop(locked);
        self.publish(s);
        Ok(id)
    }

    /// Replay-path node mutation against a cached id (the session resolved
    /// it; a missing slot means the cache went stale and maps to NotFound,
    /// matching what a fresh resolution would report).
    fn mutate_by_id(
        &self,
        id: InodeId,
        p: &str,
        f: impl Fn(&mut Inode, &str) -> Result<(), NsError>,
    ) -> Result<(), NsError> {
        let _gate = self.gate.read().unwrap();
        let mut st = self.shards[self.shard_of(id)].state.write().unwrap();
        self.sweep(&mut st);
        match st.slots.get(&id).and_then(Slot::latest) {
            Some(node) => {
                let mut probe = node.clone();
                f(&mut probe, p)?;
            }
            None => return Err(NsError::NotFound(p.to_string())),
        }
        let keep = self.watermark();
        let s = self.alloc_stamp();
        let node = st.slots.get_mut(&id).expect("checked above").open(s, keep);
        f(node.as_mut().expect("latest version exists"), p).expect("validated above");
        drop(st);
        self.publish(s);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Model;
    use std::sync::atomic::AtomicBool;

    fn both() -> (Model, ShardedNamespace) {
        (Model::new(), ShardedNamespace::with_shards(8))
    }

    fn run_parity(ops: &[Txn]) -> (Model, ShardedNamespace) {
        let (mut m, s) = both();
        for op in ops {
            assert_eq!(m.apply(op), s.apply(op), "parity broke on {op:?}");
        }
        assert_eq!(m.fingerprint(), s.fingerprint());
        assert_eq!(m.num_files(), s.num_files());
        assert_eq!(m.num_dirs(), s.num_dirs());
        (m, s)
    }

    #[test]
    fn parity_basic_ops() {
        run_parity(&[
            Txn::Mkdir { path: "/a".into() },
            Txn::Mkdir { path: "/a/b".into() },
            Txn::Create { path: "/a/b/f0".into(), replication: 3 },
            Txn::AddBlock { path: "/a/b/f0".into(), block_id: 1, len: 64 },
            Txn::AddBlock { path: "/a/b/f0".into(), block_id: 2, len: 64 },
            Txn::CloseFile { path: "/a/b/f0".into() },
            Txn::Create { path: "/a/b/f1".into(), replication: 2 },
            Txn::SetPerm { path: "/a/b".into(), perm: 0o750 },
            Txn::SetPerm { path: "/".into(), perm: 0o711 },
            Txn::Rename { src: "/a/b/f1".into(), dst: "/a/g".into() },
            Txn::Delete { path: "/a/b/f0".into(), recursive: false },
            Txn::Create { path: "/a/b/f2".into(), replication: 1 },
            Txn::Mkdir { path: "/c".into() },
            Txn::Rename { src: "/a/b".into(), dst: "/c/b2".into() },
            Txn::Delete { path: "/c".into(), recursive: true },
        ]);
    }

    #[test]
    fn parity_error_kinds() {
        let (mut t, s) = both();
        for op in
            [Txn::Mkdir { path: "/a".into() }, Txn::Create { path: "/a/f".into(), replication: 1 }]
        {
            t.apply(&op).unwrap();
            s.apply(&op).unwrap();
        }
        let cases: Vec<(Result<(), NsError>, Result<(), NsError>)> = vec![
            (t.create("/no/f", 1).map(|_| ()), s.create("/no/f", 1).map(|_| ())),
            (t.create("/a/f/x", 1).map(|_| ()), s.create("/a/f/x", 1).map(|_| ())),
            (t.create("/a/f", 1).map(|_| ()), s.create("/a/f", 1).map(|_| ())),
            (t.delete("/", true).map(|_| ()), s.delete("/", true).map(|_| ())),
            (t.delete("/a", false).map(|_| ()), s.delete("/a", false).map(|_| ())),
            (t.rename("/a", "/a/evil").map(|_| ()), s.rename("/a", "/a/evil").map(|_| ())),
            (t.rename("/missing", "/y").map(|_| ()), s.rename("/missing", "/y").map(|_| ())),
            (t.rename("/a", "/no/where").map(|_| ()), s.rename("/a", "/no/where").map(|_| ())),
            (t.add_block("/a", 1), s.add_block("/a", 1)),
            (t.add_block("/gone", 1), s.add_block("/gone", 1)),
            (t.mkdir_p("/a/f"), s.mkdir_p("/a/f")),
        ];
        for (i, (a, b)) in cases.iter().enumerate() {
            assert_eq!(a, b, "error parity case {i}");
        }
    }

    #[test]
    fn reads_match_model() {
        let ops = [
            Txn::Mkdir { path: "/d".into() },
            Txn::Mkdir { path: "/d/s".into() },
            Txn::Create { path: "/d/s/f".into(), replication: 2 },
            Txn::AddBlock { path: "/d/s/f".into(), block_id: 7, len: 1 },
        ];
        let (t, s) = run_parity(&ops);
        for p in ["/", "/d", "/d/s", "/d/s/f"] {
            assert_eq!(t.getfileinfo(p), s.getfileinfo(p));
        }
        assert_eq!(t.list("/d").unwrap(), s.list("/d").unwrap());
        assert_eq!(s.resolve_path("/d/s/f"), s.resolve_path_uncached("/d/s/f"));
        assert!(s.exists("/d/s"));
        assert!(!s.exists("/d/x"));
    }

    #[test]
    fn from_tree_to_tree_round_trip() {
        let src = ShardedNamespace::with_shards(8);
        src.mkdir_p("/x/y").unwrap();
        src.create("/x/y/f", 3).unwrap();
        src.add_block("/x/y/f", 42).unwrap();
        src.set_perm("/x", 0o700).unwrap();
        let fp = src.fingerprint();
        // Install on a different shard count: placement changes, state not.
        let s = ShardedNamespace::from_tree_with_shards(src.to_tree(), 4);
        assert_eq!(s.fingerprint(), fp);
        assert_eq!(s.num_files(), 1);
        assert_eq!(s.num_dirs(), 2);
        // Mutations after install must not collide with installed ids.
        s.create("/x/y/g", 1).unwrap();
        s.mkdir("/x/z").unwrap();
        let fp = s.fingerprint();
        assert_eq!(ShardedNamespace::from_tree(s.to_tree()).fingerprint(), fp);
        // The by-value flatten yields the same image form.
        let moved = s.into_tree();
        assert_eq!((moved.num_files(), moved.num_dirs()), (2, 3));
        assert_eq!(ShardedNamespace::from_tree(moved).fingerprint(), fp);
    }

    #[test]
    fn snapshot_view_is_stable() {
        let s = ShardedNamespace::with_shards(4);
        s.mkdir("/d").unwrap();
        s.create("/d/old", 1).unwrap();
        let before = s.list("/d").unwrap();
        let view = s.pin();
        s.create("/d/new", 1).unwrap();
        s.delete("/d/old", false).unwrap();
        s.set_perm("/d", 0o700).unwrap();
        // The view still sees the pinned state…
        assert_eq!(view.list("/d").unwrap(), before);
        assert!(view.exists("/d/old"));
        assert!(!view.exists("/d/new"));
        assert_eq!(view.getfileinfo("/d").unwrap().perm, DEFAULT_PERM);
        // …while the latest state moved on.
        assert!(!s.exists("/d/old"));
        assert!(s.exists("/d/new"));
        assert_eq!(s.getfileinfo("/d").unwrap().perm, 0o700);
        // A second pin sees the new state.
        let view2 = s.pin();
        assert!(view2.exists("/d/new"));
        drop(view2);
        drop(view);
        // With pins gone, later mutations reclaim history and tombstones.
        s.create("/d/later", 1).unwrap();
        assert!(s.exists("/d/later"));
    }

    #[test]
    fn snapshot_fingerprint_matches_quiesced_copy() {
        let s = ShardedNamespace::with_shards(4);
        s.mkdir_p("/a/b").unwrap();
        s.create("/a/b/f", 2).unwrap();
        let frozen = s.fingerprint();
        let view = s.pin();
        s.create("/a/b/g", 2).unwrap();
        s.rename("/a/b/f", "/a/f2").unwrap();
        assert_eq!(view.fingerprint(), frozen);
        assert_ne!(s.fingerprint(), frozen);
    }

    #[test]
    fn replay_session_matches_naive_apply() {
        let workload = [
            Txn::Mkdir { path: "/a".into() },
            Txn::Mkdir { path: "/a/b".into() },
            Txn::Create { path: "/a/b/f0".into(), replication: 3 },
            Txn::AddBlock { path: "/a/b/f0".into(), block_id: 1, len: 64 },
            Txn::CloseFile { path: "/a/b/f0".into() },
            Txn::Create { path: "/a/b/f1".into(), replication: 2 },
            Txn::Rename { src: "/a/b/f1".into(), dst: "/a/g".into() },
            Txn::Delete { path: "/a/b/f0".into(), recursive: false },
            Txn::Create { path: "/a/b/f2".into(), replication: 1 },
            Txn::SetPerm { path: "/a/b".into(), perm: 0o700 },
        ];
        let naive = ShardedNamespace::with_shards(8);
        let fast = ShardedNamespace::with_shards(8);
        let mut sess = ShardedReplaySession::new();
        let mut model = Model::new();
        for txn in &workload {
            let a = naive.apply(txn);
            assert_eq!(a, sess.apply(&fast, txn), "session parity broke on {txn:?}");
            assert_eq!(a, model.apply(txn), "model parity broke on {txn:?}");
        }
        assert_eq!(naive.fingerprint(), fast.fingerprint());
        assert_eq!(model.fingerprint(), fast.fingerprint());
        // Stale-cache behaviour matches: a create into a renamed-away dir
        // fails in both.
        let mv = Txn::Rename { src: "/a/b".into(), dst: "/a/c".into() };
        sess.apply(&fast, &mv).unwrap();
        naive.apply(&mv).unwrap();
        let stale = Txn::Create { path: "/a/b/h".into(), replication: 1 };
        assert!(sess.apply(&fast, &stale).is_err());
        assert!(naive.apply(&stale).is_err());
        assert_eq!(naive.fingerprint(), fast.fingerprint());
    }

    #[test]
    fn replay_session_delete_invalidates_cached_file() {
        let ns = ShardedNamespace::with_shards(4);
        let mut s = ShardedReplaySession::new();
        s.apply(&ns, &Txn::Mkdir { path: "/x".into() }).unwrap();
        s.apply(&ns, &Txn::Create { path: "/x/f".into(), replication: 1 }).unwrap();
        s.apply(&ns, &Txn::AddBlock { path: "/x/f".into(), block_id: 9, len: 1 }).unwrap();
        s.apply(&ns, &Txn::Delete { path: "/x/f".into(), recursive: false }).unwrap();
        // The node cache was dropped: a stale AddBlock fails instead of
        // resurrecting the deleted inode.
        let err =
            s.apply(&ns, &Txn::AddBlock { path: "/x/f".into(), block_id: 10, len: 1 }).unwrap_err();
        assert_eq!(err, NsError::NotFound("/x/f".into()));
    }

    #[test]
    fn replay_session_rejects_malformed_shapes() {
        let ns = ShardedNamespace::with_shards(4);
        let mut s = ShardedReplaySession::new();
        assert!(s.apply(&ns, &Txn::Create { path: "/".into(), replication: 1 }).is_err());
        assert!(s.apply(&ns, &Txn::Mkdir { path: "/a/".into() }).is_err());
        assert!(s.apply(&ns, &Txn::Delete { path: "/".into(), recursive: true }).is_err());
        assert_eq!(ns.fingerprint(), Model::new().fingerprint());
    }

    #[test]
    fn cache_counters_move() {
        let s = ShardedNamespace::with_shards(4);
        s.mkdir_p("/warm/dir").unwrap();
        s.create("/warm/dir/f", 1).unwrap();
        let before = s.cache_stats();
        for _ in 0..10 {
            s.getfileinfo("/warm/dir/f").unwrap();
        }
        let after = s.cache_stats();
        assert!(after.hits >= before.hits + 10, "expected hits: {before:?} -> {after:?}");
        // A cold deep path walks (miss).
        let _ = s.resolve_path("/warm/dir/unseen");
        assert!(s.cache_stats().misses >= after.misses);
    }

    #[test]
    fn concurrent_writers_and_readers_smoke() {
        let s = Arc::new(ShardedNamespace::with_shards(8));
        for w in 0..4 {
            s.mkdir(&format!("/w{w}")).unwrap();
        }
        let stop = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for w in 0..4u32 {
            let s = s.clone();
            handles.push(std::thread::spawn(move || {
                let mut log = Vec::new();
                for i in 0..300 {
                    let p = format!("/w{w}/f{i}");
                    s.create(&p, 1).unwrap();
                    log.push(Txn::Create { path: p.clone(), replication: 1 });
                    if i % 3 == 0 {
                        s.add_block(&p, i).unwrap();
                        log.push(Txn::AddBlock { path: p.clone(), block_id: i, len: 1 });
                    }
                    if i % 7 == 0 {
                        let q = format!("/w{w}/r{i}");
                        s.rename(&p, &q).unwrap();
                        log.push(Txn::Rename { src: p, dst: q });
                    }
                }
                log
            }));
        }
        {
            let s = s.clone();
            let stop = stop.clone();
            handles.push(std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    for w in 0..4 {
                        let _ = s.getfileinfo(&format!("/w{w}"));
                        let _ = s.list(&format!("/w{w}"));
                    }
                }
                Vec::new()
            }));
        }
        let mut logs = Vec::new();
        for (i, h) in handles.into_iter().enumerate() {
            if i == 4 {
                stop.store(true, Ordering::Relaxed);
            }
            logs.push(h.join().unwrap());
            if i == 3 {
                stop.store(true, Ordering::Relaxed);
            }
        }
        // Writers hit disjoint directories, so replaying their logs in any
        // per-thread order yields the same structure.
        let mut model = Model::new();
        for w in 0..4 {
            model.mkdir(&format!("/w{w}")).unwrap();
        }
        for log in &logs {
            for txn in log {
                model.apply(txn).unwrap();
            }
        }
        assert_eq!(model.fingerprint(), s.fingerprint());
        // Cached and uncached resolution agree everywhere we look.
        for w in 0..4 {
            for p in s.list(&format!("/w{w}")).unwrap() {
                let full = format!("/w{w}/{p}");
                assert_eq!(s.resolve_path(&full), s.resolve_path_uncached(&full));
            }
        }
    }

    #[test]
    fn pinned_reader_concurrent_with_writer() {
        let s = Arc::new(ShardedNamespace::with_shards(8));
        s.mkdir("/w").unwrap();
        s.create("/w/seed", 1).unwrap();
        let before = s.list("/w").unwrap();
        let view_owner = s.clone();
        let view = view_owner.pin();
        let writer = {
            let s = s.clone();
            std::thread::spawn(move || {
                for i in 0..500 {
                    s.create(&format!("/w/f{i}"), 1).unwrap();
                }
            })
        };
        // Interleave snapshot reads with the writer's progress.
        for _ in 0..50 {
            assert_eq!(view.list("/w").unwrap(), before);
            assert!(view.exists("/w/seed"));
            std::thread::yield_now();
        }
        writer.join().unwrap();
        assert_eq!(view.list("/w").unwrap(), before);
        assert_eq!(s.list("/w").unwrap().len(), before.len() + 500);
    }

    #[test]
    fn home_shard_groups_by_parent() {
        let s = ShardedNamespace::with_shards(8);
        assert_eq!(s.home_shard("/a/b/f1"), s.home_shard("/a/b/f2"));
        assert!(s.home_shard("/a/b/f1") < s.shard_count());
    }

    #[test]
    fn fingerprint_distinguishes_namespaces() {
        let with = |leaf: &str| {
            let s = ShardedNamespace::with_shards(4);
            s.mkdir("/x").unwrap();
            s.create(&format!("/x/{leaf}"), 3).unwrap();
            s
        };
        let (a, b, c) = (with("f"), with("g"), with("f"));
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), c.fingerprint());
        c.set_perm("/x/f", 0o600).unwrap();
        assert_ne!(a.fingerprint(), c.fingerprint());
    }
}
