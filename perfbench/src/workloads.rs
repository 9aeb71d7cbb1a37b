//! The three workloads and their seeded, fixed-work client scripts.
//!
//! Every client owns the subtree `/c<N>`. Its script is generated against a
//! model of that subtree, so in a correct cluster every op succeeds, and
//! the final namespace is known: the same ops applied to a fresh
//! `ShardedNamespace` give the fingerprint the active must end with.
//! Clients are closed-loop (metadata callers block on each RPC); the 48 or
//! 64 clients are simulated nodes, not threads.
//!
//! Why each workload, and which layers it loads (the per-layer metrics
//! each one should move are listed in `layers.rs`):
//!
//! - `read_mostly` — MAMS-1A3S; about 90% `getfileinfo`/`list`, 10%
//!   create/rename. The pre-populated tree has more parent directories
//!   than the resolution cache holds (16 shards × 1024 entries), so
//!   lookups miss. Admit, the read path, clients and the kernel carry the
//!   load; journal work is small. A commit-pipeline change should not move
//!   this workload.
//! - `write_xg` — 3 groups × (1 active + 2 standbys); mutations only:
//!   mostly creates, plus mkdir, rename and delete, which fan out to every
//!   group as cross-group legs. Each client's directories fit in the
//!   cache. Seal, fan-out, standby apply, release and legs do the work. It
//!   is the only multi-group workload. Two known defects of the
//!   partitioned namespace make ops fail, and a workload with failing ops
//!   cannot be compared between runs, so on more than one group the
//!   scripts step around them (`Subtree::multi`), and each round shows the
//!   first defect with a probe of its own (`round.rs`):
//!   - a file renamed to a path another group owns stays on its old
//!     group, so later ops on the new path fail with "no such file"
//!     (about 2.5% of ops when renames pick any name); renames here pick a
//!     new name the same group owns;
//!   - a create into the client's own just-acked mkdir can reach a group
//!     whose skeleton leg has not applied yet and fail with "parent does
//!     not exist" (about one op in 60000); files here go only into the
//!     directories made at set-up, and new directories stay empty.
//! - `failover_renew` — MAMS-1A3S with periodic checkpoints and deltas, a
//!   pre-populated namespace, create-heavy clients. The active crashes at
//!   a fixed simulated time, restarts after a standby took over, and
//!   renews as a junior. The only workload that runs failover, renewing,
//!   image/delta encode and decode, and pool compaction.

use mams_core::{FsOp, MdsTiming};
use mams_namespace::{Partitioner, ShardedNamespace};
use mams_sim::{DetRng, Duration};

use crate::cluster::Topology;

/// Op kinds a script draws from, by weight (percent).
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub read_file: u32,
    pub read_dir: u32,
    pub list: u32,
    pub create: u32,
    pub mkdir: u32,
    pub rename: u32,
    pub delete: u32,
}

/// Crash the first group's active `crash_after` into the measured window
/// and restart it `restart_after` later.
#[derive(Debug, Clone, Copy)]
pub struct Fault {
    pub crash_after: Duration,
    pub restart_after: Duration,
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub topo: Topology,
    pub clients: u32,
    pub dirs_per_client: u32,
    pub files_per_dir: u32,
    pub ops_per_client: u32,
    pub mix: Mix,
    pub fault: Option<Fault>,
}

impl Workload {
    pub const NAMES: [&'static str; 3] = ["read_mostly", "write_xg", "failover_renew"];

    pub fn by_name(name: &str) -> Option<Workload> {
        let one_group = Topology { groups: 1, standbys_per_group: 3, timing: MdsTiming::default() };
        let none =
            Mix { read_file: 0, read_dir: 0, list: 0, create: 0, mkdir: 0, rename: 0, delete: 0 };
        match name {
            "read_mostly" => Some(Workload {
                name: "read_mostly",
                topo: one_group,
                // Latencies fall into steps one commit round (~1.75 ms)
                // apart. With 64 clients about 0.8-1.0% of ops took a fourth
                // round, so p99 jumped between steps from seed to seed; 48
                // clients leave p99 and p99.9 inside the third step.
                clients: 48,
                // 48 × 384 = 18432 parent directories > 16 × 1024 cache slots.
                dirs_per_client: 384,
                files_per_dir: 2,
                ops_per_client: 3000,
                mix: Mix { read_file: 55, read_dir: 15, list: 20, create: 5, rename: 5, ..none },
                fault: None,
            }),
            "write_xg" => Some(Workload {
                name: "write_xg",
                topo: Topology { groups: 3, standbys_per_group: 2, timing: MdsTiming::default() },
                clients: 64,
                dirs_per_client: 8,
                files_per_dir: 8,
                ops_per_client: 1000,
                mix: Mix { create: 65, mkdir: 10, rename: 13, delete: 12, ..none },
                fault: None,
            }),
            "failover_renew" => Some(Workload {
                name: "failover_renew",
                topo: Topology {
                    timing: MdsTiming {
                        checkpoint_interval: Some(Duration::from_secs(10)),
                        delta_interval: Some(Duration::from_millis(500)),
                        ..MdsTiming::default()
                    },
                    ..one_group
                },
                clients: 64,
                dirs_per_client: 32,
                files_per_dir: 8,
                // 44800 ops: the load outlasts the junior's renewal, and
                // the 64 ops the crash blocks sit above p99.9 (44 above).
                ops_per_client: 700,
                mix: Mix { read_file: 10, create: 80, mkdir: 10, ..none },
                fault: Some(Fault {
                    crash_after: Duration::from_secs(2),
                    restart_after: Duration::from_secs(6),
                }),
            }),
            _ => None,
        }
    }

    /// Build every client's scripts for `seed`.
    pub fn plan(&self, seed: u64) -> Plan {
        let mut setup = vec![Vec::new(), Vec::new(), Vec::new()];
        let mut load = Vec::new();
        for c in 0..self.clients {
            let mut rng = DetRng::seed_from_u64(
                seed ^ (u64::from(c) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            let mut sub = Subtree::new(c, self.topo.groups);
            let (root, dirs, files) = sub.populate(self.dirs_per_client, self.files_per_dir);
            setup[0].push(root);
            setup[1].push(dirs);
            setup[2].push(files);
            load.push((0..self.ops_per_client).map(|_| sub.next_op(&self.mix, &mut rng)).collect());
        }
        Plan { setup, load }
    }
}

/// Scripts for one seed: set-up phases (each a script per client; a phase
/// starts once the previous one finished), then the measured load.
pub struct Plan {
    pub setup: Vec<Vec<Vec<FsOp>>>,
    pub load: Vec<Vec<FsOp>>,
}

impl Plan {
    pub fn load_ops(&self) -> u64 {
        self.load.iter().map(|s| s.len() as u64).sum()
    }

    /// FNV digest of the load scripts (another seed must change it).
    pub fn digest(&self) -> u64 {
        let text = format!("{:?}", self.load);
        mams_journal::fnv1a64(text.as_bytes())
    }

    /// The namespace every script leaves behind, built on a fresh
    /// `ShardedNamespace` in script order. Subtrees are disjoint, so
    /// the interleaving across clients does not matter.
    pub fn reference_fingerprint(&self) -> u64 {
        let ns = ShardedNamespace::new();
        let scripts = self.setup.iter().flatten().chain(self.load.iter());
        for op in scripts.flatten() {
            let done = match op {
                FsOp::Create { path, replication } => ns.create(path, *replication).map(|_| ()),
                FsOp::Mkdir { path } => ns.mkdir(path),
                FsOp::Rename { src, dst } => ns.rename(src, dst),
                FsOp::Delete { path, recursive } => ns.delete(path, *recursive).map(|_| ()),
                FsOp::GetFileInfo { path } => ns.getfileinfo(path).map(|_| ()),
                FsOp::List { path } => ns.list(path).map(|_| ()),
                other => panic!("scripts never issue {other:?}"),
            };
            if let Err(e) = done {
                panic!("script model out of step with the namespace at {op:?}: {e:?}");
            }
        }
        ns.fingerprint()
    }
}

/// A client's model of its own subtree `/c<N>/d<i>/f<j>`.
struct Subtree {
    root: String,
    /// File ids present in each directory.
    dirs: Vec<Vec<u32>>,
    next_file: u32,
    /// On more than one group: the routing, and how many directories the
    /// set-up made. Files then go only into those directories, and a
    /// rename keeps a file on the group that owns it (see the module
    /// comment).
    multi: Option<(Partitioner, usize)>,
}

impl Subtree {
    fn new(client: u32, groups: u32) -> Self {
        let multi = (groups > 1).then(|| (Partitioner::new(groups), 0));
        Subtree { root: format!("/c{client}"), dirs: Vec::new(), next_file: 0, multi }
    }

    /// A directory a new file may go into.
    fn file_dir(&self, rng: &mut DetRng) -> usize {
        rng.index(self.multi.map_or(self.dirs.len(), |(_, made)| made))
    }

    /// A fresh file id for directory `d`; on more than one group, one whose
    /// path `owner` owns.
    fn fresh_file(&mut self, d: usize, owner: Option<u32>) -> u32 {
        loop {
            let f = self.next_file;
            self.next_file += 1;
            match (self.multi, owner) {
                (Some((p, _)), Some(g)) if p.owner(&self.file(d, f)) != g => continue,
                _ => return f,
            }
        }
    }

    fn dir(&self, d: usize) -> String {
        format!("{}/d{d}", self.root)
    }

    fn file(&self, d: usize, f: u32) -> String {
        format!("{}/d{d}/f{f}", self.root)
    }

    /// The set-up scripts: root, directories, files (one phase each).
    fn populate(&mut self, dirs: u32, files: u32) -> (Vec<FsOp>, Vec<FsOp>, Vec<FsOp>) {
        let root = vec![FsOp::Mkdir { path: self.root.clone() }];
        let mut mkdirs = Vec::new();
        let mut creates = Vec::new();
        for d in 0..dirs as usize {
            mkdirs.push(FsOp::Mkdir { path: self.dir(d) });
            self.dirs.push(Vec::new());
            for _ in 0..files {
                creates.push(self.create_in(d));
            }
        }
        if let Some((_, made)) = self.multi.as_mut() {
            *made = dirs as usize;
        }
        (root, mkdirs, creates)
    }

    fn create_in(&mut self, d: usize) -> FsOp {
        let f = self.fresh_file(d, None);
        self.dirs[d].push(f);
        FsOp::Create { path: self.file(d, f), replication: 3 }
    }

    /// A random existing file as `(dir, index in dir)`.
    fn pick_file(&self, rng: &mut DetRng) -> Option<(usize, usize)> {
        for _ in 0..8 {
            let d = rng.index(self.dirs.len());
            if !self.dirs[d].is_empty() {
                return Some((d, rng.index(self.dirs[d].len())));
            }
        }
        None
    }

    fn next_op(&mut self, mix: &Mix, rng: &mut DetRng) -> FsOp {
        let total = mix.read_file
            + mix.read_dir
            + mix.list
            + mix.create
            + mix.mkdir
            + mix.rename
            + mix.delete;
        let mut r = rng.below(u64::from(total)) as u32;
        let mut take = |w: u32| {
            let hit = r < w;
            r = r.saturating_sub(w);
            hit
        };
        let file = if take(mix.read_file) {
            self.pick_file(rng)
                .map(|(d, i)| FsOp::GetFileInfo { path: self.file(d, self.dirs[d][i]) })
        } else if take(mix.read_dir) {
            Some(FsOp::GetFileInfo { path: self.dir(rng.index(self.dirs.len())) })
        } else if take(mix.list) {
            Some(FsOp::List { path: self.dir(rng.index(self.dirs.len())) })
        } else if take(mix.create) {
            None
        } else if take(mix.mkdir) {
            self.dirs.push(Vec::new());
            return FsOp::Mkdir { path: self.dir(self.dirs.len() - 1) };
        } else if take(mix.rename) {
            self.pick_file(rng).map(|(d, i)| {
                let f = self.dirs[d].swap_remove(i);
                let src = self.file(d, f);
                let to = self.file_dir(rng);
                let owner = self.multi.map(|(p, _)| p.owner(&src));
                let g = self.fresh_file(to, owner);
                self.dirs[to].push(g);
                FsOp::Rename { src, dst: self.file(to, g) }
            })
        } else {
            self.pick_file(rng).map(|(d, i)| {
                let f = self.dirs[d].swap_remove(i);
                FsOp::Delete { path: self.file(d, f), recursive: false }
            })
        };
        // Creates, and file ops that found no file, create a fresh one.
        file.unwrap_or_else(|| {
            let d = self.file_dir(rng);
            self.create_in(d)
        })
    }
}
