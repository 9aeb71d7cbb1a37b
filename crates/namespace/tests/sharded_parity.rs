//! Randomized parity between [`ShardedNamespace`] and the path-keyed
//! reference [`Model`].
//!
//! The sharded namespace must be *observationally identical* to the model:
//! same results (including errors) for every operation, same fingerprint
//! and counts after any operation sequence, and snapshot reads pinned
//! mid-sequence must match a model that stopped at the pin point.
//!
//! Seeded randomized tests over the vendored `rand`: deterministic,
//! shrink-free, CI-friendly. `PARITY_CASES` scales the number of cases per
//! test (nightly runs more).

#[path = "model/mod.rs"]
mod model;

use mams_namespace::{NsError, ShardedNamespace};
use model::Model;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Cases per test; override with `PARITY_CASES` (nightly runs elevated).
fn cases() -> u64 {
    std::env::var("PARITY_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(24)
}

const OPS_PER_CASE: usize = 400;

const TOPS: [&str; 3] = ["a", "b", "c"];
const SUBS: [&str; 3] = ["x", "y", "z"];
const LEAVES: [&str; 8] = ["f0", "f1", "f2", "f3", "g0", "g1", "g2", "g3"];

fn pick<'a>(rng: &mut SmallRng, names: &[&'a str]) -> &'a str {
    names[rng.gen_range(0..names.len())]
}

/// A directory path from the small contended universe ("/" included).
fn rand_dir(rng: &mut SmallRng) -> String {
    match rng.gen_range(0..3u32) {
        0 => "/".to_string(),
        1 => format!("/{}", pick(rng, &TOPS)),
        _ => format!("/{}/{}", pick(rng, &TOPS), pick(rng, &SUBS)),
    }
}

/// A leaf path under a random universe directory.
fn rand_path(rng: &mut SmallRng) -> String {
    let d = rand_dir(rng);
    let leaf = pick(rng, &LEAVES);
    if d == "/" {
        format!("/{leaf}")
    } else {
        format!("{d}/{leaf}")
    }
}

/// A directory rename: a whole subtree moves, which the sharded namespace
/// runs as an all-shards structural op.
fn rand_dir_rename(rng: &mut SmallRng) -> Op {
    let top = pick(rng, &TOPS);
    match rng.gen_range(0..3u32) {
        // Across top-level directories, at either depth.
        0 => {
            let other = pick(rng, &TOPS);
            if rng.gen_bool(0.5) {
                Op::Rename(format!("/{top}"), format!("/{other}/{}", pick(rng, &SUBS)))
            } else {
                let (s, d) = (pick(rng, &SUBS), pick(rng, &SUBS));
                Op::Rename(format!("/{top}/{s}"), format!("/{other}/{d}"))
            }
        }
        // Into the directory's own subtree.
        1 => {
            let sub = pick(rng, &SUBS);
            let dst = if rng.gen_bool(0.5) {
                format!("/{top}/{sub}")
            } else {
                format!("/{top}/{sub}/{}", pick(rng, &LEAVES))
            };
            Op::Rename(format!("/{top}"), dst)
        }
        // Onto a path that may exist (either kind), or onto a leaf name.
        _ => {
            let src = format!("/{top}/{}", pick(rng, &SUBS));
            let dst = if rng.gen_bool(0.5) { rand_dir(rng) } else { rand_path(rng) };
            Op::Rename(src, dst)
        }
    }
}

/// One randomly drawn namespace operation.
#[derive(Debug, Clone)]
enum Op {
    Create(String, u8),
    Mkdir(String),
    MkdirP(String),
    Delete(String, bool),
    Rename(String, String),
    AddBlock(String, u64),
    CloseFile(String),
    SetPerm(String, u16),
}

fn rand_op(rng: &mut SmallRng) -> Op {
    match rng.gen_range(0..18u32) {
        // Creation-heavy so the universe fills up and later ops collide.
        0..=4 => Op::Create(rand_path(rng), rng.gen_range(1..4u32) as u8),
        5..=7 => Op::Mkdir(rand_dir(rng)),
        8 => Op::MkdirP(rand_dir(rng)),
        9..=10 => Op::Delete(rand_path(rng), rng.gen_bool(0.3)),
        11 => Op::Delete(rand_dir(rng), rng.gen_bool(0.5)),
        12 => Op::Rename(rand_path(rng), rand_path(rng)),
        13..=14 => rand_dir_rename(rng),
        15 => Op::AddBlock(rand_path(rng), rng.gen_range(0..1u64 << 32)),
        16 => Op::CloseFile(rand_path(rng)),
        _ => Op::SetPerm(rand_path(rng), rng.gen_range(0..0o1000u32) as u16),
    }
}

impl Op {
    fn apply_model(&self, m: &mut Model) -> Result<(), NsError> {
        match self {
            Op::Create(p, r) => m.create(p, *r).map(drop),
            Op::Mkdir(p) => m.mkdir(p),
            Op::MkdirP(p) => m.mkdir_p(p),
            Op::Delete(p, rec) => m.delete(p, *rec).map(drop),
            Op::Rename(s, d) => m.rename(s, d),
            Op::AddBlock(p, b) => m.add_block(p, *b),
            Op::CloseFile(p) => m.close_file(p),
            Op::SetPerm(p, bits) => m.set_perm(p, *bits),
        }
    }

    fn apply_sharded(&self, n: &ShardedNamespace) -> Result<(), NsError> {
        match self {
            Op::Create(p, r) => n.create(p, *r).map(drop),
            Op::Mkdir(p) => n.mkdir(p),
            Op::MkdirP(p) => n.mkdir_p(p),
            Op::Delete(p, rec) => n.delete(p, *rec).map(drop),
            Op::Rename(s, d) => n.rename(s, d),
            Op::AddBlock(p, b) => n.add_block(p, *b),
            Op::CloseFile(p) => n.close_file(p),
            Op::SetPerm(p, bits) => n.set_perm(p, *bits),
        }
    }
}

/// Every path the universe can name (for read sweeps).
fn universe() -> Vec<String> {
    let mut v = vec!["/".to_string()];
    for t in TOPS {
        v.push(format!("/{t}"));
        for s in SUBS {
            v.push(format!("/{t}/{s}"));
        }
    }
    let dirs = v.clone();
    for d in &dirs {
        for l in LEAVES {
            if d == "/" {
                v.push(format!("/{l}"));
            } else {
                v.push(format!("{d}/{l}"));
            }
        }
    }
    v
}

/// Sharded results — mutation outcomes, reads, fingerprint, counters —
/// must equal the model's after every random op.
#[test]
fn random_ops_keep_sharded_and_model_identical() {
    let mut dir_renames_applied = 0u64;
    for case in 0..cases() {
        // Odd shard counts and 1 exercise the modulo layout edge cases.
        let shards = [1usize, 2, 4, 16][case as usize % 4];
        let mut rng = SmallRng::seed_from_u64(0x5AD_0001 ^ (case << 8));
        let mut model = Model::new();
        let sharded = ShardedNamespace::with_shards(shards);
        for step in 0..OPS_PER_CASE {
            let op = rand_op(&mut rng);
            let dir_rename =
                matches!(&op, Op::Rename(s, _) if model.getfileinfo(s).is_ok_and(|i| i.is_dir));
            let a = op.apply_model(&mut model);
            let b = op.apply_sharded(&sharded);
            assert_eq!(a, b, "case {case} step {step}: {op:?} diverged");
            if dir_rename && a.is_ok() {
                dir_renames_applied += 1;
            }
        }
        assert_eq!(model.fingerprint(), sharded.fingerprint(), "case {case}: fingerprint");
        assert_eq!(model.num_files(), sharded.num_files(), "case {case}: file count");
        assert_eq!(model.num_dirs(), sharded.num_dirs(), "case {case}: dir count");
        for p in universe() {
            assert_eq!(
                model.getfileinfo(&p),
                sharded.getfileinfo(&p),
                "case {case}: getfileinfo({p})"
            );
            assert_eq!(model.list(&p), sharded.list(&p), "case {case}: list({p})");
            assert_eq!(model.exists(&p), sharded.exists(&p), "case {case}: exists({p})");
        }
    }
    assert!(dir_renames_applied > 0, "no directory rename ever succeeded");
}

/// A view pinned mid-sequence must read exactly what a model that stopped
/// at the pin point reads — later mutations are invisible.
#[test]
fn snapshot_reads_match_a_quiesced_model() {
    for case in 0..cases() {
        let mut rng = SmallRng::seed_from_u64(0x5AD_0002 ^ (case << 8));
        let sharded = ShardedNamespace::with_shards(4);
        let mut quiesced = Model::new();
        let prefix = rng.gen_range(40..OPS_PER_CASE);
        for _ in 0..prefix {
            let op = rand_op(&mut rng);
            let _ = op.apply_model(&mut quiesced);
            let _ = op.apply_sharded(&sharded);
        }
        let view = sharded.pin();
        // Keep mutating underneath the pinned view.
        for _ in 0..rng.gen_range(40..200) {
            let _ = rand_op(&mut rng).apply_sharded(&sharded);
        }
        assert_eq!(
            view.fingerprint(),
            quiesced.fingerprint(),
            "case {case}: pinned fingerprint must be the quiesced state's"
        );
        for p in universe() {
            assert_eq!(
                quiesced.getfileinfo(&p),
                view.getfileinfo(&p),
                "case {case}: snapshot getfileinfo({p})"
            );
            assert_eq!(quiesced.list(&p), view.list(&p), "case {case}: snapshot list({p})");
            assert_eq!(quiesced.exists(&p), view.exists(&p), "case {case}: snapshot exists({p})");
        }
    }
}
