//! Model-based randomized test: the namespace engine against the shared
//! path-keyed reference model (`crates/namespace/tests/model`). Every
//! operation must return exactly the model's result, errors included, and
//! the final shape, counts and fingerprint must agree.
//!
//! Seeded randomized tests over the vendored `rand`: deterministic,
//! shrink-free, CI-friendly. `PARITY_CASES` scales the number of cases
//! (nightly runs more).

#[path = "../crates/namespace/tests/model/mod.rs"]
mod model;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use mams::namespace::ShardedNamespace;
use model::Model;

/// Cases per test; override with `PARITY_CASES` (nightly runs elevated).
fn cases() -> u64 {
    std::env::var("PARITY_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(256)
}

#[derive(Debug, Clone)]
enum Op {
    Create(String),
    Mkdir(String),
    Delete(String, bool),
    Rename(String, String),
    GetInfo(String),
    List(String),
}

/// A path from a tiny alphabet (a/b/c, depth 1..=3) so ops collide often —
/// the interesting cases.
fn small_path(rng: &mut SmallRng) -> String {
    const NAMES: [&str; 3] = ["a", "b", "c"];
    let depth = rng.gen_range(1..4usize);
    let comps: Vec<&str> = (0..depth).map(|_| NAMES[rng.gen_range(0..NAMES.len())]).collect();
    format!("/{}", comps.join("/"))
}

fn rand_op(rng: &mut SmallRng) -> Op {
    match rng.gen_range(0..6u32) {
        0 => Op::Create(small_path(rng)),
        1 => Op::Mkdir(small_path(rng)),
        2 => Op::Delete(small_path(rng), rng.gen_bool(0.5)),
        3 => Op::Rename(small_path(rng), small_path(rng)),
        4 => Op::GetInfo(small_path(rng)),
        _ => Op::List(small_path(rng)),
    }
}

#[test]
fn namespace_agrees_with_the_reference_model() {
    for case in 0..cases() {
        let mut rng = SmallRng::seed_from_u64(0x4d0de1 ^ (case << 8));
        let n_ops = rng.gen_range(1..200usize);
        let ops: Vec<Op> = (0..n_ops).map(|_| rand_op(&mut rng)).collect();
        let ns = ShardedNamespace::with_shards([1, 4, 16][case as usize % 3]);
        let mut model = Model::new();
        for op in &ops {
            match op {
                Op::Create(p) => {
                    assert_eq!(ns.create(p, 1), model.create(p, 1), "case {case}: create {p}")
                }
                Op::Mkdir(p) => assert_eq!(ns.mkdir(p), model.mkdir(p), "case {case}: mkdir {p}"),
                Op::Delete(p, r) => assert_eq!(
                    ns.delete(p, *r),
                    model.delete(p, *r),
                    "case {case}: delete {p} (r={r})"
                ),
                Op::Rename(s, d) => {
                    assert_eq!(ns.rename(s, d), model.rename(s, d), "case {case}: rename {s} {d}")
                }
                Op::GetInfo(p) => assert_eq!(
                    ns.getfileinfo(p),
                    model.getfileinfo(p),
                    "case {case}: getfileinfo {p}"
                ),
                Op::List(p) => assert_eq!(ns.list(p), model.list(p), "case {case}: list {p}"),
            }
        }
        // Final shape agreement.
        assert_eq!(ns.num_files(), model.num_files(), "case {case}");
        assert_eq!(ns.num_dirs(), model.num_dirs(), "case {case}");
        assert_eq!(ns.fingerprint(), model.fingerprint(), "case {case}");
    }
}
