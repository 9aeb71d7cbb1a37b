//! Client-operation execution: the one path from an [`FsOp`] to a
//! namespace result, shared by the MAMS active and every baseline namenode
//! so all systems agree on op outcomes.

use mams_journal::Txn;
use mams_namespace::ShardedNamespace;

use crate::proto::{FsOp, OpOutput};

/// Execute one client operation against `ns`.
///
/// Reads answer from a pinned epoch snapshot and journal nothing. In a
/// single-threaded node the pin is vacuous, but it is the path a threaded
/// deployment uses, and going through it
/// keeps the snapshot machinery under the full protocol test surface: a
/// pinned read observes exactly the applied-and-published prefix, never a
/// mutation mid-apply.
///
/// Mutations validate and apply, and return the journal record they
/// produce. The op is consumed so its paths move into the record — on a
/// create/rename-heavy mix the journal's strings are allocated exactly
/// once, at request decode. `AddBlock` takes its id from `next_block`,
/// which advances only when the append succeeds; callers that keep a block
/// map register the returned [`Txn::AddBlock`]. Errors come back as the
/// client sees them and are never journaled.
pub fn exec_op(
    ns: &ShardedNamespace,
    next_block: &mut u64,
    op: FsOp,
) -> Result<(Option<Txn>, OpOutput), String> {
    let done = |txn| (Some(txn), OpOutput::Done);
    let result = match op {
        FsOp::GetFileInfo { path } => {
            ns.pin().getfileinfo(&path).map(|i| (None, OpOutput::Info(i)))
        }
        FsOp::List { path } => ns.pin().list(&path).map(|l| (None, OpOutput::Listing(l))),
        FsOp::Create { path, replication } => ns
            .create(&path, replication)
            .map(|info| (Some(Txn::Create { path, replication }), OpOutput::Info(info))),
        FsOp::Mkdir { path } => ns.mkdir(&path).map(|()| done(Txn::Mkdir { path })),
        FsOp::Delete { path, recursive } => {
            ns.delete(&path, recursive).map(|_| done(Txn::Delete { path, recursive }))
        }
        FsOp::Rename { src, dst } => ns.rename(&src, &dst).map(|()| done(Txn::Rename { src, dst })),
        FsOp::AddBlock { path, len } => {
            let block_id = *next_block;
            ns.add_block(&path, block_id).map(|()| {
                *next_block += 1;
                (Some(Txn::AddBlock { path, block_id, len }), OpOutput::Block(block_id))
            })
        }
        FsOp::CloseFile { path } => ns.close_file(&path).map(|()| done(Txn::CloseFile { path })),
        FsOp::SetPerm { path, perm } => {
            ns.set_perm(&path, perm).map(|()| done(Txn::SetPerm { path, perm }))
        }
    };
    result.map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_journal_nothing_and_mutations_journal_their_record() {
        let ns = ShardedNamespace::new();
        let mut nb = 7u64;
        let mut exec = |op| exec_op(&ns, &mut nb, op);
        let (txn, _) = exec(FsOp::Mkdir { path: "/a".into() }).unwrap();
        assert_eq!(txn, Some(Txn::Mkdir { path: "/a".into() }));
        let (txn, out) = exec(FsOp::Create { path: "/a/f".into(), replication: 2 }).unwrap();
        assert_eq!(txn, Some(Txn::Create { path: "/a/f".into(), replication: 2 }));
        assert!(matches!(out, OpOutput::Info(i) if i.replication == 2));
        let (txn, out) = exec(FsOp::List { path: "/a".into() }).unwrap();
        assert_eq!((txn, out), (None, OpOutput::Listing(vec!["f".into()])));
        assert!(exec(FsOp::Mkdir { path: "/a".into() }).unwrap_err().contains("already exists"));
        // Block ids advance only when the append succeeds.
        let (txn, out) = exec(FsOp::AddBlock { path: "/a/f".into(), len: 42 }).unwrap();
        assert_eq!(txn, Some(Txn::AddBlock { path: "/a/f".into(), block_id: 7, len: 42 }));
        assert_eq!(out, OpOutput::Block(7));
        exec(FsOp::CloseFile { path: "/a/f".into() }).unwrap();
        assert!(exec(FsOp::AddBlock { path: "/a/f".into(), len: 1 }).is_err());
        assert_eq!(nb, 8);
    }
}
