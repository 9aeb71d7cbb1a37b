//! The flat, in-memory form of a namespace image.
//!
//! [`NamespaceTree`] is what the image decoder builds and the image encoder
//! walks: an inode table rooted at [`ROOT_ID`] with the file and directory
//! counts. It executes no operations — [`ShardedNamespace`] is the one
//! engine — and exists so an image can be decoded without a live namespace
//! and installed with [`ShardedNamespace::from_tree`] (or produced with
//! [`ShardedNamespace::to_tree`] for a checkpoint).
//!
//! Directory-child names are interned: the decoder hands out one `Arc<str>`
//! per distinct component, so the repeated names of a large namespace
//! (`part-00000`, `data`, …) share one allocation apiece.
//!
//! [`ShardedNamespace`]: crate::ShardedNamespace
//! [`ShardedNamespace::from_tree`]: crate::ShardedNamespace::from_tree
//! [`ShardedNamespace::to_tree`]: crate::ShardedNamespace::to_tree

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use crate::inode::{Inode, InodeId, ROOT_ID};
use crate::path::PathError;

/// Metadata operation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NsError {
    Invalid(PathError),
    NotFound(String),
    AlreadyExists(String),
    ParentNotFound(String),
    ParentNotDirectory(String),
    NotEmpty(String),
    IsDirectory(String),
    IsFile(String),
    FileSealed(String),
    RenameIntoSelf { src: String, dst: String },
    RootImmutable,
}

impl std::fmt::Display for NsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NsError::Invalid(e) => write!(f, "{e}"),
            NsError::NotFound(p) => write!(f, "{p}: no such file or directory"),
            NsError::AlreadyExists(p) => write!(f, "{p}: already exists"),
            NsError::ParentNotFound(p) => write!(f, "{p}: parent does not exist"),
            NsError::ParentNotDirectory(p) => write!(f, "{p}: parent is not a directory"),
            NsError::NotEmpty(p) => write!(f, "{p}: directory not empty"),
            NsError::IsDirectory(p) => write!(f, "{p}: is a directory"),
            NsError::IsFile(p) => write!(f, "{p}: is a file"),
            NsError::FileSealed(p) => write!(f, "{p}: file is sealed"),
            NsError::RenameIntoSelf { src, dst } => {
                write!(f, "cannot rename {src} into its own subtree {dst}")
            }
            NsError::RootImmutable => write!(f, "the root directory cannot be modified"),
        }
    }
}

impl std::error::Error for NsError {}

impl From<PathError> for NsError {
    fn from(e: PathError) -> Self {
        NsError::Invalid(e)
    }
}

/// The flat inode table of a namespace image.
#[derive(Debug, Clone)]
pub struct NamespaceTree {
    pub(crate) inodes: HashMap<InodeId, Inode>,
    pub(crate) next_id: InodeId,
    num_files: u64,
    num_dirs: u64,
    /// Interned child-name table (see module docs). Bounded: cleared when
    /// full; live names stay alive through the directories that hold them
    /// and re-intern on next use.
    names: HashSet<Arc<str>>,
}

/// Intern-table bound; ~64k distinct component names before a reset.
const NAME_TABLE_CAP: usize = 1 << 16;

impl Default for NamespaceTree {
    fn default() -> Self {
        Self::new()
    }
}

impl NamespaceTree {
    /// A namespace containing only the root directory.
    pub fn new() -> Self {
        let mut inodes = HashMap::new();
        inodes.insert(ROOT_ID, Inode::new_dir());
        Self::from_parts(inodes, 1, 0, 0)
    }

    /// Number of files.
    pub fn num_files(&self) -> u64 {
        self.num_files
    }

    /// Number of directories, excluding the root.
    pub fn num_dirs(&self) -> u64 {
        self.num_dirs
    }

    /// Assemble a tree from raw parts (the sharded namespace's conversion
    /// path). The caller guarantees `inodes` is a well-formed tree rooted at
    /// `ROOT_ID`, `next_id` is above every id in it, and the counts match.
    pub(crate) fn from_parts(
        inodes: HashMap<InodeId, Inode>,
        next_id: InodeId,
        num_files: u64,
        num_dirs: u64,
    ) -> Self {
        debug_assert!(inodes.contains_key(&ROOT_ID));
        NamespaceTree { inodes, next_id, num_files, num_dirs, names: HashSet::new() }
    }

    /// Decompose into `(inodes, next_id, num_files, num_dirs)` — the sharded
    /// namespace consumes a decoded image tree through this without cloning
    /// any inode.
    pub(crate) fn into_parts(self) -> (HashMap<InodeId, Inode>, InodeId, u64, u64) {
        (self.inodes, self.next_id, self.num_files, self.num_dirs)
    }

    fn alloc(&mut self, inode: Inode) -> InodeId {
        let id = self.next_id;
        self.next_id += 1;
        self.inodes.insert(id, inode);
        id
    }

    /// One shared handle per distinct component name, tree-wide.
    fn intern(&mut self, name: &str) -> Arc<str> {
        if let Some(n) = self.names.get(name) {
            return n.clone();
        }
        if self.names.len() >= NAME_TABLE_CAP {
            self.names.clear();
        }
        let n: Arc<str> = Arc::from(name);
        self.names.insert(n.clone());
        n
    }

    /// Attach a fully-formed inode directly under `parent` with the given
    /// component name — the image decoder's single-pass path: no from-root
    /// resolution, no path strings. The caller guarantees `name` is a valid
    /// component; duplicate names and non-directory parents are rejected
    /// (they indicate a corrupt image).
    pub(crate) fn attach_child(
        &mut self,
        parent: InodeId,
        name: &str,
        inode: Inode,
    ) -> Result<InodeId, NsError> {
        match self.inodes.get(&parent) {
            Some(Inode::Directory { .. }) => {}
            Some(Inode::File { .. }) => return Err(NsError::ParentNotDirectory(name.to_string())),
            None => return Err(NsError::ParentNotFound(name.to_string())),
        }
        let is_dir = inode.is_dir();
        let name = self.intern(name);
        let id = self.alloc(inode);
        let duplicate = match self.inodes.get_mut(&parent).expect("parent checked above") {
            Inode::Directory { children, .. } => {
                // Single tree search via the entry API (this is the image
                // decoder's per-entry hot path).
                match children.entry(name) {
                    std::collections::btree_map::Entry::Vacant(v) => {
                        v.insert(id);
                        None
                    }
                    std::collections::btree_map::Entry::Occupied(o) => Some(o.key().to_string()),
                }
            }
            Inode::File { .. } => unreachable!("parent kind checked above"),
        };
        if let Some(name) = duplicate {
            self.inodes.remove(&id);
            return Err(NsError::AlreadyExists(name));
        }
        if is_dir {
            self.num_dirs += 1;
        } else {
            self.num_files += 1;
        }
        Ok(id)
    }

    /// Pre-size the inode table for `extra` upcoming inserts (the image
    /// decoder calls this with an estimate from the announced transfer
    /// size, avoiding repeated rehashing while millions of entries load).
    pub(crate) fn reserve_inodes(&mut self, extra: usize) {
        self.inodes.reserve(extra);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attach_child_counts_and_interns() {
        let mut t = NamespaceTree::new();
        let a = t.attach_child(ROOT_ID, "a", Inode::new_dir()).unwrap();
        let f = t.attach_child(a, "data", Inode::new_file(3)).unwrap();
        let b = t.attach_child(ROOT_ID, "b", Inode::new_dir()).unwrap();
        t.attach_child(b, "data", Inode::new_file(1)).unwrap();
        assert_eq!((t.num_files(), t.num_dirs()), (2, 2));
        assert!(f > a && t.next_id > f);
        let name_of = |dir: InodeId| match &t.inodes[&dir] {
            Inode::Directory { children, .. } => children.keys().next().unwrap().clone(),
            Inode::File { .. } => unreachable!(),
        };
        assert!(Arc::ptr_eq(&name_of(a), &name_of(b)), "equal names share one allocation");
    }

    #[test]
    fn attach_child_rejects_corrupt_shapes() {
        let mut t = NamespaceTree::new();
        let f = t.attach_child(ROOT_ID, "f", Inode::new_file(1)).unwrap();
        assert_eq!(
            t.attach_child(ROOT_ID, "f", Inode::new_dir()).unwrap_err(),
            NsError::AlreadyExists("f".into())
        );
        assert_eq!(
            t.attach_child(f, "x", Inode::new_file(1)).unwrap_err(),
            NsError::ParentNotDirectory("x".into())
        );
        assert_eq!(
            t.attach_child(999, "y", Inode::new_file(1)).unwrap_err(),
            NsError::ParentNotFound("y".into())
        );
        // Rejected attaches leave no trace.
        assert_eq!((t.num_files(), t.num_dirs(), t.inodes.len()), (1, 0, 2));
    }

    #[test]
    fn parts_round_trip() {
        let mut t = NamespaceTree::new();
        t.attach_child(ROOT_ID, "d", Inode::new_dir()).unwrap();
        let (inodes, next_id, files, dirs) = t.clone().into_parts();
        let back = NamespaceTree::from_parts(inodes, next_id, files, dirs);
        assert_eq!(back.inodes, t.inodes);
        assert_eq!((back.next_id, back.num_files(), back.num_dirs()), (t.next_id, 0, 1));
    }
}
