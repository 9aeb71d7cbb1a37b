//! A path-keyed reference model of the namespace: the oracle the
//! randomized suites hold [`ShardedNamespace`] against.
//!
//! The model is deliberately naive: one sorted map from absolute path to
//! that path's attributes, children found by a prefix scan, subtrees moved
//! and removed by rewriting keys. It shares no code with the engine beyond
//! path validation and the [`NsError`]/[`FileInfo`] vocabulary, so a bug in
//! inode allocation, sharding, resolution caching or snapshot versioning
//! cannot hide behind an identical bug here.
//!
//! Every operation returns exactly the `Result` the engine must return,
//! including which error wins when several apply (validation, then the
//! root checks, then existence, then the parent chain). [`Model::fingerprint`]
//! is the engine's structural DFS hash computed over the model's own state.
//!
//! The file is shared: the `mams-namespace` unit and integration tests and
//! the root package's tests include it with `#[path]`.
//!
//! [`ShardedNamespace`]: mams_namespace::ShardedNamespace
#![allow(dead_code)]

use std::collections::BTreeMap;

use mams_journal::Txn;
use mams_namespace::inode::DEFAULT_PERM;
use mams_namespace::path;
use mams_namespace::{FileInfo, NsError};

/// One path's state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    Dir { perm: u16 },
    File { perm: u16, replication: u8, sealed: bool, blocks: Vec<u64> },
}

impl Node {
    fn is_dir(&self) -> bool {
        matches!(self, Node::Dir { .. })
    }
}

/// The reference namespace: absolute path → node, the root included.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Model {
    nodes: BTreeMap<String, Node>,
}

impl Model {
    /// A namespace holding only the root directory.
    pub fn new() -> Self {
        let mut nodes = BTreeMap::new();
        nodes.insert("/".to_string(), Node::Dir { perm: DEFAULT_PERM });
        Model { nodes }
    }

    pub fn exists(&self, p: &str) -> bool {
        path::validate(p).is_ok() && self.nodes.contains_key(p)
    }

    pub fn num_files(&self) -> u64 {
        self.nodes.values().filter(|n| !n.is_dir()).count() as u64
    }

    /// Directories, the root excluded.
    pub fn num_dirs(&self) -> u64 {
        self.nodes.values().filter(|n| n.is_dir()).count() as u64 - 1
    }

    /// Direct child names of `p`, sorted.
    fn child_names(&self, p: &str) -> Vec<String> {
        let prefix = if p == "/" { "/".to_string() } else { format!("{p}/") };
        self.nodes
            .range(prefix.clone()..)
            .take_while(|(k, _)| k.starts_with(&prefix))
            .map(|(k, _)| &k[prefix.len()..])
            .filter(|rest| !rest.is_empty() && !rest.contains('/'))
            .map(str::to_string)
            .collect()
    }

    /// `p` and every path beneath it.
    fn subtree(&self, p: &str) -> Vec<String> {
        let prefix = if p == "/" { "/".to_string() } else { format!("{p}/") };
        let mut out = vec![p.to_string()];
        out.extend(
            self.nodes
                .range(prefix.clone()..)
                .take_while(|(k, _)| k.starts_with(&prefix))
                .filter(|(k, _)| k.as_str() != p)
                .map(|(k, _)| k.clone()),
        );
        out
    }

    /// The parent directory of `p` must exist and be a directory. A missing
    /// parent is `ParentNotDirectory` when a file sits somewhere on the
    /// chain above it, `ParentNotFound` otherwise.
    fn check_parent(&self, p: &str) -> Result<(), NsError> {
        let parent = path::parent(p).ok_or(NsError::RootImmutable)?;
        match self.nodes.get(parent) {
            Some(Node::Dir { .. }) => Ok(()),
            Some(Node::File { .. }) => Err(NsError::ParentNotDirectory(p.to_string())),
            None => {
                for prefix in path::prefixes(parent) {
                    match self.nodes.get(prefix) {
                        None => break,
                        Some(Node::File { .. }) => {
                            return Err(NsError::ParentNotDirectory(p.to_string()))
                        }
                        Some(Node::Dir { .. }) => {}
                    }
                }
                Err(NsError::ParentNotFound(p.to_string()))
            }
        }
    }

    fn get(&self, p: &str) -> Result<&Node, NsError> {
        path::validate(p)?;
        self.nodes.get(p).ok_or_else(|| NsError::NotFound(p.to_string()))
    }

    fn get_mut(&mut self, p: &str) -> Result<&mut Node, NsError> {
        path::validate(p)?;
        self.nodes.get_mut(p).ok_or_else(|| NsError::NotFound(p.to_string()))
    }

    fn insert_new(&mut self, p: &str, node: Node) -> Result<(), NsError> {
        path::validate(p)?;
        self.check_parent(p)?;
        if self.nodes.contains_key(p) {
            return Err(NsError::AlreadyExists(p.to_string()));
        }
        self.nodes.insert(p.to_string(), node);
        Ok(())
    }

    pub fn create(&mut self, p: &str, replication: u8) -> Result<FileInfo, NsError> {
        let file =
            Node::File { perm: DEFAULT_PERM, replication, sealed: false, blocks: Vec::new() };
        self.insert_new(p, file)?;
        self.getfileinfo(p)
    }

    pub fn mkdir(&mut self, p: &str) -> Result<(), NsError> {
        self.insert_new(p, Node::Dir { perm: DEFAULT_PERM })
    }

    pub fn mkdir_p(&mut self, p: &str) -> Result<(), NsError> {
        path::validate(p)?;
        for prefix in path::prefixes(p) {
            match self.mkdir(prefix) {
                Ok(()) => {}
                Err(NsError::AlreadyExists(_)) => {
                    if let Some(Node::File { .. }) = self.nodes.get(prefix) {
                        return Err(NsError::IsFile(prefix.to_string()));
                    }
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Returns `(files_removed, dirs_removed)`.
    pub fn delete(&mut self, p: &str, recursive: bool) -> Result<(u64, u64), NsError> {
        path::validate(p)?;
        if p == "/" {
            return Err(NsError::RootImmutable);
        }
        let node = self.get(p)?;
        if node.is_dir() && !recursive && !self.child_names(p).is_empty() {
            return Err(NsError::NotEmpty(p.to_string()));
        }
        self.check_parent(p)?;
        let (mut files, mut dirs) = (0, 0);
        for k in self.subtree(p) {
            match self.nodes.remove(&k) {
                Some(Node::Dir { .. }) => dirs += 1,
                Some(Node::File { .. }) => files += 1,
                None => unreachable!("subtree keys exist"),
            }
        }
        Ok((files, dirs))
    }

    pub fn rename(&mut self, src: &str, dst: &str) -> Result<(), NsError> {
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
        self.get(src)?;
        if self.nodes.contains_key(dst) {
            return Err(NsError::AlreadyExists(dst.to_string()));
        }
        self.check_parent(dst)?;
        self.check_parent(src)?;
        for k in self.subtree(src) {
            let node = self.nodes.remove(&k).expect("subtree keys exist");
            self.nodes.insert(format!("{dst}{}", &k[src.len()..]), node);
        }
        Ok(())
    }

    pub fn getfileinfo(&self, p: &str) -> Result<FileInfo, NsError> {
        Ok(match self.get(p)? {
            Node::Dir { perm } => FileInfo {
                path: p.to_string(),
                is_dir: true,
                blocks: Vec::new(),
                replication: 0,
                sealed: false,
                perm: *perm,
                child_count: self.child_names(p).len(),
            },
            Node::File { perm, replication, sealed, blocks } => FileInfo {
                path: p.to_string(),
                is_dir: false,
                blocks: blocks.clone(),
                replication: *replication,
                sealed: *sealed,
                perm: *perm,
                child_count: 0,
            },
        })
    }

    pub fn list(&self, p: &str) -> Result<Vec<String>, NsError> {
        match self.get(p)? {
            Node::Dir { .. } => Ok(self.child_names(p)),
            Node::File { .. } => Err(NsError::IsFile(p.to_string())),
        }
    }

    pub fn add_block(&mut self, p: &str, block_id: u64) -> Result<(), NsError> {
        match self.get_mut(p)? {
            Node::File { sealed: true, .. } => Err(NsError::FileSealed(p.to_string())),
            Node::File { blocks, .. } => {
                blocks.push(block_id);
                Ok(())
            }
            Node::Dir { .. } => Err(NsError::IsDirectory(p.to_string())),
        }
    }

    pub fn close_file(&mut self, p: &str) -> Result<(), NsError> {
        match self.get_mut(p)? {
            Node::File { sealed, .. } => {
                *sealed = true;
                Ok(())
            }
            Node::Dir { .. } => Err(NsError::IsDirectory(p.to_string())),
        }
    }

    pub fn set_perm(&mut self, p: &str, perm: u16) -> Result<(), NsError> {
        match self.get_mut(p)? {
            Node::Dir { perm: bits } | Node::File { perm: bits, .. } => *bits = perm,
        }
        Ok(())
    }

    /// Apply one journal record.
    pub fn apply(&mut self, txn: &Txn) -> Result<(), NsError> {
        match txn {
            Txn::Create { path, replication } => self.create(path, *replication).map(drop),
            Txn::Mkdir { path } => self.mkdir(path),
            Txn::Delete { path, recursive } => self.delete(path, *recursive).map(drop),
            Txn::Rename { src, dst } => self.rename(src, dst),
            Txn::AddBlock { path, block_id, .. } => self.add_block(path, *block_id),
            Txn::CloseFile { path } => self.close_file(path),
            Txn::SetPerm { path, perm } => self.set_perm(path, *perm),
        }
    }

    /// The engine's structural fingerprint: FNV-1a over a DFS in sorted
    /// child order, hashing depth, kind, attributes and child names.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x1_0000_0000_01b3);
            }
        };
        let mut stack: Vec<(String, u32)> = vec![("/".to_string(), 0)];
        while let Some((p, depth)) = stack.pop() {
            mix(&depth.to_le_bytes());
            match &self.nodes[&p] {
                Node::Dir { perm } => {
                    mix(b"D");
                    mix(&perm.to_le_bytes());
                    for name in self.child_names(&p).iter().rev() {
                        mix(name.as_bytes());
                        stack.push((path::join(&p, name), depth + 1));
                    }
                }
                Node::File { perm, replication, sealed, blocks } => {
                    mix(&[b'F', *replication, *sealed as u8]);
                    mix(&perm.to_le_bytes());
                    for b in blocks {
                        mix(&b.to_le_bytes());
                    }
                }
            }
        }
        h
    }
}
