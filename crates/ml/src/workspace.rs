//! Reusable inference scratch: the [`Workspace`] buffer pool and the
//! [`Cached`] wrapper for derived (weight-dependent) lookup tables.
//!
//! The attack loop calls gradient and scoring paths thousands of times per
//! sample; allocating activation buffers (or worse, cloning a model for
//! its gradient accumulators) on every call dominates the wall-clock. A
//! `Workspace` is a per-thread bag of recycled `Vec`s: hot paths `take` a
//! buffer, use it, and `give` it back, so after warm-up no call allocates.

use serde::{Deserialize, Error, Serialize, Value};
use std::sync::OnceLock;

/// A pool of reusable scratch buffers.
///
/// Buffers handed out by [`Workspace::take_f32`] come back zero-filled at
/// the requested length but keep their previous capacity, so steady-state
/// use performs no heap allocation. Return buffers with
/// [`Workspace::give_f32`] when done; failing to do so is not unsafe, it
/// merely re-allocates next time.
///
/// A `Workspace` is deliberately `!Sync`-by-use: each thread (engine
/// shard, optimizer session) owns its own.
#[derive(Debug, Default)]
pub struct Workspace {
    f32s: Vec<Vec<f32>>,
}

impl Workspace {
    /// A zero-filled `f32` buffer of length `len` (recycled capacity).
    pub fn take_f32(&mut self, len: usize) -> Vec<f32> {
        let mut v = self.f32s.pop().unwrap_or_default();
        v.clear();
        v.resize(len, 0.0);
        v
    }

    /// An `f32` buffer of length `len` holding whatever its last user left,
    /// for callers that write every element before reading it.
    pub fn take_f32_stale(&mut self, len: usize) -> Vec<f32> {
        let mut v = self.f32s.pop().unwrap_or_default();
        v.resize(len, 0.0);
        v
    }

    /// Return an `f32` buffer to the pool.
    pub fn give_f32(&mut self, v: Vec<f32>) {
        self.f32s.push(v);
    }

    /// Number of pooled buffers currently at rest (diagnostic).
    pub fn pooled(&self) -> usize {
        self.f32s.len()
    }
}

/// A lazily built, weight-derived cache (token-indexed conv tables, norm
/// tables) attached to a model.
///
/// Contract: the cached value is a pure function of the owner's weights.
/// Owners must call [`Cached::invalidate`] whenever weights change (i.e.
/// after training steps); readers call [`Cached::get_or_build`]. The cache
/// is deliberately excluded from comparison, serialization and cloning —
/// a clone or a deserialized model rebuilds on first use, which keeps the
/// invariant "tables always match weights" impossible to violate through
/// persistence.
pub struct Cached<T>(OnceLock<T>);

impl<T> Cached<T> {
    /// An empty (unbuilt) cache.
    pub fn new() -> Self {
        Cached(OnceLock::new())
    }

    /// The cached value, building it with `build` on first access.
    pub fn get_or_build(&self, build: impl FnOnce() -> T) -> &T {
        self.0.get_or_init(build)
    }

    /// Drop the cached value; the next access rebuilds it.
    pub fn invalidate(&mut self) {
        self.0 = OnceLock::new();
    }

    /// Whether the cache currently holds a value.
    pub fn is_built(&self) -> bool {
        self.0.get().is_some()
    }
}

impl<T> Default for Cached<T> {
    fn default() -> Self {
        Cached::new()
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Cached<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.0.get() {
            Some(_) => f.write_str("Cached(built)"),
            None => f.write_str("Cached(empty)"),
        }
    }
}

/// Clones start empty: the clone rebuilds from its own (identical) weights.
impl<T> Clone for Cached<T> {
    fn clone(&self) -> Self {
        Cached::new()
    }
}

/// Caches never participate in equality: two models are equal iff their
/// weights are, regardless of which has materialized its tables.
impl<T> PartialEq for Cached<T> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

/// Serialized as `null`; deserializes to an empty cache (rebuild on use).
impl<T> Serialize for Cached<T> {
    fn to_value(&self) -> Value {
        Value::Null
    }
}

impl<T> Deserialize for Cached<T> {
    fn from_value(_: &Value) -> Result<Self, Error> {
        Ok(Cached::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_recycles_capacity() {
        let mut ws = Workspace::default();
        let mut v = ws.take_f32(64);
        v[0] = 1.0;
        let cap = v.capacity();
        ws.give_f32(v);
        let v2 = ws.take_f32(32);
        assert!(v2.capacity() >= 32 && cap >= 64);
        assert!(v2.iter().all(|&x| x == 0.0), "recycled buffer not zeroed");
    }

    #[test]
    fn cached_builds_once_and_invalidates() {
        let mut c: Cached<u32> = Cached::new();
        assert!(!c.is_built());
        assert_eq!(*c.get_or_build(|| 7), 7);
        assert_eq!(*c.get_or_build(|| 9), 7, "second build must not run");
        c.invalidate();
        assert_eq!(*c.get_or_build(|| 9), 9);
    }

    #[test]
    fn cached_clone_is_empty() {
        let c: Cached<u32> = Cached::new();
        c.get_or_build(|| 3);
        assert!(!c.clone().is_built());
    }
}
