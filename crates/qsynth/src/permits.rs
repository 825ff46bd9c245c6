//! One thread budget per compile: a pool of permits that every parallel
//! layer of a synthesis run draws from.
//!
//! A thread that runs synthesis work holds one permit, so the number of
//! busy synthesis threads never exceeds [`PermitPool::size`]. Permits are
//! taken without waiting — a layer that finds none free just runs on the
//! threads it already has — and go back to the pool when their [`Permits`]
//! guard drops, which also happens when the holder unwinds from a panic.
//!
//! ```
//! use qsynth::permits::PermitPool;
//! let pool = PermitPool::new(3);
//! let mine = pool.take(1);
//! let extra = pool.take(5); // only two are free
//! assert_eq!((mine.count(), extra.count(), pool.in_use()), (1, 2, 3));
//! drop(extra);
//! assert_eq!(pool.in_use(), 1);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};

/// Resolves a width setting to a thread count: `None` uses
/// [`std::thread::available_parallelism`], `Some(w)` means `w` (at least 1).
pub fn resolve_width(width: Option<usize>) -> usize {
    width
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, std::num::NonZero::get))
        .max(1)
}

/// A fixed number of thread permits shared by one compile's block workers
/// and LEAP frontiers. It travels as an argument; there is no global pool,
/// so concurrent compiles (e.g. `questd` jobs) each have their own.
#[derive(Debug)]
pub struct PermitPool {
    size: usize,
    free: AtomicUsize,
}

impl PermitPool {
    /// A pool of `size` permits (at least 1), all free.
    pub fn new(size: usize) -> Self {
        let size = size.max(1);
        PermitPool {
            size,
            free: AtomicUsize::new(size),
        }
    }

    /// The budget: the most permits that can be held at once.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Permits currently held.
    pub fn in_use(&self) -> usize {
        self.size - self.free.load(Ordering::Acquire)
    }

    /// Takes up to `want` permits that are free right now, without waiting.
    /// The guard may hold fewer than `want`, or none.
    pub fn take(&self, want: usize) -> Permits<'_> {
        let mut free = self.free.load(Ordering::Relaxed);
        let count = loop {
            let n = free.min(want);
            if n == 0 {
                break 0;
            }
            match self.free.compare_exchange_weak(
                free,
                free - n,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => break n,
                Err(now) => free = now,
            }
        };
        Permits { pool: self, count }
    }
}

/// Permits taken from a [`PermitPool`]; they go back when this drops.
#[derive(Debug)]
#[must_use = "permits return to the pool as soon as the guard drops"]
pub struct Permits<'a> {
    pool: &'a PermitPool,
    count: usize,
}

impl<'a> Permits<'a> {
    /// Number of permits held.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Moves up to `n` of these permits into a guard of their own, e.g. to
    /// hand one to a spawned thread.
    pub fn split(&mut self, n: usize) -> Permits<'a> {
        let n = n.min(self.count);
        self.count -= n;
        Permits {
            pool: self.pool,
            count: n,
        }
    }
}

impl Drop for Permits<'_> {
    fn drop(&mut self) {
        if self.count > 0 {
            self.pool.free.fetch_add(self.count, Ordering::Release);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_never_exceeds_free_permits() {
        let pool = PermitPool::new(2);
        let a = pool.take(0);
        assert_eq!(a.count(), 0);
        let b = pool.take(3);
        assert_eq!(b.count(), 2);
        assert_eq!(pool.take(1).count(), 0);
        drop(b);
        assert_eq!(pool.in_use(), 0);
    }

    #[test]
    fn split_moves_permits_between_guards() {
        let pool = PermitPool::new(4);
        let mut all = pool.take(4);
        let one = all.split(1);
        let rest = all.split(9);
        assert_eq!((all.count(), one.count(), rest.count()), (0, 1, 3));
        drop(rest);
        assert_eq!(pool.in_use(), 1);
        drop(one);
        drop(all);
        assert_eq!(pool.in_use(), 0);
    }

    #[test]
    fn zero_size_is_one() {
        assert_eq!(PermitPool::new(0).size(), 1);
        assert_eq!(resolve_width(Some(0)), 1);
        assert!(resolve_width(None) >= 1);
    }
}
