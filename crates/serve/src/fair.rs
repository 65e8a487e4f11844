//! The global thread budget and its fair-share discipline.
//!
//! The daemon runs every job's Monte-Carlo rounds on a fixed process-wide
//! budget of worker threads ([`ThreadBudget`]). A job registers with the
//! budget while it runs its rounds ([`ThreadBudget::try_register`]) but
//! holds threads only *per round*: it acquires a permit before each round
//! and returns it after. Each permit grants the round a fair share of the
//! budget among the registered jobs,
//! `min(want, max(1, capacity / registered_jobs))`.
//!
//! - A lone job gets its full `want` (capped at the capacity).
//! - Two jobs on a 2-thread budget get one thread each and run side by
//!   side. A round split over two threads runs well under twice as fast
//!   as inline (stratified rounds pay a barrier per sub-round), so two
//!   single-thread rounds at once finish more work than two full-width
//!   rounds taking turns.
//! - More jobs than threads get one thread each and queue for the rest.
//!
//! Results never depend on the grant: every word seeds its own RNG, so a
//! round's answer is the same at any thread count.
//!
//! Waiters are served in strict FIFO ticket order: a released permit
//! goes to the earliest waiter, so a quick job waits at most for the
//! rounds already running, never for a long job to converge. The head
//! waiter blocks until its share is free even when a later, smaller
//! request would fit — big jobs can never be starved by small ones.
//! Held threads never exceed the capacity.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

#[derive(Debug)]
struct Inner {
    /// Threads currently free.
    available: usize,
    /// Next ticket to hand out.
    next_ticket: u64,
    /// Ticket currently at the head of the queue.
    now_serving: u64,
    /// Jobs currently registered.
    jobs: usize,
}

/// A FIFO-fair counting budget of worker threads, shared fairly among
/// the registered jobs. See the module docs for the discipline.
#[derive(Debug)]
pub struct ThreadBudget {
    capacity: usize,
    inner: Mutex<Inner>,
    cv: Condvar,
}

impl ThreadBudget {
    /// A budget of `capacity` threads (clamped to at least 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        ThreadBudget {
            capacity,
            inner: Mutex::new(Inner {
                available: capacity,
                next_ticket: 0,
                now_serving: 0,
                jobs: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// The state lock. Nothing panics while holding it, and the guards
    /// that release under it may run during an unwind, so a poisoned lock
    /// is recovered rather than turned into a second panic.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Total capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Threads currently free (racy snapshot, for stats only).
    pub fn available(&self) -> usize {
        self.lock().available
    }

    /// Jobs currently registered (racy snapshot).
    pub fn jobs(&self) -> usize {
        self.lock().jobs
    }

    /// Registers a running job, unless `limit` jobs are registered
    /// already. The job counts toward every fair share until the returned
    /// guard drops — on unwind too.
    pub fn try_register(&self, limit: usize) -> Option<JobRegistration<'_>> {
        let mut inner = self.lock();
        if inner.jobs >= limit {
            return None;
        }
        // No wakeup: while a waiter is short of its share, some permit is
        // held, and its release re-evaluates the (now smaller) share.
        inner.jobs += 1;
        Some(JobRegistration { budget: self })
    }

    /// Blocks until every earlier waiter has been served and this round's
    /// share — `want` (clamped to `1..=capacity`), cut to the fair share
    /// among the registered jobs — is free, then takes it. With no job
    /// registered the caller counts as a lone job. The permit releases on
    /// drop.
    pub fn acquire(&self, want: usize) -> ThreadPermit<'_> {
        let want = want.clamp(1, self.capacity);
        let mut inner = self.lock();
        let ticket = inner.next_ticket;
        inner.next_ticket += 1;
        let threads = loop {
            if inner.now_serving == ticket {
                let share = want.min((self.capacity / inner.jobs.max(1)).max(1));
                if inner.available >= share {
                    break share;
                }
            }
            inner = self.cv.wait(inner).unwrap_or_else(PoisonError::into_inner);
        };
        inner.available -= threads;
        inner.now_serving += 1;
        // Wake the next ticket holder (it may be runnable already).
        self.cv.notify_all();
        ThreadPermit {
            budget: self,
            threads,
        }
    }
}

/// A job's place in the fair share; it leaves on drop.
#[derive(Debug)]
pub struct JobRegistration<'a> {
    budget: &'a ThreadBudget,
}

impl Drop for JobRegistration<'_> {
    fn drop(&mut self) {
        // Shares only grow here, so no waiter becomes runnable: no wakeup.
        self.budget.lock().jobs -= 1;
    }
}

/// An acquired slice of the budget; threads return on drop.
#[derive(Debug)]
pub struct ThreadPermit<'a> {
    budget: &'a ThreadBudget,
    threads: usize,
}

impl ThreadPermit<'_> {
    /// How many threads this permit holds.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

impl Drop for ThreadPermit<'_> {
    fn drop(&mut self) {
        self.budget.lock().available += self.threads;
        self.budget.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Barrier};

    #[test]
    fn permits_release_on_drop() {
        let budget = ThreadBudget::new(4);
        assert_eq!(budget.available(), 4);
        let p = budget.acquire(3);
        assert_eq!(p.threads(), 3);
        assert_eq!(budget.available(), 1);
        drop(p);
        assert_eq!(budget.available(), 4);
    }

    #[test]
    fn acquire_clamps_to_capacity() {
        let budget = ThreadBudget::new(2);
        let p = budget.acquire(100);
        assert_eq!(p.threads(), 2, "oversized request clamps, never deadlocks");
    }

    #[test]
    fn a_lone_job_gets_its_full_want() {
        let budget = ThreadBudget::new(4);
        let _job = budget.try_register(16).expect("room");
        for want in 1..=6 {
            assert_eq!(budget.acquire(want).threads(), want.min(4), "want {want}");
        }
    }

    #[test]
    fn registration_respects_the_limit() {
        let budget = ThreadBudget::new(2);
        let a = budget.try_register(2).expect("first");
        let _b = budget.try_register(2).expect("second");
        assert!(budget.try_register(2).is_none(), "limit reached");
        assert_eq!(budget.jobs(), 2);
        drop(a);
        assert!(budget.try_register(2).is_some(), "a slot freed");
    }

    #[test]
    fn two_jobs_hold_one_thread_each_at_the_same_moment() {
        let budget = ThreadBudget::new(2);
        let both_holding = Barrier::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let _job = budget.try_register(16).expect("room");
                    // Both are registered before either acquires.
                    both_holding.wait();
                    let permit = budget.acquire(2);
                    assert_eq!(permit.threads(), 1, "fair share of 2 among 2");
                    // Each holds its permit here while the other does too.
                    both_holding.wait();
                    assert_eq!(budget.available(), 0);
                    both_holding.wait();
                });
            }
        });
        assert_eq!(budget.available(), 2);
        assert_eq!(budget.jobs(), 0);
    }

    #[test]
    fn a_dropped_registration_widens_the_next_permit() {
        let budget = ThreadBudget::new(2);
        let stays = budget.try_register(16).expect("room");
        let leaves = budget.try_register(16).expect("room");
        assert_eq!(budget.acquire(2).threads(), 1);
        drop(leaves);
        assert_eq!(budget.acquire(2).threads(), 2, "alone again: full width");
        drop(stays);
    }

    #[test]
    fn a_registration_dropped_by_a_panic_is_released() {
        let budget = ThreadBudget::new(2);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _job = budget.try_register(16).expect("room");
            let _permit = budget.acquire(2);
            panic!("job failed mid-round");
        }));
        assert!(unwound.is_err());
        assert_eq!(budget.jobs(), 0, "registration released on unwind");
        assert_eq!(budget.available(), 2, "permit released on unwind");
        assert_eq!(budget.acquire(2).threads(), 2);
    }

    #[test]
    fn random_jobs_never_overdraw_and_all_progress() {
        const CAPACITY: usize = 3;
        const JOBS: usize = 8;
        const ROUNDS: usize = 200;
        let budget = ThreadBudget::new(CAPACITY);
        let held = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let rounds_done: Vec<AtomicUsize> = (0..JOBS).map(|_| AtomicUsize::new(0)).collect();
        std::thread::scope(|s| {
            for (job, done) in rounds_done.iter().enumerate() {
                let (budget, held, peak) = (&budget, &held, &peak);
                s.spawn(move || {
                    let _job = budget.try_register(JOBS).expect("room for every job");
                    // A fixed pseudo-random `want` sequence per job.
                    let mut x = job as u64 + 1;
                    for _ in 0..ROUNDS {
                        x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
                        let want = 1 + (x % 5) as usize;
                        let permit = budget.acquire(want);
                        assert!(permit.threads() >= 1 && permit.threads() <= want.min(CAPACITY));
                        let now =
                            held.fetch_add(permit.threads(), Ordering::SeqCst) + permit.threads();
                        peak.fetch_max(now, Ordering::SeqCst);
                        std::thread::yield_now();
                        held.fetch_sub(permit.threads(), Ordering::SeqCst);
                        drop(permit);
                        done.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
        });
        assert!(peak.load(Ordering::SeqCst) <= CAPACITY, "never overdrawn");
        for (job, done) in rounds_done.iter().enumerate() {
            assert_eq!(done.load(Ordering::SeqCst), ROUNDS, "job {job} finished");
        }
        assert_eq!(budget.available(), CAPACITY);
        assert_eq!(budget.jobs(), 0);
    }

    #[test]
    fn waiters_are_served_fifo() {
        let budget = Arc::new(ThreadBudget::new(1));
        let order = Arc::new(Mutex::new(Vec::new()));

        let head = budget.acquire(1); // ticket 0; all capacity held
        let mut handles = Vec::new();
        for i in 0..4u64 {
            let waiter = Arc::clone(&budget);
            let order = Arc::clone(&order);
            handles.push(std::thread::spawn(move || {
                let _p = waiter.acquire(1);
                order.lock().expect("order").push(i);
            }));
            // Deterministic ordering: wait until thread i has drawn its
            // ticket (i + 2 tickets issued: the head's plus i + 1
            // waiters') before spawning the next waiter.
            while budget.inner.lock().expect("budget").next_ticket != i + 2 {
                std::thread::yield_now();
            }
        }
        drop(head);
        for h in handles {
            h.join().expect("waiter");
        }
        assert_eq!(*order.lock().expect("order"), vec![0, 1, 2, 3]);
    }
}
