//! Persistent helper threads for the estimator word loops.
//!
//! Spawning and joining a thread costs 22–30 µs on a 2-vCPU VM — more
//! than the whole word loop of a one-round served job, and a stratified
//! estimate runs several rounds. So instead of a scoped fan-out per round, one process-wide pool
//! of `available_parallelism() − 1` helpers is started lazily, once, and
//! parks between rounds.
//!
//! [`run_chunked`] publishes a round as a [`Task`]. The calling thread
//! always works the round itself; idle helpers join while the task is
//! still published, and everyone claims W-aligned chunks of words from one
//! atomic cursor until it runs out. The caller withdraws the task once the
//! cursor is spent and waits only for helpers that actually joined — never
//! for one that has not woken up yet — so a round with `threads > 1` is
//! never meaningfully slower than running it inline. Every word seeds its
//! own RNG and the callers merge integer tallies, so which participant ran
//! which chunk never changes a result.

use std::any::Any;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// The chunks of `[0, len)` one participant claims, in claim order.
pub(crate) struct Claims<'a> {
    cursor: &'a AtomicU64,
    len: u64,
    chunk: u64,
    /// The first claim, taken before the participant is started so a
    /// helper that arrives after the cursor ran out does no set-up work.
    pending: Option<Range<u64>>,
}

impl<'a> Claims<'a> {
    fn start(cursor: &'a AtomicU64, len: u64, chunk: u64) -> Option<Claims<'a>> {
        let mut claims = Claims {
            cursor,
            len,
            chunk,
            pending: None,
        };
        claims.pending = Some(claims.claim()?);
        Some(claims)
    }

    fn claim(&self) -> Option<Range<u64>> {
        // Relaxed: the cursor publishes no other data; results travel
        // back through `run_chunked`'s mutex.
        let lo = self.cursor.fetch_add(self.chunk, Ordering::Relaxed);
        (lo < self.len).then(|| lo..(lo + self.chunk).min(self.len))
    }
}

impl Iterator for Claims<'_> {
    type Item = Range<u64>;

    fn next(&mut self) -> Option<Range<u64>> {
        self.pending.take().or_else(|| self.claim())
    }
}

/// Runs `participant` on the calling thread and on up to `threads − 1`
/// helpers; each drains `chunk`-sized pieces of `[0, len)` from one shared
/// cursor. Returns the result of every participant that claimed work, in
/// no particular order, so callers must merge them commutatively. With
/// `threads ≤ 1`, at most one chunk of work, or no helpers, the caller
/// runs the whole range inline as a single piece.
///
/// A panic in any participant stops further claims and is re-raised on
/// the caller once every joined helper has left; the pool stays usable.
pub(crate) fn run_chunked<A: Send>(
    threads: usize,
    len: u64,
    chunk: u64,
    participant: impl Fn(Claims<'_>) -> A + Sync,
) -> Vec<A> {
    let chunk = chunk.max(1);
    let pool = (threads > 1 && len > chunk)
        .then(pool)
        .filter(|pool| pool.helpers > 0);
    let cursor = AtomicU64::new(0);
    let Some(pool) = pool else {
        return Claims::start(&cursor, len, len.max(1))
            .map(&participant)
            .into_iter()
            .collect();
    };
    let results = Mutex::new(Vec::with_capacity(threads));
    let panicked: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    let work = || {
        let Some(claims) = Claims::start(&cursor, len, chunk) else {
            return;
        };
        match panic::catch_unwind(AssertUnwindSafe(|| participant(claims))) {
            Ok(result) => lock(&results).push(result),
            Err(payload) => {
                cursor.fetch_max(len, Ordering::Relaxed);
                lock(&panicked).get_or_insert(payload);
            }
        }
    };
    pool.run(threads - 1, &work);
    if let Some(payload) = panicked
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        panic::resume_unwind(payload);
    }
    results.into_inner().unwrap_or_else(PoisonError::into_inner)
}

/// The process-wide pool, started on first use.
fn pool() -> &'static Pool {
    static POOL: OnceLock<&'static Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let wanted = std::thread::available_parallelism().map_or(1, |n| n.get()) - 1;
        // Helpers block in `pool()` until this initializer returns. Count
        // only those that started; a failed spawn just means fewer seats.
        let helpers = (0..wanted)
            .filter(|i| {
                std::thread::Builder::new()
                    .name(format!("rft-helper-{i}"))
                    .spawn(|| pool().serve())
                    .is_ok()
            })
            .count();
        Box::leak(Box::new(Pool {
            queue: Mutex::new(VecDeque::new()),
            wake: Condvar::new(),
            helpers,
        }))
    })
}

/// Published tasks and the parked helpers that serve them.
struct Pool {
    queue: Mutex<VecDeque<Posting>>,
    wake: Condvar,
    helpers: usize,
}

/// A published task and how many more helpers may join it.
struct Posting {
    task: Arc<Task>,
    seats: usize,
}

/// One round of work. `work` borrows the caller's stack: [`Pool::run`]
/// erases that lifetime and does not return until no helper can call it.
struct Task {
    work: &'static (dyn Fn() + Sync),
    /// Helpers that joined and have not finished.
    joined: Mutex<usize>,
    left: Condvar,
}

impl Pool {
    /// Publishes `work` for up to `seats` helpers, runs it on the caller,
    /// withdraws it, and waits for the helpers that joined. `work` must
    /// not panic on a helper ([`run_chunked`] catches inside it).
    fn run(&self, seats: usize, work: &(dyn Fn() + Sync)) {
        // SAFETY: the erased borrow is reachable only through the task.
        // Helpers call it only after joining, which happens under the
        // queue lock while the task is queued. `Withdraw` is armed as soon
        // as the task is queued, and its drop — on return or on unwind —
        // takes the task off the queue under that lock and then waits
        // until every joined helper has returned from the call. So no call
        // outlives this frame.
        let work: &'static (dyn Fn() + Sync) =
            unsafe { std::mem::transmute::<&(dyn Fn() + Sync), &'static (dyn Fn() + Sync)>(work) };
        let task = Arc::new(Task {
            work,
            joined: Mutex::new(0),
            left: Condvar::new(),
        });
        let seats = seats.min(self.helpers);
        lock(&self.queue).push_back(Posting {
            task: Arc::clone(&task),
            seats,
        });
        let _withdraw = Withdraw {
            pool: self,
            task: &task,
        };
        for _ in 0..seats {
            self.wake.notify_one();
        }
        work();
    }

    /// A helper's life: join the oldest published task, run it, repeat.
    fn serve(&self) {
        loop {
            let task = {
                let mut queue = lock(&self.queue);
                loop {
                    if let Some(posting) = queue.front_mut() {
                        let task = Arc::clone(&posting.task);
                        posting.seats -= 1;
                        if posting.seats == 0 {
                            queue.pop_front();
                        }
                        *lock(&task.joined) += 1;
                        break task;
                    }
                    queue = self
                        .wake
                        .wait(queue)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            (task.work)();
            let mut joined = lock(&task.joined);
            *joined -= 1;
            if *joined == 0 {
                task.left.notify_one();
            }
        }
    }
}

/// Withdraws a published task and waits out the helpers that joined it.
struct Withdraw<'a> {
    pool: &'a Pool,
    task: &'a Arc<Task>,
}

impl Drop for Withdraw<'_> {
    fn drop(&mut self) {
        lock(&self.pool.queue).retain(|posting| !Arc::ptr_eq(&posting.task, self.task));
        let mut joined = lock(&self.task.joined);
        while *joined > 0 {
            joined = self
                .task
                .left
                .wait(joined)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::atomic::AtomicBool;
    use std::time::{Duration, Instant};

    /// Every index is claimed exactly once, whatever the split.
    fn covered(threads: usize, len: u64, chunk: u64) -> Vec<u64> {
        let parts = run_chunked(threads, len, chunk, |claims| {
            claims
                .flat_map(|r| r.collect::<Vec<_>>())
                .collect::<Vec<_>>()
        });
        let mut all: Vec<u64> = parts.into_iter().flatten().collect();
        all.sort_unstable();
        all
    }

    #[test]
    fn claims_cover_the_range_once() {
        for (threads, len, chunk) in [(1, 10, 4), (2, 10, 4), (4, 1000, 8), (2, 3, 8), (8, 64, 1)] {
            assert_eq!(
                covered(threads, len, chunk),
                (0..len).collect::<Vec<_>>(),
                "threads {threads}, len {len}, chunk {chunk}"
            );
        }
        assert!(covered(2, 0, 4).is_empty());
    }

    #[test]
    fn chunks_stay_aligned() {
        let starts: BTreeSet<u64> = run_chunked(2, 100, 8, |claims| {
            claims.map(|r| r.start).collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();
        assert!(starts.iter().all(|s| s % 8 == 0), "{starts:?}");
    }

    #[test]
    fn a_panicking_participant_is_reraised_and_the_pool_survives() {
        let caught = panic::catch_unwind(|| {
            run_chunked(2, 64, 1, |claims| {
                for r in claims {
                    assert!(r.start != 40, "word 40 fails");
                }
            })
        });
        assert!(caught.is_err());
        assert_eq!(covered(2, 64, 1), (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn an_unwinding_caller_waits_for_the_helpers_that_joined() {
        let pool = pool();
        if pool.helpers == 0 {
            return;
        }
        let (entered, left) = (AtomicBool::new(false), AtomicBool::new(false));
        let caller = std::thread::current().id();
        let work = || {
            if std::thread::current().id() == caller {
                let deadline = Instant::now() + Duration::from_secs(5);
                while !entered.load(Ordering::Acquire) && Instant::now() < deadline {
                    std::thread::yield_now();
                }
                panic!("the caller unwinds while a helper works");
            }
            entered.store(true, Ordering::Release);
            std::thread::sleep(Duration::from_millis(50));
            left.store(true, Ordering::Release);
        };
        let caught = panic::catch_unwind(AssertUnwindSafe(|| pool.run(1, &work)));
        assert!(caught.is_err());
        // A helper that joined has left before `run` unwound past it.
        assert_eq!(
            left.load(Ordering::Acquire),
            entered.load(Ordering::Acquire)
        );
    }
}
