//! One helper thread for the second core: [`halves`] runs a kernel call's
//! two halves at once, the caller's half on the caller and the other on
//! the helper, whenever the helper is free and a core is.
//!
//! A weight pass on one core streams its matrix at what one core can pull
//! from L3 and DRAM; the second core's load ports double that. The
//! [`Blocked`](crate::Blocked) mat-mul splits its row blocks in two and
//! hands the halves to [`halves`], so the split never changes which thread
//! computes an output, only which core: every (row, input) output is still
//! written by one thread through the unchanged tile, hence bit-identical.
//!
//! The protocol (std only: one thread, atomics, `park`):
//!
//! * **Spawn.** The helper is spawned on the first call that would use it,
//!   and only on a host with two cores or more; elsewhere the caller runs
//!   both halves.
//! * **Hand-off.** The caller that wins the `owner` flag (a try-acquire: a
//!   second caller at the same moment runs both halves itself) points the
//!   job slot at its second half and posts a new sequence number. Whoever
//!   moves the claim word from the previous number to the new one runs that
//!   half: the helper if it is awake, else the caller after its own half.
//!   The caller then waits for the helper only on a half the helper
//!   claimed, so a parked, descheduled or busy helper never blocks anyone.
//! * **Idle.** After 200 µs without a half the helper parks; a caller
//!   unparks it only when it is asleep.
//! * **Cores.** Threads that keep a core busy on their own (the cluster's
//!   workers) hold a [`Busy`] guard; the helper takes a half only while
//!   `max(busy, 1) + 1 <= cores`, so it never becomes a third thread
//!   competing for two cores.
//! * **Panics.** A half that panics on the helper is caught and the caller
//!   runs it again, so the panic surfaces on the caller's thread.

use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering::{AcqRel, Acquire, Relaxed, Release, SeqCst};
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize};
use std::sync::OnceLock;
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

/// How long the helper spins for its next half before it parks: long
/// enough to bridge the norms, attention and predictor work between two
/// weight passes of a decode step, short enough that an idle process
/// leaves the core within a fraction of a millisecond.
const IDLE_SPIN: Duration = Duration::from_micros(200);

/// Spins a caller makes waiting on the helper's half before it yields its
/// core (a descheduled helper needs that core back to finish).
const WAIT_SPINS: u32 = 1 << 12;

/// Threads holding a [`Busy`] guard.
static BUSY: AtomicUsize = AtomicUsize::new(0);

/// Marks the current thread as one that keeps a core busy for as long as
/// the guard lives (a cluster worker), so the helper leaves that core to
/// it: the helper takes a half only while `max(busy, 1) + 1` threads fit
/// the host's cores.
#[derive(Debug)]
#[must_use = "the core counts as busy only while the guard lives"]
pub struct Busy(());

impl Busy {
    /// Counts one more busy thread until the guard drops.
    pub fn new() -> Self {
        BUSY.fetch_add(1, SeqCst);
        Busy(())
    }
}

impl Default for Busy {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for Busy {
    fn drop(&mut self) {
        BUSY.fetch_sub(1, SeqCst);
    }
}

/// The host's cores, as the standard library reports them.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// Whether the helper may take a half: one caller (or every busy thread)
/// and the helper fit the cores.
fn room_for_helper() -> bool {
    BUSY.load(SeqCst).max(1) < cores()
}

/// A value on a cache line of its own (two: some prefetchers fetch lines
/// in pairs), so a write to it does not take the lines the other thread
/// spins on away from that thread.
#[repr(align(128))]
struct Line<T>(T);

impl<T> std::ops::Deref for Line<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

/// What the owning caller writes for the helper.
struct Post {
    /// The posted second half: a `&(dyn Fn() + Sync)` on the owner's stack.
    job: AtomicPtr<()>,
    /// Sequence number of the last posted half; stored after `job`, and
    /// its `SeqCst` store / the helper's `Acquire` load publish `job`.
    seq: AtomicU64,
}

/// What the helper writes for the owning caller.
struct Done {
    /// Sequence number of the last half the helper finished: its
    /// `Release` store / the owner's `Acquire` load publish the half's
    /// outputs and `panicked`.
    seq: AtomicU64,
    /// The helper's last half panicked (read by its owner after `seq`).
    panicked: AtomicBool,
    /// The helper is parked or about to park.
    asleep: AtomicBool,
    /// Halves the helper has run (what the tests read to see it work).
    taken: AtomicU64,
}

/// Held by the caller whose halves the slot carries. Its `Release` store
/// on leaving and the next owner's `Acquire` exchange order the last
/// posted sequence number before the next one.
static OWNER: Line<AtomicBool> = Line(AtomicBool::new(false));

static POST: Line<Post> = Line(Post {
    job: AtomicPtr::new(std::ptr::null_mut()),
    seq: AtomicU64::new(0),
});

/// Sequence number of the last half someone took to run: the claim word
/// the owner and the helper race for.
static CLAIMED: Line<AtomicU64> = Line(AtomicU64::new(0));

static DONE: Line<Done> = Line(Done {
    seq: AtomicU64::new(0),
    panicked: AtomicBool::new(false),
    asleep: AtomicBool::new(false),
    taken: AtomicU64::new(0),
});

/// The helper thread, spawned by the first call that asks for it; `None`
/// on a one-core host or when the spawn failed. Its handle is dropped on
/// purpose: the helper lives as long as the process, parked when idle,
/// and catches its halves' panics, so there is nothing to join.
fn helper() -> Option<&'static Thread> {
    static HELPER: OnceLock<Option<Thread>> = OnceLock::new();
    HELPER
        .get_or_init(|| {
            let spawn = || {
                thread::Builder::new()
                    .name("specee-tensor-helper".into())
                    .spawn(helper_loop)
                    .ok()
            };
            (cores() >= 2)
                .then(spawn)
                .flatten()
                .map(|h| h.thread().clone())
        })
        .as_ref()
}

/// Runs `first` and `second`, at once when the helper is free: `first` on
/// the calling thread, `second` on the helper if it claims it before the
/// caller is done with `first`, else on the caller after `first`. Returns
/// when both have run. A `second` that panics on the helper is run again
/// on the caller, so its panic surfaces here.
pub fn halves(first: impl FnOnce(), second: &(dyn Fn() + Sync)) {
    let Some(helper) = helper() else {
        first();
        second();
        return;
    };
    if !room_for_helper()
        || OWNER
            .compare_exchange(false, true, Acquire, Relaxed)
            .is_err()
    {
        first();
        second();
        return;
    }
    let seq = POST.seq.load(Relaxed) + 1;
    // The slot points at `second` on this frame; `Handoff` does not let the
    // frame go (not even by unwinding out of `first`) before the helper is
    // done with it.
    POST.job
        .store(&second as *const &(dyn Fn() + Sync) as *mut (), Relaxed);
    let mut handoff = Handoff {
        seq,
        settled: false,
    };
    POST.seq.store(seq, SeqCst);
    if DONE.asleep.load(SeqCst) {
        helper.unpark();
    }
    first();
    let run_here = handoff.settle();
    drop(handoff);
    if run_here {
        second();
    }
}

/// The owner's claim on posted half `seq`; on drop it settles the half
/// (if nobody has) and frees the slot.
struct Handoff {
    seq: u64,
    settled: bool,
}

impl Handoff {
    /// Takes the half back if the helper has not claimed it, else waits
    /// until the helper is done with it. True when the caller has to run
    /// the half: it took it back, or the helper's run panicked.
    fn settle(&mut self) -> bool {
        self.settled = true;
        // Read first: a failed exchange would still take the line.
        if CLAIMED.load(Relaxed) != self.seq
            && CLAIMED
                .compare_exchange(self.seq - 1, self.seq, AcqRel, Relaxed)
                .is_ok()
        {
            return true;
        }
        let mut spins = 0u32;
        while DONE.seq.load(Acquire) != self.seq {
            if spins < WAIT_SPINS {
                spins += 1;
                std::hint::spin_loop();
            } else {
                thread::yield_now();
            }
        }
        DONE.panicked.swap(false, Relaxed)
    }
}

impl Drop for Handoff {
    fn drop(&mut self) {
        if !self.settled {
            // Unwinding out of `first`: the second half is not wanted any
            // more, but the helper may be running it on this frame.
            self.settle();
        }
        OWNER.store(false, Release);
    }
}

/// The helper: claims each posted half while there is room for it, spins
/// [`IDLE_SPIN`] for the next one, then parks.
fn helper_loop() {
    let mut idle_since = Instant::now();
    let mut spins = 0u32;
    loop {
        let seq = POST.seq.load(Acquire);
        let open = CLAIMED.load(Relaxed) != seq;
        if open
            && room_for_helper()
            && CLAIMED
                .compare_exchange(seq - 1, seq, AcqRel, Relaxed)
                .is_ok()
        {
            let job = POST.job.load(Relaxed) as *const &(dyn Fn() + Sync);
            // SAFETY: `job` was stored before `seq` was posted (the
            // `Acquire` load of `POST.seq` orders it before this read), and
            // it points at the owner's `&dyn Fn` for `seq`: the owner does
            // not leave the frame holding it until `DONE.seq == seq`, and
            // no later half is posted before then.
            let run = catch_unwind(AssertUnwindSafe(|| unsafe { (*job)() }));
            DONE.panicked.store(run.is_err(), Relaxed);
            DONE.taken.fetch_add(1, Relaxed);
            DONE.seq.store(seq, Release);
            idle_since = Instant::now();
            continue;
        }
        spins = spins.wrapping_add(1);
        if room_for_helper() && (!spins.is_multiple_of(64) || idle_since.elapsed() < IDLE_SPIN) {
            std::hint::spin_loop();
            continue;
        }
        DONE.asleep.store(true, SeqCst);
        // A caller posts, then reads `asleep`; this thread writes `asleep`,
        // then reads `POST.seq`: one of the two sees the other.
        let seq = POST.seq.load(SeqCst);
        if CLAIMED.load(SeqCst) == seq || !room_for_helper() {
            thread::park();
        }
        DONE.asleep.store(false, SeqCst);
        idle_since = Instant::now();
    }
}

/// Test hooks: the helper's counters and states, for the kernel's tests.
#[cfg(test)]
pub(crate) mod probe {
    use std::sync::{Mutex, MutexGuard};

    use super::*;

    /// Serialises the tests that steer or count the helper (a held slot
    /// or a `Busy` guard in one test would starve another's helper).
    pub(crate) fn exclusive() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Halves the helper has run so far (what the tests read to see it work).
    pub(crate) fn taken() -> u64 {
        DONE.taken.load(Relaxed)
    }

    /// The host's cores, as the helper's room rule counts them.
    pub(crate) fn cores() -> usize {
        super::cores()
    }

    /// Holds the slot as another caller would, until dropped; `None` if
    /// some caller holds it now.
    pub(crate) fn hold() -> Option<impl Drop> {
        struct Held;
        impl Drop for Held {
            fn drop(&mut self) {
                OWNER.store(false, Release);
            }
        }
        // Not `then_some`: a `Held` built for nothing would free the slot
        // its real owner holds when it drops.
        if OWNER
            .compare_exchange(false, true, Acquire, Relaxed)
            .is_ok()
        {
            Some(Held)
        } else {
            None
        }
    }

    /// Waits (up to a second) until the helper is parked; false if it
    /// never was, or does not exist.
    pub(crate) fn wait_until_parked() -> bool {
        let start = Instant::now();
        while start.elapsed() < Duration::from_secs(1) {
            if helper().is_some() && DONE.asleep.load(SeqCst) {
                return true;
            }
            thread::sleep(Duration::from_micros(50));
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_half_that_panics_on_the_helper_panics_on_the_caller() {
        let _one = probe::exclusive();
        if cores() < 2 {
            println!("one core: no helper to panic on");
            return;
        }
        let before = probe::taken();
        let caught = catch_unwind(|| {
            halves(
                || {
                    // Give the helper the time to claim the half and panic.
                    let start = Instant::now();
                    while probe::taken() == before && start.elapsed() < Duration::from_secs(2) {
                        thread::sleep(Duration::from_micros(50));
                    }
                },
                &|| panic!("the second half panics"),
            )
        });
        let message = caught.expect_err("the caller re-ran the half");
        assert_eq!(
            message.downcast_ref::<&str>(),
            Some(&"the second half panics")
        );
        assert!(probe::taken() > before, "the helper never claimed the half");
        // The slot is free again, and the helper still serves.
        let (a, b) = (AtomicU64::new(0), AtomicU64::new(0));
        halves(|| _ = a.fetch_add(1, Relaxed), &|| {
            _ = b.fetch_add(1, Relaxed)
        });
        assert_eq!((a.into_inner(), b.into_inner()), (1, 1));
    }
}
