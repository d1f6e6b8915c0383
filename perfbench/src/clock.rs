//! The clock the end-to-end timings are read from: CPU time of the
//! benchmark's thread, rescaled by how fast the host ran a fixed
//! reference loop during the same run.
//!
//! On a virtual machine shared with other tenants the same exploration
//! runs up to 1.6 times slower in one stretch of seconds or minutes than
//! in another, within one process as much as across processes, so a
//! run's median moves with the stretches the run happened to fall in.
//! CPU time leaves out the time spent waiting for a core. The reference
//! loop is the benchmark's own code and calls nothing in the engine; it
//! runs between operations all through the run, and the median of its
//! times says how fast the host was. A timing's median is multiplied by
//! [`NOMINAL_REFERENCE_S`] over that median: it reads the seconds the
//! operation takes on a host where the loop takes
//! [`NOMINAL_REFERENCE_S`], and a change to the engine moves it as much
//! as it moves the CPU time.

use crate::stats::median;
use std::collections::HashMap;
use std::hint::black_box;

/// Iterations of one reference loop.
pub const REFERENCE_ITERATIONS: u64 = 100_000;

/// Entries of the reference loop's table: about a megabyte.
const REFERENCE_KEYS: usize = 1 << 16;

/// The CPU seconds of one reference loop the rescaled timings are stated
/// at: about its median on the baseline host of `README.md`.
pub const NOMINAL_REFERENCE_S: f64 = 0.018;

/// The CPU time the calling thread has used so far, in seconds: the time
/// it ran, which waiting for a core does not add to.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn thread_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a writable `struct timespec` in the 64-bit Linux
    // layout, and the clock id is one every Linux kernel knows.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Elsewhere: wall time since the first call, which includes waiting
/// for a core.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn thread_cpu_s() -> f64 {
    static START: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    START
        .get_or_init(std::time::Instant::now)
        .elapsed()
        .as_secs_f64()
}

/// Runs `f` and returns its result with the CPU seconds it took.
pub fn cpu_timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = thread_cpu_s();
    let value = f();
    (value, thread_cpu_s() - start)
}

/// The reference work, three kinds of what the engine's state tables
/// and forks do, at fixed sizes: inserts, lookups and removals at
/// pseudo-random keys of a hash table of about a megabyte; allocating and
/// freeing small blocks, at most 4,096 live; ordered inserts and range
/// lookups in a B-tree. The hash table keeps its capacity from one loop
/// to the next. Returns a checksum that depends on every step.
pub fn reference_work(table: &mut HashMap<u64, u64>, iterations: u64) -> u64 {
    let keys = REFERENCE_KEYS as u64;
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut acc = 0u64;

    table.clear();
    for i in 0..iterations {
        let r = next();
        *table.entry(r % keys).or_insert(i) ^= r;
        if let Some(v) = table.get(&((r >> 17) % keys)) {
            acc = acc.wrapping_add(*v);
        }
        if i % 2 == 0 {
            if let Some(v) = table.remove(&((r >> 31) % keys)) {
                acc ^= v;
            }
        }
    }
    acc = acc.wrapping_add(table.len() as u64);

    let mut blocks: Vec<Box<[u64; 6]>> = Vec::with_capacity(4096);
    for i in 0..iterations / 2 {
        let r = next();
        if blocks.len() == 4096 {
            let block = blocks.swap_remove((r % 4096) as usize);
            acc = acc.wrapping_add(block[(i % 6) as usize]);
        }
        blocks.push(Box::new([r; 6]));
    }

    let mut tree = std::collections::BTreeMap::new();
    for i in 0..iterations / 4 {
        let r = next();
        tree.insert(r % keys, i);
        if let Some((k, v)) = tree.range((r >> 20) % keys..).next() {
            acc = acc.wrapping_add(k ^ v);
        }
    }
    acc.wrapping_add(tree.len() as u64)
}

/// The reference loops of one run.
#[derive(Debug)]
pub struct Clock {
    table: HashMap<u64, u64>,
    /// The CPU seconds of every timed reference loop, in order.
    pub references_s: Vec<f64>,
}

impl Clock {
    /// A clock with its table allocated and no loop timed yet.
    pub fn new() -> Clock {
        Clock {
            table: HashMap::with_capacity(REFERENCE_KEYS),
            references_s: Vec::new(),
        }
    }

    /// Times one reference loop, after a short untimed one that brings
    /// the table back into the cache the last operation used.
    pub fn tick(&mut self) {
        black_box(reference_work(&mut self.table, REFERENCE_ITERATIONS / 10));
        let (checksum, s) = cpu_timed(|| reference_work(&mut self.table, REFERENCE_ITERATIONS));
        black_box(checksum);
        self.references_s.push(s);
    }

    /// The factor that turns this run's CPU seconds into seconds at
    /// [`NOMINAL_REFERENCE_S`]: 1 before the first tick.
    pub fn scale(&self) -> f64 {
        median(&self.references_s).map_or(1.0, |m| NOMINAL_REFERENCE_S / m)
    }
}

impl Default for Clock {
    fn default() -> Clock {
        Clock::new()
    }
}
