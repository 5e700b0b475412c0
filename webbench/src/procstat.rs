//! CPU time and memory read from `/proc`.
//!
//! Live runs charge CPU by thread: every task of the process is a
//! server thread except the benchmark's own (its control thread and the
//! load generators), so server CPU is the sum of the other tasks'
//! `schedstat` run time.

use std::fs;
use std::io;

/// This thread's kernel task id.
pub fn tid() -> io::Result<u32> {
    // `/proc/thread-self` links to `<pid>/task/<tid>`.
    let link = fs::read_link("/proc/thread-self")?;
    link.file_name()
        .and_then(|n| n.to_str())
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "unexpected /proc/thread-self"))
}

/// Nanoseconds task `tid` of this process has run (the first field of
/// its `schedstat`).
pub fn task_cpu_ns(tid: u32) -> io::Result<u64> {
    parse_schedstat(&fs::read_to_string(format!(
        "/proc/self/task/{tid}/schedstat"
    ))?)
}

fn parse_schedstat(text: &str) -> io::Result<u64> {
    text.split_whitespace()
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "unexpected schedstat"))
}

/// Run time summed over every task of the process except `exclude`.
/// A task that exits between listing and reading is skipped.
pub fn cpu_ns_excluding(exclude: &[u32]) -> io::Result<u64> {
    let mut total = 0;
    for entry in fs::read_dir("/proc/self/task")? {
        let Some(tid) = entry?
            .file_name()
            .to_str()
            .and_then(|n| n.parse::<u32>().ok())
        else {
            continue;
        };
        if !exclude.contains(&tid) {
            total += task_cpu_ns(tid).unwrap_or(0);
        }
    }
    Ok(total)
}

/// Clock ticks the hypervisor ran something else while CPU `cpu`
/// wanted to run (the `steal` column of its `cpuN` line in
/// `/proc/stat`).
pub fn steal_ticks(cpu: usize) -> io::Result<u64> {
    let stat = fs::read_to_string("/proc/stat")?;
    let prefix = format!("cpu{cpu} ");
    stat.lines()
        .find(|l| l.starts_with(&prefix))
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no steal column in /proc/stat"))
}

/// A CPU set as the kernel's `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs this thread may run on, in increasing order.
///
/// # Errors
///
/// The kernel refused to read the affinity, or it is empty.
pub fn allowed_cpus() -> io::Result<Vec<usize>> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: the kernel writes at most `size_of::<CpuSet>()` bytes into
    // the live, properly aligned local; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) } != 0 {
        return Err(io::Error::last_os_error());
    }
    let cpus: Vec<usize> = (0..mask.len() * 64)
        .filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .collect();
    if cpus.is_empty() {
        return Err(io::Error::other("empty CPU affinity mask"));
    }
    Ok(cpus)
}

/// Binds every thread of the process to CPU `cpu`; threads started
/// afterwards inherit the binding from the thread that starts them.
///
/// On a shared virtual machine a hand-off between threads on two
/// virtual CPUs waits until the host runs the woken CPU, a delay that
/// swings with the host's load; the staged server makes several such
/// hand-offs per request. On one CPU a wake-up is a run-queue insertion,
/// and the closed loop always has a thread to run, so that CPU never
/// idles.
///
/// # Errors
///
/// The kernel refused to set a live thread's affinity.
pub fn bind_process(cpu: usize) -> io::Result<()> {
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // A thread started during the first pass may have inherited the old
    // binding; the second pass catches it.
    for _ in 0..2 {
        for entry in fs::read_dir("/proc/self/task")? {
            let Some(tid) = entry?
                .file_name()
                .to_str()
                .and_then(|n| n.parse::<i32>().ok())
            else {
                continue;
            };
            // SAFETY: the kernel reads `size_of::<CpuSet>()` bytes from
            // the live local; `tid` names a thread of this process.
            if unsafe { sched_setaffinity(tid, std::mem::size_of::<CpuSet>(), &one) } != 0 {
                let err = io::Error::last_os_error();
                // The thread exited between listing and binding.
                if err.raw_os_error() != Some(ESRCH) {
                    return Err(err);
                }
            }
        }
    }
    Ok(())
}

/// `errno` for a thread that no longer exists.
const ESRCH: i32 = 3;

/// Peak resident set size (`VmHWM`) in MiB.
pub fn vm_hwm_mib() -> io::Result<f64> {
    let status = fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM in /proc/self/status"))
}

/// This thread's CPU time in nanoseconds, from the same scheduler
/// counter `schedstat` prints (`CLOCK_THREAD_CPUTIME_ID`), at a fraction
/// of the cost of reading the file; spans read it twice each.
pub fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `clock_gettime` writes one `struct timespec` (two 64-bit
    // fields on 64-bit Linux, matching `Timespec`'s C layout) through a
    // pointer to a live, writable local; the clock id is a constant the
    // kernel always supports.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_own_cpu_and_memory() {
        let me = tid().unwrap();
        let before = task_cpu_ns(me).unwrap();
        let t0 = thread_cpu_ns();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        assert!(thread_cpu_ns() > t0);
        assert!(task_cpu_ns(me).unwrap() > before);
        assert!(cpu_ns_excluding(&[]).unwrap() >= task_cpu_ns(me).unwrap());
        assert!(vm_hwm_mib().unwrap() > 0.0);
        steal_ticks(0).unwrap();
        assert_eq!(parse_schedstat("123 456 7\n").unwrap(), 123);
    }

    #[test]
    fn binds_the_process_and_threads_it_starts_later() {
        fn mask() -> CpuSet {
            let mut mask: CpuSet = [0; 16];
            // SAFETY: as in `allowed_cpus`.
            let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) };
            assert_eq!(rc, 0);
            mask
        }
        // This binds the test harness's threads too, which only slows
        // the other tests down.
        let cpus = allowed_cpus().unwrap();
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let early = std::thread::spawn(move || {
            rx.recv().unwrap();
            mask()
        });
        for &cpu in cpus.iter().rev() {
            bind_process(cpu).unwrap();
            steal_ticks(cpu).unwrap();
            let mut one: CpuSet = [0; 16];
            one[cpu / 64] = 1 << (cpu % 64);
            assert_eq!(mask(), one);
            assert_eq!(std::thread::spawn(mask).join().unwrap(), one);
        }
        tx.send(()).unwrap();
        let mut first: CpuSet = [0; 16];
        first[cpus[0] / 64] = 1 << (cpus[0] % 64);
        assert_eq!(early.join().unwrap(), first);
    }
}
